"""Exact verification of a topological mirror identity for parabolic
Higgs moduli of prime rank with full flags.

The library computes the variant E-polynomial total three ways
(fixed-component census, closed form, root-of-unity filtered sum) and the
stringy total on the quotient side, entirely in exact arithmetic, and checks
the four agree. Only the census reads the weights. The filtered sum is the
closed form times one check in integers, that the sigma sums of the word
tuples are flat mod n; the stringy total is the closed-form product
rearranged. Supporting pieces: sparse bivariate integer polynomials,
wall/chamber analysis of parabolic weights, descent combinatorics, and
torsion-group actions with the standard symplectic pairing.
"""

from .chambers import WeightSystem, enumerate_walls, is_generic, sample_generic_weights
from .exactpoly import BivarPoly
from .kernels import active_backend
from .moduli import ModuliParams, dim_hitchin_base, dim_moduli
from .tms import SweepConfig, TmsReport, sweep, verify_identity

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BivarPoly",
    "ModuliParams",
    "WeightSystem",
    "TmsReport",
    "SweepConfig",
    "verify_identity",
    "sweep",
    "enumerate_walls",
    "is_generic",
    "sample_generic_weights",
    "dim_moduli",
    "dim_hitchin_base",
    "active_backend",
]
