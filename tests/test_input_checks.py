"""Each input check a caller can reach, run once.

One table of (callable, arguments, expected): an exception instance means
the call raises that type with that text in its message; anything else is
the value the call returns. Mixed-type == returns False once both sides
decline, and mixed-type +, - and * raise TypeError.
"""

import operator
import re
from fractions import Fraction

import pytest

from parmirror.chambers import WeightSystem, solve_beta_for_degree, tensor_transform
from parmirror.exactpoly import U, BivarPoly, CycBivarPoly, CycInt, binom_deg_slice
from parmirror.pgl_fixed import sn_quotient_count
from parmirror.torsion import (
    NormFiberModel,
    SymplecticForm,
    TorsionVector,
    complete_basis,
    invariant_fiber_count,
    is_basis,
    kernel_component_count,
    weil_pairing,
)

XI3, XI5 = CycInt(3, (0, 1)), CycInt(5, (0, 1, 0, 0))
ONE3, ONE5 = CycBivarPoly.one(3), CycBivarPoly.one(5)
GAMMA3, GAMMA5 = TorsionVector(3, (1, 0, 0, 0)), TorsionVector(5, (1, 0, 0, 0))
FORM3 = SymplecticForm.standard(3, 2)
FIRST_ZERO = WeightSystem.from_rows([[0, Fraction(1, 2)]])
MIXED = TypeError("unsupported operand")
COMPOSITE = ValueError("n = 4 is not prime")

CHECKS = {
    # exactpoly
    "power-negative": (operator.pow, (U, -1), ValueError("exponent -1 must be a nonnegative int")),
    "poly-float-coefficient": (BivarPoly, ({(0, 0): 1.5},), TypeError("coefficient 1.5 is not an int")),
    "poly-plus-int": (operator.add, (U, 1), MIXED),
    "poly-minus-int": (operator.sub, (U, 1), MIXED),
    "poly-times-float": (operator.mul, (U, 1.5), MIXED),
    "slice-negative": (binom_deg_slice, (-1, 0), ValueError("need G >= 0 and m >= 0, got (-1, 0)")),
    "cycint-composite": (CycInt, (4, (0, 0, 0)), COMPOSITE),
    "cycint-coordinates": (CycInt, (3, (1,)), ValueError("need 2 coordinates for n = 3, got 1")),
    "cycint-eq-mixed-n": (operator.eq, (XI3, XI5), False),
    "cycint-plus-mixed-n": (operator.add, (XI3, XI5), MIXED),
    "cycint-times-mixed-n": (operator.mul, (XI3, XI5), MIXED),
    "cycpoly-composite": (CycBivarPoly, (4,), COMPOSITE),
    "cycpoly-negative-exponent": (CycBivarPoly, (3, {(-1, 0): XI3}),
                                  ValueError("negative exponent pair (-1, 0)")),
    "cycpoly-foreign-coefficient": (CycBivarPoly, (3, {(0, 0): XI5}),
                                    TypeError("does not live in Z[xi_3]")),
    "cycpoly-eq-mixed-n": (operator.eq, (ONE3, ONE5), False),
    "cycpoly-plus-mixed-n": (operator.add, (ONE3, ONE5), MIXED),
    "cycpoly-minus-mixed-n": (operator.sub, (ONE3, ONE5), MIXED),
    "cycpoly-times-mixed-n": (operator.mul, (ONE3, ONE5), MIXED),
    "cycpoly-repr": (repr, (CycBivarPoly.monomial(3, 1, 0, XI3),),
                     "CycBivarPoly(n=3, {(1, 0): CycInt(n=3, (0, 1))})"),
    # torsion
    "vector-eq-int": (operator.eq, (GAMMA3, 5), False),
    "vector-plus-other-n": (operator.add, (GAMMA3, GAMMA5), ValueError("incompatible torsion vectors")),
    "form-not-square": (SymplecticForm, (3, 2, ((0, 1), (2, 0))), ValueError("form matrix is not 4 x 4")),
    "pairing-shape": (weil_pairing, (GAMMA5, GAMMA5, FORM3), ValueError("vector/form shape mismatch")),
    "basis-too-few": (is_basis, ((GAMMA3,),), False),
    "complete-zero-gamma": (complete_basis, (TorsionVector(3, (0, 0, 0, 0)), FORM3),
                            ValueError("gamma must be nonzero")),
    "complete-l-gamma-divisible": (complete_basis, (GAMMA3, FORM3, 3),
                                   ValueError("l_gamma = 3 is not invertible mod 3")),
    "fiber-composite": (NormFiberModel, (4, 0, GAMMA3), COMPOSITE),
    "fiber-gamma-other-n": (NormFiberModel, (5, 0, GAMMA3), ValueError("gamma lives mod a different n")),
    "invariant-composite": (invariant_fiber_count, (4, 2, 0), COMPOSITE),
    "invariant-genus-one": (invariant_fiber_count, (3, 1, 0), ValueError("genus 1 must be at least 2")),
    "kernel-composite": (kernel_component_count, (4,), COMPOSITE),
    # chambers
    "tensor-shift-count": (tensor_transform, (FIRST_ZERO, ()), ValueError("need 1 shifts, got 0")),
    "tensor-shift-range": (tensor_transform, (FIRST_ZERO, (1,)), ValueError("shift 1 outside [0, 1)")),
    "beta-wraps-a-zero-weight": (solve_beta_for_degree, (FIRST_ZERO, 0, 2),
                                 ValueError("no shift wraps exactly 2 weights at point 0")),
    # pgl_fixed
    "quotient-no-points": (sn_quotient_count, (3, 0), ValueError("need k >= 1, got 0")),
}


@pytest.mark.parametrize("fn,args,expected", CHECKS.values(), ids=CHECKS)
def test_input_check(fn, args, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            fn(*args)
    else:
        assert fn(*args) == expected
