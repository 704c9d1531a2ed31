"""Quotient-side fixed locus: dimensions, fermionic shifts, rotation-orbit
counts with Burnside cross-checks, and the stringy total.

Oracles: binomial coefficients of the fixed-locus E-polynomial, hand orbit
counts, and agreement of the stringy sum with the independently computed
closed form of the variant side.
"""

from math import comb, factorial

import pytest

from parmirror.cstar_fixed import variant_closed_form
from parmirror import pgl_fixed
from parmirror.exactpoly import ONE, U, V, IdentityCheckError
from parmirror.moduli import ModuliParams, dim_moduli
from parmirror.pgl_fixed import (
    fermionic_shift,
    fixed_locus_dim,
    invariant_epoly,
    prym_epoly,
    rotate_word,
    sn_quotient_count,
    sn_quotient_count_bruteforce,
    stringy_gamma_sum,
    stringy_gamma_summand,
)
from parmirror.cstar_fixed import LimitError
from parmirror.torsion import SymplecticForm, TorsionVector, standard_basis_vector


def test_fixed_locus_dim_hand_values():
    assert fixed_locus_dim(2, 2) == 2
    assert fixed_locus_dim(3, 2) == 4
    for n in (2, 3, 5):
        for g in (2, 3, 4):
            assert fixed_locus_dim(n, g) == 2 * (n - 1) * (g - 1)


def test_fermionic_shift_hand_values():
    assert fermionic_shift(ModuliParams(2, 2, 1)) == 3
    assert fermionic_shift(ModuliParams(3, 2, 1)) == 9


@pytest.mark.parametrize("n", [2, 3, 5, 7])
@pytest.mark.parametrize("g", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_fermionic_shift_is_half_codimension(n, g, k):
    p = ModuliParams(n, g, k)
    assert 2 * fermionic_shift(p) == dim_moduli(p) - fixed_locus_dim(n, g)


def test_prym_epoly_binomial_coefficients():
    for n, g in [(2, 2), (3, 2), (2, 3), (5, 2)]:
        P = (n - 1) * (g - 1)
        poly = prym_epoly(n, g)
        assert poly == ((ONE - U) * (ONE - V)) ** P
        for p_ in range(P + 1):
            for q in range(P + 1):
                assert poly.coeff(p_, q) == (-1) ** (p_ + q) * comb(P, p_) * comb(P, q)


def test_rotate_word():
    assert rotate_word((1, 2, 3), 0) == (1, 2, 3)
    assert rotate_word((1, 2, 3), 1) == (3, 1, 2)
    assert rotate_word((1, 2, 3), 2) == (2, 3, 1)


def test_sn_quotient_count_hand_values():
    assert sn_quotient_count(2, 1) == 1
    assert sn_quotient_count(3, 1) == 2
    assert sn_quotient_count(3, 2) == 12
    assert sn_quotient_count(5, 1) == 24


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 2])
def test_sn_quotient_count_bruteforce_agrees(n, k):
    assert sn_quotient_count_bruteforce(n, k) == factorial(n) ** k // n


def test_sn_quotient_count_bruteforce_limits():
    with pytest.raises(LimitError):
        sn_quotient_count_bruteforce(7, 1)
    with pytest.raises(LimitError):
        sn_quotient_count_bruteforce(3, 5)


def test_sn_quotient_count_bruteforce_fixed_word_raises(monkeypatch):
    # With rotations acting trivially every word is fixed, which the scan rejects.
    monkeypatch.setattr(pgl_fixed, "rotate_word", lambda word, r: word)
    with pytest.raises(IdentityCheckError):
        sn_quotient_count_bruteforce(3, 1)


def test_invariant_epoly_hand_values():
    uv = U * V
    factor = (ONE - U) * (ONE - V)
    assert invariant_epoly(ModuliParams(2, 2, 1)) == uv * factor
    assert invariant_epoly(ModuliParams(2, 2, 2)) == 2 * uv * factor
    assert invariant_epoly(ModuliParams(3, 2, 1)) == 2 * uv**2 * factor**2


def test_fixed_locus_invariants_bundle():
    p = ModuliParams(3, 2, 2)
    assert fixed_locus_dim(p.n, p.g) == 4
    assert fermionic_shift(p) == 12
    assert sn_quotient_count(p.n, p.k) == 12
    assert invariant_epoly(p) == 12 * prym_epoly(p.n, p.g).shift(2, 2)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("d", [0, 1])
def test_stringy_sum_equals_variant_closed_form(n, g, k, d):
    p = ModuliParams(n, g, k, d)
    assert stringy_gamma_sum(p) == variant_closed_form(p)


def test_stringy_summand_runs_action_model():
    p = ModuliParams(3, 2, 1, d=1)
    form = SymplecticForm.standard(3, 2)
    gamma = standard_basis_vector(3, 2, 0)
    summand = stringy_gamma_summand(p, gamma, form)
    assert summand == invariant_epoly(p) * (U * V) ** fermionic_shift(p)
    assert summand * (3**4 - 1) == stringy_gamma_sum(p)
    other = TorsionVector(n=3, coords=(1, 2, 2, 0))
    assert stringy_gamma_summand(p, other, form, l_gamma=2) == summand


def test_stringy_summand_rejects_mismatched_gamma():
    p = ModuliParams(3, 2, 1)
    form = SymplecticForm.standard(3, 2)
    with pytest.raises(ValueError):
        stringy_gamma_summand(p, standard_basis_vector(3, 3, 0), form)


def test_stringy_summand_failed_action_model_is_identity_failure(monkeypatch):
    """A failed per-gamma model check is a fault of the computation, not of
    the invocation: IdentityCheckError (exit 1), not ValueError (exit 2)."""
    monkeypatch.setattr(pgl_fixed, "check_component_action", lambda model, form: False)
    p = ModuliParams(3, 2, 1, d=1)
    form = SymplecticForm.standard(3, 2)
    with pytest.raises(IdentityCheckError, match="component action model fails"):
        stringy_gamma_summand(p, standard_basis_vector(3, 2, 0), form)
