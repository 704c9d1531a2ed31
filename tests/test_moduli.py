"""Dimension formulas, spectral data, and the section degree check.

Every numeric oracle is recomputed here from first principles (independent
arithmetic over Fractions), then compared with frozen hand values.
"""

from fractions import Fraction

import pytest

from oracles import ParabolicSummary, cover_genus, par_slope, spectral_fiber_degree
from parmirror.moduli import (
    ModuliParams,
    dim_hitchin_base,
    dim_moduli,
    hitchin_section_check,
    prym_dim,
)

SWEEP = [
    ModuliParams(n=n, g=g, k=k, d=d)
    for n in (2, 3, 5, 7)
    for g in (2, 3, 4, 5)
    for k in (1, 2, 3, 4)
    for d in (0, 1)
]


def test_dim_hand_values():
    assert dim_moduli(ModuliParams(2, 2, 1)) == 8
    assert dim_moduli(ModuliParams(3, 2, 1)) == 22
    assert dim_hitchin_base(ModuliParams(2, 2, 1)) == 4
    assert dim_hitchin_base(ModuliParams(3, 2, 1)) == 11


@pytest.mark.parametrize("p", SWEEP)
def test_dim_formulas_sweep(p):
    expect = 2 * (p.n**2 - 1) * (p.g - 1) + p.k * p.n * (p.n - 1)
    assert dim_moduli(p) == expect
    assert dim_hitchin_base(p) * 2 == expect


def test_spectral_fiber_degree_hand_values():
    assert spectral_fiber_degree(ModuliParams(2, 2, 1, d=0)) == 3
    assert spectral_fiber_degree(ModuliParams(3, 2, 2, d=1)) == 13
    assert spectral_fiber_degree(ModuliParams(2, 2, 2, d=-4)) == 0


@pytest.mark.parametrize("p", SWEEP)
def test_spectral_fiber_degree_formula(p):
    expect = p.d + Fraction(p.n * (p.n - 1)) * (p.g - 1 + Fraction(p.k, 2))
    assert expect.denominator == 1
    assert spectral_fiber_degree(p) == expect


def test_cover_genus_and_prym():
    assert cover_genus(2, 2) == 3
    assert cover_genus(3, 2) == 4
    assert prym_dim(2, 2) == 1
    assert prym_dim(3, 3) == 4
    for n in (2, 3, 5, 7):
        for g in (2, 3, 4):
            assert prym_dim(n, g) == cover_genus(n, g) - g
            assert cover_genus(n, g) == n * (g - 1) + 1


def test_par_slope():
    s = ParabolicSummary(rank=2, degree=0, weight_total=Fraction(1, 10) + Fraction(1, 2))
    assert par_slope(s) == Fraction(3, 10)
    assert par_slope(ParabolicSummary(3, -2, Fraction(1, 2))) == Fraction(-1, 2)


def test_params_validation():
    with pytest.raises(ValueError):
        ModuliParams(n=4, g=2, k=1)
    with pytest.raises(ValueError):
        ModuliParams(n=1, g=2, k=1)
    with pytest.raises(ValueError):
        ModuliParams(n=2, g=1, k=1)
    with pytest.raises(ValueError):
        ModuliParams(n=2, g=2, k=0)
    p = ModuliParams(n=3, g=2, k=1, d=1)
    assert p._replace(d=2) == ModuliParams(3, 2, 1, 2)
    with pytest.raises(ValueError, match="genus 1"):
        p._replace(g=1)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_section_check_and_reversed_control(n, g, k):
    p = ModuliParams(n=n, g=g, k=k)
    assert hitchin_section_check(p)
    assert not hitchin_section_check(p, reverse_flags=True)
