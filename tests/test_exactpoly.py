"""Exact polynomial and cyclotomic arithmetic.

Oracles here are independent of the library: hand-expanded products,
binomial identities, dense polynomial arithmetic modulo x^n - 1 for the
cyclotomic ring, and the literal definition of the root-of-unity filter.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import cyc_project, root_of_unity_filter
from parmirror.exactpoly import (
    ONE,
    U,
    V,
    ZERO,
    BivarPoly,
    CheckedRecord,
    CycBivarPoly,
    CycInt,
    NonIntegralCoefficientError,
    binom_deg_slice,
    format_rat,
    is_prime,
    parse_rat,
)
from parmirror.chambers import WeightSystem
from parmirror.moduli import ModuliParams
from parmirror.torsion import NormFiberModel, SymplecticForm, TorsionVector

BIG = 1 << 512


def test_is_prime_small():
    assert [m for m in range(2, 20) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_rat_round_trip():
    assert parse_rat("3/10") == Fraction(3, 10)
    assert parse_rat("7") == Fraction(7)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rat("1/0")
    assert format_rat(Fraction(3, 10)) == "3/10"
    assert format_rat(2) == "2/1"
    assert parse_rat(format_rat(Fraction(-BIG, 7))) == Fraction(-BIG, 7)


def test_pow_hand_expansion():
    base = ONE - U - V + U * V
    expect = BivarPoly(
        {
            (0, 0): 1,
            (1, 0): -2,
            (0, 1): -2,
            (2, 0): 1,
            (1, 1): 4,
            (0, 2): 1,
            (2, 1): -2,
            (1, 2): -2,
            (2, 2): 1,
        }
    )
    assert base * base == expect
    assert base**2 == expect
    assert base**0 == ONE


def test_binom_deg_slice_hand_values():
    assert binom_deg_slice(1, 0) == ONE
    assert binom_deg_slice(1, 1) == -U - V
    assert binom_deg_slice(1, 2) == U * V
    assert binom_deg_slice(1, 3) == ZERO
    assert binom_deg_slice(2, 1) == -2 * U - 2 * V


@pytest.mark.parametrize("G", range(0, 9))
def test_binom_deg_slices_sum_to_product(G):
    total = ZERO
    for m in range(0, 2 * G + 1):
        total = total + binom_deg_slice(G, m)
    assert total == ((ONE - U) * (ONE - V)) ** G
    assert binom_deg_slice(G, 2 * G + 1) == ZERO


def test_binom_deg_slice_coefficients_literal():
    G, m = 5, 4
    sl = binom_deg_slice(G, m)
    for p in range(m + 1):
        q = m - p
        assert sl.coeff(p, q) == (-1) ** m * comb(G, p) * comb(G, q)


def test_root_of_unity_filter_values():
    assert root_of_unity_filter(3, 6) == 3
    assert root_of_unity_filter(3, 4) == 0
    assert root_of_unity_filter(5, 0) == 5


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_root_of_unity_filter_periodic(n):
    for nu in range(-3 * n, 3 * n + 1):
        assert root_of_unity_filter(n, nu) == (n if nu % n == 0 else 0)


def test_poly_basics():
    p = BivarPoly({(2, 1): 3, (0, 0): -1})
    assert p.coeff(2, 1) == 3
    assert p.coeff(9, 9) == 0
    assert p.shift(1, 2) == BivarPoly({(3, 3): 3, (1, 2): -1})


def test_poly_zero_is_dropped():
    p = U - U
    assert p == ZERO
    assert p.is_zero()
    assert p.terms() == ()
    assert BivarPoly({(1, 1): 0}) == ZERO


def test_polys_meet_only_polys():
    """==, + and - take a polynomial; an int enters only as a factor."""
    assert BivarPoly.constant(3) != 3
    with pytest.raises(TypeError):
        0 + U
    with pytest.raises(TypeError):
        1 - U
    assert 3 * U == U * 3 == BivarPoly({(1, 0): 3})


def test_poly_str():
    assert str(ZERO) == "0"
    p = BivarPoly({(0, 0): -2, (1, 0): 1, (0, 1): -1, (2, 3): 5})
    assert str(p) == "-2 - v + u + 5*u^2*v^3"
    assert repr(U - ONE) == "BivarPoly(-1 + u)"


coeffs = st.integers(min_value=-BIG, max_value=BIG)
exps = st.integers(min_value=0, max_value=6)
polys = st.dictionaries(st.tuples(exps, exps), coeffs, max_size=6).map(BivarPoly)


@given(polys, polys, polys)
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(polys)
def test_poly_serialization_round_trip(a):
    triples = a.to_triples()
    assert triples == sorted(triples, key=lambda t: (t[0], t[1]))
    for i, j, c in triples:
        assert isinstance(c, str)
        assert int(c) != 0
    assert BivarPoly({(i, j): int(c) for i, j, c in triples}) == a


def test_poly_serialization_big_coefficients():
    p = BivarPoly({(0, 0): BIG, (3, 4): -BIG - 1})
    assert p.to_triples() == [[0, 0, str(BIG)], [3, 4, str(-BIG - 1)]]


@pytest.mark.parametrize("e,products", [(0, 0), (1, 0), (2, 1), (3, 2), (5, 3)])
def test_power_product_count(monkeypatch, e, products):
    """Left-to-right square-and-multiply: one squaring per bit below the
    top one and one product per further set bit; p ** 0 is ONE."""
    want = BivarPoly({(i, 0): comb(e, i) for i in range(e + 1)})
    mul, calls = BivarPoly.__mul__, []
    monkeypatch.setattr(BivarPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    got = (ONE + U) ** e
    assert len(calls) == products
    assert got == want


def test_poly_rejects_bad_exponents():
    with pytest.raises(ValueError):
        BivarPoly({(-1, 0): 1})


def _dense_cyclic_mul(n, a, b):
    """Multiply in Z[x]/(x^n - 1): plain cyclic convolution."""
    out = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[(i + j) % n] += ai * bj
    return out


def _to_power_basis(n, vec):
    """Project Z[x]/(x^n - 1) onto Z[root]: x^(n-1) = -(1 + ... + x^(n-2))."""
    return tuple(vec[e] - vec[n - 1] for e in range(n - 1))


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_cycint_matches_dense_cyclic_oracle(n):
    import random

    rng = random.Random(n)
    for _ in range(40):
        a = [rng.randint(-99, 99) for _ in range(n)]
        b = [rng.randint(-99, 99) for _ in range(n)]
        ca = sum(
            (CycInt.root_power(n, e) * c for e, c in enumerate(a)), CycInt.zero(n)
        )
        cb = sum(
            (CycInt.root_power(n, e) * c for e, c in enumerate(b)), CycInt.zero(n)
        )
        want = _to_power_basis(n, _dense_cyclic_mul(n, a, b))
        assert (ca * cb).coords == want
        assert (ca + cb).coords == _to_power_basis(n, [x + y for x, y in zip(a, b)])


def test_cycint_root_relations():
    for n in (2, 3, 5, 7):
        xi = CycInt.root_power(n, 1)
        power = CycInt.from_int(n, 1)
        for _ in range(n):
            power = power * xi
        assert power == CycInt.from_int(n, 1)
        assert CycInt.root_power(n, n - 1).coords == tuple([-1] * (n - 1))
        total = CycInt.zero(n)
        for e in range(n):
            total = total + CycInt.root_power(n, e)
        assert total.is_zero()


def test_cycint_rationality_and_division():
    a = CycInt.from_int(5, 35)
    assert a.is_rational()
    assert a.rational_value() == 35
    assert a.exact_div(7) == CycInt.from_int(5, 5)
    with pytest.raises(NonIntegralCoefficientError):
        a.exact_div(4)
    xi = CycInt.root_power(5, 1)
    assert not xi.is_rational()
    with pytest.raises(NonIntegralCoefficientError):
        xi.rational_value()


def test_cyc_project_hand_values():
    n = 3
    vanishing = CycBivarPoly.zero(n)
    for e in range(3):
        vanishing = vanishing + CycBivarPoly.monomial(n, 1, 0, CycInt.root_power(n, e))
    assert cyc_project(vanishing) == ZERO

    with pytest.raises(NonIntegralCoefficientError):
        cyc_project(CycBivarPoly.monomial(n, 1, 0, CycInt.root_power(n, 1)))

    plain = CycBivarPoly.monomial(n, 2, 1, CycInt.from_int(n, -4))
    assert cyc_project(plain) == BivarPoly({(2, 1): -4})


def test_cyc_bivar_matches_plain_on_rational_input():
    n = 5
    a = CycBivarPoly.one(n) - CycBivarPoly.monomial(n, 1, 0, CycInt.from_int(n, 1))
    b = CycBivarPoly.one(n) - CycBivarPoly.monomial(n, 0, 1, CycInt.from_int(n, 1))
    prod = (a * b) ** 3
    assert cyc_project(prod) == ((ONE - U) * (ONE - V)) ** 3
    assert prod.exact_div(1) == prod
    with pytest.raises(NonIntegralCoefficientError):
        (a * b).exact_div(2)


def test_cyc_bivar_mixed_root_product():
    n = 3
    xi = CycInt.root_power(n, 1)
    xi2 = CycInt.root_power(n, 2)
    a = CycBivarPoly.one(n) - CycBivarPoly.monomial(n, 1, 0, xi)
    b = CycBivarPoly.one(n) - CycBivarPoly.monomial(n, 1, 0, xi2)
    # (1 - xi u)(1 - xi^2 u) = 1 + u + u^2 since xi + xi^2 = -1, xi^3 = 1
    assert cyc_project(a * b) == ONE + U + U * U


# one valid record of each checked class, and a field value its __new__ rejects
CHECKED_RECORDS = [
    (ModuliParams(3, 2, 1, 0), {"n": 4}),
    (WeightSystem.from_rows([[0, Fraction(1, 2)]]), {"alpha": ((Fraction(1, 2), Fraction(1, 4)),)}),
    (SymplecticForm.standard(3, 2), {"g": 1}),
    (NormFiberModel(3, 1, TorsionVector(3, (1, 0, 0, 0))), {"l_gamma": 3}),
]


@pytest.mark.parametrize("record,bad", CHECKED_RECORDS, ids=lambda v: type(v).__name__)
def test_checked_records_check_make_and_replace(record, bad):
    """Each record takes _make from CheckedRecord, its first base, so
    _make and _replace run its checking __new__."""
    cls = type(record)
    assert cls.__bases__[0] is CheckedRecord and "_make" not in vars(cls)
    assert cls._make(record) == record == record._replace()
    with pytest.raises(ValueError):
        record._replace(**bad)
    with pytest.raises(ValueError):
        cls._make({**record._asdict(), **bad}.values())
