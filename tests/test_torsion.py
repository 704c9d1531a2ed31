"""Torsion vectors, the symplectic pairing, basis completion, and the
component action of torsion points on norm-map fibres.

Oracles: literal pairing table of the standard basis, exhaustive
nondegeneracy, row spans listed in full for the mod-n row reduction, the
Pfaffian of a 4 x 4 alternating form, orbit sizes from gcd arithmetic, and
the fibre-count formulas evaluated by hand.
"""

import random
from itertools import product

import pytest

from oracles import coordinates_in_basis
from parmirror import cli, torsion
from parmirror.exactpoly import IdentityCheckError
from parmirror.torsion import (
    NormFiberModel,
    SymplecticForm,
    TorsionVector,
    check_component_action,
    complete_basis,
    galois_orbit_size,
    gamma_component_shift,
    invariant_fiber_count,
    is_basis,
    kernel_component_count,
    standard_basis_vector,
    weil_pairing,
)


def _nonzero_vectors(n, g):
    for coords in product(range(n), repeat=2 * g):
        v = TorsionVector(n=n, coords=coords)
        if not v.is_zero():
            yield v


def test_vector_validation_and_arithmetic():
    with pytest.raises(ValueError):
        TorsionVector(n=4, coords=(0, 0, 0, 0))
    with pytest.raises(ValueError):
        TorsionVector(n=2, coords=(0, 0, 0))
    v = TorsionVector(n=3, coords=(1, 2, 4, -1))
    assert v.coords == (1, 2, 1, 2)
    w = TorsionVector(n=3, coords=(2, 2, 2, 2))
    assert (v + w).coords == (0, 1, 0, 1)
    assert (v - w).coords == (2, 0, 2, 0)
    assert (2 * v).coords == (2, 1, 2, 1)
    assert v.g == 2


def test_standard_form_pairing_table():
    n, g = 3, 2
    form = SymplecticForm.standard(n, g)
    e = [standard_basis_vector(n, g, i) for i in range(2 * g)]
    for i in range(g):
        for j in range(g):
            assert weil_pairing(e[i], e[g + j], form) == (1 if i == j else 0)
            assert weil_pairing(e[g + j], e[i], form) == (n - 1 if i == j else 0)
            assert weil_pairing(e[i], e[j], form) == 0
            assert weil_pairing(e[g + i], e[g + j], form) == 0
    for v in e:
        assert weil_pairing(v, v, form) == 0


def test_form_validation():
    with pytest.raises(ValueError):
        SymplecticForm(
            n=2, g=2,
            matrix=((1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0), (0, 1, 0, 0)),
        )
    degenerate = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0), (0, -1, 0, 0))
    with pytest.raises(ValueError, match="degenerate"):
        SymplecticForm(n=3, g=2, matrix=degenerate)


def _span(rows, n):
    """Every vector of the row span mod n, by listing all combinations."""
    width = len(rows[0])
    return {
        tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % n for j in range(width))
        for coeffs in product(range(n), repeat=len(rows))
    }


def _random_matrix(rng, n, nrows, ncols):
    """A product of random nrows x r and r x ncols matrices mod n, so the
    rank is at most a random r and low ranks turn up often."""
    r = rng.randint(0, min(nrows, ncols))
    a = [[rng.randrange(n) for _ in range(r)] for _ in range(nrows)]
    b = [[rng.randrange(n) for _ in range(ncols)] for _ in range(r)]
    return [[sum(row[i] * b[i][j] for i in range(r)) % n for j in range(ncols)] for row in a]


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_rref_rank_and_form(n):
    """The rank is log_n of the size of the row span, counted by listing
    it; the reduced rows span the same space and are in reduced row echelon
    form."""
    rng = random.Random(n)
    for _ in range(30):
        rows = _random_matrix(rng, n, rng.randint(1, 4), rng.randint(1, 4))
        before = [list(row) for row in rows]
        rank, reduced = torsion._rref(rows, n)
        assert rows == before
        span = _span(rows, n)
        assert n**rank == len(span)
        assert _span(reduced, n) == span
        assert all(not any(row) for row in reduced[rank:])
        leads = [next(j for j, c in enumerate(row) if c) for row in reduced[:rank]]
        assert leads == sorted(set(leads))
        for i, lead in enumerate(leads):
            assert [row[lead] for row in reduced] == [int(r == i) for r in range(len(reduced))]


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_invert_mod_inverts_exactly_the_full_rank_matrices(n):
    rng = random.Random(100 + n)
    inverted = singular = 0
    for _ in range(40):
        size = rng.randint(1, 4)
        m = _random_matrix(rng, n, size, size)
        if torsion._rref(m, n)[0] < size:
            with pytest.raises(ValueError, match="singular"):
                torsion._invert_mod(m, n)
            singular += 1
            continue
        inv = torsion._invert_mod(m, n)
        prod = [[sum(a * b for a, b in zip(row, col)) % n for col in zip(*m)] for row in inv]
        assert prod == [[int(i == j) for j in range(size)] for i in range(size)]
        inverted += 1
    assert inverted and singular


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_random_alternating_form_is_degenerate_iff_pfaffian_vanishes(n):
    """A 4 x 4 alternating matrix has det = Pf^2 with
    Pf = a01 a23 - a02 a13 + a03 a12, so it is degenerate mod n exactly
    when its Pfaffian is 0 mod n."""
    rng = random.Random(200 + n)
    seen = set()
    for _ in range(30):
        upper = {(i, j): rng.randrange(n) for i in range(4) for j in range(i + 1, 4)}
        if rng.random() < 0.5:
            upper[0, 1], upper[0, 2], upper[0, 3] = 0, 0, 0
        matrix = tuple(
            tuple(upper[i, j] if i < j else -upper[j, i] if j < i else 0 for j in range(4))
            for i in range(4)
        )
        pf = upper[0, 1] * upper[2, 3] - upper[0, 2] * upper[1, 3] + upper[0, 3] * upper[1, 2]
        pf %= n
        seen.add(pf == 0)
        if pf == 0:
            with pytest.raises(ValueError, match="degenerate"):
                SymplecticForm(n=n, g=2, matrix=matrix)
        else:
            assert SymplecticForm(n=n, g=2, matrix=matrix).matrix == tuple(
                tuple(c % n for c in row) for row in matrix
            )
    assert seen == {True, False}


@pytest.mark.parametrize("n,g", [(2, 2), (3, 2)])
def test_pairing_bilinear_alternating_nondegenerate(n, g):
    form = SymplecticForm.standard(n, g)
    vs = list(_nonzero_vectors(n, g))
    zero = TorsionVector(n=n, coords=(0,) * (2 * g))
    for v in vs[:20]:
        assert weil_pairing(v, v, form) == 0
        for w in vs[:20]:
            assert (weil_pairing(v, w, form) + weil_pairing(w, v, form)) % n == 0
            assert weil_pairing(v + w, vs[0], form) == (
                weil_pairing(v, vs[0], form) + weil_pairing(w, vs[0], form)
            ) % n
    if n ** (2 * g) <= 10**4:
        for v in vs:
            assert any(weil_pairing(v, w, form) != 0 for w in vs)
    assert all(weil_pairing(zero, w, form) == 0 for w in vs[:50])


@pytest.mark.parametrize("n,g", [(2, 2), (3, 2), (5, 2), (3, 3)])
def test_complete_basis_contract(n, g):
    form = SymplecticForm.standard(n, g)
    gammas = [
        standard_basis_vector(n, g, 0),
        standard_basis_vector(n, g, 2 * g - 1),
        TorsionVector(n=n, coords=tuple(1 for _ in range(2 * g))),
    ]
    for gamma in gammas:
        basis = complete_basis(gamma, form)
        assert len(basis) == 2 * g
        assert basis[0] == gamma
        assert is_basis(basis)
        assert weil_pairing(basis[1], gamma, form) == 1
        for other in basis[2:]:
            assert weil_pairing(other, gamma, form) == 0
        coords = coordinates_in_basis(basis[1] + 2 * basis[0], basis)
        assert coords == (2 % n, 1) + (0,) * (2 * g - 2)


def test_complete_basis_l_gamma():
    n, g = 5, 2
    form = SymplecticForm.standard(n, g)
    gamma = standard_basis_vector(n, g, 1)
    basis = complete_basis(gamma, form, l_gamma=3)
    assert weil_pairing(basis[1], gamma, form) == 3
    assert is_basis(basis)


def test_complete_basis_failure_raises_and_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(torsion, "is_basis", lambda vectors: False)
    n, g = 3, 2
    with pytest.raises(IdentityCheckError, match="failed to complete a basis"):
        complete_basis(standard_basis_vector(n, g, 0), SymplecticForm.standard(n, g))
    assert cli.main(["orbits", "--n", "3", "--g", "2"]) == 1
    assert "failed to complete a basis" in capsys.readouterr().err


def test_galois_orbit_size():
    assert galois_orbit_size(3, 1) == 3
    assert galois_orbit_size(3, 3) == 1
    assert galois_orbit_size(2, 4) == 1
    assert galois_orbit_size(5, 2) == 5
    with pytest.raises(ValueError):
        galois_orbit_size(4, 1)


def test_gamma_component_shift_hand_cases():
    n, g = 3, 2
    form = SymplecticForm.standard(n, g)
    gamma = standard_basis_vector(n, g, 0)
    model = NormFiberModel(n=n, d=0, gamma=gamma)
    basis = complete_basis(gamma, form)
    delta0 = basis[1]
    assert gamma_component_shift(delta0, model, form) == 1
    assert gamma_component_shift(gamma, model, form) == 0
    for other in basis[2:]:
        assert gamma_component_shift(other, model, form) == 0
    assert gamma_component_shift(delta0 + basis[2], model, form) == 1
    assert gamma_component_shift(2 * delta0, model, form) == 2


def test_model_validation():
    gamma = standard_basis_vector(3, 2, 0)
    zero = TorsionVector(n=3, coords=(0, 0, 0, 0))
    with pytest.raises(ValueError):
        NormFiberModel(n=3, d=0, gamma=zero)
    with pytest.raises(ValueError):
        NormFiberModel(n=3, d=0, gamma=gamma, l_gamma=3)
    model = NormFiberModel(n=3, d=2, gamma=gamma)
    assert model.components == (0, 1, 2)
    assert model.galois_shift() == 2


@pytest.mark.parametrize("n", [2, 3])
def test_component_action_exhaustive(n):
    g = 2
    form = SymplecticForm.standard(n, g)
    for d in range(n):
        for gamma in _nonzero_vectors(n, g):
            assert check_component_action(NormFiberModel(n=n, d=d, gamma=gamma), form)


def test_component_action_l_gamma_variants():
    form = SymplecticForm.standard(5, 2)
    gamma = TorsionVector(n=5, coords=(2, 1, 0, 3))
    for l_gamma in (1, 2, 3, 4):
        assert check_component_action(
            NormFiberModel(n=5, d=3, gamma=gamma, l_gamma=l_gamma), form
        )


def test_invariant_fiber_count():
    assert invariant_fiber_count(2, 2, 2) == 8
    assert invariant_fiber_count(2, 2, 3) == 0
    assert invariant_fiber_count(3, 2, 0) == 27
    for n, g in [(2, 2), (3, 2), (5, 3)]:
        for d in range(-3, 4):
            expect = n ** (2 * g - 1) if d % n == 0 else 0
            assert invariant_fiber_count(n, g, d) == expect


def test_kernel_component_count():
    for n in (2, 3, 5, 7):
        assert kernel_component_count(n) == n
