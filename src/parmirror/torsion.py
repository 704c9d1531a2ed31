"""The n-torsion of the Jacobian as a symplectic Z/n module.

Weil pairing against a fixed alternating form, bases adapted to a nonzero
torsion point gamma, and the induced action on the component set of a
norm-map fibre: components carry Z/n labels, the adapted generator delta_0
shifts labels by 1, everything paired trivially with gamma acts trivially,
and the Galois generator shifts by the bundle degree d. All arithmetic is
mod a prime n.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from typing import NamedTuple

from .exactpoly import IdentityCheckError, is_prime


class TorsionVector:
    """Element of (Z/n)^(2g); coordinates stored reduced mod n. Immutable,
    and equal and hashed by (n, coords); not a tuple, so that + and * act
    on the group and values do not order."""

    __slots__ = ("n", "coords")

    def __init__(self, n: int, coords: tuple[int, ...]):
        if not is_prime(n):
            raise ValueError(f"n = {n} is not prime")
        if len(coords) % 2 or len(coords) < 4:
            raise ValueError(f"coordinate length {len(coords)} is not 2g with g >= 2")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coords", tuple(c % n for c in coords))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.coords) == (other.n, other.coords)

    def __hash__(self) -> int:
        return hash((self.n, self.coords))

    def __repr__(self) -> str:
        return f"TorsionVector(n={self.n!r}, coords={self.coords!r})"

    @property
    def g(self) -> int:
        return len(self.coords) // 2

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: TorsionVector) -> TorsionVector:
        self._check(other)
        return TorsionVector(self.n, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: TorsionVector) -> TorsionVector:
        self._check(other)
        return TorsionVector(self.n, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rmul__(self, c: int) -> TorsionVector:
        return TorsionVector(self.n, tuple(c * a for a in self.coords))

    def _check(self, other):
        if not isinstance(other, TorsionVector) or other.n != self.n or other.g != self.g:
            raise ValueError(f"incompatible torsion vectors {self!r}, {other!r}")


def standard_basis_vector(n: int, g: int, index: int) -> TorsionVector:
    """Basis order: a_1..a_g then b_1..b_g (index 0-based)."""
    coords = [0] * (2 * g)
    coords[index] = 1
    return TorsionVector(n, tuple(coords))


class _FormFields(NamedTuple):
    n: int
    g: int
    matrix: tuple[tuple[int, ...], ...]


class SymplecticForm(_FormFields):
    """Alternating nondegenerate form on (Z/n)^(2g), as a matrix mod n.
    An immutable tuple of these three fields, checked on construction."""

    __slots__ = ()

    def __new__(cls, n: int, g: int, matrix: tuple[tuple[int, ...], ...]):
        if not is_prime(n):
            raise ValueError(f"n = {n} is not prime")
        size = 2 * g
        if len(matrix) != size or any(len(row) != size for row in matrix):
            raise ValueError(f"form matrix is not {size} x {size}")
        m = tuple(tuple(c % n for c in row) for row in matrix)
        for i in range(size):
            if m[i][i] != 0:
                raise ValueError("form is not alternating (nonzero diagonal)")
            for j in range(size):
                if (m[i][j] + m[j][i]) % n != 0:
                    raise ValueError("form is not antisymmetric")
        if _rref(m, n)[0] < size:
            raise ValueError("form is degenerate")
        return tuple.__new__(cls, (n, g, m))

    @classmethod
    def _make(cls, iterable):
        # the inherited _make (and _replace, which calls it) skips __new__
        return cls(*iterable)

    @classmethod
    def standard(cls, n: int, g: int) -> SymplecticForm:
        """Block form with <a_i, b_i> = 1: [[0, I], [-I, 0]]."""
        size = 2 * g
        m = [[0] * size for _ in range(size)]
        for i in range(g):
            m[i][g + i] = 1
            m[g + i][i] = (-1) % n
        return cls(n, g, tuple(tuple(row) for row in m))


def weil_pairing(a: TorsionVector, b: TorsionVector, form: SymplecticForm) -> int:
    """Pairing exponent <a, b> = a . M . b mod n."""
    if a.n != form.n or b.n != form.n or a.g != form.g or b.g != form.g:
        raise ValueError("vector/form shape mismatch")
    total = 0
    for i, ai in enumerate(a.coords):
        if not ai:
            continue
        row = form.matrix[i]
        for j, bj in enumerate(b.coords):
            if bj:
                total += ai * row[j] * bj
    return total % form.n


def _rref(rows, n: int) -> tuple[int, list[list[int]]]:
    """Row reduction mod the prime n: the rank and the reduced row echelon
    form, whose first rank rows each lead with a 1 in a column every other
    row holds 0 in. The input rows are left as they are."""
    rows = [[c % n for c in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, n)
        rows[rank] = [a * inv % n for a in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(a - factor * b) % n for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank, rows


def is_basis(vectors) -> bool:
    """True iff the vectors form a basis of (Z/n)^(2g)."""
    vectors = tuple(vectors)
    n = vectors[0].n
    if len(vectors) != 2 * vectors[0].g:
        return False
    return _rref([v.coords for v in vectors], n)[0] == len(vectors)


def _invert_mod(rows, n: int) -> list[list[int]]:
    """The inverse mod n of a square matrix: [M | I] reduces to [I | M^-1].
    ValueError when M is singular mod n."""
    size = len(rows)
    identity = [[int(i == j) for j in range(size)] for i in range(size)]
    _, reduced = _rref([list(row) + unit for row, unit in zip(rows, identity)], n)
    if [row[:size] for row in reduced] != identity:
        raise ValueError("matrix is singular mod n")
    return [row[size:] for row in reduced]


def complete_basis(gamma: TorsionVector, form: SymplecticForm, l_gamma: int = 1):
    """Basis (gamma, delta_0, delta_1, ..., delta_{2g-2}) with
    <delta_0, gamma> = l_gamma and <delta_i, gamma> = 0 for i >= 1.

    l_gamma is the pairing exponent the geometry attaches to gamma; it is a
    model parameter here (default 1) and is absorbed into delta_0.
    Deterministic: scans the standard basis for the pivot and completes
    inside the pairing kernel by Gaussian elimination.
    """
    n, g = gamma.n, gamma.g
    if gamma.is_zero():
        raise ValueError("gamma must be nonzero")
    if gcd(l_gamma, n) != 1:
        raise ValueError(f"l_gamma = {l_gamma} is not invertible mod {n}")
    pairings = [weil_pairing(standard_basis_vector(n, g, i), gamma, form) for i in range(2 * g)]
    pivot = next(i for i, c in enumerate(pairings) if c)
    pinv = pow(pairings[pivot], -1, n)
    delta0 = (l_gamma * pinv) % n * standard_basis_vector(n, g, pivot)
    chosen = [gamma]
    for i in range(2 * g):
        if i == pivot or len(chosen) == 2 * g - 1:
            continue
        # project e_i into the pairing kernel of gamma, keep it if it grows the span
        cand = standard_basis_vector(n, g, i) - (pairings[i] * pinv) % n * standard_basis_vector(
            n, g, pivot
        )
        if _rref([v.coords for v in chosen + [cand]], n)[0] == len(chosen) + 1:
            chosen.append(cand)
    basis = (gamma, delta0, *chosen[1:])
    if len(basis) != 2 * g or not is_basis(basis):
        raise IdentityCheckError("failed to complete a basis")
    if weil_pairing(delta0, gamma, form) != l_gamma % n:
        raise IdentityCheckError(f"delta_0 does not pair to l_gamma = {l_gamma} with gamma")
    return basis


def galois_orbit_size(n: int, d: int) -> int:
    """Orbit size n / gcd(n, d) of a component label under repeated +d."""
    if not is_prime(n):
        raise ValueError(f"n = {n} is not prime")
    return n // gcd(n, d % n if d % n else n)


class _FiberFields(NamedTuple):
    n: int
    d: int
    gamma: TorsionVector
    l_gamma: int


class NormFiberModel(_FiberFields):
    """Component bookkeeping for a norm-map fibre: labels Z/n, a nonzero
    gamma acting through its pairing, Galois acting by +d. An immutable
    tuple of these four fields, checked on construction."""

    __slots__ = ()

    def __new__(cls, n: int, d: int, gamma: TorsionVector, l_gamma: int = 1):
        if not is_prime(n):
            raise ValueError(f"n = {n} is not prime")
        if gamma.n != n:
            raise ValueError("gamma lives mod a different n")
        if gamma.is_zero():
            raise ValueError("gamma must be nonzero")
        if gcd(l_gamma, n) != 1:
            raise ValueError(f"l_gamma = {l_gamma} is not invertible mod {n}")
        return tuple.__new__(cls, (n, d, gamma, l_gamma))

    @classmethod
    def _make(cls, iterable):
        # the inherited _make (and _replace, which calls it) skips __new__
        return cls(*iterable)

    @property
    def components(self) -> tuple[int, ...]:
        return tuple(range(self.n))

    def galois_shift(self) -> int:
        return self.d % self.n


def gamma_component_shift(delta: TorsionVector, model: NormFiberModel, form: SymplecticForm) -> int:
    """Label shift of the component set induced by translating by delta:
    l_gamma^(-1) <delta, gamma> mod n."""
    e = weil_pairing(delta, model.gamma, form)
    return e * pow(model.l_gamma, -1, model.n) % model.n


def check_component_action(model: NormFiberModel, form: SymplecticForm) -> bool:
    """Verify the component action model.

    delta_0 shifts by 1, so it acts freely and transitively on the labels;
    the shift of any delta equals its delta_0 coordinate in the adapted
    basis (in particular everything spanned by gamma and the pairing kernel
    complement acts trivially); the shift map is a homomorphism; and the
    Galois generator's orbits have size n / gcd(n, d). Exhaustive over the
    whole group when n^2g is small, otherwise over the basis and all
    pairwise sums.
    """
    n, g = model.n, model.gamma.g
    basis = complete_basis(model.gamma, form, model.l_gamma)
    # delta_0 shifts every label by 1, so it acts freely and transitively
    if gamma_component_shift(basis[1], model, form) != 1:
        return False
    binv = _invert_mod([b.coords for b in basis], n)

    def coords_of(vec: TorsionVector) -> tuple[int, ...]:
        return tuple(
            sum(vec.coords[i] * binv[i][j] for i in range(2 * g)) % n for j in range(2 * g)
        )

    if n ** (2 * g) <= 10**6:
        pool = [TorsionVector(n, c) for c in product(range(n), repeat=2 * g)]
    else:
        pool = list(basis) + [a + b for a in basis for b in basis]
    for vec in pool:
        if gamma_component_shift(vec, model, form) != coords_of(vec)[1]:
            return False
    # homomorphism on all pairs drawn from the basis
    for a in basis:
        for b in basis:
            if gamma_component_shift(a + b, model, form) != (
                gamma_component_shift(a, model, form) + gamma_component_shift(b, model, form)
            ) % n:
                return False
    # Galois generator: orbit of any label under +d
    orbit = {0}
    label = model.galois_shift()
    while label != 0:
        orbit.add(label)
        label = (label + model.galois_shift()) % n
    if len(orbit) != galois_orbit_size(n, model.d):
        return False
    return True


def invariant_fiber_count(n: int, g: int, d: int) -> int:
    """Number of torsion-invariant points of the degree-d fibre bookkeeping:
    n^(2g-1) when n divides d, else zero."""
    if not is_prime(n):
        raise ValueError(f"n = {n} is not prime")
    if g < 2:
        raise ValueError(f"genus {g} must be at least 2")
    return n ** (2 * g - 1) if d % n == 0 else 0


def kernel_component_count(n: int) -> int:
    """Components of the norm-map kernel: the n labels themselves."""
    if not is_prime(n):
        raise ValueError(f"n = {n} is not prime")
    return n
