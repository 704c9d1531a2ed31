"""The n-torsion of the Jacobian as a symplectic Z/n module.

Weil pairing against a fixed alternating form, bases adapted to a nonzero
torsion point gamma, and the induced action on the component set of a
norm-map fibre: components carry Z/n labels, the adapted generator delta_0
shifts labels by 1, everything paired trivially with gamma acts trivially,
and the Galois generator shifts by the bundle degree d. All arithmetic is
mod a prime n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd

from .exactpoly import IdentityCheckError, is_prime


@dataclass(frozen=True)
class TorsionVector:
    """Element of (Z/n)^(2g); coordinates stored reduced mod n."""

    n: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.n):
            raise ValueError(f"n = {self.n} is not prime")
        if len(self.coords) % 2 or len(self.coords) < 4:
            raise ValueError(f"coordinate length {len(self.coords)} is not 2g with g >= 2")
        object.__setattr__(self, "coords", tuple(c % self.n for c in self.coords))

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


@dataclass(frozen=True)
class SymplecticForm:
    """Alternating nondegenerate form on (Z/n)^(2g), as a matrix mod n."""

    n: int
    g: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not is_prime(self.n):
            raise ValueError(f"n = {self.n} is not prime")
        size = 2 * self.g
        if len(self.matrix) != size or any(len(row) != size for row in self.matrix):
            raise ValueError(f"form matrix is not {size} x {size}")
        m = tuple(tuple(c % self.n for c in row) for row in self.matrix)
        object.__setattr__(self, "matrix", m)
        for i in range(size):
            if m[i][i] != 0:
                raise ValueError("form is not alternating (nonzero diagonal)")
            for j in range(size):
                if (m[i][j] + m[j][i]) % self.n != 0:
                    raise ValueError("form is not antisymmetric")
        if _det_mod([list(row) for row in m], self.n) == 0:
            raise ValueError("form is degenerate")

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


def _det_mod(rows: list[list[int]], n: int) -> int:
    size = len(rows)
    rows = [[c % n for c in row] for row in rows]
    det = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] % n), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        inv = pow(rows[col][col], -1, n)
        det = det * rows[col][col] % n
        for r in range(col + 1, size):
            factor = rows[r][col] * inv % n
            if factor:
                rows[r] = [(a - factor * b) % n for a, b in zip(rows[r], rows[col])]
    return det % n


def is_basis(vectors) -> bool:
    """True iff the vectors form a basis of (Z/n)^(2g)."""
    vectors = tuple(vectors)
    n = vectors[0].n
    if len(vectors) != 2 * vectors[0].g:
        return False
    return _det_mod([list(v.coords) for v in vectors], n) != 0


def _invert_mod(rows: list[list[int]], n: int) -> list[list[int]]:
    size = len(rows)
    aug = [[c % n for c in row] + [1 if i == j else 0 for j in range(size)]
           for i, row in enumerate(rows)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] % n), None)
        if pivot is None:
            raise ValueError("matrix is singular mod n")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, n)
        aug[col] = [a * inv % n for a in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [(a - factor * b) % n for a, b in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


def coordinates_in_basis(v: TorsionVector, basis) -> tuple[int, ...]:
    """Coefficients c with v = sum c_i basis_i, mod n."""
    basis = tuple(basis)
    n = v.n
    binv = _invert_mod([list(b.coords) for b in basis], n)
    # v = c . B (vectors as rows), so c = v . B^(-1)
    size = len(basis)
    return tuple(
        sum(v.coords[i] * binv[i][j] for i in range(size)) % n for j in range(size)
    )


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
        if _rank(chosen + [cand], n) == len(chosen) + 1:
            chosen.append(cand)
    basis = (gamma, delta0, *chosen[1:])
    if len(basis) != 2 * g or not is_basis(basis):
        raise IdentityCheckError("failed to complete a basis")
    if weil_pairing(delta0, gamma, form) != l_gamma % n:
        raise IdentityCheckError(f"delta_0 does not pair to l_gamma = {l_gamma} with gamma")
    return basis


def _rank(vectors, n: int) -> int:
    rows = [list(v.coords) for v in vectors]
    size = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < size:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % n), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, n)
        rows[rank] = [a * inv % n for a in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(a - factor * b) % n for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def galois_orbit_size(n: int, d: int) -> int:
    """Orbit size n / gcd(n, d) of a component label under repeated +d."""
    if not is_prime(n):
        raise ValueError(f"n = {n} is not prime")
    return n // gcd(n, d % n if d % n else n)


@dataclass(frozen=True)
class NormFiberModel:
    """Component bookkeeping for a norm-map fibre: labels Z/n, a nonzero
    gamma acting through its pairing, Galois acting by +d."""

    n: int
    d: int
    gamma: TorsionVector
    l_gamma: int = 1

    def __post_init__(self):
        if not is_prime(self.n):
            raise ValueError(f"n = {self.n} is not prime")
        if self.gamma.n != self.n:
            raise ValueError("gamma lives mod a different n")
        if self.gamma.is_zero():
            raise ValueError("gamma must be nonzero")
        if gcd(self.l_gamma, self.n) != 1:
            raise ValueError(f"l_gamma = {self.l_gamma} is not invertible mod {self.n}")

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
    if gamma_component_shift(basis[1], model, form) != 1:
        return False
    # free and transitive: repeated delta_0 from any label visits all labels
    for start in model.components:
        seen = []
        label = start
        for _ in range(n):
            label = (label + 1) % n
            seen.append(label)
        if len(set(seen)) != n or seen[-1] != start:
            return False
    binv = _invert_mod([list(b.coords) for b in basis], n)

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
