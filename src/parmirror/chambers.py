"""Weight systems, walls, genericity, and tensor-by-line-bundle shifts.

A weight system assigns to each marked point a strictly increasing tuple of
rationals in [0, 1). Walls are the rational hyperplanes cut out by numerical
destabilizing data (subbundle rank, per-point weight subsets, subbundle
degree); the enumeration is a numerical superset of the geometrically
realizable destabilizers, so weights generic here are generic in every
stronger sense. All arithmetic is exact.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import lcm
from typing import NamedTuple

from .exactpoly import CheckedRecord, IdentityCheckError, format_rat, parse_rat
from .kernels import stability_coefficients
from .moduli import ModuliParams

WEIGHT_DENOMINATOR = 10**6
_SAMPLE_TRIES = 64


class NonGenericWeightsError(ValueError):
    """The weight system lies on at least one wall."""


class SamplingExhaustedError(ValueError):
    """No generic weight system found within the retry budget."""


class CollisionError(ValueError):
    """A tensor shift produced two equal weights at one point."""


class _WeightFields(NamedTuple):
    alpha: tuple[tuple[Fraction, ...], ...]


class WeightSystem(CheckedRecord, _WeightFields):
    """Per-point full-flag weights: alpha[p] strictly increasing in [0, 1).
    An immutable one-field tuple, checked on construction."""

    __slots__ = ()

    def __new__(cls, alpha: tuple[tuple[Fraction, ...], ...]):
        if not alpha:
            raise ValueError("need at least one marked point")
        n = len(alpha[0])
        for p, row in enumerate(alpha):
            if len(row) != n:
                raise ValueError(f"point {p} has {len(row)} weights, expected {n}")
            for a in row:
                if not isinstance(a, Fraction):
                    raise TypeError(f"weight {a!r} is not a Fraction")
                if not (0 <= a < 1):
                    raise ValueError(f"weight {a} outside [0, 1)")
            if any(row[i] >= row[i + 1] for i in range(n - 1)):
                raise ValueError(f"weights at point {p} are not strictly increasing: {row}")
        return tuple.__new__(cls, (alpha,))

    @classmethod
    def from_rows(cls, rows) -> WeightSystem:
        return cls(tuple(tuple(Fraction(a) for a in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.alpha[0])

    @property
    def k(self) -> int:
        return len(self.alpha)

    def to_jsonable(self) -> dict:
        return {"points": [[format_rat(a) for a in row] for row in self.alpha]}

    @classmethod
    def from_jsonable(cls, data) -> WeightSystem:
        points = data.get("points") if isinstance(data, dict) else None
        if not isinstance(points, list) or not all(isinstance(row, list) for row in points):
            raise ValueError('expected {"points": [["num/den", ...], ...]}')
        return cls.from_rows([[parse_rat(a) for a in row] for row in points])


class Wall(NamedTuple):
    """Numerical destabilizing datum: subbundle rank nprime, one weight
    index subset (1-based, size nprime) per point, subbundle degree dprime."""

    nprime: int
    subsets: tuple[tuple[int, ...], ...]
    dprime: int

    def to_jsonable(self) -> dict:
        return {
            "nprime": self.nprime,
            "subsets": [list(s) for s in self.subsets],
            "dprime": self.dprime,
        }


def wall_value(w: WeightSystem, p: ModuliParams, wall: Wall) -> Fraction:
    """Exact value of the wall equation n(d' + sum_J alpha) - n'(d + sum alpha);
    the weight system sits on the wall iff this vanishes."""
    val = Fraction(p.n * wall.dprime - wall.nprime * p.d)
    for row, subset in zip(w.alpha, wall.subsets):
        val += p.n * sum(row[i - 1] for i in subset) - wall.nprime * sum(row)
    return val


class Walls:
    """The walls of one parameter set, counted at once and stored as runs.

    A sized, re-iterable sequence of Wall records in (nprime, subsets,
    dprime) order. Each run (nprime, subsets, d_lo, d_hi) stands for the
    walls with dprime in d_lo..d_hi. The length is counted without the
    runs (see wall_count); the runs are listed when they are first read,
    by iterating or through .runs, and the records are built only while
    iterating.
    """

    __slots__ = ("_params", "_count", "_runs")

    def __init__(self, p: ModuliParams):
        self._params = p
        self._count = wall_count(p)
        self._runs = None

    def __len__(self) -> int:
        return self._count

    @property
    def runs(self) -> tuple:
        """Every run (nprime, subsets, d_lo, d_hi), listed on first read."""
        if self._runs is None:
            self._runs = _wall_runs(self._params)
        return self._runs

    def __iter__(self):
        for nprime, subsets, d_lo, d_hi in self.runs:
            for dprime in range(d_lo, d_hi + 1):
                yield Wall(nprime, subsets, dprime)


def enumerate_walls(p: ModuliParams) -> Walls:
    """All walls meeting the open weight simplex, as runs.

    For fixed (nprime, subsets), the wall equation is linear in the weights
    with per-point coefficients n*[i in J_p] - nprime. Its extreme values
    over the closed simplex occur at the threshold vertices (0,..,0,1,..,1),
    i.e. at suffix sums of the coefficient vector, so a candidate dprime is
    kept iff it makes the equation change sign strictly inside the simplex.
    The kept dprime form one interval, stored as one run; the suffix min
    and max are computed once per subset and summed over the k points.
    Runs come out sorted because combinations, product and the interval
    are each in ascending order. Complementary data (n-n', complements,
    d-d') describe the same hyperplane and are listed as distinct records.
    The returned Walls lists its runs only when they are read.
    """
    return Walls(p)


def _subset_extrema(n: int, nprime: int):
    """(J, lo, hi) for each nprime-subset J of 1..n, in ascending order: the
    min and max over the closed simplex of one point's share of the wall
    equation, the suffix sums of its coefficients n*[i in J] - nprime."""
    for subset in combinations(range(1, n + 1), nprime):
        coeffs = (n * (i in subset) - nprime for i in range(n, 0, -1))
        suffix = list(accumulate(coeffs, initial=0))
        yield subset, min(suffix), max(suffix)


def _degree_range(n: int, nprime: int, d: int, lo: int, hi: int) -> tuple[int, int]:
    """The dprime that put nprime*d - n*dprime strictly inside (lo, hi)."""
    return (nprime * d - hi) // n + 1, (nprime * d - lo - 1) // n


def _wall_runs(p: ModuliParams) -> tuple:
    """The runs of enumerate_walls, one per subset tuple with a nonempty
    degree range."""
    n, k, d = p.n, p.k, p.d
    runs = []
    for nprime in range(1, n):
        choices, lows, highs = zip(*_subset_extrema(n, nprime))
        for subsets, lo, hi in zip(
            product(choices, repeat=k),
            map(sum, product(lows, repeat=k)),
            map(sum, product(highs, repeat=k)),
        ):
            d_lo, d_hi = _degree_range(n, nprime, d, lo, hi)
            if d_lo <= d_hi:
                runs.append((nprime, subsets, d_lo, d_hi))
    return tuple(runs)


def wall_count(p: ModuliParams) -> int:
    """The number of walls, without listing them: a run's degree range reads
    its subset tuple only through the sums of the per-point extrema, so for
    each nprime the multiset of per-subset (lo, hi) is convolved over the k
    points, and each (sum lo, sum hi) adds its multiplicity times the length
    of its degree range."""
    n, k, d = p.n, p.k, p.d
    total = 0
    for nprime in range(1, n):
        one = Counter((lo, hi) for _, lo, hi in _subset_extrema(n, nprime))
        sums = one
        for _ in range(k - 1):
            # a plain dict: Counter's += on a new key calls its Python-level
            # __missing__, enough to make the count slower than the listing
            # at k <= 2
            step: dict = {}
            for (a, b), ways in sums.items():
                for (lo, hi), more in one.items():
                    key = a + lo, b + hi
                    step[key] = step.get(key, 0) + ways * more
            sums = step
        for (lo, hi), ways in sums.items():
            d_lo, d_hi = _degree_range(n, nprime, d, lo, hi)
            total += ways * max(0, d_hi - d_lo + 1)
    return total


def is_generic(w: WeightSystem, p: ModuliParams) -> bool:
    """True iff the weight system lies on no wall.

    The check is wall_value scaled by the common weight denominator den > 0,
    which keeps every zero a zero, so it runs in exact integers. A datum
    (n', J, d') and its complement (n - n', complements, d - d') are one
    hyperplane, so only the data with 2n' < n, or 2n' = n and 1 in J_1, are
    tested. With S = sum over points of n * sum_J wnum - n' * sum wnum, the
    weights lie on the wall (n', J, d') iff n*den divides n'*d*den - S. Valid
    weights keep S/den strictly inside the range of that form over the
    simplex, so every such d' gives a wall that meets the open simplex, and
    no wall list is read. wall_value is the Fraction reference.
    """
    if w.n != p.n or w.k != p.k:
        raise ValueError(f"weight system shape ({w.n}, {w.k}) does not match ({p.n}, {p.k})")
    den, wnum = integer_weights(w)
    n, d = p.n, p.d
    step = n * den
    for nprime in range(1, n // 2 + 1):
        subsets = list(combinations(range(1, n + 1), nprime))
        parts = [[n * sum(row[i - 1] for i in subset) - nprime * sum(row) for subset in subsets]
                 for row in wnum]
        if 2 * nprime == n:  # keep one of each complementary pair
            parts[0] = [part for part, subset in zip(parts[0], subsets) if 1 in subset]
        target = nprime * d * den
        for scaled in map(sum, product(*parts)):
            if not (target - scaled) % step:
                return False
    return True


def sample_generic_weights(p: ModuliParams, seed: int, scale=Fraction(1)) -> WeightSystem:
    """Deterministic generic weights below the given bound.

    All weights share the denominator 10^6 and satisfy alpha < scale.
    Resamples on wall hits; raises SamplingExhaustedError after a fixed
    budget (only reachable for adversarially tiny scales).
    """
    scale = Fraction(scale)
    if not (0 < scale <= 1):
        raise ValueError(f"scale {scale} outside (0, 1]")
    top = scale * WEIGHT_DENOMINATOR
    a_max = int(top) - 1 if top.denominator == 1 else int(top)
    if a_max + 1 < p.n:
        raise SamplingExhaustedError(f"scale {scale} leaves fewer than n = {p.n} weight values")
    rng = random.Random(seed)
    for _ in range(_SAMPLE_TRIES):
        rows = tuple(
            tuple(Fraction(a, WEIGHT_DENOMINATOR) for a in sorted(rng.sample(range(a_max + 1), p.n)))
            for _ in range(p.k)
        )
        w = WeightSystem(rows)
        if is_generic(w, p):
            return w
    raise SamplingExhaustedError(f"no generic weights below {scale} after {_SAMPLE_TRIES} draws")


def small_weight_margin(p: ModuliParams) -> Fraction:
    """A bound eps such that every weight system with all weights below eps
    is generic and gives the same chamber: all stability inequalities hold
    with the integer terms at their worst corners.

    Certified per destabilizing index l from the stability coefficient rows
    coef[l]. Every coefficient is positive, so over the integer box
    m_j in [0, 2g-2], s_j in [0, k] the left side is largest at the top
    corner, (2g-2+k) sum(coef[l]); 2 sum(coef[l]) = n(n-l+1)(l-1) makes that
    corner equal the weight-free right side (tight before weights). The
    descent corner k sum(coef[l]) is attained per point only by the strictly
    decreasing word, whose weight summand is a positive sum of weight gaps,
    while any other word drops at least one integer from the descent term
    and loses at most n(n-l+1)*eps in weights; eps keeps that loss below 1.
    """
    n = p.n
    eps = Fraction(1, 2 * n * (n - 1))
    for l, coef in enumerate(stability_coefficients(n), start=2):
        if min(coef) < 1:
            raise IdentityCheckError(f"stability coefficients {coef} not positive at l = {l}")
        if 2 * sum(coef) != n * (n - l + 1) * (l - 1):
            raise IdentityCheckError(f"row sum of {coef} is not n(n-l+1)(l-1)/2 at l = {l}")
        if not n * (n - l + 1) * eps < 1:
            raise IdentityCheckError(f"weight slack too large at l = {l}")
    return eps


def sampler_scale(p: ModuliParams, scale=Fraction(1)) -> Fraction:
    """The scale the sampler runs at: scale itself for n <= 3; above that,
    at most small_weight_margin(p), so large rank only ever samples inside
    the single certified small-weight chamber."""
    return scale if p.n <= 3 else min(scale, small_weight_margin(p))


def tensor_transform(w: WeightSystem, beta) -> tuple[WeightSystem, tuple[int, ...]]:
    """Shift the weights at each point by beta[p] modulo 1.

    Returns the re-sorted weight system and the per-point wrap counts (how
    many weights passed 1). The wrapped weights are exactly the largest ones,
    so the new order is a cyclic rotation of the old; that is checked.
    """
    betas = tuple(Fraction(b) for b in beta)
    if len(betas) != w.k:
        raise ValueError(f"need {w.k} shifts, got {len(betas)}")
    for b in betas:
        if not (0 <= b < 1):
            raise ValueError(f"shift {b} outside [0, 1)")
    rows = []
    wraps = []
    for row, b in zip(w.alpha, betas):
        raw = [a + b if a + b < 1 else a + b - 1 for a in row]
        if len(set(raw)) != len(raw):
            raise CollisionError(f"shift {b} collides weights {row}")
        wrap = sum(1 for a in row if a + b >= 1)
        rotated = raw[len(raw) - wrap:] + raw[: len(raw) - wrap]
        if rotated != sorted(raw):
            raise IdentityCheckError(f"shift {b} of {row} is not a cyclic rotation")
        rows.append(tuple(rotated))
        wraps.append(wrap)
    return WeightSystem(tuple(rows)), tuple(wraps)


def tensor_degree(p: ModuliParams, ell: int, wrap_total: int) -> int:
    """Degree d + n*ell + (total wraps) after tensoring by a degree-ell line
    bundle whose parabolic shifts wrapped wrap_total weights past 1."""
    return p.d + p.n * ell + wrap_total


def solve_beta_for_degree(w: WeightSystem, point: int, kshift: int) -> Fraction:
    """Midpoint of the beta interval at one point that wraps exactly kshift
    of its weights: [1 - alpha_{n-kshift+1}, 1 - alpha_{n-kshift}), read with
    alpha_0 = 0 and alpha_{n+1} = 1."""
    row = w.alpha[point]
    n = len(row)
    if not 0 <= kshift <= n:
        raise ValueError(f"wrap count {kshift} outside 0..{n}")
    lo = Fraction(0) if kshift == 0 else 1 - row[n - kshift]
    hi = Fraction(1) if kshift == n else 1 - row[n - kshift - 1]
    if not lo < hi:
        raise ValueError(f"no shift wraps exactly {kshift} weights at point {point}")
    return (lo + hi) / 2


def weight_denominator(w: WeightSystem) -> int:
    """Least common denominator of all weights."""
    return lcm(*(a.denominator for row in w.alpha for a in row), 1)


def integer_weights(w: WeightSystem) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The weights over their common denominator: (den, wnum) with
    wnum[p][i] = alpha[p][i] * den, all integers, in int arithmetic: each
    denominator divides den, so alpha * den = numerator * (den // denominator)
    exactly."""
    den = weight_denominator(w)
    return den, tuple([tuple([a.numerator * (den // a.denominator) for a in row]) for row in w.alpha])
