"""Fixed-component census, variant polynomials, and the descent lemma.

Hand oracles: direct evaluation of the degree congruence, the stability
inequality at rank two, the three-row census at the smallest parameter set,
and the closed-form totals for three small parameter sets.
"""

import csv
import io
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest

from oracles import (
    census_uses,
    check_every_entry,
    component_count_formula,
    component_variant_epoly,
    cyclotomic_discarded_term,
    descent_character_sum,
    entry_box_counts,
    ring_filtered_total,
)
from parmirror import cli, cstar_fixed, kernels
from parmirror.chambers import (
    NonGenericWeightsError,
    WeightSystem,
    integer_weights,
    sample_generic_weights,
    sampler_scale,
    small_weight_margin,
)
from parmirror.cstar_fixed import (
    IdentityCheckError,
    LimitError,
    NonIntegralDegreeError,
    component_dn,
    components_to_csv,
    count_S,
    degree_constraint,
    enumerate_components,
    insertion_bijection_check,
    stability_check,
    variant_closed_form,
    variant_total_bruteforce,
    variant_total_cyclotomic,
)
from parmirror.exactpoly import ONE, U, V, ZERO, CycInt, binom_deg_slice
from parmirror.kernels import Census, CensusGroup, CensusRow, descent_counts, descent_vector, sigma
from parmirror.moduli import ModuliParams, dim_hitchin_base

W21 = ((2, 1),)
W12 = ((1, 2),)
ALPHA = WeightSystem.from_rows([[Fraction(1, 10), Fraction(1, 2)]])
P221 = ModuliParams(2, 2, 1, 0)


def test_word_texts_print_rule(monkeypatch):
    """Letters run together up to n = 9 and are joined by "." above."""
    assert cstar_fixed._word_texts(3) == ["123", "132", "213", "231", "312", "321"]
    ten = tuple(range(10, 0, -1))
    monkeypatch.setattr(cstar_fixed.kernels, "words_lex", lambda n: (ten,))
    assert cstar_fixed._word_texts(10) == ["10.9.8.7.6.5.4.3.2.1"]


def test_sigma_and_descent_stats():
    assert sigma((1, 2, 3)) == 0
    assert sigma((2, 1)) == 1
    assert sigma((2, 3, 1)) == 2
    assert sigma((3, 1, 2)) == 1
    assert descent_counts(((2, 3, 1), (3, 1, 2))) == (1, 1)
    assert descent_counts(((1, 2, 3),)) == (0, 0)
    assert descent_counts(((3, 2, 1),)) == (1, 1)


def test_degree_constraint_hand_cases():
    assert not degree_constraint(P221, W12, (0,))
    assert degree_constraint(P221, W12, (1,))
    assert degree_constraint(P221, W21, (0,))
    p3 = ModuliParams(3, 2, 1, 0)
    assert degree_constraint(p3, ((1, 2, 3),), (1, 1))


@pytest.mark.parametrize("n,ks", [(2, (1, 2, 3)), (3, (1, 2)), (5, (1,))])
def test_degree_constraint_is_integrality_of_d_n(n, ks):
    """The congruence holds exactly when component_dn's numerator
    d + sum j(m_j + s_j) - n(n-1)chi/2 is divisible by n, and then n d_n is
    that numerator. n(n-1)chi/2 is a multiple of n for odd prime n and is
    chi = k mod 2 for n = 2, so the congruence reads n | d + sum j(m_j + s_j)
    for odd n and d + m_1 + s_1 - k even for n = 2. The last twist jump's
    coefficient n - 1 is a unit mod n, so its values 0..n-1 meet every
    residue."""
    for g, k, d in product((2, 3), ks, range(-2, 4)):
        p, chi = ModuliParams(n, g, k, d), 2 * g - 2 + k
        for words in product(kernels.words_lex(n), repeat=k):
            s = descent_counts(words)
            for lead, last in product((0, 1), range(n)):
                m = (lead,) * (n - 2) + (last,)
                plain = d + sum((j + 1) * (m[j] + s[j]) for j in range(n - 1))
                holds = (plain - k) % 2 == 0 if n == 2 else plain % n == 0
                assert degree_constraint(p, words, m) == holds, (p, words, m)
                if holds:
                    assert n * component_dn(p, words, m) == plain - n * (n - 1) * chi // 2
                else:
                    with pytest.raises(NonIntegralDegreeError):
                        component_dn(p, words, m)


def test_stability_hand_cases():
    # rank two, one point: bound for the descending word is 2 + a2 - a1,
    # for the ascending word 3 - (a2 - a1); here a2 - a1 = 2/5
    assert stability_check(P221, ALPHA, W21, (2,))
    assert not stability_check(P221, ALPHA, W21, (4,))
    assert stability_check(P221, ALPHA, W12, (1,))
    assert stability_check(P221, ALPHA, W12, (2,))
    assert not stability_check(P221, ALPHA, W12, (3,))


def test_component_dn_hand_cases():
    assert component_dn(P221, W12, (1,)) == -1
    assert component_dn(P221, W21, (0,)) == -1
    assert component_dn(P221, W21, (2,)) == 0
    p3 = ModuliParams(3, 2, 1, 0)
    assert component_dn(p3, ((1, 2, 3),), (1, 1)) == -2
    with pytest.raises(NonIntegralDegreeError):
        component_dn(P221, W12, (0,))


def test_enumerate_components_small_census():
    # word index 0 is "12", 1 is "21"
    census = enumerate_components(P221, ALPHA)
    assert [(c.t_idx, c.m, c.s, c.d_n) for c in census] == [
        ((0,), (1,), (0,), -1),
        ((1,), (0,), (1,), -1),
        ((1,), (2,), (1,), 0),
    ]


def test_enumerate_components_parity_flip():
    p = ModuliParams(2, 2, 1, 1)
    census = enumerate_components(p, ALPHA)
    assert [(c.t_idx, c.m) for c in census] == [((0,), (0,)), ((0,), (2,)), ((1,), (1,))]
    assert len(census) == len(enumerate_components(P221, ALPHA))


def _census(groups):
    """A census of the given CensusGroup list, its uses derived by the
    oracle."""
    return Census(census_uses(groups), groups.__iter__)


def _patch_census(monkeypatch, *groups):
    """Make the kernel return a census of the given (t_idx, s, dn_floor,
    lattice) groups."""
    census = _census([CensusGroup(*group) for group in groups])
    monkeypatch.setattr(cstar_fixed.kernels, "enumerate_census", lambda *args: census)


def test_enumerate_components_rejects_negative_twist(monkeypatch):
    # the bad point is the last one of a lattice that a good word tuple shares
    _patch_census(
        monkeypatch,
        ((1,), (1,), -1, (((0,), 0),)),
        ((1,), (1,), -1, (((0,), 0), ((-2,), -1))),
    )
    with pytest.raises(IdentityCheckError, match="negative twist jump"):
        enumerate_components(P221, ALPHA)


def test_enumerate_components_rejects_wrong_twist_length(monkeypatch):
    _patch_census(monkeypatch, ((1,), (1,), -1, (((0,), 0), ((1, 1), 1))))
    with pytest.raises(IdentityCheckError, match="length n-1"):
        enumerate_components(P221, ALPHA)


def test_census_faults_exit_one(monkeypatch, capsys):
    """A census with a negative twist jump is a fault of the program, not
    of the invocation: variant and tms exit 1, not 2."""
    lattice = (((1,), 0), ((-1,), 0))
    _patch_census(monkeypatch, ((0,), (0,), -1, (((1,), 0),)), ((1,), (1,), -1, lattice))
    for sub in ("variant", "tms"):
        assert cli.main([sub, "--n", "2", "--g", "2", "--marked", "1", "--deg", "0"]) == 1, sub
        err = capsys.readouterr().err
        assert err.startswith("error: negative twist jump in (-1,)"), err


@pytest.mark.parametrize("lattice", [
    (((0, 0), 0), ((0, 1), 0)),
    (((0, -1), 0), ((0, 1), 0)),
    (((0, 0), 0), ((-1, 1), 0)),
    (((0,), 0), ((0, 1), 0)),
    (((0, 0), 0), ((0, 1, 0), 0)),
    (((-1, 0), 0), ((0, 1, 0), 0)),
    (((), 0),),
], ids=["good", "negative-first", "negative-last", "short", "long", "negative-and-long", "empty"])
def test_twist_check_matches_the_per_entry_walk(monkeypatch, lattice):
    """The check on distinct points raises exactly when the walk over every
    entry of every lattice does, whichever entry is at fault."""
    p = ModuliParams(3, 2, 1, 0)
    groups = [((0,), (0, 0), 0, (((0, 0), 0),)), ((1,), (0, 1), 0, lattice), ((2,), (1, 0), 0, lattice)]
    census = _census([CensusGroup(*group) for group in groups])
    _patch_census(monkeypatch, *groups)
    try:
        check_every_entry(p.n, census)
    except IdentityCheckError:
        with pytest.raises(IdentityCheckError):
            enumerate_components(p, sample_generic_weights(p, seed=1, scale=Fraction(1)))
    else:
        enumerate_components(p, sample_generic_weights(p, seed=1, scale=Fraction(1)))


# the census shares the first point of residue 0, m = 0, among every lattice
# of that residue; (3, 2, 2, 1) has several
SHARED = ModuliParams(3, 2, 2, 1)
SHARED_ARGV = ["variant", "--n", "3", "--g", "2", "--marked", "2", "--deg", "1"]
POINT_FAULTS = [
    pytest.param(lambda m: m[:-1] + (-1,), r"negative twist jump in \(0, -1\)", id="negative"),
    pytest.param(lambda m: m[:-1], "m must have length n-1", id="short"),
]


def _fault_search(monkeypatch, fault):
    """Make the census's one search file fault(m) in place of m = 0, the
    first point of residue 0, with its q and loads kept; returns the list
    of the faulty point objects it makes."""
    real = kernels._lattice
    made = []

    def search(n, coef, Q):
        lattices, loads = real(n, coef, Q)
        m, q = lattices[0][0]
        assert m == (0,) * (n - 1)
        lattices[0][0] = (fault(m), q)
        made.append(lattices[0][0])
        return lattices, loads

    monkeypatch.setattr(kernels, "_lattice", search)
    return made


def _shared_census_args():
    w = sample_generic_weights(SHARED, seed=1, scale=sampler_scale(SHARED))
    den, wnum = integer_weights(w)
    return w, (SHARED.n, SHARED.g, SHARED.k, SHARED.d, wnum, den)


@pytest.mark.parametrize("fault,message", POINT_FAULTS)
def test_faulty_point_shared_by_searched_and_filtered_lattices(monkeypatch, capsys, fault, message):
    """A faulty twist vector in a point of the census's search, which the
    lattices filtered from it share, raises IdentityCheckError, and variant
    exits 1."""
    w, args = _shared_census_args()
    made = _fault_search(monkeypatch, fault)
    census = kernels.enumerate_census(*args)
    assert sum(made[0] in lattice for lattice, _ in census.uses) >= 2
    with pytest.raises(IdentityCheckError, match=message):
        enumerate_components(SHARED, w)
    assert cli.main(SHARED_ARGV) == 1
    assert re.match("error: " + message, capsys.readouterr().err)


@pytest.mark.parametrize("fault,message", POINT_FAULTS)
def test_faulty_point_read_from_the_memo(monkeypatch, fault, message):
    """A faulty twist vector in lattices that an earlier census kept in the
    memo raises IdentityCheckError in a census that reads them there and
    searches nothing."""
    w, args = _shared_census_args()
    memo = {}
    made = _fault_search(monkeypatch, fault)
    kernels.enumerate_census(*args, 0, None, memo)
    assert any(made[0] in lattice for lattice, _, _ in memo.values())

    def no_search(*args):
        raise AssertionError("the census searched")

    monkeypatch.setattr(kernels, "_lattice", no_search)
    with pytest.raises(IdentityCheckError, match=message):
        enumerate_components(SHARED, w, memo)


def test_box_point_dropped_from_one_lattice_fails_the_flat_box_check(monkeypatch, capsys):
    """The first lattice filtered from the census's search loses one box
    point: the flat-box check sees its count fall, and variant exits 1."""
    real = kernels._filtered
    dropped = []

    def filtered(lattice, loads, reach, Q):
        lattice, loads, reach = real(lattice, loads, reach, Q)
        if not dropped:
            i = next(i for i, (m, _) in enumerate(lattice) if 0 < max(m) <= 2 * SHARED.g - 2)
            dropped.append(lattice[i][0])
            lattice, loads = lattice[:i] + lattice[i + 1:], loads[:i] + loads[i + 1:]
        return lattice, loads, reach

    monkeypatch.setattr(kernels, "_filtered", filtered)
    w, _ = _shared_census_args()
    census = enumerate_components(SHARED, w)
    message = rf"twist vector {re.escape(str(dropped[0]))} has \d+ census rows, not 12"
    with pytest.raises(IdentityCheckError, match=message):
        variant_total_bruteforce(SHARED, census)
    dropped.clear()
    assert cli.main(SHARED_ARGV) == 1
    assert re.match("error: " + message, capsys.readouterr().err)


@pytest.mark.parametrize("n,g,k,d", [(2, 2, 1, 0), (3, 2, 2, 1), (5, 2, 1, 0)])
def test_sign_flipped_slices_exit_one(monkeypatch, capsys, n, g, k, d):
    """Past the flat box check, the census total's own content is the slice
    expansion: slices with their odd degrees negated sum to
    ((1+u)(1+v))^(g-1), so tms reports a failed identity."""

    def flipped(G, m):
        return -binom_deg_slice(G, m) if m % 2 else binom_deg_slice(G, m)

    monkeypatch.setattr(cstar_fixed, "binom_deg_slice", flipped)
    argv = ["tms", "--n", str(n), "--g", str(g), "--marked", str(k), "--deg", str(d)]
    assert cli.main(argv) == 1
    assert "equal=false" in capsys.readouterr().out


def test_enumerate_components_shares_word_tuples():
    p = ModuliParams(3, 2, 2, 1)
    census = enumerate_components(p, sample_generic_weights(p, seed=4, scale=Fraction(1, 8)))
    by_words = {}
    for c in census:
        by_words.setdefault(c.t_idx, []).append(c.t_idx)
    assert len(by_words) < len(census)
    for shared in by_words.values():
        assert all(t is shared[0] for t in shared)


def test_enumerate_components_rejects_wall_weights():
    p = ModuliParams(2, 2, 2, 0)
    on_wall = WeightSystem.from_rows([[0, Fraction(1, 4)], [0, Fraction(1, 4)]])
    with pytest.raises(NonGenericWeightsError):
        enumerate_components(p, on_wall)


# n -> (genera, marked-point counts) where the count formula is known
COUNT_GRID = {2: (range(2, 5), range(1, 6)), 3: (range(2, 4), range(1, 4)), 5: (range(2, 4), (1,))}


@pytest.mark.parametrize("n", sorted(COUNT_GRID))
def test_component_count_matches_formula(n):
    """The census size follows the fitted closed forms at every degree,
    seed and scale of the grid (270, 108 and 36 instances)."""
    genera, marked = COUNT_GRID[n]
    scales = (Fraction(1, 1000), Fraction(1))
    for g, k, d, seed, scale in product(genera, marked, range(3), (1, 2, 3), scales):
        p = ModuliParams(n, g, k, d)
        census = enumerate_components(p, sample_generic_weights(p, seed=seed, scale=scale))
        assert len(census) == component_count_formula(p), (p, seed, scale)


def test_component_variant_epoly_hand_cases():
    c1 = CensusRow((0,), (1,), (0,), -1)
    assert component_variant_epoly(P221, c1) == 15 * (-U - V)
    c0 = CensusRow((1,), (0,), (1,), -1)
    assert component_variant_epoly(P221, c0) == 15 * ONE
    c3 = CensusRow((1,), (4,), (1,), 1)
    assert component_variant_epoly(P221, c3) == ZERO


def _closed_oracle(n, g, k, scalar):
    prym = (n - 1) * (g - 1)
    h = (n * n - 1) * (g - 1) + k * n * (n - 1) // 2
    return scalar * (U * V) ** h * ((ONE - U) * (ONE - V)) ** prym


def test_variant_totals_hand_values():
    assert variant_closed_form(P221) == _closed_oracle(2, 2, 1, 15)
    assert variant_closed_form(ModuliParams(3, 2, 1, 0)) == _closed_oracle(3, 2, 1, 160)
    assert variant_closed_form(ModuliParams(2, 3, 2, 0)) == _closed_oracle(2, 3, 2, 126)


BRUTEFORCE_GRID = [
    (2, 2, 1, 0),
    (2, 2, 1, 1),
    (2, 3, 1, 0),
    (2, 2, 2, 1),
    (3, 2, 1, 0),
    (3, 2, 1, 2),
    (3, 2, 2, 1),
    (5, 2, 1, 3),
]


@pytest.mark.parametrize("n,g,k,d", BRUTEFORCE_GRID)
def test_bruteforce_equals_closed_form(n, g, k, d):
    p = ModuliParams(n, g, k, d)
    scale = Fraction(1, 2) if n <= 3 else small_weight_margin(p)
    w = sample_generic_weights(p, seed=2, scale=scale)
    assert variant_total_bruteforce(p, enumerate_components(p, w)) == variant_closed_form(p)


def _census_instances():
    """Every census instance of this file and of the rank-five acceptance
    criterion, all with at most 20k components."""
    cases = [("alpha", P221, ALPHA), ("alpha", ModuliParams(2, 2, 1, 1), ALPHA)]
    for n, g, k, d in BRUTEFORCE_GRID:
        p = ModuliParams(n, g, k, d)
        scale = Fraction(1, 2) if n <= 3 else small_weight_margin(p)
        cases.append(("seed2", p, sample_generic_weights(p, seed=2, scale=scale)))
    for d in (0, 1, 2):
        p = ModuliParams(5, 2, 1, d)
        cases.append(("seed1", p, sample_generic_weights(p, seed=1, scale=small_weight_margin(p))))
    return [pytest.param(p, w, id=f"{label}-{p.n}-{p.g}-{p.k}-{p.d}") for label, p, w in cases]


@pytest.mark.parametrize("p,w", _census_instances())
def test_bruteforce_matches_row_by_row_oracle(p, w):
    census = enumerate_components(p, w)
    assert len(census) <= 20_000
    h = dim_hitchin_base(p)
    oracle = sum((component_variant_epoly(p, c) for c in census), ZERO).shift(h, h)
    assert variant_total_bruteforce(p, census) == oracle


@pytest.mark.parametrize("p,w", _census_instances())
def test_grouped_census_matches_its_rows(p, w):
    """The m counts taken from the groups, on the box and with a bound that
    takes in every row, are the Counter over the listed rows within that
    bound, len() is the row count, and every iteration lists the same rows,
    each with n - 1 twist jumps, none negative, and the descent counts of
    its words."""
    census = enumerate_components(p, w)
    rows = list(census)
    assert len(census) == len(rows)
    for top in (0, 1, 2 * p.g - 2, max(max(c.m) for c in rows)):
        assert census.box_counts(top) == Counter(c.m for c in rows if max(c.m) <= top)
        assert census.box_counts(top) == entry_box_counts(census, top)
    check_every_entry(p.n, census)
    assert list(census) == rows
    words = kernels.words_lex(p.n)
    for c in rows:
        assert len(c.m) == p.n - 1 and min(c.m) >= 0
        assert c.s == descent_counts([words[i] for i in c.t_idx])


@pytest.mark.parametrize("p,w", _census_instances())
def test_box_is_flat_by_corner_stability(p, w):
    """The flat histogram, shown without the census: every word tuple is
    stable at the corner m = (2g - 2, ..., 2g - 2), hence on the whole box,
    as the stability coefficients are positive; and at each box point the
    degree congruence holds for (n!)^k / n word tuples. The census box
    counts agree."""
    tuples = list(product(kernels.words_lex(p.n), repeat=p.k))
    corner = (2 * p.g - 2,) * (p.n - 1)
    assert all(stability_check(p, w, t, corner) for t in tuples)
    counts = enumerate_components(p, w).box_counts(2 * p.g - 2)
    flat = factorial(p.n) ** p.k // p.n
    for m in product(range(2 * p.g - 1), repeat=p.n - 1):
        assert sum(1 for t in tuples if degree_constraint(p, t, m)) == flat == counts[m]


def _move_one_row(census, old, new):
    """The census with one row's twist vector old replaced by new: the first
    word tuple whose lattice holds old gets its own changed copy of it."""
    groups = list(census.groups())
    for i, group in enumerate(groups):
        points = list(group.lattice)
        for j, (m, q) in enumerate(points):
            if m == old:
                points[j] = (new, q)
                groups[i] = group._replace(lattice=tuple(points))
                return _census(groups)
    raise LookupError(f"no row has m = {old}")


def test_flat_histogram_check_catches_a_moved_row(monkeypatch, capsys):
    """A kernel that moves one row from m = (0, 1) to (1, 0) keeps the
    component count and, since the product of slices is symmetric in the
    entries of m, every total. Only the flat-histogram check sees it, and
    tms exits 1."""
    real = kernels.enumerate_census
    monkeypatch.setattr(
        cstar_fixed.kernels,
        "enumerate_census",
        lambda *args: _move_one_row(real(*args), (0, 1), (1, 0)),
    )
    p = ModuliParams(3, 2, 1, 0)
    w = sample_generic_weights(p, seed=1, scale=Fraction(1))
    census = enumerate_components(p, w)
    assert Counter(c.m for c in census)[(1, 0)] == factorial(3) // 3 + 1
    h = dim_hitchin_base(p)
    moved = sum((component_variant_epoly(p, c) for c in census), ZERO).shift(h, h)
    assert moved == variant_closed_form(p)
    with pytest.raises(IdentityCheckError, match=r"twist vector \(0, 1\) has 1 census rows"):
        variant_total_bruteforce(p, census)
    assert cli.main(["tms", "--n", "3", "--g", "2", "--marked", "1", "--deg", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_closed_form_divisibility_check_raises(monkeypatch):
    monkeypatch.setattr(cstar_fixed, "factorial", lambda n: 1)
    with pytest.raises(IdentityCheckError):
        variant_closed_form(ModuliParams(3, 2, 1, 0))


def test_bruteforce_weight_independent():
    p = ModuliParams(2, 2, 2, 0)
    values = set()
    for seed in range(1, 21):
        w = sample_generic_weights(p, seed=seed)
        values.add(variant_total_bruteforce(p, enumerate_components(p, w)))
    assert len(values) == 1


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 2])
def test_cyclotomic_equals_closed_form(n, k):
    for d in range(n):
        p = ModuliParams(n, 2, k, d)
        assert variant_total_cyclotomic(p) == variant_closed_form(p)


def _scan_sigma_sum_residues(n, k, sig):
    """The direct form: visit every word tuple and bin its sigma sum mod n."""
    sums = [0] * n
    for t in product(sig, repeat=k):
        sums[sum(t) % n] += 1
    return sums


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_filter_counts_match_tuple_scan(n, k):
    sig = [sigma(w) for w in kernels.words_lex(n)]
    assert cstar_fixed._sigma_residue_counts(n) == tuple(sum(1 for s in sig if s % n == r) for r in range(n))
    assert cstar_fixed._sigma_sum_residues(n, k) == _scan_sigma_sum_residues(n, k, sig)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_word_tables_keep_interned_descent_vectors(n):
    """The kernel's descent and sigma columns are each word's descent vector
    and sigma, and the descent column holds one object per distinct vector:
    at most 2^(n-1) of them."""
    desc, sig, _, _ = kernels._word_tables(n)
    words = kernels.words_lex(n)
    assert desc == tuple(descent_vector(w) for w in words)
    assert sig == tuple(sigma(w) for w in words)
    assert len({id(dv) for dv in desc}) <= 2 ** (n - 1)


COUNT_S_PEAK = """
import gc, json, tracemalloc
from parmirror import cstar_fixed

gc.collect()
tracemalloc.start()
counts = [cstar_fixed.count_S(8, r) for r in range(8)]
_, peak = tracemalloc.get_traced_memory()
tracemalloc.stop()
print(json.dumps([counts, peak]))
"""


def test_sigma_residue_counts_hold_no_table(run_fresh):
    """count_S streams S_8 through sigma and keeps only the 8 residue
    counts: its tracemalloc peak in a fresh interpreter read 2,000 bytes,
    where counting from a table of all 40,320 sigma values peaked at
    382,304 (Python 3.11)."""
    counts, peak = run_fresh(COUNT_S_PEAK)
    assert counts == [5040] * 8
    assert peak < 50_000, peak


@pytest.mark.parametrize("n", [2, 3, 5, 7])
@pytest.mark.parametrize("g", [2, 3])
def test_filtered_total_equals_ring_oracle(n, g):
    for k, d in product((1, 2, 3), (0, 1, 2)):
        p = ModuliParams(n, g, k, d)
        assert variant_total_cyclotomic(p) == ring_filtered_total(p), (k, d)


def test_non_flat_sigma_histogram_exits_1(monkeypatch, capsys):
    # One word moved from residue 2 to residue 0: the l != 0 filter terms
    # no longer vanish, and the integer path must refuse to drop them.
    monkeypatch.setattr(cstar_fixed, "_sigma_residue_counts", lambda n: (3, 2, 1))
    with pytest.raises(IdentityCheckError, match="not flat mod 3"):
        variant_total_cyclotomic(ModuliParams(3, 2, 1, 0))
    assert cli.main(["tms", "--n", "3", "--g", "2", "--marked", "1", "--deg", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not flat mod 3" in err


def test_cyclotomic_discarded_term_vanishes():
    for n, k in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
        assert cyclotomic_discarded_term(ModuliParams(n, 2, k, 1)) == ZERO


def test_descent_character_sum():
    for n in (2, 3, 5):
        assert descent_character_sum(n, 0) == CycInt.from_int(n, factorial(n))
        for l in range(1, n):
            assert descent_character_sum(n, l).is_zero()


def test_count_S_values_and_uniformity():
    assert count_S(2) == 1
    assert count_S(3) == 2
    assert count_S(5) == 24
    assert count_S(7) == 720
    for n in (2, 3, 4, 5, 6):
        for residue in range(n):
            assert count_S(n, residue) == factorial(n - 1)
    with pytest.raises(LimitError):
        count_S(11)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_insertion_bijection_all_words(n):
    for letters in permutations(range(1, n)):
        assert insertion_bijection_check(letters)


def test_insertion_bijection_limit():
    with pytest.raises(LimitError):
        insertion_bijection_check(tuple(range(1, 12)))


def test_components_csv_golden():
    census = enumerate_components(P221, ALPHA)
    buf = io.StringIO()
    components_to_csv(P221, census, buf)
    assert buf.getvalue().splitlines() == [
        "words,m,s,d_n,degree",
        "12,1,0,-1,1",
        "21,0,1,-1,0",
        "21,2,1,0,2",
    ]


def test_components_csv_golden_multiword():
    p = ModuliParams(2, 2, 2, 0)
    w = WeightSystem.from_rows([[0, Fraction(1, 10)], [0, Fraction(1, 3)]])
    buf = io.StringIO()
    components_to_csv(p, enumerate_components(p, w), buf)
    assert buf.getvalue().splitlines() == [
        "words,m,s,d_n,degree",
        "12|12,0,0,-2,0",
        "12|12,2,0,-1,2",
        "12|21,1,1,-1,1",
        "12|21,3,1,0,3",
        "21|12,1,1,-1,1",
        "21|21,0,2,-1,0",
        "21|21,2,2,0,2",
    ]


def _csv_module_text(n, census) -> str:
    words = ["".join(map(str, letters)) for letters in kernels.words_lex(n)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["words", "m", "s", "d_n", "degree"])
    for c in census:
        writer.writerow([
            "|".join(words[i] for i in c.t_idx),
            " ".join(map(str, c.m)),
            " ".join(map(str, c.s)),
            c.d_n,
            sum(c.m),
        ])
    return buf.getvalue()


@pytest.mark.parametrize("n,g,k,d,scale", [
    pytest.param(*case, id="-".join(map(str, case[:4]))) for case in [
        (3, 2, 2, 1, Fraction(1, 8)),
        (3, 3, 2, 1, Fraction(1, 8)),
        (5, 2, 1, 0, Fraction(1, 8)),
        (3, 2, 3, 0, None),
        (5, 3, 1, 2, None),  # perfbench's cli_export census, 78,125 rows
    ]
])
def test_components_csv_matches_csv_module(n, g, k, d, scale):
    """Byte-equal to the csv module's text, on censuses where several word
    tuples share one (lattice, s, floor of d_n) block of lines; a None
    scale samples as the CLI does, at sampler_scale(p). The writer marks a
    block's line breaks with a bare LF and turns each into CRLF and the
    next line's words field, so no field may hold an LF of its own: every
    LF written is the end of a CRLF."""
    p = ModuliParams(n, g, k, d)
    scale = sampler_scale(p) if scale is None else scale
    census = enumerate_components(p, sample_generic_weights(p, seed=1, scale=scale))
    assert any(c.d_n < 0 for c in census)
    groups = list(census.groups())
    blocks = {(id(g.lattice), g.s, g.dn_floor) for g in groups}
    assert len(blocks) < len(groups)
    buf = io.StringIO()
    components_to_csv(p, census, buf)
    text = buf.getvalue()
    assert text == _csv_module_text(n, census)
    assert text.count("\r\n") == text.count("\n") == len(census) + 1


ROWS_PEAK = """
import gc, json, os, tracemalloc
from parmirror.chambers import sample_generic_weights, small_weight_margin
from parmirror.cstar_fixed import components_to_csv, enumerate_components, variant_total_bruteforce
from parmirror.moduli import ModuliParams

p = ModuliParams(5, 3, 1, 2)
w = sample_generic_weights(p, seed=1, scale=small_weight_margin(p))
with open(os.devnull, "w", newline="") as sink:
    gc.collect()
    tracemalloc.start()
    census = enumerate_components(p, w)
    variant_total_bruteforce(p, census)
    components_to_csv(p, census, sink)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
print(json.dumps([len(census), peak]))
"""


def test_census_memory_does_not_grow_with_rows(run_fresh):
    """The census, its sum and its CSV export of the 78,125 components at
    (5, 3, 1, 2) allocate at most 1,670,699 bytes at peak: the census keeps
    a word-tuple count for each of its 16 distinct lattices, 10,500 entries
    over 4,095 distinct lattice points, and walks the 120 word tuples again to write the
    CSV, rendering each block as one string. A census that listed every row
    as a tuple and as a component object peaked at 15.7 MB on this instance
    (Python 3.11). It is measured in a fresh interpreter after the weights
    are sampled, with free lists cleared first, and read 1,178,848 bytes
    there, its peak set while the kernel's one search of 4,611 points is
    held (1,178,736 when a list comprehension built each point's loads,
    1,326,256 when each was stepped from the last by [*map(add, ...)],
    which gives each list of 4 loads room for 8, 1,140,240 when each
    undominated key had its own search, 1,287,792 while the kernel interned
    each census's points in a dict, 1,654,979 when each block was a list of
    line strings)."""
    rows, peak = run_fresh(ROWS_PEAK)
    assert rows == 78_125
    assert peak <= 1_670_699, peak
