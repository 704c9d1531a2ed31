"""Fixed-component census, variant polynomials, and the descent lemma.

Hand oracles: direct evaluation of the degree congruence, the stability
inequality at rank two, the three-row census at the smallest parameter set,
and the closed-form totals for three small parameter sets.
"""

import csv
import gc
import io
import os
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest

from oracles import (
    census_uses,
    component_variant_epoly,
    cyclotomic_discarded_term,
    descent_character_sum,
    ring_filtered_total,
)
from parmirror import cli, cstar_fixed, kernels
from parmirror.chambers import (
    NonGenericWeightsError,
    WeightSystem,
    sample_generic_weights,
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
from parmirror.kernels import Census, CensusGroup, CensusRow, descent_counts, sigma
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


def _census(n, groups):
    """A rank-n census of the given CensusGroup list, its uses derived by
    the oracle."""
    return Census(n, census_uses(groups), groups.__iter__)


def _patch_census(monkeypatch, *groups):
    """Make the kernel return a rank-2 census of the given (t_idx, dn_floor,
    lattice) groups."""
    census = _census(2, [CensusGroup(*group) for group in groups])
    monkeypatch.setattr(cstar_fixed.kernels, "enumerate_census", lambda *args: census)


def test_enumerate_components_rejects_negative_twist(monkeypatch):
    # the bad point is the last one of a lattice that a good word tuple shares
    _patch_census(
        monkeypatch,
        ((1,), -1, (((0,), 0),)),
        ((1,), -1, (((0,), 0), ((-2,), -1))),
    )
    with pytest.raises(IdentityCheckError, match="negative twist jump"):
        enumerate_components(P221, ALPHA)


def test_enumerate_components_rejects_wrong_twist_length(monkeypatch):
    _patch_census(monkeypatch, ((1,), -1, (((0,), 0), ((1, 1), 1))))
    with pytest.raises(IdentityCheckError, match="length n-1"):
        enumerate_components(P221, ALPHA)


def test_census_faults_exit_one(monkeypatch, capsys):
    """A census with a negative twist jump is a fault of the program, not
    of the invocation: variant and tms exit 1, not 2."""
    lattice = (((1,), 0), ((-1,), 0))
    _patch_census(monkeypatch, ((0,), -1, (((1,), 0),)), ((1,), -1, lattice))
    for sub in ("variant", "tms"):
        assert cli.main([sub, "--n", "2", "--g", "2", "--marked", "1", "--deg", "0"]) == 1, sub
        err = capsys.readouterr().err
        assert err.startswith("error: negative twist jump in (-1,)"), err


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
    for top in (2 * p.g - 2, max(max(c.m) for c in rows)):
        assert census.box_counts(top) == Counter(c.m for c in rows if max(c.m) <= top)
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
                return _census(census.n, groups)
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
    assert kernels.sigma_table(n) == tuple(sig)
    single = cstar_fixed._sigma_residue_counts(n)
    assert single == tuple(sum(1 for s in sig if s % n == r) for r in range(n))
    assert cstar_fixed._sigma_sum_residues(n, k, single) == _scan_sigma_sum_residues(n, k, sig)


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


@pytest.mark.parametrize("n,g,k,d", [(3, 2, 2, 1), (3, 3, 2, 1), (5, 2, 1, 0)])
def test_components_csv_matches_csv_module(n, g, k, d):
    """Byte-equal to the csv module's text, on censuses where several word
    tuples share one (lattice, s, floor of d_n) block of lines."""
    p = ModuliParams(n, g, k, d)
    census = enumerate_components(p, sample_generic_weights(p, seed=1, scale=Fraction(1, 8)))
    assert any(c.d_n < 0 for c in census)
    words = kernels.words_lex(n)
    groups = list(census.groups())
    blocks = {
        (id(g.lattice), descent_counts(words[i] for i in g.t_idx), g.dn_floor) for g in groups
    }
    assert len(blocks) < len(groups)
    buf = io.StringIO()
    components_to_csv(p, census, buf)
    assert buf.getvalue() == _csv_module_text(n, census)


def test_census_memory_does_not_grow_with_rows():
    """The census, its sum and its CSV export of the 78,125 components at
    (5, 3, 1, 2) allocate at most 1,670,699 bytes at peak: the census keeps
    a word-tuple count for each of its 16 distinct lattices, which share
    10,500 lattice points, and walks the 120 word tuples again to write the
    CSV. A census that listed every row as a tuple and as a component
    object peaked at 15.7 MB on this instance (Python 3.11). Free lists are
    cleared first, so every tuple is traced whatever ran before."""
    p = ModuliParams(5, 3, 1, 2)
    w = sample_generic_weights(p, seed=1, scale=small_weight_margin(p))
    with open(os.devnull, "w", newline="") as sink:
        gc.collect()
        tracemalloc.start()
        try:
            census = enumerate_components(p, w)
            variant_total_bruteforce(p, census)
            components_to_csv(p, census, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(census) == 78_125
    assert peak <= 1_670_699, peak
