"""Walls, genericity, sampling, the small-weight certificate, and tensor
shifts. Hand oracles follow the wall equation and the shift rule directly.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parmirror import chambers, cli
from parmirror.chambers import (
    WEIGHT_DENOMINATOR,
    CollisionError,
    SamplingExhaustedError,
    Wall,
    WeightSystem,
    enumerate_walls,
    integer_weights,
    is_generic,
    sample_generic_weights,
    sampler_scale,
    small_weight_margin,
    solve_beta_for_degree,
    tensor_degree,
    tensor_transform,
    wall_value,
    weight_denominator,
)
from parmirror.cstar_fixed import degree_constraint, stability_check
from parmirror.exactpoly import IdentityCheckError
from parmirror.moduli import ModuliParams
from parmirror.tms import SweepConfig, verify_identity

import random
from itertools import permutations, product


def test_weight_system_validation():
    with pytest.raises(ValueError):
        WeightSystem.from_rows([[Fraction(1, 2), Fraction(1, 2)]])
    with pytest.raises(ValueError):
        WeightSystem.from_rows([[Fraction(1, 2), Fraction(1, 4)]])
    with pytest.raises(ValueError):
        WeightSystem.from_rows([[Fraction(0), Fraction(1)]])
    with pytest.raises(ValueError):
        WeightSystem.from_rows([[Fraction(0), Fraction(1, 2)], [Fraction(0)]])
    w = WeightSystem.from_rows([["0", "1/4"], ["1/8", "1/3"]])
    assert w.n == 2 and w.k == 2
    with pytest.raises(ValueError, match="at least one marked point"):
        WeightSystem(())
    with pytest.raises(TypeError, match="not a Fraction"):
        WeightSystem(((0, Fraction(1, 2)),))
    with pytest.raises(ValueError, match="not strictly increasing"):
        w._replace(alpha=((Fraction(1, 2), Fraction(1, 4)),))
    assert w._replace(alpha=w.alpha[:1]).k == 1


def test_weight_system_jsonable_round_trip():
    w = WeightSystem.from_rows([[Fraction(0), Fraction(1, 4)], [Fraction(1, 8), Fraction(1, 3)]])
    data = w.to_jsonable()
    assert data == {"points": [["0/1", "1/4"], ["1/8", "1/3"]]}
    assert WeightSystem.from_jsonable(data) == w


def test_no_walls_for_one_point_rank_two():
    for d in (0, 1):
        for g in (2, 3):
            assert list(enumerate_walls(ModuliParams(2, g, 1, d))) == []


def test_walls_two_points_rank_two():
    walls = enumerate_walls(ModuliParams(2, 2, 2, 0))
    assert Wall(nprime=1, subsets=((2,), (1,)), dprime=0) in walls
    # complementary data describe the same hyperplane and are both listed
    for w in walls:
        comp = Wall(
            nprime=2 - w.nprime,
            subsets=tuple(
                tuple(sorted(set((1, 2)) - set(s))) for s in w.subsets
            ),
            dprime=0 - w.dprime,
        )
        assert comp in walls
    assert len(walls) % 2 == 0
    assert list(walls) == sorted(walls, key=lambda w: (w.nprime, w.subsets, w.dprime))


@pytest.mark.parametrize(
    "n,k,d", [(2, 1, 0), (2, 2, 0), (2, 4, 1), (3, 2, 1), (3, 3, -2), (5, 2, 3)]
)
def test_wall_runs_come_in_complementary_pairs(n, k, d):
    walls = enumerate_walls(ModuliParams(n, 2, k, d))
    runs = set(walls.runs)
    assert len(runs) == len(walls.runs)
    for nprime, subsets, d_lo, d_hi in walls.runs:
        assert d_lo <= d_hi
        comp = tuple(tuple(i for i in range(1, n + 1) if i not in s) for s in subsets)
        assert (n - nprime, comp, d - d_hi, d - d_lo) in runs


def test_walls_sequence_protocol():
    walls = enumerate_walls(ModuliParams(3, 2, 3, 1))
    records = list(walls)
    assert len(walls) == len(records) == len(list(walls)) > len(walls.runs)
    assert Wall(nprime=1, subsets=((1,), (1,), (1,)), dprime=2) in walls
    assert Wall(nprime=1, subsets=((1,), (1,), (1,)), dprime=3) not in walls


def test_wall_count_at_rank_seven():
    # uncached, so the session does not keep its 104,958 runs
    walls = enumerate_walls.__wrapped__(ModuliParams(7, 2, 3, 0))
    assert len(walls) == 373_674


def test_walls_ignore_genus():
    assert list(enumerate_walls(ModuliParams(3, 2, 2, 1))) == list(
        enumerate_walls(ModuliParams(3, 5, 2, 1))
    )


def test_is_generic_hand_cases():
    p = ModuliParams(2, 2, 2, 0)
    on_wall = WeightSystem.from_rows([[0, Fraction(1, 4)], [0, Fraction(1, 4)]])
    off_wall = WeightSystem.from_rows([[0, Fraction(1, 4)], [0, Fraction(1, 3)]])
    assert not is_generic(on_wall, p)
    assert is_generic(off_wall, p)
    wall = Wall(nprime=1, subsets=((2,), (1,)), dprime=0)
    assert wall_value(on_wall, p, wall) == 0
    assert wall_value(off_wall, p, wall) != 0
    with pytest.raises(ValueError):
        is_generic(on_wall, ModuliParams(2, 2, 1, 0))


ORACLE_DENOMINATORS = (4, 6, 7, 10, 12, 30, 60)


def _small_denominator_weights(rng, n, k):
    den = rng.choice([q for q in ORACLE_DENOMINATORS if q >= n])
    return WeightSystem(
        tuple(
            tuple(Fraction(a, den) for a in sorted(rng.sample(range(den), n)))
            for _ in range(k)
        )
    )


def _oracle_outcomes(p, draws):
    rng = random.Random(f"oracle-{p.n}-{p.k}-{p.d}")
    outcomes = set()
    for _ in range(draws):
        w = _small_denominator_weights(rng, p.n, p.k)
        generic = is_generic(w, p)
        assert generic == all(wall_value(w, p, wall) != 0 for wall in enumerate_walls(p)), (p, w)
        outcomes.add(generic)
    return outcomes


def test_is_generic_matches_fraction_oracle():
    # Small denominators put many draws on walls, so both outcomes are tested.
    outcomes = set()
    for n, k, d in product((2, 3, 5), (1, 2, 3), (0, 1, 2)):
        p = ModuliParams(n, 2, k, d)
        walls = len(enumerate_walls(p))
        if walls <= 20_000:
            outcomes |= _oracle_outcomes(p, 8 if walls <= 1_000 else 1)
    assert outcomes == {True, False}


def test_integer_weights_equal_the_fraction_form():
    # the denominators of the genericity oracle, reduced per weight, so one
    # system mixes denominators; and the sampler's own 10^6
    rng = random.Random("integer-weights")
    systems = [_small_denominator_weights(rng, n, k)
               for n, k in product((2, 3, 5), (1, 2, 3)) for _ in range(8)]
    systems.append(sample_generic_weights(ModuliParams(3, 2, 2, 0), seed=1))
    for w in systems:
        den = weight_denominator(w)
        assert integer_weights(w) == (den, tuple(tuple(int(a * den) for a in row) for row in w.alpha))


def test_is_generic_matches_fraction_oracle_many_points():
    assert _oracle_outcomes(ModuliParams(2, 2, 11, 1), 3) == {True, False}


def test_divisible_wall_runs_land_in_their_degree_range():
    """is_generic tests divisibility alone. Valid weights, strictly
    increasing in [0, 1) with 0 allowed, keep each run's linear form inside
    its (lo, hi), so every run whose n*den divides n'*d*den - S has its
    quotient in d_lo..d_hi; checked on every run, complements included, at
    denominators small enough to put many runs on a wall: 3,436 of the
    130,440 runs tested are divisible."""
    rng = random.Random("wall-run-range")
    divisible = 0
    for n, k, d in product((2, 3, 5), (1, 2, 3), range(-3, 7)):
        runs = enumerate_walls(ModuliParams(n, 2, k, d)).runs
        for _ in range(24 if len(runs) <= 2_000 else 2):
            den, wnum = integer_weights(_small_denominator_weights(rng, n, k))
            for nprime, subsets, d_lo, d_hi in runs:
                scaled = sum(
                    n * sum(row[i - 1] for i in subset) - nprime * sum(row)
                    for row, subset in zip(wnum, subsets)
                )
                quot, rem = divmod(nprime * d * den - scaled, n * den)
                if not rem:
                    divisible += 1
                    assert d_lo <= quot <= d_hi, (n, k, d, wnum, den, nprime, subsets)
    assert divisible > 1_000, divisible


@st.composite
def _small_instances(draw):
    """(n, k, d) with n in {2, 3}, k <= 3 and 0 <= d < 2n, and weights over
    the oracle's small denominators, one denominator drawn per point."""
    n = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(1, 3))
    d = draw(st.integers(0, 2 * n - 1))
    rows = []
    for _ in range(k):
        den = draw(st.sampled_from(ORACLE_DENOMINATORS))
        nums = draw(st.lists(st.integers(0, den - 1), min_size=n, max_size=n, unique=True))
        rows.append([Fraction(a, den) for a in sorted(nums)])
    return ModuliParams(n, 2, k, d), WeightSystem.from_rows(rows)


@settings(max_examples=300)
@given(_small_instances())
def test_is_generic_agrees_with_every_listed_wall(instance):
    p, w = instance
    assert is_generic(w, p) == all(wall_value(w, p, wall) != 0 for wall in enumerate_walls(p))


def test_is_generic_reads_no_walls(monkeypatch):
    """The verdict comes from divisibility alone: the hand cases keep
    their verdicts with the wall list unavailable."""
    def no_walls(p):
        raise AssertionError("is_generic listed the walls")

    monkeypatch.setattr(chambers, "enumerate_walls", no_walls)
    p = ModuliParams(2, 2, 2, 0)
    assert not is_generic(WeightSystem.from_rows([[0, Fraction(1, 4)], [0, Fraction(1, 4)]]), p)
    assert is_generic(WeightSystem.from_rows([[0, Fraction(1, 4)], [0, Fraction(1, 3)]]), p)


@pytest.mark.parametrize(
    "p",
    [
        ModuliParams(2, 2, 1, 0),
        ModuliParams(2, 2, 2, 1),
        ModuliParams(3, 2, 2, 0),
        ModuliParams(5, 2, 1, 2),
    ],
)
def test_sampler_output_contract(p):
    for seed in range(1, 8):
        w = sample_generic_weights(p, seed=seed, scale=Fraction(1, 4))
        assert w.n == p.n and w.k == p.k
        assert is_generic(w, p)
        assert weight_denominator(w) <= WEIGHT_DENOMINATOR
        assert WEIGHT_DENOMINATOR % weight_denominator(w) == 0
        for row in w.alpha:
            assert all(a < Fraction(1, 4) for a in row)
        assert sample_generic_weights(p, seed=seed, scale=Fraction(1, 4)) == w


def test_sampler_genericity_frequency():
    p = ModuliParams(2, 2, 2, 0)
    seen = set()
    for seed in range(1000):
        w = sample_generic_weights(p, seed=seed)
        assert is_generic(w, p)
        seen.add(w)
    assert len(seen) > 900


def test_sampler_exhaustion_on_tiny_scale():
    with pytest.raises(SamplingExhaustedError):
        sample_generic_weights(ModuliParams(3, 2, 1), seed=1, scale=Fraction(2, WEIGHT_DENOMINATOR))


def test_sampler_gives_up_after_64_draws(monkeypatch, capsys):
    """A sampler that never draws a generic system stops after its 64
    tries, and tms exits 2 with one error line."""
    draws = []
    monkeypatch.setattr(chambers, "is_generic", lambda w, p: draws.append(w) and False)
    assert cli.main(["tms", "--n", "3", "--g", "2", "--marked", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: no generic weights below 1 after 64 draws\n", err
    assert len(draws) == 64


def test_small_weight_margin_value_and_certificate():
    for n, g, k in [(2, 2, 1), (2, 3, 2), (3, 2, 1), (3, 3, 2), (5, 2, 1), (7, 2, 1), (17, 2, 1), (19, 2, 1)]:
        p = ModuliParams(n, g, k)
        assert small_weight_margin(p) == Fraction(1, 2 * n * (n - 1))


def _corner_max(coef, top):
    """The largest coef.x over the corners x_j in {0, top}."""
    return max(sum(c * x for c, x in zip(coef, corner)) for corner in product((0, top), repeat=len(coef)))


@pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 13])
def test_corner_maxima_are_row_sums(n):
    """Corner oracle for the certificate: over the corners m_j in {0, 2g-2}
    and s_j in {0, k} of the box, the largest coef.m and coef.s are (2g-2)
    and k times the row sum, and twice the row sum is n(n-l+1)(l-1), so the
    top corner meets the weight-free right side."""
    for l, coef in enumerate(chambers.stability_coefficients(n), start=2):
        assert 2 * sum(coef) == n * (n - l + 1) * (l - 1)
        for g, k in product((2, 3), (1, 3)):
            lhs_max, s_max = _corner_max(coef, 2 * g - 2), _corner_max(coef, k)
            assert (lhs_max, s_max) == ((2 * g - 2) * sum(coef), k * sum(coef))
            assert lhs_max + s_max == Fraction(n * (n - l + 1) * (l - 1) * (2 * g - 2 + k), 2)


_real_fraction = Fraction


def _faulty_rows(l, row):
    """stability_coefficients with the row of index l replaced."""
    real = chambers.stability_coefficients

    def fake(n):
        rows = list(real(n))
        rows[l - 2] = row
        return tuple(rows)

    return fake


@pytest.mark.parametrize(
    "name,fake,message",
    [
        # a zero coefficient: the top corner need not be the worst
        ("stability_coefficients", _faulty_rows(2, (0, 1)), "not positive at l = 2"),
        # positive, but the row sums to 4 instead of n(n-l+1)(l-1)/2 = 3
        ("stability_coefficients", _faulty_rows(3, (1, 3)), "row sum of \\(1, 3\\)"),
        # eps comes out as 1 instead of 1/(2n(n-1))
        (
            "Fraction",
            lambda num, den=1: _real_fraction(num, 1 if num == 1 else den),
            "weight slack too large",
        ),
    ],
    ids=["zero-coefficient", "wrong-row-sum", "weight-slack"],
)
def test_small_weight_margin_failed_identity_raises(monkeypatch, name, fake, message):
    monkeypatch.setattr(chambers, name, fake)
    with pytest.raises(IdentityCheckError, match=message):
        small_weight_margin(ModuliParams(3, 2, 1))


def test_small_weight_margin_failure_exits_1(monkeypatch, capsys):
    # rank five samples below the certified margin, so the CLI runs the check
    monkeypatch.setattr(chambers, "stability_coefficients", _faulty_rows(5, (1, 2, 3, 5)))
    assert cli.main(["tms", "--n", "5", "--g", "2", "--marked", "1"]) == 1
    assert "row sum of (1, 2, 3, 5) is not n(n-l+1)(l-1)/2 at l = 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "p",
    [
        ModuliParams(2, 2, 1, 0),
        ModuliParams(2, 2, 2, 1),
        ModuliParams(3, 2, 1, 0),
        ModuliParams(3, 2, 2, 2),
    ],
)
def test_small_weights_pass_every_stability_inequality(p):
    """Certification oracle: below the margin, stability holds at every
    grid point of the census box that satisfies the degree congruence."""
    eps = small_weight_margin(p)
    w = sample_generic_weights(p, seed=3, scale=eps)
    words = list(permutations(range(1, p.n + 1)))
    for t in product(words, repeat=p.k):
        for m in product(range(0, 2 * p.g - 1), repeat=p.n - 1):
            if degree_constraint(p, t, m):
                assert stability_check(p, w, t, m)


def test_tensor_transform_hand_cases():
    w = WeightSystem.from_rows([[Fraction(1, 10), Fraction(1, 2)]])
    shifted, wraps = tensor_transform(w, [Fraction(3, 5)])
    assert shifted == WeightSystem.from_rows([[Fraction(1, 10), Fraction(7, 10)]])
    assert wraps == (1,)

    w2 = WeightSystem.from_rows([[Fraction(1, 4), Fraction(3, 4)]])
    shifted2, wraps2 = tensor_transform(w2, [Fraction(1, 2)])
    assert shifted2 == w2
    assert wraps2 == (1,)


def test_tensor_transform_weight_sum_invariant():
    w = WeightSystem.from_rows(
        [[Fraction(1, 10), Fraction(1, 2)], [Fraction(1, 8), Fraction(5, 8)]]
    )
    betas = [Fraction(3, 5), Fraction(1, 3)]
    shifted, wraps = tensor_transform(w, betas)
    for row, new_row, b, wrap in zip(w.alpha, shifted.alpha, betas, wraps):
        assert sum(new_row) == sum(row) + len(row) * b - wrap


def test_tensor_transform_exact_boundary_wraps():
    # a weight landing exactly on 1 wraps to 0; distinct inputs stay distinct,
    # so the collision guard is unreachable through the validated constructor
    w = WeightSystem.from_rows([[Fraction(0), Fraction(1, 2)]])
    shifted, wraps = tensor_transform(w, [Fraction(1, 2)])
    assert shifted == WeightSystem.from_rows([[Fraction(0), Fraction(1, 2)]])
    assert wraps == (1,)
    assert issubclass(CollisionError, ValueError)


def test_tensor_transform_round_trip():
    w = WeightSystem.from_rows(
        [[Fraction(1, 10), Fraction(1, 2)], [Fraction(1, 8), Fraction(5, 8)]]
    )
    betas = [Fraction(3, 5), Fraction(2, 7)]
    shifted, wraps = tensor_transform(w, betas)
    back, back_wraps = tensor_transform(shifted, [1 - b for b in betas])
    assert back == w
    assert tuple(x + y for x, y in zip(wraps, back_wraps)) == (2, 2)


def test_tensor_degree():
    assert tensor_degree(ModuliParams(2, 2, 1, d=0), ell=0, wrap_total=1) == 1
    assert tensor_degree(ModuliParams(3, 2, 1, d=3), ell=2, wrap_total=0) == 9


def test_solve_beta_for_degree():
    w = WeightSystem.from_rows([[Fraction(1, 10), Fraction(1, 2)]])
    assert solve_beta_for_degree(w, 0, kshift=1) == Fraction(7, 10)
    beta0 = solve_beta_for_degree(w, 0, kshift=0)
    _, wraps0 = tensor_transform(w, [beta0])
    assert wraps0 == (0,)
    for kshift in (1, 2):
        beta = solve_beta_for_degree(w, 0, kshift=kshift)
        _, wraps = tensor_transform(w, [beta])
        assert wraps == (kshift,)
    with pytest.raises(ValueError):
        solve_beta_for_degree(w, 0, kshift=3)


DEFAULT = SweepConfig.default()


@pytest.mark.parametrize(
    "p,seeds",
    [(ModuliParams(n, g, k, d), (1, 2, 3))
     for n, g, k, d in product(DEFAULT.ns, DEFAULT.gs, DEFAULT.ks, DEFAULT.ds)]
    + [(ModuliParams(5, 2, 1, 0), (1,)), (ModuliParams(5, 3, 1, 2), (1,))],
    ids=lambda value: "-".join(map(str, value)),
)
def test_tensor_shift_keeps_the_identity_and_the_count(p, seeds):
    """Tensoring by a degree-0 line bundle whose parabolic shift wraps
    `wraps` weights at one point is an isomorphism onto the moduli space of
    degree d + wraps: every shift of each point, by every wrap count, moves
    generic weights to generic weights, and the shifted instance holds the
    identity with the same component count."""
    for seed, scale in product(seeds, DEFAULT.scales):
        w = sample_generic_weights(p, seed=seed, scale=sampler_scale(p, scale))
        count = verify_identity(p, w).component_count
        for point, wraps in product(range(p.k), range(p.n + 1)):
            beta = [Fraction(0)] * p.k
            beta[point] = solve_beta_for_degree(w, point, wraps)
            shifted, wrapped = tensor_transform(w, beta)
            assert sum(wrapped) == wrapped[point] == wraps
            case = (seed, scale, point, wraps)
            q = ModuliParams(p.n, p.g, p.k, tensor_degree(p, 0, wraps))
            assert is_generic(shifted, q), case
            report = verify_identity(q, shifted)
            assert (report.equal, report.component_count) == (True, count), case
