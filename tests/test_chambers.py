"""Walls, genericity, sampling, the small-weight certificate, and tensor
shifts. Hand oracles follow the wall equation and the shift rule directly.
"""

from fractions import Fraction

import pytest

from parmirror import chambers, cli
from parmirror.chambers import (
    WEIGHT_DENOMINATOR,
    CollisionError,
    SamplingExhaustedError,
    Wall,
    WeightSystem,
    enumerate_walls,
    is_generic,
    sample_generic_weights,
    small_weight_margin,
    solve_beta_for_degree,
    tensor_degree,
    tensor_transform,
    wall_value,
    weight_denominator,
)
from parmirror.cstar_fixed import PermTuple, PermWord, degree_constraint, stability_check
from parmirror.exactpoly import IdentityCheckError
from parmirror.moduli import ModuliParams

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


def test_is_generic_matches_fraction_oracle_many_points():
    assert _oracle_outcomes(ModuliParams(2, 2, 11, 1), 3) == {True, False}


def test_wall_jsonable_round_trip():
    wall = Wall(nprime=2, subsets=((1, 3), (2, 3)), dprime=-1)
    assert Wall.from_jsonable(wall.to_jsonable()) == wall


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


def test_small_weight_margin_value_and_certificate():
    for n, g, k in [(2, 2, 1), (2, 3, 2), (3, 2, 1), (3, 3, 2), (5, 2, 1), (7, 2, 1)]:
        p = ModuliParams(n, g, k)
        assert small_weight_margin(p) == Fraction(1, 2 * n * (n - 1))


_real_product = product
_real_fraction = Fraction


@pytest.mark.parametrize(
    "name,fake,message",
    [
        # only the zero corner: the descent corner max drops to 0
        ("product", lambda vals, repeat: [(0,) * repeat], "descent corner mismatch"),
        # m corners at 2g - 1 = 3 instead of 2g - 2: the left side overshoots
        (
            "product",
            lambda vals, repeat: _real_product((0, 3) if vals == (0, 2) else vals, repeat=repeat),
            "tight corner identity fails",
        ),
        # eps comes out as 1 instead of 1/(2n(n-1))
        (
            "Fraction",
            lambda num, den=1: _real_fraction(num, 1 if num == 1 else den),
            "weight slack too large",
        ),
    ],
    ids=["descent-corner", "tight-corner", "weight-slack"],
)
def test_small_weight_margin_failed_identity_raises(monkeypatch, name, fake, message):
    monkeypatch.setattr(chambers, name, fake)
    with pytest.raises(IdentityCheckError, match=message):
        small_weight_margin(ModuliParams(3, 2, 1))


def test_small_weight_margin_failure_exits_1(monkeypatch, capsys):
    # rank five samples below the certified margin, so the CLI runs the check
    monkeypatch.setattr(chambers, "product", lambda vals, repeat: [(0,) * repeat])
    assert cli.main(["tms", "--n", "5", "--g", "2", "--marked", "1"]) == 1
    assert "descent corner mismatch" in capsys.readouterr().err


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
    words = [PermWord(t) for t in permutations(range(1, p.n + 1))]
    for combo in product(words, repeat=p.k):
        t = PermTuple(tuple(combo))
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
