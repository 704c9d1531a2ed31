"""Acceptance criteria. One test per criterion, exact equality throughout,
no tolerances. Each test prints a single PASS line with its runtime; the
stated budget is asserted, not aspirational.
"""

import time
from fractions import Fraction
from itertools import permutations, product
from math import factorial

from oracles import cyclotomic_discarded_term
from parmirror.chambers import (
    enumerate_walls,
    sample_generic_weights,
    small_weight_margin,
    wall_value,
)
from parmirror.cstar_fixed import (
    count_S,
    degree_constraint,
    enumerate_components,
    insertion_bijection_check,
    variant_closed_form,
    variant_total_bruteforce,
    variant_total_cyclotomic,
)
from parmirror.exactpoly import ONE, U, V, ZERO
from parmirror.moduli import ModuliParams, dim_moduli
from parmirror.pgl_fixed import (
    fermionic_shift,
    fixed_locus_dim,
    sn_quotient_count,
    sn_quotient_count_bruteforce,
    stringy_gamma_sum,
)
from parmirror.tms import SweepConfig, dumps_canonical, sweep, sweep_to_jsonable, verify_identity
from parmirror.torsion import (
    NormFiberModel,
    SymplecticForm,
    TorsionVector,
    check_component_action,
    galois_orbit_size,
    invariant_fiber_count,
)


def _identity_grid(n, budget, label):
    """Shared body of criteria 1 and 2: the full (g, k, d) grid with five
    weight systems per cell, small and non-small scales mixed."""
    start = time.perf_counter()
    checked = 0
    for g in (2, 3):
        for k in (1, 2):
            for d in (0, 1):
                p = ModuliParams(n, g, k, d)
                systems = set()
                for seed in (1, 2, 3, 4, 5):
                    scale = Fraction(1, 1000) if seed == 1 else Fraction(1)
                    w = sample_generic_weights(p, seed=seed, scale=scale)
                    systems.add(w)
                    r = verify_identity(p, w)
                    assert r.equal, (n, g, k, d, seed)
                    assert r.lhs_bruteforce == r.lhs_closed == r.lhs_cyclotomic == r.rhs
                    checked += 1
                assert len(systems) == 5, (n, g, k, d)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    return checked, elapsed, label


def test_criterion_01_identity_rank_two():
    checked, elapsed, _ = _identity_grid(2, budget=1.0, label="n=2")
    p = ModuliParams(2, 2, 1, 0)
    w = sample_generic_weights(p, seed=1, scale=Fraction(1, 1000))
    value = verify_identity(p, w).lhs_closed
    assert value == 15 * (U * V) ** 4 * (ONE - U) * (ONE - V)
    print(f"[C1] PASS identity n=2: {checked} instances, 5 weight systems per cell,"
          f" (g=2,k=1) value 15(uv)^4(1-u)(1-v) ({elapsed:.2f}s < 1s)")


def test_criterion_02_identity_rank_three():
    checked, elapsed, _ = _identity_grid(3, budget=5.0, label="n=3")
    p = ModuliParams(3, 2, 1, 0)
    w = sample_generic_weights(p, seed=1, scale=Fraction(1, 1000))
    value = verify_identity(p, w).lhs_closed
    assert value == 160 * (U * V) ** 11 * ((ONE - U) * (ONE - V)) ** 2
    print(f"[C2] PASS identity n=3: {checked} instances, 5 weight systems per cell,"
          f" (g=2,k=1) value 160(uv)^11((1-u)(1-v))^2 ({elapsed:.2f}s < 5s)")


def test_criterion_03_identity_rank_five_small_weights():
    start = time.perf_counter()
    words = list(permutations(range(1, 6)))
    assert len(words) == 120
    for d in (0, 1, 2):
        p = ModuliParams(5, 2, 1, d)
        w = sample_generic_weights(p, seed=1, scale=small_weight_margin(p))
        components = enumerate_components(p, w)
        brute = variant_total_bruteforce(p, components)
        closed = variant_closed_form(p)
        stringy = stringy_gamma_sum(p)
        assert brute == closed == stringy, d
        in_box = sum(1 for c in components if max(c.m) <= 2)
        grid = sum(
            1
            for word in words
            for m in product(range(3), repeat=4)
            if degree_constraint(p, (word,), m)
        )
        assert in_box == grid == 120 * 81 // 5
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"[C3] PASS identity n=5 small weights, d in {{0,1,2}}: census covers"
          f" 120 x 81 grid, brute = closed = stringy ({elapsed:.2f}s < 30s)")


def test_criterion_04_descent_lemma():
    start = time.perf_counter()
    for n in (2, 3, 5, 7):
        assert count_S(n) == factorial(n - 1), n
    assert count_S(2) == 1
    assert count_S(7) == 720
    checked = 0
    for n in range(2, 8):
        for letters in permutations(range(1, n)):
            assert insertion_bijection_check(letters), letters
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"[C4] PASS descent lemma: count_S(n) = (n-1)! for n in {{2,3,5,7}},"
          f" insertion bijection on {checked} words up to n=7 ({elapsed:.2f}s < 30s)")


def test_criterion_05_weight_independence():
    start = time.perf_counter()
    for n, g, k, d in [(2, 2, 2, 0), (3, 2, 1, 0)]:
        p = ModuliParams(n, g, k, d)
        walls = enumerate_walls(p)
        assert walls, (n, k)
        closed = variant_closed_form(p)
        systems = []
        seed = 1
        while len(systems) < 20:
            w = sample_generic_weights(p, seed=seed)
            seed += 1
            if w in systems:
                continue
            systems.append(w)
        chambers = {
            tuple(wall_value(w, p, wall) > 0 for wall in walls) for w in systems
        }
        assert len(chambers) > 1, "systems must span different chambers"
        for w in systems:
            assert variant_total_bruteforce(p, enumerate_components(p, w)) == closed
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[C5] PASS weight independence: 20 distinct systems per (n,g,k,d),"
          f" multiple chambers, identical census totals ({elapsed:.2f}s < 10s)")


def test_criterion_06_cyclotomic_path():
    start = time.perf_counter()
    for n in (2, 3, 5):
        for k in (1, 2):
            p = ModuliParams(n, 2, k, d=1)
            # every division by n and every projection inside raises on
            # inexactness, so completion certifies exact arithmetic
            assert variant_total_cyclotomic(p) == variant_closed_form(p), (n, k)
            assert cyclotomic_discarded_term(p) == ZERO, (n, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"[C6] PASS cyclotomic path: filtered sum = closed form for"
          f" n in {{2,3,5}}, k in {{1,2}}, exactness certified ({elapsed:.2f}s < 60s)")


def test_criterion_07_torsion_action_suite():
    start = time.perf_counter()
    checked = 0
    for n in (2, 3):
        g = 2
        form = SymplecticForm.standard(n, g)
        for d in range(n):
            for coords in product(range(n), repeat=2 * g):
                gamma = TorsionVector(n=n, coords=coords)
                if gamma.is_zero():
                    continue
                assert check_component_action(NormFiberModel(n=n, d=d, gamma=gamma), form)
                checked += 1
        assert checked
    assert galois_orbit_size(3, 1) == 3
    assert invariant_fiber_count(2, 2, 2) == 8
    for n in (2, 3, 5):
        for d in range(-2 * n, 2 * n + 1):
            assert galois_orbit_size(n, d) == (1 if d % n == 0 else n)
            for g in (2, 3):
                expect = n ** (2 * g - 1) if d % n == 0 else 0
                assert invariant_fiber_count(n, g, d) == expect
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[C7] PASS torsion action suite: {checked} (gamma, d) models verified"
          f" exhaustively, orbit and fibre counts match ({elapsed:.2f}s < 10s)")


def test_criterion_08_quotient_structure_suite():
    start = time.perf_counter()
    for n in (2, 3, 5, 7):
        for g in (2, 3, 4):
            for k in (1, 2, 3):
                p = ModuliParams(n, g, k)
                assert 2 * fermionic_shift(p) == dim_moduli(p) - fixed_locus_dim(n, g)
    for n in (2, 3, 5):
        for k in (1, 2, 3):
            # the brute force itself asserts nontrivial rotations fix nothing
            assert sn_quotient_count_bruteforce(n, k) == factorial(n) ** k // n
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[C8] PASS quotient structure: fermionic shift is half the fixed-locus"
          f" codimension; Burnside counts match (n!)^k/n ({elapsed:.2f}s < 10s)")


def test_criterion_09_epolynomial_properties():
    start = time.perf_counter()
    results = sweep(SweepConfig.default())
    polys = 0
    for r in results:
        p = r.params
        top = (p.n ** (2 * p.g) - 1) * factorial(p.n) ** p.k // p.n
        for poly in (r.lhs_bruteforce, r.lhs_closed, r.lhs_cyclotomic, r.rhs):
            terms = poly.terms()
            assert dict(terms) == {(j, i): c for (i, j), c in terms}
            assert sum(c for _, c in terms) == 0
            assert terms[-1][1] == top
            polys += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"[C9] PASS E-polynomial properties: {polys} emitted polynomials are"
          f" u<->v symmetric, vanish at u=v=1, top coefficient"
          f" (n^2g-1)(n!)^k/n ({elapsed:.2f}s < 5s)")


def test_criterion_10_determinism():
    start = time.perf_counter()
    config = SweepConfig.default()
    runs = [dumps_canonical(sweep_to_jsonable(sweep(config))) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    elapsed = time.perf_counter() - start
    print(f"[C10] PASS determinism: default sweep serialized byte-identically"
          f" across three runs ({elapsed:.2f}s)")
