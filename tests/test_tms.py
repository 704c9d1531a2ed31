"""End-to-end identity checks, sweeps, and canonical serialization."""

import json
from fractions import Fraction
from itertools import product

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

import parmirror.cli
from parmirror import cstar_fixed, kernels, schemas, tms
from parmirror.chambers import (
    NonGenericWeightsError,
    SamplingExhaustedError,
    WeightSystem,
    sample_generic_weights,
    sampler_scale,
)
from parmirror.exactpoly import BivarPoly, IdentityCheckError
from parmirror.moduli import ModuliParams
from parmirror.tms import (
    SweepConfig,
    SweepFailure,
    TmsReport,
    dumps_canonical,
    failure_to_jsonable,
    load_weights_json,
    report_to_jsonable,
    sweep,
    sweep_to_csv_rows,
    sweep_to_jsonable,
    verify_identity,
)

SMALL = SweepConfig(
    ns=(2,), gs=(2,), ks=(1, 2), ds=(0, 1), seeds=(1, 2), scales=(Fraction(1),)
)


def test_verify_identity_smallest_instance():
    p = ModuliParams(2, 2, 1, 0)
    w = WeightSystem.from_rows([[Fraction(0), Fraction(1, 1000)]])
    r = verify_identity(p, w)
    assert r.equal
    assert r.lhs_bruteforce == r.lhs_closed == r.lhs_cyclotomic == r.rhs
    assert r.component_count == 3
    assert r.wall_count == 0
    assert set(r.timing_ms) == {
        "walls", "census", "bruteforce", "closed", "cyclotomic", "stringy",
    }


def test_verify_identity_rejects_wall_weights():
    p = ModuliParams(2, 2, 2, 0)
    on_wall = WeightSystem.from_rows([[0, Fraction(1, 4)], [0, Fraction(1, 4)]])
    with pytest.raises(NonGenericWeightsError):
        verify_identity(p, on_wall)


def test_report_jsonable_shape_and_schema():
    p = ModuliParams(2, 2, 1, 1)
    w = sample_generic_weights(p, seed=4)
    r = verify_identity(p, w)
    data = report_to_jsonable(r)
    assert "timing_ms" not in data
    jsonschema.validate(data, schemas.load("tms_report"))
    timed = report_to_jsonable(r, include_timings=True)
    assert set(timed["timing_ms"]) == set(r.timing_ms)
    jsonschema.validate(timed, schemas.load("tms_report"))
    assert data["lhs_closed"] == r.lhs_closed.to_triples()


def test_sweep_small_grid_all_equal():
    results = sweep(SMALL)
    assert len(results) == 8
    assert all(r.equal for r in results)
    payload = sweep_to_jsonable(results)
    assert payload["summary"] == {
        "instances": 8, "equal": 8, "failed": 0, "all_equal": True,
    }
    jsonschema.validate(payload, schemas.load("sweep"))


def test_sweep_records_failures_without_aborting():
    config = SweepConfig(
        ns=(2,), gs=(2,), ks=(1,), ds=(0,),
        seeds=(1,), scales=(Fraction(1, 10**6), Fraction(1)),
    )
    results = sweep(config)
    assert len(results) == 2
    assert isinstance(results[0], SweepFailure)
    assert "SamplingExhaustedError" in results[0].error
    assert isinstance(results[1], TmsReport) and results[1].equal
    payload = sweep_to_jsonable(results)
    assert payload["summary"] == {
        "instances": 2, "equal": 1, "failed": 1, "all_equal": False,
    }
    assert sweep_to_jsonable([])["summary"]["all_equal"] is False
    jsonschema.validate(payload, schemas.load("sweep"))
    failure = failure_to_jsonable(results[0])
    assert failure["params"] == {"n": 2, "g": 2, "k": 1, "d": 0}
    assert failure["scale"] == "1/1000000"


def test_sweep_reruns_match_bytes():
    first = dumps_canonical(sweep_to_jsonable(sweep(SMALL)))
    second = dumps_canonical(sweep_to_jsonable(sweep(SMALL)))
    assert first == second
    assert first.endswith("\n")


def test_default_config_grid():
    config = SweepConfig.default()
    specs = list(config.instances())
    assert len(specs) == 160
    assert specs[0] == (2, 2, 1, 0, 1, Fraction(1, 1000))


def test_config_from_file(tmp_path):
    path = tmp_path / "grid.ini"
    path.write_text(
        "[grid]\nn = 2 3\ng = 2\nk = 1\nd = 0 1\n"
        "[sampling]\nseeds = 1 2\nscales = 1/1000 1\n",
        encoding="utf-8",
    )
    config = SweepConfig.from_file(path)
    assert config.ns == (2, 3)
    assert config.scales == (Fraction(1, 1000), Fraction(1))
    assert len(list(config.instances())) == 16
    with pytest.raises(ValueError):
        SweepConfig.from_file(tmp_path / "missing.ini")


def test_sweep_csv_rows():
    results = sweep(SweepConfig(
        ns=(2,), gs=(2,), ks=(1,), ds=(0,), seeds=(1,), scales=(Fraction(1),)
    ))
    rows = list(sweep_to_csv_rows(results))
    assert rows[0] == ["n", "g", "k", "d", "equal", "component_count", "wall_count", "error"]
    assert rows[1][:5] == [2, 2, 1, 0, True]
    timed = list(sweep_to_csv_rows(results, include_timings=True))
    assert timed[0][-1] == "total_ms"


def test_dumps_canonical_is_sorted_and_stable():
    text = dumps_canonical({"b": 1, "a": [2, 3]})
    assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


JSON_TEXT = st.text() | st.text(alphabet='"\\/\x00\x08\x1f\x7f\n\t\u00e9\u2028\u20ac\U0001f600a ')
JSON_LEAVES = (
    st.none() | st.booleans() | JSON_TEXT
    | st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-2**64)
    | st.floats() | st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")])
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(JSON_TEXT, inner),
    max_leaves=40,
)


@given(JSON_VALUES)
def test_dumps_canonical_writes_the_bytes_of_json_dumps(obj):
    assert dumps_canonical(obj) == _json_dumps(obj)


def test_dumps_canonical_shared_and_empty_containers():
    shared = [1, ["x", 2.5], {}]
    cases = [
        {"a": shared, "b": {"c": shared, "d": [shared]}},  # one list at several depths
        {"a": shared, "b": shared, "c": [shared, shared]},  # twice at one depth
        [shared, (shared, shared), [[shared]]],
        [], {}, (), [[], {}, ()], {"": [], "e": {}},
        "", 0, -1, None, True, 1e300, -0.0, float("nan"), float("-inf"),
    ]
    for obj in cases:
        assert dumps_canonical(obj) == _json_dumps(obj)


def test_dumps_canonical_renders_a_shared_list_once(monkeypatch):
    render = tms._render
    calls = []

    def counted(obj, indent, seen):
        calls.append(obj)
        return render(obj, indent, seen)

    monkeypatch.setattr(tms, "_render", counted)
    shared = [[1, "a"], [2, "b"]]
    assert dumps_canonical({"a": shared, "b": shared}) == _json_dumps({"a": shared, "b": shared})
    # the dict, the list and its two rows, then the copy of the list
    assert len(calls) == 5


@pytest.mark.parametrize("obj", [Fraction(1, 2), {1, 2}, {"a": [Fraction(1)]}, {1: "key"}])
def test_dumps_canonical_rejects_what_reports_never_hold(obj):
    with pytest.raises(TypeError):
        dumps_canonical(obj)


SUBCOMMAND_RUNS = [
    ["tms", "--n", "3", "--g", "2", "--marked", "2", "--deg", "1", "--seed", "2", "--timings"],
    ["sweep", "--config", "{grid}"],
    ["sweep", "--config", "{grid}", "--timings"],
    ["variant", "--n", "3", "--g", "2", "--marked", "2", "--deg", "1", "--seed", "4"],
    ["stringy", "--n", "3", "--g", "2", "--marked", "2"],
    ["walls", "--n", "3", "--g", "2", "--marked", "2", "--deg", "1", "--seed", "2"],
    ["lemma", "--n", "5"],
    ["orbits", "--n", "3", "--g", "2", "--deg", "1"],
    ["section", "--n", "5", "--g", "2", "--marked", "2"],
]


@pytest.mark.parametrize("argv", SUBCOMMAND_RUNS, ids=" ".join)
def test_every_subcommand_payload_writes_the_bytes_of_json_dumps(monkeypatch, tmp_path, argv):
    grid = tmp_path / "grid.ini"
    grid.write_text("[grid]\nn = 2 3\ng = 2\nk = 1 2\nd = 0 1\n"
                    "[sampling]\nseeds = 1 2\nscales = 1/1000 1\n", encoding="utf-8")
    payloads = []

    def spy(obj):
        payloads.append(obj)
        return dumps_canonical(obj)

    monkeypatch.setattr(parmirror.cli, "dumps_canonical", spy)
    out = tmp_path / "report.json"
    argv = [arg.format(grid=grid) for arg in argv] + ["--out", str(out)]
    assert parmirror.cli.main(argv) == 0
    assert len(payloads) == 1
    assert out.read_text(encoding="utf-8") == _json_dumps(payloads[0])


def test_payloads_share_one_list_per_distinct_total():
    results = sweep(SMALL)
    totals = [getattr(r, name) for r in results
              for name in ("lhs_bruteforce", "lhs_closed", "lhs_cyclotomic", "rhs")]
    payload = sweep_to_jsonable(results)
    lists = [entry[name] for entry in payload["results"]
             for name in ("lhs_bruteforce", "lhs_closed", "lhs_cyclotomic", "rhs")]
    assert len({id(x) for x in lists}) == len(set(totals)) < len(totals)
    assert all(x == f.to_triples() for x, f in zip(lists, totals))
    report = report_to_jsonable(results[0])
    assert report["lhs_closed"] is report["rhs"] is report["lhs_bruteforce"]


def test_load_weights_json(tmp_path):
    w = sample_generic_weights(ModuliParams(2, 2, 2, 0), seed=9)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(w.to_jsonable()), encoding="utf-8")
    assert load_weights_json(path) == w


WEIGHT_FREE = ("variant_closed_form", "variant_total_cyclotomic", "stringy_gamma_sum")


@pytest.mark.parametrize(
    "family",
    [*product(*SweepConfig.default()[:3]), (5, 2, 2)],  # (ns, gs, ks) of the default grid
    ids=lambda family: "-".join(map(str, family)),
)
def test_weight_free_values_read_no_degree(family):
    """A sweep keeps the weight-free totals and the census total's box power
    once per (n, g, k), for every d: each is the same at d = 0, 1 and 2."""
    for fn in [*(getattr(tms, name) for name in WEIGHT_FREE), cstar_fixed._box_power]:
        values = [fn(ModuliParams(*family, d)) for d in (0, 1, 2)]
        assert values[0] == values[1] == values[2], fn.__name__


def test_sweep_computes_weight_free_totals_once_per_params(monkeypatch):
    calls = {name: 0 for name in WEIGHT_FREE}
    for name in WEIGHT_FREE:
        real = getattr(tms, name)

        def spy(p, _real=real, _name=name):
            calls[_name] += 1
            return _real(p)

        monkeypatch.setattr(tms, name, spy)
    config = SweepConfig.default()
    assert sweep_to_jsonable(sweep(config))["summary"]["all_equal"]
    assert calls == {name: 8 for name in WEIGHT_FREE}
    sweep(config)
    assert calls == {name: 16 for name in WEIGHT_FREE}


DEFAULT = SweepConfig.default()


@pytest.mark.parametrize("spec", [
    *product(DEFAULT.ns, DEFAULT.ks, DEFAULT.ds, DEFAULT.seeds, DEFAULT.scales),
    *((5, 2, 0, seed, Fraction(1)) for seed in (1, 2, 3)),
], ids=lambda spec: "-".join(map(str, spec)))
def test_sampler_reads_no_genus(spec):
    """The premise of the sweep's weights key (n, k, d, seed, scale): at
    every such point of the default grid, and at (5, ., 2, 0), the sampler
    returns the same weights for g = 2, 3 and 4."""
    n, k, d, seed, scale = spec
    drawn = []
    for g in (2, 3, 4):
        p = ModuliParams(n, g, k, d)
        drawn.append(sample_generic_weights(p, seed=seed, scale=sampler_scale(p, scale)))
    assert drawn[0] == drawn[1] == drawn[2]


def test_sweep_samples_each_weight_system_once(monkeypatch):
    """A sweep samples once per (n, k, d, seed, scale), 80 times on the
    default grid's 160 instances, and its instances that differ only in g
    share one weight system and one weights payload. A second sweep samples
    again: no weights outlive the call."""
    calls = []
    real = tms.sample_generic_weights

    def spy(p, seed, scale):
        calls.append((p, seed, scale))
        return real(p, seed, scale)

    monkeypatch.setattr(tms, "sample_generic_weights", spy)
    config = SweepConfig.default()
    results = sweep(config)
    assert len(calls) == 80
    payload = sweep_to_jsonable(results)
    assert payload["summary"]["all_equal"]
    by_key = {}
    for r, entry in zip(results, payload["results"]):
        p = r.params
        key = (p.n, p.k, p.d, id(r.weights))
        assert by_key.setdefault(key, entry["weights"]) is entry["weights"]
    assert len(by_key) == 80
    sweep(config)
    assert len(calls) == 160


def test_failing_sampler_fails_each_genus(monkeypatch):
    """A sampler that raises keeps nothing: every genus's instance of the
    broken (n, k, d) samples again and records the same error, and the
    other instances keep their bytes."""
    config = SweepConfig.default()
    before = sweep_to_jsonable(sweep(config))["results"]
    broken = (3, 2, 1)
    real = tms.sample_generic_weights
    calls = []

    def failing(p, seed, scale):
        if (p.n, p.k, p.d) == broken:
            calls.append(p)
            raise SamplingExhaustedError(f"injected failure for {broken}")
        return real(p, seed, scale)

    monkeypatch.setattr(tms, "sample_generic_weights", failing)
    results = sweep(config)
    after = sweep_to_jsonable(results)["results"]
    failed = [r for r in results if isinstance(r, SweepFailure)]
    assert len(failed) == len(calls) == 20
    assert {r.g for r in failed} == {2, 3}
    assert {r.error for r in failed} == {f"SamplingExhaustedError: injected failure for {broken}"}
    assert all((r.n, r.k, r.d) == broken for r in failed)
    for old, new, r in zip(before, after, results):
        if isinstance(r, TmsReport):
            assert r.equal and new == old


def test_walls_live_only_as_long_as_the_sweep_that_lists_them(monkeypatch):
    """A sweep lists the walls once per (n, g, k, d), 16 times on the
    default grid, though the walls read no g: a traced run matches each
    report's wall count to a listing at its own parameters. A second sweep
    lists them again, and verify_identity without a memo lists them on
    every call, so no wall list outlives the call that made it."""
    listed = []
    real = tms.enumerate_walls

    def spy(p):
        listed.append(p)
        return real(p)

    monkeypatch.setattr(tms, "enumerate_walls", spy)
    config = SweepConfig.default()
    for _ in range(2):
        listed.clear()
        assert sweep_to_jsonable(sweep(config))["summary"]["all_equal"]
        assert len(listed) == len(set(listed)) == 16
    listed.clear()
    p = ModuliParams(3, 2, 2, 1)
    w = sample_generic_weights(p, seed=1)
    assert verify_identity(p, w).wall_count == verify_identity(p, w).wall_count
    assert listed == [p, p]


def test_sweep_derives_each_lattice_key_once(monkeypatch):
    """Run alone, the default grid's 160 instances search 160 times, once
    per census (416 times when each undominated key had its own search),
    derive 1,112 keys (n, Q, residue), 108 of them distinct, and build the
    census total's box power 160 times for 16 parameter sets. One sweep
    derives each of the 108 keys once and builds each power once per
    (n, g, k), 8 times, as the power reads no d. It searches 30 times
    (52 when keys were searched one by one): once in each census that has
    a key no earlier census kept, at the largest budgets of the keys it
    lacks."""
    searches, derived, powers = [], [], []
    real_lattice, real_memoized, real_power = kernels._lattice, kernels.memoized, cstar_fixed._box_power

    def lattice(n, coef, Q):
        searches.append((n, tuple(Q)))
        return real_lattice(n, coef, Q)

    def memoized(memo, key, fn, *args):
        if key[0] == "lattice" and (memo is None or key not in memo):
            derived.append(key)
        return real_memoized(memo, key, fn, *args)

    def power(p):
        powers.append(p)
        return real_power(p)

    monkeypatch.setattr(kernels, "_lattice", lattice)
    monkeypatch.setattr(kernels, "memoized", memoized)
    monkeypatch.setattr(cstar_fixed, "_box_power", power)
    config = SweepConfig.default()
    for spec in config.instances():
        tms._run_instance(spec)
    keys = set(derived)
    assert (len(searches), len(powers), len(set(powers))) == (160, 160, 16)
    assert (len(derived), len(keys)) == (1_112, 108)
    searches.clear()
    derived.clear()
    powers.clear()
    assert sweep_to_jsonable(sweep(config))["summary"]["all_equal"]
    assert len(derived) == len(set(derived)) and set(derived) == keys
    assert len(searches) == 30
    assert len(powers) == len({p[:3] for p in powers}) == 8


def test_sweep_json_equals_per_instance_reports():
    config = SweepConfig.default()
    # without a memo dict, each instance computes everything itself
    direct = [tms._run_instance(spec) for spec in config.instances()]
    assert dumps_canonical(sweep_to_jsonable(sweep(config))) == (
        dumps_canonical(sweep_to_jsonable(direct))
    )


def test_sweep_json_hashes_each_total_object_once(monkeypatch):
    """The payload looks a total up by identity before it hashes it, so each
    distinct total object of a sweep is hashed once: the instances of one
    parameter set share their weight-free totals, and equal totals held in
    different objects still share one coefficient list."""
    results = sweep(SweepConfig.default())
    expected = dumps_canonical(sweep_to_jsonable(results))
    totals = {
        id(f) for r in results
        for f in (r.lhs_bruteforce, r.lhs_closed, r.lhs_cyclotomic, r.rhs)
    }
    hashed = []
    real = BivarPoly.__hash__

    def spy(self):
        hashed.append(id(self))
        return real(self)

    monkeypatch.setattr(BivarPoly, "__hash__", spy)
    payload = sweep_to_jsonable(results)
    assert sorted(hashed) == sorted(totals) and len(totals) < 4 * len(results)
    assert dumps_canonical(payload) == expected


def test_failing_weight_free_total_fails_each_instance(monkeypatch):
    _check_failure_is_not_kept(monkeypatch, tms, "variant_closed_form")


def test_failing_box_power_fails_each_instance(monkeypatch):
    _check_failure_is_not_kept(monkeypatch, cstar_fixed, "_box_power")


def _check_failure_is_not_kept(monkeypatch, module, name):
    """A memoized value that raises is not kept: every instance of its
    (n, g, k) family computes it again and fails alike, and the others keep
    their bytes. The value reads no d, so the fault is injected for the
    whole (3, 2, 2) family, both degrees."""
    config = SweepConfig.default()
    before = sweep_to_jsonable(sweep(config))["results"]
    broken = (3, 2, 2)
    real = getattr(module, name)
    calls = []

    def failing(p):
        if p[:3] == broken:
            calls.append(p)
            raise IdentityCheckError(f"injected failure for {broken}")
        return real(p)

    monkeypatch.setattr(module, name, failing)
    results = sweep(config)
    after = sweep_to_jsonable(results)["results"]
    failed = [r for r in results if isinstance(r, SweepFailure)]
    assert len(failed) == len(calls) == 20
    assert {r.error for r in failed} == {f"IdentityCheckError: injected failure for {broken}"}
    assert all((r.n, r.g, r.k) == broken for r in failed)
    for old, new, r in zip(before, after, results):
        if isinstance(r, TmsReport):
            assert r.equal and new == old
