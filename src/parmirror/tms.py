"""End-to-end mirror identity checks, sweeps, and canonical serialization.

One instance fixes moduli parameters and a generic weight system; the check
computes the variant total three ways (census sum, closed form, filtered
sum) and the stringy total on the quotient side, then compares all four for
exact equality. Sweeps fan this out over parameter grids with sampled
weights. Serialized output is canonical and byte-stable: keys are sorted,
coefficients ride as decimal strings, and timings are kept out of the
serialized form unless explicitly requested.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from itertools import product
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .chambers import (
    WeightSystem,
    enumerate_walls,
    sample_generic_weights,
    sampler_scale,
)
from .cstar_fixed import (
    enumerate_components,
    variant_closed_form,
    variant_total_bruteforce,
    variant_total_cyclotomic,
)
from .exactpoly import BivarPoly, format_rat, parse_rat
from .kernels import memoized
from .moduli import ModuliParams
from .pgl_fixed import stringy_gamma_sum


class TmsReport(NamedTuple):
    """Result of one identity check. timing_ms is informational only and is
    excluded from canonical serialization."""

    params: ModuliParams
    weights: WeightSystem
    lhs_bruteforce: BivarPoly
    lhs_closed: BivarPoly
    lhs_cyclotomic: BivarPoly
    rhs: BivarPoly
    equal: bool
    component_count: int
    wall_count: int
    timing_ms: dict


class SweepFailure(NamedTuple):
    """One sweep instance that raised instead of reporting."""

    n: int
    g: int
    k: int
    d: int
    seed: int
    scale: Fraction
    error: str


def verify_identity(p: ModuliParams, w: WeightSystem, *, memo=None) -> TmsReport:
    """Run all four totals for one parameter set and weight system.

    memo, when a dict, keeps for later calls what reads no weights: the
    closed form, the filtered sum, the stringy total and the census total's
    box power, which read no d either, under (label, n, g, k), and each
    key's lattice under ("lattice", n, Q, residue). A kept total is timed
    as the lookup, and what raises is not kept. The walls, the genericity
    check, the census and its flat-box check run on every call.
    """
    timing: dict[str, float] = {}

    def clock(label, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        timing[label] = (time.perf_counter() - start) * 1000.0
        return out

    walls = clock("walls", enumerate_walls, p)
    census = clock("census", enumerate_components, p, w, memo)
    lhs_bruteforce = clock("bruteforce", variant_total_bruteforce, p, census, memo)
    family = (p.n, p.g, p.k)
    lhs_closed = clock("closed", memoized, memo, ("closed", *family), variant_closed_form, p)
    lhs_cyclotomic = clock("cyclotomic", memoized, memo, ("cyclotomic", *family),
                           variant_total_cyclotomic, p)
    rhs = clock("stringy", memoized, memo, ("stringy", *family), stringy_gamma_sum, p)
    equal = lhs_bruteforce == lhs_closed == lhs_cyclotomic == rhs
    return TmsReport(
        params=p,
        weights=w,
        lhs_bruteforce=lhs_bruteforce,
        lhs_closed=lhs_closed,
        lhs_cyclotomic=lhs_cyclotomic,
        rhs=rhs,
        equal=equal,
        component_count=len(census),
        wall_count=len(walls),
        timing_ms=timing,
    )


class SweepConfig(NamedTuple):
    """Grid of parameters, seeds, and sampling scales for a sweep."""

    ns: tuple[int, ...]
    gs: tuple[int, ...]
    ks: tuple[int, ...]
    ds: tuple[int, ...]
    seeds: tuple[int, ...]
    scales: tuple[Fraction, ...]

    @classmethod
    def default(cls) -> SweepConfig:
        return cls(
            ns=(2, 3),
            gs=(2, 3),
            ks=(1, 2),
            ds=(0, 1),
            seeds=(1, 2, 3, 4, 5),
            scales=(Fraction(1, 1000), Fraction(1)),
        )

    @classmethod
    def from_file(cls, path) -> SweepConfig:
        """Read an INI grid. A missing file, section or key, an unparsable
        file, or an empty axis raises ValueError."""
        # imported here, as only a sweep with a config file reads one
        from configparser import ConfigParser, Error as ConfigError

        parser = ConfigParser()
        try:
            read = parser.read(path)
        except ConfigError as exc:
            raise ValueError(f"cannot parse sweep config {path}: {exc}") from None
        if not read:
            raise ValueError(f"cannot read sweep config {path}")

        def axis(section, key, parse=int):
            if not parser.has_section(section):
                raise ValueError(f"sweep config {path} has no [{section}] section")
            if not parser.has_option(section, key):
                raise ValueError(f"sweep config {path} has no key {key!r} in [{section}]")
            values = tuple(parse(tok) for tok in parser.get(section, key).split())
            if not values:
                raise ValueError(f"sweep config {path}: [{section}] {key} is empty")
            return values

        return cls(
            ns=axis("grid", "n"),
            gs=axis("grid", "g"),
            ks=axis("grid", "k"),
            ds=axis("grid", "d"),
            seeds=axis("sampling", "seeds"),
            scales=axis("sampling", "scales", parse_rat),
        )

    def instances(self):
        return product(self.ns, self.gs, self.ks, self.ds, self.seeds, self.scales)


def _run_instance(spec, memo=None):
    n, g, k, d, seed, scale = spec
    try:
        p = ModuliParams(n=n, g=g, k=k, d=d)
        w = sample_generic_weights(p, seed=seed, scale=sampler_scale(p, scale))
        return verify_identity(p, w, memo=memo)
    except Exception as exc:
        return SweepFailure(n=n, g=g, k=k, d=d, seed=seed, scale=Fraction(scale),
                           error=f"{type(exc).__name__}: {exc}")


def sweep(config: SweepConfig):
    """Run every instance of the grid, in grid order; failures are recorded,
    not raised. One memo dict lives for the length of the call, so what
    depends on no weights is computed once and shared by every instance:
    the weight-free totals and the box power once per (n, g, k), as they
    read no d, and each key's lattice once per (n, Q, residue)."""
    memo: dict = {}
    return [_run_instance(spec, memo) for spec in config.instances()]


def params_to_jsonable(p: ModuliParams | SweepFailure) -> dict:
    return {"n": p.n, "g": p.g, "k": p.k, "d": p.d}


def report_to_jsonable(r: TmsReport, include_timings: bool = False) -> dict:
    return _report_jsonable(r, include_timings, {})


def _report_jsonable(r: TmsReport, include_timings: bool, triples: dict) -> dict:
    """The report's payload; triples maps each polynomial of the payload to
    one coefficient list, so dumps_canonical renders equal totals once. A
    total is looked up by its id first, which triples maps to the total and
    its list, and is hashed once, the first time that object is met: a
    sweep's instances share the totals of their parameter set."""
    def coeffs(f: BivarPoly) -> list:
        kept = triples.get(id(f))
        if kept is None:
            listed = triples.setdefault(f, [])
            if not listed:  # a new total, or zero, whose list stays empty
                listed += f.to_triples()
            kept = triples[id(f)] = (f, listed)
        return kept[1]

    out = {
        "params": params_to_jsonable(r.params),
        "weights": r.weights.to_jsonable(),
        "lhs_bruteforce": coeffs(r.lhs_bruteforce),
        "lhs_closed": coeffs(r.lhs_closed),
        "lhs_cyclotomic": coeffs(r.lhs_cyclotomic),
        "rhs": coeffs(r.rhs),
        "equal": r.equal,
        "component_count": r.component_count,
        "wall_count": r.wall_count,
    }
    if include_timings:
        out["timing_ms"] = dict(r.timing_ms)
    return out


def failure_to_jsonable(f: SweepFailure) -> dict:
    return {
        "params": params_to_jsonable(f),
        "seed": f.seed,
        "scale": format_rat(f.scale),
        "error": f.error,
    }


def sweep_to_jsonable(results, include_timings: bool = False) -> dict:
    entries = []
    triples: dict = {}
    equal = failed = 0
    for r in results:
        if isinstance(r, TmsReport):
            entries.append(_report_jsonable(r, include_timings, triples))
            equal += r.equal
        else:
            entries.append(failure_to_jsonable(r))
            failed += 1
    return {
        "results": entries,
        "summary": {
            "instances": len(entries),
            "equal": equal,
            "failed": failed,
            "all_equal": 0 < equal == len(entries),
        },
    }


def dumps_canonical(obj) -> str:
    """Canonical JSON: json.dumps(obj, indent=2, sort_keys=True) and a newline,
    written without json's pure-Python encoder. A list of containers met
    again at the same depth is copied from its first rendering."""
    return _render(obj, "\n", {}) + "\n"


# exact types written without a call to _render (not bool, a subclass of int)
_LEAVES = {str: encode_basestring_ascii, int: int.__repr__}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _render(obj, indent: str, seen: dict) -> str:
    """obj as json.dumps(indent=2, sort_keys=True) writes it; indent is the
    newline and spaces before obj's closing bracket, and seen maps
    (id, indent) of each list of containers rendered so far to its text."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        # a row of numbers and strings is cheaper to write than to look up
        if all(type(x) in _LEAVES for x in obj):
            items = [_LEAVES[type(x)](x) for x in obj]
            return "[" + inner + ("," + inner).join(items) + indent + "]"
        key = (id(obj), indent)
        if key not in seen:
            items = [_render(x, inner, seen) for x in obj]
            seen[key] = "[" + inner + ("," + inner).join(items) + indent + "]"
        return seen[key]
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = []
        for k, v in sorted(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            items.append(encode_basestring_ascii(k) + ": " + _render(v, inner, seen))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NONFINITE.get(text, text)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def sweep_to_csv_rows(results, include_timings: bool = False):
    """Summary rows (header first): params, seed-free outcome columns."""
    header = ["n", "g", "k", "d", "equal", "component_count", "wall_count", "error"]
    if include_timings:
        header = header + ["total_ms"]
    yield header
    for r in results:
        if isinstance(r, TmsReport):
            row = [
                r.params.n, r.params.g, r.params.k, r.params.d,
                r.equal, r.component_count, r.wall_count, "",
            ]
            if include_timings:
                row.append(round(sum(r.timing_ms.values()), 3))
        else:
            row = [r.n, r.g, r.k, r.d, "", "", "", r.error]
            if include_timings:
                row.append("")
        yield row


def load_weights_json(path) -> WeightSystem:
    """Read a weights file; JSON numbers are read from their text, not
    through float. A file that is not valid weights raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return WeightSystem.from_jsonable(json.load(fh, parse_float=Fraction))
        except ValueError as exc:
            raise ValueError(f"weights file {path}: {exc}") from None


__all__ = [
    "TmsReport",
    "SweepFailure",
    "SweepConfig",
    "verify_identity",
    "sweep",
    "report_to_jsonable",
    "sweep_to_jsonable",
    "dumps_canonical",
    "sweep_to_csv_rows",
    "load_weights_json",
    "params_to_jsonable",
    "failure_to_jsonable",
]
