"""Command-line frontend.

Subcommands map one-to-one onto library entry points; every subcommand can
write a canonical JSON report whose shape is pinned by a schema shipped in
parmirror.schemas. Exit codes separate mathematical outcomes from plumbing:
0 means success (and, for identity checks, equality), 1 means the run
finished but an expected identity or check failed, 2 means the invocation
or configuration was unusable or the run ran out of memory, and 141
(128 + SIGPIPE) that stdout closed before the run printed. Rationals on
the command line are "num/den" strings, never read through a float.

Each subcommand's flags are one table (SUBCOMMANDS). A command line that
names its subcommand is parsed from that table alone (parse_named);
argparse is imported, and its parsers built from the same tables, only
for help and for a command line the table declines, so argparse prints
every help text and decides every usage error.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from contextlib import suppress
from fractions import Fraction
from itertools import permutations
from math import factorial
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from .chambers import (
    WeightSystem,
    enumerate_walls,
    is_generic,
    sample_generic_weights,
    sampler_scale,
)
from .cstar_fixed import (
    components_to_csv,
    count_S,
    enumerate_components,
    insertion_bijection_check,
    variant_closed_form,
    variant_total_bruteforce,
    variant_total_cyclotomic,
)
from .exactpoly import IdentityCheckError, parse_rat
from .moduli import ModuliParams, hitchin_section_check
from .pgl_fixed import (
    fermionic_shift,
    fixed_locus_dim,
    invariant_epoly,
    prym_epoly,
    sn_quotient_count,
    stringy_gamma_sum,
)
from .tms import (
    SweepConfig,
    dumps_canonical,
    load_weights_json,
    params_to_jsonable,
    report_to_jsonable,
    sweep,
    sweep_to_csv_rows,
    sweep_to_jsonable,
    verify_identity,
)
from .torsion import (
    NormFiberModel,
    SymplecticForm,
    TorsionVector,
    check_component_action,
    galois_orbit_size,
    invariant_fiber_count,
    kernel_component_count,
)

if TYPE_CHECKING:
    import argparse


def _emit(args, payload: dict) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(dumps_canonical(payload))


def rational(text: str) -> Fraction:
    """A "num/den" flag value; argparse names this function in its usage
    errors ("invalid rational value")."""
    return parse_rat(text)


def coordinates(text: str) -> tuple[int, ...]:
    """A comma-separated integer flag value ("invalid coordinates value")."""
    return tuple(int(tok) for tok in text.split(","))


def _params(args) -> ModuliParams:
    return ModuliParams(n=args.n, g=args.g, k=args.marked, d=args.deg)


def _resolve_weights(args, p: ModuliParams) -> WeightSystem:
    """Exactly one weights source: an explicit file, or the seeded sampler."""
    if args.weights is not None:
        if args.seed is not None or args.scale is not None:
            raise ValueError("--weights conflicts with --seed/--scale; pick one source")
        return load_weights_json(args.weights)
    seed = 1 if args.seed is None else args.seed
    scale = sampler_scale(p) if args.scale is None else args.scale
    return sample_generic_weights(p, seed=seed, scale=scale)


def _cmd_tms(args) -> int:
    p = _params(args)
    w = _resolve_weights(args, p)
    report = verify_identity(p, w)
    _emit(args, report_to_jsonable(report, include_timings=args.timings))
    print(f"n={p.n} g={p.g} k={p.k} d={p.d}: "
          f"components={report.component_count} walls={report.wall_count} "
          f"equal={str(report.equal).lower()}")
    if report.equal:
        print(f"common value: {report.lhs_closed}")
        return 0
    print("identity FAILED: the four totals disagree", file=sys.stderr)
    return 1


def _csv_field(value) -> str:
    """value as csv.writer writes it with its default dialect: str() of it,
    quoted, with each quote doubled, when it holds a comma, a quote or a
    line break."""
    text = str(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cmd_sweep(args) -> int:
    config = SweepConfig.default() if args.config is None else SweepConfig.from_file(args.config)
    results = sweep(config)
    payload = sweep_to_jsonable(results, include_timings=args.timings)
    _emit(args, payload)
    if args.csv:
        rows = sweep_to_csv_rows(results, include_timings=args.timings)
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join([",".join(map(_csv_field, row)) + "\r\n" for row in rows]))
    summary = payload["summary"]
    print(f"instances={summary['instances']} equal={summary['equal']} "
          f"failed={summary['failed']} all_equal={str(summary['all_equal']).lower()}")
    return 0 if summary["all_equal"] else 1


def _cmd_variant(args) -> int:
    p = _params(args)
    w = _resolve_weights(args, p)
    census = enumerate_components(p, w)
    brute = variant_total_bruteforce(p, census)
    closed = variant_closed_form(p)
    cyclotomic = variant_total_cyclotomic(p)
    equal = brute == closed == cyclotomic
    _emit(args, {
        "params": params_to_jsonable(p),
        "weights": w.to_jsonable(),
        "component_count": len(census),
        "bruteforce": brute.to_triples(),
        "closed": closed.to_triples(),
        "cyclotomic": cyclotomic.to_triples(),
        "equal": equal,
    })
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            components_to_csv(p, census, fh)
    print(f"components={len(census)} equal={str(equal).lower()}")
    print(f"closed form: {closed}")
    return 0 if equal else 1


def _cmd_stringy(args) -> int:
    p = _params(args)
    dim = fixed_locus_dim(p.n, p.g)
    shift = fermionic_shift(p)
    orbits = sn_quotient_count(p.n, p.k)
    total = stringy_gamma_sum(p)
    _emit(args, {
        "params": params_to_jsonable(p),
        "fixed_locus_dim": dim,
        "fermionic_shift": shift,
        "orbit_count": orbits,
        "prym_epoly": prym_epoly(p.n, p.g).to_triples(),
        "invariant_epoly": invariant_epoly(p).to_triples(),
        "stringy_sum": total.to_triples(),
    })
    print(f"fixed locus dim={dim} shift={shift} orbits={orbits}")
    print(f"stringy sum: {total}")
    return 0


def _cmd_walls(args) -> int:
    p = _params(args)
    walls = enumerate_walls(p)
    payload = {"params": params_to_jsonable(p), "count": len(walls)}
    if args.out:  # the wall list is read only by the report
        payload["walls"] = [wall.to_jsonable() for wall in walls]
    line = f"n={p.n} g={p.g} k={p.k} d={p.d}: {len(walls)} wall(s)"
    if args.weights is not None or args.seed is not None or args.scale is not None:
        w = _resolve_weights(args, p)
        generic = args.weights is None or is_generic(w, p)  # sampled ones passed it
        payload["weights"] = w.to_jsonable()
        payload["generic"] = generic
        line += f", weights generic={str(generic).lower()}"
    _emit(args, payload)
    print(line)
    return 0


def _cmd_lemma(args) -> int:
    n = args.n
    if not 1 <= n <= 10:
        raise ValueError(f"lemma supports 1 <= n <= 10, got {n}")
    counts = [count_S(n, residue) for residue in range(n)]
    expected = factorial(n - 1)
    uniform = all(c == expected for c in counts)
    # the words of S_(n-1) are streamed, never held at once
    checked = factorial(n - 1) if n > 1 else 0
    prevs = permutations(range(1, n)) if n > 1 else ()
    ok = all(insertion_bijection_check(word) for word in prevs)
    _emit(args, {
        "n": n,
        "residue_counts": counts,
        "expected": expected,
        "uniform": uniform,
        "insertions_checked": checked,
        "insertions_ok": ok,
    })
    print(counts[0])
    print(f"residue counts uniform={str(uniform).lower()} "
          f"insertions checked={checked} ok={str(ok).lower()}")
    return 0 if uniform and ok else 1


def _cmd_orbits(args) -> int:
    form = SymplecticForm.standard(args.n, args.g)
    coords = (1,) + (0,) * (2 * args.g - 1) if args.gamma is None else args.gamma
    gamma = TorsionVector(n=args.n, coords=coords)
    model = NormFiberModel(n=args.n, d=args.deg, gamma=gamma, l_gamma=args.l_gamma)
    action_ok = check_component_action(model, form)
    payload = {
        "n": args.n,
        "g": args.g,
        "d": args.deg,
        "gamma": list(gamma.coords),
        "l_gamma": args.l_gamma,
        "orbit_size": galois_orbit_size(args.n, args.deg),
        "invariant_count": invariant_fiber_count(args.n, args.g, args.deg),
        "kernel_components": kernel_component_count(args.n),
        "action_ok": action_ok,
    }
    _emit(args, payload)
    print(f"orbit size={payload['orbit_size']} invariant fibres={payload['invariant_count']} "
          f"kernel components={payload['kernel_components']} action_ok={str(action_ok).lower()}")
    return 0 if action_ok else 1


def _cmd_section(args) -> int:
    p = ModuliParams(n=args.n, g=args.g, k=args.marked, d=0)
    check = hitchin_section_check(p)
    reversed_control = hitchin_section_check(p, reverse_flags=True)
    _emit(args, {
        "n": p.n,
        "g": p.g,
        "k": p.k,
        "check": check,
        "reversed_control": reversed_control,
    })
    print(f"section check={str(check).lower()} reversed control={str(reversed_control).lower()}")
    return 0 if check and not reversed_control else 1


class Flag(NamedTuple):
    """One flag of a subcommand: argparse's add_argument(flag, dest=dest,
    default=default, help=help) with type and required, or with
    action="store_true" for a switch, whose default is False. No default
    is a string, which argparse would pass through type."""

    flag: str
    dest: str
    type: object = None
    default: object = None
    required: bool = False
    switch: bool = False
    help: str = ""


_RANK = Flag("--n", "n", int, required=True, help="rank (prime)")
_GENUS = Flag("--g", "g", int, required=True, help="genus (>= 2)")
_MARKED = Flag("--marked", "marked", int, required=True, help="number of marked points (>= 1)")
_PARAMS = (_RANK, _GENUS, _MARKED, Flag("--deg", "deg", int, 0, help="underlying bundle degree"))
_INSTANCE = (
    *_PARAMS,
    Flag("--weights", "weights", help="weights JSON file (conflicts with sampler flags)"),
    Flag("--seed", "seed", int, help="sampler seed (default 1)"),
    Flag("--scale", "scale", rational,
         help='sampler scale as "num/den" (default: 1 for n<=3, certified margin above)'),
)
_OUT = Flag("--out", "out", help="write canonical JSON report here")

# name -> (help line, handler, the subcommand's flags in help order, --out last)
SUBCOMMANDS = {
    "tms": ("verify the four-way identity for one instance", _cmd_tms, (
        *_INSTANCE, Flag("--timings", "timings", default=False, switch=True,
                    help="include timings in the report"),
        _OUT)),
    "sweep": ("run the identity over a parameter grid", _cmd_sweep, (
        Flag("--config", "config", help="INI grid file (default: built-in grid)"),
        Flag("--csv", "csv", help="write summary CSV here"),
        Flag("--timings", "timings", default=False, switch=True, help="include timings in outputs"),
        _OUT)),
    "variant": ("variant totals only (census, closed, filtered)", _cmd_variant, (
        *_INSTANCE, Flag("--csv", "csv", help="write the component census CSV here"), _OUT)),
    "stringy": ("quotient-side invariants and total", _cmd_stringy, (*_PARAMS, _OUT)),
    "walls": ("enumerate walls; optionally test weight genericity", _cmd_walls, (*_INSTANCE, _OUT)),
    "lemma": ("shift-residue census and insertion check", _cmd_lemma, (
        Flag("--n", "n", int, required=True, help="word length (1..10)"), _OUT)),
    "orbits": ("torsion-point action on norm-fibre components", _cmd_orbits, (
        _RANK, _GENUS, Flag("--deg", "deg", int, 0, help="degree driving the Galois shift"),
        Flag("--gamma", "gamma", coordinates,
             help="comma-separated 2g coordinates (default: first basis vector)"),
        Flag("--l-gamma", "l_gamma", int, 1, help="pairing value against the distinguished partner"),
        _OUT)),
    "section": ("degree bookkeeping for the distinguished section", _cmd_section, (
        _RANK, _GENUS, _MARKED, _OUT)),
}


def _fill(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Add one subcommand's flags, from its table, and handler to its parser."""
    _, handler, flags = SUBCOMMANDS[name]
    for f in flags:
        kind = {"action": "store_true"} if f.switch else {"type": f.type, "required": f.required}
        parser.add_argument(f.flag, dest=f.dest, default=f.default, help=f.help, **kind)
    parser.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser, needed only for help and a missing or unknown subcommand."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="parmirror",
        description="Exact mirror-identity checks for parabolic Higgs moduli.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_line, _, _) in SUBCOMMANDS.items():
        _fill(subs.add_parser(name, help=help_line), name)
    return parser


def subcommand_parser(name: str) -> argparse.ArgumentParser:
    """One subcommand's parser alone; it parses as the full parser's subparser does."""
    import argparse

    return _fill(argparse.ArgumentParser(prog=f"parmirror {name}"), name)


# argparse's own pattern for a token that reads as a negative number; re
# compiles it on first use, as only a value that starts with "-" needs it
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


def parse_named(name: str, argv: list[str]):
    """The arguments of subcommand name, parsed from its table with no
    argparse parser, or None where argparse must decide.

    Only flags named in full are read: a switch bare, any other flag as
    --flag=value or as --flag and the next token, with a value that does
    not start with "-" or that argparse reads as a negative number. No
    table has a flag that looks like one, so argparse takes such a token
    as a value. A repeated flag keeps its last value, and every value goes
    through its type. Anything else declines: -h or --help, an unknown or
    abbreviated flag, a missing value or another one that starts with "-"
    ("--" is a marker, "-1/2" an unknown flag), a type that raises, a
    missing required flag, --switch=value, a positional token or "--". On
    what it accepts, the namespace holds what
    subcommand_parser(name).parse_args(argv) returns.
    """
    _, handler, flags = SUBCOMMANDS[name]
    by_flag = {f.flag: f for f in flags}
    values = {f.dest: f.default for f in flags}
    given = set()
    tokens = iter(argv)
    for token in tokens:
        flag, eq, text = token.partition("=")
        f = by_flag.get(flag)
        if f is None or f.switch and eq:
            return None
        given.add(f.flag)
        if f.switch:
            values[f.dest] = True
            continue
        if not eq:
            text = next(tokens, None)
        if text is None or text.startswith("-") and not re.match(_NEGATIVE_NUMBER, text):
            return None
        try:
            values[f.dest] = text if f.type is None else f.type(text)
        except (TypeError, ValueError):
            return None
    if any(f.required and f.flag not in given for f in flags):
        return None
    return SimpleNamespace(**values, func=handler)


def main(argv=None) -> int:
    if argv is None:
        # The program's own run: its imports are done, and what they made
        # lives until exit, so no collection (the one at exit included)
        # needs to walk it. In-process callers keep their collector as it is.
        gc.freeze()
        argv = sys.argv[1:]
    else:
        argv = list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        args = parse_named(argv[0], argv[1:]) or subcommand_parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        print(end="", flush=True)  # a closed pipe raises here, buffered or not; None is skipped
        return code
    except IdentityCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        with suppress(OSError):  # an fd on devnull keeps the final flush quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
