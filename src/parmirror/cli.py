"""Command-line frontend.

Subcommands map one-to-one onto library entry points; every subcommand can
write a canonical JSON report whose shape is pinned by a schema shipped in
parmirror.schemas. Exit codes separate mathematical outcomes from plumbing:
0 means success (and, for identity checks, equality), 1 means the run
finished but an expected identity or check failed, 2 means the invocation
or configuration was unusable or the run ran out of memory, and 141
(128 + SIGPIPE) that stdout closed before the run printed. Rationals on
the command line are "num/den" strings, never read through a float.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import suppress
from fractions import Fraction
from itertools import permutations
from math import factorial

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


def _emit(args, payload: dict) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(dumps_canonical(payload))


def _rat(text: str) -> Fraction:
    return parse_rat(text)


def _coords(text: str) -> tuple[int, ...]:
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


def _add_params_flags(sub, with_deg=True):
    sub.add_argument("--n", type=int, required=True, help="rank (prime)")
    sub.add_argument("--g", type=int, required=True, help="genus (>= 2)")
    sub.add_argument("--marked", type=int, required=True, help="number of marked points (>= 1)")
    if with_deg:
        sub.add_argument("--deg", type=int, default=0, help="underlying bundle degree")


def _instance_flags(sub):
    """The flags of one instance: its parameters and its weights source."""
    _add_params_flags(sub)
    sub.add_argument("--weights", default=None, help="weights JSON file (conflicts with sampler flags)")
    sub.add_argument("--seed", type=int, default=None, help="sampler seed (default 1)")
    sub.add_argument("--scale", type=_rat, default=None,
                     help='sampler scale as "num/den" (default: 1 for n<=3, certified margin above)')


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


def _cmd_sweep(args) -> int:
    config = SweepConfig.default() if args.config is None else SweepConfig.from_file(args.config)
    results = sweep(config)
    payload = sweep_to_jsonable(results, include_timings=args.timings)
    _emit(args, payload)
    if args.csv:
        # imported here, as only sweep writes through the csv module
        import csv

        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            for row in sweep_to_csv_rows(results, include_timings=args.timings):
                writer.writerow(row)
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


def _tms_flags(sub):
    _instance_flags(sub)
    sub.add_argument("--timings", action="store_true", help="include timings in the report")


def _sweep_flags(sub):
    sub.add_argument("--config", default=None, help="INI grid file (default: built-in grid)")
    sub.add_argument("--csv", default=None, help="write summary CSV here")
    sub.add_argument("--timings", action="store_true", help="include timings in outputs")


def _variant_flags(sub):
    _instance_flags(sub)
    sub.add_argument("--csv", default=None, help="write the component census CSV here")


def _lemma_flags(sub):
    sub.add_argument("--n", type=int, required=True, help="word length (1..10)")


def _orbits_flags(sub):
    sub.add_argument("--n", type=int, required=True, help="rank (prime)")
    sub.add_argument("--g", type=int, required=True, help="genus (>= 2)")
    sub.add_argument("--deg", type=int, default=0, help="degree driving the Galois shift")
    sub.add_argument("--gamma", type=_coords, default=None,
                     help="comma-separated 2g coordinates (default: first basis vector)")
    sub.add_argument("--l-gamma", dest="l_gamma", type=int, default=1,
                     help="pairing value against the distinguished partner")


def _section_flags(sub):
    _add_params_flags(sub, with_deg=False)


# name -> (help line, handler, function that adds the subcommand's own flags);
# _fill adds --out and the handler to each
SUBCOMMANDS = {
    "tms": ("verify the four-way identity for one instance", _cmd_tms, _tms_flags),
    "sweep": ("run the identity over a parameter grid", _cmd_sweep, _sweep_flags),
    "variant": ("variant totals only (census, closed, filtered)", _cmd_variant, _variant_flags),
    "stringy": ("quotient-side invariants and total", _cmd_stringy, _add_params_flags),
    "walls": ("enumerate walls; optionally test weight genericity", _cmd_walls, _instance_flags),
    "lemma": ("shift-residue census and insertion check", _cmd_lemma, _lemma_flags),
    "orbits": ("torsion-point action on norm-fibre components", _cmd_orbits, _orbits_flags),
    "section": ("degree bookkeeping for the distinguished section", _cmd_section, _section_flags),
}


def _fill(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Add one subcommand's flags, --out and handler to its parser."""
    _, handler, add_flags = SUBCOMMANDS[name]
    add_flags(parser)
    parser.add_argument("--out", default=None, help="write canonical JSON report here")
    parser.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser, needed only for help and a missing or unknown subcommand."""
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
    return _fill(argparse.ArgumentParser(prog=f"parmirror {name}"), name)


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
        args = subcommand_parser(argv[0]).parse_args(argv[1:])
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
