"""Traced run of one CLI invocation, in its own interpreter.

Imports parmirror, instruments it (see tracing.py), calls
``parmirror.cli.main(argv)`` in-process, then re-runs every census call the
program made on each importable kernel backend and requires identical rows.
Spans, counters and parity timings are written once, as JSON, at the end.

    python3 perfbench/traced_child.py --trace-out T.json --run-id ID -- tms --n 2 ...
"""

from __future__ import annotations

import argparse
import json
import sys

import tracing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    import parmirror.cli
    from parmirror import kernels

    rec = tracing.Recorder(args.run_id)
    probe = tracing.Probe(rec)
    try:
        rc = rec.call(tracing.ROOT_SPAN, parmirror.cli.main, cli_argv)
    finally:
        probe.restore()
    doc = {
        "run_id": args.run_id,
        "argv": cli_argv,
        "exit_code": rc,
        "spans": rec.spans,
        "counts": dict(rec.counts),
        "walls_by_params": {",".join(map(str, key)): v for key, v in probe.walls_by_params.items()},
        "components": probe.component_stats(),
        "parity_s": probe.backend_parity(kernels),
        "backend": kernels.active_backend(),
    }
    with open(args.trace_out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
