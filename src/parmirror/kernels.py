"""Census kernel selection and dispatch.

The compiled extension is picked at import time when present; the pure
Python kernel is both the fallback and the big-integer escape hatch. Both
kernels produce identical row lists in identical order, and the dispatcher
routes to the pure-Python one whenever the int64 headroom bound fails.
"""

from __future__ import annotations

from itertools import permutations

from . import _census_py

try:
    from . import _census_cy
except ImportError:
    _census_cy = None

HAVE_COMPILED = _census_cy is not None


def active_backend() -> str:
    return "compiled" if HAVE_COMPILED else "python"


def backends() -> dict:
    """Importable kernels keyed by name (for tests and benchmarks)."""
    out = {"python": _census_py}
    if HAVE_COMPILED:
        out["compiled"] = _census_cy
    return out


def words_lex(n: int) -> tuple[tuple[int, ...], ...]:
    """All of S_n as letter tuples, lexicographically ordered."""
    return tuple(permutations(range(1, n + 1)))


def int64_safe(n: int, g: int, k: int, d: int, wden: int) -> bool:
    """Coarse headroom bound: every intermediate in the compiled kernel is
    below wden * n^3 * (n^3 + 4k + 4g) plus degree bookkeeping, padded by a
    factor of 16 here; sampled weights (denominator 10^6) pass easily."""
    bound = 16 * wden * n**3 * (n**3 + 4 * k + 4 * g + 8) + 16 * abs(d) * n**3
    return bound < 2**62


def enumerate_census(n, g, k, d, wnum, wden, t0_lo=0, t0_hi=None, backend=None):
    """Dispatch to the requested or best available kernel.

    backend: None for automatic choice, or "python"/"compiled" to force one
    (forcing "compiled" raises if the extension is missing). t0_lo/t0_hi
    restrict the first word index to [t0_lo, t0_hi); no program path splits
    a census, but they stay because perfbench's traced parity check replays
    recorded census calls with all eight positional arguments.
    """
    words = words_lex(n)
    if backend is None:
        impl = _census_cy if (HAVE_COMPILED and int64_safe(n, g, k, d, wden)) else _census_py
    else:
        table = backends()
        if backend not in table:
            raise ValueError(f"unknown backend {backend!r}; have {sorted(table)}")
        impl = table[backend]
    return impl.enumerate_census(n, g, k, d, words, wnum, wden, t0_lo, t0_hi)
