"""Census kernel entry point.

One kernel, `_census_py`, enumerates the census; it returns a `Census`
that keeps the rows grouped by word tuple (see `_census_py`). The backend
table and the `backend=` keyword name that kernel, so callers that select
or re-run a backend by name keep one interface.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations

from . import _census_py
from ._census_py import Census


def active_backend() -> str:
    return "python"


def backends() -> dict:
    """Importable kernels keyed by name (for tests and benchmarks)."""
    return {"python": _census_py}


@cache
def words_lex(n: int) -> tuple[tuple[int, ...], ...]:
    """All of S_n as letter tuples, lexicographically ordered; built once
    per n."""
    return tuple(permutations(range(1, n + 1)))


def enumerate_census(n, g, k, d, wnum, wden, t0_lo=0, t0_hi=None, backend=None) -> Census:
    """The census of (n, g, k, d) at weight numerators wnum over wden.

    backend: None or "python"; any other name raises ValueError. t0_lo/t0_hi
    restrict the first word index to [t0_lo, t0_hi); no program path splits
    a census, but they stay because perfbench's traced parity check replays
    recorded census calls with all eight positional arguments.
    """
    table = backends()
    if backend is not None and backend not in table:
        raise ValueError(f"unknown backend {backend!r}; have {sorted(table)}")
    impl = table[backend or active_backend()]
    return impl.enumerate_census(n, g, k, d, words_lex(n), wnum, wden, t0_lo, t0_hi)
