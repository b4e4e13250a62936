"""Independent items of one call, run on the CPUs of the affinity mask.

``run(fn, n)`` calls ``fn(i)`` for every i in range(n).  The caller
takes items too and starts ``min(cpus, n) - 1`` threads for that call
alone, joined before it returns, where cpus is the size of the process's
affinity mask (restrict it with ``taskset``).  Items are taken in index
order, one at a time, so a busy CPU delays at most one item.  Each
thread runs in a copy of the caller's context, so ``np.errstate``
applies alike, and under the caller's ``scipy.special`` error state when
scipy is already loaded (nothing here imports it).  A ``run`` inside an
item runs inline, so one call never starts a second set of threads.
With one CPU, one item or inside an item, ``run`` is the plain loop.

Items must write disjoint outputs; then the result does not depend on
which thread ran which item, nor on the CPU count.  When items fail, the
one with the lowest index raises, as in the plain loop: no item is taken
after a failure, and every item below a failed one was taken before it.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import sys
from concurrent.futures import ThreadPoolExecutor

# True inside an item of a run, in the caller and in its threads.
_INSIDE = contextvars.ContextVar("demandlab_workers_inside", default=False)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _drain(fn, items, failures: list, sf_state: dict | None) -> None:
    """Run items from the shared iterator ``items`` until none is left or
    one has failed; every thread of one run drains the same iterator,
    whose ``next`` is atomic under the GIL."""
    # scipy.special.errstate is per thread, so the caller's is reapplied
    errstate = (sys.modules["scipy.special"].errstate(**sf_state)
                if sf_state is not None else contextlib.nullcontext())
    with errstate:
        while not failures:
            i = next(items, None)
            if i is None:
                return
            try:
                fn(i)
            except BaseException as exc:
                failures.append((i, exc))


def run(fn, n: int) -> None:
    """Call ``fn(i)`` for i in range(n), spread over the usable CPUs."""
    threads = 0 if _INSIDE.get() else min(_usable_cpus(), n) - 1
    if threads < 1:
        for i in range(n):
            fn(i)
        return
    special = sys.modules.get("scipy.special")
    failures = []
    drain = (fn, iter(range(n)), failures,
             None if special is None else special.geterr())
    token = _INSIDE.set(True)
    try:
        # Leaving the block joins the threads.
        with ThreadPoolExecutor(
                threads, thread_name_prefix="demandlab-worker") as pool:
            jobs = [pool.submit(contextvars.copy_context().run, _drain,
                                *drain) for _ in range(threads)]
            _drain(*drain)
    finally:
        _INSIDE.reset(token)
    for job in jobs:
        job.result()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
