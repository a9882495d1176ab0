"""What the host gives the package: the one thread pool, ordered maps over
the CPUs in the affinity mask that synthesis, focusing and composition use,
and the physical-memory check that scene building, synthesis and the
colour stages make before they allocate."""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from contextvars import copy_context
from itertools import islice


def check_memory(need: int, what: str) -> None:
    """Raise ValueError, "out of memory: <what> needs ...", unless need bytes
    fit in physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"out of memory: {what} needs {need} bytes, "
                         f"more than the {have} bytes of physical memory")


def workers(n_items: int) -> int:
    """Threads threaded_map runs n_items calls on; below 2 it runs them inline."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, n_items)


def threaded_map(fn: Callable, items: Sequence) -> Iterator:
    """Yield fn(item) for every item of a sequence, in input order.

    The calls run on one thread per CPU in the affinity mask (numpy releases
    the GIL in its FFTs and ufuncs), at most one per worker ahead of the
    caller, so memory stays bounded, each in the caller's context (numpy's
    error state).  A call's exception is re-raised here, cancelling the calls
    not yet started.  One item or one CPU runs inline.
    """
    n = workers(len(items))
    if n < 2:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor  # ~15 ms, so not at import

    todo = iter(items)
    pool = ThreadPoolExecutor(n)
    try:
        window = deque(pool.submit(copy_context().run, fn, x) for x in islice(todo, n))
        while window:
            head = [window.popleft().result()]    # popped at the yield: no reference kept
            window.extend(pool.submit(copy_context().run, fn, x) for x in islice(todo, 1))
            yield head.pop()
    finally:
        pool.shutdown(cancel_futures=True)
