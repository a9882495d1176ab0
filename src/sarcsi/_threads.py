"""What the host gives the package: ordered maps over the CPUs in the
affinity mask, each on a thread pool of its own, for synthesis, focusing and
composition; the BLAS pinned to one thread while the direct sum's worker
threads run its matrix products; and the physical-memory check that scene
building, synthesis and the colour stages make before they allocate."""

from __future__ import annotations

import ctypes
import os
import threading
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from contextvars import copy_context
from functools import cache
from itertools import islice

import numpy as np

_pin_lock = threading.Lock()
_pin_depth = 0    # blocks inside one_blas_thread
_pin_saved = 0    # the BLAS thread count the first of them found


def check_memory(need: int, what: str) -> None:
    """Raise ValueError, "out of memory: <what> needs ...", unless need bytes
    fit in physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"out of memory: {what} needs {need} bytes, "
                         f"more than the {have} bytes of physical memory")


@cache
def _blas_threads() -> tuple[Callable, Callable] | None:
    """The getter and setter of the thread count of numpy's OpenBLAS (its
    wheels' prefixed ILP64 copy first), or None where none resolves (MKL,
    Accelerate, another prefix)."""
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get and set_:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Hold the BLAS at one thread, for the whole process, while the block
    runs, and restore the count found on entry as it exits, by an exception
    too.  Nested and concurrent blocks share the pin: the first to enter sets
    it, the last to leave restores it.  Without a known BLAS it does nothing."""
    global _pin_depth, _pin_saved
    api = _blas_threads()
    if api is None:
        yield
        return
    get, set_ = api
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_saved)


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
