"""What the host gives the package: ordered maps over the CPUs in the
affinity mask, read once, which own their threads' scratch, for synthesis,
focusing and composition; numpy's OpenBLAS, resolved once: its thread count,
pinned to one while the direct sum's worker threads run its matrix products,
and its dgemm, which adds each product into the sum in place (numpy's matmul
where it does not resolve); and the physical-memory check that scene
building, synthesis and the colour stages make before they allocate."""

from __future__ import annotations

import ctypes
import os
import threading
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from contextvars import copy_context
from functools import cache

import numpy as np

_pin = threading.RLock()    # held by the block that pins the BLAS


def check_memory(need: int, what: str) -> None:
    """Raise ValueError, "out of memory: <what> needs ...", unless need bytes
    fit in physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"out of memory: {what} needs {need} bytes, "
                         f"more than the {have} bytes of physical memory")


@cache
def _blas() -> tuple[Callable, Callable, Callable | None] | None:
    """The thread-count getter and setter and the cblas_dgemm of numpy's
    OpenBLAS (its wheels' prefixed ILP64 copy first: a 64_ suffix means int64
    sizes), the dgemm None where it does not resolve; or None where no getter
    and setter resolve (MKL, Accelerate, another prefix)."""
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
        get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
        if get and set_:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            gemm = getattr(lib, f"{prefix}cblas_dgemm{suffix}", None)
            if gemm:
                i = ctypes.c_int64 if suffix else ctypes.c_int
                f, p = ctypes.c_double, ctypes.c_void_p
                gemm.argtypes = [ctypes.c_int] * 3 + [i] * 3 + [f, p, i, p, i, f, p, i]
                gemm.restype = None
            return get, set_, gemm
    return None


def blas_gemm() -> Callable[[np.ndarray, np.ndarray, np.ndarray, float], None]:
    """gemm(a, b, c, beta), c := a @ b + beta c for beta 0 or 1 and (m, k),
    (k, n) and (m, n) matrices (ValueError otherwise); with beta = 0, c is
    only written.  It is numpy's OpenBLAS dgemm, which runs without the GIL,
    on float64 rows of unit last stride (ValueError otherwise), or
    matmul_gemm where no dgemm resolves."""
    api = _blas()
    dgemm = api and api[2]
    if not dgemm:
        return matmul_gemm

    def gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray, beta: float) -> None:
        (m, k), n = a.shape, b.shape[1]
        if not (a.dtype == b.dtype == c.dtype == np.float64 and b.shape[0] == k
                and c.shape == (m, n) and c.flags.writeable
                and all(x.strides[0] % 8 == 0 and x.strides[0] >= 8 * x.shape[1]
                        and (x.strides[1] == 8 or not x.size) for x in (a, b, c))):
            raise ValueError("gemm takes float64 (m, k), (k, n) and (m, n) rows of unit stride")
        # 101: row-major, 111: no transpose.  An empty array's strides may be 0.
        dgemm(101, 111, 111, m, n, k, 1.0, a.ctypes.data, max(1, a.strides[0] // 8),
              b.ctypes.data, max(1, b.strides[0] // 8), beta, c.ctypes.data,
              max(1, c.strides[0] // 8))
    return gemm


def matmul_gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray, beta: float) -> None:
    """blas_gemm's gemm where no dgemm resolves: numpy's matmul writes a @ b
    into c with beta = 0, and with beta = 1 into a product it allocates and
    adds to c.  Its out= refuses the shapes that c += a @ b would broadcast."""
    if beta:
        c += np.matmul(a, b, out=np.empty_like(c))
    else:
        np.matmul(a, b, out=c)


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Hold the BLAS at one thread, process-wide, while the block runs, and
    restore the count it found as it exits, by an exception too.  One thread
    holds the pin at a time, and a nested block restores the outer one's
    count; a block on another thread waits, so a pinned block must not wait
    for a thread that enters the pin.  Without a known BLAS it does nothing."""
    api = _blas()
    if api is None:
        yield
        return
    get, set_, _ = api
    with _pin:
        found = get()
        set_(1)
        try:
            yield
        finally:
            set_(found)


@cache
def cpus() -> int:
    """CPUs in the affinity mask at the first call, so the preflights and every
    map agree; like OpenBLAS's own count, it does not follow a `taskset -p`."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def workers(n_items: int) -> int:
    """Threads threaded_map runs n_items calls on, the caller among them: one
    per CPU (cpus()), at most one per item, at least one."""
    return min(cpus(), max(1, n_items))


def threaded_map(fn: Callable, items: Sequence, *scratch: tuple) -> list:
    """[fn(item, *rows) for every item], in input order.

    n = workers(len(items)) is read once, and one np.empty((n, *shape), dtype)
    allocated per (shape, dtype) of scratch.  Call k runs on thread k % n,
    after call k - n, with rows = row k % n of each: a row is one thread's
    alone.  Thread 0 is the caller; the others (numpy releases the GIL in its
    FFTs, ufuncs and dgemm) each run in a copy of the caller's context (numpy's
    error state).  If a thread cannot start (RuntimeError), the caller runs its
    calls and those of the threads after it, with their rows: same results.
    Once a call raises or a thread fails to start otherwise, no thread starts
    another call; every started thread is joined and that exception re-raised.
    """
    n = workers(len(items))
    buffers = [np.empty((n, *shape), dtype) for shape, dtype in scratch]
    out, failed, threads = [None] * len(items), [], []

    def run(slot: int) -> None:
        rows = [b[slot] for b in buffers]
        try:
            for k in range(slot, len(items), n):
                if failed:
                    return
                out[k] = fn(items[k], *rows)
        except BaseException as e:
            failed.append(e)

    try:
        for slot in range(1, n):
            thread = threading.Thread(target=copy_context().run, args=(run, slot))
            thread.start()
            threads.append(thread)
    except RuntimeError:    # out of threads: the caller runs the rest
        pass
    except BaseException as e:    # any other failure to start stops the others
        failed.append(e)
    for slot in (0, *range(len(threads) + 1, n)):
        run(slot)
    for thread in threads:
        thread.join()
    if failed:
        raise failed.pop(0)    # not kept in failed, a cycle through its traceback
    return out
