"""Process set-up for sweeps: glibc's heap and the BLAS thread count.

``keep_heap`` tells glibc to keep freed memory instead of returning it to
the OS (trim threshold 1 GiB, top pad 64 MiB, mmap threshold 32 MiB), so
repeated sweeps in one process reuse their pages rather than fault them
back in.  Only the command line calls it, once per process; importing
the package never touches the allocator.  ``one_blas_thread`` runs a
sweep with numpy's bundled OpenBLAS at one thread, so the sweep's worker
threads do not oversubscribe the cores and its bytes do not depend on
the BLAS environment; on any other BLAS it does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading

import numpy as np

# glibc's mallopt parameter numbers and the values keep_heap sets
_HEAP = {"M_TRIM_THRESHOLD": (-1, 1 << 30), "M_TOP_PAD": (-2, 64 << 20),
         "M_MMAP_THRESHOLD": (-3, 32 << 20)}

_heap: dict | None = None  # the settings keep_heap applied in this process


def keep_heap() -> dict | None:
    """Apply the heap settings once per process; the applied settings, or
    None off glibc."""
    global _heap
    if _heap is None and _glibc():
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
        _heap = {name: value for name, (param, value) in _HEAP.items()
                 if mallopt(param, value)}
    return _heap


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name here
        return False


@functools.cache
def _openblas():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None for any other BLAS."""
    libs = glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas64_-*.so")
    if len(libs) != 1:
        return None
    lib = ctypes.CDLL(libs[0])
    get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.restype, get.argtypes = ctypes.c_int, []
    put.restype, put.argtypes = None, [ctypes.c_int]
    return get, put


_lock = threading.Lock()
_sweeps = 0  # pinned sweeps running now
_saved_threads = 0  # the thread count before the first of them


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with OpenBLAS at one thread and restore the old count
    when the last of any overlapping sweeps ends, also after an error."""
    global _sweeps, _saved_threads
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    with _lock:
        if _sweeps == 0:
            _saved_threads = get()
            put(1)
        _sweeps += 1
    try:
        yield
    finally:
        with _lock:
            _sweeps -= 1
            if _sweeps == 0:
                put(_saved_threads)


def record() -> dict:
    """The manifest's ``runtime`` block: the BLAS library, its thread count
    in sweeps (None when not pinned), the heap settings (None off glibc or
    before ``keep_heap``) and the usable cores."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"blas": {"name": blas.get("name"), "version": blas.get("version")},
            "sweep_blas_threads": 1 if _openblas() else None,
            "heap": _heap,
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()}
