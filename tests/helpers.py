"""Assertion helpers shared by the test modules."""

import contextlib
import ctypes
import glob
import os
import tracemalloc

import numpy as np


def params_equal(a, b) -> bool:
    """Two models with the same layout and equal values in every tensor."""
    return a.layout is b.layout and bool(np.array_equal(a.vec, b.vec))


def traced_peak(fn) -> int:
    """``tracemalloc`` peak of one call, above what was allocated before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with NumPy's OpenBLAS on one thread, as ``perfbench``
    runs it. With more threads, OpenBLAS may split a large product at a row
    that is not a multiple of its row tile, which moves those rows' bits.
    Where the library cannot be asked, the body runs as the library is set."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        lib = ctypes.CDLL(path)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            threads = get()
            put(1)
            try:
                yield
            finally:
                put(threads)
            return
    yield
