"""Assertion helpers shared by the test modules."""

import contextlib
import ctypes
import glob
import os
import tracemalloc

import numpy as np

from fedmp import nn


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


# ---------------------------------------------------------------------------
# the layer-list walk ``nn.forward`` and ``nn.backward`` replaced: a dispatch
# on the kind of each entry of ``spec.layers``, with a width check and two
# tensor lookups per affine layer, allocating every array it makes


def reference_forward(params, spec, x, start=0, stop=None):
    if stop is None:
        stop = len(spec.layers)
    out = np.asarray(x, dtype=np.float64)
    if out.ndim == 1:
        out = out[None, :]
    cache = []
    for idx in range(start, stop):
        layer = spec.layers[idx]
        if layer[0] == nn.AFFINE:
            _, n_in, n_out = layer
            if out.shape[1] != n_in:
                raise nn.ShapeError(
                    f"layer {idx}: input width {out.shape[1]}, expected {n_in}"
                )
            cache.append((idx, out))
            out = out @ params[(idx, "W")] + params[(idx, "b")]
        else:
            cache.append((idx, out))
            out = np.maximum(out, 0.0)
    return out, cache


def reference_backward(params, spec, cache, upstream, input_grad=True, out=None):
    """Returns (grads, gradient at the cache's input), the latter None when
    not ``input_grad``, as ``nn.backward(..., input_grad=True)`` does."""
    grad = np.asarray(upstream, dtype=np.float64)
    if out is None:
        out = params.zeros_like()
    elif out.layout is not params.layout:
        raise nn.ShapeError("out must be laid out like params")
    affine = [idx for idx, _ in cache if spec.layers[idx][0] == nn.AFFINE]
    first = affine[0] if affine else None
    for idx, saved in reversed(cache):
        if spec.layers[idx][0] == nn.AFFINE:
            w = params[(idx, "W")]
            if grad.shape != (saved.shape[0], w.shape[1]):
                raise nn.ShapeError(f"layer {idx}: upstream gradient shape mismatch")
            np.matmul(saved.T, grad, out=out[(idx, "W")])
            grad.sum(axis=0, out=out[(idx, "b")])
            if idx == first and not input_grad:
                return out, None
            grad = grad @ w.T
        else:
            grad = grad * (saved > 0.0)
    return out, grad
