"""Assertion helpers shared by the test modules."""

import contextlib
import ctypes
import glob
import os
import tracemalloc

import numpy as np

from fedmp import nn
from fedmp.federation import (
    DivergenceError,
    combine_losses,
    cpgma_embedding_grad,
    unit_prototypes,
)
from fedmp.protocol import FeatureBatch, upcast


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
# tensor lookups per affine layer, allocating every array it makes; and the
# plain cross-entropy ``nn.softmax_cross_entropy`` replaced


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


def reference_softmax_cross_entropy(logits, labels):
    """The mean cross-entropy of ``logits`` and its gradient, as
    ``nn.softmax_cross_entropy`` computed it before its in-place kernel."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(n), labels].mean()
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return float(loss), grad


# ---------------------------------------------------------------------------
# the local step that ``federation.local_train`` fused into one pass over
# per-call buffers, on the walk above and ``reference_softmax_cross_entropy``
# (none of them shares a kernel with ``nn``), with ``draw_foreign``,
# allocating every array it makes


def draw_foreign(foreign, rows, rng):
    """``rows`` distinct rows of ``foreign``, kept in sample order, or all of
    ``foreign`` when it has no more rows than that."""
    if len(foreign) <= rows:
        return foreign
    return foreign.take(np.sort(rng.choice(len(foreign), rows, replace=False)))


def reference_head_pass(params, spec, u, yb, drawn):
    """``(l_local, l_sfmc, glogits, head cache)`` of one head pass over the
    local embeddings ``u`` (labels ``yb``) stacked on ``drawn``'s rows, each
    part scored on its own; no drawn rows score ``l_sfmc`` 0.0."""
    logits, cache = reference_forward(params, spec, np.concatenate((u, drawn.embeddings)),
                                      spec.split_index)
    rows = len(yb)
    l_local, g_local = reference_softmax_cross_entropy(logits[:rows], yb)
    if not len(drawn):
        return l_local, 0.0, g_local, cache
    l_sfmc, g_sfmc = reference_softmax_cross_entropy(logits[rows:], drawn.labels)
    return l_local, l_sfmc, np.concatenate((g_local, g_sfmc)), cache


def reference_step(params, spec, xb, yb, drawn, units, grads):
    """One step's embeddings and losses ``(l_local, l_sfmc, l_cpgma)``, its
    gradient written into ``grads``. ``drawn`` is the SFMC draw (no rows
    without SFMC), ``units`` the unit prototypes (None without CPGMA). A
    head backward hands the gradient at the split, CPGMA's added in, to an
    extractor backward."""
    u, cache_f = reference_forward(params, spec, xb, 0, spec.split_index)
    l_local, l_sfmc, glogits, cache_c = reference_head_pass(params, spec, u, yb, drawn)
    l_cpgma = 0.0
    if units is not None:
        l_cpgma, grad_u_align = cpgma_embedding_grad(u, yb, units)
    w_s, w_c = combine_losses(l_local, l_sfmc, l_cpgma)
    glogits[len(yb):] *= w_s
    _, grad_in = reference_backward(params, spec, cache_c, glogits, out=grads)
    grad_u = grad_in[:len(yb)]
    if w_c:
        grad_u += w_c * grad_u_align
    reference_backward(params, spec, cache_f, grad_u, False, grads)
    return u, (l_local, l_sfmc, l_cpgma)


def reference_local_train(params, spec, shard, config, epochs, rng, foreign=None,
                          prototypes=None, round_tag=0, collect_final_epoch=True):
    """``local_train`` step by step through ``reference_step``, with the same
    shuffle, draws and Adam steps. Returns (feature_batches, tally, steps):
    one batch per mini-batch of the final epoch, and per step the
    parameters before it, its three losses and its gradient."""
    if len(shard) == 0:
        raise ValueError("client shard is empty")
    sfmc = config.enable_sfmc and bool(foreign)
    units = unit_prototypes(prototypes) if config.enable_cpgma and prototypes is not None else None
    if sfmc:
        foreign = FeatureBatch(upcast(foreign.embeddings), foreign.labels)
        foreign_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=[config.seed, 4, round_tag, shard.client_id]))
    no_rows = FeatureBatch(np.zeros((0, spec.embedding_dim)), np.zeros(0, np.int64))
    state = nn.AdamState(learning_rate=config.learning_rate, weight_decay=config.weight_decay)
    tally, batches, steps = [0.0, 0.0, 0.0, 0], [], []
    grads = params.zeros_like()
    n = len(shard)
    for epoch in range(epochs):
        order = rng.permutation(n)
        inputs, labels = shard.inputs[order], shard.labels[order]
        for start in range(0, n, config.batch_size):
            xb = inputs[start:start + config.batch_size]
            yb = labels[start:start + config.batch_size]
            drawn = draw_foreign(foreign, len(yb), foreign_rng) if sfmc else no_rows
            before = params.vec.copy()
            try:
                u, losses = reference_step(params, spec, xb, yb, drawn, units, grads)
                nn.adam_step(params, grads, state)
            except ValueError as err:
                raise DivergenceError(f"epoch {epoch + 1}, batch "
                                      f"{start // config.batch_size + 1}: {err}") from err
            steps.append((before, losses, grads.vec.copy()))
            for i, loss in enumerate(losses):
                tally[i] += loss
            tally[3] += 1
            if epoch == epochs - 1 and collect_final_epoch:
                batches.append(FeatureBatch(u, yb))
    return batches, tally, steps
