"""Minimal dense neural-network substrate.

A network is a split MLP given by its widths: affine layers, each but the
last followed by a ReLU, split at a configurable layer into a feature
extractor and a classifier head. Forward and backward passes are explicit so
that gradients can be started or stopped at the split point, which the
federation losses rely on. Everything is float64 and fully deterministic
given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

AFFINE = "affine"           # the kind of an affine entry of ``NetworkSpec.layers``


class ShapeError(ValueError):
    """Raised when an input or parameter shape does not match the network spec."""


@dataclass(frozen=True)
class NetworkSpec:
    """A split MLP given by its widths.

    ``widths`` runs from the input width through the hidden widths to the
    output width; each pair of neighbours is one affine layer, and every
    affine layer but the last is followed by a ReLU. Layers are numbered in
    that order: affine layer ``j`` is layer ``2j`` and its ReLU ``2j + 1``.
    Layers ``[0, split_index)`` form the feature extractor and the rest the
    classifier head; a plain MLP, such as the attack's decoder, has no split.

    ``layers`` spells the same network out as ``(AFFINE, n_in, n_out)`` and
    ``("relu",)`` entries, for code that counts work per layer (perfbench's
    tracer reads it), and ``layout`` is where the tensors sit in
    ``Parameters.vec``: each affine layer's ``W`` (in, out) and ``b`` (out,),
    in sorted key order.
    """

    widths: tuple
    split_index: int | None = None
    layers: tuple = field(init=False, repr=False, compare=False)
    layout: _Layout = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        widths = tuple(int(w) for w in self.widths)
        if len(widths) < 2:
            raise ShapeError("network needs at least one layer")
        layers, signature = [], []
        for j, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
            if min(n_in, n_out) < 1:
                raise ShapeError(
                    f"layer {2 * j}: affine widths must be positive, got {n_in} -> {n_out}"
                )
            layers += [(AFFINE, n_in, n_out), ("relu",)]
            signature += [((2 * j, "W"), (n_in, n_out)), ((2 * j, "b"), (n_out,))]
        del layers[-1]
        if self.split_index is not None and not 0 < self.split_index < len(layers):
            raise ShapeError(f"split_index {self.split_index} outside (0, {len(layers)})")
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "layers", tuple(layers))
        object.__setattr__(self, "layout", _layout(tuple(signature)))

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def num_classes(self) -> int:
        return self.widths[-1]

    def width_after(self, stop: int) -> int:
        """Output width of the sub-network formed by layers ``[0, stop)``."""
        return self.widths[(stop + 1) // 2]

    @property
    def embedding_dim(self) -> int:
        return self.width_after(self.split_index)


def mlp_spec(input_dim: int, extractor_hidden, classifier_hidden, num_classes: int) -> NetworkSpec:
    """The default split MLP: the extractor's affine-ReLU blocks, then the
    head's, then the class layer."""
    if not extractor_hidden:
        raise ShapeError("extractor needs at least one hidden layer")
    return NetworkSpec((input_dim, *extractor_hidden, *classifier_hidden, num_classes),
                       2 * len(extractor_hidden))


class _Layout:
    """Where each (layer, kind) tensor sits in a flat float64 vector, in
    sorted key order. Layouts are interned by their keys and shapes: every
    model of one structure shares one layout.
    """

    __slots__ = ("keys", "spans", "size")

    def __init__(self, signature: tuple):
        self.keys = tuple(key for key, _ in signature)
        self.spans = {}
        offset = 0
        for key, shape in signature:
            size = math.prod(shape)
            self.spans[key] = (offset, offset + size, shape)
            offset += size
        self.size = offset

    def views(self, vec: np.ndarray) -> dict:
        return {key: vec[a:b].reshape(shape) for key, (a, b, shape) in self.spans.items()}


_LAYOUTS: dict[tuple, _Layout] = {}


def _layout(signature: tuple) -> _Layout:
    found = _LAYOUTS.get(signature)
    if found is None:
        found = _LAYOUTS[signature] = _Layout(signature)
    return found


class Parameters:
    """Per-layer weight/bias tensors addressable by (layer index, kind).

    All tensors live in one contiguous float64 vector ``vec``, in sorted key
    order; ``params[key]`` is a view of it, and assigning to a key writes into
    that view. The views are made on first use: most gradient and optimizer
    vectors are only ever used whole.
    """

    __slots__ = ("vec", "layout", "_views", "_pairs")

    def __init__(self, values: dict[tuple[int, str], np.ndarray]):
        keys = sorted(values)
        arrays = [np.asarray(values[k], dtype=np.float64) for k in keys]
        layout = _layout(tuple((k, a.shape) for k, a in zip(keys, arrays)))
        vec = np.concatenate([a.ravel() for a in arrays]) if arrays else np.zeros(0)
        self._bind(vec, layout)

    def _bind(self, vec: np.ndarray, layout: _Layout) -> None:
        self.vec = vec
        self.layout = layout
        self._views = self._pairs = None

    @classmethod
    def over(cls, vec: np.ndarray, layout: _Layout) -> "Parameters":
        """Parameters backed by ``vec`` itself (no copy)."""
        params = cls.__new__(cls)
        params._bind(vec, layout)
        return params

    def __getitem__(self, key):
        if self._views is None:
            self._views = self.layout.views(self.vec)
        return self._views[key]

    def __setitem__(self, key, value):
        view = self[key]
        value = np.asarray(value, dtype=np.float64)
        if value.shape != view.shape:
            raise ShapeError(f"{key}: shape {value.shape} != {view.shape}")
        view[...] = value

    @property
    def pairs(self) -> list:
        """Each affine layer's ``(W, b)`` views, in layer order, made once
        from the views ``params[key]`` returns."""
        if self._pairs is None:
            keys = self.layout.keys
            self._pairs = [(self[w], self[b]) for w, b in zip(keys[::2], keys[1::2])]
        return self._pairs

    def keys(self):
        return list(self.layout.keys)

    def copy(self) -> "Parameters":
        return Parameters.over(self.vec.copy(), self.layout)

    def zeros_like(self) -> "Parameters":
        return Parameters.over(np.zeros(self.layout.size), self.layout)

    def count(self) -> int:
        return self.layout.size


def init_params(spec: NetworkSpec, seed: int) -> Parameters:
    """Glorot-uniform weights, drawn layer by layer, and zero biases, seeded."""
    rng, widths = np.random.default_rng(seed), spec.widths
    params = Parameters.over(np.zeros(spec.layout.size), spec.layout)
    for (w, _), n_in, n_out in zip(params.pairs, widths, widths[1:]):
        a = np.sqrt(6.0 / (n_in + n_out))
        w[...] = rng.uniform(-a, a, size=(n_in, n_out))
    return params


def forward(params: Parameters, spec: NetworkSpec, x: np.ndarray,
            start: int = 0, stop: int | None = None):
    """Run layers ``[start, stop)``; returns (output, cache) for backward.

    The cache lists ``(layer index, array)`` for each layer run: an affine
    layer's input, or a ReLU's output (``h > 0`` exactly where ``z > 0``).
    Arrays made here are reused in place: the bias is added into the matmul
    result, and ReLU overwrites an array made by an earlier layer of this
    call (never ``x``). So the returned output may itself be a cache entry;
    callers must not write into it before ``backward`` has run.
    """
    if stop is None:
        stop = len(spec.layers)
    if params.layout is not spec.layout:
        raise ShapeError("params must be laid out like the network")
    out = np.asarray(x, dtype=np.float64)
    if out.ndim == 1:
        out = out[None, :]
    if out.shape[1] != spec.width_after(start):
        raise ShapeError(
            f"layer {start}: input width {out.shape[1]}, expected {spec.width_after(start)}"
        )
    pairs = params.pairs
    cache = []
    if start & 1 and start < stop:      # a ReLU first: it must not write into ``x``
        out = np.maximum(out, 0.0)
        cache.append((start, out))
        start += 1
    for idx in range(start, stop, 2):   # an affine layer, then its ReLU if run
        cache.append((idx, out))
        w, b = pairs[idx >> 1]
        out = out @ w
        out += b
        if idx + 1 < stop:
            np.maximum(out, 0.0, out=out)
            cache.append((idx + 1, out))
    return out, cache


def backward(params: Parameters, spec: NetworkSpec, cache, upstream: np.ndarray, *,
             out: Parameters | None = None, input_grad: bool = False):
    """Reverse-mode pass over the layers recorded in ``cache``; returns the
    parameter gradients, laid out like ``params``.

    Only the tensors of the cached layers are written, so a classifier-only
    cache leaves the extractor's tensors alone (nothing flows into it). They
    are written into ``out`` when given, whose other tensors keep their
    values, or else into a fresh vector whose other tensors are +0.0. The
    gradient is not carried below the first cached affine layer, unless
    ``input_grad``: then it is carried to the cache's input and the call
    returns ``(grads, gradient at the input)``, so a head's backward can hand
    the gradient at the split to the extractor's.

    Neither ``upstream`` nor any cache array is written, so one cache can be
    run backward more than once; the ReLU mask is multiplied in place only
    into gradients this call made.
    """
    grad = np.asarray(upstream, dtype=np.float64)
    if out is None:
        out = params.zeros_like()
    elif out.layout is not params.layout:
        raise ShapeError("out must be laid out like params")
    last, saved = cache[-1]
    want = (len(saved), spec.width_after(last + 1))
    if grad.shape != want:
        raise ShapeError(f"upstream gradient shape {grad.shape}, expected {want} "
                         f"at layer {last}'s output")
    pairs, grads = params.pairs, out.pairs
    start = cache[0][0]
    first = None if input_grad else start + (start & 1)      # the first affine layer
    owned = False           # is ``grad`` an array this call made?
    for idx, saved in reversed(cache):
        if idx & 1:         # ReLU
            grad = np.multiply(grad, saved > 0.0, out=grad if owned else None)
        else:
            grad_w, grad_b = grads[idx >> 1]
            np.matmul(saved.T, grad, out=grad_w)
            np.add.reduce(grad, axis=0, out=grad_b)     # grad.sum, without its wrapper
            if idx == first:
                return out
            grad = grad @ pairs[idx >> 1][0].T
        owned = True
    return (out, grad) if input_grad else out


def forward_extractor(params: Parameters, spec: NetworkSpec, x: np.ndarray):
    return forward(params, spec, x, 0, spec.split_index)


def forward_classifier(params: Parameters, spec: NetworkSpec, u: np.ndarray):
    return forward(params, spec, u, spec.split_index, None)


def forward_full(params: Parameters, spec: NetworkSpec, x: np.ndarray):
    """Every layer in one walk; bit for bit the extractor then the classifier."""
    return forward(params, spec, x)


def softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - _row_max(logits)[:, None])
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels, *, split: int | None = None):
    """Mean negative log-likelihood plus its exact logits gradient.

    With ``split``, rows ``[0, split)`` and ``[split, n)`` are two batches in
    one pass: the loss is the pair of their mean NLLs, and each batch's
    gradient rows are those of its own mean, divided by its own row count.
    A row's values do not depend on the rows around it, so each batch gets
    the bits it would get alone."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if n < 1:
        raise ValueError("batch must be nonempty")
    if split is not None and not 0 < split < n:
        raise ValueError(f"split {split} leaves a batch of {n} rows an empty part")
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    # one unsigned max: as uint64 a negative label reads as a huge one
    if np.maximum.reduce(labels.view(np.uint64)) >= k:
        raise ValueError(f"label out of range [0, {k})")
    z = logits - _row_max(logits)[:, None]
    # the row sum keeps its own reduction: its summation order sets the bits.
    # np.add.reduce is what .sum() calls, without its Python wrapper
    lse = np.add.reduce(np.exp(z), axis=1, keepdims=True)
    np.log(lse, out=lse)
    z -= lse                                    # log-probabilities
    # each row's label entry through one flat index, in any memory order
    flat = labels + np.arange(0, n * k, k)
    picked = z.take(flat)
    grad = np.exp(z, out=z)
    hit = grad.take(flat)
    hit -= 1.0
    grad.put(flat, hit)
    if split is None:
        grad /= n
        return float(-(np.add.reduce(picked) / n)), grad     # what -picked.mean() computes
    m = n - split
    grad[:split] /= split
    grad[split:] /= m
    return ((float(-(np.add.reduce(picked[:split]) / split)),
             float(-(np.add.reduce(picked[split:]) / m))), grad)


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=1)``, taken column by column, since a few long column
    passes beat many short row reductions. A maximum is exact in any order (a
    tie of 0.0 and -0.0 may keep either, which changes no bit of
    ``exp(a - max)``). A single column is returned as it is, not copied."""
    top = a[:, 0] if a.shape[1] == 1 else np.maximum(a[:, 0], a[:, 1])
    for j in range(2, a.shape[1]):
        np.maximum(top, a[:, j], out=top)
    return top


@dataclass
class AdamState:
    """Adam accumulators plus hyperparameters; one instance per model."""

    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 5e-4
    step: int = 0
    m: Parameters | None = None
    v: Parameters | None = None


def adam_step(params: Parameters, grads: Parameters, state: AdamState) -> None:
    """One Adam update in place, once ``grads`` is checked to be laid out like
    ``params`` and finite; weight decay enters as an additive L2 term."""
    if grads.layout is not params.layout:
        raise ShapeError("gradient must be laid out like the model")
    if not np.isfinite(grads.vec).all():
        bad = next(k for k in grads.keys() if not np.isfinite(grads[k]).all())
        raise ValueError(f"non-finite gradient at {bad}")
    g = grads.vec
    if state.m is None:
        state.m, state.v = params.zeros_like(), params.zeros_like()
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    p, m, v = params.vec, state.m.vec, state.v.vec
    if state.weight_decay:
        g = g + state.weight_decay * p
    # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g * g, in place
    m *= b1
    m += (1 - b1) * g
    g2 = (1 - b2) * g
    g2 *= g
    v *= b2
    v += g2
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    np.sqrt(v_hat, out=v_hat)
    v_hat += state.eps
    m_hat *= state.learning_rate
    m_hat /= v_hat
    p -= m_hat

