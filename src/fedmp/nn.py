"""Minimal dense neural-network substrate.

Layered feed-forward models made of affine / relu / flatten layers, split at a
configurable index into a feature extractor and a classifier head. Forward and
backward passes are explicit so that gradients can be started or stopped at the
split point, which the federation losses rely on. Everything is float64 and
fully deterministic given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

AFFINE = "affine"
RELU = "relu"
FLATTEN = "flatten"


class ShapeError(ValueError):
    """Raised when an input or parameter shape does not match the network spec."""


def affine(n_in: int, n_out: int) -> tuple:
    return (AFFINE, int(n_in), int(n_out))


def relu() -> tuple:
    return (RELU,)


def flatten() -> tuple:
    return (FLATTEN,)


@dataclass(frozen=True)
class NetworkSpec:
    """Layer list plus the extractor/classifier split.

    Layers ``[0, split_index)`` form the feature extractor; layers from
    ``split_index`` onward form the classifier head. The last layer must be an
    affine layer whose output width equals ``num_classes``.
    """

    layers: tuple
    split_index: int
    num_classes: int

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("network needs at least one layer")
        if not 0 < self.split_index < len(self.layers):
            raise ShapeError(
                f"split_index {self.split_index} outside (0, {len(self.layers)})"
            )
        last = self.layers[-1]
        if last[0] != AFFINE or last[2] != self.num_classes:
            raise ShapeError("last layer must be affine with width num_classes")
        width = None
        for idx, layer in enumerate(self.layers):
            if layer[0] == AFFINE:
                if min(layer[1], layer[2]) < 1:
                    raise ShapeError(
                        f"layer {idx}: affine widths must be positive, got {layer[1]} -> {layer[2]}"
                    )
                if width is not None and layer[1] != width:
                    raise ShapeError(
                        f"layer {idx}: expects input width {layer[1]}, got {width}"
                    )
                width = layer[2]
            elif layer[0] not in (RELU, FLATTEN):
                raise ShapeError(f"layer {idx}: unknown kind {layer[0]!r}")

    @property
    def input_dim(self) -> int:
        for layer in self.layers:
            if layer[0] == AFFINE:
                return layer[1]
        raise ShapeError("network has no affine layer")

    def width_after(self, stop: int) -> int:
        """Output width of the sub-network formed by layers ``[0, stop)``."""
        width = self.input_dim
        for layer in self.layers[:stop]:
            if layer[0] == AFFINE:
                width = layer[2]
        return width

    @property
    def embedding_dim(self) -> int:
        return self.width_after(self.split_index)


def mlp_spec(input_dim: int, extractor_hidden, classifier_hidden, num_classes: int) -> NetworkSpec:
    """Build the default split MLP: affine-relu blocks, then the class head."""
    layers = []
    width = input_dim
    for h in extractor_hidden:
        layers += [affine(width, h), relu()]
        width = h
    split = len(layers)
    if split == 0:
        raise ShapeError("extractor needs at least one hidden layer")
    for h in classifier_hidden:
        layers += [affine(width, h), relu()]
        width = h
    layers.append(affine(width, num_classes))
    return NetworkSpec(layers=tuple(layers), split_index=split, num_classes=num_classes)


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

    __slots__ = ("vec", "layout", "_views")

    def __init__(self, values: dict[tuple[int, str], np.ndarray]):
        keys = sorted(values)
        arrays = [np.asarray(values[k], dtype=np.float64) for k in keys]
        layout = _layout(tuple((k, a.shape) for k, a in zip(keys, arrays)))
        vec = np.concatenate([a.ravel() for a in arrays]) if arrays else np.zeros(0)
        self._bind(vec, layout)

    def _bind(self, vec: np.ndarray, layout: _Layout) -> None:
        self.vec = vec
        self.layout = layout
        self._views = None

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

    def keys(self):
        return list(self.layout.keys)

    def copy(self) -> "Parameters":
        return Parameters.over(self.vec.copy(), self.layout)

    def zeros_like(self) -> "Parameters":
        return Parameters.over(np.zeros(self.layout.size), self.layout)

    def count(self) -> int:
        return self.layout.size

    def add_scaled(self, other: "Parameters", scale: float) -> None:
        if other.layout is not self.layout:
            raise ShapeError("add_scaled needs a vector laid out like this one")
        self.vec += scale * other.vec


def init_params(spec: NetworkSpec, seed: int) -> Parameters:
    """Glorot-uniform initialization, seeded."""
    rng = np.random.default_rng(seed)
    values = {}
    for idx, layer in enumerate(spec.layers):
        if layer[0] != AFFINE:
            continue
        _, n_in, n_out = layer
        a = np.sqrt(6.0 / (n_in + n_out))
        values[(idx, "W")] = rng.uniform(-a, a, size=(n_in, n_out))
        values[(idx, "b")] = np.zeros(n_out)
    return Parameters(values)


def forward(params: Parameters, spec: NetworkSpec, x: np.ndarray,
            start: int = 0, stop: int | None = None):
    """Run layers ``[start, stop)``; returns (output, cache) for backward.

    An affine entry of the cache holds the layer's input, a ReLU entry its
    output (``h > 0`` exactly where ``z > 0``) and a flatten entry the input
    shape. Arrays made here are reused in place: the bias is added into the
    matmul result, and ReLU overwrites an array made by an earlier layer of
    this call (never ``x``). So the returned output may itself be a cache
    entry; callers must not write into it before ``backward`` has run.
    """
    if stop is None:
        stop = len(spec.layers)
    out = np.asarray(x, dtype=np.float64)
    if out.ndim == 1:
        out = out[None, :]
    owned = False           # is ``out`` an array this call made?
    cache = []
    for idx in range(start, stop):
        layer = spec.layers[idx]
        kind = layer[0]
        if kind == AFFINE:
            _, n_in, n_out = layer
            if out.shape[1] != n_in:
                raise ShapeError(
                    f"layer {idx}: input width {out.shape[1]}, expected {n_in}"
                )
            cache.append((idx, out))
            out = out @ params[(idx, "W")]
            out += params[(idx, "b")]
            owned = True
        elif kind == RELU:
            out = np.maximum(out, 0.0, out=out if owned else None)
            owned = True
            cache.append((idx, out))
        else:  # flatten
            cache.append((idx, out.shape))
            out = out.reshape(out.shape[0], -1)
    return out, cache


def backward(params: Parameters, spec: NetworkSpec, cache, upstream: np.ndarray, *,
             out: Parameters | None = None) -> Parameters:
    """Reverse-mode pass over the layers recorded in ``cache``; returns the
    parameter gradients, laid out like ``params``.

    Only the tensors of the cached layers are written, so a classifier-only
    cache leaves the extractor's tensors alone (nothing flows into it). They
    are written into ``out`` when given, whose other tensors keep their
    values, or else into a fresh vector whose other tensors are +0.0. The
    gradient is not carried below the first cached affine layer.

    Neither ``upstream`` nor any cache array is written, so one cache can be
    run backward more than once; the ReLU mask is multiplied in place only
    into gradients this call made.
    """
    grad = np.asarray(upstream, dtype=np.float64)
    owned = False           # is ``grad`` an array this call made?
    if out is None:
        out = params.zeros_like()
    elif out.layout is not params.layout:
        raise ShapeError("out must be laid out like params")
    # each tensor is written through a slice of ``vec``, with no views dict
    vec, spans = out.vec, params.layout.spans
    first = next((idx for idx, _ in cache if spec.layers[idx][0] == AFFINE), None)
    for entry in reversed(cache):
        idx, saved = entry
        kind = spec.layers[idx][0]
        if kind == AFFINE:
            x = saved
            w = params[(idx, "W")]
            if grad.shape != (x.shape[0], w.shape[1]):
                raise ShapeError(f"layer {idx}: upstream gradient shape mismatch")
            a, b, shape = spans[(idx, "W")]
            np.matmul(x.T, grad, out=vec[a:b].reshape(shape))
            a, b, _ = spans[(idx, "b")]
            grad.sum(axis=0, out=vec[a:b])
            if idx == first:
                return out
            grad = grad @ w.T
            owned = True
        elif kind == RELU:
            grad = np.multiply(grad, saved > 0.0, out=grad if owned else None)
            owned = True
        else:  # flatten
            grad = grad.reshape(saved)
    return out


def forward_extractor(params: Parameters, spec: NetworkSpec, x: np.ndarray):
    return forward(params, spec, x, 0, spec.split_index)


def forward_classifier(params: Parameters, spec: NetworkSpec, u: np.ndarray):
    return forward(params, spec, u, spec.split_index, None)


def forward_full(params: Parameters, spec: NetworkSpec, x: np.ndarray):
    """Extractor then classifier; bit-for-bit the composition of the two."""
    u, cache_f = forward_extractor(params, spec, x)
    logits, cache_c = forward_classifier(params, spec, u)
    return logits, cache_f + cache_c


def softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - _row_max(logits)[:, None])
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood plus its exact logits gradient."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if n < 1:
        raise ValueError("batch must be nonempty")
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    # one unsigned max: as uint64 a negative label reads as a huge one
    if np.maximum.reduce(labels.view(np.uint64)) >= k:
        raise ValueError(f"label out of range [0, {k})")
    z = logits - _row_max(logits)[:, None]
    # the row sum keeps its own reduction: its summation order sets the bits
    lse = np.exp(z).sum(axis=1, keepdims=True)
    np.log(lse, out=lse)
    z -= lse                                    # log-probabilities
    rows = np.arange(n)
    loss = -(z[rows, labels].sum() / n)        # what .mean() computes
    grad = np.exp(z, out=z)
    grad[rows, labels] -= 1.0
    grad /= n
    return float(loss), grad


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=1)``, taken column by column, since a few long column
    passes beat many short row reductions. A maximum is exact in any order (a
    tie of 0.0 and -0.0 may keep either, which changes no bit of
    ``exp(a - max)``)."""
    top = a[:, 0].copy()
    for j in range(1, a.shape[1]):
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

    def ensure(self, params: Parameters) -> None:
        if self.m is None:
            self.m = params.zeros_like()
            self.v = params.zeros_like()


def _checked_gradient(params: Parameters, grads: Parameters) -> np.ndarray:
    """``grads.vec``, checked to be laid out like ``params`` and finite
    before anything is updated."""
    if grads.layout is not params.layout:
        raise ShapeError("gradient must be laid out like the model")
    if not np.isfinite(grads.vec).all():
        bad = next(k for k in grads.keys() if not np.isfinite(grads[k]).all())
        raise ValueError(f"non-finite gradient at {bad}")
    return grads.vec


def adam_step(params: Parameters, grads: Parameters, state: AdamState) -> None:
    """One Adam update in place; weight decay enters as an additive L2 term."""
    g = _checked_gradient(params, grads)
    state.ensure(params)
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


def sgd_step(params: Parameters, grads: Parameters, state: AdamState) -> None:
    """Plain SGD fallback sharing the AdamState hyperparameter container."""
    g = _checked_gradient(params, grads)
    state.step += 1
    p = params.vec
    if state.weight_decay:
        g = g + state.weight_decay * p
    p -= state.learning_rate * g
