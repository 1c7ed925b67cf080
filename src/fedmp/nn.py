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

    def pairs(self, vec: np.ndarray) -> list:
        """Each consecutive ``(W, b)`` span of ``vec`` as a pair of views."""
        views = [vec[a:b].reshape(shape) for a, b, shape in self.spans.values()]
        return list(zip(views[::2], views[1::2]))


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
        from the layout's spans."""
        if self._pairs is None:
            self._pairs = self.layout.pairs(self.vec)
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


# ---------------------------------------------------------------------------
# The walk: ``_forward_steps`` and ``_backward_steps`` lay out a pass over a
# range of layers as steps, and ``_forward`` and ``_backward`` run them
# through the kernels below. ``forward`` and ``backward`` run steps made for
# the call and ``Pass`` steps made once per row count, so both get the same
# bits.


def _affine(h: np.ndarray, w: np.ndarray, b: np.ndarray, out) -> np.ndarray:
    """``h @ w + b``, the bias added into the product."""
    out = np.matmul(h, w, out=out)
    out += b
    return out


def _relu(h: np.ndarray, out) -> np.ndarray:
    return np.maximum(h, 0.0, out=out)


def _affine_grad(saved: np.ndarray, grad: np.ndarray, w_grad: np.ndarray,
                 b_grad: np.ndarray) -> None:
    """An affine layer's tensor gradients, from its input ``saved``."""
    np.matmul(saved.T, grad, out=w_grad)
    np.add.reduce(grad, axis=0, out=b_grad)     # grad.sum, without its wrapper


def _carry(grad: np.ndarray, w: np.ndarray, out) -> np.ndarray:
    """The gradient at an affine layer's input."""
    return np.matmul(grad, w.T, out=out)


def _relu_grad(grad: np.ndarray, saved: np.ndarray, mask, out) -> np.ndarray:
    """``grad`` where the ReLU's output ``saved`` is positive, else 0."""
    return np.multiply(grad, np.greater(saved, 0.0, out=mask), out=out)


def _forward_steps(pairs: list, start: int, stop: int, x, rows: int, last) -> tuple:
    """(steps, cache) of layers ``[start, stop)`` over ``rows`` rows from
    ``x``: an affine layer's ``(W, b, output)`` or a ReLU's ``(None, None,
    output)``, and the cache's ``(layer index, array)``. Each output is a
    new array, but an affine layer's ReLU runs in place on its output and
    the last layer's output is ``last``: if None, a last affine layer makes
    it at each run."""
    steps, cache, h = [], [], x
    if start & 1 and start < stop:      # a ReLU first: it must not write into ``x``
        h = last if start + 1 == stop else np.empty((rows, len(pairs[start >> 1][1])))
        steps.append((None, None, h))
        cache.append((start, h))
        start += 1
    for idx in range(start, stop, 2):
        cache.append((idx, h))
        w, b = pairs[idx >> 1]
        h = last if idx + 2 >= stop else np.empty((rows, len(b)))
        steps.append((w, b, h))
        if idx + 1 < stop:
            steps.append((None, None, h))
            cache.append((idx + 1, h))
    return steps, cache


def _forward(steps: list, h: np.ndarray) -> np.ndarray:
    for w, b, out in steps:
        h = _relu(h, out) if w is None else _affine(h, w, b, out)
    return h


def _backward_steps(pairs: list, grad_pairs: list, cache: list, input_grad: bool,
                    rows: int | None = None) -> list:
    """The backward steps over the layers of ``cache``, last layer first,
    into the tensors of ``grad_pairs``: an affine layer's ``(input, W, W's
    gradient, b's gradient, carried)``, whose ``W`` is None at the first
    affine layer unless ``input_grad``, where the pass stops, and a ReLU's
    ``(output, None, mask, None, own)``. A ReLU that comes last writes into
    ``own``; the others multiply in place into a gradient the pass made.
    Each mask and carried gradient is made here for ``rows`` rows, or with
    ``rows`` None by its kernel at each run."""
    steps = []
    last = len(cache) - 1
    first = 0 if input_grad else cache[0][0] & 1       # a leading ReLU runs only then
    for pos in range(last, first - 1, -1):
        idx, saved = cache[pos]
        if idx & 1:
            mask = None if rows is None else np.empty(saved.shape, bool)
            steps.append((saved, None, mask, None, np.empty(saved.shape) if pos == last else None))
            continue
        w = pairs[idx >> 1][0] if pos > first or input_grad else None
        w_grad, b_grad = grad_pairs[idx >> 1]
        carried = None if rows is None or w is None else np.empty((rows, len(w)))
        steps.append((saved, w, w_grad, b_grad, carried))
    return steps


def _backward(steps: list, grad: np.ndarray, x) -> np.ndarray | None:
    """Run ``steps`` from the gradient at the last layer's output, with
    ``x`` as a None input; returns the gradient at the input, or None where
    the steps stop at the first affine layer."""
    for saved, w, a, b, out in steps:
        if b is None:                   # a ReLU; a: its mask
            grad = _relu_grad(grad, saved, a, grad if out is None else out)
        else:                           # a, b: the tensor gradients
            _affine_grad(x if saved is None else saved, grad, a, b)
            if w is None:
                return None
            grad = _carry(grad, w, out)
    return grad


def _cross_entropy(logits: np.ndarray, flat: np.ndarray, split: int,
                   top, z, e, lse, picked, hit):
    """``softmax_cross_entropy(..., split=split)`` of checked arguments, with
    each row's label as the flat index ``flat`` of its entry; the other
    arguments are where its arrays go (``None``: allocated), and ``z`` holds
    the gradient. A second part of no rows scores 0.0, and the first then
    gets the bits of a call without a split."""
    m = len(logits) - split
    z = np.subtract(logits, _row_max(logits, top)[:, None], out=z)
    # the row sum keeps its own reduction: its summation order sets the bits.
    # np.add.reduce is what .sum() calls, without its Python wrapper
    lse = np.add.reduce(np.exp(z, out=e), axis=1, keepdims=True, out=lse)
    np.log(lse, out=lse)
    z -= lse                                    # log-probabilities
    # the labels are checked, so every index is in range: "clip" writes
    # into ``out`` unbuffered
    picked = z.take(flat, out=picked, mode="clip")
    grad = np.exp(z, out=z)
    hit = grad.take(flat, out=hit, mode="clip")
    hit -= 1.0
    grad.put(flat, hit)
    grad[:split] /= split
    first = float(-(np.add.reduce(picked[:split]) / split))     # what -picked.mean() computes
    if not m:
        return (first, 0.0), grad
    grad[split:] /= m
    return (first, float(-(np.add.reduce(picked[split:]) / m))), grad


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
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != spec.width_after(start):
        raise ShapeError(
            f"layer {start}: input width {x.shape[1]}, expected {spec.width_after(start)}"
        )
    # a last ReLU's output is cached, so it is made here; _affine makes a last affine one
    last = None if stop & 1 else np.empty((len(x), spec.width_after(stop)))
    steps, cache = _forward_steps(params.pairs, start, stop, x, len(x), last)
    return _forward(steps, x), cache


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
    at_input = _backward(_backward_steps(params.pairs, out.pairs, cache, input_grad), grad, None)
    return (out, at_input) if input_grad else out


def forward_extractor(params: Parameters, spec: NetworkSpec, x: np.ndarray):
    return forward(params, spec, x, 0, spec.split_index)


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
    n, k = logits.shape
    if n < 1:
        raise ValueError("batch must be nonempty")
    if split is not None and not 0 < split < n:
        raise ValueError(f"split {split} leaves a batch of {n} rows an empty part")
    labels = check_labels(labels, n, k)
    # each row's label entry through one flat index, in any memory order
    flat = labels + np.arange(0, n * k, k)
    losses, grad = _cross_entropy(logits, flat, n if split is None else split,
                                  None, None, None, None, None, None)
    return (losses[0] if split is None else losses), grad


def check_labels(labels, rows: int, classes: int) -> np.ndarray:
    """``labels`` as int64, checked to be ``rows`` class indices in
    ``[0, classes)``: integers, so none is cast away from its value."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu" and labels.size:
        raise ValueError(f"labels must be integers, got {labels.dtype}")
    labels = labels.astype(np.int64, copy=False)
    if labels.shape != (rows,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {rows}")
    # one unsigned max: as uint64 a negative label reads as a huge one
    if np.maximum.reduce(labels.view(np.uint64), initial=0) >= classes:
        raise ValueError(f"label out of range [0, {classes})")
    return labels


def _row_max(a: np.ndarray, out=None) -> np.ndarray:
    """``a.max(axis=1)``, taken column by column, since a few long column
    passes beat many short row reductions. A maximum is exact in any order (a
    tie of 0.0 and -0.0 may keep either, which changes no bit of
    ``exp(a - max)``). A single column is returned as it is, not copied;
    otherwise the maximum goes into ``out`` (``None``: allocated)."""
    top = a[:, 0] if a.shape[1] == 1 else np.maximum(a[:, 0], a[:, 1], out=out)
    for j in range(2, a.shape[1]):
        np.maximum(top, a[:, j], out=top)
    return top


class Pass:
    """Layers ``[start, stop)`` of a network, forward and backward, over at
    most ``rows`` rows at a time, on arrays made once per row count: each
    layer's output, each ReLU's mask, the gradient at each layer's input and
    the cross-entropy's arrays. Each step runs the walk of ``forward`` and
    ``backward`` and gets their bits, without their checks or allocations:
    the caller checks its inputs once and passes rows of the input width, no
    more than ``rows`` of them.

    ``forward(x)`` returns a view of the last layer's output, valid until
    the next ``forward``; ``backward(grad)`` then writes these layers'
    tensors of ``grads`` and, with ``input_grad``, returns the gradient at
    ``x``, else None. With ``out``, a ``(rows, width)`` array, the last
    layer's output goes into its first rows, so it can be the start of the
    next pass's ``input``: a ``(rows, width)`` buffer the caller may fill
    and pass to ``forward``. With ``loss``, the pass also keeps a ``labels``
    buffer and ``cross_entropy`` scores the last forward's output against
    its first rows.
    """

    __slots__ = ("start", "stop", "input_grad", "input", "labels", "_make", "_plans", "_plan",
                 "_x")

    def __init__(self, params: Parameters, grads: Parameters, spec: NetworkSpec,
                 start: int, stop: int | None, rows: int, *, out: np.ndarray | None = None,
                 input_grad: bool = False, loss: bool = False):
        stop = len(spec.layers) if stop is None else stop
        self.start, self.stop, self.input_grad = start, stop, input_grad
        self.input = np.empty((rows, spec.width_after(start)))
        k = spec.width_after(stop)
        if loss:
            self.labels = np.empty(rows, np.int64)

        def plan(n: int) -> tuple:
            # the steps over n rows from a None input, ``x`` at each call;
            # with ``loss``, each label's flat offset and _cross_entropy's arrays
            last = np.empty((n, k)) if out is None else out[:n]
            steps, cache = _forward_steps(params.pairs, start, stop, None, n, last)
            arrays = None if not loss else (
                np.arange(0, n * k, k), np.empty(n, np.int64), np.empty(n), np.empty((n, k)),
                np.empty((n, k)), np.empty((n, 1)), np.empty(n), np.empty(n))
            return steps, _backward_steps(params.pairs, grads.pairs, cache, input_grad, n), arrays

        self._make = plan
        self._plans = {rows: plan(rows)}
        self._plan = self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        plan = self._plans.get(len(x))
        if plan is None:
            plan = self._plans[len(x)] = self._make(len(x))
        self._plan, self._x = plan, x
        return _forward(plan[0], x)

    def backward(self, grad: np.ndarray):
        grad = _backward(self._plan[1], grad, self._x)
        return grad if self.input_grad else None

    def cross_entropy(self, split: int | None = None):
        """``softmax_cross_entropy(output, labels[:n], split=split)`` of the
        last forward's ``n`` rows; the gradient is a view of a buffer."""
        offsets, flat, *arrays = self._plan[2]
        np.add(self.labels[:len(flat)], offsets, out=flat)
        losses, grad = _cross_entropy(self._plan[0][-1][2], flat,
                                      len(flat) if split is None else split, *arrays)
        return (losses[0] if split is None else losses), grad


# Adam's moment decay rates, and the guard added to its denominator
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam accumulators plus hyperparameters; one instance per model."""

    learning_rate: float = 1e-4
    weight_decay: float = 5e-4
    step: int = 0
    m: Parameters | None = None
    v: Parameters | None = None


def adam_step(params: Parameters, grads: Parameters, state: AdamState) -> None:
    """One Adam update in place, once ``grads`` is checked to be laid out like
    ``params`` and finite; weight decay enters as an additive L2 term."""
    if grads.layout is not params.layout:
        raise ShapeError("gradient must be laid out like the model")
    # np.logical_and.reduce is what .all() calls, without its Python wrapper
    if not np.logical_and.reduce(np.isfinite(grads.vec)):
        bad = next(k for k in grads.keys() if not np.isfinite(grads[k]).all())
        raise ValueError(f"non-finite gradient at {bad}")
    g = grads.vec
    if state.m is None:
        state.m, state.v = params.zeros_like(), params.zeros_like()
    state.step += 1
    t = state.step
    b1, b2 = _BETA1, _BETA2
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
    v_hat += _EPS
    m_hat *= state.learning_rate
    m_hat /= v_hat
    p -= m_hat
