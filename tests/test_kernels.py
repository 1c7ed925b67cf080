"""The in-place training-step kernels against the code they replaced.

``nn.forward`` adds the bias into the matmul result and applies ReLU in place
on arrays it made, ``nn.backward`` multiplies the ReLU mask in place into
gradients it made, ``nn.softmax_cross_entropy`` takes the row maximum column
by column, and ``federation.cpgma_embedding_grad`` normalizes the batch once
and works on it sorted by label, one contiguous slice per class.
Each must give the same bits as the reference copies below, the code as it
was before; comparisons are on raw bytes, so a -0.0 that turns into +0.0
fails them. The kernels must also never write into their callers' arrays.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmp import nn
from fedmp.federation import cpgma_embedding_grad, unit_prototypes


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# references: the allocating code the in-place kernels replaced


def reference_forward(params, spec, x, start=0, stop=None):
    if stop is None:
        stop = len(spec.layers)
    out = np.asarray(x, dtype=np.float64)
    if out.ndim == 1:
        out = out[None, :]
    cache = []
    for idx in range(start, stop):
        layer = spec.layers[idx]
        kind = layer[0]
        if kind == nn.AFFINE:
            _, n_in, n_out = layer
            if out.shape[1] != n_in:
                raise nn.ShapeError(
                    f"layer {idx}: input width {out.shape[1]}, expected {n_in}"
                )
            cache.append((idx, out))
            out = out @ params[(idx, "W")] + params[(idx, "b")]
        elif kind == nn.RELU:
            cache.append((idx, out))
            out = np.maximum(out, 0.0)
        else:  # flatten
            cache.append((idx, out.shape))
            out = out.reshape(out.shape[0], -1)
    return out, cache


def reference_backward(params, spec, cache, upstream, input_grad=True, out=None):
    # ``nn.backward`` returns no input gradient; the tests that chain a head
    # pass into an extractor pass take the head's from here
    grad = np.asarray(upstream, dtype=np.float64)
    if out is None:
        out = params.zeros_like()
    elif out.layout is not params.layout:
        raise nn.ShapeError("out must be laid out like params")
    affine = [idx for idx, _ in cache if spec.layers[idx][0] == nn.AFFINE]
    first = affine[0] if affine else None
    for entry in reversed(cache):
        idx, saved = entry
        kind = spec.layers[idx][0]
        if kind == nn.AFFINE:
            x = saved
            w = params[(idx, "W")]
            if grad.shape != (x.shape[0], w.shape[1]):
                raise nn.ShapeError(f"layer {idx}: upstream gradient shape mismatch")
            np.matmul(x.T, grad, out=out[(idx, "W")])
            grad.sum(axis=0, out=out[(idx, "b")])
            if idx == first and not input_grad:
                return out, None
            grad = grad @ w.T
        elif kind == nn.RELU:
            grad = grad * (saved > 0.0)
        else:  # flatten
            grad = grad.reshape(saved)
    return out, grad


def reference_softmax_cross_entropy(logits, labels):
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


def reference_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reference_cpgma_embedding_grad(u, labels, prototypes, eps_guard=1e-8):
    loss = 0.0
    grad_u = np.zeros_like(u)
    for cls in np.unique(labels):
        p = prototypes[cls]
        p_norm = np.linalg.norm(p)
        if p_norm < eps_guard:
            continue
        p_hat = p / p_norm
        idx = np.flatnonzero(labels == cls)
        uc = u[idx]
        norms = np.maximum(np.linalg.norm(uc, axis=1, keepdims=True), eps_guard)
        u_hat = uc / norms
        cos = u_hat @ p_hat
        loss -= float(cos.mean())
        grad_u[idx] = -(p_hat[None, :] - cos[:, None] * u_hat) / norms / len(idx)
    return loss, grad_u


# ---------------------------------------------------------------------------
# strategies


def signed_normal(rng, shape, zeros=0.15) -> np.ndarray:
    """Normal draws with some exact +0.0 and -0.0 entries."""
    arr = rng.normal(size=shape)
    arr[rng.random(shape) < zeros] = 0.0
    arr[rng.random(shape) < zeros] = -0.0
    return arr


@st.composite
def specs(draw):
    """Affine layers with ReLU and flatten layers around them, including a
    leading ReLU or flatten that acts on the caller's input."""
    width = st.integers(1, 6)
    extras = st.lists(st.sampled_from([nn.relu(), nn.flatten()]), max_size=2)
    num_classes = draw(st.integers(1, 4))
    layers = list(draw(extras))
    n_in = draw(width)
    for n_out in draw(st.lists(width, min_size=0, max_size=3)):
        layers += [nn.affine(n_in, n_out), *draw(extras)]
        n_in = n_out
    layers.append(nn.affine(n_in, num_classes))
    if len(layers) < 2:
        layers.insert(0, nn.flatten())
    split = draw(st.integers(1, len(layers) - 1))
    return nn.NetworkSpec(layers=tuple(layers), split_index=split, num_classes=num_classes)


def random_params(spec, rng) -> nn.Parameters:
    params = nn.init_params(spec, 0)
    params.vec[:] = signed_normal(rng, params.vec.shape)
    return params


def snapshot(cache) -> list:
    return [(idx, saved.copy() if isinstance(saved, np.ndarray) else saved)
            for idx, saved in cache]


def unchanged(cache, saved_copies) -> bool:
    return all(
        same_bits(saved, copy) if isinstance(saved, np.ndarray) else saved == copy
        for (_, saved), (_, copy) in zip(cache, saved_copies)
    )


# ---------------------------------------------------------------------------
# forward and backward


@settings(max_examples=150, deadline=None)
@given(spec=specs(), seed=st.integers(0, 2**31 - 1), rows=st.integers(1, 5),
       one_d=st.booleans(), use_out=st.booleans(), data=st.data())
def test_forward_backward_match_reference(spec, seed, rows, one_d, use_out, data):
    rng = np.random.default_rng(seed)
    n = len(spec.layers)
    start = data.draw(st.integers(0, n - 1), label="start")
    stop = data.draw(st.integers(start + 1, n), label="stop")
    params = random_params(spec, rng)
    width = spec.width_after(start)
    x = signed_normal(rng, (width,) if one_d else (rows, width))
    x_before = x.copy()

    got, cache = nn.forward(params, spec, x, start, stop)
    want, ref_cache = reference_forward(params, spec, x, start, stop)
    assert same_bits(got, want)
    assert same_bits(x, x_before)
    assert len(cache) == len(ref_cache)

    upstream = signed_normal(rng, want.shape)
    upstream_before = upstream.copy()
    cache_before = snapshot(cache)
    base = signed_normal(rng, params.vec.shape)
    out = nn.Parameters.over(base.copy(), params.layout) if use_out else None
    ref_out = nn.Parameters.over(base.copy(), params.layout) if use_out else None
    grads = nn.backward(params, spec, cache, upstream, out=out)
    ref_grads, _ = reference_backward(params, spec, ref_cache, upstream, False, ref_out)
    assert grads.layout is ref_grads.layout and same_bits(grads.vec, ref_grads.vec)
    if use_out:
        assert same_bits(out.vec, ref_out.vec)
    assert same_bits(upstream, upstream_before)
    assert unchanged(cache, cache_before)
    assert same_bits(x, x_before)


@settings(max_examples=60, deadline=None)
@given(spec=specs(), seed=st.integers(0, 2**31 - 1), rows=st.integers(1, 6))
def test_two_backwards_over_one_extractor_cache(spec, seed, rows):
    """As in ``local_train``: the extractor cache serves the local backward
    and then the CPGMA backward; both must see what fresh forwards give."""
    rng = np.random.default_rng(seed)
    params = random_params(spec, rng)
    x = signed_normal(rng, (rows, spec.input_dim))
    u, cache_f = nn.forward_extractor(params, spec, x)
    logits, cache_c = nn.forward_classifier(params, spec, u)
    head, grad_u = reference_backward(params, spec, cache_c, signed_normal(rng, logits.shape))
    total = head.copy()
    nn.backward(params, spec, cache_f, grad_u, out=total)
    grad_align = signed_normal(rng, u.shape)
    second = nn.backward(params, spec, cache_f, grad_align)

    _, fresh_f = nn.forward_extractor(params, spec, x)
    fresh_first = nn.backward(params, spec, fresh_f, grad_u, out=head.copy())
    _, fresh_f = nn.forward_extractor(params, spec, x)
    fresh_second = nn.backward(params, spec, fresh_f, grad_align)
    assert same_bits(total.vec, fresh_first.vec)
    assert same_bits(second.vec, fresh_second.vec)


# heads that start with a ReLU or a flatten, so the boundary between the two
# caches falls right before a layer that is not affine
RELU_HEAD = nn.NetworkSpec(
    layers=(nn.affine(3, 4), nn.relu(), nn.affine(4, 2)), split_index=1, num_classes=2)
FLATTEN_HEAD = nn.NetworkSpec(
    layers=(nn.affine(3, 4), nn.relu(), nn.flatten(), nn.affine(4, 2)),
    split_index=2, num_classes=2)


@settings(max_examples=150, deadline=None)
@given(spec=specs(), seed=st.integers(0, 2**31 - 1), rows=st.integers(1, 6),
       use_out=st.booleans())
@example(spec=RELU_HEAD, seed=0, rows=3, use_out=False)
@example(spec=RELU_HEAD, seed=1, rows=3, use_out=True)
@example(spec=FLATTEN_HEAD, seed=0, rows=3, use_out=False)
@example(spec=FLATTEN_HEAD, seed=1, rows=3, use_out=True)
def test_one_backward_over_both_caches(spec, seed, rows, use_out):
    """``local_train``'s local backward: one call over ``cache_f + cache_c``
    gives the bits of a head backward followed by an extractor backward."""
    rng = np.random.default_rng(seed)
    params = random_params(spec, rng)
    x = signed_normal(rng, (rows, spec.input_dim))
    u, cache_f = nn.forward_extractor(params, spec, x)
    logits, cache_c = nn.forward_classifier(params, spec, u)
    glogits = signed_normal(rng, logits.shape)
    base = signed_normal(rng, params.vec.shape)

    out = nn.Parameters.over(base.copy(), params.layout) if use_out else None
    one = nn.backward(params, spec, cache_f + cache_c, glogits, out=out)
    two_out = nn.Parameters.over(base.copy(), params.layout) if use_out else None
    two, grad_u = reference_backward(params, spec, cache_c, glogits, out=two_out)
    nn.backward(params, spec, cache_f, grad_u, out=two)
    assert one.layout is params.layout
    assert same_bits(one.vec, two.vec)


def test_forward_output_is_the_last_relu_entry():
    # the documented cache contract: no copy is made for the output
    spec = nn.mlp_spec(3, (4,), (), 2)
    params = nn.init_params(spec, 0)
    u, cache = nn.forward_extractor(params, spec, np.ones((2, 3)))
    assert cache[-1][1] is u


# ---------------------------------------------------------------------------
# softmax and cross-entropy


@st.composite
def logit_batches(draw):
    """Logits drawn from a few values, so rows are full of ties and signed
    zeros, plus some wide-range rows."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 12))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0]),
                      st.floats(-50, 50))
    logits = np.array(draw(st.lists(st.lists(value, min_size=k, max_size=k),
                                    min_size=n, max_size=n)), dtype=np.float64)
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    return logits, labels


@settings(max_examples=200, deadline=None)
@given(batch=logit_batches())
def test_softmax_cross_entropy_matches_reference(batch):
    logits, labels = batch
    before = logits.copy()
    loss, grad = nn.softmax_cross_entropy(logits, labels)
    ref_loss, ref_grad = reference_softmax_cross_entropy(logits, labels)
    assert same_bits(np.float64(loss), np.float64(ref_loss))
    assert same_bits(grad, ref_grad)
    assert same_bits(nn.softmax(logits), reference_softmax(logits))
    assert same_bits(logits, before)


# ---------------------------------------------------------------------------
# CPGMA


@st.composite
def alignment_batches(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 70))
    k = draw(st.integers(1, 6))
    u = signed_normal(rng, (n, d))
    u[rng.random(n) < 0.2] = 0.0                       # zero rows
    u[rng.random(n) < 0.1] *= 1e-12                    # rows below eps_guard
    present = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    labels = rng.choice(present, size=n)               # absent classes
    prototypes = signed_normal(rng, (k, d))
    prototypes[rng.random(k) < 0.3] = 0.0              # cold prototypes
    prototypes[rng.random(k) < 0.15] *= 1e-10          # below the guard
    return u, labels, prototypes


@settings(max_examples=200, deadline=None)
@given(batch=alignment_batches())
def test_cpgma_embedding_grad_matches_reference(batch):
    u, labels, prototypes = batch
    u_before, p_before = u.copy(), prototypes.copy()
    loss, grad = cpgma_embedding_grad(u, labels, unit_prototypes(prototypes))
    ref_loss, ref_grad = reference_cpgma_embedding_grad(u, labels, prototypes)
    assert same_bits(np.float64(loss), np.float64(ref_loss))
    assert same_bits(grad, ref_grad)
    assert same_bits(u, u_before) and same_bits(prototypes, p_before)


def test_cpgma_embedding_grad_fortran_order_input():
    rng = np.random.default_rng(0)
    u = signed_normal(rng, (30, 64))
    labels = rng.integers(0, 3, size=30)
    prototypes = signed_normal(rng, (3, 64))
    got = cpgma_embedding_grad(np.asfortranarray(u), labels, unit_prototypes(prototypes))
    want = reference_cpgma_embedding_grad(np.asfortranarray(u), labels, prototypes)
    assert same_bits(np.float64(got[0]), np.float64(want[0]))
    assert same_bits(got[1], want[1])


@settings(max_examples=100, deadline=None)
@given(batch=alignment_batches(), half_width=st.integers(0, 40), cuts=st.integers(1, 4))
def test_cpgma_units_made_once_match_units_made_per_call(batch, half_width, cuts):
    """``local_train`` makes the unit prototypes once and passes them to every
    mini-batch's call. At odd widths a unit prototype that is a row of a 2-D
    array gives other bits on some kernels, so each must be its own array."""
    u, labels, prototypes = batch
    d = 2 * half_width + 1
    rng = np.random.default_rng(d)
    u = signed_normal(rng, (len(u), d))
    prototypes = signed_normal(rng, (len(prototypes), d))
    units = unit_prototypes(prototypes)
    assert all(v is None or (v.base is None and v.flags.c_contiguous) for v in units.vectors)
    for rows in np.array_split(np.arange(len(u)), cuts):
        once = cpgma_embedding_grad(u[rows], labels[rows], units)
        per_call = cpgma_embedding_grad(u[rows], labels[rows], unit_prototypes(prototypes))
        ref = reference_cpgma_embedding_grad(u[rows], labels[rows], prototypes)
        for got in (once, per_call):
            assert same_bits(np.float64(got[0]), np.float64(ref[0]))
            assert same_bits(got[1], ref[1])
