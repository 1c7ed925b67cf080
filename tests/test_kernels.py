"""The in-place training-step kernels against the code they replaced.

``nn.forward`` walks each affine layer's ``(W, b)`` views, adds the bias into
the matmul result and applies ReLU in place on arrays it made,
``nn.backward`` multiplies the ReLU mask in place into gradients it made,
``nn.softmax_cross_entropy`` takes the row maximum column by column and
reads and writes each row's label entry through one flat index, and
``federation.cpgma_embedding_grad`` works on the whole batch at once: each
row's norm and cosine, per-class sums of the cosines, and one elementwise
gradient. Each must give the same bits as the reference copies: the first
three are the code as it was before (the layer-list walk of the first two is
in ``helpers``), the last works one class and one row at a time in the
kernel's order of operations.
Comparisons are on raw bytes, so a -0.0 that turns into +0.0 fails them.
The kernels must also never write into their callers' arrays.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fedmp import nn
from fedmp.federation import cpgma_embedding_grad, unit_prototypes

from helpers import reference_backward, reference_forward, reference_softmax_cross_entropy


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# references: the allocating code the in-place kernels replaced; the
# layer-list walk of ``nn.forward`` and ``nn.backward`` and the plain
# cross-entropy are in ``helpers``


def parent_softmax_cross_entropy(logits, labels, *, split=None):
    # the kernel before the flat label index and the copy-free row maximum
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if n < 1:
        raise ValueError("batch must be nonempty")
    if split is not None and not 0 < split < n:
        raise ValueError(f"split {split} leaves a batch of {n} rows an empty part")
    if labels.shape != (n,):
        raise nn.ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    if np.maximum.reduce(labels.view(np.uint64)) >= k:
        raise ValueError(f"label out of range [0, {k})")
    z = logits - parent_row_max(logits)[:, None]
    lse = np.add.reduce(np.exp(z), axis=1, keepdims=True)
    np.log(lse, out=lse)
    z -= lse
    rows = np.arange(n)
    picked = z[rows, labels]
    grad = np.exp(z, out=z)
    grad[rows, labels] -= 1.0
    if split is None:
        grad /= n
        return float(-(np.add.reduce(picked) / n)), grad
    m = n - split
    grad[:split] /= split
    grad[split:] /= m
    return ((float(-(np.add.reduce(picked[:split]) / split)),
             float(-(np.add.reduce(picked[split:]) / m))), grad)


def parent_row_max(a):
    top = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(top, a[:, j], out=top)
    return top


def reference_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reference_cpgma_embedding_grad(u, labels, prototypes, eps_guard=1e-8):
    # one class and one row at a time, in the kernel's order of operations:
    # each row's norm and cosine, each class's cosines summed in row order,
    # then the loss as the sum of the class means
    labels = np.asarray(labels)
    k = len(prototypes)
    counts = np.bincount(labels, minlength=k)
    means = np.zeros(k)
    grad_u = np.zeros(u.shape)
    for cls in range(k):
        p = prototypes[cls]
        p_norm = np.sqrt(np.add.reduce(p * p))
        p_hat = p / p_norm if p_norm >= eps_guard else np.zeros_like(p)
        total = 0.0
        for i in np.flatnonzero(labels == cls):
            norm = np.maximum(np.sqrt(np.add.reduce(u[i] * u[i])), eps_guard)
            cos = np.add.reduce(u[i] * p_hat) / norm
            total += cos
            grad_u[i] = (u[i] * (cos / norm) - p_hat) / (norm * counts[cls])
        means[cls] = total / max(counts[cls], 1)
    return 0.0 - float(np.add.reduce(means)), grad_u


# ---------------------------------------------------------------------------
# strategies


def signed_normal(rng, shape, zeros=0.15) -> np.ndarray:
    """Normal draws with some exact +0.0 and -0.0 entries."""
    arr = rng.normal(size=shape)
    arr[rng.random(shape) < zeros] = 0.0
    arr[rng.random(shape) < zeros] = -0.0
    return arr


@st.composite
def specs(draw, max_widths=5):
    """Random widths and any split, odd ones included: after an affine
    layer and before its ReLU, so the head starts with a ReLU."""
    widths = draw(st.lists(st.integers(1, 6), min_size=3, max_size=max_widths))
    split = draw(st.integers(1, 2 * len(widths) - 4))
    return nn.NetworkSpec(tuple(widths), split_index=split)


def random_params(spec, rng) -> nn.Parameters:
    params = nn.init_params(spec, 0)
    params.vec[:] = signed_normal(rng, params.vec.shape)
    return params


def snapshot(cache) -> list:
    return [(idx, saved.copy()) for idx, saved in cache]


def unchanged(cache, saved_copies) -> bool:
    return all(same_bits(saved, copy) for (_, saved), (_, copy) in zip(cache, saved_copies))


# ---------------------------------------------------------------------------
# forward and backward


@settings(max_examples=150, deadline=None)
@given(spec=specs(), seed=st.integers(0, 2**31 - 1), rows=st.integers(1, 5),
       one_row=st.booleans(), use_out=st.booleans(), data=st.data())
def test_forward_backward_match_reference(spec, seed, rows, one_row, use_out, data):
    rng = np.random.default_rng(seed)
    n = len(spec.layers)
    start = data.draw(st.integers(0, n - 1), label="start")
    stop = data.draw(st.integers(start + 1, n), label="stop")
    params = random_params(spec, rng)
    width = spec.width_after(start)
    x = signed_normal(rng, (1 if one_row else rows, width))
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
    # carried to the cache's input, as a head's backward hands it to the extractor
    grads, grad_in = nn.backward(params, spec, cache, upstream, input_grad=True)
    ref_grads, ref_grad_in = reference_backward(params, spec, ref_cache, upstream, True)
    assert same_bits(grads.vec, ref_grads.vec) and same_bits(grad_in, ref_grad_in)
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
    logits, cache_c = nn.forward(params, spec, u, spec.split_index)
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


# a head that starts with a ReLU, so the boundary between the two caches
# falls right before a layer that is not affine
RELU_HEAD = nn.NetworkSpec((3, 4, 2), split_index=1)


@settings(max_examples=150, deadline=None)
@given(spec=specs(), seed=st.integers(0, 2**31 - 1), rows=st.integers(1, 6),
       use_out=st.booleans())
@example(spec=RELU_HEAD, seed=0, rows=3, use_out=False)
@example(spec=RELU_HEAD, seed=1, rows=3, use_out=True)
def test_one_backward_over_both_caches(spec, seed, rows, use_out):
    """``local_train``'s local backward: one call over ``cache_f + cache_c``
    gives the bits of a head backward followed by an extractor backward."""
    rng = np.random.default_rng(seed)
    params = random_params(spec, rng)
    x = signed_normal(rng, (rows, spec.input_dim))
    u, cache_f = nn.forward_extractor(params, spec, x)
    logits, cache_c = nn.forward(params, spec, u, spec.split_index)
    glogits = signed_normal(rng, logits.shape)
    base = signed_normal(rng, params.vec.shape)

    out = nn.Parameters.over(base.copy(), params.layout) if use_out else None
    one = nn.backward(params, spec, cache_f + cache_c, glogits, out=out)
    two_out = nn.Parameters.over(base.copy(), params.layout) if use_out else None
    two, grad_u = reference_backward(params, spec, cache_c, glogits, out=two_out)
    nn.backward(params, spec, cache_f, grad_u, out=two)
    assert one.layout is params.layout
    assert same_bits(one.vec, two.vec)


@pytest.mark.parametrize("split", [1, 2, 3, 4, 5])
@settings(max_examples=30, deadline=None)
@given(widths=st.lists(st.integers(1, 6), min_size=4, max_size=5),
       seed=st.integers(0, 2**31 - 1), rows=st.integers(1, 6))
def test_attack_splits_match_the_layer_list_walk(split, widths, seed, rows):
    """What the inversion attack runs: the layers before ``split``, the odd
    splits ending on an affine layer's output before its ReLU, then a
    backward from there, each with the bits and the cache of the walk."""
    rng = np.random.default_rng(seed)
    spec = nn.NetworkSpec(tuple(widths), split_index=2)
    params = random_params(spec, rng)
    x = signed_normal(rng, (rows, spec.input_dim))
    got, cache = nn.forward(params, spec, x, 0, split)
    want, ref_cache = reference_forward(params, spec, x, 0, split)
    assert same_bits(got, want) and got.shape[1] == spec.width_after(split)
    assert [idx for idx, _ in cache] == [idx for idx, _ in ref_cache] == list(range(split))
    # an affine entry is the layer's input; a ReLU entry is its output here
    # and its input in the walk, which are positive in the same places
    assert all(same_bits(a, b) if idx % 2 == 0 else same_bits(a > 0.0, b > 0.0)
               for (idx, a), (_, b) in zip(cache, ref_cache))
    upstream = signed_normal(rng, got.shape)
    grads = nn.backward(params, spec, cache, upstream)
    assert same_bits(grads.vec, reference_backward(params, spec, ref_cache, upstream, False)[0].vec)
    grads, grad_in = nn.backward(params, spec, cache, upstream, input_grad=True)
    ref_grads, ref_grad_in = reference_backward(params, spec, ref_cache, upstream, True)
    assert same_bits(grads.vec, ref_grads.vec) and same_bits(grad_in, ref_grad_in)


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


@settings(max_examples=200, deadline=None)
@given(batch=logit_batches(), data=st.data())
def test_split_softmax_cross_entropy_gives_each_part_its_own_bits(batch, data):
    """The SFMC head pass's two batches in one call: each part's loss and
    gradient rows have the bits of a call on that part alone."""
    logits, labels = batch
    assume(len(logits) > 1)
    split = data.draw(st.integers(1, len(logits) - 1), label="split")
    check_split(logits, labels, split)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 300), data=st.data())
def test_split_softmax_cross_entropy_long_batches(seed, n, data):
    # long enough for NumPy's blocked summation of the picked log-probabilities
    rng = np.random.default_rng(seed)
    logits, labels = rng.normal(scale=4.0, size=(n, 3)), rng.integers(0, 3, n)
    check_split(logits, labels, data.draw(st.integers(1, n - 1), label="split"))


def check_split(logits, labels, split):
    before = logits.copy()
    losses, grad = nn.softmax_cross_entropy(logits, labels, split=split)
    parts = [nn.softmax_cross_entropy(logits[rows], labels[rows])
             for rows in (slice(None, split), slice(split, None))]
    for loss, (part_loss, _) in zip(losses, parts):
        assert type(loss) is float and same_bits(np.float64(loss), np.float64(part_loss))
    assert same_bits(grad, np.concatenate([part_grad for _, part_grad in parts]))
    assert same_bits(logits, before)


def test_split_must_leave_both_parts_rows():
    logits, labels = np.zeros((3, 2)), np.array([0, 1, 0])
    for split in (0, 3, -1):
        with pytest.raises(ValueError, match="empty part"):
            nn.softmax_cross_entropy(logits, labels, split=split)


EXTREME = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 709.8, -745.1,
           1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf)


@st.composite
def extreme_logit_batches(draw):
    """Up to 200 rows of up to 5 logits at any scale, a share of them
    replaced by extreme values (signed zeros, subnormals, the float64 limits,
    infinities), in C or Fortran order, with a split or none."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n, k = draw(st.integers(1, 200)), draw(st.integers(1, 5))
    logits = rng.normal(scale=draw(st.sampled_from([1.0, 40.0, 1e3, 1e300])), size=(n, k))
    extreme = rng.random((n, k)) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    logits[extreme] = rng.choice(EXTREME, size=int(extreme.sum()))
    if draw(st.booleans()):
        logits = np.asfortranarray(logits)
    split = draw(st.none() | st.integers(1, n - 1)) if n > 1 else None
    return logits, rng.integers(0, k, n), split


@settings(max_examples=300, deadline=None)
@given(batch=extreme_logit_batches())
def test_softmax_cross_entropy_matches_the_parent_kernel(batch):
    logits, labels, split = batch
    before = logits.copy()
    with np.errstate(all="ignore"):
        loss, grad = nn.softmax_cross_entropy(logits, labels, split=split)
        want_loss, want_grad = parent_softmax_cross_entropy(logits, labels, split=split)
        probs = nn.softmax(logits)
        e = np.exp(logits - parent_row_max(logits)[:, None])
        want_probs = e / e.sum(axis=1, keepdims=True)
    assert same_bits(np.float64(loss), np.float64(want_loss))
    assert same_bits(grad, want_grad)
    assert same_bits(probs, want_probs)
    assert same_bits(logits, before)


@pytest.mark.parametrize("bad", [-1, -(2**62), 3, 4, 2**62])
@pytest.mark.parametrize("split", [None, 2])
def test_negative_and_out_of_range_labels_rejected(bad, split):
    logits, labels = np.zeros((5, 3)), np.array([0, 1, 2, 0, 1])
    labels[3] = bad
    with pytest.raises(ValueError, match="out of range"):
        nn.softmax_cross_entropy(logits, labels, split=split)


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
    mini-batch's call; at any width, each call gets the bits of one that
    made them itself."""
    u, labels, prototypes = batch
    d = 2 * half_width + 1
    rng = np.random.default_rng(d)
    u = signed_normal(rng, (len(u), d))
    prototypes = signed_normal(rng, (len(prototypes), d))
    units = unit_prototypes(prototypes)
    for rows in np.array_split(np.arange(len(u)), cuts):
        once = cpgma_embedding_grad(u[rows], labels[rows], units)
        per_call = cpgma_embedding_grad(u[rows], labels[rows], unit_prototypes(prototypes))
        ref = reference_cpgma_embedding_grad(u[rows], labels[rows], prototypes)
        for got in (once, per_call):
            assert same_bits(np.float64(got[0]), np.float64(ref[0]))
            assert same_bits(got[1], ref[1])


def test_cpgma_all_cold_batch_is_a_positive_zero_loss():
    # every prototype below the guard: no class is warm, so the weight
    # ``combine_losses`` gives CPGMA is 0 and the step runs no CPGMA term
    rng = np.random.default_rng(4)
    u = signed_normal(rng, (9, 5))
    prototypes = signed_normal(rng, (3, 5)) * 1e-10
    assert not unit_prototypes(prototypes).any()
    loss, grad = cpgma_embedding_grad(u, rng.integers(0, 3, 9), unit_prototypes(prototypes))
    assert same_bits(np.float64(loss), np.float64(0.0))
    assert not grad.any()
