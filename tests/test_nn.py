"""Unit tests for the dense network substrate: forward/backward passes, the
extractor/classifier split, the cross-entropy loss, and the Adam step.

Closed-form expected values were computed by hand (or with a finite-difference
oracle) before being asserted here.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmp import nn

from helpers import params_equal


def single_affine_spec(n_in, n_out):
    """affine, ReLU | split | affine(identity-susceptible) helper used repeatedly."""
    return nn.NetworkSpec((n_in, n_out, n_out), split_index=2)


def params_from(spec, mapping):
    """Each affine layer's (W, b) from ``mapping`` by layer index, else (I, 0)."""
    values = {}
    for j, (n_in, n_out) in enumerate(zip(spec.widths, spec.widths[1:])):
        idx = 2 * j
        w, b = mapping.get(idx, (np.eye(n_in, n_out), np.zeros(n_out)))
        values[(idx, "W")] = np.asarray(w, dtype=np.float64)
        values[(idx, "b")] = np.asarray(b, dtype=np.float64)
    return nn.Parameters(values)


class TestNetworkSpec:
    def test_split_index_bounds_rejected(self):
        with pytest.raises(nn.ShapeError, match="split_index 1 outside"):
            nn.NetworkSpec((2, 2), split_index=1)
        for split in (0, 3, -1):
            with pytest.raises(nn.ShapeError, match=f"split_index {split} outside"):
                nn.NetworkSpec((2, 2, 2), split_index=split)

    def test_last_layer_must_match_classes(self):
        # the class count is the last width, which the last (affine) layer maps onto
        spec = nn.NetworkSpec((2, 3, 4), split_index=1)
        assert spec.num_classes == 4 and spec.input_dim == 2
        assert spec.layers == ((nn.AFFINE, 2, 3), ("relu",), (nn.AFFINE, 3, 4))
        assert [spec.width_after(stop) for stop in range(4)] == [2, 3, 3, 4]
        assert nn.NetworkSpec((2, 3, 4)).split_index is None
        with pytest.raises(nn.ShapeError, match="at least one layer"):
            nn.NetworkSpec((3,))

    def test_adjacent_width_mismatch_rejected(self):
        # neighbouring layers share a width by construction; a model made for
        # other widths is rejected before any product
        params = nn.init_params(nn.NetworkSpec((2, 5, 2), split_index=2), 0)
        spec = nn.NetworkSpec((2, 3, 2), split_index=2)
        with pytest.raises(nn.ShapeError, match="laid out like the network"):
            nn.forward_full(params, spec, np.ones((1, 2)))

    def test_non_positive_affine_width_rejected(self):
        with pytest.raises(nn.ShapeError, match="layer 0"):
            nn.mlp_spec(16, (0,), (), 3)
        with pytest.raises(nn.ShapeError, match="layer 2"):
            nn.NetworkSpec((2, 3, -1), split_index=1)

    def test_mlp_spec_default_shape(self):
        spec = nn.mlp_spec(16, (64, 32), (16,), 3)
        assert spec.input_dim == 16
        assert spec.embedding_dim == 32
        assert spec.split_index == 4
        assert spec.num_classes == 3


class TestForward:
    def test_identity_affine_passthrough(self):
        # W=I, b=0, x=[1,2] -> [1,2]
        spec = single_affine_spec(2, 2)
        params = params_from(spec, {})
        out, _ = nn.forward_extractor(params, spec, np.array([[1.0, 2.0]]))
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_zero_weights_annihilate(self):
        spec = nn.NetworkSpec((3, 4, 2), split_index=2)
        params = params_from(spec, {0: (np.zeros((3, 4)), np.zeros(4))})
        out, _ = nn.forward_extractor(params, spec, np.array([[5.0, -2.0, 7.0]]))
        assert np.array_equal(out, np.zeros((1, 4)))

    def test_hand_computed_affine_relu(self):
        # x @ W + b with W=[[1,0],[1,1]], b=[0.5,-3], x=[1,1]:
        # pre-activation [2.5, -2] -> relu gives [2.5, 0]
        spec = nn.NetworkSpec((2, 2, 2), split_index=2)
        params = params_from(spec, {0: ([[1.0, 0.0], [1.0, 1.0]], [0.5, -3.0])})
        out, _ = nn.forward_extractor(params, spec, np.array([[1.0, 1.0]]))
        assert np.allclose(out, [[2.5, 0.0]], atol=1e-12)

    def test_classifier_identity(self):
        # classifier = single affine W=I, b=0: u=[3,-1] -> [3,-1]
        spec = single_affine_spec(2, 2)
        params = params_from(spec, {})
        out, _ = nn.forward(params, spec, np.array([[3.0, -1.0]]), spec.split_index)
        assert np.array_equal(out, [[3.0, -1.0]])

    def test_classifier_hand_computed(self):
        # W=2I, b=[1,1], u=[1,2] -> [3,5]
        spec = single_affine_spec(2, 2)
        params = params_from(spec, {2: (2.0 * np.eye(2), [1.0, 1.0])})
        out, _ = nn.forward(params, spec, np.array([[1.0, 2.0]]), spec.split_index)
        assert np.allclose(out, [[3.0, 5.0]], atol=1e-12)

    def test_split_composition_bitwise(self):
        spec = nn.mlp_spec(5, (7, 4), (6,), 3)
        params = nn.init_params(spec, 3)
        x = np.random.default_rng(0).normal(size=(11, 5))
        u, _ = nn.forward_extractor(params, spec, x)
        via_split, _ = nn.forward(params, spec, u, spec.split_index)
        full, _ = nn.forward_full(params, spec, x)
        assert np.array_equal(via_split, full)

    def test_shape_mismatch_names_layer(self):
        spec = nn.mlp_spec(4, (5,), (), 2)
        params = nn.init_params(spec, 0)
        with pytest.raises(nn.ShapeError, match="layer 0"):
            nn.forward_full(params, spec, np.ones((2, 3)))

    @pytest.mark.parametrize("start, shape", [(0, (4,)), (0, (2, 4, 7)), (0, (1, 2, 4)),
                                              (2, (2, 5, 3))])
    def test_rows_must_be_two_dimensional(self, start, shape):
        # one check names the layer; a (2, 4, 7) input, whose second axis
        # is the input width, must not reach matmul
        spec = nn.mlp_spec(4, (5,), (7,), 2)
        params = nn.init_params(spec, 0)
        want = (rf"^layer {start}: input of shape {re.escape(str(shape))}, "
                rf"expected \(rows, {spec.width_after(start)}\)$")
        with pytest.raises(nn.ShapeError, match=want):
            nn.forward(params, spec, np.ones(shape), start)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = nn.softmax_cross_entropy(np.array([[0.0, 0.0]]), [0])
        assert abs(loss - np.log(2.0)) < 1e-12

    def test_closed_form_two_logits(self):
        # logits [1,0], label 0 -> ln(1 + e^{-1})
        loss, _ = nn.softmax_cross_entropy(np.array([[1.0, 0.0]]), [0])
        assert abs(loss - np.log(1.0 + np.exp(-1.0))) < 1e-12

    def test_gradient_uniform_case(self):
        _, grad = nn.softmax_cross_entropy(np.array([[0.0, 0.0]]), [0])
        assert np.allclose(grad, [[-0.5, 0.5]], atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            nn.softmax_cross_entropy(np.zeros((1, 3)), [3])
        with pytest.raises(ValueError):
            nn.softmax_cross_entropy(np.zeros((1, 3)), [-1])

    def test_loss_nonnegative_and_softmax_rows(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(20, 5)) * 10
        labels = rng.integers(0, 5, size=20)
        loss, _ = nn.softmax_cross_entropy(logits, labels)
        assert loss >= 0.0
        rows = nn.softmax(logits).sum(axis=1)
        assert np.all(np.abs(rows - 1.0) < 1e-12)

    def test_extreme_logits_stable(self):
        loss, grad = nn.softmax_cross_entropy(np.array([[1000.0, -1000.0]]), [0])
        assert np.isfinite(loss) and np.all(np.isfinite(grad))


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        spec = nn.mlp_spec(3, (4,), (), 2)
        params = nn.init_params(spec, 1)
        out, cache = nn.forward_full(params, spec, np.ones((2, 3)))
        grads = nn.backward(params, spec, cache, np.zeros_like(out))
        for key in grads.keys():
            assert np.array_equal(grads[key], np.zeros_like(grads[key]))

    def test_scalar_affine_hand_derivative(self):
        # y = w x + b with x=2, upstream=1 -> dw=2, db=1
        spec = nn.NetworkSpec((1, 1, 1), split_index=2)
        params = params_from(spec, {})
        _, cache = nn.forward_extractor(params, spec, np.array([[2.0]]))
        grads = nn.backward(params, spec, cache, np.array([[1.0]]))
        assert grads[(0, "W")] == pytest.approx(2.0)
        assert grads[(0, "b")] == pytest.approx(1.0)

    def test_classifier_only_cache_isolates_extractor(self):
        spec = nn.mlp_spec(4, (6,), (5,), 3)
        params = nn.init_params(spec, 2)
        u = np.random.default_rng(1).normal(size=(3, 6))
        out, cache = nn.forward(params, spec, u, spec.split_index)
        grads = nn.backward(params, spec, cache, np.ones_like(out))
        assert grads.layout is params.layout
        for key in grads.keys():
            if key[0] < spec.split_index:       # exactly +0.0, sign bit clear
                assert grads[key].tobytes() == np.zeros(grads[key].shape).tobytes()

    def test_mismatched_upstream_rejected(self):
        spec = nn.mlp_spec(3, (4,), (), 2)
        params = nn.init_params(spec, 0)
        _, cache = nn.forward_full(params, spec, np.ones((2, 3)))
        with pytest.raises(nn.ShapeError):
            nn.backward(params, spec, cache, np.ones((2, 5)))


def numeric_gradient(params, spec, x, labels, h=1e-5):
    """Central finite differences of the cross-entropy loss — the oracle."""
    num = params.zeros_like()
    for key in params.keys():
        flat = params[key].reshape(-1)
        out = num[key].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = nn.softmax_cross_entropy(nn.forward_full(params, spec, x)[0], labels)
            flat[i] = orig - h
            lm, _ = nn.softmax_cross_entropy(nn.forward_full(params, spec, x)[0], labels)
            flat[i] = orig
            out[i] = (lp - lm) / (2 * h)
    return num


def test_gradient_check_random_networks():
    """Criterion: analytic vs central finite differences on 20 random nets."""
    rng = np.random.default_rng(12345)
    worst = 0.0
    for trial in range(20):
        d0 = int(rng.integers(2, 6))
        hidden = int(rng.integers(2, 8))
        k = int(rng.integers(2, 5))
        if trial % 2 == 0:
            spec = nn.mlp_spec(d0, (hidden,), (), k)
        else:
            spec = nn.mlp_spec(d0, (hidden,), (int(rng.integers(2, 8)),), k)
        params = nn.init_params(spec, int(rng.integers(0, 1 << 30)))
        for key in params.keys():
            # jitter every parameter (fresh biases are zero) so no rectifier
            # pre-activation sits exactly on the kink, where one-sided and
            # central derivatives legitimately disagree
            params[key] += 0.1 * rng.normal(size=params[key].shape)
        x = rng.normal(size=(4, d0))
        labels = rng.integers(0, k, size=4)
        logits, cache = nn.forward_full(params, spec, x)
        _, grad_logits = nn.softmax_cross_entropy(logits, labels)
        grads = nn.backward(params, spec, cache, grad_logits)
        num = numeric_gradient(params, spec, x, labels)
        for key in grads.keys():
            denom = np.maximum(np.abs(num[key]), 1e-3)
            rel = np.abs(grads[key] - num[key]) / denom
            worst = max(worst, float(rel.max()))
    assert worst < 1e-4, f"worst relative gradient error {worst}"


@settings(max_examples=60, deadline=None)
@given(widths=st.lists(st.integers(1, 6), min_size=2, max_size=6), data=st.data(),
       input_grad=st.booleans(), loss=st.booleans(), out=st.booleans(),
       seed=st.integers(0, 2**31 - 1))
def test_pass_matches_forward_and_backward(widths, data, input_grad, loss, out, seed):
    """``nn.Pass`` over any layer range gives ``forward``'s output and
    ``backward``'s gradients bit for bit, at its full row count and at
    fewer rows, its buffers reused between the two. With ``out`` the output
    lands in the first rows of that array, and with ``loss``
    ``cross_entropy`` gives ``softmax_cross_entropy``'s bits, with and
    without a split."""
    spec = nn.NetworkSpec(widths)
    layers = len(spec.layers)
    start = data.draw(st.integers(0, layers - 1))
    stop = data.draw(st.integers(start + 1, layers))
    rows = data.draw(st.integers(1, 9))
    k = spec.width_after(stop)
    rng = np.random.default_rng(seed)
    params = nn.init_params(spec, seed % 1000)
    grads = params.zeros_like()
    # two spare rows, which no pass may write
    target = np.full((rows + 2, k), np.nan) if out else None
    step = nn.Pass(params, grads, spec, start, stop, rows, out=target, input_grad=input_grad,
                   loss=loss)
    for n in (rows, data.draw(st.integers(1, rows)), rows):
        x = rng.normal(size=(n, spec.width_after(start)))
        upstream = rng.normal(size=(n, k))
        want, cache = nn.forward(params, spec, x, start, stop)
        ref = nn.backward(params, spec, cache, upstream, out=params.zeros_like(),
                          input_grad=input_grad)
        got = step.forward(x)
        assert got.tobytes() == want.tobytes()
        if out:
            assert np.shares_memory(got, target)
            assert target[:n].tobytes() == want.tobytes()
            assert np.isnan(target[rows:]).all()
        if loss:
            labels = rng.integers(0, k, size=n)
            step.labels[:n] = labels
            for split in (None, *([data.draw(st.integers(1, n - 1))] if n > 1 else [])):
                got_loss, got_grad = step.cross_entropy(split)
                want_loss, want_grad = nn.softmax_cross_entropy(want, labels, split=split)
                assert np.array(got_loss).tobytes() == np.array(want_loss).tobytes()
                assert got_grad.tobytes() == want_grad.tobytes()
        got = step.backward(upstream)
        if input_grad:
            ref, at_input = ref
            assert got.tobytes() == at_input.tobytes()
        else:
            assert got is None
        cached = [idx >> 1 for idx, _ in cache if not idx & 1]
        for j in cached:
            for a, b in zip(grads.pairs[j], ref.pairs[j]):
                assert a.tobytes() == b.tobytes()


class TestAdam:
    def test_zero_gradient_zero_decay(self):
        spec = nn.mlp_spec(3, (4,), (), 2)
        params = nn.init_params(spec, 0)
        before = params.copy()
        state = nn.AdamState(learning_rate=0.1, weight_decay=0.0)
        nn.adam_step(params, params.zeros_like(), state)
        assert params_equal(params, before)
        assert state.step == 1
        for key in params.keys():
            assert np.array_equal(state.m[key], np.zeros_like(params[key]))
            assert np.array_equal(state.v[key], np.zeros_like(params[key]))

    def test_lr_zero_freezes(self):
        spec = nn.mlp_spec(3, (4,), (), 2)
        params = nn.init_params(spec, 0)
        before = params.copy()
        grads = params.copy()  # arbitrary nonzero gradient
        state = nn.AdamState(learning_rate=0.0, weight_decay=0.0)
        nn.adam_step(params, grads, state)
        assert params_equal(params, before)

    def test_hand_evaluated_first_step(self):
        # scalar w=1, g=1, lr=0.1, wd=0 -> m_hat=1, v_hat=1, w = 1 - 0.1/(1+eps)
        spec = nn.NetworkSpec((1, 1, 1), split_index=2)
        params = params_from(spec, {})
        grads = params.zeros_like()
        grads[(0, "W")] = np.array([[1.0]])
        state = nn.AdamState(learning_rate=0.1, weight_decay=0.0)
        nn.adam_step(params, grads, state)
        expected = 1.0 - 0.1 * 1.0 / (1.0 + nn._EPS)
        assert params[(0, "W")][0, 0] == pytest.approx(expected, abs=1e-12)

    def test_non_finite_gradient_rejected(self):
        spec = nn.mlp_spec(2, (2,), (), 2)
        params = nn.init_params(spec, 0)
        grads = params.zeros_like()
        grads[(0, "W")][0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            nn.adam_step(params, grads, nn.AdamState())

    def test_determinism_across_runs(self):
        spec = nn.mlp_spec(4, (5,), (3,), 2)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(8, 4))
        labels = rng.integers(0, 2, size=8)

        def train():
            params = nn.init_params(spec, 9)
            state = nn.AdamState(learning_rate=1e-2)
            for _ in range(10):
                logits, cache = nn.forward_full(params, spec, x)
                _, g = nn.softmax_cross_entropy(logits, labels)
                grads = nn.backward(params, spec, cache, g)
                nn.adam_step(params, grads, state)
            return params

        assert params_equal(train(), train())
