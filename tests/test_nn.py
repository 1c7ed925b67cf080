"""Unit tests for the dense network substrate: forward/backward passes, the
extractor/classifier split, the cross-entropy loss, and the optimizers.

Closed-form expected values were computed by hand (or with a finite-difference
oracle) before being asserted here.
"""

import numpy as np
import pytest

from fedmp import nn

from helpers import params_equal


def single_affine_spec(n_in, n_out, split_before_last=True):
    """affine | split | affine(identity-susceptible) helper used repeatedly."""
    return nn.NetworkSpec(
        layers=(nn.affine(n_in, n_out), nn.affine(n_out, n_out)),
        split_index=1,
        num_classes=n_out,
    )


def params_from(spec, mapping):
    values = {}
    for idx, layer in enumerate(spec.layers):
        if layer[0] != nn.AFFINE:
            continue
        _, n_in, n_out = layer
        w, b = mapping.get(idx, (np.eye(n_in, n_out), np.zeros(n_out)))
        values[(idx, "W")] = np.asarray(w, dtype=np.float64)
        values[(idx, "b")] = np.asarray(b, dtype=np.float64)
    return nn.Parameters(values)


class TestNetworkSpec:
    def test_split_index_bounds_rejected(self):
        with pytest.raises(nn.ShapeError):
            nn.NetworkSpec(layers=(nn.affine(2, 2),), split_index=1, num_classes=2)
        with pytest.raises(nn.ShapeError):
            nn.NetworkSpec(
                layers=(nn.affine(2, 2), nn.affine(2, 2)), split_index=0, num_classes=2
            )

    def test_last_layer_must_match_classes(self):
        with pytest.raises(nn.ShapeError):
            nn.NetworkSpec(
                layers=(nn.affine(2, 3), nn.affine(3, 4)), split_index=1, num_classes=2
            )

    def test_adjacent_width_mismatch_rejected(self):
        with pytest.raises(nn.ShapeError):
            nn.NetworkSpec(
                layers=(nn.affine(2, 3), nn.affine(5, 2)), split_index=1, num_classes=2
            )

    def test_non_positive_affine_width_rejected(self):
        with pytest.raises(nn.ShapeError, match="layer 0"):
            nn.mlp_spec(16, (0,), (), 3)
        with pytest.raises(nn.ShapeError, match="layer 2"):
            nn.NetworkSpec(
                layers=(nn.affine(2, 3), nn.relu(), nn.affine(3, -1)),
                split_index=1, num_classes=-1,
            )

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
        out, _ = nn.forward_extractor(params, spec, np.array([1.0, 2.0]))
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_zero_weights_annihilate(self):
        spec = nn.NetworkSpec(
            layers=(nn.affine(3, 4), nn.relu(), nn.affine(4, 2)),
            split_index=2,
            num_classes=2,
        )
        params = params_from(spec, {0: (np.zeros((3, 4)), np.zeros(4))})
        out, _ = nn.forward_extractor(params, spec, np.array([5.0, -2.0, 7.0]))
        assert np.array_equal(out, np.zeros((1, 4)))

    def test_hand_computed_affine_relu(self):
        # x @ W + b with W=[[1,0],[1,1]], b=[0.5,-3], x=[1,1]:
        # pre-activation [2.5, -2] -> relu gives [2.5, 0]
        spec = nn.NetworkSpec(
            layers=(nn.affine(2, 2), nn.relu(), nn.affine(2, 2)),
            split_index=2,
            num_classes=2,
        )
        params = params_from(spec, {0: ([[1.0, 0.0], [1.0, 1.0]], [0.5, -3.0])})
        out, _ = nn.forward_extractor(params, spec, np.array([1.0, 1.0]))
        assert np.allclose(out, [[2.5, 0.0]], atol=1e-12)

    def test_classifier_identity(self):
        # classifier = single affine W=I, b=0: u=[3,-1] -> [3,-1]
        spec = single_affine_spec(2, 2)
        params = params_from(spec, {})
        out, _ = nn.forward_classifier(params, spec, np.array([3.0, -1.0]))
        assert np.array_equal(out, [[3.0, -1.0]])

    def test_classifier_hand_computed(self):
        # W=2I, b=[1,1], u=[1,2] -> [3,5]
        spec = single_affine_spec(2, 2)
        params = params_from(spec, {1: (2.0 * np.eye(2), [1.0, 1.0])})
        out, _ = nn.forward_classifier(params, spec, np.array([1.0, 2.0]))
        assert np.allclose(out, [[3.0, 5.0]], atol=1e-12)

    def test_split_composition_bitwise(self):
        spec = nn.mlp_spec(5, (7, 4), (6,), 3)
        params = nn.init_params(spec, 3)
        x = np.random.default_rng(0).normal(size=(11, 5))
        u, _ = nn.forward_extractor(params, spec, x)
        via_split, _ = nn.forward_classifier(params, spec, u)
        full, _ = nn.forward_full(params, spec, x)
        assert np.array_equal(via_split, full)

    def test_shape_mismatch_names_layer(self):
        spec = nn.mlp_spec(4, (5,), (), 2)
        params = nn.init_params(spec, 0)
        with pytest.raises(nn.ShapeError, match="layer 0"):
            nn.forward_full(params, spec, np.ones((2, 3)))


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
        spec = nn.NetworkSpec(
            layers=(nn.affine(1, 1), nn.affine(1, 1)), split_index=1, num_classes=1
        )
        params = params_from(spec, {})
        _, cache = nn.forward_extractor(params, spec, np.array([2.0]))
        grads = nn.backward(params, spec, cache, np.array([[1.0]]))
        assert grads[(0, "W")] == pytest.approx(2.0)
        assert grads[(0, "b")] == pytest.approx(1.0)

    def test_classifier_only_cache_isolates_extractor(self):
        spec = nn.mlp_spec(4, (6,), (5,), 3)
        params = nn.init_params(spec, 2)
        u = np.random.default_rng(1).normal(size=(3, 6))
        out, cache = nn.forward_classifier(params, spec, u)
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
        spec = nn.NetworkSpec(
            layers=(nn.affine(1, 1), nn.affine(1, 1)), split_index=1, num_classes=1
        )
        params = params_from(spec, {})
        grads = params.zeros_like()
        grads[(0, "W")] = np.array([[1.0]])
        state = nn.AdamState(learning_rate=0.1, weight_decay=0.0)
        nn.adam_step(params, grads, state)
        expected = 1.0 - 0.1 * 1.0 / (1.0 + state.eps)
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


class TestSgd:
    def test_single_step_matches_formula(self):
        spec = nn.NetworkSpec(
            layers=(nn.affine(1, 1), nn.affine(1, 1)), split_index=1, num_classes=1
        )
        params = params_from(spec, {})
        grads = params.zeros_like()
        grads[(0, "W")] = np.array([[2.0]])
        state = nn.AdamState(learning_rate=0.5, weight_decay=0.0)
        nn.sgd_step(params, grads, state)
        assert params[(0, "W")][0, 0] == pytest.approx(1.0 - 0.5 * 2.0)

    def test_weight_decay_enters_gradient(self):
        spec = nn.NetworkSpec(
            layers=(nn.affine(1, 1), nn.affine(1, 1)), split_index=1, num_classes=1
        )
        params = params_from(spec, {})
        state = nn.AdamState(learning_rate=0.1, weight_decay=0.5)
        nn.sgd_step(params, params.zeros_like(), state)
        # g = 0 + wd * w = 0.5 -> w = 1 - 0.1*0.5
        assert params[(0, "W")][0, 0] == pytest.approx(0.95)
