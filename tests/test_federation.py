"""Unit tests for the federated training building blocks: the adaptive loss
combination, both auxiliary losses, the EMA updates, aggregation, local
training from a broadcast model, the round loop, and the few-shot schedule."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmp import federation, nn
from fedmp.data import ClientShard, DatasetSpec, generate_federation
from fedmp.federation import (
    EPS_GUARD,
    FederationConfig,
    aggregate_models,
    combine_losses,
    compute_sfmc_loss,
    cpgma_embedding_grad,
    ensemble_predict,
    local_train,
    one_shot_prototypes,
    run_federation,
    run_few_shot,
    unit_prototypes,
    update_client_center,
    update_global_prototype,
)
from fedmp.protocol import (
    DOWN,
    KIND_FEATURES,
    KIND_PROTOTYPES,
    FeatureBank,
    FeatureBatch,
    deserialize_features,
    feature_blob_bytes,
    serialize_features,
    serialize_model,
)

from helpers import one_blas_thread, params_equal, traced_peak


def small_spec(d0=4, k=3):
    return nn.mlp_spec(d0, (6,), (5,), k)


def assert_exactly_zero(grads: nn.Parameters, layers) -> None:
    """The tensors of ``layers`` are +0.0, sign bit clear."""
    for key in grads.keys():
        if key[0] in layers:
            assert grads[key].tobytes() == np.zeros(grads[key].shape).tobytes(), key


def small_federation(num_clients=3, n=12, d0=4, k=3, seed=0, skew=1.0):
    spec = DatasetSpec(
        input_dim=d0, num_classes=k, samples_per_client=n, num_clients=num_clients,
        skew_strength=skew, noise_std=0.1, seed=seed,
    )
    return generate_federation(spec)


class TestFederationConfig:
    @pytest.mark.parametrize("name", ["num_clients", "num_classes"])
    def test_u16_fields_bounded(self, name):
        # feature blobs pack client ids and labels as u16
        FederationConfig(**{name: 0xFFFF})
        with pytest.raises(ValueError, match=name):
            FederationConfig(**{name: 0x10000})


class TestCombineLosses:
    def test_sfmc_only_hand_value(self):
        # l_local=2, l_sfmc=4 -> w_s = 2/(4+eps), L = 2 + w_s*4, about 4
        w_s, w_c = combine_losses(2.0, 4.0, None)
        assert w_s == 2.0 / (4.0 + EPS_GUARD) and w_c == 0.0
        assert 2.0 + w_s * 4.0 == pytest.approx(4.0, abs=1e-8)
        # the scaled auxiliary term's forward value is l_local, less the guard's share
        assert w_s * 4.0 == pytest.approx(2.0, abs=1e-8)

    def test_both_disabled_is_local(self):
        # a module that is off passes None
        assert combine_losses(1.7, None, None) == (0.0, 0.0)

    def test_negative_cpgma_sign_preserved(self):
        # l_local=2, l_cpgma=-0.5 -> w_c = 2/(0.5+eps), about 4, contribution
        # about -2, L about 0
        w_s, w_c = combine_losses(2.0, None, -0.5)
        assert w_s == 0.0 and w_c == 2.0 / (0.5 + EPS_GUARD)
        assert 2.0 + w_c * -0.5 == pytest.approx(0.0, abs=1e-7)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match=r"^non-finite loss inputs \[nan, 0.0, 0.0\]$"):
            combine_losses(float("nan"), None, None)
        with pytest.raises(ValueError):
            combine_losses(1.0, float("inf"), 1.0)

    def test_zero_auxiliary_contributes_nothing(self):
        assert combine_losses(3.0, 0.0, 0.0) == (0.0, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        l_local=st.floats(0.01, 50.0),
        l_aux=st.floats(0.01, 50.0),
    )
    def test_forward_law(self, l_local, l_aux):
        # whenever both losses are positive, the scaled auxiliary forward value
        # equals l_local up to the epsilon guard, for either module
        w_s, _ = combine_losses(l_local, l_aux, None)
        _, w_c = combine_losses(l_local, None, l_aux)
        assert w_s == w_c
        assert w_s * l_aux == pytest.approx(l_local, rel=1e-5)


def float32_rows(rng, n, d, k=3, client_id=1):
    """Labeled float32 rows, as a decoded blob holds them, and the same rows
    upcast to float64."""
    rows = FeatureBatch.of_client(rng.normal(size=(n, d)).astype(np.float32),
                                  rng.integers(0, k, n), client_id, 1)
    return rows, dataclasses.replace(rows, embeddings=rows.embeddings.astype(np.float64))


class TestSfmcLoss:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 200), seed=st.integers(0, 2**31 - 1))
    def test_float32_rows_give_the_bits_of_upcast_rows(self, n, seed):
        # the head pass upcasts decoded rows before its first product, so its
        # loss and gradients are those of the rows upcast first
        spec = nn.mlp_spec(16, (64,), (32, 16), 3)
        params = nn.init_params(spec, seed % 1000)
        rows, upcast = float32_rows(np.random.default_rng(seed), n, spec.embedding_dim)
        (l32, g32), (l64, g64) = (compute_sfmc_loss(params, spec, b) for b in (rows, upcast))
        assert l32 == l64 and g32.vec.tobytes() == g64.vec.tobytes()

    def test_empty_sample_rejected(self):
        # local_train runs the head pass only on a drawn sample, never empty
        spec = small_spec()
        with pytest.raises(ValueError):
            compute_sfmc_loss(nn.init_params(spec, 0), spec, FeatureBatch.concat([]))

    def test_uniform_logits_ln2(self):
        # zeroed classifier on K=2 gives uniform logits -> ln 2
        spec = nn.NetworkSpec(
            layers=(nn.affine(2, 3), nn.affine(3, 2)), split_index=1, num_classes=2
        )
        params = nn.init_params(spec, 0)
        params[(1, "W")][:] = 0.0
        params[(1, "b")][:] = 0.0
        rec = FeatureBatch.of_client(np.array([[1.0, -2.0, 0.5]]), [0], 1, 1)
        loss, _ = compute_sfmc_loss(params, spec, rec)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_mean_of_closed_forms(self):
        # two records with per-record losses ln(1+e^-1) and ln 2 -> their mean
        spec = nn.NetworkSpec(
            layers=(nn.affine(2, 2), nn.affine(2, 2)), split_index=1, num_classes=2
        )
        params = nn.Parameters({
            (0, "W"): np.eye(2), (0, "b"): np.zeros(2),
            (1, "W"): np.eye(2), (1, "b"): np.zeros(2),
        })
        recs = FeatureBatch.of_client(np.array([
            [1.0, 0.0],     # logits [1,0] -> ln(1+e^-1)
            [0.0, 0.0],     # logits [0,0] -> ln 2
        ]), [0, 0], 1, 1)
        loss, _ = compute_sfmc_loss(params, spec, recs)
        expected = 0.5 * (np.log(1 + np.exp(-1.0)) + np.log(2.0))
        assert loss == pytest.approx(expected, abs=1e-9)

    def test_gradients_classifier_only(self):
        spec = small_spec()
        params = nn.init_params(spec, 1)
        recs = FeatureBatch.of_client(np.ones((1, spec.embedding_dim)), [0], 1, 1)
        _, grads = compute_sfmc_loss(params, spec, recs)
        assert grads.layout is params.layout
        assert_exactly_zero(grads, range(spec.split_index))

    def test_extractor_perturbation_leaves_loss(self):
        # finite-difference check of the gradient-isolation invariant
        spec = small_spec()
        params = nn.init_params(spec, 2)
        recs = FeatureBatch.of_client(
            np.arange(spec.embedding_dim, dtype=float)[None, :], [1], 1, 1)
        base, _ = compute_sfmc_loss(params, spec, recs)
        params[(0, "W")][0, 0] += 0.37
        after, _ = compute_sfmc_loss(params, spec, recs)
        assert base == after


class TestCpgmaLoss:
    def test_embedding_equals_prototype(self):
        protos = np.array([[2.0, 0.0], [0.0, 1.0]])
        u = np.array([[4.0, 0.0], [1.0, 0.0]])  # same direction as prototype 0
        loss, _ = cpgma_embedding_grad(u, np.array([0, 0]), unit_prototypes(protos))
        assert loss == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        protos = np.array([[1.0, 0.0]])
        u = np.array([[0.0, 3.0]])
        loss, grad = cpgma_embedding_grad(u, np.array([0]), unit_prototypes(protos))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_hand_cosine_average(self):
        # samples [1,0] and [0,1] vs prototype [1,0] -> -(1+0)/2 = -0.5
        protos = np.array([[1.0, 0.0]])
        u = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = cpgma_embedding_grad(u, np.array([0, 0]), unit_prototypes(protos))
        assert loss == pytest.approx(-0.5, abs=1e-12)

    def test_zero_prototype_skipped(self):
        protos = np.zeros((2, 3))
        u = np.random.default_rng(0).normal(size=(4, 3))
        loss, grad = cpgma_embedding_grad(u, np.array([0, 1, 0, 1]), unit_prototypes(protos))
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(u))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=(6, 4))
        labels = np.array([0, 1, 2, 0, 1, 2])
        protos = rng.normal(size=(3, 4))
        _, grad = cpgma_embedding_grad(u, labels, unit_prototypes(protos))

        def f(uu):
            total = 0.0
            for c in range(3):
                idx = np.flatnonzero(labels == c)
                p = protos[c] / np.linalg.norm(protos[c])
                cos = [uu[j] @ p / np.linalg.norm(uu[j]) for j in idx]
                total += np.mean(cos)
            return -total

        h = 1e-6
        for i in range(u.shape[0]):
            for j in range(u.shape[1]):
                up, dn = u.copy(), u.copy()
                up[i, j] += h
                dn[i, j] -= h
                num = (f(up) - f(dn)) / (2 * h)
                assert grad[i, j] == pytest.approx(num, abs=1e-7)

    def test_gradients_extractor_only(self):
        # the alignment backward that local_train runs reaches the extractor only
        spec = small_spec()
        params = nn.init_params(spec, 3)
        x = np.random.default_rng(2).normal(size=(5, 4))
        labels = np.array([0, 1, 2, 0, 1])
        protos = np.random.default_rng(3).normal(size=(3, spec.embedding_dim))
        u, cache = nn.forward_extractor(params, spec, x)
        _, grad_u = cpgma_embedding_grad(u, labels, unit_prototypes(protos))
        grads = nn.backward(params, spec, cache, grad_u)
        assert grads.layout is params.layout
        assert_exactly_zero(grads, range(spec.split_index, len(spec.layers)))


class TestEmaUpdates:
    def test_full_replacement(self):
        center = np.array([5.0, 5.0])
        batch = np.array([[2.0, 0.0], [0.0, 2.0]])
        out = update_client_center(center, batch, mu_client=1.0)
        assert np.allclose(out, [1.0, 1.0], atol=1e-12)

    def test_halfway_ema(self):
        out = update_client_center(np.zeros(2), np.array([[2.0, 2.0]]), 0.5)
        assert np.allclose(out, [1.0, 1.0], atol=1e-12)

    def test_empty_batch_noop(self):
        center = np.array([3.0, 4.0])
        out = update_client_center(center, np.zeros((0, 2)), 0.5)
        assert np.array_equal(out, center)

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            update_client_center(np.zeros(2), np.ones((1, 2)), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300), d=st.integers(1, 81), seed=st.integers(0, 2**31 - 1))
    def test_float32_rows_average_in_float64(self, n, d, seed):
        rng = np.random.default_rng(seed)
        rows, upcast = float32_rows(rng, n, d)
        center = rng.normal(size=d)
        got = update_client_center(center, rows.embeddings, 0.3)
        assert got.dtype == np.float64
        assert got.tobytes() == update_client_center(center, upcast.embeddings, 0.3).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(1, 200), min_size=1, max_size=5),
           d=st.integers(1, 81), seed=st.integers(0, 2**31 - 1))
    def test_one_shot_prototypes_average_float32_rows_in_float64(self, sizes, d, seed):
        rng = np.random.default_rng(seed)
        pairs = {cid: float32_rows(rng, n, d, client_id=cid) for cid, n in enumerate(sizes)}
        weights = dict(enumerate(sizes))
        got = one_shot_prototypes({cid: p[0] for cid, p in pairs.items()}, weights, 3, d)
        want = one_shot_prototypes({cid: p[1] for cid, p in pairs.items()}, weights, 3, d)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_prototype_weighted_mean(self):
        # mu=1, sizes 100/300, centers [1,0] and [0,1] -> [0.25, 0.75]
        out = update_global_prototype(
            np.zeros(2), [np.array([1.0, 0.0]), np.array([0.0, 1.0])], [100, 300], 1.0
        )
        assert np.allclose(out, [0.25, 0.75], atol=1e-12)

    def test_prototype_fixed_point(self):
        v = np.array([2.0, -1.0])
        out = update_global_prototype(v.copy(), [v, v], [10, 20], 0.7)
        assert np.allclose(out, v, atol=1e-12)

    def test_prototype_hand_ema(self):
        # mu=0.7, p=[1,0], weighted mean [0,1] -> [0.3, 0.7]
        out = update_global_prototype(
            np.array([1.0, 0.0]), [np.array([0.0, 1.0])], [5], 0.7
        )
        assert np.allclose(out, [0.3, 0.7], atol=1e-12)

    def test_prototype_contraction(self):
        # constant features: ||p - v|| strictly decreases per round
        v = np.array([1.0, 2.0, 3.0])
        p = np.zeros(3)
        prev = np.linalg.norm(p - v)
        for _ in range(5):
            p = update_global_prototype(p, [v, v, v], [4, 4, 4], 0.7)
            cur = np.linalg.norm(p - v)
            assert cur < prev
            prev = cur

    def test_zero_sizes_rejected(self):
        with pytest.raises(ValueError):
            update_global_prototype(np.zeros(2), [np.zeros(2)], [0], 0.5)


class TestAggregation:
    def scalar_params(self, value):
        return nn.Parameters({(0, "W"): np.array([[float(value)]])})

    def test_equal_sizes_mean(self):
        out = aggregate_models([self.scalar_params(2), self.scalar_params(4)], [7, 7])
        assert out[(0, "W")][0, 0] == pytest.approx(3.0)

    def test_weighted_mean(self):
        out = aggregate_models([self.scalar_params(0), self.scalar_params(4)], [1, 3])
        assert out[(0, "W")][0, 0] == pytest.approx(3.0)

    def test_single_client_identity(self):
        spec = small_spec()
        params = nn.init_params(spec, 5)
        out = aggregate_models([params], [10])
        assert out.layout is params.layout and np.allclose(out.vec, params.vec, atol=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_models([], [])


class TestEnsemble:
    def test_single_model_is_argmax(self):
        spec = small_spec()
        params = nn.init_params(spec, 0)
        x = np.random.default_rng(0).normal(size=(6, 4))
        logits, _ = nn.forward_full(params, spec, x)
        assert np.array_equal(ensemble_predict([params], spec, x), logits.argmax(axis=1))

    def test_mean_softmax_hand_case(self):
        # two 1-layer models with logits chosen so softmaxes average to
        # favour class 0: [0.9,0.1] and [0.2,0.8] -> mean [0.55,0.45]
        spec = nn.NetworkSpec(
            layers=(nn.affine(2, 2), nn.affine(2, 2)), split_index=1, num_classes=2
        )

        def model_with_probs(p):
            logit = np.log(p / (1 - p))
            return nn.Parameters({
                (0, "W"): np.eye(2), (0, "b"): np.zeros(2),
                (1, "W"): np.zeros((2, 2)), (1, "b"): np.array([logit, 0.0]),
            })

        models = [model_with_probs(0.9), model_with_probs(0.2)]
        pred = ensemble_predict(models, spec, np.zeros((1, 2)))
        assert pred[0] == 0

    def test_identical_models_match_single(self):
        spec = small_spec()
        params = nn.init_params(spec, 1)
        x = np.random.default_rng(1).normal(size=(5, 4))
        single = ensemble_predict([params], spec, x)
        triple = ensemble_predict([params, params.copy(), params.copy()], spec, x)
        assert np.array_equal(single, triple)

    def test_tie_breaks_to_smallest_class(self):
        spec = nn.NetworkSpec(
            layers=(nn.affine(2, 2), nn.affine(2, 2)), split_index=1, num_classes=2
        )
        params = nn.Parameters({
            (0, "W"): np.eye(2), (0, "b"): np.zeros(2),
            (1, "W"): np.zeros((2, 2)), (1, "b"): np.zeros(2),
        })
        pred = ensemble_predict([params], spec, np.zeros((1, 2)))
        assert pred[0] == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ensemble_predict([], small_spec(), np.zeros((1, 4)))


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestRowBlocks:
    """A whole set is scored in blocks of ``EVAL_ROWS`` rows, with the bits
    of one forward over the whole set on the networks the runs use."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.one_of(st.sampled_from([1, 2, 1023, 1024, 1025, 1026, 2049, 10001]),
                       st.integers(1, 10001)),
           split=st.sampled_from([1, 2]), seed=st.integers(0, 2**31 - 1))
    def test_blocked_logits_are_the_whole_sets(self, n, split, seed):
        """The network of every benchmark and of the default config (16, 64,
        32, 16, 3), split after either hidden layer, at one BLAS thread."""
        spec = nn.mlp_spec(16, (64, 32)[:split], (32, 16)[split - 1:], 3)
        params = nn.init_params(spec, seed % 1000)
        x = np.random.default_rng(seed).normal(size=(n, 16))
        with one_blas_thread():
            blocks = list(federation._logit_blocks(params, spec, x))
            whole, _ = nn.forward_full(params, spec, x)
        starts = [rows.start for rows, _ in blocks]
        assert all(start % federation.EVAL_ROWS == 0 for start in starts)
        assert [rows.stop for rows, _ in blocks] == [*starts[1:], n]
        assert n == 1 or all(rows.stop - rows.start > 1 for rows, _ in blocks)
        assert same_bits(np.concatenate([logits for _, logits in blocks]), whole)

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 2, 1023, 1024, 1025, 1026, 2049, 10001]),
           d0=st.integers(1, 40), hidden=st.integers(1, 80), head=st.integers(1, 40),
           k=st.integers(2, 12), seed=st.integers(0, 2**31 - 1))
    def test_blocked_logits_of_any_widths_agree_to_rounding(self, n, d0, hidden, head, k, seed):
        """At other widths a layer's product can take another OpenBLAS path
        in a block than over the whole set: the SkylakeX kernel has a
        small-matrix path for products of up to 10^6 multiply-adds, so at
        widths (1, 25, 4, 2) and 10,001 rows the logits differ in their last
        bits. They still agree to rounding, and so do the accuracies."""
        spec = nn.mlp_spec(d0, (hidden,), (head,), k)
        params = nn.init_params(spec, seed % 1000)
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(n, d0)), rng.integers(0, k, size=n)
        blocked = np.concatenate([logits for _, logits in
                                  federation._logit_blocks(params, spec, x)])
        whole, _ = nn.forward_full(params, spec, x)
        assert np.allclose(blocked, whole, rtol=1e-12, atol=1e-12)
        assert federation.evaluate_accuracy(params, spec, x, y) == \
            float((whole.argmax(axis=1) == y).mean())

    @pytest.mark.parametrize("n", [1, 1025, 2049, 3000])
    def test_accuracy_and_ensemble_match_the_whole_set(self, n):
        spec = nn.mlp_spec(16, (64,), (32, 16), 3)
        models = [nn.init_params(spec, seed) for seed in range(3)]
        rng = np.random.default_rng(n)
        x, y = rng.normal(size=(n, 16)), rng.integers(0, 3, size=n)
        with one_blas_thread():
            whole = [nn.forward_full(params, spec, x)[0] for params in models]
            for params, logits in zip(models, whole):
                want = float((logits.argmax(axis=1) == y).mean())
                assert federation.evaluate_accuracy(params, spec, x, y).hex() == want.hex()
            probs = np.zeros((n, 3))
            for logits in whole:
                probs += nn.softmax(logits)
            assert np.array_equal(ensemble_predict(models, spec, x), probs.argmax(axis=1))

    def test_accuracy_memory_is_one_block(self):
        """10,000 rows at scale M: the largest block's activations (1,025
        rows through layers 64, 32, 16 and 3 wide) and a little more; one
        forward over every row held 9.3 MB."""
        spec = nn.mlp_spec(16, (64,), (32, 16), 3)
        params = nn.init_params(spec, 0)
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(10_000, 16)), rng.integers(0, 3, size=10_000)
        block = (federation.EVAL_ROWS + 1) * (64 + 32 + 16 + 3) * 8
        assert traced_peak(lambda: federation.evaluate_accuracy(params, spec, x, y)) \
            < block + (256 << 10)

    def test_empty_set_rejected(self):
        spec = small_spec()
        params = nn.init_params(spec, 0)
        with pytest.raises(ValueError, match="empty"):
            federation.evaluate_accuracy(params, spec, np.zeros((0, 4)), np.zeros(0, np.int64))
        with pytest.raises(ValueError, match="empty"):
            ensemble_predict([params], spec, np.zeros((0, 4)))

    @pytest.mark.parametrize("run", [run_federation, run_few_shot])
    def test_runs_reject_an_empty_test_set_before_training(self, run, monkeypatch):
        shards, global_test = small_federation()
        empty = ClientShard(global_test.client_id, global_test.inputs[:0], global_test.labels[:0])
        cfg = FederationConfig(rounds=1, num_clients=3, num_classes=3, track_geometry=False)

        def no_training(*args, **kwargs):
            raise AssertionError("trained before rejecting the test set")

        monkeypatch.setattr(federation, "_train", no_training)
        with pytest.raises(ValueError, match="global_test is empty"):
            run(cfg, shards, small_spec(), empty)


class TestClientUpdate:
    def config(self, **kw):
        base = dict(rounds=1, num_clients=1, local_epochs=2, num_classes=3,
                    batch_size=4, learning_rate=1e-3, seed=0)
        base.update(kw)
        return FederationConfig(**base)

    def shard(self, n=10):
        rng = np.random.default_rng(0)
        return ClientShard(
            client_id=0,
            inputs=rng.normal(size=(n, 4)),
            labels=(np.arange(n) % 3).astype(np.int64),
        )

    def test_lr_zero_keeps_broadcast_params(self):
        spec = small_spec()
        server = nn.init_params(spec, 0)
        cfg = self.config(learning_rate=0.0, enable_sfmc=False, enable_cpgma=False)
        params, upload, _ = federation._train(server, spec, self.shard(), cfg, 2, 1, 1)
        assert params_equal(params, server) and params is not server
        assert len(deserialize_features(upload)) == len(self.shard())

    def test_feature_collection_counts(self):
        spec = small_spec()
        server = nn.init_params(spec, 0)
        cfg = self.config(enable_sfmc=False, enable_cpgma=False)
        _, upload, _ = federation._train(server, spec, self.shard(11), cfg, 2, 1, 1)
        # every sample contributes exactly one final-epoch record, in one blob
        assert len(upload) == feature_blob_bytes(11, spec.embedding_dim)
        rows = deserialize_features(upload)
        assert len(rows) == 11 and rows.embeddings.dtype == np.float32

    def test_single_step_matches_reference(self):
        # E=1, one batch, modules off: equals one standalone Adam step
        spec = small_spec()
        server = nn.init_params(spec, 4)
        shard = self.shard(4)
        cfg = self.config(local_epochs=1, batch_size=4,
                          enable_sfmc=False, enable_cpgma=False)
        got, _, _ = federation._train(server, spec, shard, cfg, 1, 1, 1)

        # oracle: replicate by hand with the same shuffle
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[cfg.seed, 1, 1, 0]))
        order = rng.permutation(4)
        ref = server.copy()
        x, y = shard.inputs[order], shard.labels[order]
        logits, cache = nn.forward_full(ref, spec, x)
        _, glogits = nn.softmax_cross_entropy(logits, y)
        grads = nn.backward(ref, spec, cache, glogits)
        state = nn.AdamState(learning_rate=cfg.learning_rate, weight_decay=cfg.weight_decay)
        nn.adam_step(ref, grads, state)
        assert params_equal(got, ref)

    @pytest.mark.parametrize("sfmc,cpgma", [(False, False), (True, False), (False, True)])
    def test_features_collected_only_when_read(self, monkeypatch, sfmc, cpgma):
        # with both modules off nothing reads the final-epoch embeddings
        returned = []

        def spy(*args, **kwargs):
            out = original(*args, **kwargs)
            returned.append(out[0])
            return out

        original = federation.local_train
        monkeypatch.setattr(federation, "local_train", spy)
        shards, global_test = small_federation(num_clients=2)
        cfg = FederationConfig(rounds=2, num_clients=2, local_epochs=1, num_classes=3,
                               batch_size=4, seed=0, enable_sfmc=sfmc, enable_cpgma=cpgma,
                               track_geometry=False)
        run_federation(cfg, shards, small_spec(), global_test)
        assert len(returned) == 4
        rows = [sum(len(b) for b in batches) for batches in returned]
        assert rows == ([0] * 4 if not (sfmc or cpgma) else [12] * 4)

    def test_no_batches_when_not_collecting(self):
        spec = small_spec()
        server = nn.init_params(spec, 0)
        cfg = self.config(enable_sfmc=False, enable_cpgma=False)
        _, upload, _ = federation._train(server, spec, self.shard(), cfg, 2, 1, 1,
                                         collect_final_epoch=False)
        assert upload is None

    @pytest.mark.parametrize("warm", [False, True])
    def test_backwards_per_mini_batch(self, monkeypatch, warm):
        # one local backward over the whole network per mini-batch, plus an
        # extractor-only CPGMA backward only once its weight is nonzero
        spec = small_spec()
        calls = []

        def spy(params, spec, cache, *args, **kwargs):
            calls.append((cache[0][0], cache[-1][0] + 1))
            return original(params, spec, cache, *args, **kwargs)

        original = nn.backward
        monkeypatch.setattr(nn, "backward", spy)
        prototypes = np.zeros((3, spec.embedding_dim))
        if warm:
            prototypes[1] = 1.0
        shard = self.shard(12)
        shard.labels[:] = 1                # so every batch holds the warm class
        cfg = self.config(batch_size=4, enable_sfmc=False, enable_cpgma=True)
        _, tally = local_train(nn.init_params(spec, 0), spec, shard, cfg, 2,
                               np.random.default_rng(0), prototypes=prototypes)
        assert tally[3] == 6
        whole, extractor = (0, len(spec.layers)), (0, spec.split_index)
        assert calls == ([whole, extractor] * 6 if warm else [whole] * 6)

    @pytest.mark.parametrize("cpgma", [False, True])
    def test_prototypes_normalized_once_per_call(self, monkeypatch, cpgma):
        # the prototypes stay fixed while a client trains, so every
        # mini-batch's CPGMA pass reads the unit prototypes made at the start
        spec = small_spec()
        made, passed = [], []

        def spy_units(*args, **kwargs):
            made.append(original_units(*args, **kwargs))
            return made[-1]

        def spy_grad(*args, **kwargs):
            passed.append(args[2])
            return original_grad(*args, **kwargs)

        original_units, original_grad = federation.unit_prototypes, federation.cpgma_embedding_grad
        monkeypatch.setattr(federation, "unit_prototypes", spy_units)
        monkeypatch.setattr(federation, "cpgma_embedding_grad", spy_grad)
        prototypes = np.random.default_rng(0).normal(size=(3, spec.embedding_dim))
        cfg = self.config(batch_size=4, enable_sfmc=False, enable_cpgma=cpgma)
        _, tally = local_train(nn.init_params(spec, 0), spec, self.shard(12), cfg, 2,
                               np.random.default_rng(0), prototypes=prototypes)
        assert tally[3] == 6
        assert len(made) == int(cpgma)
        assert passed == (made * 6 if cpgma else [])

    def test_empty_shard_rejected(self):
        spec = small_spec()
        empty = ClientShard(client_id=0, inputs=np.zeros((0, 4)),
                            labels=np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            local_train(nn.init_params(spec, 0), spec, empty, self.config(), 1,
                        np.random.default_rng(0))


    def test_non_finite_loss_names_epoch_and_batch(self):
        spec = small_spec()
        params = nn.init_params(spec, 0)
        params[(0, "b")][0] = np.nan
        before = params.vec.copy()
        with pytest.raises(federation.DivergenceError,
                           match=r"^epoch 1, batch 1: non-finite loss inputs \[nan"):
            local_train(params, spec, self.shard(12), self.config(batch_size=4), 2,
                        np.random.default_rng(0))
        # the step that would have written it was not taken
        assert before.tobytes() == params.vec.tobytes()

    def test_non_finite_gradient_names_epoch_and_batch(self, monkeypatch):
        # a finite loss whose gradient overflows from the fourth batch on
        spec = small_spec()
        calls = []

        def overflowing(params, spec, cache, upstream, *, out=None):
            grads = original(params, spec, cache, upstream, out=out)
            calls.append(None)
            if len(calls) >= 4:
                grads[(0, "W")][0, 0] = np.inf
            return grads

        original = nn.backward
        monkeypatch.setattr(nn, "backward", overflowing)
        cfg = self.config(batch_size=4, enable_sfmc=False, enable_cpgma=False)
        with pytest.raises(federation.DivergenceError,
                           match=r"^epoch 2, batch 1: non-finite gradient at \(0, 'W'\)"):
            local_train(nn.init_params(spec, 0), spec, self.shard(12), cfg, 2,
                        np.random.default_rng(0))


class TestStochasticSfmc:
    """Each mini-batch trains the head on a fresh draw from the received
    foreign sample, one foreign row per local row."""

    def config(self, **kw):
        base = dict(rounds=1, num_clients=1, local_epochs=2, num_classes=3,
                    batch_size=4, learning_rate=1e-3, seed=0, enable_cpgma=False)
        base.update(kw)
        return FederationConfig(**base)

    def shard(self, n):
        rng = np.random.default_rng(0)
        return ClientShard(client_id=0, inputs=rng.normal(size=(n, 4)),
                           labels=(np.arange(n) % 3).astype(np.int64))

    def foreign(self, n, d):
        # column 0 holds the row's position in the sample, so a drawn row
        # can be traced back to it
        rng = np.random.default_rng(1)
        embeddings = rng.normal(size=(n, d))
        embeddings[:, 0] = np.arange(n)
        return FeatureBatch(embeddings, rng.integers(0, 3, size=n),
                            np.arange(n) % 5 + 1, np.arange(n) % 2 + 1)

    def sfmc_calls(self, monkeypatch, shard, foreign, **kw):
        calls = []

        def spy(params, spec, batch):
            calls.append(batch)
            return original(params, spec, batch)

        original = federation.compute_sfmc_loss
        monkeypatch.setattr(federation, "compute_sfmc_loss", spy)
        spec = small_spec()
        local_train(nn.init_params(spec, 0), spec, shard, self.config(**kw), 2,
                    np.random.default_rng(0), foreign=foreign, round_tag=1)
        return calls

    def test_each_step_draws_one_foreign_row_per_local_row(self, monkeypatch):
        foreign = self.foreign(12, small_spec().embedding_dim)
        calls = self.sfmc_calls(monkeypatch, self.shard(10), foreign)
        # batches of 4, 4 and 2 rows in each of two epochs
        assert [len(batch) for batch in calls] == [4, 4, 2] * 2
        for batch in calls:
            rows = batch.embeddings[:, 0].astype(np.int64)
            assert np.all(np.diff(rows) > 0)          # distinct, in sample order
            expected = foreign.take(rows)
            for column in ("embeddings", "labels", "client_ids", "rounds"):
                assert np.array_equal(getattr(batch, column), getattr(expected, column))
        # the draws are fresh: the steps do not all see the same rows
        assert len({tuple(b.embeddings[:, 0]) for b in calls}) > 1

    @pytest.mark.parametrize("rows", [3, 4])
    def test_sample_no_larger_than_the_batch_is_passed_whole(self, monkeypatch, rows):
        foreign = self.foreign(rows, small_spec().embedding_dim)
        calls = self.sfmc_calls(monkeypatch, self.shard(8), foreign)
        assert len(calls) == 4 and all(batch is foreign for batch in calls)

    def test_same_config_gives_identical_bytes(self):
        shards, global_test = small_federation()
        spec = small_spec()
        # 16 foreign rows per client against 4-row batches: every step draws
        cfg = FederationConfig(rounds=3, num_clients=3, local_epochs=2, num_classes=3,
                               batch_size=4, learning_rate=1e-3, seed=5,
                               sample_count=8, track_geometry=False)
        runs = [run_federation(cfg, shards, spec, global_test) for _ in range(2)]
        a, b = (json.dumps(r.metrics).encode() for r in runs)
        assert a == b
        assert runs[0].ledger.entries == runs[1].ledger.entries
        assert serialize_model(runs[0].params) == serialize_model(runs[1].params)

    def test_without_sfmc_the_sample_changes_nothing(self):
        spec = small_spec()
        shard = self.shard(10)
        prototypes = np.random.default_rng(2).normal(size=(3, spec.embedding_dim))
        cfg = self.config(enable_sfmc=False, enable_cpgma=True)
        trained = []
        for foreign in (self.foreign(30, spec.embedding_dim), None):
            params = nn.init_params(spec, 0)
            local_train(params, spec, shard, cfg, 2, np.random.default_rng(0),
                        foreign=foreign, prototypes=prototypes, round_tag=1)
            trained.append(params)
        assert serialize_model(trained[0]) == serialize_model(trained[1])


class TestRunFederation:
    def test_t1_n1_modules_off_equals_local_training(self):
        shards, global_test = small_federation(num_clients=1)
        spec = small_spec()
        cfg = FederationConfig(rounds=1, num_clients=1, local_epochs=3, num_classes=3,
                               batch_size=4, learning_rate=1e-3, seed=0,
                               enable_sfmc=False, enable_cpgma=False,
                               track_geometry=False)
        result = run_federation(cfg, shards, spec, global_test)

        from fedmp.federation import _derive_seed
        ref = nn.init_params(spec, _derive_seed(cfg.seed, 0))
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[cfg.seed, 1, 1, 0]))
        local_train(ref, spec, shards[0], cfg, 3, rng)
        assert params_equal(result.params, ref)

    def test_same_seed_identical_metrics(self):
        shards, global_test = small_federation()
        spec = small_spec()
        cfg = FederationConfig(rounds=3, num_clients=3, local_epochs=1, num_classes=3,
                               batch_size=4, learning_rate=1e-3, seed=7,
                               track_geometry=False)
        a = run_federation(cfg, shards, spec, global_test)
        b = run_federation(cfg, shards, spec, global_test)
        assert a.metrics == b.metrics
        assert params_equal(a.params, b.params)

    def test_bank_written_once_per_client_and_round(self, monkeypatch):
        inserted = []
        original = FeatureBank.insert
        monkeypatch.setattr(FeatureBank, "insert",
                            lambda bank, batch: inserted.append(len(batch)) or original(bank, batch))
        shards, global_test = small_federation()
        cfg = FederationConfig(rounds=2, num_clients=3, local_epochs=1, num_classes=3,
                               batch_size=4, seed=0, track_geometry=False)
        run_federation(cfg, shards, small_spec(), global_test)
        # three 4-row mini-batches per client, inserted together
        assert inserted == [12] * 6

    def test_one_insert_keeps_the_per_batch_bank(self):
        # FIFO slots trimmed once hold the rows that per-batch trimming keeps,
        # as the float32 the blob carried; the centers step once per batch
        rng = np.random.default_rng(0)
        d, k, mu = 3, 2, 0.5
        batches = {cid: [FeatureBatch.of_client(rng.normal(size=(n, d)).astype(np.float32),
                                                rng.integers(0, k, n), cid, 1) for n in (5, 5, 4)]
                   for cid in (0, 1)}
        uploads = {cid: serialize_features(FeatureBatch.concat(b)) for cid, b in batches.items()}
        cfg = FederationConfig(num_clients=2, num_classes=k, bank_capacity=4, batch_size=5,
                               mu_client=mu)
        shards = {cid: ClientShard(cid, np.zeros((14, 1)), np.zeros(14, dtype=np.int64))
                  for cid in (0, 1)}
        bank, centers = FeatureBank(4), np.zeros((2, k, d))
        federation._server_feature_update(bank, centers, np.zeros((k, d)), uploads, shards, cfg)
        reference, want = FeatureBank(4), np.zeros((2, k, d))
        for cid in (0, 1):
            for batch in batches[cid]:
                reference.insert(batch)
                for cls in np.unique(batch.labels):
                    rows = batch.embeddings[batch.labels == cls].astype(np.float64)
                    want[cid, cls] = (1 - mu) * want[cid, cls] + mu * rows.mean(axis=0)
        assert bank._slots.keys() == reference._slots.keys()
        for key, slot in reference._slots.items():
            got = bank._slots[key]
            assert got.embeddings.dtype == np.float32
            assert all(np.array_equal(getattr(got, c), getattr(slot, c))
                       for c in ("embeddings", "labels", "client_ids", "rounds"))
        assert centers.tobytes() == want.tobytes()

    def test_client_order_irrelevant(self):
        shards, global_test = small_federation()
        spec = small_spec()
        cfg = FederationConfig(rounds=3, num_clients=3, local_epochs=1, num_classes=3,
                               batch_size=4, learning_rate=1e-3, seed=1,
                               track_geometry=False)
        a = run_federation(cfg, shards, spec, global_test, client_order=[0, 1, 2])
        b = run_federation(cfg, shards, spec, global_test, client_order=[2, 0, 1])
        assert a.metrics == b.metrics
        assert params_equal(a.params, b.params)
        assert a.ledger.entries == b.ledger.entries

    def test_shard_count_mismatch_rejected(self):
        shards, global_test = small_federation(num_clients=2)
        cfg = FederationConfig(rounds=1, num_clients=3, num_classes=3)
        with pytest.raises(ValueError):
            run_federation(cfg, shards, small_spec(), global_test)

    def test_bad_client_order_rejected(self):
        shards, global_test = small_federation()
        cfg = FederationConfig(rounds=1, num_clients=3, num_classes=3,
                               track_geometry=False)
        with pytest.raises(ValueError):
            run_federation(cfg, shards, small_spec(), global_test, client_order=[0, 0, 1])

    def test_metrics_schema(self):
        shards, global_test = small_federation()
        spec = small_spec()
        cfg = FederationConfig(rounds=2, num_clients=3, local_epochs=1, num_classes=3,
                               batch_size=4, seed=0, track_geometry=True)
        result = run_federation(cfg, shards, spec, global_test)
        assert len(result.metrics) == 2
        for row in result.metrics:
            assert set(row) == {
                "round", "global_test_accuracy", "mean_local_loss", "mean_sfmc_loss",
                "mean_cpgma_loss", "hausdorff_mean", "up_bytes", "down_bytes",
            }
            assert row["up_bytes"] > 0 and row["down_bytes"] > 0


class TestRunShape:
    """Both loops check the run's shape before anything trains: the shards'
    client ids are exactly 0..num_clients-1, and the config has the
    network's class count."""

    @pytest.fixture(params=[run_federation, run_few_shot], ids=["rounds", "few-shot"])
    def run(self, request, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the run's shape")

        monkeypatch.setattr(federation, "_train", no_training)
        return request.param

    @pytest.mark.parametrize("ids", [(0, 0, 2), (5, 6, 7), (1, 2, 3)])
    def test_client_ids_must_be_0_to_num_clients(self, run, ids):
        shards, global_test = small_federation()
        shards = [ClientShard(cid, s.inputs, s.labels) for cid, s in zip(ids, shards)]
        cfg = FederationConfig(rounds=1, num_clients=3, num_classes=3)
        with pytest.raises(ValueError, match="num_clients"):
            run(cfg, shards, small_spec(), global_test)

    @pytest.mark.parametrize("classes", [2, 4])
    def test_num_classes_must_be_the_networks(self, run, classes):
        shards, global_test = small_federation()
        cfg = FederationConfig(rounds=1, num_clients=3, num_classes=classes)
        with pytest.raises(ValueError, match="num_classes"):
            run(cfg, shards, small_spec(k=3), global_test)


class TestFewShot:
    def run(self, stage_epochs=(2, 3, 3), **kw):
        shards, global_test = small_federation()
        spec = small_spec()
        base = dict(rounds=1, num_clients=3, local_epochs=1, num_classes=3,
                    batch_size=4, learning_rate=1e-3, seed=0, track_geometry=False)
        base.update(kw)
        cfg = FederationConfig(**base)
        return run_few_shot(cfg, shards, spec, global_test, stage_epochs=stage_epochs), cfg

    def test_exactly_three_communication_events(self):
        result, _ = self.run()
        assert result.ledger.rounds() == [1, 2, 3]
        assert 0.0 <= result.ensemble_accuracy <= 1.0

    def test_single_baseline_degenerate_schedule(self):
        # one stage, modules off: local train then one weighted average
        result, cfg = self.run(stage_epochs=(2,), enable_sfmc=False, enable_cpgma=False)
        shards, _ = small_federation()
        spec = small_spec()
        expected = []
        for shard in shards:
            from fedmp.federation import _derive_seed
            params = nn.init_params(spec, _derive_seed(cfg.seed, 0))
            rng = np.random.default_rng(np.random.SeedSequence(entropy=[cfg.seed, 3, 1, shard.client_id]))
            local_train(params, spec, shard, cfg, 2, rng)
            expected.append(params)
        agg = aggregate_models(expected, [len(s) for s in shards])
        assert result.server_params.layout is agg.layout
        assert np.allclose(result.server_params.vec, agg.vec, atol=0)

    def test_stage_epochs_validated(self):
        with pytest.raises(ValueError):
            self.run(stage_epochs=())
        with pytest.raises(ValueError):
            self.run(stage_epochs=(2, 0))

    def test_first_stage_has_no_module_losses(self):
        result, _ = self.run()
        assert result.metrics[0]["mean_sfmc_loss"] == 0.0
        assert result.metrics[0]["mean_cpgma_loss"] == 0.0

    def test_final_stage_uploads_models_only(self):
        result, _ = self.run()
        from fedmp import protocol
        last = result.ledger.rounds()[-1]
        assert result.ledger.total(round=last, kind=protocol.KIND_FEATURES) == 0
        assert result.ledger.total(round=last, direction=protocol.DOWN) == 0


class TestBlobLedger:
    """Each feature and prototype ledger entry is the length of a blob its
    receiver decoded: an upload decoded by the server, a foreign sample
    decoded by its client, or a prototype broadcast decoded once per round
    or stage and received by every client."""

    @staticmethod
    def spy(monkeypatch) -> dict:
        decoded = {KIND_FEATURES: [], KIND_PROTOTYPES: []}
        for kind, name in ((KIND_FEATURES, "deserialize_features"),
                           (KIND_PROTOTYPES, "deserialize_prototypes")):
            def decode(blob, original=getattr(federation, name), kind=kind):
                decoded[kind].append(len(blob))
                return original(blob)
            monkeypatch.setattr(federation, name, decode)
        return decoded

    @staticmethod
    def check(ledger, decoded, prototype_rounds):
        features = sorted(e.byte_count for e in ledger.entries if e.kind == KIND_FEATURES)
        assert features == sorted(decoded[KIND_FEATURES])
        assert len(decoded[KIND_PROTOTYPES]) == len(prototype_rounds)
        for t, length in zip(prototype_rounds, decoded[KIND_PROTOTYPES]):
            sent = [e for e in ledger.entries if e.kind == KIND_PROTOTYPES and e.round == t]
            assert len(sent) == 3 and all(e.byte_count == length and e.direction == DOWN
                                          for e in sent)
        assert {e.round for e in ledger.entries if e.kind == KIND_PROTOTYPES} == set(prototype_rounds)

    @pytest.mark.parametrize("sfmc,cpgma", [(True, True), (True, False), (False, True),
                                            (False, False)])
    def test_federation_rounds(self, monkeypatch, sfmc, cpgma):
        decoded = self.spy(monkeypatch)
        shards, global_test = small_federation()
        # small slots and samples, so foreign samples differ in size
        cfg = FederationConfig(rounds=3, num_clients=3, local_epochs=1, num_classes=3,
                               batch_size=4, seed=0, bank_capacity=2, sample_count=5,
                               enable_sfmc=sfmc, enable_cpgma=cpgma, track_geometry=False)
        result = run_federation(cfg, shards, small_spec(), global_test)
        self.check(result.ledger, decoded, [1, 2, 3] if cpgma else [])
        assert len(decoded[KIND_FEATURES]) == 3 * 3 * ((sfmc or cpgma) + sfmc)

    def test_few_shot_stages(self, monkeypatch):
        decoded = self.spy(monkeypatch)
        shards, global_test = small_federation()
        cfg = FederationConfig(rounds=1, num_clients=3, local_epochs=1, num_classes=3,
                               batch_size=4, seed=0, bank_capacity=2, sample_count=5,
                               track_geometry=False)
        result = run_few_shot(cfg, shards, small_spec(), global_test, stage_epochs=(2, 3, 3))
        self.check(result.ledger, decoded, [1, 2])
        assert len(decoded[KIND_FEATURES]) == 2 * 3 * 2
