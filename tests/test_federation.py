"""Unit tests for the federated training building blocks: the adaptive loss
combination, both auxiliary losses, the EMA updates, aggregation, local
training from a broadcast model, the round loop, and the few-shot schedule."""

import dataclasses
import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmp import federation, nn, protocol
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
    upcast,
)

from helpers import (
    as_batch,
    concat_batches,
    one_blas_thread,
    params_equal,
    reference_backward,
    reference_forward,
    reference_head_pass,
    reference_local_train,
    reference_softmax_cross_entropy,
    take_rows,
    traced_peak,
)


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
        # feature blobs pack labels as u16; client ids keep the same bound
        FederationConfig(**{name: 0xFFFF})
        with pytest.raises(ValueError, match=name):
            FederationConfig(**{name: 0x10000})


class TestCombineLosses:
    def test_sfmc_only_hand_value(self):
        # l_local=2, l_sfmc=4 -> w_s = 2/(4+eps), L = 2 + w_s*4, about 4
        w_s, w_c = combine_losses(2.0, 4.0, 0.0)
        assert w_s == 2.0 / (4.0 + EPS_GUARD) and w_c == 0.0
        assert 2.0 + w_s * 4.0 == pytest.approx(4.0, abs=1e-8)
        # the scaled auxiliary term's forward value is l_local, less the guard's share
        assert w_s * 4.0 == pytest.approx(2.0, abs=1e-8)

    def test_both_disabled_is_local(self):
        # a module that is off passes 0.0
        assert combine_losses(1.7, 0.0, 0.0) == (0.0, 0.0)

    def test_negative_cpgma_sign_preserved(self):
        # l_local=2, l_cpgma=-0.5 -> w_c = 2/(0.5+eps), about 4, contribution
        # about -2, L about 0
        w_s, w_c = combine_losses(2.0, 0.0, -0.5)
        assert w_s == 0.0 and w_c == 2.0 / (0.5 + EPS_GUARD)
        assert 2.0 + w_c * -0.5 == pytest.approx(0.0, abs=1e-7)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match=r"^non-finite loss inputs \[nan, 0.0, 0.0\]$"):
            combine_losses(float("nan"), 0.0, 0.0)
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
        w_s, _ = combine_losses(l_local, l_aux, 0.0)
        _, w_c = combine_losses(l_local, 0.0, l_aux)
        assert w_s == w_c
        assert w_s * l_aux == pytest.approx(l_local, rel=1e-5)


def float32_rows(rng, n, d, k=3, dtype=np.float32):
    """Labeled rows of ``dtype`` (float16 as a decoded blob holds them), and
    the same rows upcast to float64."""
    rows = FeatureBatch(rng.normal(size=(n, d)).astype(dtype), rng.integers(0, k, n))
    return rows, dataclasses.replace(rows, embeddings=rows.embeddings.astype(np.float64))


NARROW = (np.float16, np.float32)        # the wire's floats and the model blobs'


def local_rows(spec, n, seed=0, k=3):
    """``n`` float64 local embeddings with labels, as the extractor gives them."""
    rng = np.random.default_rng(seed)
    return np.maximum(rng.normal(size=(n, spec.embedding_dim)), 0.0), rng.integers(0, k, n)


def head_pass(params, grads, spec, u, labels, foreign):
    """An ``nn.Pass`` over the head of ``spec`` whose input and label rows
    hold ``u`` and ``labels``, then ``foreign``'s rows, as ``local_train``
    fills them, and its views of the two parts' input rows."""
    rows, end = len(u), len(u) + len(foreign)
    head = nn.Pass(params, grads, spec, spec.split_index, None, end, input_grad=True, loss=True)
    head.input[:rows], head.labels[:rows] = u, labels
    head.input[rows:end], head.labels[rows:end] = foreign.embeddings, foreign.labels
    return head, head.input[:rows], head.input[rows:end]


def sfmc_grads(params, spec, foreign, u, labels, w_s=1.0):
    """The losses, the head's gradient and the gradient at the split of one
    head pass (``compute_sfmc_loss``) over ``u`` stacked on ``foreign``,
    with the foreign rows weighted by ``w_s``."""
    grads = params.zeros_like()
    head, local, drawn = head_pass(params, grads, spec, u, labels, foreign)
    l_local, l_sfmc, glogits = compute_sfmc_loss(head, local, drawn)
    glogits[len(u):] *= w_s
    return l_local, l_sfmc, grads, head.backward(glogits)[:len(u)]


def reference_sfmc_grads(params, spec, foreign, u, labels, w_s=1.0):
    """``sfmc_grads`` on the tests' own walk and cross-entropy."""
    l_local, l_sfmc, glogits, cache = reference_head_pass(params, spec, u, labels, foreign)
    glogits[len(u):] *= w_s
    grads, grad_in = reference_backward(params, spec, cache, glogits)
    return l_local, l_sfmc, grads, grad_in[:len(u)]


def no_rows(spec):
    return FeatureBatch(np.zeros((0, spec.embedding_dim)), np.zeros(0, np.int64))


class TestSfmcLoss:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 200), seed=st.integers(0, 2**31 - 1),
           w_s=st.sampled_from([0.0, 0.7, 3.5]))
    def test_float32_rows_give_the_bits_of_upcast_rows(self, n, seed, w_s):
        # the head pass over decoded narrow rows, written into its float64
        # input, gets the bits of the tests' walk over the rows upcast
        # first; with no foreign rows, those of the local rows alone
        spec = nn.mlp_spec(16, (64,), (32, 16), 3)
        params = nn.init_params(spec, seed % 1000)
        u, labels = local_rows(spec, 1 + seed % 64, seed)
        for dtype in (*NARROW, np.float64):
            rows, wide = float32_rows(np.random.default_rng(seed), n, spec.embedding_dim,
                                      dtype=dtype)
            got = sfmc_grads(params, spec, rows, u, labels, w_s)
            want = reference_sfmc_grads(params, spec, wide, u, labels, w_s)
            assert got[:2] == want[:2]
            assert got[2].vec.tobytes() == want[2].vec.tobytes()
            assert got[3].tobytes() == want[3].tobytes()

    @pytest.mark.parametrize("foreign", [None, "off"])
    def test_no_foreign_rows_is_the_batch_alone(self, monkeypatch, foreign):
        # no foreign rows: l_sfmc is 0.0, and l_local and the gradient have
        # the bits of the pass's cross-entropy without a split
        spec = small_spec()
        params = nn.init_params(spec, 3)
        u, labels = local_rows(spec, 5, 3)
        head, local, drawn = head_pass(params, params.zeros_like(), spec, u, labels,
                                       no_rows(spec))
        l_local, l_sfmc, glogits = compute_sfmc_loss(head, local, drawn)
        alone = nn.Pass(params, params.zeros_like(), spec, spec.split_index, None, 5, loss=True)
        alone.labels[:] = labels
        alone.forward(u)
        want_loss, want_grad = alone.cross_entropy()
        assert type(l_sfmc) is float and np.float64(l_sfmc).tobytes() == bytes(8)
        assert np.float64(l_local).tobytes() == np.float64(want_loss).tobytes()
        assert glogits.tobytes() == want_grad.tobytes()

        # a FedAvg call, without a sample (round 1) or with SFMC off, makes
        # one head pass per step, each with no foreign rows
        calls = []

        def spy(head, u, foreign):
            calls.append((len(u), len(foreign)))
            return original(head, u, foreign)

        original = federation.compute_sfmc_loss
        monkeypatch.setattr(federation, "compute_sfmc_loss", spy)
        rng = np.random.default_rng(3)
        shard = ClientShard(client_id=0, inputs=rng.normal(size=(10, 4)),
                            labels=(np.arange(10) % 3).astype(np.int64))
        sample = FeatureBatch(rng.normal(size=(6, spec.embedding_dim)).astype(np.float16),
                              rng.integers(0, 3, 6)) if foreign else None
        cfg = FederationConfig(rounds=1, num_clients=1, num_classes=3, batch_size=4,
                               enable_sfmc=foreign is None, enable_cpgma=False)
        _, tally = local_train(nn.init_params(spec, 0), spec, shard, cfg, 2, rng,
                               foreign=sample)
        assert calls == [(4, 0), (4, 0), (2, 0)] * 2
        assert tally[1] == 0.0 and tally[3] == len(calls)

    def test_uniform_logits_ln2(self):
        # zeroed classifier on K=2 gives uniform logits -> ln 2 for both parts
        spec = nn.NetworkSpec((2, 3, 2), split_index=2)
        params = nn.init_params(spec, 0)
        params[(2, "W")][:] = 0.0
        params[(2, "b")][:] = 0.0
        rec = FeatureBatch(np.array([[1.0, -2.0, 0.5]]), np.array([0]))
        l_local, l_sfmc, _, _ = sfmc_grads(params, spec, rec, np.ones((2, 3)), np.array([0, 1]))
        assert l_local == pytest.approx(np.log(2.0), abs=1e-12)
        assert l_sfmc == pytest.approx(np.log(2.0), abs=1e-12)

    def test_mean_of_closed_forms(self):
        # per-row losses ln(1+e^-1) and ln 2; each part is the mean of its rows
        spec = nn.NetworkSpec((2, 2, 2), split_index=2)
        params = nn.Parameters({
            (0, "W"): np.eye(2), (0, "b"): np.zeros(2),
            (2, "W"): np.eye(2), (2, "b"): np.zeros(2),
        })
        recs = FeatureBatch(np.array([
            [1.0, 0.0],     # logits [1,0] -> ln(1+e^-1)
            [0.0, 0.0],     # logits [0,0] -> ln 2
        ]), np.array([0, 0]))
        u = np.array([[1.0, 0.0]] * 3)
        head, local, drawn = head_pass(params, params.zeros_like(), spec, u,
                                       np.array([0, 0, 0]), recs)
        l_local, l_sfmc, glogits = compute_sfmc_loss(head, local, drawn)
        assert l_sfmc == pytest.approx(0.5 * (np.log(1 + np.exp(-1.0)) + np.log(2.0)),
                                       abs=1e-9)
        assert l_local == pytest.approx(np.log(1 + np.exp(-1.0)), abs=1e-9)
        # each part's gradient rows are those of its own mean
        p = 1.0 / (1.0 + np.exp(-1.0))
        assert np.allclose(glogits[:3], [[(p - 1.0) / 3, (1.0 - p) / 3]] * 3, atol=1e-15)
        assert np.allclose(glogits[3:], [[(p - 1.0) / 2, (1.0 - p) / 2], [-0.25, 0.25]],
                           atol=1e-15)

    def test_gradients_classifier_only(self):
        # the head's backward writes no extractor tensor, and the foreign
        # rows' weight moves no bit of the gradient handed to the extractor
        spec = small_spec()
        params = nn.init_params(spec, 1)
        u, labels = local_rows(spec, 5, 1)
        recs = FeatureBatch(np.ones((4, spec.embedding_dim)), np.array([0, 1, 2, 0]))
        at_split = []
        for w_s in (0.0, 1.0, 3.5):
            _, _, grads, grad_u = sfmc_grads(params, spec, recs, u, labels, w_s)
            assert grads.layout is params.layout
            assert_exactly_zero(grads, range(spec.split_index))
            at_split.append(grad_u.tobytes())
        assert len(set(at_split)) == 1

    def test_extractor_perturbation_leaves_loss(self):
        # finite-difference check of the gradient-isolation invariant
        spec = small_spec()
        params = nn.init_params(spec, 2)
        recs = FeatureBatch(np.arange(spec.embedding_dim, dtype=float)[None, :], np.array([1]))
        u, labels = local_rows(spec, 2, 2)
        base = sfmc_grads(params, spec, recs, u, labels)[:2]
        params[(0, "W")][0, 0] += 0.37
        after = sfmc_grads(params, spec, recs, u, labels)[:2]
        assert base == after


def parent_sfmc_step(params, spec, xb, yb, drawn, units=None):
    """The two-pass step the stacked head pass replaced, on the tests' own
    walk: a backward over the whole network for the local rows, then a
    head-only pass over the drawn rows whose gradient is added scaled by
    ``w_s``. Returns the losses and the step's gradient."""
    split = spec.split_index
    u, cache_f = reference_forward(params, spec, xb, 0, split)
    logits, cache_c = reference_forward(params, spec, u, split)
    l_local, glogits = reference_softmax_cross_entropy(logits, yb)
    grads, _ = reference_backward(params, spec, cache_f + cache_c, glogits, False)
    logits, cache = reference_forward(params, spec, drawn.embeddings, split)
    l_sfmc, glogits = reference_softmax_cross_entropy(logits, drawn.labels)
    sfmc, _ = reference_backward(params, spec, cache, glogits, False)
    l_cpgma = 0.0
    if units is not None:
        l_cpgma, grad_u_align = cpgma_embedding_grad(u, yb, units)
    w_s, w_c = combine_losses(l_local, l_sfmc, l_cpgma)
    grads.vec += w_s * sfmc.vec
    if w_c:
        grads.vec += w_c * reference_backward(params, spec, cache_f, grad_u_align, False)[0].vec
    return l_local, l_sfmc, grads


def spied_draw(draws, head, u, foreign):
    """Keep a copy of a head pass's foreign rows and their labels, which
    live in the step's buffers."""
    rows = len(u)
    draws.append(FeatureBatch(foreign.copy(), head.labels[rows:rows + len(foreign)].copy()))


class TestStackedSfmcStep:
    """Every step of ``local_train`` with SFMC against ``parent_sfmc_step``
    on the same parameters, batch and draw."""

    @pytest.mark.parametrize("cpgma", [False, True])
    @settings(max_examples=20, deadline=None)
    @given(rows=st.integers(1, 23), batch_size=st.integers(1, 9),
           sample=st.integers(1, 20), seed=st.integers(0, 2**31 - 1))
    def test_agrees_with_the_two_pass_step(self, cpgma, rows, batch_size, sample, seed):
        # random batch and sample sizes: short final batches, and samples
        # no larger than the batch, which every step then takes whole
        spec = nn.mlp_spec(5, (8,), (6,), 3)
        rng = np.random.default_rng(seed)
        shard = ClientShard(client_id=0, inputs=rng.normal(size=(rows, 5)),
                            labels=rng.integers(0, 3, rows))
        foreign = FeatureBatch(np.maximum(rng.normal(size=(sample, spec.embedding_dim)), 0.0)
                               .astype(np.float16), rng.integers(0, 3, sample))
        prototypes = rng.normal(size=(3, spec.embedding_dim)) if cpgma else None
        cfg = FederationConfig(rounds=1, num_clients=1, local_epochs=2, num_classes=3,
                               batch_size=batch_size, learning_rate=1e-2, seed=seed % 1000,
                               enable_cpgma=cpgma)
        steps, draws = [], []

        def spy_sfmc(head, u, foreign):
            spied_draw(draws, head, u, foreign)
            out = original_sfmc(head, u, foreign)
            steps.append(list(out[:2]))
            return out

        def spy_adam(params, grads, state):
            steps[-1] += [params.vec.copy(), grads.vec.copy()]
            return original_adam(params, grads, state)

        original_sfmc, original_adam = federation.compute_sfmc_loss, nn.adam_step
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(federation, "compute_sfmc_loss", spy_sfmc)
            patch.setattr(nn, "adam_step", spy_adam)
            local_train(nn.init_params(spec, seed % 1000), spec, shard, cfg, 2,
                        np.random.default_rng(seed), foreign=foreign,
                        prototypes=prototypes, round_tag=1)

        # the same shuffle, by hand
        shuffle, batches = np.random.default_rng(seed), []
        for _ in range(2):
            perm = shuffle.permutation(rows)
            batches += [perm[i:i + batch_size] for i in range(0, rows, batch_size)]
        assert len(steps) == len(draws) == len(batches)
        units = unit_prototypes(prototypes) if cpgma else None
        layout = spec.layout
        for (l_local, l_sfmc, vec, grads), drawn, idx in zip(steps, draws, batches):
            assert len(drawn) == min(len(idx), sample)
            ref = parent_sfmc_step(nn.Parameters.over(vec, layout), spec, shard.inputs[idx],
                                   shard.labels[idx], drawn, units)
            assert l_local == pytest.approx(ref[0], rel=1e-12, abs=0)
            assert l_sfmc == pytest.approx(ref[1], rel=1e-12, abs=0)
            assert np.abs(grads - ref[2].vec).max() <= 1e-12 * np.abs(ref[2].vec).max()


def parent_step(params, spec, xb, yb, drawn, units):
    """The three-backward step that one extractor backward replaced, on the
    tests' own walk: the local backward (over the whole network, or with
    SFMC the stacked head pass's backward and an extractor backward), then,
    while CPGMA's weight is nonzero, an extractor backward of its embedding
    gradient whose result is added scaled by ``w_c``. ``drawn`` is None
    without SFMC, ``units`` None without CPGMA. Returns the three losses and
    the step's gradient."""
    u, cache_f = reference_forward(params, spec, xb, 0, spec.split_index)
    if drawn is not None:
        l_local, l_sfmc, glogits, cache_c = reference_head_pass(params, spec, u, yb, drawn)
    else:
        logits, cache_c = reference_forward(params, spec, u, spec.split_index)
        (l_local, glogits), l_sfmc = reference_softmax_cross_entropy(logits, yb), 0.0
    l_cpgma, grad_u_align = (0.0, None) if units is None else cpgma_embedding_grad(u, yb, units)
    w_s, w_c = combine_losses(l_local, l_sfmc, l_cpgma)
    if drawn is not None:
        glogits[len(yb):] *= w_s
        grads, grad_in = reference_backward(params, spec, cache_c, glogits)
        reference_backward(params, spec, cache_f, grad_in[:len(yb)], False, grads)
    else:
        grads, _ = reference_backward(params, spec, cache_f + cache_c, glogits, False)
    if w_c:
        grads.vec += w_c * reference_backward(params, spec, cache_f, grad_u_align, False)[0].vec
    return l_local, l_sfmc, l_cpgma, grads


class TestOneExtractorBackward:
    """Every step of ``local_train`` against ``parent_step`` on the same
    parameters, batch and draw."""

    @pytest.mark.parametrize("sfmc", [False, True])
    @pytest.mark.parametrize("prototypes", ["off", "cold", "mixed", "warm"])
    @settings(max_examples=15, deadline=None)
    @given(rows=st.integers(1, 23), batch_size=st.integers(1, 9),
           sample=st.integers(1, 20), seed=st.integers(0, 2**31 - 1))
    def test_agrees_with_the_three_backward_step(self, sfmc, prototypes, rows, batch_size,
                                                 sample, seed):
        # random batch and sample sizes: short final batches, and samples
        # no larger than the batch, which every step then takes whole;
        # "mixed" has one cold class, "cold" only cold ones
        spec = nn.mlp_spec(5, (8,), (6,), 3)
        rng = np.random.default_rng(seed)
        shard = ClientShard(client_id=0, inputs=rng.normal(size=(rows, 5)),
                            labels=rng.integers(0, 3, rows))
        foreign = FeatureBatch(np.maximum(rng.normal(size=(sample, spec.embedding_dim)), 0.0)
                               .astype(np.float16), rng.integers(0, 3, sample))
        protos = rng.normal(size=(3, spec.embedding_dim)) * {
            "off": 1.0, "cold": 0.0, "mixed": np.array([[1.0], [0.0], [1.0]]), "warm": 1.0,
        }[prototypes]
        cfg = FederationConfig(rounds=1, num_clients=1, local_epochs=2, num_classes=3,
                               batch_size=batch_size, learning_rate=1e-2, seed=seed % 1000,
                               enable_sfmc=sfmc, enable_cpgma=prototypes != "off")
        losses, draws, steps = [], [], []

        def spy_losses(*args):
            losses.append(args)
            return original_losses(*args)

        def spy_sfmc(head, u, foreign):
            spied_draw(draws, head, u, foreign)
            return original_sfmc(head, u, foreign)

        def spy_adam(params, grads, state):
            steps.append((params.vec.copy(), grads.vec.copy()))
            return original_adam(params, grads, state)

        original_losses, original_sfmc = federation.combine_losses, federation.compute_sfmc_loss
        original_adam = nn.adam_step
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(federation, "combine_losses", spy_losses)
            patch.setattr(federation, "compute_sfmc_loss", spy_sfmc)
            patch.setattr(nn, "adam_step", spy_adam)
            local_train(nn.init_params(spec, seed % 1000), spec, shard, cfg, 2,
                        np.random.default_rng(seed), foreign=foreign,
                        prototypes=protos, round_tag=1)

        # the same shuffle, by hand
        shuffle, batches = np.random.default_rng(seed), []
        for _ in range(2):
            perm = shuffle.permutation(rows)
            batches += [perm[i:i + batch_size] for i in range(0, rows, batch_size)]
        assert len(steps) == len(losses) == len(batches)
        # one head pass per step; without SFMC it has no foreign rows
        assert len(draws) == len(batches)
        assert sfmc or not any(map(len, draws))
        units = None if prototypes == "off" else unit_prototypes(protos)
        layout = spec.layout
        for k, ((vec, grads), got, idx) in enumerate(zip(steps, losses, batches)):
            drawn = draws[k] if sfmc else None
            ref = parent_step(nn.Parameters.over(vec, layout), spec, shard.inputs[idx],
                              shard.labels[idx], drawn, units)
            for value, want in zip(got, ref[:3]):
                assert value == pytest.approx(want, rel=1e-12, abs=0)
            if prototypes in ("off", "cold"):
                # no CPGMA term: the parent's operations, bit for bit
                assert grads.tobytes() == ref[3].vec.tobytes()
            assert np.abs(grads - ref[3].vec).max() <= 1e-12 * np.abs(ref[3].vec).max()


@st.composite
def split_networks(draw):
    """A split MLP of 1-3 extractor and 1-3 head affine layers with widths
    1-7 and 2-4 classes, split after the extractor's last ReLU (even) or
    before it (odd: the head starts with that ReLU)."""
    extractor, head = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 7), min_size=extractor + head,
                           max_size=extractor + head))
    split = 2 * extractor - draw(st.integers(0, 1))
    return nn.NetworkSpec((*widths, draw(st.integers(2, 4))), split)


class TestFusedStep:
    """Every step of ``local_train`` against the step it fused
    (``helpers.reference_local_train``: the tests' own layer walk and
    cross-entropy, which share no kernel with ``nn.Pass``, and
    ``draw_foreign``), bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(spec=split_networks(), rows=st.integers(1, 23), batch_size=st.integers(1, 9),
           sample=st.integers(1, 20), sfmc=st.booleans(),
           prototypes=st.sampled_from(["off", "cold", "mixed", "warm"]),
           seed=st.integers(0, 2**31 - 1))
    def test_every_step_keeps_every_bit(self, spec, rows, batch_size, sample, sfmc,
                                        prototypes, seed):
        # random batch and sample sizes: short final batches, and samples
        # no larger than the batch, which every step then takes whole;
        # "mixed" has one cold class, "cold" only cold ones
        k, d = spec.num_classes, spec.embedding_dim
        rng = np.random.default_rng(seed)
        shard = ClientShard(client_id=seed % 5, inputs=rng.normal(size=(rows, spec.input_dim)),
                            labels=rng.integers(0, k, rows))
        foreign = FeatureBatch(np.maximum(rng.normal(size=(sample, d)), 0.0).astype(np.float16),
                               rng.integers(0, k, sample))
        protos = rng.normal(size=(k, d)) * (prototypes != "cold")
        if prototypes == "mixed":
            protos[0] = 0.0
        cfg = FederationConfig(rounds=1, num_clients=1, local_epochs=2, num_classes=k,
                               batch_size=batch_size, learning_rate=1e-2, seed=seed % 1000,
                               enable_sfmc=sfmc, enable_cpgma=prototypes != "off")
        start = nn.init_params(spec, seed % 1000)
        ref_params = start.copy()
        ref_batches, ref_tally, ref_steps = reference_local_train(
            ref_params, spec, shard, cfg, 2, np.random.default_rng(seed), foreign=foreign,
            prototypes=protos, round_tag=3)

        losses, steps = [], []

        def spy_losses(*args):
            losses.append(args)
            return original_losses(*args)

        def spy_adam(params, grads, state):
            steps.append((params.vec.copy(), grads.vec.copy()))
            return original_adam(params, grads, state)

        original_losses, original_adam = federation.combine_losses, nn.adam_step
        params = start.copy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(federation, "combine_losses", spy_losses)
            patch.setattr(nn, "adam_step", spy_adam)
            batches, tally = local_train(params, spec, shard, cfg, 2,
                                         np.random.default_rng(seed), foreign=foreign,
                                         prototypes=protos, round_tag=3)

        assert len(steps) == len(losses) == len(ref_steps) == tally[3]
        for (vec, grads), got, (ref_vec, ref_losses, ref_grads) in zip(steps, losses,
                                                                       ref_steps):
            assert vec.tobytes() == ref_vec.tobytes()
            assert got == ref_losses
            assert grads.tobytes() == ref_grads.tobytes()
        assert params.vec.tobytes() == ref_params.vec.tobytes()
        assert tally == ref_tally
        uploads = [concat_batches(b) for b in (batches, ref_batches)]
        assert uploads[0].embeddings.tobytes() == uploads[1].embeddings.tobytes()
        assert np.array_equal(uploads[0].labels, uploads[1].labels)


class TestColdStart:
    """While every prototype is cold, CPGMA's loss is 0 and its weight 0, so
    ``local_train`` makes no CPGMA pass; one warm class is enough for it to
    run on every step."""

    def run(self, monkeypatch, prototypes, sfmc):
        spec = small_spec()
        rng = np.random.default_rng(4)
        shard = ClientShard(client_id=1, inputs=rng.normal(size=(10, 4)),
                            labels=(np.arange(10) % 3).astype(np.int64))
        foreign = FeatureBatch(rng.normal(size=(6, spec.embedding_dim)).astype(np.float16),
                               rng.integers(0, 3, 6)) if sfmc else None
        cfg = FederationConfig(rounds=1, num_clients=2, local_epochs=2, num_classes=3,
                               batch_size=4, learning_rate=1e-2, seed=3, enable_sfmc=sfmc)
        ref = nn.init_params(spec, 0)
        ref_batches, ref_tally, _ = reference_local_train(
            ref, spec, shard, cfg, 2, np.random.default_rng(0), foreign=foreign,
            prototypes=prototypes, round_tag=1)
        passes = []

        def spy(*args):
            passes.append(args)
            return original(*args)

        original = federation.cpgma_embedding_grad
        monkeypatch.setattr(federation, "cpgma_embedding_grad", spy)
        params = nn.init_params(spec, 0)
        batches, tally = local_train(params, spec, shard, cfg, 2, np.random.default_rng(0),
                                     foreign=foreign, prototypes=prototypes, round_tag=1)
        assert params.vec.tobytes() == ref.vec.tobytes()
        assert tally == ref_tally
        assert (serialize_features(concat_batches(batches))
                == serialize_features(concat_batches(ref_batches)))
        return len(passes), tally

    @pytest.mark.parametrize("sfmc", [False, True])
    def test_all_cold_makes_no_cpgma_pass(self, monkeypatch, sfmc):
        passes, tally = self.run(monkeypatch, np.zeros((3, small_spec().embedding_dim)), sfmc)
        assert passes == 0 and tally[2] == 0.0

    @pytest.mark.parametrize("sfmc", [False, True])
    def test_one_cold_class_among_warm_still_runs_every_step(self, monkeypatch, sfmc):
        prototypes = np.random.default_rng(5).normal(size=(3, small_spec().embedding_dim))
        prototypes[2] = 0.0
        passes, tally = self.run(monkeypatch, prototypes, sfmc)
        assert passes == tally[3] == 6


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
        center = rng.normal(size=d)
        for dtype in NARROW:
            rows, upcast = float32_rows(rng, n, d, dtype=dtype)
            got = update_client_center(center, rows.embeddings, 0.3)
            assert got.dtype == np.float64
            assert got.tobytes() == update_client_center(center, upcast.embeddings, 0.3).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, FederationConfig.batch_size), d=st.integers(1, 128),
           seed=st.integers(0, 2**31 - 1),
           kind=st.sampled_from(["bits", "zeros", "subnormal", "near_max", "normal"]))
    def test_upcast_rows_have_the_float16_reduce_bits(self, n, d, seed, kind):
        """The round upcasts each decoded upload once (``protocol.upcast``)
        and passes the center EMA float64 rows: a class's rows of one
        mini-batch, 1 to ``batch_size`` of them. Their reduce has the bits of
        the float16 rows' reduce with ``dtype=float64``, which the float16
        path still computes."""
        rng = np.random.default_rng(seed)
        sign = rng.integers(0, 2, (n, d), dtype=np.uint16) << 15
        magnitude = {                   # as float16 bit patterns
            "bits": rng.integers(0, 0x7C00, (n, d)),                # every finite half
            "zeros": np.zeros((n, d), np.int64),                    # +0.0 and -0.0
            "subnormal": rng.integers(0, 0x400, (n, d)),
            "near_max": rng.integers(0x7B00, 0x7C00, (n, d)),       # up to 65504
            "normal": np.zeros((n, d), np.int64),
        }[kind]
        halves = (magnitude.astype(np.uint16) | sign).view(np.float16)
        if kind == "normal":
            halves = rng.normal(scale=4.0, size=(n, d)).astype(np.float16)
        center = rng.normal(size=d)
        got = update_client_center(center, upcast(halves), 0.7)
        from_halves = update_client_center(center, halves, 0.7)
        mean = np.add.reduce(halves, axis=0, dtype=np.float64) / n
        assert got.tobytes() == from_halves.tobytes() == ((1 - 0.7) * center + 0.7 * mean).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(1, 200), min_size=1, max_size=5),
           d=st.integers(1, 81), seed=st.integers(0, 2**31 - 1))
    def test_one_shot_prototypes_average_float32_rows_in_float64(self, sizes, d, seed):
        rng = np.random.default_rng(seed)
        weights = dict(enumerate(sizes))
        for dtype in NARROW:
            pairs = {cid: float32_rows(rng, n, d, dtype=dtype) for cid, n in enumerate(sizes)}
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
        spec = nn.NetworkSpec((2, 2, 2), split_index=2)

        def model_with_probs(p):
            logit = np.log(p / (1 - p))
            return nn.Parameters({
                (0, "W"): np.eye(2), (0, "b"): np.zeros(2),
                (2, "W"): np.zeros((2, 2)), (2, "b"): np.array([logit, 0.0]),
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
        spec = nn.NetworkSpec((2, 2, 2), split_index=2)
        params = nn.Parameters({
            (0, "W"): np.eye(2), (0, "b"): np.zeros(2),
            (2, "W"): np.zeros((2, 2)), (2, "b"): np.zeros(2),
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
        assert len(rows) == 11 and rows.embeddings.dtype == np.float16

    @pytest.mark.parametrize("stream, where", [(1, "round 2"), (3, "few-shot stage 2")])
    def test_upload_not_finite_as_float16_names_round_client_and_phase(
            self, monkeypatch, stream, where):
        # finite embeddings from 65520 up round to an infinity in the blob
        def outgrown(params, spec, shard, *args, **kw):
            return [FeatureBatch(np.full((len(shard), spec.embedding_dim), 7e4),
                                 shard.labels)], [0.0, 0.0, 0.0, 1]

        monkeypatch.setattr(federation, "local_train", outgrown)
        spec = small_spec()
        with pytest.raises(federation.DivergenceError,
                           match=f"^{where}, client 0, upload: feature embeddings hold a "
                                 "value that is not finite as float16$"):
            federation._train(nn.init_params(spec, 0), spec, self.shard(), self.config(),
                              1, stream, 2)

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

    @pytest.mark.parametrize("collect", [False, True])
    def test_no_buffer_outlives_the_call(self, collect):
        # after the call only what it returns is still allocated: the final
        # epoch's float64 embeddings when collecting, nothing of the
        # per-call buffers, the gradient or the optimizer state
        spec = nn.mlp_spec(16, (64,), (32, 16), 3)
        rng = np.random.default_rng(0)
        shard = ClientShard(client_id=0, inputs=rng.normal(size=(200, 16)),
                            labels=(np.arange(200) % 3).astype(np.int64))
        foreign = FeatureBatch(rng.normal(size=(150, 64)).astype(np.float16),
                               rng.integers(0, 3, 150))
        params = nn.init_params(spec, 0)
        cfg = self.config(batch_size=64, local_epochs=1)
        kept = []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept.append(local_train(params, spec, shard, cfg, 2, np.random.default_rng(0),
                                    foreign=foreign, prototypes=rng.normal(size=(3, 64)),
                                    collect_final_epoch=collect))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        features = 200 * 64 * 8 if collect else 0
        assert features <= retained < features + 16 * 1024

    def backward_calls(self, monkeypatch, warm, sfmc):
        """(first layer, stop layer, rows, input_grad) of each backward pass
        (``nn.Pass.backward``) over two epochs of 4-row batches, then the
        entries of a head and of an extractor backward of one batch."""
        spec = small_spec()
        calls = []

        def spy(self, grad):
            calls.append((self.start, self.stop, len(grad), self.input_grad))
            return original(self, grad)

        original = nn.Pass.backward
        monkeypatch.setattr(nn.Pass, "backward", spy)
        prototypes = np.zeros((3, spec.embedding_dim))
        if warm:
            prototypes[1] = 1.0
        shard = self.shard(12)
        shard.labels[:] = 1                # so every batch holds the warm class
        rng = np.random.default_rng(1)
        foreign = FeatureBatch(rng.normal(size=(6, spec.embedding_dim)).astype(np.float16),
                               rng.integers(0, 3, 6)) if sfmc else None
        cfg = self.config(batch_size=4, enable_sfmc=sfmc, enable_cpgma=True)
        _, tally = local_train(nn.init_params(spec, 0), spec, shard, cfg, 2,
                               np.random.default_rng(0), foreign=foreign,
                               prototypes=prototypes)
        assert tally[3] == 6
        return calls, (spec.split_index, len(spec.layers), 4, True), (0, spec.split_index, 4, False)

    @pytest.mark.parametrize("warm", [False, True])
    def test_backwards_per_mini_batch(self, monkeypatch, warm):
        # per mini-batch, one head backward that hands the gradient at the
        # split, CPGMA's added in once its weight is nonzero, to one
        # extractor backward, whether the prototypes are cold or warm
        calls, head, extractor = self.backward_calls(monkeypatch, warm, sfmc=False)
        assert calls == [head, extractor] * 6

    @pytest.mark.parametrize("warm", [False, True])
    def test_sfmc_backwards_per_mini_batch(self, monkeypatch, warm):
        # with SFMC, one head backward over the 4 local rows stacked on the 4
        # drawn ones and one extractor backward for the local rows, which
        # takes CPGMA's gradient too: no backward of its own
        calls, _, extractor = self.backward_calls(monkeypatch, warm, sfmc=True)
        spec = small_spec()
        assert calls == [(spec.split_index, len(spec.layers), 8, True), extractor] * 6

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


    @pytest.mark.parametrize("fault, error", [
        ("shard label", "label out of range"), ("negative label", "label out of range"),
        ("foreign label", "label out of range"), ("labels shape", "labels shape"),
        ("input width", "layer 0: inputs of shape"), ("foreign width", "layer 2: foreign rows"),
        ("layout", "laid out like the network"),
    ])
    def test_bad_inputs_rejected_before_any_step(self, fault, error):
        # what each step's forward and cross-entropy used to check, checked
        # once per call, before the first step writes into params
        spec = small_spec()
        shard = self.shard(12)
        rng = np.random.default_rng(3)
        foreign = FeatureBatch(rng.normal(size=(6, spec.embedding_dim)).astype(np.float16),
                               rng.integers(0, 3, 6))
        params = nn.init_params(spec, 0)
        if fault == "shard label":
            shard.labels[5] = 3
        elif fault == "negative label":
            shard.labels[0] = -1
        elif fault == "foreign label":
            foreign.labels[2] = 3
        elif fault == "labels shape":
            shard = ClientShard(0, shard.inputs, shard.labels[:-1])
        elif fault == "input width":
            shard = ClientShard(0, shard.inputs[:, :3], shard.labels)
        elif fault == "foreign width":
            foreign = FeatureBatch(foreign.embeddings[:, 1:], foreign.labels)
        else:
            params = nn.init_params(nn.mlp_spec(4, (6,), (4,), 3), 0)
        before = params.vec.copy()
        with pytest.raises(ValueError, match=error):
            local_train(params, spec, shard, self.config(batch_size=4), 2,
                        np.random.default_rng(0), foreign=foreign,
                        prototypes=rng.normal(size=(3, spec.embedding_dim)))
        assert before.tobytes() == params.vec.tobytes()

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
        # a finite loss whose gradient overflows from the fourth batch on:
        # the kernel that writes the first layer's weight gradient, which
        # each step's extractor backward calls once, writes inf from then on
        spec = small_spec()
        calls = []

        def overflowing(saved, grad, w_grad, b_grad):
            original(saved, grad, w_grad, b_grad)
            if w_grad.shape == spec.layout.spans[(0, "W")][2]:
                calls.append(None)
                if len(calls) >= 4:
                    w_grad[0, 0] = np.inf

        original = nn._affine_grad
        monkeypatch.setattr(nn, "_affine_grad", overflowing)
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
        # float16, as decoded; column 0 holds the row's position in the
        # sample, so a drawn row can be traced back to it
        rng = np.random.default_rng(1)
        embeddings = rng.normal(size=(n, d)).astype(np.float16)
        embeddings[:, 0] = np.arange(n)
        return FeatureBatch(embeddings, rng.integers(0, 3, size=n))

    def sfmc_calls(self, monkeypatch, shard, foreign, **kw):
        """The foreign batch and local rows of every head pass, after
        checking that the call upcast the sample once."""
        calls, upcasts = [], []

        def spy(head, u, foreign):
            # every argument is a view of the step's buffers: keep copies
            draws = []
            spied_draw(draws, head, u, foreign)
            calls.append((draws[0], u.copy(), head.labels[:len(u)].copy()))
            return original(head, u, foreign)

        def spy_upcast(values):
            upcasts.append(values)
            return original_upcast(values)

        original, original_upcast = federation.compute_sfmc_loss, federation.upcast
        monkeypatch.setattr(federation, "compute_sfmc_loss", spy)
        monkeypatch.setattr(federation, "upcast", spy_upcast)
        spec = small_spec()
        local_train(nn.init_params(spec, 0), spec, shard, self.config(**kw), 2,
                    np.random.default_rng(0), foreign=foreign, round_tag=1)
        assert len(upcasts) == 1 and upcasts[0] is foreign.embeddings
        for _, u, labels in calls:
            assert len(u) == len(labels) and u.dtype == np.float64
        return calls

    def test_each_step_draws_one_foreign_row_per_local_row(self, monkeypatch):
        foreign = self.foreign(12, small_spec().embedding_dim)
        calls = self.sfmc_calls(monkeypatch, self.shard(10), foreign)
        # batches of 4, 4 and 2 rows in each of two epochs, each stacked on
        # as many foreign rows
        assert [(len(batch), len(u)) for batch, u, _ in calls] == [(4, 4), (4, 4), (2, 2)] * 2
        for batch, _, _ in calls:
            rows = batch.embeddings[:, 0].astype(np.int64)
            assert np.all(np.diff(rows) > 0)          # distinct, in sample order
            expected = take_rows(foreign, rows)
            # drawn from the sample's one float64 upcast
            assert batch.embeddings.dtype == np.float64
            for column in ("embeddings", "labels"):
                assert np.array_equal(getattr(batch, column), getattr(expected, column))
        # the draws are fresh: the steps do not all see the same rows
        assert len({tuple(b.embeddings[:, 0]) for b, _, _ in calls}) > 1

    @pytest.mark.parametrize("rows", [3, 4])
    def test_sample_no_larger_than_the_batch_is_passed_whole(self, monkeypatch, rows):
        foreign = self.foreign(rows, small_spec().embedding_dim)
        calls = self.sfmc_calls(monkeypatch, self.shard(8), foreign)
        # every step gets the whole sample in sample order, upcast once for
        # the call, under its whole batch of 4 local rows
        assert len(calls) == 4
        assert all(len(u) == 4 for _, u, _ in calls)
        for batch, _, _ in calls:
            assert batch.embeddings.dtype == np.float64
            assert np.array_equal(batch.embeddings, foreign.embeddings)
            assert np.array_equal(batch.labels, foreign.labels)

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

        def spy(bank, batch, client_id, round):
            inserted.append((len(batch), client_id, round))
            return original(bank, batch, client_id, round)

        monkeypatch.setattr(FeatureBank, "insert", spy)
        shards, global_test = small_federation()
        cfg = FederationConfig(rounds=2, num_clients=3, local_epochs=1, num_classes=3,
                               batch_size=4, seed=0, track_geometry=False)
        run_federation(cfg, shards, small_spec(), global_test)
        # three 4-row mini-batches per client, inserted together, named by
        # the transfer's client and round
        assert inserted == [(12, cid, t) for t in (1, 2) for cid in range(3)]

    def test_one_insert_keeps_the_per_batch_bank(self):
        # FIFO slots trimmed once hold the rows that per-batch trimming keeps,
        # as the float16 the blob carried; the centers step once per batch
        rng = np.random.default_rng(0)
        d, k, mu = 3, 2, 0.5
        batches = {cid: [FeatureBatch(rng.normal(size=(n, d)).astype(np.float16),
                                      rng.integers(0, k, n)) for n in (5, 5, 4)]
                   for cid in (0, 1)}
        uploads = {cid: serialize_features(concat_batches(b)) for cid, b in batches.items()}
        cfg = FederationConfig(num_clients=2, num_classes=k, bank_capacity=4, batch_size=5,
                               mu_client=mu)
        shards = {cid: ClientShard(cid, np.zeros((14, 1)), np.zeros(14, dtype=np.int64))
                  for cid in (0, 1)}
        bank, centers = FeatureBank(4, 2, k, d), np.zeros((2, k, d))
        federation._server_feature_update(bank, centers, np.zeros((k, d)), uploads, shards, cfg, 3)
        reference, want = FeatureBank(4, 2, k, d), np.zeros((2, k, d))
        for cid in (0, 1):
            for batch in batches[cid]:
                reference.insert(batch, cid, 3)
                for cls in np.unique(batch.labels):
                    rows = batch.embeddings[batch.labels == cls].astype(np.float64)
                    want[cid, cls] = (1 - mu) * want[cid, cls] + mu * rows.mean(axis=0)
        # every row of each bank, in pool order
        got, slots = (as_batch(b.sample(-1, len(b) + 1, seed=0)) for b in (bank, reference))
        assert got.embeddings.dtype == np.float16
        assert all(np.array_equal(getattr(got, c), getattr(slots, c))
                   for c in ("embeddings", "labels"))
        assert centers.tobytes() == want.tobytes()

    def test_foreign_sample_is_one_gather_and_no_encode(self, monkeypatch):
        """A client's foreign sample is one gather of the bank's rows, sent
        behind the blob's header: nothing encodes it again."""
        class Rows(np.ndarray):
            takes = 0

            def take(self, *args, **kwargs):
                Rows.takes += 1
                return np.asarray(super().take(*args, **kwargs))

        rng = np.random.default_rng(0)
        d, k, clients = 5, 3, 4
        bank = FeatureBank(6, clients, k, d)
        for t in (1, 2):
            for cid in range(clients):
                bank.insert(FeatureBatch(rng.normal(size=(9, d)).astype(np.float16),
                                         rng.integers(0, k, 9)), cid, t)
        bank._rows = bank._rows.view(Rows)
        encoded = []

        def spy(batch):
            encoded.append(len(batch))
            return original(batch)

        original = protocol.feature_rows
        monkeypatch.setattr(protocol, "feature_rows", spy)
        monkeypatch.setattr(federation, "serialize_features", spy)
        cfg = FederationConfig(num_clients=clients, num_classes=k, sample_count=5, seed=3)
        foreign, nbytes = federation._foreign(bank, cfg, 2, 1)
        assert Rows.takes == 1 and encoded == []
        assert len(foreign) == 3 * 5 and nbytes == feature_blob_bytes(15, d)
        seed = int(np.random.SeedSequence(entropy=[3, 2, 2, 1]).generate_state(1)[0])
        rows = np.asarray(bank.sample(1, 5, seed))
        assert foreign.embeddings.tobytes() == rows[:, 1:].tobytes()
        assert foreign.labels.tolist() == rows[:, 0].tolist()

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


class TestLabelCount:
    """A label vector that is not one label per scored row is rejected,
    naming both lengths, where it used to be read short or broadcast; one
    that holds a label outside the classes is rejected too."""

    def test_accuracy_rejects_more_labels_than_rows(self):
        spec = small_spec()
        params = nn.init_params(spec, 0)
        x = np.random.default_rng(0).normal(size=(10, 4))
        with pytest.raises(ValueError, match=r"^labels shape \(20,\) does not match batch 10$"):
            federation.evaluate_accuracy(params, spec, x, np.zeros(20, np.int64))
        with pytest.raises(ValueError, match=r"^labels shape \(9,\) does not match batch 10$"):
            federation.evaluate_accuracy(params, spec, x, np.zeros(9, np.int64))

    @pytest.mark.parametrize("labels", [1, 4, 10])
    def test_accuracy_names_one_dimensional_rows_before_the_label_count(self, labels):
        # the rows are what is wrong, whatever the label count: it used to
        # be checked first, against the row width as the batch
        spec = small_spec()                         # 4 inputs
        params = nn.init_params(spec, 0)
        with pytest.raises(nn.ShapeError,
                           match=r"^layer 0: input of shape \(4,\), expected \(rows, 4\)$"):
            federation.evaluate_accuracy(params, spec, np.ones(4), np.zeros(labels, np.int64))

    @pytest.mark.parametrize("run", [run_federation, run_few_shot])
    @pytest.mark.parametrize("labels", [1, 2])      # one label broadcast, or twice as many
    def test_runs_reject_the_test_sets_label_count_before_training(self, run, labels,
                                                                   monkeypatch):
        shards, global_test = small_federation()
        n = len(global_test)
        bad = ClientShard(global_test.client_id, global_test.inputs,
                          np.resize(global_test.labels, 1 if labels == 1 else 2 * n))
        cfg = FederationConfig(rounds=1, num_clients=3, num_classes=3, track_geometry=False)

        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the test set")

        monkeypatch.setattr(federation, "_train", no_training)
        shape = (1,) if labels == 1 else (2 * n,)
        with pytest.raises(ValueError, match=rf"^labels shape \({shape[0]},\) does not match batch {n}$"):
            run(cfg, shards, small_spec(), bad)

    @pytest.mark.parametrize("label", [3, 7, -1])
    def test_accuracy_rejects_labels_outside_the_classes(self, label):
        # such labels never match a logit, so they used to lower the accuracy
        spec = small_spec()
        params = nn.init_params(spec, 0)
        x = np.random.default_rng(0).normal(size=(10, 4))
        labels = np.zeros(10, np.int64)
        labels[::2] = label
        with pytest.raises(ValueError, match=r"^label out of range \[0, 3\)$"):
            federation.evaluate_accuracy(params, spec, x, labels)

    @pytest.mark.parametrize("run", [run_federation, run_few_shot])
    @pytest.mark.parametrize("label", [7, -1])
    def test_runs_reject_test_labels_outside_the_classes_before_training(self, run, label,
                                                                         monkeypatch):
        shards, global_test = small_federation()
        labels = global_test.labels.copy()
        labels[::2] = label
        bad = ClientShard(global_test.client_id, global_test.inputs, labels)
        cfg = FederationConfig(rounds=1, num_clients=3, num_classes=3, track_geometry=False)

        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the test set")

        monkeypatch.setattr(federation, "_train", no_training)
        with pytest.raises(ValueError, match=r"^label out of range \[0, 3\)$"):
            run(cfg, shards, small_spec(), bad)

    def label_fit(self, labels):
        """(params, spec, inputs, shard, config) for 3 rows with ``labels``."""
        spec = small_spec()
        x = np.random.default_rng(0).normal(size=(3, 4))
        cfg = FederationConfig(rounds=1, num_clients=1, num_classes=3, batch_size=2)
        return nn.init_params(spec, 0), spec, x, ClientShard(0, x, labels), cfg

    @pytest.mark.parametrize("labels", [[1.5, 2.9, 0.2], np.array([1.0, 2.0, 0.0])])
    def test_labels_that_are_not_integers_are_rejected(self, labels):
        # an int64 cast would truncate 1.5 to 1 without a word, so float
        # labels are rejected, even where every value is whole
        params, spec, x, shard, cfg = self.label_fit(labels)
        with pytest.raises(ValueError, match=r"^labels must be integers, got float64$"):
            local_train(params, spec, shard, cfg, 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"^labels must be integers, got float64$"):
            federation.evaluate_accuracy(params, spec, x, labels)

    def test_integer_label_lists_are_read(self):
        params, spec, x, shard, cfg = self.label_fit([1, 2, 0])
        assert local_train(params, spec, shard, cfg, 1, np.random.default_rng(0))[1][3] == 2
        assert federation.evaluate_accuracy(params, spec, x, [1, 2, 0]) in (0.0, 1 / 3, 2 / 3, 1.0)


def per_class_centers(centers, rows, config):
    """``_update_centers`` as it was: a boolean-mask copy per (batch, class)."""
    embeddings = upcast(rows.embeddings)
    for start in range(0, len(rows), config.batch_size):
        batch = embeddings[start:start + config.batch_size]
        labels = rows.labels[start:start + config.batch_size]
        for cls in np.flatnonzero(np.bincount(labels)):
            centers[cls] = update_client_center(centers[cls], batch[labels == cls],
                                                config.mu_client)


class TestGroupedServerUpdate:
    """The client-center EMA over rows grouped by (batch, class) keeps the
    bits of the boolean-mask copy per (batch, class) it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(0, 300), d=st.integers(1, 70), k=st.integers(1, 6),
           batch_size=st.integers(1, 80), seed=st.integers(0, 2**31 - 1))
    def test_centers_keep_the_per_class_bits(self, n, d, k, batch_size, seed):
        rng = np.random.default_rng(seed)
        rows = FeatureBatch(rng.normal(scale=3.0, size=(n, d)).astype(np.float16),
                            rng.integers(0, k, n))
        cfg = FederationConfig(num_classes=k, batch_size=batch_size, mu_client=0.37)
        start = rng.normal(size=(k, d))
        got, want = start.copy(), start.copy()
        calls = []

        def spy(*args):
            calls.append(args[1].shape)
            return original(*args)

        original = federation.update_client_center
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(federation, "update_client_center", spy)
            federation._update_centers(got, rows, cfg)
        grouped = len(calls)
        per_class_centers(want, rows, cfg)
        assert got.tobytes() == want.tobytes()
        # one EMA step per class present in each mini-batch, as before
        assert grouped == sum(len(np.unique(rows.labels[s:s + batch_size]))
                              for s in range(0, n, batch_size))

    def test_round_update_keeps_the_per_class_bits(self):
        # the whole server phase at scale M's shapes: 20 uploads of 500
        # rows of 64, 3 classes, 64-row batches
        rng = np.random.default_rng(5)
        clients, n, d, k = 20, 500, 64, 3
        cfg = FederationConfig(num_clients=clients, num_classes=k, batch_size=64)
        batches = {cid: FeatureBatch(np.maximum(rng.normal(size=(n, d)), 0.0).astype(np.float16),
                                     rng.integers(0, k, n)) for cid in range(clients)}
        uploads = {cid: serialize_features(b) for cid, b in batches.items()}
        shards = {cid: ClientShard(cid, np.zeros((n - cid, 1)), np.zeros(n - cid, np.int64))
                  for cid in range(clients)}
        centers, prototypes = np.zeros((clients, k, d)), np.zeros((k, d))
        bank = FeatureBank(cfg.bank_capacity, clients, k, d)
        with one_blas_thread():
            for t in (1, 2):
                want_centers, want = centers.copy(), prototypes.copy()
                federation._server_feature_update(bank, centers, prototypes, uploads, shards,
                                                  cfg, t)
                for cid in range(clients):
                    per_class_centers(want_centers[cid], deserialize_features(uploads[cid]),
                                      cfg)
                for cls in range(k):
                    want[cls] = update_global_prototype(
                        want[cls], [want_centers[cid, cls] for cid in range(clients)],
                        [len(shards[cid]) for cid in range(clients)], cfg.mu_server)
                assert centers.tobytes() == want_centers.tobytes()
                assert prototypes.tobytes() == want.tobytes()


def workspace_arrays(workspace) -> list:
    """Every array of a workspace's buffers, views included; the passes'
    label-index constants are left out, as nothing writes them."""
    found = [workspace.params.vec, workspace.grads.vec, *(p.vec for p in workspace.moments)]
    for pass_ in (workspace.extractor, workspace.head):
        found += [pass_.input, getattr(pass_, "labels", None)]
        for forward_steps, backward_steps, arrays in pass_._plans.values():
            for step in (*forward_steps, *backward_steps):
                found += step[1:]
            if arrays is not None:
                found += arrays[1:]             # arrays[0]: each row's label offset
    return [a for a in found if isinstance(a, np.ndarray)]


def poison(workspace) -> None:
    """Every buffer of ``workspace`` filled with values no call may read."""
    for array in workspace_arrays(workspace):
        if array.dtype.kind == "f":
            array.fill(np.nan)
        elif array.dtype == bool:
            array.fill(True)
        else:
            array.fill(2**40)                   # a label no network has


class TestWorkspace:
    """``run_federation`` and ``run_few_shot`` train every client in one
    workspace per run, with the bits of a workspace made for each call."""

    def shards(self):
        # unequal shards, none a multiple of the 4-row batch but one: short
        # final batches of 3 and 2 rows
        shards, global_test = small_federation(n=12)
        return ([ClientShard(s.client_id, s.inputs[:n], s.labels[:n])
                 for s, n in zip(shards, (12, 7, 10))], global_test)

    def config(self, **kw):
        # 3-row foreign samples: each 4-row batch takes a sample whole, a
        # 2-row one draws from it
        base = dict(rounds=3, num_clients=3, local_epochs=2, num_classes=3, batch_size=4,
                    learning_rate=1e-2, seed=3, bank_capacity=2, sample_count=3,
                    track_geometry=False)
        base.update(kw)
        return FederationConfig(**base)

    def run(self, kind, cfg, wrap=None):
        """(metrics, ledger entries, model bits) of one run, with ``wrap``
        applied to ``federation._train`` and the workspaces it was given."""
        shards, global_test = self.shards()
        seen = []
        original = federation._train

        def train(*args, **kw):
            workspace = args[7] if len(args) > 7 else kw.get("workspace")
            seen.append(workspace)
            return wrap(original, *args, **kw) if wrap else original(*args, **kw)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(federation, "_train", train)
            if kind == "few-shot":
                result = run_few_shot(cfg, shards, small_spec(), global_test,
                                      stage_epochs=(2, 1, 2))
                models = [*result.client_params, result.server_params]
                extra = result.ensemble_accuracy
            else:
                order = [2, 0, 1] if kind == "permuted" else None
                result = run_federation(cfg, shards, small_spec(), global_test,
                                        client_order=order, snapshot_rounds=(1, 2))
                models = [result.params, *result.snapshots.values()]
                extra = sorted(result.snapshots)
        bits = [params.vec.tobytes() for params in models]
        return (result.metrics, result.ledger.entries, bits, extra), seen

    @staticmethod
    def fresh(original, *args, **kw):
        """``_train`` with no workspace, so ``local_train`` makes one per call."""
        return original(*args[:7], **kw)

    @pytest.mark.parametrize("kind", ["rounds", "permuted", "few-shot"])
    @pytest.mark.parametrize("sfmc,cpgma", [(False, False), (True, False), (False, True),
                                            (True, True)])
    def test_one_workspace_keeps_every_bit(self, kind, sfmc, cpgma):
        cfg = self.config(enable_sfmc=sfmc, enable_cpgma=cpgma)
        shared, seen = self.run(kind, cfg)
        fresh, unseen = self.run(kind, cfg, self.fresh)
        assert shared == fresh
        # one workspace for all nine calls, passed on to every local_train
        assert len(seen) == 9 and all(w is seen[0] for w in seen)
        assert isinstance(seen[0], federation.Workspace)

    @pytest.mark.parametrize("kind", ["rounds", "few-shot"])
    def test_no_call_reads_what_the_last_left(self, kind):
        cfg = self.config()

        def poisoned(original, *args, **kw):
            poison(args[7])
            return original(*args, **kw)

        assert self.run(kind, cfg, poisoned)[0] == self.run(kind, cfg, self.fresh)[0]

    def test_poison_reaches_every_buffer(self):
        # the poisoned runs prove nothing if the walk misses a buffer: the
        # arrays it finds hold all but a few KB of what a workspace
        # allocates for the benchmark network (the rest is Python objects
        # and the passes' label offsets)
        spec = nn.mlp_spec(16, (64,), (32, 16), 3)
        params = nn.init_params(spec, 0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            workspace = federation.Workspace(params, spec, 64)
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        bases = {id(base): base for base in (a if a.base is None else a.base
                                             for a in workspace_arrays(workspace))}
        found = sum(base.nbytes for base in bases.values()) - params.vec.nbytes
        assert allocated - 8192 < found <= allocated

    @pytest.mark.parametrize("kind", ["rounds", "few-shot"])
    def test_nothing_but_the_result_outlives_the_run(self, kind):
        # the benchmark network and batch, whose workspace holds about
        # 420 KB: nothing of it, nor of any call, is left once the result goes
        shards, global_test = generate_federation(DatasetSpec(
            input_dim=16, num_classes=3, samples_per_client=96, num_clients=3,
            skew_strength=1.0, noise_std=0.1, seed=0))
        spec = nn.mlp_spec(16, (64,), (32, 16), 3)
        cfg = FederationConfig(rounds=2, num_clients=3, local_epochs=1, num_classes=3,
                               batch_size=64, seed=0, sample_count=96, track_geometry=False)

        def go():
            if kind == "few-shot":
                return run_few_shot(cfg, shards, spec, global_test, stage_epochs=(1, 1, 1))
            return run_federation(cfg, shards, spec, global_test)

        go()                    # first-call imports and caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = go()
            held = tracemalloc.get_traced_memory()[0] - before
            del result
            gc.collect()
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert 0 < held < 256 << 10 and left < 8 << 10

    @pytest.mark.parametrize("first", ["cold", "warm"])
    def test_prototypes_written_in_place_are_read_anew(self, first):
        # a caller may write the next prototypes into the array it passed
        # last: the second call in a reused workspace trains as a fresh one
        spec = nn.mlp_spec(16, (64,), (32, 16), 3)
        rng = np.random.default_rng(0)
        shard = ClientShard(0, rng.normal(size=(24, 16)), rng.integers(0, 3, 24))
        cfg = self.config(batch_size=8, enable_sfmc=False, enable_cpgma=True)
        prototypes = np.zeros((3, spec.embedding_dim))
        if first == "warm":
            prototypes[...] = rng.normal(size=prototypes.shape)
        workspace = federation.Workspace(nn.init_params(spec, 0), spec, 8)
        local_train(workspace.params, spec, shard, cfg, 1, np.random.default_rng(1),
                    prototypes=prototypes, workspace=workspace)
        prototypes[...] = rng.normal(size=prototypes.shape)
        fresh = workspace.params.copy()
        local_train(workspace.params, spec, shard, cfg, 1, np.random.default_rng(2),
                    prototypes=prototypes, workspace=workspace)
        local_train(fresh, spec, shard, cfg, 1, np.random.default_rng(2), prototypes=prototypes)
        assert workspace.params.vec.tobytes() == fresh.vec.tobytes()

    def test_a_workspace_trains_its_own_model_only(self):
        spec = small_spec()
        shard = ClientShard(0, np.zeros((8, 4)), np.zeros(8, np.int64))
        cfg = self.config(batch_size=4)
        workspace = federation.Workspace(nn.init_params(spec, 0), spec, 4)
        for params, network, batch in ((nn.init_params(spec, 0), spec, 4),
                                       (workspace.params, small_spec(k=2), 4),
                                       (workspace.params, spec, 5)):
            with pytest.raises(ValueError, match="^the workspace was made for another"):
                local_train(params, network, shard, self.config(batch_size=batch), 1,
                            np.random.default_rng(0), workspace=workspace)
        local_train(workspace.params, spec, shard, cfg, 1, np.random.default_rng(0),
                    workspace=workspace)
