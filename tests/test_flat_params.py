"""The flat parameter vector against the per-tensor code it replaced.

Every model is one contiguous float64 vector with a view per (layer, kind)
tensor. The optimizers, aggregation, ``add_scaled`` and serialization run over
the whole vector; each must give the same bits as the per-key loops copied
below as references. Comparisons are on raw bytes, so a -0.0 that turns into
+0.0 fails them. Every gradient is laid out like the whole model, so
``local_train`` adds an auxiliary gradient over the whole vector where it
once added only the slice of the layers the gradient covered; both give the
same parameter bits.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmp import nn
from fedmp.data import ClientShard
from fedmp.federation import FederationConfig, aggregate_models, local_train
from fedmp.protocol import MODEL_MAGIC, FeatureBatch, deserialize_model, serialize_model


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_tensors(params: nn.Parameters, ref: dict) -> bool:
    return params.keys() == sorted(ref) and all(same_bits(params[k], ref[k]) for k in ref)


# ---------------------------------------------------------------------------
# per-key references: the dict-of-tensors code the flat vector replaced


class RefAdam:
    def __init__(self, state: nn.AdamState):
        self.hp = state
        self.step = 0
        self.m = self.v = None


def reference_adam_step(params: dict, grads: dict, state: RefAdam) -> None:
    hp = state.hp
    if state.m is None:
        state.m = {k: np.zeros_like(v) for k, v in params.items()}
        state.v = {k: np.zeros_like(v) for k, v in params.items()}
    state.step += 1
    t = state.step
    b1, b2 = hp.beta1, hp.beta2
    for key in sorted(params):
        g = grads.get(key)
        g = np.zeros_like(params[key]) if g is None else g
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient at {key}")
        if hp.weight_decay:
            g = g + hp.weight_decay * params[key]
        state.m[key] = b1 * state.m[key] + (1 - b1) * g
        state.v[key] = b2 * state.v[key] + (1 - b2) * g * g
        m_hat = state.m[key] / (1 - b1**t)
        v_hat = state.v[key] / (1 - b2**t)
        params[key] -= hp.learning_rate * m_hat / (np.sqrt(v_hat) + hp.eps)


def reference_sgd_step(params: dict, grads: dict, hp: nn.AdamState) -> None:
    for key in sorted(params):
        g = grads.get(key)
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient at {key}")
        if hp.weight_decay:
            g = g + hp.weight_decay * params[key]
        params[key] -= hp.learning_rate * g


def reference_aggregate(models: list[dict], sizes) -> dict:
    sizes = np.asarray(sizes, dtype=np.float64)
    weights = sizes / sizes.sum()
    out = {k: np.zeros_like(v) for k, v in models[0].items()}
    for w, model in zip(weights, models):
        for k in model:
            out[k] += float(w) * model[k]
    return out


def reference_serialize(params: nn.Parameters) -> bytes:
    parts = [struct.pack("<II", MODEL_MAGIC, len(params.keys()))]
    for key in params.keys():
        arr = params[key]
        rows, cols = (1, arr.shape[0]) if arr.ndim == 1 else arr.shape
        parts.append(struct.pack("<II", rows, cols))
        parts.append(arr.astype("<f4").tobytes())
    return b"".join(parts)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def networks(draw):
    width = st.integers(1, 7)
    spec = nn.mlp_spec(draw(width), draw(st.lists(width, min_size=1, max_size=2)),
                       draw(st.lists(width, max_size=2)), draw(st.integers(2, 4)))
    return spec, draw(st.integers(0, 2**31 - 1))


def random_tensors(spec: nn.NetworkSpec, rng, layers) -> dict:
    """Normal draws for the tensors of ``layers``, with some exact +0.0 and
    -0.0 entries so sign-of-zero changes show."""
    out = {}
    params = nn.init_params(spec, 0)
    for key in params.keys():
        if key[0] not in layers:
            continue
        arr = rng.normal(size=params[key].shape)
        arr[rng.random(arr.shape) < 0.15] = 0.0
        arr[rng.random(arr.shape) < 0.15] = -0.0
        out[key] = arr
    return out


COVERS = ("full", "classifier", "extractor")


def covered_layers(spec: nn.NetworkSpec, cover: str) -> range:
    n, split = len(spec.layers), spec.split_index
    return {"full": range(n), "classifier": range(split, n), "extractor": range(split)}[cover]


# ---------------------------------------------------------------------------
# optimizers and aggregation


@settings(max_examples=60, deadline=None)
@given(net=networks(), steps=st.integers(1, 4), decay=st.booleans())
def test_adam_step_matches_per_key_reference(net, steps, decay):
    spec, seed = net
    rng = np.random.default_rng(seed)
    params = nn.init_params(spec, seed)
    ref = {k: params[k].copy() for k in params.keys()}
    state = nn.AdamState(learning_rate=1e-2, weight_decay=5e-3 if decay else 0.0)
    ref_state = RefAdam(nn.AdamState(learning_rate=1e-2, weight_decay=state.weight_decay))
    for _ in range(steps):
        tensors = random_tensors(spec, rng, range(len(spec.layers)))
        nn.adam_step(params, nn.Parameters(tensors), state)
        reference_adam_step(ref, tensors, ref_state)
    assert same_tensors(params, ref)
    assert same_tensors(state.m, ref_state.m) and same_tensors(state.v, ref_state.v)
    assert state.step == ref_state.step == steps


@settings(max_examples=60, deadline=None)
@given(net=networks(), steps=st.integers(1, 4), decay=st.booleans())
def test_sgd_step_matches_per_key_reference(net, steps, decay):
    spec, seed = net
    rng = np.random.default_rng(seed)
    params = nn.init_params(spec, seed)
    ref = {k: params[k].copy() for k in params.keys()}
    state = nn.AdamState(learning_rate=1e-1, weight_decay=5e-3 if decay else 0.0)
    for _ in range(steps):
        tensors = random_tensors(spec, rng, range(len(spec.layers)))
        nn.sgd_step(params, nn.Parameters(tensors), state)
        reference_sgd_step(ref, tensors, state)
    assert same_tensors(params, ref)
    assert state.step == steps


@settings(max_examples=40, deadline=None)
@given(net=networks(), sizes=st.lists(st.integers(1, 500), min_size=1, max_size=4))
def test_aggregate_matches_per_key_reference(net, sizes):
    spec, seed = net
    rng = np.random.default_rng(seed)
    models = [random_tensors(spec, rng, range(len(spec.layers))) for _ in sizes]
    got = aggregate_models([nn.Parameters(m) for m in models], sizes)
    assert same_tensors(got, reference_aggregate(models, sizes))


@settings(max_examples=40, deadline=None)
@given(net=networks(), scale=st.floats(-2, 2))
def test_add_scaled_matches_per_key_reference(net, scale):
    spec, seed = net
    rng = np.random.default_rng(seed)
    every = range(len(spec.layers))
    base = random_tensors(spec, rng, every)
    tensors = random_tensors(spec, rng, every)
    params = nn.Parameters(base)
    params.add_scaled(nn.Parameters(tensors), scale)
    ref = {k: v.copy() for k, v in base.items()}
    for k in tensors:
        ref[k] += scale * tensors[k]
    assert same_tensors(params, ref)


@pytest.mark.parametrize("cover", ("classifier", "extractor"))
def test_add_scaled_rejects_another_layout(cover):
    spec = nn.mlp_spec(3, (4,), (5,), 2)
    params = nn.init_params(spec, 0)
    before = params.vec.copy()
    part = random_tensors(spec, np.random.default_rng(0), covered_layers(spec, cover))
    with pytest.raises(nn.ShapeError, match="laid out like"):
        params.add_scaled(nn.Parameters(part), 1.0)
    assert same_bits(params.vec, before)


# ---------------------------------------------------------------------------
# backward


def test_backward_writes_into_out_slices():
    """Only the cached layers' tensors are written: into ``out``, whose other
    tensors keep their values, or into a fresh vector with +0.0 elsewhere."""
    spec = nn.mlp_spec(4, (5,), (3,), 2)
    params = nn.init_params(spec, 1)
    x = np.random.default_rng(1).normal(size=(3, 4))
    u, cache_f = nn.forward_extractor(params, spec, x)
    logits, cache_c = nn.forward_classifier(params, spec, u)
    head = nn.backward(params, spec, cache_c, np.ones_like(logits))
    extractor = nn.backward(params, spec, cache_f, np.ones_like(u))
    sentinel = np.full(params.count(), -7.25)
    out = nn.Parameters.over(sentinel.copy(), params.layout)
    assert nn.backward(params, spec, cache_c, np.ones_like(logits), out=out) is out
    for key in out.keys():
        want = head[key] if key[0] >= spec.split_index else np.full(out[key].shape, -7.25)
        assert same_bits(out[key], want)
    assert nn.backward(params, spec, cache_f, np.ones_like(u), out=out) is out
    for key in out.keys():
        assert same_bits(out[key], (head if key[0] >= spec.split_index else extractor)[key])
    for grads, cached in ((head, range(spec.split_index, len(spec.layers))),
                          (extractor, range(spec.split_index))):
        assert grads.layout is params.layout
        assert all(same_bits(grads[k], np.zeros(grads[k].shape))
                   for k in grads.keys() if k[0] not in cached)
    head_only = nn.Parameters({k: head[k] for k in head.keys() if k[0] >= spec.split_index})
    with pytest.raises(nn.ShapeError, match="laid out like params"):
        nn.backward(params, spec, cache_c, np.ones_like(logits), out=head_only)


# ---------------------------------------------------------------------------
# the vector and its views


@settings(max_examples=30, deadline=None)
@given(net=networks())
def test_writes_through_keys_reach_vec(net):
    spec, seed = net
    rng = np.random.default_rng(seed)
    params = nn.init_params(spec, seed)
    for key in params.keys():
        value = rng.normal(size=params[key].shape)
        params[key] = value
        lo = params.layout.spans[key][0]
        assert same_bits(params.vec[lo:lo + value.size], value.ravel())
        params[key] += 1.0
        assert same_bits(params.vec[lo:lo + value.size], (value + 1.0).ravel())
    before = params.vec.copy()
    key = params.keys()[0]
    with pytest.raises(nn.ShapeError):
        params[key] = np.zeros(params[key].size + 1)
    assert same_bits(params.vec, before)


@settings(max_examples=30, deadline=None)
@given(net=networks())
def test_copy_does_not_alias(net):
    spec, seed = net
    params = nn.init_params(spec, seed)
    before = params.vec.copy()
    dup = params.copy()
    assert not np.shares_memory(dup.vec, params.vec)
    dup.vec += 1.0
    for key in dup.keys():
        dup[key] = np.zeros(dup[key].shape)
    assert same_bits(params.vec, before)
    # layouts are built once per structure
    assert dup.layout is params.layout
    assert nn.init_params(spec, seed + 1).layout is params.layout


@settings(max_examples=30, deadline=None)
@given(net=networks())
def test_dict_round_trips_through_model_blobs(net):
    spec, seed = net
    rng = np.random.default_rng(seed)
    tensors = {k: v.astype(np.float32).astype(np.float64)
               for k, v in random_tensors(spec, rng, range(len(spec.layers))).items()}
    params = nn.Parameters(tensors)
    blob = serialize_model(params)
    assert blob == reference_serialize(params)
    out = deserialize_model(blob, spec)
    assert same_tensors(out, tensors)
    assert same_bits(out.vec, params.vec)


# ---------------------------------------------------------------------------
# rejected gradients


def stepped_once(step):
    """A small model and its optimizer state after one ``step``, so the
    moments exist."""
    spec = nn.mlp_spec(3, (4,), (5,), 2)
    params = nn.init_params(spec, 0)
    state = nn.AdamState(learning_rate=1e-2)
    rng = np.random.default_rng(0)
    step(params, nn.Parameters(random_tensors(spec, rng, covered_layers(spec, "full"))), state)
    return spec, params, state, rng


def assert_unchanged_after_one_step(params, state, snapshot, moments):
    assert same_bits(params.vec, snapshot)
    assert state.step == 1
    for s, before in zip((state.m, state.v), moments):
        assert (s is None and before is None) or same_bits(s.vec, before)


@pytest.mark.parametrize("step", [nn.adam_step, nn.sgd_step])
@pytest.mark.parametrize("cover", COVERS)
def test_non_finite_gradient_changes_nothing(step, cover):
    """A NaN and an inf in the ``cover`` layers of a whole-model gradient."""
    spec, params, state, rng = stepped_once(step)
    tensors = random_tensors(spec, rng, covered_layers(spec, "full"))
    first, later = sorted(k for k in tensors if k[0] in covered_layers(spec, cover))[-2:]
    tensors[first].flat[-1] = np.nan
    tensors[later].flat[0] = np.inf
    snapshot = params.vec.copy()
    moments = [None if s is None else s.vec.copy() for s in (state.m, state.v)]
    with pytest.raises(ValueError, match="non-finite") as err:
        step(params, nn.Parameters(tensors), state)
    assert str(first) in str(err.value) and str(later) not in str(err.value)
    assert_unchanged_after_one_step(params, state, snapshot, moments)


@pytest.mark.parametrize("step", [nn.adam_step, nn.sgd_step])
@pytest.mark.parametrize("cover", ("classifier", "extractor"))
def test_partial_gradient_changes_nothing(step, cover):
    """The optimizers take only a gradient laid out like the whole model."""
    spec, params, state, rng = stepped_once(step)
    tensors = random_tensors(spec, rng, covered_layers(spec, cover))
    snapshot = params.vec.copy()
    moments = [None if s is None else s.vec.copy() for s in (state.m, state.v)]
    with pytest.raises(nn.ShapeError, match="laid out like the model"):
        step(params, nn.Parameters(tensors), state)
    assert_unchanged_after_one_step(params, state, snapshot, moments)


# ---------------------------------------------------------------------------
# whole-vector gradient adds in local training


class SliceAdds:
    """``backward`` and ``add_scaled`` as they were when a gradient held only
    the tensors of the cached layers, so an auxiliary gradient was added into
    its own slice of ``total_grads`` alone."""

    def __init__(self):
        self.covers = []            # (gradient, first layer, stop layer)
        self.backward = nn.backward

    def tagged_backward(self, params, spec, cache, upstream, *, out=None):
        grads = self.backward(params, spec, cache, upstream, out=out)
        if out is None:
            self.covers.append((grads, cache[0][0], cache[-1][0] + 1))
        return grads

    def add_scaled(self, total, other, scale):
        start, stop = next((a, b) for grads, a, b in self.covers if grads is other)
        spans = [total.layout.spans[k] for k in total.keys() if start <= k[0] < stop]
        lo, hi = spans[0][0], spans[-1][1]
        target = total.vec[lo:hi]
        target += scale * other.vec[lo:hi]


def train_client(optimizer, weight_decay, seed, batch_size, slice_adds=None):
    """One ``local_train`` call with SFMC and CPGMA both at work; with
    ``slice_adds``, through the slice add it replaced."""
    spec = nn.mlp_spec(4, (6,), (5,), 3)
    rng = np.random.default_rng(seed)
    shard = ClientShard(client_id=0, inputs=rng.normal(size=(10, 4)),
                        labels=(np.arange(10) % 3).astype(np.int64))
    foreign = FeatureBatch.of_client(rng.normal(size=(9, spec.embedding_dim)),
                                     rng.integers(0, 3, size=9), 1, 1)
    prototypes = rng.normal(size=(3, spec.embedding_dim))
    config = FederationConfig(rounds=1, num_clients=1, local_epochs=2, num_classes=3,
                              batch_size=batch_size, learning_rate=1e-2, seed=seed,
                              optimizer=optimizer, weight_decay=weight_decay)
    params = nn.init_params(spec, seed)
    with pytest.MonkeyPatch.context() as patch:
        if slice_adds is not None:
            patch.setattr(nn, "backward", slice_adds.tagged_backward)
            patch.setattr(nn.Parameters, "add_scaled",
                          lambda total, other, scale: slice_adds.add_scaled(total, other, scale))
        local_train(params, spec, shard, config, 2, np.random.default_rng(seed),
                    foreign=foreign, prototypes=prototypes, round_tag=1)
    return params


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("weight_decay", [0.0, 6e-3])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), batch_size=st.integers(1, 4))
def test_whole_vector_adds_give_the_bits_of_slice_adds(optimizer, weight_decay, seed,
                                                       batch_size):
    slice_adds = SliceAdds()
    sliced = train_client(optimizer, weight_decay, seed, batch_size, slice_adds)
    assert slice_adds.covers
    whole = train_client(optimizer, weight_decay, seed, batch_size)
    assert same_bits(whole.vec, sliced.vec)


@pytest.mark.parametrize("step", [nn.adam_step, nn.sgd_step])
@pytest.mark.parametrize("weight_decay", [0.0, 6e-3])
def test_sign_of_a_zero_gradient_changes_no_parameter_bit(step, weight_decay):
    """Where the two adds differ, the whole-vector add of a +0.0 may turn a
    -0.0 of ``total_grads`` into +0.0. No parameter is ever -0.0, and for
    either sign of a zero gradient both optimizers give the same bits."""
    spec = nn.mlp_spec(3, (4,), (5,), 2)
    rng = np.random.default_rng(3)
    states = [nn.AdamState(learning_rate=1e-2, weight_decay=weight_decay) for _ in "ab"]
    models = [nn.init_params(spec, 0) for _ in "ab"]
    for _ in range(4):
        grads = nn.Parameters(random_tensors(spec, rng, covered_layers(spec, "full")))
        flipped = grads.copy()
        flipped.vec[grads.vec == 0.0] *= -1.0
        assert not same_bits(flipped.vec, grads.vec)
        for model, g, state in zip(models, (grads, flipped), states):
            step(model, g, state)
        assert same_bits(models[0].vec, models[1].vec)
