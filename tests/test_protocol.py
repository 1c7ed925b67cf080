"""Wire-format round trips, feature-bank sampling rules, and ledger totals.

Byte lengths are checked against the closed-form formulas computed
independently of the serializers.
"""

import dataclasses
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmp import nn, protocol
from fedmp.protocol import (
    CommLedger,
    CorruptBlobError,
    FeatureBank,
    FeatureBatch,
    deserialize_features,
    deserialize_model,
    deserialize_prototypes,
    feature_blob_bytes,
    model_blob_bytes,
    prototype_blob_bytes,
    serialize_features,
    serialize_model,
    serialize_prototypes,
)

from helpers import params_equal, traced_peak


def random_params(seed=0):
    spec = nn.mlp_spec(5, (7,), (4,), 3)
    return nn.init_params(spec, seed), spec


class TestModelBlob:
    def test_empty_params_header_only(self):
        blob = serialize_model(nn.Parameters({}))
        assert len(blob) == 8
        # a spec fixes the tensors a blob must hold
        with pytest.raises(CorruptBlobError, match="tensor count 0 != expected 6"):
            deserialize_model(blob, random_params()[1])

    def test_payload_bytes_formula(self):
        params, _ = random_params()
        p = params.count()
        n_tensors = len(params.keys())
        # 8-byte header + per tensor 8-byte shape header + 4 bytes per scalar
        assert len(serialize_model(params)) == 8 + n_tensors * 8 + 4 * p
        assert model_blob_bytes(params) == len(serialize_model(params))

    def test_round_trip_bitwise(self):
        params, spec = random_params(3)
        # quantize to f32 first so the round trip is exact
        f32 = nn.Parameters(
            {k: params[k].astype(np.float32).astype(np.float64) for k in params.keys()}
        )
        out = deserialize_model(serialize_model(f32), spec)
        assert params_equal(out, f32)

    def test_truncated_rejected(self):
        params, spec = random_params()
        blob = serialize_model(params)
        with pytest.raises(CorruptBlobError):
            deserialize_model(blob[:-3], spec)
        with pytest.raises(CorruptBlobError):
            deserialize_model(blob[:5], spec)

    def test_bad_magic_rejected(self):
        params, spec = random_params()
        blob = bytearray(serialize_model(params))
        blob[0] ^= 0xFF
        with pytest.raises(CorruptBlobError):
            deserialize_model(bytes(blob), spec)

    def test_trailing_bytes_rejected(self):
        params, spec = random_params()
        with pytest.raises(CorruptBlobError):
            deserialize_model(serialize_model(params) + b"\x00", spec)

    def test_shape_mismatch_against_spec(self):
        params, _ = random_params()
        other_spec = nn.mlp_spec(5, (6,), (4,), 3)
        with pytest.raises(CorruptBlobError):
            deserialize_model(serialize_model(params), other_spec)

    @pytest.mark.parametrize("value", [1e39, -1e39, np.nan, np.inf])
    def test_value_not_finite_as_float32_rejected(self, value):
        # the rule of the feature and prototype blobs holds for model blobs too
        params, _ = random_params()
        params.vec[7] = value
        with pytest.raises(ValueError, match="not finite as float32"):
            serialize_model(params)


def random_batch(n=5, width=4, seed=0):
    """A batch whose embeddings are exact in float16."""
    rng = np.random.default_rng(seed)
    return FeatureBatch(
        embeddings=rng.normal(size=(n, width)).astype(np.float16).astype(np.float64),
        labels=rng.integers(0, 3, size=n),
    )


def assert_same_batch(a, b):
    assert len(a) == len(b)
    for name in ("embeddings", "labels"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestFeatureBlob:
    def test_round_trip(self):
        batch = random_batch()
        out = deserialize_features(serialize_features(batch))
        assert_same_batch(out, batch)
        assert out.embeddings.dtype == np.float16 and out.labels.dtype == np.int64

    def test_embeddings_are_rounded_as_astype_rounds(self):
        batch = random_batch(n=6, width=5)
        batch = dataclasses.replace(batch, embeddings=np.random.default_rng(3).normal(size=(6, 5)))
        out = deserialize_features(serialize_features(batch))
        assert out.embeddings.tobytes() == batch.embeddings.astype(np.float16).tobytes()

    def test_float64_rounds_to_float16_once(self):
        # 1 + 2**-11 + 2**-30 lies just above the midpoint of two halves; a
        # float32 step first would drop 2**-30 and round to even, down to 1
        value = 1 + 2**-11 + 2**-30
        blob = serialize_features(FeatureBatch(np.array([[value]]), np.array([0])))
        assert deserialize_features(blob).embeddings[0, 0] == 1 + 2**-10

    def test_length_formula(self):
        batch = random_batch(n=7, width=9)
        assert len(serialize_features(batch)) == feature_blob_bytes(7, 9)
        assert feature_blob_bytes(7, 9) == 8 + 7 * (2 + 2 * 9)
        assert feature_blob_bytes(1, 64) - feature_blob_bytes(0, 64) == 130

    def test_empty_batch(self):
        blob = serialize_features(FeatureBatch.concat([]))
        assert blob == bytes(8)     # count 0, width 0
        assert len(deserialize_features(blob)) == 0
        # rows of any width, none of them: the same blob
        assert serialize_features(random_batch(n=0, width=4)) == blob

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError):
            FeatureBatch.concat([random_batch(n=2, width=3), random_batch(n=1, width=4)])

    def test_truncation_rejected(self):
        blob = serialize_features(random_batch())
        with pytest.raises(CorruptBlobError):
            deserialize_features(blob[:-1])
        with pytest.raises(CorruptBlobError):
            deserialize_features(blob + b"\0")

    def test_u16_fields_out_of_range_rejected(self):
        # the label is a row's only u16 field
        batch = random_batch(n=2)
        for value in (0x10000, -1):
            labels = batch.labels.copy()
            labels[1] = value
            with pytest.raises(ValueError, match="^feature labels out of range for uint16$"):
                serialize_features(dataclasses.replace(batch, labels=labels))

    def test_labels_span_u16(self):
        batch = FeatureBatch(np.zeros((3, 2)), np.array([0, 1, 0xFFFF]))
        assert deserialize_features(serialize_features(batch)).labels.tolist() == [0, 1, 0xFFFF]

    def test_bytes_match_per_record_layout(self):
        # the wire layout written field by field, as a per-record serializer would
        batch = random_batch(n=3, width=2)
        expected = struct.pack("<II", 3, 2) + b"".join(
            struct.pack("<H", int(y)) + e.astype("<f2").tobytes()
            for e, y in zip(batch.embeddings, batch.labels)
        )
        assert serialize_features(batch) == expected

    @pytest.mark.parametrize("value", [1e39, -1e39, np.nan, np.inf])
    def test_value_not_finite_as_float32_rejected(self, value):
        # what is not finite as float32 is not finite as float16 either
        batch = random_batch(n=3, width=4)
        embeddings = batch.embeddings.astype(np.float64)
        embeddings[1, 2] = value
        with pytest.raises(ValueError, match="not finite as float16"):
            serialize_features(dataclasses.replace(batch, embeddings=embeddings))

    @pytest.mark.parametrize("value", [65520.0, -65520.0, 1e5, -np.inf])
    def test_value_not_finite_as_float16_rejected(self, value):
        # from 65520 up in magnitude a value rounds to an infinity
        batch = random_batch(n=3, width=4)
        batch.embeddings[2, 3] = value
        with pytest.raises(ValueError, match="^feature embeddings hold a value that is not "
                                             "finite as float16$"):
            serialize_features(batch)

    def test_float16_edges_kept(self):
        """The largest half, a value that rounds to it, -0.0 and the
        subnormals round-trip as float16 rounds them."""
        tiny = 2.0**-24                 # the smallest subnormal half
        values = np.array([[65504.0, 65519.9, -65519.9, -0.0, tiny, -tiny, 1023 * tiny]])
        out = deserialize_features(serialize_features(FeatureBatch(values, np.array([2]))))
        want = [65504.0, 65504.0, -65504.0, -0.0, tiny, -tiny, 1023 * tiny]
        assert out.embeddings.astype(np.float64).tobytes() == np.array([want]).tobytes()


class TestUpcast:
    def test_every_float16_pattern_matches_numpys_cast(self):
        # all 65,536 patterns: both zeros, the subnormals, the normals, both
        # infinities and every NaN; a NaN need only stay a NaN
        half = np.arange(1 << 16, dtype=np.uint16).view(np.float16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # as under ``python -W error``
            got, want = protocol.upcast(half), half.astype(np.float64)
        assert got.dtype == np.float64 and got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan) and nan.sum() == 2 * 1023
        assert got[~nan].tobytes() == want[~nan].tobytes()
        words = half.view(np.uint16)
        for pattern in (0x0000, 0x8000, 0x0001, 0x83FF):     # +-0 and subnormals
            assert got[words == pattern].tobytes() == want[words == pattern].tobytes()

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_batch_shapes_and_other_dtypes(self, dtype):
        # a decoded sample's (n, d) rows, a strided view of them, and wider
        # floats, which are cast as they are
        rows = np.random.default_rng(0).normal(size=(7, 5)).astype(dtype)
        for values in (rows, rows[::2, 1:]):
            got = protocol.upcast(values)
            assert got.dtype == np.float64
            assert got.tobytes() == values.astype(np.float64).tobytes()


class TestPrototypeBlob:
    def test_round_trip_and_length(self):
        protos = np.random.default_rng(1).normal(size=(3, 8)).astype(np.float32)
        blob = serialize_prototypes(protos.astype(np.float64))
        assert len(blob) == prototype_blob_bytes(3, 8)
        out = deserialize_prototypes(blob)
        # prototypes decode to float64: unit_prototypes and the cosine use them as is
        assert out.dtype == np.float64 and np.array_equal(out, protos.astype(np.float64))

    @pytest.mark.parametrize("value", [1e39, -1e39, np.nan, np.inf])
    def test_value_not_finite_as_float32_rejected(self, value):
        protos = np.ones((3, 4))
        protos[2, 1] = value
        with pytest.raises(ValueError, match="not finite as float32"):
            serialize_prototypes(protos)

    def test_length_mismatch_rejected(self):
        blob = serialize_prototypes(np.zeros((2, 4)))
        with pytest.raises(CorruptBlobError):
            deserialize_prototypes(blob[:-4])


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(0, 20),
    width=st.integers(1, 16),
    seed=st.integers(0, 2**31 - 1),
)
def test_feature_round_trip_property(n, width, seed):
    batch = random_batch(n, width, seed)
    blob = serialize_features(batch)
    assert len(blob) == feature_blob_bytes(n, width)
    out = deserialize_features(blob)
    assert out.embeddings.dtype == np.float16
    if n:
        assert_same_batch(out, batch)
    else:
        assert len(out) == 0 and blob == bytes(8)


def structured_serialize(batch):
    """The feature encoder written with a structured dtype, one field per
    wire column: the reference for the encoder's bytes and errors."""
    n, width = batch.embeddings.shape
    rows = np.empty(n, np.dtype([("labels", "<u2"), ("embeddings", "<f2", (width,))]))
    if n and (batch.labels.min() < 0 or batch.labels.max() > 0xFFFF):
        raise ValueError("feature labels out of range for uint16")
    rows["labels"] = batch.labels
    with np.errstate(over="ignore"):       # a value beyond float16's range is inf
        rows["embeddings"] = batch.embeddings
    if not np.isfinite(rows["embeddings"]).all():
        raise ValueError("feature embeddings hold a value that is not finite as float16")
    return struct.pack("<II", n, width if n else 0) + rows.tobytes()


# finite as float16 (the largest half, one that rounds to it, -0.0,
# subnormals), and not (from 65520 up, NaN, the infinities)
EDGES = [65504.0, 65519.9, -65519.9, -0.0, 2.0**-24, -2.0**-25 * 3, 6e-5]
NOT_FINITE = [65520.0, -65520.0, np.nan, np.inf, -np.inf]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 2000),
    width=st.integers(1, 81),
    seed=st.integers(0, 2**31 - 1),
    scale=st.sampled_from([1.0, 1e-6, 1e4, 1e39, 1e300]),
    special=st.sampled_from([None, "edges", "not finite"]),
    bad=st.sampled_from([None, -1, 0x10000]),
)
def test_word_view_encoder_matches_structured_encoder(n, width, seed, scale, special, bad):
    """Byte for byte, and the same error for a label outside u16 or an
    embedding that is not finite as float16. Labels span their whole range;
    embeddings are float64 at scales that round to float16 subnormals,
    overflow to inf, or carry the edge values above."""
    rng = np.random.default_rng(seed)
    embeddings = rng.normal(size=(n, width)) * scale
    if special and n:
        values = EDGES if special == "edges" else NOT_FINITE
        embeddings.flat[rng.integers(embeddings.size, size=len(values))] = values
    labels = rng.integers(0, 0xFFFF, size=n, endpoint=True)
    if bad is not None and n:
        labels[rng.integers(n)] = bad
    batch = FeatureBatch(embeddings, labels)
    with np.errstate(over="ignore"):
        as_f16 = embeddings.astype(np.float16)
    try:
        want = structured_serialize(batch)
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{err}$"):
            serialize_features(batch)
        assert bad is not None or not np.isfinite(as_f16).all()
        return
    assert serialize_features(batch) == want
    out = deserialize_features(want)
    assert out.embeddings.tobytes() == as_f16.tobytes()
    assert np.array_equal(out.labels, labels)


def test_encoders_raise_before_numpy_warns():
    """With warnings as errors, each encoder still raises its own
    ``ValueError`` for a value beyond its blob's float range, and not
    NumPy's overflow warning from the cast."""
    params, _ = random_params()
    params.vec[7] = 1e39
    batch = random_batch(n=3, width=4)          # float64 embeddings
    batch.embeddings[1, 2] = 65520.0            # finite as float32, not as float16
    protos = np.ones((3, 4))
    protos[2, 1] = 1e39
    cases = [(serialize_model, params, "model parameters", "float32"),
             (serialize_features, batch, "feature embeddings", "float16"),
             (serialize_prototypes, protos, "prototypes", "float32")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for encode, value, what, kind in cases:
            with pytest.raises(ValueError, match=f"^{what} hold a value that is not finite as {kind}$"):
                encode(value)


def make_records(client_id, n, label=0, width=4):
    """Rows 0..n-1 of one client and class, float16 as decoded: row i's
    embedding is i in column 0 and the client's id, its marker, in the rest."""
    embeddings = np.full((n, width), client_id, np.float16)
    embeddings[:, 0] = np.arange(n)
    return FeatureBatch(embeddings, np.full(n, label))


def put(bank, client_id, n, label=0, width=4, round=1):
    bank.insert(make_records(client_id, n, label, width), client_id, round)


def markers(batch):
    """The client each row came from, as ``make_records`` marks it."""
    return batch.embeddings[:, -1].astype(np.int64)


def new_bank(capacity=512):
    """A bank for clients 0..3, classes 0..2 and rows 4 wide, as ``make_records`` makes."""
    return FeatureBank(capacity, 4, 3, 4)


class TestFeatureBank:
    def test_exclusion_rule(self):
        bank = new_bank()
        put(bank, client_id=3, n=10)
        assert len(bank.sample(requesting_client=3, per_client_count=5, seed=0)) == 0

    def test_per_client_counting(self):
        bank = new_bank()
        put(bank, client_id=1, n=10)
        put(bank, client_id=2, n=10)
        out = bank.sample(requesting_client=0, per_client_count=3, seed=0)
        assert len(out) == 6
        cids, counts = np.unique(markers(out), return_counts=True)
        assert dict(zip(cids.tolist(), counts.tolist())) == {1: 3, 2: 3}

    def test_sparse_bank_returns_fewer(self):
        bank = new_bank()
        put(bank, client_id=1, n=2)
        out = bank.sample(requesting_client=0, per_client_count=5, seed=0)
        assert len(out) == 2

    def test_deterministic_in_seed(self):
        bank = new_bank()
        put(bank, client_id=1, n=50)
        a = bank.sample(0, 10, seed=42)
        b = bank.sample(0, 10, seed=42)
        assert_same_batch(a, b)

    def test_without_replacement(self):
        bank = new_bank()
        put(bank, client_id=1, n=20)
        out = bank.sample(0, 20, seed=7)
        ids = out.embeddings[:, 0]
        assert len(set(ids)) == len(ids) == 20

    def test_fifo_eviction(self):
        bank = new_bank(capacity=3)
        put(bank, client_id=1, n=5)
        out = bank.sample(0, 10, seed=0)
        assert sorted(out.embeddings[:, 0]) == [2.0, 3.0, 4.0]

    def test_zero_count_gives_empty_rows_of_full_width(self):
        bank = new_bank()
        bank.insert(FeatureBatch.concat([make_records(client_id=1, n=4, label=0),
                                         make_records(client_id=1, n=3, label=2)]), 1, 1)
        out = bank.sample(0, per_client_count=0, seed=0)
        assert out.embeddings.shape == (0, 4)
        assert out.labels.shape == (0,)

    def test_no_other_client_gives_the_empty_batch(self):
        bank = new_bank()
        put(bank, client_id=3, n=4)
        out = bank.sample(requesting_client=3, per_client_count=5, seed=0)
        assert out.embeddings.shape == (0, 0)
        assert out.labels.shape == (0,)
        assert len(new_bank().sample(0, 5, seed=0)) == 0

    def test_zero_count_from_several_clients(self):
        bank = new_bank()
        for cid in (1, 2):
            bank.insert(FeatureBatch.concat([make_records(cid, n=4, label=0),
                                             make_records(cid, n=3, label=2)]), cid, 1)
        out = bank.sample(0, per_client_count=0, seed=0)
        assert out.embeddings.shape == (0, 4)
        assert out.labels.shape == (0,)

    def test_pool_is_slots_in_class_order_oldest_first(self):
        bank = new_bank(capacity=4)
        for _ in range(3):
            bank.insert(FeatureBatch.concat([make_records(1, n=3, label=2),
                                             make_records(1, n=2, label=0)]), 1, 1)
            put(bank, 2, n=5)
        # slot by slot in class order, oldest row first, trimmed to capacity
        pool = full_pool(bank)
        mine = markers(pool) == 1
        assert pool.labels[mine].tolist() == [0] * 4 + [2] * 4
        assert pool.embeddings[mine, 0].tolist() == [0, 1, 0, 1, 2, 0, 1, 2]
        assert markers(pool).tolist() == [1] * 8 + [2] * 4
        assert len(bank) == 12

    def test_insert_into_a_full_bank_moves_rows_in_place(self):
        """Once every slot is full, an insert overwrites the oldest rows inside
        the bank's one array: the array keeps its memory, and the insert's
        allocations peak near the size of the rows it adds, well under half
        of one client's rows. The rows are float16, as a decoded upload's."""
        bank = FeatureBank(256, 2, 3, 64)
        batch = FeatureBatch.concat([make_records(1, n=64, label=c, width=64) for c in range(3)])
        for _ in range(5):
            bank.insert(batch, 1, 1)
        before = bank._embeddings
        peak = traced_peak(lambda: bank.insert(batch, 1, 2))
        assert len(bank) == len(before[1]) == 3 * 256
        assert bank._embeddings is before
        assert peak < before[1].nbytes / 2
        # the oldest rows went, and each slot ends with the newest
        assert pool_rounds(bank, 1).tolist() == ([1] * 192 + [2] * 64) * 3
        assert full_pool(bank).embeddings[:, 0].tolist() == list(range(64)) * 12

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FeatureBank(0, 4, 3, 4)

    @pytest.mark.parametrize("client_id, label", [(-1, 0), (4, 0), (3, -1), (3, 3)])
    def test_rows_outside_the_shape_are_rejected(self, client_id, label):
        """A client id or label outside the bank's 4 clients and 3 classes
        raises before any row is written, also those of a valid label that
        comes first: a negative id would index another client's rings."""
        bank = new_bank()
        put(bank, client_id=1, n=3)
        before = full_pool(bank)
        batch = FeatureBatch.concat([make_records(client_id, n=2),
                                     make_records(client_id, n=1, label=label)])
        with pytest.raises(ValueError, match="outside the bank's"):
            bank.insert(batch, client_id, 2)
        assert len(bank) == 3
        assert_same_batch(full_pool(bank), before)
        assert pool_rounds(bank, 1).tolist() == [1] * 3

    def test_full_m_bank_holds_float16(self):
        """A bank shaped as at scale M (20 clients, 3 classes, 512 rows per
        slot, 64-d), every slot full: its embeddings are float16, so making
        and filling it peaks near 3.9 MB of them plus 16 B a row (the row's
        round and its place in the pool), well under the 7.9 MB the rows
        take as float32."""
        clients, classes, capacity, width = 20, 3, 512, 64
        uploads = [FeatureBatch.concat([make_records(cid, n=capacity, label=c, width=width)
                                        for c in range(classes)]) for cid in range(clients)]
        made = []

        def fill():
            made.append(FeatureBank(capacity, clients, classes, width))
            for cid, batch in enumerate(uploads):
                made[0].insert(batch, cid, 1)

        peak = traced_peak(fill)
        bank = made[0]
        rows = clients * classes * capacity
        assert len(bank) == rows
        assert full_pool(bank).embeddings.dtype == np.float16
        float16, per_row = rows * width * 2, rows * 16
        assert float16 < peak < float16 + per_row + (512 << 10) < rows * width * 4


def full_pool(bank):
    """Every row of the bank in pool order: client by client, each client's
    slots in class order, oldest row first. It is a draw of more rows than
    the bank holds, for a requester that has none."""
    return bank.sample(-1, len(bank) + 1, seed=0)


def pool_rounds(bank, client_id):
    """The round of each row of the client's pool, in pool order."""
    return bank._rounds[client_id][bank._pools[client_id]]


@settings(max_examples=30, deadline=None)
@given(
    per_client=st.integers(0, 8),
    counts=st.lists(st.integers(0, 12), min_size=2, max_size=5),
    seed=st.integers(0, 2**31 - 1),
)
def test_bank_sample_properties(per_client, counts, seed):
    bank = FeatureBank(512, len(counts), 1, 4)
    for cid, n in enumerate(counts):
        put(bank, client_id=cid, n=n)
    requester = 0
    out = bank.sample(requester, per_client, seed)
    assert not np.any(markers(out) == requester)
    expected = sum(min(per_client, n) for cid, n in enumerate(counts) if cid != requester)
    assert len(out) == expected


class ListBank:
    """Reference model of the bank: a list of (row id, label, client, round)
    tuples per (client, class) slot."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.slots = {}

    def insert(self, rows):
        for row in rows:
            slot = self.slots.setdefault((row[2], row[1]), [])
            slot.append(row)
            del slot[:-self.capacity]

    def sample(self, requester, count, seed):
        rng = np.random.default_rng(seed)
        out = []
        for cid in sorted({c for c, _ in self.slots if c != requester}):
            pool = [row for key in sorted(self.slots) if key[0] == cid for row in self.slots[key]]
            idx = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
            out += [pool[i] for i in sorted(idx)]
        return out


def as_rows(batch):
    """(row id, label, client, round) of each row; the embedding carries the
    row id, round and client in its columns."""
    return [(int(row_id), label, int(cid), int(rnd))
            for (row_id, rnd, cid), label in zip(batch.embeddings, batch.labels.tolist())]


BANK_OPS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 3), st.lists(st.integers(0, 2), max_size=12)),
    st.tuples(st.just("sample"), st.integers(0, 4), st.integers(0, 6),
              st.integers(0, 2**31 - 1)),
)


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 6), ops=st.lists(BANK_OPS, max_size=12))
def test_bank_matches_list_reference(capacity, ops):
    """Random insert/sample sequences against the list model: FIFO eviction,
    exclusion of the requester, per-client counts and sorted-index order.
    Each row's embedding marks its row id, round and client, so a drawn row
    names where it came from; each kept row's round is the insert's."""
    bank, ref = FeatureBank(capacity, 4, 3, 3), ListBank(capacity)
    next_id = 0
    for rnd, op in enumerate(ops, start=1):
        if op[0] == "insert":
            _, cid, labels = op
            rows = [(next_id + i, label, cid, rnd) for i, label in enumerate(labels)]
            next_id += len(rows)
            embeddings = np.array([(r[0], rnd, cid) for r in rows], np.float16).reshape(-1, 3)
            bank.insert(FeatureBatch(embeddings, np.array(labels, dtype=np.int64)), cid, rnd)
            ref.insert(rows)
        else:
            _, requester, count, seed = op
            out = bank.sample(requester, count, seed)
            assert as_rows(out) == ref.sample(requester, count, seed)
            assert out.embeddings.dtype == np.float16
        assert len(bank) == sum(len(slot) for slot in ref.slots.values())
        assert as_rows(full_pool(bank)) == ref.sample(-1, len(bank) + 1, 0)
        for cid in bank._pools:
            assert pool_rounds(bank, cid).tolist() == [
                row[3] for key in sorted(ref.slots) if key[0] == cid for row in ref.slots[key]]


class TestCommLedger:
    def test_empty_total_zero(self):
        assert CommLedger().total() == 0

    def test_single_entry_total(self):
        ledger = CommLedger()
        ledger.record(1, protocol.UP, protocol.KIND_MODEL, 4000, 0)
        assert ledger.total() == 4000
        assert ledger.total(direction=protocol.UP) == 4000
        assert ledger.total(direction=protocol.DOWN) == 0

    def test_filters(self):
        ledger = CommLedger()
        ledger.record(1, protocol.UP, protocol.KIND_MODEL, 100, 0)
        ledger.record(1, protocol.UP, protocol.KIND_FEATURES, 10, 0)
        ledger.record(2, protocol.DOWN, protocol.KIND_MODEL, 100, 1)
        assert ledger.total(round=1) == 110
        assert ledger.total(kind=protocol.KIND_MODEL) == 200
        assert ledger.total(client_id=0) == 110
        assert ledger.total(round=1, direction=protocol.DOWN) == 0
        assert ledger.total(direction="sideways") == 0
        assert ledger.rounds() == [1, 2]

    def test_entries_read_back_in_order(self):
        rows = [(1, protocol.DOWN, protocol.KIND_PROTOTYPES, 520, 2),
                (1, protocol.UP, protocol.KIND_FEATURES, 2**40, 0),
                (2, protocol.DOWN, protocol.KIND_MODEL, 0, 1)]
        ledger = CommLedger()
        for row in rows:
            ledger.record(*row)
        assert [dataclasses.astuple(e) for e in ledger.entries] == rows
        assert all(type(v) is int for e in ledger.entries
                   for v in (e.round, e.byte_count, e.client_id))
        assert ledger.total() == 520 + 2**40
        assert type(ledger.total()) is int

    def test_value_out_of_range_logs_nothing(self):
        ledger = CommLedger()
        ledger.record(1, protocol.UP, protocol.KIND_MODEL, 100, 0)
        with pytest.raises(TypeError):
            ledger.record(2, protocol.UP, protocol.KIND_MODEL, 10.5, 0)
        with pytest.raises(OverflowError):
            ledger.record(2, protocol.UP, protocol.KIND_MODEL, 2**63, 0)
        assert ledger.entries == [protocol.LedgerEntry(1, protocol.UP, protocol.KIND_MODEL, 100, 0)]

    def test_fields_read_back_at_the_ends_of_their_ranges(self):
        # an entry's key packs round, direction, kind and client id
        rows = [(-(2**32), protocol.UP, protocol.KIND_MODEL, 2**63 - 1, 0),
                (2**32 - 1, protocol.DOWN, protocol.KIND_PROTOTYPES, 0, 2**28 - 1),
                (0, protocol.DOWN, protocol.KIND_FEATURES, 7, 5),
                (-1, protocol.UP, protocol.KIND_PROTOTYPES, 3, 2**28 - 1)]
        ledger = CommLedger()
        for row in rows:
            ledger.record(*row)
        assert [dataclasses.astuple(e) for e in ledger.entries] == rows
        assert ledger.rounds() == [-(2**32), -1, 0, 2**32 - 1]
        for i, field in enumerate(("round", "direction", "kind", "byte_count", "client_id")):
            if field != "byte_count":
                for row in rows:
                    want = sum(r[3] for r in rows if r[i] == row[i])
                    assert ledger.total(**{field: row[i]}) == want, (field, row[i])
        assert ledger.total(round=-1, client_id=2**28 - 1, kind=protocol.KIND_PROTOTYPES) == 3
        assert ledger.total(client_id=2**28) == 0

    @pytest.mark.parametrize("round_, client_id", [(2**32, 0), (-(2**32) - 1, 0),
                                                   (1, 2**28), (1, -1)])
    def test_field_out_of_range_logs_nothing(self, round_, client_id):
        ledger = CommLedger()
        ledger.record(1, protocol.UP, protocol.KIND_MODEL, 100, 0)
        with pytest.raises(OverflowError):
            ledger.record(round_, protocol.UP, protocol.KIND_MODEL, 10, client_id)
        assert ledger.entries == [protocol.LedgerEntry(1, protocol.UP, protocol.KIND_MODEL, 100, 0)]
        assert ledger.total() == 100

    def test_entries_are_kept_compactly(self):
        # results keep their ledgers: an S gate unit holds about 4,000 entries
        ledger = CommLedger()

        def fill():
            for i in range(4000):
                ledger.record(1 + i // 150, protocol.UP, protocol.KIND_FEATURES, 10**6 + i, i % 3)

        # a LedgerEntry object with its list slot and byte count took about
        # 120 B; an entry is two 64-bit integers
        assert traced_peak(fill) < 4000 * 24
        assert len(ledger.entries) == 4000

    def test_invalid_entries_rejected(self):
        ledger = CommLedger()
        with pytest.raises(ValueError):
            ledger.record(1, "sideways", protocol.KIND_MODEL, 1, 0)
        with pytest.raises(ValueError):
            ledger.record(1, protocol.UP, "carrier-pigeon", 1, 0)
        with pytest.raises(ValueError):
            ledger.record(1, protocol.UP, protocol.KIND_MODEL, -1, 0)
