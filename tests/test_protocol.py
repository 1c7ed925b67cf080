"""Wire-format round trips, feature-bank sampling rules, and ledger totals.

Byte lengths are checked against the closed-form formulas computed
independently of the serializers.
"""

import dataclasses
import struct

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

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    @pytest.mark.parametrize("value", [1e39, -1e39, np.nan, np.inf])
    def test_value_not_finite_as_float32_rejected(self, value):
        # the rule of the feature and prototype blobs holds for model blobs too
        params, _ = random_params()
        params.vec[7] = value
        with pytest.raises(ValueError, match="not finite as float32"):
            serialize_model(params)


def random_batch(n=5, width=4, seed=0, clients=10):
    """Mixed-client batch whose embeddings are exact in float32."""
    rng = np.random.default_rng(seed)
    return FeatureBatch(
        embeddings=rng.normal(size=(n, width)).astype(np.float32).astype(np.float64),
        labels=rng.integers(0, 3, size=n),
        client_ids=rng.integers(0, clients, size=n),
        rounds=rng.integers(1, 100, size=n),
    )


def assert_same_batch(a, b):
    assert len(a) == len(b)
    for name in ("embeddings", "labels", "client_ids", "rounds"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestFeatureBlob:
    def test_round_trip(self):
        batch = random_batch()
        out = deserialize_features(serialize_features(batch))
        assert_same_batch(out, batch)
        assert out.embeddings.dtype == np.float32
        assert all(getattr(out, c).dtype == np.int64 for c in ("labels", "client_ids", "rounds"))

    def test_embeddings_are_rounded_as_astype_rounds(self):
        batch = random_batch(n=6, width=5)
        batch = dataclasses.replace(batch, embeddings=np.random.default_rng(3).normal(size=(6, 5)))
        out = deserialize_features(serialize_features(batch))
        assert out.embeddings.tobytes() == batch.embeddings.astype(np.float32).tobytes()

    def test_length_formula(self):
        batch = random_batch(n=7, width=9)
        assert len(serialize_features(batch)) == feature_blob_bytes(7, 9)
        assert feature_blob_bytes(7, 9) == 8 + 7 * (8 + 4 * 9)

    def test_empty_batch(self):
        blob = serialize_features(FeatureBatch.concat([]))
        assert blob == bytes(8)     # count 0, width 0
        assert len(deserialize_features(blob)) == 0

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
        batch = random_batch(n=2)
        for name in ("client_ids", "labels"):
            values = getattr(batch, name).copy()
            values[1] = 0x10000
            bad = FeatureBatch(**{**batch.__dict__, name: values})
            with pytest.raises(ValueError, match=name.rstrip("s")):
                serialize_features(bad)

    def test_bytes_match_per_record_layout(self):
        # the wire layout written field by field, as a per-record serializer would
        batch = random_batch(n=3, width=2)
        expected = struct.pack("<II", 3, 2) + b"".join(
            struct.pack("<HHI", int(c), int(y), int(r)) + e.astype("<f4").tobytes()
            for e, y, c, r in zip(batch.embeddings, batch.labels, batch.client_ids, batch.rounds)
        )
        assert serialize_features(batch) == expected

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    @pytest.mark.parametrize("value", [1e39, -1e39, np.nan, np.inf])
    def test_value_not_finite_as_float32_rejected(self, value):
        # 1e39 is finite as float64 but beyond float32's range
        batch = random_batch(n=3, width=4)
        embeddings = batch.embeddings.astype(np.float64)
        embeddings[1, 2] = value
        with pytest.raises(ValueError, match="not finite as float32"):
            serialize_features(dataclasses.replace(batch, embeddings=embeddings))


class TestPrototypeBlob:
    def test_round_trip_and_length(self):
        protos = np.random.default_rng(1).normal(size=(3, 8)).astype(np.float32)
        blob = serialize_prototypes(protos.astype(np.float64))
        assert len(blob) == prototype_blob_bytes(3, 8)
        out = deserialize_prototypes(blob)
        # prototypes decode to float64: unit_prototypes and the cosine use them as is
        assert out.dtype == np.float64 and np.array_equal(out, protos.astype(np.float64))

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
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
    clients=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_feature_round_trip_property(n, width, clients, seed):
    batch = random_batch(n, width, seed, clients)
    blob = serialize_features(batch)
    assert len(blob) == feature_blob_bytes(n, width)
    out = deserialize_features(blob)
    assert out.embeddings.dtype == np.float32
    if n:
        assert_same_batch(out, batch)
    else:
        assert len(out) == 0 and blob == bytes(8)


def structured_serialize(batch):
    """The feature encoder written with a structured dtype, one field per
    wire column: the reference for the word-view encoder's bytes and errors."""
    n, width = batch.embeddings.shape
    rows = np.empty(n, np.dtype([("client_ids", "<u2"), ("labels", "<u2"), ("rounds", "<u4"),
                                 ("embeddings", "<f4", (width,))]))
    for name, dtype in (("client_ids", "<u2"), ("labels", "<u2"), ("rounds", "<u4")):
        values = getattr(batch, name)
        if n and (values.min() < 0 or values.max() > np.iinfo(dtype).max):
            raise ValueError(f"feature {name} out of range for {np.dtype(dtype)}")
        rows[name] = values
    rows["embeddings"] = batch.embeddings
    if not np.isfinite(rows["embeddings"]).all():
        raise ValueError("feature embeddings hold a value that is not finite as float32")
    return struct.pack("<II", n, width if n else 0) + rows.tobytes()


ID_TOPS = {"client_ids": 0xFFFF, "labels": 0xFFFF, "rounds": 0xFFFFFFFF}


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(0, 2000),
    width=st.integers(1, 81),
    seed=st.integers(0, 2**31 - 1),
    scale=st.sampled_from([1.0, 1e-40, 1e39, 1e300]),
    special=st.booleans(),
    bad=st.one_of(st.none(), st.tuples(st.sampled_from(sorted(ID_TOPS)), st.booleans())),
)
def test_word_view_encoder_matches_structured_encoder(n, width, seed, scale, special, bad):
    """Byte for byte, and the same error for an id out of its wire range or
    an embedding that is not finite as float32. Ids span their whole range;
    embeddings are float64 at scales that round to float32 subnormals,
    overflow to inf, or carry NaN and infinities."""
    rng = np.random.default_rng(seed)
    embeddings = rng.normal(size=(n, width)) * scale
    if special and n:
        embeddings.flat[rng.integers(embeddings.size, size=3)] = [np.nan, np.inf, -np.inf]
    ids = {name: rng.integers(0, top, size=n, endpoint=True) for name, top in ID_TOPS.items()}
    if bad is not None and n:
        name, below = bad
        ids[name][rng.integers(n)] = -1 if below else ID_TOPS[name] + 1
    batch = FeatureBatch(embeddings, ids["labels"], ids["client_ids"], ids["rounds"])
    try:
        want = structured_serialize(batch)
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{err}$"):
            serialize_features(batch)
        assert bad is not None or not np.isfinite(embeddings.astype(np.float32)).all()
        return
    assert serialize_features(batch) == want
    out = deserialize_features(want)
    assert out.embeddings.tobytes() == embeddings.astype(np.float32).tobytes()
    assert all(np.array_equal(getattr(out, name), ids[name]) for name in ID_TOPS)


def make_records(client_id, n, label=0, width=4):
    """Rows 0..n-1 of one client and class; row i's embedding is all i."""
    return FeatureBatch.of_client(
        np.repeat(np.arange(n, dtype=float)[:, None], width, axis=1),
        np.full(n, label), client_id, 1,
    )


class TestFeatureBank:
    def test_exclusion_rule(self):
        bank = FeatureBank()
        bank.insert(make_records(client_id=3, n=10))
        assert len(bank.sample(requesting_client=3, per_client_count=5, seed=0)) == 0

    def test_per_client_counting(self):
        bank = FeatureBank()
        bank.insert(make_records(client_id=1, n=10))
        bank.insert(make_records(client_id=2, n=10))
        out = bank.sample(requesting_client=0, per_client_count=3, seed=0)
        assert len(out) == 6
        cids, counts = np.unique(out.client_ids, return_counts=True)
        assert dict(zip(cids.tolist(), counts.tolist())) == {1: 3, 2: 3}

    def test_sparse_bank_returns_fewer(self):
        bank = FeatureBank()
        bank.insert(make_records(client_id=1, n=2))
        out = bank.sample(requesting_client=0, per_client_count=5, seed=0)
        assert len(out) == 2

    def test_deterministic_in_seed(self):
        bank = FeatureBank()
        bank.insert(make_records(client_id=1, n=50))
        a = bank.sample(0, 10, seed=42)
        b = bank.sample(0, 10, seed=42)
        assert_same_batch(a, b)

    def test_without_replacement(self):
        bank = FeatureBank()
        bank.insert(make_records(client_id=1, n=20))
        out = bank.sample(0, 20, seed=7)
        ids = out.embeddings[:, 0]
        assert len(set(ids)) == len(ids) == 20

    def test_fifo_eviction(self):
        bank = FeatureBank(capacity_per_slot=3)
        bank.insert(make_records(client_id=1, n=5))
        out = bank.sample(0, 10, seed=0)
        assert sorted(out.embeddings[:, 0]) == [2.0, 3.0, 4.0]

    def test_zero_count_gives_empty_rows_of_full_width(self):
        bank = FeatureBank()
        bank.insert(FeatureBatch.concat([make_records(client_id=1, n=4, label=0),
                                         make_records(client_id=1, n=3, label=2)]))
        out = bank.sample(0, per_client_count=0, seed=0)
        assert out.embeddings.shape == (0, 4)
        assert all(getattr(out, c).shape == (0,) for c in ("labels", "client_ids", "rounds"))

    def test_no_other_client_gives_the_empty_batch(self):
        bank = FeatureBank()
        bank.insert(make_records(client_id=3, n=4))
        out = bank.sample(requesting_client=3, per_client_count=5, seed=0)
        assert out.embeddings.shape == (0, 0)
        assert all(getattr(out, c).shape == (0,) for c in ("labels", "client_ids", "rounds"))
        assert len(FeatureBank().sample(0, 5, seed=0)) == 0

    def test_zero_count_from_several_clients(self):
        bank = FeatureBank()
        for cid in (1, 2):
            bank.insert(FeatureBatch.concat([make_records(cid, n=4, label=0),
                                             make_records(cid, n=3, label=2)]))
        out = bank.sample(0, per_client_count=0, seed=0)
        assert out.embeddings.shape == (0, 4)
        assert all(getattr(out, c).shape == (0,) for c in ("labels", "client_ids", "rounds"))

    def test_slots_are_views_of_their_client_pool(self):
        bank = FeatureBank(capacity_per_slot=4)
        for _ in range(3):
            bank.insert(FeatureBatch.concat([make_records(1, n=3, label=2),
                                             make_records(2, n=5, label=0),
                                             make_records(1, n=2, label=0)]))
            assert_one_copy(bank)
        # slot by slot in class order, oldest row first, trimmed to capacity
        assert bank._pools[1].labels.tolist() == [0] * 4 + [2] * 4
        assert bank._pools[1].embeddings[:, 0].tolist() == [0, 1, 0, 1, 2, 0, 1, 2]
        assert len(bank) == 12

    def test_insert_into_a_full_bank_moves_rows_in_place(self):
        """Once every slot is full, an insert evicts and appends inside the
        client's one buffer: the pool keeps its memory, and the insert's
        allocations peak near the size of the rows it adds, well under the
        size of a second pool. The rows are float32, as a decoded upload's."""
        bank = FeatureBank(capacity_per_slot=256)
        batch = FeatureBatch.concat([make_records(1, n=64, label=c, width=64) for c in range(3)])
        batch = dataclasses.replace(batch, embeddings=batch.embeddings.astype(np.float32))
        for _ in range(5):
            bank.insert(batch)
        before = bank._pools[1]
        pool_bytes = sum(getattr(before, c).nbytes
                         for c in ("embeddings", "labels", "client_ids", "rounds"))
        peak = traced_peak(lambda: bank.insert(batch))
        after = bank._pools[1]
        assert len(after) == len(before) == 3 * 256
        assert np.shares_memory(before.embeddings, after.embeddings)
        assert peak < pool_bytes / 2
        assert_one_copy(bank)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FeatureBank(capacity_per_slot=0)

    def test_full_m_bank_holds_float32(self):
        """A bank shaped as at scale M (20 clients, 3 classes, 512 rows per
        slot, 64-d), every slot full: its embeddings are float32, so filling
        it peaks near 7.9 MB of them plus the int64 id columns, well under
        the 15.7 MB the same rows take as float64."""
        clients, classes, capacity, width = 20, 3, 512, 64
        uploads = [FeatureBatch.concat([make_records(cid, n=capacity, label=c, width=width)
                                        for c in range(classes)]) for cid in range(clients)]
        uploads = [dataclasses.replace(b, embeddings=b.embeddings.astype(np.float32))
                   for b in uploads]
        bank = FeatureBank(capacity)
        peak = traced_peak(lambda: [bank.insert(batch) for batch in uploads])
        rows = clients * classes * capacity
        assert len(bank) == rows
        assert all(pool.embeddings.dtype == np.float32 for pool in bank._pools.values())
        float32, ids = rows * width * 4, rows * 3 * 8
        assert float32 < peak < float32 + ids + (1 << 20) < rows * width * 8


def assert_one_copy(bank):
    """Every slot is a view of its client's pool, and the slots, in class
    order, make up the whole pool."""
    for cid, pool in bank._pools.items():
        keys = sorted(key for key in bank._slots if key[0] == cid)
        assert sum(len(bank._slots[key]) for key in keys) == len(pool)
        for key in keys:
            slot = bank._slots[key]
            for c in ("embeddings", "labels", "client_ids", "rounds"):
                assert np.shares_memory(getattr(slot, c), getattr(pool, c)), (key, c)
        assert_same_batch(FeatureBatch.concat([bank._slots[key] for key in keys]), pool)
    assert {cid for cid, _ in bank._slots} == set(bank._pools)


@settings(max_examples=30, deadline=None)
@given(
    per_client=st.integers(0, 8),
    counts=st.lists(st.integers(0, 12), min_size=2, max_size=5),
    seed=st.integers(0, 2**31 - 1),
)
def test_bank_sample_properties(per_client, counts, seed):
    bank = FeatureBank()
    for cid, n in enumerate(counts):
        bank.insert(make_records(client_id=cid, n=n))
    requester = 0
    out = bank.sample(requester, per_client, seed)
    assert not np.any(out.client_ids == requester)
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
    return list(zip([int(e[0]) for e in batch.embeddings], batch.labels.tolist(),
                    batch.client_ids.tolist(), batch.rounds.tolist()))


BANK_OPS = st.one_of(
    st.tuples(st.just("insert"), st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 3)), max_size=12)),
    st.tuples(st.just("sample"), st.integers(0, 4), st.integers(0, 6),
              st.integers(0, 2**31 - 1)),
)


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 6), ops=st.lists(BANK_OPS, max_size=12))
def test_bank_matches_list_reference(capacity, ops):
    """Random insert/sample sequences against the list model: FIFO eviction,
    exclusion of the requester, per-client counts and sorted-index order."""
    bank, ref = FeatureBank(capacity), ListBank(capacity)
    next_id = 0
    for rnd, op in enumerate(ops, start=1):
        if op[0] == "insert":
            # mixed clients and classes; row ids make every embedding unique
            rows = [(next_id + i, label, cid, rnd) for i, (label, cid) in enumerate(op[1])]
            next_id += len(rows)
            ids = np.array([r[0] for r in rows], dtype=float).reshape(-1, 1)
            bank.insert(FeatureBatch(
                np.repeat(ids, 3, axis=1),
                *(np.array([r[k] for r in rows], dtype=np.int64) for k in (1, 2, 3)),
            ))
            ref.insert(rows)
        else:
            _, requester, count, seed = op
            out = bank.sample(requester, count, seed)
            assert as_rows(out) == ref.sample(requester, count, seed)
            assert out.embeddings.dtype == np.float32
        assert len(bank) == sum(len(slot) for slot in ref.slots.values())
        assert_one_copy(bank)


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

    def test_entries_are_kept_compactly(self):
        # results keep their ledgers: an S gate unit holds about 4,000 entries
        ledger = CommLedger()

        def fill():
            for i in range(4000):
                ledger.record(1 + i // 150, protocol.UP, protocol.KIND_FEATURES, 10**6 + i, i % 3)

        # a LedgerEntry object with its list slot and byte count took about 120 B
        assert traced_peak(fill) < 4000 * 64
        assert len(ledger.entries) == 4000

    def test_invalid_entries_rejected(self):
        ledger = CommLedger()
        with pytest.raises(ValueError):
            ledger.record(1, "sideways", protocol.KIND_MODEL, 1, 0)
        with pytest.raises(ValueError):
            ledger.record(1, protocol.UP, "carrier-pigeon", 1, 0)
        with pytest.raises(ValueError):
            ledger.record(1, protocol.UP, protocol.KIND_MODEL, -1, 0)

    def test_csv_export(self, tmp_path):
        ledger = CommLedger()
        ledger.record(1, protocol.UP, protocol.KIND_MODEL, 123, 4)
        path = tmp_path / "ledger.csv"
        ledger.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "round,direction,kind,bytes,client_id"
        assert lines[1] == "1,up,model,123,4"
