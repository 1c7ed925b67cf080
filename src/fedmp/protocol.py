"""Wire formats, the server-side feature bank, and exact byte accounting.

All blobs are little-endian, and every float in them is a 32-bit float.
Every encoder raises ``ValueError`` for a value that is not finite as
float32, so no blob carries NaN or an infinity.
Embeddings and prototypes travel as blobs: a run encodes each upload, foreign
sample and prototype broadcast, the receiver decodes it, and the ledger bills
the blob's length. Decoded embeddings stay float32, as the bank stores them;
arithmetic upcasts them to float64 first. Models still move by direct copy,
so training state stays float64; model blobs serve accounting and on-disk
artifacts.
"""

from __future__ import annotations

import csv
import struct
from array import array
from dataclasses import dataclass

import numpy as np

from .nn import NetworkSpec, Parameters

MODEL_MAGIC = 0x464D5031  # "FMP1"

UP = "up"
DOWN = "down"
KIND_MODEL = "model"
KIND_FEATURES = "features"
KIND_PROTOTYPES = "prototypes"


@dataclass(frozen=True, eq=False)
class FeatureBatch:
    """Labeled embeddings as uploaded to the server, one row per sample.
    Client id and round are per row because a bank sample mixes both."""

    embeddings: np.ndarray      # (n, d) float32, the wire format; math upcasts it
    labels: np.ndarray          # (n,) int64
    client_ids: np.ndarray      # (n,) int64
    rounds: np.ndarray          # (n,) int64

    @classmethod
    def of_client(cls, embeddings: np.ndarray, labels, client_id: int, round: int) -> FeatureBatch:
        n = len(embeddings)
        return cls(embeddings, np.asarray(labels, dtype=np.int64),
                   np.full(n, client_id, dtype=np.int64), np.full(n, round, dtype=np.int64))

    @classmethod
    def concat(cls, batches) -> FeatureBatch:
        """Rows of ``batches`` in order; no batches give an empty (0, 0) batch."""
        batches = list(batches)
        if not batches:
            return cls(np.zeros((0, 0), np.float32), *(np.zeros(0, np.int64) for _ in range(3)))
        return cls(*(np.concatenate([getattr(b, c) for b in batches]) for c in _COLUMNS))

    def take(self, rows) -> FeatureBatch:
        return FeatureBatch(self.embeddings[rows], self.labels[rows],
                            self.client_ids[rows], self.rounds[rows])

    def __len__(self) -> int:
        return self.embeddings.shape[0]


_COLUMNS = ("embeddings", "labels", "client_ids", "rounds")


class CorruptBlobError(ValueError):
    """Raised when a wire blob is truncated or fails validation."""


# ---------------------------------------------------------------------------
# model blobs: 8-byte header (magic, tensor count), then per tensor an 8-byte
# shape header (rows, cols as u32) and float32 payload in sorted key order.

def serialize_model(params: Parameters) -> bytes:
    payload = params.vec.astype("<f4")
    if not np.isfinite(payload).all():
        raise ValueError("model parameters hold a value that is not finite as float32")
    parts = [struct.pack("<II", MODEL_MAGIC, len(params.layout.keys))]
    for lo, hi, shape in params.layout.spans.values():
        rows, cols = (1, shape[0]) if len(shape) == 1 else shape
        parts.append(struct.pack("<II", rows, cols))
        parts.append(payload[lo:hi].tobytes())
    return b"".join(parts)


def deserialize_model(blob: bytes, spec: NetworkSpec) -> Parameters:
    if len(blob) < 8:
        raise CorruptBlobError("model blob shorter than header")
    magic, count = struct.unpack_from("<II", blob, 0)
    if magic != MODEL_MAGIC:
        raise CorruptBlobError(f"bad model magic {magic:#x}")
    template = list(_reference_keys(spec))
    if count != len(template):
        raise CorruptBlobError(f"tensor count {count} != expected {len(template)}")
    offset = 8
    values = {}
    for key, want_shape in template:
        if offset + 8 > len(blob):
            raise CorruptBlobError("model blob truncated in shape header")
        rows, cols = struct.unpack_from("<II", blob, offset)
        offset += 8
        n = rows * cols
        end = offset + 4 * n
        if end > len(blob):
            raise CorruptBlobError("model blob truncated in payload")
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=offset).astype(np.float64)
        offset = end
        shape = (cols,) if rows == 1 and len(want_shape) == 1 else (rows, cols)
        if shape != want_shape:
            raise CorruptBlobError(f"tensor {key}: shape {shape} != spec {want_shape}")
        values[key] = arr.reshape(shape)
    if offset != len(blob):
        raise CorruptBlobError("trailing bytes after model payload")
    return Parameters(values)


def _reference_keys(spec: NetworkSpec):
    for idx, layer in enumerate(spec.layers):
        if layer[0] != "affine":
            continue
        _, n_in, n_out = layer
        yield (idx, "W"), (n_in, n_out)
        yield (idx, "b"), (n_out,)


def model_blob_bytes(params: Parameters) -> int:
    """Closed-form length: 8 + sum over tensors of (8 + 4 * count)."""
    return 8 + 8 * len(params.layout.keys) + 4 * params.count()


# ---------------------------------------------------------------------------
# feature batches: 8-byte header (count, embedding width; width 0 when empty),
# then per row a header (client_id u16, label u16, round u32) and the float32
# embedding. So a row is ``2 + width`` little-endian 4-byte words: the ids
# word ``client_id | label << 16``, the round, then the embedding.

_WORD = np.dtype("<u4")
_FLOAT = np.dtype("<f4")
_WIRE_IDS = tuple((name, np.dtype(dtype), np.iinfo(dtype).max)
                  for name, dtype in (("client_ids", "<u2"), ("labels", "<u2"), ("rounds", "<u4")))


def serialize_features(batch: FeatureBatch) -> bytes:
    n, width = batch.embeddings.shape
    for name, dtype, top in _WIRE_IDS:
        values = getattr(batch, name)
        if n and (values.min() < 0 or values.max() > top):
            raise ValueError(f"feature {name} out of range for {dtype}")
    words = np.empty(2 + n * (2 + width), _WORD)
    words[:2] = n, width if n else 0
    rows = words[2:].reshape(n, 2 + width)
    rows[:, 0] = batch.client_ids | batch.labels << 16
    rows[:, 1] = batch.rounds
    rows[:, 2:].view(_FLOAT)[...] = batch.embeddings
    if not np.isfinite(rows[:, 2:].view(_FLOAT)).all():
        raise ValueError("feature embeddings hold a value that is not finite as float32")
    return words.tobytes()


def deserialize_features(blob: bytes) -> FeatureBatch:
    """The batch a blob holds, its embeddings float32 as sent."""
    if len(blob) < 8:
        raise CorruptBlobError("feature blob shorter than header")
    count, width = struct.unpack_from("<II", blob, 0)
    if len(blob) != feature_blob_bytes(count, width):
        raise CorruptBlobError("feature blob length does not match its header")
    rows = np.frombuffer(blob, _WORD, count=count * (2 + width), offset=8).reshape(count, 2 + width)
    ids = rows[:, 0]
    return FeatureBatch(rows[:, 2:].view(_FLOAT).astype(np.float32), (ids >> 16).astype(np.int64),
                        (ids & 0xFFFF).astype(np.int64), rows[:, 1].astype(np.int64))


def feature_blob_bytes(num_records: int, width: int) -> int:
    return 8 + num_records * (8 + 4 * width)


# ---------------------------------------------------------------------------
# prototype sets: header (K, width), then K float32 vectors in class order.

def serialize_prototypes(prototypes: np.ndarray) -> bytes:
    protos = np.asarray(prototypes, dtype=np.float64)
    payload = protos.astype(_FLOAT)
    if not np.isfinite(payload).all():
        raise ValueError("prototypes hold a value that is not finite as float32")
    return struct.pack("<II", protos.shape[0], protos.shape[1]) + payload.tobytes()


def deserialize_prototypes(blob: bytes) -> np.ndarray:
    if len(blob) < 8:
        raise CorruptBlobError("prototype blob shorter than header")
    k, width = struct.unpack_from("<II", blob, 0)
    if len(blob) != 8 + 4 * k * width:
        raise CorruptBlobError("prototype blob length mismatch")
    return np.frombuffer(blob, dtype="<f4", count=k * width, offset=8).astype(np.float64).reshape(k, width)


def prototype_blob_bytes(num_classes: int, width: int) -> int:
    return 8 + 4 * num_classes * width


# ---------------------------------------------------------------------------


class FeatureBank:
    """Server store of uploaded embeddings, FIFO-bounded to
    ``capacity_per_slot`` rows per (client, class) slot. Each client's rows
    sit in one buffer, slot by slot in class order, oldest row first; the
    client's pool is the buffer's filled head and each slot is a view of it,
    so every row is held once. Embeddings are held as float32, the wire
    format; rows inserted as float64 are rounded as the encoder rounds them."""

    def __init__(self, capacity_per_slot: int = 512):
        if capacity_per_slot < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity_per_slot
        self._buffers: dict[int, FeatureBatch] = {}
        self._pools: dict[int, FeatureBatch] = {}
        self._slots: dict[tuple[int, int], FeatureBatch] = {}

    def insert(self, batch: FeatureBatch) -> None:
        for cid in np.flatnonzero(np.bincount(batch.client_ids)).tolist():
            # the client's new rows, stable-sorted so each class is one slice
            idx = np.flatnonzero(batch.client_ids == cid)
            rows = batch.take(idx[np.argsort(batch.labels[idx], kind="stable")])
            counts = np.bincount(rows.labels)
            new = {label: (end - count, end) for label, (count, end)
                   in enumerate(zip(counts.tolist(), np.cumsum(counts).tolist())) if count}
            old = {label: len(slot) for (c, label), slot in self._slots.items() if c == cid}
            # each slot keeps its last ``capacity`` rows: its old rows, then its new ones
            moves, src_at, dst_at = [], 0, 0
            for label in sorted(old.keys() | new.keys()):
                lo, hi = new.get(label, (0, 0))
                fresh = min(hi - lo, self.capacity)
                kept = min(old.get(label, 0), self.capacity - fresh)
                src_at += old.get(label, 0)
                moves.append((label, src_at - kept, dst_at, kept, hi - fresh, fresh))
                dst_at += kept + fresh
            src = dst = self._buffers.get(cid)
            if src is None or len(src) < dst_at:
                # a class new to the client: room for every class's full slot
                size = self.capacity * len(moves)
                dst = self._buffers[cid] = FeatureBatch(
                    np.empty((size, rows.embeddings.shape[1]), np.float32),
                    *(np.empty(size, np.int64) for _ in range(3)))
            # slots only grow, so moving the last slot first never overwrites
            # rows still to be moved
            for _, src_lo, dst_lo, kept, new_lo, fresh in reversed(moves):
                for c in _COLUMNS:
                    col = getattr(dst, c)
                    if kept:
                        col[dst_lo:dst_lo + kept] = getattr(src, c)[src_lo:src_lo + kept]
                    col[dst_lo + kept:dst_lo + kept + fresh] = getattr(rows, c)[new_lo:new_lo + fresh]
            pool = self._pools[cid] = dst.take(slice(0, dst_at))
            for label, _, lo, kept, _, fresh in moves:
                self._slots[(cid, label)] = pool.take(slice(lo, lo + kept + fresh))

    def __len__(self) -> int:
        return sum(len(pool) for pool in self._pools.values())

    def sample(self, requesting_client: int, per_client_count: int, seed: int) -> FeatureBatch:
        """Up to ``per_client_count`` rows from each other client, without
        replacement, never the requester's own uploads. Deterministic in seed.
        The drawn pool indices are sorted, so rows keep their pool order."""
        if per_client_count < 0:
            raise ValueError("sample count must be >= 0")
        rng = np.random.default_rng(seed)
        parts = []
        for cid in sorted(self._pools):
            if cid != requesting_client:
                pool = self._pools[cid]
                size = min(per_client_count, len(pool))
                parts.append(pool.take(np.sort(rng.choice(len(pool), size=size, replace=False))))
        return FeatureBatch.concat(parts)


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    round: int
    direction: str
    kind: str
    byte_count: int
    client_id: int


_DIRECTIONS = (UP, DOWN)
_KINDS = (KIND_MODEL, KIND_FEATURES, KIND_PROTOTYPES)
_FIELDS = 5                     # round, direction, kind, byte_count, client_id


def _index(names: tuple, name: str | None) -> int | None:
    """``name``'s index in ``names``, -1 (matches no entry) if absent, None for None."""
    if name is None:
        return None
    return names.index(name) if name in names else -1


class CommLedger:
    """Append-only exact byte log of every client/server transfer.

    The log is one array of 64-bit integers, five per entry (direction and
    kind as indices into their constants): 40 bytes an entry, where a
    ``LedgerEntry`` with its list slot and byte count costs about 110. A run's results keep
    their ledgers, so a run of many rounds keeps thousands of entries.
    ``entries`` builds the ``LedgerEntry`` objects on each read."""

    __slots__ = ("_log",)

    def __init__(self) -> None:
        self._log = array("q")

    def record(self, round: int, direction: str, kind: str, byte_count: int, client_id: int) -> None:
        if direction not in _DIRECTIONS:
            raise ValueError(f"bad direction {direction!r}")
        if kind not in _KINDS:
            raise ValueError(f"bad kind {kind!r}")
        if byte_count < 0:
            raise ValueError("byte_count must be >= 0")
        # built whole first, so a value that is not a 64-bit integer logs nothing
        self._log.extend(array("q", (round, _DIRECTIONS.index(direction), _KINDS.index(kind),
                                     byte_count, client_id)))

    def _rows(self):
        log = self._log
        for r, d, k, b, c in zip(*(log[i::_FIELDS] for i in range(_FIELDS))):
            yield r, _DIRECTIONS[d], _KINDS[k], b, c

    @property
    def entries(self) -> list[LedgerEntry]:
        return [LedgerEntry(*row) for row in self._rows()]

    def total(self, round: int | None = None, direction: str | None = None,
              kind: str | None = None, client_id: int | None = None) -> int:
        rows = np.array(self._log, dtype=np.int64).reshape(-1, _FIELDS)    # a copy
        keep = np.ones(len(rows), dtype=bool)
        for col, value in ((0, round), (1, _index(_DIRECTIONS, direction)),
                           (2, _index(_KINDS, kind)), (4, client_id)):
            if value is not None:
                keep &= rows[:, col] == value
        return sum(rows[keep, 3].tolist())     # Python ints: exact at any size

    def rounds(self) -> list[int]:
        return sorted(set(self._log[0::_FIELDS]))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "direction", "kind", "bytes", "client_id"])
            writer.writerows(self._rows())
