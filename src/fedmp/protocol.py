"""Wire formats, the server-side feature bank, and exact byte accounting.

All blobs are little-endian. Model payloads are 32-bit floats (the byte
convention the ledger reports), while in-memory training state stays float64;
the simulator moves state by direct copy and uses these blobs for accounting
and on-disk artifacts.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field

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

    embeddings: np.ndarray      # (n, d) float64
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
            return cls(np.zeros((0, 0)), *(np.zeros(0, dtype=np.int64) for _ in range(3)))
        return cls(*(np.concatenate([getattr(b, c) for b in batches]) for c in _COLUMNS))

    def take(self, rows) -> FeatureBatch:
        return FeatureBatch(*(getattr(self, c)[rows] for c in _COLUMNS))

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
# embedding.

_WIRE_IDS = (("client_ids", "<u2"), ("labels", "<u2"), ("rounds", "<u4"))


def _wire_rows(width: int) -> np.dtype:
    return np.dtype([*_WIRE_IDS, ("embeddings", "<f4", (width,))])


def serialize_features(batch: FeatureBatch) -> bytes:
    n, width = batch.embeddings.shape
    rows = np.empty(n, dtype=_wire_rows(width))
    for name, dtype in _WIRE_IDS:
        values = getattr(batch, name)
        if n and (values.min() < 0 or values.max() > np.iinfo(dtype).max):
            raise ValueError(f"feature {name} out of range for {np.dtype(dtype)}")
        rows[name] = values
    rows["embeddings"] = batch.embeddings
    return struct.pack("<II", n, width if n else 0) + rows.tobytes()


def deserialize_features(blob: bytes) -> FeatureBatch:
    if len(blob) < 8:
        raise CorruptBlobError("feature blob shorter than header")
    count, width = struct.unpack_from("<II", blob, 0)
    if len(blob) != feature_blob_bytes(count, width):
        raise CorruptBlobError("feature blob length does not match its header")
    rows = np.frombuffer(blob, dtype=_wire_rows(width), count=count, offset=8)
    return FeatureBatch(embeddings=rows["embeddings"].astype(np.float64),
                        **{name: rows[name].astype(np.int64) for name, _ in _WIRE_IDS})


def feature_blob_bytes(num_records: int, width: int) -> int:
    return 8 + num_records * (8 + 4 * width)


# ---------------------------------------------------------------------------
# prototype sets: header (K, width), then K float32 vectors in class order.

def serialize_prototypes(prototypes: np.ndarray) -> bytes:
    protos = np.asarray(prototypes, dtype=np.float64)
    return struct.pack("<II", protos.shape[0], protos.shape[1]) + protos.astype("<f4").tobytes()


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
    so every row is held once."""

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
                dst = self._buffers[cid] = FeatureBatch(*(
                    np.empty((self.capacity * len(moves), *col.shape[1:]), col.dtype)
                    for col in (getattr(rows, c) for c in _COLUMNS)))
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


@dataclass
class CommLedger:
    """Append-only exact byte log of every client/server transfer."""

    entries: list[LedgerEntry] = field(default_factory=list)

    def record(self, round: int, direction: str, kind: str, byte_count: int, client_id: int) -> None:
        if direction not in (UP, DOWN):
            raise ValueError(f"bad direction {direction!r}")
        if kind not in (KIND_MODEL, KIND_FEATURES, KIND_PROTOTYPES):
            raise ValueError(f"bad kind {kind!r}")
        if byte_count < 0:
            raise ValueError("byte_count must be >= 0")
        self.entries.append(LedgerEntry(round, direction, kind, byte_count, client_id))

    def total(self, round: int | None = None, direction: str | None = None,
              kind: str | None = None, client_id: int | None = None) -> int:
        return sum(
            e.byte_count for e in self.entries
            if (round is None or e.round == round)
            and (direction is None or e.direction == direction)
            and (kind is None or e.kind == kind)
            and (client_id is None or e.client_id == client_id)
        )

    def rounds(self) -> list[int]:
        return sorted({e.round for e in self.entries})

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "direction", "kind", "bytes", "client_id"])
            for e in self.entries:
                writer.writerow([e.round, e.direction, e.kind, e.byte_count, e.client_id])
