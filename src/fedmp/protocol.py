"""Wire formats, the server-side feature bank, and exact byte accounting.

All blobs are little-endian. Model and prototype blobs carry 32-bit floats,
feature blobs 16-bit ones. Every encoder raises ``ValueError`` for a value
that is not finite in its blob's float type, so no blob carries NaN or an
infinity.
Embeddings and prototypes travel as blobs: a run encodes each upload, foreign
sample and prototype broadcast, the receiver decodes it, and the ledger bills
the blob's length. Decoded embeddings stay float16, as the bank stores them;
arithmetic upcasts them to float64 first. Models still move by direct copy,
so training state stays float64; model blobs serve accounting and on-disk
artifacts.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, fields

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
    """Labeled embeddings, one row per sample: what a feature blob carries.
    An upload's client and round travel with its transfer, not in its rows."""

    embeddings: np.ndarray      # (n, d): float16 as decoded; math upcasts it
    labels: np.ndarray          # (n,) int64

    @classmethod
    def concat(cls, batches) -> FeatureBatch:
        """Rows of ``batches`` in order; no batches give an empty (0, 0) batch."""
        batches = list(batches)
        if not batches:
            return cls(np.zeros((0, 0), np.float16), np.zeros(0, np.int64))
        return cls(*(np.concatenate([getattr(b, f.name) for b in batches]) for f in fields(cls)))

    def take(self, rows) -> FeatureBatch:
        return FeatureBatch(self.embeddings.take(rows, axis=0), self.labels.take(rows))

    def __len__(self) -> int:
        return self.embeddings.shape[0]


class CorruptBlobError(ValueError):
    """Raised when a wire blob is truncated or fails validation."""


_FLOAT = np.dtype("<f4")
_HALF = np.dtype("<f2")
_WORD = np.dtype("<u2")         # a feature blob's row unit: a label or one half
_EXPONENT = 0x7C00              # a half's exponent bits, all set for inf and NaN


def _float32(values, what: str) -> np.ndarray:
    """``values`` as the blob's float32 (float32 input is not copied), or
    ``ValueError`` if one is not finite as float32. A value beyond float32's
    range casts to an infinity, which the check rejects, so NumPy's overflow
    warning is not raised first."""
    with np.errstate(over="ignore"):
        out = np.asarray(values).astype(_FLOAT, copy=False)
    if not np.isfinite(out).all():
        raise ValueError(f"{what} hold a value that is not finite as float32")
    return out


def _float16(values, what: str) -> np.ndarray:
    """``values`` rounded once to the blob's float16 (float16 input is not
    copied), or ``ValueError`` if one is not finite as float16: from 65520
    up in magnitude a value rounds to an infinity, which the check rejects
    without NumPy's overflow warning. The check reads the exponent bits of
    the ``<u2`` view: ``np.isfinite`` on float16 costs about ten times as
    much."""
    with np.errstate(over="ignore"):
        out = np.asarray(values).astype(_HALF, copy=False)
    words = out.view(_WORD)
    if words.size and (words & 0x7FFF).max() >= _EXPONENT:
        raise ValueError(f"{what} hold a value that is not finite as float16")
    return out


# every float16 bit pattern's value as float32, indexed by the pattern (256 KB)
_HALF_AS_FLOAT = np.arange(1 << 16, dtype=_WORD).view(_HALF).astype(np.float32)


def upcast(values: np.ndarray) -> np.ndarray:
    """``values`` as float64, with the bits of ``values.astype(np.float64)``
    (a NaN stays a NaN). Float16 values are looked up in ``_HALF_AS_FLOAT``
    by their ``<u2`` pattern, then cast: float32 holds every float16 value
    exactly, and the float32 cast does not branch per value as NumPy's
    float16 cast does (about 3.5 times as fast on ReLU outputs). A
    signaling NaN is quieted without NumPy's invalid-value warning."""
    if values.dtype != _HALF:
        return values.astype(np.float64)
    with np.errstate(invalid="ignore"):
        return _HALF_AS_FLOAT.take(values.view(_WORD)).astype(np.float64)


# ---------------------------------------------------------------------------
# model blobs: 8-byte header (magic, tensor count), then per tensor an 8-byte
# shape header (rows, cols as u32) and float32 payload in sorted key order.

def serialize_model(params: Parameters) -> bytes:
    payload = _float32(params.vec, "model parameters")
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
    layout = spec.layout
    if count != len(layout.keys):
        raise CorruptBlobError(f"tensor count {count} != expected {len(layout.keys)}")
    vec = np.empty(layout.size)
    offset = 8
    for key, (lo, hi, want_shape) in layout.spans.items():
        if offset + 8 > len(blob):
            raise CorruptBlobError("model blob truncated in shape header")
        rows, cols = struct.unpack_from("<II", blob, offset)
        offset += 8
        n = rows * cols
        end = offset + 4 * n
        if end > len(blob):
            raise CorruptBlobError("model blob truncated in payload")
        shape = (cols,) if rows == 1 and len(want_shape) == 1 else (rows, cols)
        if shape != want_shape:
            raise CorruptBlobError(f"tensor {key}: shape {shape} != spec {want_shape}")
        vec[lo:hi] = np.frombuffer(blob, dtype=_FLOAT, count=n, offset=offset)
        offset = end
    if offset != len(blob):
        raise CorruptBlobError("trailing bytes after model payload")
    return Parameters.over(vec, layout)


def model_blob_bytes(params: Parameters) -> int:
    """Closed-form length: 8 + sum over tensors of (8 + 4 * count)."""
    return 8 + 8 * len(params.layout.keys) + 4 * params.count()


# ---------------------------------------------------------------------------
# feature batches: 8-byte header (count, embedding width as u32; width 0 when
# empty), then per row its label as u16 and its embedding as ``width``
# float16 values. So a row is ``1 + width`` little-endian 2-byte words.

_LABEL_TOP = np.iinfo(_WORD).max


def serialize_features(batch: FeatureBatch) -> bytes:
    n, width = batch.embeddings.shape
    labels = batch.labels
    if n and (labels.min() < 0 or labels.max() > _LABEL_TOP):
        raise ValueError(f"feature labels out of range for {_WORD}")
    embeddings = _float16(batch.embeddings, "feature embeddings")
    words = np.empty(4 + n * (1 + width), _WORD)
    words[:4].view("<u4")[:] = n, width if n else 0
    rows = words[4:].reshape(n, 1 + width)
    rows[:, 0] = labels
    rows[:, 1:] = embeddings.view(_WORD)
    return words.tobytes()


def deserialize_features(blob: bytes) -> FeatureBatch:
    """The batch a blob holds, its embeddings float16 as sent."""
    if len(blob) < 8:
        raise CorruptBlobError("feature blob shorter than header")
    count, width = struct.unpack_from("<II", blob, 0)
    if len(blob) != feature_blob_bytes(count, width):
        raise CorruptBlobError("feature blob length does not match its header")
    rows = np.frombuffer(blob, _WORD, count=count * (1 + width), offset=8).reshape(count, 1 + width)
    return FeatureBatch(rows[:, 1:].view(_HALF).copy(), rows[:, 0].astype(np.int64))


def feature_blob_bytes(num_records: int, width: int) -> int:
    return 8 + num_records * (2 + 2 * width)


# ---------------------------------------------------------------------------
# prototype sets: header (K, width), then K float32 vectors in class order.

def serialize_prototypes(prototypes: np.ndarray) -> bytes:
    payload = _float32(prototypes, "prototypes")
    return struct.pack("<II", *payload.shape) + payload.tobytes()


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
    """Server store of uploaded embeddings, shaped when made. Slot (c, k) is a
    FIFO ring of ``capacity_per_slot`` rows, client ``c``'s from row
    ``k * capacity``: its ``n``-th row goes at ``n % capacity``, over the
    oldest once full, so a row's place fixes its label and client. Embeddings
    are float16, as the wire carries them; rows inserted as float64 round as
    the encoder rounds them. Each row's round is kept beside it."""

    def __init__(self, capacity_per_slot: int, num_clients: int, num_classes: int, width: int):
        if capacity_per_slot < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity_per_slot
        self._embeddings = np.empty((num_clients, num_classes * capacity_per_slot, width), _HALF)
        self._rounds = np.empty(self._embeddings.shape[:2], np.int64)
        self._written = np.zeros((num_clients, num_classes), np.int64)  # rows ever written per slot
        self._pools: dict[int, np.ndarray] = {}     # slots in class order, oldest row first

    def insert(self, batch: FeatureBatch, client_id: int, round: int) -> None:
        """Client ``client_id``'s upload of round (or stage) ``round``."""
        cap = self.capacity
        clients, classes = self._written.shape
        if not 0 <= client_id < clients:
            raise ValueError(f"feature client id {client_id} outside the bank's 0..{clients - 1}")
        labels = batch.labels
        if len(labels) and (labels.min() < 0 or labels.max() >= classes):
            raise ValueError(f"feature labels outside the bank's 0..{classes - 1}")
        written = self._written[client_id]
        embeddings, rounds = self._embeddings[client_id], self._rounds[client_id]
        for k in np.flatnonzero(np.bincount(labels)).tolist():
            rows = np.flatnonzero(labels == k)[-cap:]     # the ring would overwrite the rest
            at = k * cap + np.arange(written[k], written[k] + len(rows)) % cap
            embeddings[at], rounds[at] = batch.embeddings[rows], round
            written[k] += len(rows)
        self._pools[client_id] = np.concatenate([k * cap + np.arange(max(n - cap, 0), n) % cap
                                                 for k, n in enumerate(written.tolist())])

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
        for cid, pool in sorted(self._pools.items()):
            if cid != requesting_client:
                size = min(per_client_count, len(pool))
                rows = pool[np.sort(rng.choice(len(pool), size=size, replace=False))]
                parts.append(FeatureBatch(self._embeddings[cid].take(rows, axis=0),
                                          rows // self.capacity))
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
# an entry's key packs, from the low bit up: kind (2 bits), direction (1),
# client id (28) and round (the signed rest)
_CLIENT_MASK = (1 << 28) - 1
_ROUND_SHIFT = 31
_ROUND_LIMIT = 1 << 32          # a round lies in [-limit, limit)


def _index(names: tuple, name: str | None) -> int | None:
    """``name``'s index in ``names``, -1 (matches no entry) if absent, None for None."""
    if name is None:
        return None
    return names.index(name) if name in names else -1


class CommLedger:
    """Append-only exact byte log of every client/server transfer.

    An entry is two 64-bit integers, 16 bytes, where a ``LedgerEntry`` with
    its list slot and byte count costs about 110: a key packing its round,
    direction, kind and client id, and its byte count. A run's results keep
    their ledgers, so a run of many rounds keeps thousands of entries.
    ``entries`` builds the ``LedgerEntry`` objects on each read."""

    __slots__ = ("_keys", "_bytes")

    def __init__(self) -> None:
        self._keys = array("q")
        self._bytes = array("q")

    def record(self, round: int, direction: str, kind: str, byte_count: int, client_id: int) -> None:
        if direction not in _DIRECTIONS:
            raise ValueError(f"bad direction {direction!r}")
        if kind not in _KINDS:
            raise ValueError(f"bad kind {kind!r}")
        if byte_count < 0:
            raise ValueError("byte_count must be >= 0")
        if not (-_ROUND_LIMIT <= round < _ROUND_LIMIT and 0 <= client_id <= _CLIENT_MASK):
            raise OverflowError(f"round {round} or client id {client_id} out of the ledger range")
        key = (round << _ROUND_SHIFT | client_id << 3
               | _DIRECTIONS.index(direction) << 2 | _KINDS.index(kind))
        # the byte count goes first: one that is not a 64-bit integer logs nothing
        self._bytes.append(byte_count)
        self._keys.append(key)

    @property
    def entries(self) -> list[LedgerEntry]:
        return [LedgerEntry(key >> _ROUND_SHIFT, _DIRECTIONS[key >> 2 & 1], _KINDS[key & 3], b,
                            key >> 3 & _CLIENT_MASK)
                for key, b in zip(self._keys, self._bytes)]

    def total(self, round: int | None = None, direction: str | None = None,
              kind: str | None = None, client_id: int | None = None) -> int:
        keys = np.array(self._keys, dtype=np.int64)     # a copy
        keep = np.ones(len(keys), dtype=bool)
        for value, shift, mask in ((round, _ROUND_SHIFT, -1), (client_id, 3, _CLIENT_MASK),
                                   (_index(_DIRECTIONS, direction), 2, 1),
                                   (_index(_KINDS, kind), 0, 3)):
            if value is not None:
                keep &= (keys >> shift & mask) == value
        return sum(np.array(self._bytes, dtype=np.int64)[keep].tolist())   # exact at any size

    def rounds(self) -> list[int]:
        return sorted({key >> _ROUND_SHIFT for key in self._keys})
