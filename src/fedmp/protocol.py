"""Wire formats, the server-side feature bank, and exact byte accounting.

All blobs are little-endian. Model and prototype blobs carry 32-bit floats,
feature blobs 16-bit ones. Every encoder raises ``ValueError`` for a value
that is not finite in its blob's float type, so no blob carries NaN or an
infinity.
Embeddings and prototypes travel as blobs: a run encodes each upload and
prototype broadcast, the receiver decodes it, and the ledger bills the blob's
length. The feature bank keeps blob rows, so a foreign sample is one gather
of them, never re-encoded. Decoded embeddings are read-only float16 views of
a blob; arithmetic upcasts them to float64 first. Models move by direct
copy; model blobs serve accounting and on-disk artifacts.
"""

from __future__ import annotations

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
    """Labeled embeddings, one row per sample: what a feature blob carries.
    An upload's client and round travel with its transfer, not in its rows."""

    embeddings: np.ndarray      # (n, d): float16 as decoded, a read-only view; math upcasts it
    labels: np.ndarray          # (n,) int64

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
    ``ValueError`` if one is not finite as float32, also one beyond float32's
    range, which casts to an infinity without NumPy's overflow warning."""
    with np.errstate(over="ignore"):
        out = np.asarray(values).astype(_FLOAT, copy=False)
    if not np.isfinite(out).all():
        raise ValueError(f"{what} hold a value that is not finite as float32")
    return out


# every float16 bit pattern's value as float32, indexed by the pattern (256 KB)
_HALF_AS_FLOAT = np.arange(1 << 16, dtype=_WORD).view(_HALF).astype(np.float32)


def upcast(values: np.ndarray) -> np.ndarray:
    """``values`` as float64, with the bits of ``values.astype(np.float64)``
    (a NaN stays a NaN, quieted without NumPy's warning). Float16 values are
    looked up in ``_HALF_AS_FLOAT`` by their ``<u2`` pattern, then cast:
    float32 holds every float16 value exactly, and its cast does not branch
    per value as NumPy's float16 cast does (3.5 times as fast on ReLUs)."""
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
# feature blobs: 8-byte header (count, embedding width as u32; width 0 when
# empty), then per row its label as u16 and its embedding as ``width``
# float16 values. So a row is ``1 + width`` little-endian 2-byte words.

_LABEL_TOP = np.iinfo(_WORD).max


def feature_rows(batch: FeatureBatch) -> np.ndarray:
    """``batch`` as a feature blob's ``(n, 1 + width)`` ``<u2`` rows: each
    row's label, then its embedding rounded once to float16. ``ValueError``
    for a label outside u16 or a value not finite as float16 (from 65520 up
    in magnitude), without NumPy's overflow warning. The check reads the
    halves' exponent bits: ``np.isfinite`` on float16 costs ten times more.
    ``ValueError`` too for labels not of shape ``(n,)``."""
    n, width = batch.embeddings.shape
    if batch.labels.shape != (n,):
        raise ValueError(f"feature labels of shape {batch.labels.shape}, expected ({n},)")
    if n and (batch.labels.min() < 0 or batch.labels.max() > _LABEL_TOP):
        raise ValueError(f"feature labels out of range for {_WORD}")
    with np.errstate(over="ignore"):       # float16 input is not copied
        halves = np.asarray(batch.embeddings).astype(_HALF, copy=False).view(_WORD)
    if halves.size and (halves & 0x7FFF).max() >= _EXPONENT:
        raise ValueError("feature embeddings hold a value that is not finite as float16")
    rows = np.empty((n, 1 + width), _WORD)
    rows[:, 0] = batch.labels
    rows[:, 1:] = halves
    return rows


def feature_blob(rows: np.ndarray) -> bytes:
    """The blob of ``feature_rows``' or ``FeatureBank.sample``'s rows, as they are."""
    n, words = rows.shape
    return struct.pack("<II", n, words - 1 if n else 0) + rows.tobytes()


def serialize_features(batch: FeatureBatch) -> bytes:
    return feature_blob(feature_rows(batch))


def deserialize_features(blob: bytes) -> FeatureBatch:
    """The batch a blob holds, its embeddings a read-only float16 view of it."""
    if len(blob) < 8:
        raise CorruptBlobError("feature blob shorter than header")
    count, width = struct.unpack_from("<II", blob, 0)
    if len(blob) != feature_blob_bytes(count, width):
        raise CorruptBlobError("feature blob length does not match its header")
    rows = np.frombuffer(blob, _WORD, count=count * (1 + width), offset=8).reshape(count, 1 + width)
    return FeatureBatch(rows[:, 1:].view(_HALF), rows[:, 0].astype(np.int64))


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
    """Server store of uploaded embeddings, shaped when made, as the
    ``(clients, classes * capacity, 1 + width)`` ``<u2`` rows of feature
    blobs, made by ``feature_rows`` with its checks. Slot (c, k) is a FIFO
    ring of ``capacity_per_slot`` rows, client ``c``'s from row
    ``k * capacity``: its ``n``-th row goes at ``n % capacity``, over the
    oldest once full, so a row's place fixes its label and client. A sample
    is one gather of rows, sent as they are, never re-encoded. Each row's
    round is kept beside it."""

    def __init__(self, capacity_per_slot: int, num_clients: int, num_classes: int, width: int):
        if capacity_per_slot < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity_per_slot
        self._rows = np.empty((num_clients, num_classes * capacity_per_slot, 1 + width), _WORD)
        self._rounds = np.empty(self._rows.shape[:2], np.int64)
        self._written = np.zeros((num_clients, num_classes), np.int64)  # rows ever written per slot
        self._pools: dict[int, np.ndarray] = {}     # slots in class order, oldest row first

    def insert(self, batch: FeatureBatch, client_id: int, round: int) -> None:
        """Client ``client_id``'s upload of round (or stage) ``round``. An
        empty upload may have any width: its blob's header says 0."""
        cap, (clients, classes) = self.capacity, self._written.shape
        if not 0 <= client_id < clients:
            raise ValueError(f"feature client id {client_id} outside the bank's 0..{clients - 1}")
        shape, width = batch.embeddings.shape, self._rows.shape[2] - 1
        if len(batch) and shape[1:] != (width,):
            raise ValueError(f"feature embeddings of shape {shape}, expected (n, {width}), "
                             f"the bank's width")
        labels = batch.labels
        if len(labels) and (labels.min() < 0 or labels.max() >= classes):
            raise ValueError(f"feature labels outside the bank's 0..{classes - 1}")
        made, written = feature_rows(batch), self._written[client_id]
        rows, rounds = self._rows[client_id], self._rounds[client_id]
        for k in np.flatnonzero(np.bincount(labels)).tolist():
            picks = np.flatnonzero(labels == k)[-cap:]    # the ring would overwrite the rest
            at = k * cap + np.arange(written[k], written[k] + len(picks)) % cap
            rows[at], rounds[at] = made[picks], round
            written[k] += len(picks)
        self._pools[client_id] = np.concatenate([k * cap + np.arange(max(n - cap, 0), n) % cap
                                                 for k, n in enumerate(written.tolist())])

    def __len__(self) -> int:
        return sum(len(pool) for pool in self._pools.values())

    def sample(self, requesting_client: int, per_client_count: int, seed: int) -> np.ndarray:
        """Up to ``per_client_count`` rows from each other client, without
        replacement, never the requester's own uploads, as blob rows taken in
        one gather. Deterministic in seed. The drawn pool indices are sorted,
        so rows keep their pool order."""
        if per_client_count < 0:
            raise ValueError("sample count must be >= 0")
        rng, (slots, words) = np.random.default_rng(seed), self._rows.shape[1:]
        picks = [np.zeros(0, np.intp)]
        for cid, pool in sorted(self._pools.items()):
            if cid != requesting_client:
                drawn = rng.choice(len(pool), size=min(per_client_count, len(pool)), replace=False)
                picks.append(cid * slots + pool[np.sort(drawn)])
        return self._rows.reshape(-1, words).take(np.concatenate(picks), axis=0)


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
