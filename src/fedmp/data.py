"""Synthetic feature-skew federation data and its CSV export.

Every client draws labels from the same balanced label distribution, but sees
inputs through a client-specific affine transform of a shared latent Gaussian
mixture. ``skew_strength`` controls how far each transform sits from the
identity, so 0 gives an IID control federation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

LATENT_RADIUS = 3.0
MAX_CONDITION = 1e6


@dataclass(frozen=True)
class DatasetSpec:
    input_dim: int
    num_classes: int
    samples_per_client: int
    num_clients: int
    skew_strength: float = 0.0
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        # each message starts with the field it is about
        for name, low in (("num_classes", 2), ("num_clients", 1),
                          ("skew_strength", 0), ("noise_std", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.samples_per_client < self.num_classes:
            raise ValueError(f"samples_per_client must cover every class, got "
                             f"{self.samples_per_client} for {self.num_classes} classes")


@dataclass
class ClientShard:
    client_id: int
    inputs: np.ndarray          # (M, D0) float64
    labels: np.ndarray          # (M,) int64

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _balanced_labels(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Per-class counts equal within +/-1; order shuffled."""
    base = np.arange(n) % k
    rng.shuffle(base)
    return base.astype(np.int64)


def _client_transform(dim: int, strength: float, rng: np.random.Generator):
    """Invertible affine (A, b) whose distance from identity scales with strength.

    A permutes a strength-dependent fraction of the coordinates (all of them at
    strength >= 2) and b shifts each coordinate by a Gaussian offset scaled by
    the strength. Permutations are orthogonal, so the transform is perfectly
    conditioned at every strength while still scrambling which raw feature
    carries which latent coordinate -- a feature-measurement mismatch between
    sites rather than a small analog distortion.
    """
    eye = np.eye(dim)
    if strength == 0.0:
        return eye, np.zeros(dim)
    fraction = min(1.0, strength / 2.0)
    moved = int(round(fraction * dim))
    chosen = rng.choice(dim, size=moved, replace=False)
    shuffled = chosen.copy()
    rng.shuffle(shuffled)
    order = np.arange(dim)
    order[chosen] = shuffled
    b = strength * 0.5 * rng.normal(size=dim)
    return eye[order], b


def generate_federation(spec: DatasetSpec) -> tuple[list[ClientShard], ClientShard]:
    """Build per-client shards plus a pooled global test shard.

    The latent class generators (Gaussian centers) are shared by all clients;
    labels depend only on the latent sample. The global test set draws the same
    number of fresh samples through every client's transform.
    """
    root = np.random.SeedSequence(spec.seed)
    center_rng = np.random.default_rng(root.spawn(1)[0])
    centers = center_rng.normal(size=(spec.num_classes, spec.input_dim))
    centers *= LATENT_RADIUS / np.linalg.norm(centers, axis=1, keepdims=True)

    shards = []
    test_inputs, test_labels = [], []
    for cid in range(spec.num_clients):
        seq = np.random.SeedSequence(entropy=[spec.seed, 1, cid])
        rng = np.random.default_rng(seq)
        a, b = _client_transform(spec.input_dim, spec.skew_strength, rng)
        for split, collect in (("train", True), ("test", False)):
            labels = _balanced_labels(spec.samples_per_client, spec.num_classes, rng)
            z = centers[labels] + rng.normal(size=(len(labels), spec.input_dim))
            x = z @ a.T + b + spec.noise_std * rng.normal(size=z.shape)
            if collect:
                shards.append(ClientShard(client_id=cid, inputs=x, labels=labels))
            else:
                test_inputs.append(x)
                test_labels.append(labels)

    global_test = ClientShard(
        client_id=-1,
        inputs=np.concatenate(test_inputs, axis=0),
        labels=np.concatenate(test_labels, axis=0),
    )
    return shards, global_test


def save_csv(shard: ClientShard, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for x, y in zip(shard.inputs, shard.labels):
            writer.writerow([format(v, ".17g") for v in x] + [int(y)])


def merge_shards(shards: list[ClientShard], client_id: int = 0) -> ClientShard:
    return ClientShard(
        client_id=client_id,
        inputs=np.concatenate([s.inputs for s in shards], axis=0),
        labels=np.concatenate([s.labels for s in shards], axis=0),
    )
