"""Feature-inversion privacy evaluation.

An attacker who intercepts uploaded embeddings and the frozen extractor trains
a mirror-MLP decoder on half of a client's data (MSE), reconstructs the other
half, and the leakage is scored with a Frechet distance over the model's own
embeddings, the best-case SSIM, and the worst-case RMS pixel distance against
the 0.1 risk threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .data import ClientShard

L2_RISK_THRESHOLD = 0.1
BATCH_SIZE = 64                      # decoder mini-batch rows


@dataclass
class AttackConfig:
    split_index: int                 # layer boundary whose output is intercepted
    epochs: int = 200
    train_fraction: float = 0.5
    learning_rate: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass
class LeakageReport:
    split_index: int
    frechet: float
    max_ssim: float
    min_l2: float
    risk: bool
    # per attacked client: its id, frechet, max_ssim and min_l2
    per_client: list[dict] = field(default_factory=list)


def intercepted_features(params: nn.Parameters, spec: nn.NetworkSpec,
                         x: np.ndarray, split_index: int) -> np.ndarray:
    """Representation at the attacked layer boundary."""
    out, _ = nn.forward(params, spec, x, 0, split_index)
    return out


def mirror_decoder_spec(spec: nn.NetworkSpec, split_index: int) -> nn.NetworkSpec:
    """Decoder that walks the encoder's widths up to ``split_index`` in
    reverse: a plain MLP with no split."""
    return nn.NetworkSpec(spec.widths[(split_index + 1) // 2::-1])


def train_decoder(extractor_params: nn.Parameters, spec: nn.NetworkSpec,
                  shard: ClientShard, config: AttackConfig) -> tuple[nn.Parameters, nn.NetworkSpec]:
    """Fit the decoder by MSE on the training half; the encoder is never touched."""
    if len(shard) < 2:
        raise ValueError("shard too small to split for the attack")
    n_train = int(len(shard) * config.train_fraction)
    if n_train < 1 or n_train >= len(shard):
        raise ValueError("degenerate train/held-out split")
    x_train = shard.inputs[:n_train]
    z_train = intercepted_features(extractor_params, spec, x_train, config.split_index)
    dec_spec = mirror_decoder_spec(spec, config.split_index)
    dec_params = nn.init_params(dec_spec, config.seed)
    state = nn.AdamState(learning_rate=config.learning_rate, weight_decay=0.0)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[config.seed, 7]))
    grads = dec_params.zeros_like()         # every backward rewrites all of it
    for _ in range(config.epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, BATCH_SIZE):
            idx = order[start:start + BATCH_SIZE]
            out, cache = nn.forward_full(dec_params, dec_spec, z_train[idx])
            grad = 2.0 * (out - x_train[idx]) / out.size
            nn.backward(dec_params, dec_spec, cache, grad, out=grads)
            nn.adam_step(dec_params, grads, state)
    return dec_params, dec_spec


def ssim(x: np.ndarray, y: np.ndarray, dynamic_range: float = 1.0) -> float:
    """Global single-window SSIM with the standard constants."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    mx, my = x.mean(), y.mean()
    vx, vy = x.var(), y.var()
    cov = ((x - mx) * (y - my)).mean()
    return float(
        (2 * mx * my + c1) * (2 * cov + c2)
        / ((mx**2 + my**2 + c1) * (vx + vy + c2))
    )


def l2_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Root-mean-square pixel distance over [0, 1]-normalized values."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    return float(np.sqrt(np.mean((x - y) ** 2)))


def is_risk(l2: float) -> bool:
    return l2 < L2_RISK_THRESHOLD


def frechet_distance(features_a: np.ndarray, features_b: np.ndarray,
                     ridge: float = 1e-6) -> float:
    """||mu_a - mu_b||^2 + Tr(Sa + Sb - 2 (Sa Sb)^{1/2}), with the matrix root
    taken through symmetric eigendecompositions after a small ridge."""
    a = np.atleast_2d(np.asarray(features_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(features_b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise ValueError("feature dimensionality mismatch")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    d = a.shape[1]
    cov_a = np.cov(a, rowvar=False).reshape(d, d) + ridge * np.eye(d)
    cov_b = np.cov(b, rowvar=False).reshape(d, d) + ridge * np.eye(d)
    root_a = _sym_sqrt(cov_a)
    inner = root_a @ cov_b @ root_a
    eigvals = np.linalg.eigvalsh(inner)
    if eigvals.min() < -1e-8 * max(1.0, eigvals.max()):
        raise ValueError("covariance product is not PSD after ridge")
    trace_root = np.sqrt(np.clip(eigvals, 0.0, None)).sum()
    fd = float(np.sum((mu_a - mu_b) ** 2) + np.trace(cov_a) + np.trace(cov_b)
               - 2.0 * trace_root)
    return max(fd, 0.0)


def _sym_sqrt(mat: np.ndarray) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(mat)
    if eigvals.min() < -1e-8 * max(1.0, abs(eigvals).max()):
        raise ValueError("matrix is not PSD after ridge")
    return (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T


def unit_normalizer(shards: list[ClientShard]):
    """Affine map of the whole federation's inputs onto [0, 1]."""
    lo = min(float(s.inputs.min()) for s in shards)
    hi = max(float(s.inputs.max()) for s in shards)
    span = hi - lo if hi > lo else 1.0
    return lambda x: (np.asarray(x, dtype=np.float64) - lo) / span


def attack_shard(extractor_params: nn.Parameters, spec: nn.NetworkSpec,
                 shard: ClientShard, config: AttackConfig, normalize) -> dict:
    """Run the attack on one client; metrics on the held-out half only. The
    row holds each metric's extreme over the held-out samples."""
    dec_params, dec_spec = train_decoder(extractor_params, spec, shard, config)
    n_train = int(len(shard) * config.train_fraction)
    x_held = shard.inputs[n_train:]
    z_held = intercepted_features(extractor_params, spec, x_held, config.split_index)
    recon, _ = nn.forward_full(dec_params, dec_spec, z_held)

    ssims, l2s = [], []
    for j in range(len(x_held)):
        xn, rn = normalize(x_held[j]), normalize(recon[j])
        ssims.append(ssim(xn, rn, dynamic_range=1.0))
        l2s.append(l2_distance(xn, rn))
    real_feats, _ = nn.forward_extractor(extractor_params, spec, x_held)
    recon_feats, _ = nn.forward_extractor(extractor_params, spec, recon)
    return {
        "client_id": shard.client_id,
        "frechet": frechet_distance(real_feats, recon_feats),
        "max_ssim": max(ssims),
        "min_l2": min(l2s),
    }


def attack_report(extractor_params: nn.Parameters, spec: nn.NetworkSpec,
                  shards: list[ClientShard], configs: list[AttackConfig]) -> list[LeakageReport]:
    """One report per attacked layer, averaged across clients."""
    for cfg in configs:
        if not 1 <= cfg.split_index <= len(spec.layers):
            raise ValueError(f"split_index {cfg.split_index} outside 1..{len(spec.layers)}, "
                             f"the network's layers")
    normalize = unit_normalizer(shards)
    reports = []
    for cfg in configs:
        rows = [attack_shard(extractor_params, spec, s, cfg, normalize) for s in shards]
        min_l2 = float(np.mean([r["min_l2"] for r in rows]))
        reports.append(LeakageReport(
            split_index=cfg.split_index,
            frechet=float(np.mean([r["frechet"] for r in rows])),
            max_ssim=float(np.mean([r["max_ssim"] for r in rows])),
            min_l2=min_l2,
            risk=is_risk(min_l2),
            per_client=rows,
        ))
    return reports
