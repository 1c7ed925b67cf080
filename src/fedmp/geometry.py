"""Manifold diagnostics: Hausdorff distances over embedding point clouds,
per-client per-class manifold extraction with each client cloud's distance to
its global class cloud (the round loop's ``hausdorff_mean``), and 2-D PCA
export."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import directed_hausdorff

from . import nn


@dataclass
class PointCloud:
    points: np.ndarray
    label: int | None = None
    client_id: int | None = None


def _as_points(cloud) -> np.ndarray:
    pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("point cloud must be a nonempty (n, d) array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point cloud contains non-finite values")
    return pts


def directed_distance(a, b) -> float:
    """Exact directed Hausdorff distance: the largest distance from a point of
    ``a`` to its nearest point of ``b``, by the early-break algorithm of Taha
    & Hanbury (2015).

    The algorithm shuffles the order in which it visits the points, which
    cannot change the max-min it returns. A seeded ``Generator`` does the
    shuffle: scipy's default seed builds a legacy ``RandomState`` on every
    call, which costs more than the distance for clouds of about a hundred
    points."""
    pa, pb = _as_points(a), _as_points(b)
    if pa.shape[1] != pb.shape[1]:
        raise ValueError(f"dimension mismatch {pa.shape[1]} vs {pb.shape[1]}")
    return _directed(pa, pb)


def _directed(pa: np.ndarray, pb: np.ndarray) -> float:
    # ``directed_distance`` on clouds already checked by ``_as_points``
    return float(directed_hausdorff(pa, pb, rng=np.random.default_rng(0))[0])


def hausdorff_distance(a, b) -> float:
    """Exact symmetric Hausdorff distance (max of both directed distances)."""
    return max(directed_distance(a, b), directed_distance(b, a))


def class_manifolds(params: nn.Parameters, spec: nn.NetworkSpec, shards):
    """Embed every shard with the current extractor.

    Returns (per, global): per[(client_id, class)] and global[class], where the
    global cloud is the multiset union across clients.
    """
    per: dict[tuple[int, int], np.ndarray] = {}
    global_parts: dict[int, list[np.ndarray]] = {}
    for shard in shards:
        u, _ = nn.forward_extractor(params, spec, shard.inputs)
        for cls in np.unique(shard.labels):
            pts = u[shard.labels == cls]
            per[(shard.client_id, int(cls))] = pts
            global_parts.setdefault(int(cls), []).append(pts)
    global_clouds = {c: np.concatenate(v, axis=0) for c, v in global_parts.items()}
    return per, global_clouds


def _to_global(per: dict, global_clouds: dict) -> tuple[dict, float]:
    # each client cloud is a subset of its global class cloud, so the symmetric
    # distance is the one directed from the global cloud to the client cloud;
    # every cloud is checked once, not once per distance it is part of
    checked = {cls: _as_points(pts) for cls, pts in global_clouds.items()}
    to_global = {key: _directed(checked[key[1]], _as_points(pts)) for key, pts in per.items()}
    return to_global, float(np.mean(list(to_global.values()))) if to_global else 0.0


def mean_to_global(params: nn.Parameters, spec: nn.NetworkSpec, shards) -> float:
    """``manifold_report(...)["mean_to_global"]`` without the fragmentation."""
    return _to_global(*class_manifolds(params, spec, shards))[1]


def manifold_report(params: nn.Parameters, spec: nn.NetworkSpec, shards) -> dict:
    """Hausdorff distance of each (client, class) embedding cloud to its global
    class cloud (``to_global``) and their mean, plus per-class fragmentation:
    the mean pairwise distance between client clouds, a diagnostic that the
    round loop does not compute."""
    per, global_clouds = class_manifolds(params, spec, shards)
    to_global, mean = _to_global(per, global_clouds)
    fragmentation = {}
    clients = sorted({cid for cid, _ in per})
    for cls in sorted(global_clouds):
        pairs = []
        for i, ci in enumerate(clients):
            for cj in clients[i + 1:]:
                if (ci, cls) in per and (cj, cls) in per:
                    pairs.append(hausdorff_distance(per[(ci, cls)], per[(cj, cls)]))
        fragmentation[cls] = float(np.mean(pairs)) if pairs else 0.0
    return {"to_global": to_global, "fragmentation": fragmentation, "mean_to_global": mean}


def pca_project_2d(cloud) -> np.ndarray:
    """Project onto the top-2 principal components with a fixed sign convention
    (the largest-magnitude coordinate of each component is made positive)."""
    pts = _as_points(cloud)
    n, d = pts.shape
    if n < 2:
        raise ValueError("PCA needs at least 2 points")
    if d < 2:
        raise ValueError("PCA projection needs dimension >= 2")
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    components = eigvecs[:, np.argsort(eigvals)[::-1][:2]]
    for j in range(2):
        pivot = np.argmax(np.abs(components[:, j]))
        if components[pivot, j] < 0:
            components[:, j] = -components[:, j]
    return centered @ components
