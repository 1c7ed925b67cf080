"""Manifold diagnostics: Hausdorff distances over embedding point clouds,
per-client per-class manifold extraction with each client cloud's distance to
its global class cloud (the round loop's ``hausdorff_mean``), and 2-D PCA
export."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn

_UNIT = 2.0 ** -53                          # float64 unit roundoff
_TINY = float(np.finfo(np.float64).tiny)    # smallest normal float64
# Below about this many (row, point) pairs, one product over every pair costs
# no more than the probe pass and its extra calls (measured on 64-d clouds).
DENSE_PAIRS = 1 << 16


@dataclass
class PointCloud:
    points: np.ndarray
    label: int | None = None
    client_id: int | None = None


def _as_points(cloud) -> np.ndarray:
    pts = np.asarray(cloud.points if isinstance(cloud, PointCloud) else cloud, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("point cloud must be a nonempty (n, d) array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point cloud contains non-finite values")
    return pts


def directed_distance(a, b) -> float:
    """Exact directed Hausdorff distance: the largest distance from a point of
    ``a`` to its nearest point of ``b``, bit for bit as scipy's
    ``directed_hausdorff`` returns it (see ``_directed_many``)."""
    pa, pb = _as_points(a), _as_points(b)
    if pa.shape[1] != pb.shape[1]:
        raise ValueError(f"dimension mismatch {pa.shape[1]} vs {pb.shape[1]}")
    return float(_directed_many(pa, pb, [len(pb)])[0])


def hausdorff_distance(a, b) -> float:
    """Exact symmetric Hausdorff distance (max of both directed distances)."""
    return max(directed_distance(a, b), directed_distance(b, a))


def _exact_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distance of paired rows, ``sum_k (a_k - b_k)**2`` added in
    ``k`` order, as scipy's loop adds it."""
    diff = a - b
    diff *= diff
    return np.add.accumulate(diff, axis=1)[:, -1]


def _spread(starts: np.ndarray, sizes: np.ndarray, k: int) -> np.ndarray:
    """(clouds, k) row indices, ``k`` evenly spread over each cloud; a cloud
    of fewer than ``k`` rows repeats some, which leaves every minimum alone."""
    return (starts[:, None] + np.arange(k) * sizes[:, None] // k).ravel()


def _products(b: np.ndarray, nb: np.ndarray, clouds: int, a2: np.ndarray) -> np.ndarray:
    """``q[c, i, r] = |b_j|^2 - 2 b_j.a_r`` for the i-th row ``j`` of cloud
    ``c``, where ``b`` holds ``clouds`` blocks of equal size and ``a2 = -2a``."""
    q = b @ a2.T
    q += nb[:, None]
    return q.reshape(clouds, -1, len(a2))


def _directed_many(a: np.ndarray, b: np.ndarray, sizes) -> np.ndarray:
    """Directed Hausdorff distance from ``a`` to each cloud of ``b``, whose
    consecutive blocks of ``sizes`` rows are the clouds.

    Bit rule: each distance is ``sqrt(max_r min_j s(a_r, b_j))`` with ``s``
    from ``_exact_sq``. Min, max and sqrt round once or not at all, so the
    result is scipy's ``directed_hausdorff``, whose early break only skips
    pairs that cannot change the max-min, to the last bit.

    Only the pairs that may decide a distance are summed that way; the others
    are ruled out by an estimate from one matrix product, ``e = |a_r|^2 + q``
    with ``q = |b_j|^2 - 2 b_j.a_r``. With ``u = 2^-53``, the norms and the
    product, summed in any order and with or without FMA, are within
    ``d u (|a| + |b|)^2`` of the exact ``|a - b|^2``, scipy's ``s`` is within
    ``(d + 2) u (|a| + |b|)^2`` of it, and the two adds that form ``e`` round
    once each, so ``|e - s| <= (2d + 4) u (|a| + |b|)^2 <= (4d + 9) u N`` to
    first order in ``du``, where ``N`` is the largest squared norm of ``a``
    plus that of ``b``. The slack ``8 (d + 4) u N`` is over twice that, which
    also covers the rounding of the comparisons below, and ``tiny`` covers
    products that round below the normal range. So a row whose estimated
    minimum is more than two slacks under the largest estimate cannot hold
    the max, and a pair whose ``q`` is more than two slacks over its row's
    least ``q`` cannot be the row's nearest point. All else is summed.

    A row's minimum over a few probe rows of a cloud bounds its minimum over
    the whole cloud from above. So when there are more than ``DENSE_PAIRS``
    pairs, a first pass over ``isqrt(size)`` evenly spread probes per cloud
    keeps only the rows that may reach the exact minimum of each cloud's most
    likely row. When ``4N`` is not finite the product formula could overflow,
    so every pair is summed and no row is dropped."""
    sizes = np.asarray(sizes)
    starts = np.cumsum(sizes) - sizes
    m, most = len(sizes), int(sizes.max())
    na = np.einsum("ij,ij->i", a, a)
    nb = na if b is a else np.einsum("ij,ij->i", b, b)
    scale = float(na.max()) + float(nb.max())
    if not math.isfinite(4 * scale):
        with np.errstate(over="ignore"):        # inf, as scipy returns it
            return np.sqrt(np.max([np.minimum.reduceat(_exact_sq(row, b), starts)
                                   for row in a], axis=0))
    slack = 8 * (a.shape[1] + 4) * _UNIT * scale + _TINY
    a2 = -2.0 * a
    bf, nbf = b, nb                         # the clouds as blocks of ``most`` rows
    if m * most != len(b):
        full = _spread(starts, sizes, most)
        bf, nbf = b[full], nb[full]
    if len(a) * m * most > DENSE_PAIRS:
        probe = _spread(starts, sizes, math.isqrt(most))
        est = _products(b[probe], nb[probe], m, a2).min(axis=1) + na
        top = np.unique(np.argmax(est, axis=1))
        floor = (_products(bf, nbf, m, a2[top]).min(axis=1) + na[top]).max(axis=1, keepdims=True)
        keep = np.flatnonzero((est >= floor - 2 * slack).any(axis=0))
        a, a2, na = a[keep], a2[keep], na[keep]
    q = _products(bf, nbf, m, a2)
    qmin = q.min(axis=1)
    est = qmin + na
    rows = est >= est.max(axis=1, keepdims=True) - 2 * slack
    # the pairs left: row r, padded row j of cloud c = j // most
    j, r = np.divmod(np.flatnonzero(q <= np.where(rows, qmin + 2 * slack, -np.inf)[:, None, :]),
                     len(a))
    best = np.where(rows, np.inf, -np.inf)
    np.minimum.at(best, (j // most, r), _exact_sq(a[r], bf[j]))
    return np.sqrt(best.max(axis=1))


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
    # class_manifolds stacks a class's client clouds in ``per``'s order, so
    # the global cloud is also the block of its client clouds
    dist = {}
    for cls, pts in global_clouds.items():
        g = _as_points(pts)
        keys = [key for key in per if key[1] == cls]
        dist.update(zip(keys, _directed_many(g, g, [len(per[key]) for key in keys]).tolist()))
    to_global = {key: dist[key] for key in per}
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
