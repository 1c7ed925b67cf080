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
# The most (row, point) pairs in one product, whatever the clouds' sizes.
BLOCK_PAIRS = 1 << 16


@dataclass
class PointCloud:
    points: np.ndarray


def _as_points(cloud) -> np.ndarray:
    pts = np.asarray(cloud.points if isinstance(cloud, PointCloud) else cloud, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("point cloud must be a nonempty (n, d) array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point cloud contains non-finite values")
    return pts


def hausdorff_distance(a, b) -> float:
    """Exact symmetric Hausdorff distance: the larger of the two directed
    distances, each the largest distance from a point of one cloud to its
    nearest point of the other, bit for bit as scipy's ``directed_hausdorff``
    returns it (see ``_directed_many``)."""
    pa, pb = _as_points(a), _as_points(b)
    if pa.shape[1] != pb.shape[1]:
        raise ValueError(f"dimension mismatch {pa.shape[1]} vs {pb.shape[1]}")
    return float(max(_directed_many(pa, pb, [len(pb)])[0], _directed_many(pb, pa, [len(pa)])[0]))


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


def _blocks(n: int, per_row: int) -> list:
    """``range(n)`` as slices of at most ``BLOCK_PAIRS // per_row`` (at least one)."""
    step = max(1, BLOCK_PAIRS // per_row)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _settle(a, na, b, nb, sizes, rows, floor, slack) -> np.ndarray:
    """``max_r min_j s(a_r, b_j)`` for each cloud of ``b`` (consecutive
    blocks of ``sizes`` rows) over the rows ``rows`` of ``a`` that may hold
    it, or ``-inf`` where no row can reach the cloud's ``floor``.

    Per block of at most ``BLOCK_PAIRS`` pairs, ``q[r, j] = |b_j|^2 - 2
    a_r.b_j`` and its minimum over each cloud plus ``|a_r|^2`` estimate each
    row's minimum; the block's largest estimate may raise the floor, and the
    pairs that ``_directed_many``'s slack leaves are summed by ``_exact_sq``."""
    starts = np.cumsum(sizes) - sizes
    cloud, best = np.repeat(np.arange(len(sizes)), sizes), np.full(len(sizes), -np.inf)
    for part in _blocks(len(rows), len(b)):
        block = rows[part]
        q = (-2.0 * a[block]) @ b.T
        q += nb
        qmin = np.minimum.reduceat(q, starts, axis=1)
        est = qmin + na[block, None]
        floor = np.maximum(floor, est.max(axis=0))
        live = est >= floor - 2 * slack
        near = np.where(live, qmin + 2 * slack, -np.inf)
        if len(sizes) > 1:                  # one cloud's thresholds broadcast
            near = np.repeat(near, sizes, axis=1)
        # the pairs left: row ``block[r]``, point j of cloud ``cloud[j]``
        r, j = np.divmod(np.flatnonzero(q <= near), len(b))
        least = np.where(live, np.inf, -np.inf)
        np.minimum.at(least, (r, cloud[j]), _exact_sq(a[block[r]], b[j]))
        np.maximum(best, least.max(axis=0), out=best)
    return best


def _directed_many(a: np.ndarray, b: np.ndarray, sizes) -> np.ndarray:
    """Directed Hausdorff distance from ``a`` to each cloud of ``b``, whose
    consecutive blocks of ``sizes`` rows are the clouds.

    Bit rule: each distance is ``sqrt(max_r min_j s(a_r, b_j))`` with ``s``
    from ``_exact_sq``. Min, max and sqrt round once or not at all, so the
    result is scipy's ``directed_hausdorff``, whose early break only skips
    pairs that cannot change the max-min, to the last bit.

    Only the pairs that may decide a distance are summed that way; the others
    are ruled out by an estimate from matrix products, ``e = |a_r|^2 + q``
    with ``q = |b_j|^2 - 2 b_j.a_r``. With ``u = 2^-53``, the norms and the
    product, summed in any order and with or without FMA, are within
    ``d u (|a| + |b|)^2`` of the exact ``|a - b|^2``, scipy's ``s`` is within
    ``(d + 2) u (|a| + |b|)^2`` of it, and the two adds that form ``e`` round
    once each, so ``|e - s| <= (2d + 4) u (|a| + |b|)^2 <= (4d + 9) u N`` to
    first order in ``du``, where ``N`` is the largest squared norm of ``a``
    plus that of ``b``. The slack ``8 (d + 4) u N`` is over twice that, which
    also covers the rounding of the comparisons below, and ``tiny`` covers
    products that round below the normal range. So a row whose estimated
    minimum is more than two slacks under a cloud's floor (any row's
    estimate, or any row's exact minimum) cannot hold that cloud's max, and
    a pair whose ``q`` is more than two slacks over its row's least ``q``
    cannot be the row's nearest point. All else is summed. This holds however
    the products round, so they run over any subset of rows and points, in
    blocks (``_settle``), and each block may raise the floor.

    A row's minimum over a few probe rows of a cloud bounds its minimum over
    the whole cloud from above. So when there are more than ``DENSE_PAIRS``
    pairs, a first pass over ``max(1, isqrt(size) // 2)`` evenly spread
    probes per cloud gives every (row, cloud) an estimate. The rows that
    some cloud's probes rank highest are settled against every cloud, and
    their exact minima set each cloud's floor. Then each cloud settles only
    the rows whose probe estimate for it may reach its floor, multiplied by
    its own points: on trained M clouds, a few dozen of a class's 3,340 rows
    per cloud on average. At or below ``DENSE_PAIRS`` pairs, one product of
    every row against every cloud costs less than a call per cloud. When
    ``4N`` is not finite the product formula could overflow, so every pair
    is summed and no row is dropped."""
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
    none = np.full(m, -np.inf)
    if len(a) * m * most <= DENSE_PAIRS:
        return np.sqrt(_settle(a, na, b, nb, sizes, np.arange(len(a)), none, slack))
    k = max(1, math.isqrt(most) // 2)
    probe = _spread(starts, sizes, k)
    bp, nbp = -2.0 * b[probe], nb[probe, None]
    est = np.empty((m, len(a)))
    for rows in _blocks(len(a), m * k):
        q = bp @ a[rows].T
        q += nbp
        est[:, rows] = q.reshape(m, k, -1).min(axis=1)
    est += na
    top = np.flatnonzero(np.bincount(np.argmax(est, axis=1)))
    floor = _settle(a, na, b, nb, sizes, top, none, slack)
    reach = est >= (floor - 2 * slack)[:, None]
    best = [_settle(a, na, b[lo:lo + n], nb[lo:lo + n], sizes[c:c + 1], np.flatnonzero(reach[c]),
                    floor[c:c + 1], slack) for c, (lo, n) in enumerate(zip(starts, sizes))]
    return np.sqrt(np.concatenate(best))


def _client_keys(shards) -> list:
    """(client_id, class) of every client cloud: shard order, then class order."""
    return [(shard.client_id, cls) for shard in shards
            for cls in np.flatnonzero(np.bincount(shard.labels)).tolist()]


def _class_cloud(params: nn.Parameters, spec: nn.NetworkSpec, shards, cls: int, size: int):
    """The global cloud of class ``cls`` (``size`` rows) and its client clouds.

    Each shard that holds the class is embedded whole, and the class's rows
    are written straight into the cloud, in shard order; embedding only those
    rows would change bits on some BLAS kernels. Returns (cloud, parts) with
    parts[(client_id, cls)] a view of that client's block of the cloud."""
    cloud = np.empty((size, spec.embedding_dim))
    parts, filled = {}, 0
    for shard in shards:
        rows = shard.labels == cls
        count = np.count_nonzero(rows)
        if count:
            u = nn.forward_extractor(params, spec, shard.inputs)[0]
            part = cloud[filled:filled + count]
            parts[(shard.client_id, cls)] = np.compress(rows, u, axis=0, out=part)
            filled += count
            del u           # so the next shard's embeddings can take its place
    return cloud, parts


def _class_sizes(shards) -> list:
    """(class, rows across every shard) for each class some shard holds."""
    totals = np.bincount(np.concatenate([np.zeros(0, np.intp)] + [s.labels for s in shards]))
    return [(cls, int(totals[cls])) for cls in np.flatnonzero(totals).tolist()]


def class_manifolds(params: nn.Parameters, spec: nn.NetworkSpec, shards):
    """Embed every shard with the current extractor, once per class it holds
    (``_class_cloud``).

    Returns (per, global): per[(client_id, class)] in shard order, then class
    order, and global[class] in class order, where the global cloud is the
    multiset union across clients in shard order, sized from the label counts;
    each client cloud is a view of its part of it."""
    per, global_clouds = {}, {}
    for cls, size in _class_sizes(shards):
        global_clouds[cls], parts = _class_cloud(params, spec, shards, cls, size)
        per.update(parts)
    return {key: per[key] for key in _client_keys(shards)}, global_clouds


def _to_global(cloud: np.ndarray, parts: dict) -> dict:
    """Distance of each client cloud in ``parts``, a block of ``cloud`` in
    ``parts``' order, to ``cloud``. Each is a subset of it, so the symmetric
    distance is the one directed from the global cloud."""
    g = _as_points(cloud)
    return dict(zip(parts, _directed_many(g, g, [len(p) for p in parts.values()]).tolist()))


def manifold_report(params: nn.Parameters, spec: nn.NetworkSpec, shards) -> dict:
    """Hausdorff distance of each (client, class) embedding cloud to its global
    class cloud (``to_global``, in ``class_manifolds``' key order) and their
    mean, the round loop's ``hausdorff_mean``. One class's global cloud is held
    at a time: each is built, measured and dropped before the next (every
    shard is embedded once per class it holds)."""
    dist = {}
    for cls, size in _class_sizes(shards):
        dist.update(_to_global(*_class_cloud(params, spec, shards, cls, size)))
    # the key order sets the mean's bits
    to_global = {key: dist[key] for key in _client_keys(shards)}
    mean = float(np.mean(list(to_global.values()))) if to_global else 0.0
    return {"to_global": to_global, "mean_to_global": mean}


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
