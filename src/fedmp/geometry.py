"""Manifold diagnostics: Hausdorff distances over embedding point clouds,
per-client per-class manifold extraction, an empirical harness for the
"closer manifold trains a closer classifier" claim, and 2-D PCA export."""

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


def collection_distance(clouds_a: dict, clouds_b: dict) -> float:
    """Mean over shared classes of the per-class Hausdorff distance."""
    classes = sorted(set(clouds_a) & set(clouds_b))
    if not classes:
        raise ValueError("no shared classes between cloud collections")
    return float(np.mean([hausdorff_distance(clouds_a[c], clouds_b[c]) for c in classes]))


def _train_classifier_on_clouds(clouds: dict, num_classes: int, dim: int,
                                seed: int, steps: int, learning_rate: float) -> nn.Parameters:
    # small fixed head trained with full-batch Adam
    head = nn.NetworkSpec(
        layers=(nn.affine(dim, 16), nn.relu(), nn.affine(16, num_classes)),
        split_index=2, num_classes=num_classes,
    )
    params = nn.init_params(head, seed)
    state = nn.AdamState(learning_rate=learning_rate, weight_decay=0.0)
    x = np.concatenate([clouds[c] for c in sorted(clouds)], axis=0)
    y = np.concatenate([np.full(len(clouds[c]), c, dtype=np.int64) for c in sorted(clouds)])
    for _ in range(steps):
        logits, cache = nn.forward_full(params, head, x)
        _, grad = nn.softmax_cross_entropy(logits, y)
        grads, _ = nn.backward(params, head, cache, grad, input_grad=False)
        nn.adam_step(params, grads, state)
    return params, head, (x, y)


def lemma1_harness(global_clouds: dict, near_clouds: dict, far_clouds: dict,
                   num_classes: int, seeds=(0, 1, 2), steps: int = 200,
                   learning_rate: float = 0.01) -> dict:
    """Train identical classifiers on the global / near / far clouds and check
    that the near-trained one generalizes at least as well as the far-trained
    one on the global cloud, by majority vote over seeds."""
    dim = next(iter(global_clouds.values())).shape[1]
    d_near = collection_distance(near_clouds, global_clouds)
    d_far = collection_distance(far_clouds, global_clouds)
    if not d_near < d_far:
        raise ValueError(
            f"precondition violated: d_H(near, global)={d_near:.6g} "
            f">= d_H(far, global)={d_far:.6g}"
        )
    trials = []
    for seed in seeds:
        trained = {}
        for name, clouds in (("global", global_clouds), ("near", near_clouds), ("far", far_clouds)):
            params, head, _ = _train_classifier_on_clouds(
                clouds, num_classes, dim, seed, steps, learning_rate
            )
            trained[name] = (params, head)
        gx = np.concatenate([global_clouds[c] for c in sorted(global_clouds)], axis=0)
        gy = np.concatenate(
            [np.full(len(global_clouds[c]), c, dtype=np.int64) for c in sorted(global_clouds)]
        )
        accs = {}
        for name, (params, head) in trained.items():
            logits, _ = nn.forward_full(params, head, gx)
            accs[name] = float((logits.argmax(axis=1) == gy).mean())
        ref_vec = trained["global"][0].vec
        dist = {
            name: float(np.linalg.norm(p.vec - ref_vec))
            for name, (p, _) in trained.items()
        }
        trials.append({"seed": seed, "accuracy": accs, "param_distance": dist,
                       "near_wins": accs["near"] >= accs["far"]})
    wins = sum(t["near_wins"] for t in trials)
    return {
        "d_near": d_near,
        "d_far": d_far,
        "trials": trials,
        "wins": wins,
        "passed": wins >= min(len(trials), 2) if len(trials) > 1 else wins == 1,
    }


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
