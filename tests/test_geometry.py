"""Hausdorff distance, manifold extraction, the near/far classifier harness,
and the PCA export. Brute-force oracles are inlined next to the assertions;
scipy, a test dependency only, is the reference for the NumPy kernel."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, directed_hausdorff

from fedmp import geometry, nn
from fedmp.data import ClientShard, DatasetSpec, generate_federation
from fedmp.geometry import (
    PointCloud,
    class_manifolds,
    hausdorff_distance,
    manifold_report,
    pca_project_2d,
)

from helpers import traced_peak


def brute_hausdorff(a, b):
    """Independent O(n*m) oracle using explicit loops."""
    def directed(p, q):
        worst = 0.0
        for x in p:
            best = min(float(np.linalg.norm(x - y)) for y in q)
            worst = max(worst, best)
        return worst

    return max(directed(a, b), directed(b, a))


class TestHausdorff:
    def test_identical_clouds_zero(self):
        pts = np.random.default_rng(0).normal(size=(7, 3))
        assert hausdorff_distance(pts, pts.copy()) == 0.0

    def test_line_example(self):
        # A={0}, B={0,1} on the line -> 1
        a = np.array([[0.0]])
        b = np.array([[0.0], [1.0]])
        assert hausdorff_distance(a, b) == pytest.approx(1.0)

    def test_planar_example(self):
        # A={(0,0),(1,0)}, B={(0,1)} -> max(sqrt(2), 1) = sqrt(2)
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert hausdorff_distance(a, b) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.normal(size=(rng.integers(1, 10), 3))
            b = rng.normal(size=(rng.integers(1, 10), 3))
            assert hausdorff_distance(a, b) == pytest.approx(
                brute_hausdorff(a, b), abs=1e-12
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hausdorff_distance(np.zeros((0, 2)), np.zeros((1, 2)))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hausdorff_distance(np.zeros((1, 2)), np.zeros((1, 3)))

    def test_accepts_pointcloud_wrapper(self):
        a = PointCloud(points=np.array([[0.0, 0.0]]))
        b = PointCloud(points=np.array([[3.0, 4.0]]))
        assert hausdorff_distance(a, b) == pytest.approx(5.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    na=st.integers(1, 8),
    nb=st.integers(1, 8),
    nc=st.integers(1, 8),
)
def test_hausdorff_axioms(seed, na, nb, nc):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(na, 2))
    b = rng.normal(size=(nb, 2))
    c = rng.normal(size=(nc, 2))
    assert hausdorff_distance(a, a) == 0.0
    assert hausdorff_distance(a, b) == hausdorff_distance(b, a)
    assert (
        hausdorff_distance(a, c)
        <= hausdorff_distance(a, b) + hausdorff_distance(b, c) + 1e-12
    )


def cdist_hausdorff(a, b):
    """All-pairs reference: the full distance matrix, then both min-max."""
    dm = cdist(a, b)
    return float(max(dm.min(axis=1).max(), dm.min(axis=0).max()))


def kernel_directed(a, b):
    """The kernel's directed distance from ``a`` to ``b``, one to-cloud."""
    return float(geometry._directed_many(a, b, [len(b)])[0])


def random_cloud(rng, n, dim, grid):
    pts = rng.normal(size=(n, dim)) * rng.uniform(0.1, 10.0)
    # a coarse grid makes ties and duplicate points likely
    return np.round(pts) if grid else pts


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    na=st.integers(1, 40),
    nb=st.integers(1, 40),
    dim=st.integers(1, 64),
    grid=st.booleans(),
)
def test_hausdorff_equals_cdist_reference(seed, na, nb, dim, grid):
    rng = np.random.default_rng(seed)
    a, b = random_cloud(rng, na, dim, grid), random_cloud(rng, nb, dim, grid)
    assert hausdorff_distance(a, b) == cdist_hausdorff(a, b)
    assert kernel_directed(a, b) == float(cdist(a, b).min(axis=1).max())


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    na=st.integers(1, 40),
    nb=st.integers(1, 40),
    dim=st.integers(1, 64),
    grid=st.booleans(),
)
def test_directed_distance_ignores_row_order(seed, na, nb, dim, grid):
    """The max-min is exact whatever order the rows come in, and taking it
    leaves ``np.random``'s global state alone."""
    rng = np.random.default_rng(seed)
    a, b = random_cloud(rng, na, dim, grid), random_cloud(rng, nb, dim, grid)
    before = np.random.get_state()
    got = kernel_directed(a, b)
    after = np.random.get_state()
    assert before[0] == after[0] and np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]
    assert got == float(cdist(a, b).min(axis=1).max())
    assert kernel_directed(a[rng.permutation(na)], b) == got
    assert kernel_directed(a, b[rng.permutation(nb)]) == got


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 40),
    extra=st.integers(0, 40),
    dim=st.integers(1, 64),
    grid=st.booleans(),
)
def test_subset_distance_is_directed_from_superset(seed, n, extra, dim, grid):
    """For A within B, d_H(A, B) is the distance directed from B to A."""
    rng = np.random.default_rng(seed)
    b = random_cloud(rng, n + extra, dim, grid)
    a = b[np.sort(rng.choice(n + extra, size=n, replace=False))]
    assert kernel_directed(a, b) == 0.0
    assert hausdorff_distance(a, b) == kernel_directed(b, a) == cdist_hausdorff(a, b)


# The NumPy kernel against the scipy loop it replaced, compared on raw bytes.
# Each cloud set is one from-cloud and several to-clouds stacked in one array.


@st.composite
def cloud_sets(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dim = draw(st.sampled_from([1, 2, 3, 16, 64]))
    sizes = draw(st.lists(st.integers(1, 24), min_size=1, max_size=4))
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["normal", "grid", "far", "huge", "one_huge", "superset"]))
    b = rng.normal(size=(sum(sizes), dim)) * rng.uniform(0.1, 10.0)
    a = rng.normal(size=(n, dim)) * rng.uniform(0.1, 10.0)
    if kind in ("grid", "superset"):
        # a coarse grid makes duplicate rows and exactly tied distances likely
        a, b = np.round(a), np.round(b)
    if kind == "superset":
        a = np.concatenate([a, b])[rng.permutation(n + len(b))]
    elif kind == "far":
        # far from the origin, where |a|^2 + |b|^2 - 2a.b cancels; at 1e8 its
        # rounding is as large as the distances, and only the exact sums rank them
        shift = rng.normal(size=dim) * draw(st.sampled_from([1e3, 1e8]))
        a, b = a + shift, b + shift
    elif kind == "huge":
        # squares past float64's range: scipy's sums overflow to inf
        a, b = a * 1e154, b * -1e154
    elif kind == "one_huge":
        a[rng.integers(n)] *= 1e200
    return a, b, sizes


def scipy_directed(a, b, sizes) -> np.ndarray:
    ends = np.cumsum(sizes)
    return np.array([directed_hausdorff(a, b[end - size:end])[0]
                     for size, end in zip(sizes, ends)])


def same_bits(x, y) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# an overflow gives inf silently, as in scipy; only RuntimeWarning is an error,
# so a failure report (hypothesis imports libcst, which warns on import) is
# still printed
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(clouds=cloud_sets(), probe=st.booleans(), one_row_blocks=st.booleans())
@example(clouds=(np.zeros((1, 1)), np.zeros((1, 1)), [1]), probe=False, one_row_blocks=False)
@example(clouds=(np.array([[0.0], [1e200]]), np.array([[-1e200], [1.0]]), [1, 1]), probe=True,
         one_row_blocks=False)
@example(clouds=(np.array([[0.0], [2.0], [4.0]]), np.array([[1.0], [3.0], [5.0]]), [3]),
         probe=True, one_row_blocks=False)
@example(clouds=(np.array([[0.0], [2.0], [4.0]]), np.array([[1.0], [3.0], [5.0]]), [3]),
         probe=True, one_row_blocks=True)
def test_kernel_matches_scipy_bit_for_bit(clouds, probe, one_row_blocks):
    """Every distance is scipy's to the last bit, on the dense path and with
    the probe pass forced, and one call over several clouds equals one call
    per cloud. Ties, one-row clouds, ``d = 1``, cancellation far from the
    origin and sums that overflow to inf are all drawn. With the smallest
    block budget each product covers one query row, so the floor rises block
    by block."""
    a, b, sizes = clouds
    want = scipy_directed(a, b, sizes)
    with mock.patch.object(geometry, "DENSE_PAIRS", 0 if probe else geometry.DENSE_PAIRS), \
            mock.patch.object(geometry, "BLOCK_PAIRS", 1 if one_row_blocks else geometry.BLOCK_PAIRS):
        got = geometry._directed_many(a, b, sizes)
        ends = np.cumsum(sizes)
        each = np.concatenate([geometry._directed_many(a, b[end - size:end], [size])
                               for size, end in zip(sizes, ends)])
    assert same_bits(got, want)
    assert same_bits(each, want)


def test_kernel_probe_pass_on_real_sizes():
    """A from-cloud of 600 rows to four clouds of 150 takes the probe pass
    unforced, and still gives scipy's bits."""
    rng = np.random.default_rng(11)
    b = np.maximum(rng.normal(size=(600, 16)) @ rng.normal(size=(16, 64)), 0.0)
    sizes = [150] * 4
    assert len(b) * len(sizes) * max(sizes) > geometry.DENSE_PAIRS
    assert same_bits(geometry._directed_many(b, b, sizes), scipy_directed(b, b, sizes))


def trained_like_class_cloud(seed):
    """One class's global cloud shaped as an M round builds it: 20 client
    clouds of 150-184 ReLU embeddings (64-d, about 3,340 rows in all), each
    client's rows clustered round its own shifted center, so that the probe
    pass leaves each cloud a few candidate rows, as on a trained model."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(150, 185, size=20).tolist()
    weights, center = rng.normal(size=(16, 64)), rng.normal(size=16)
    parts = [np.maximum((center + 0.5 * rng.normal(size=16)
                         + 0.3 * rng.normal(size=(size, 16))) @ weights, 0.0) for size in sizes]
    return np.concatenate(parts), sizes


def spy_settle(monkeypatch) -> list:
    """(clouds, rows, points) of every ``geometry._settle`` call."""
    calls, settle = [], geometry._settle

    def spy(a, na, b, nb, sizes, rows, floor, slack):
        calls.append((len(sizes), len(rows), len(b)))
        return settle(a, na, b, nb, sizes, rows, floor, slack)

    monkeypatch.setattr(geometry, "_settle", spy)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_per_cloud_pass_matches_scipy_on_a_trained_like_cloud(monkeypatch, seed):
    """Above ``DENSE_PAIRS``, each client cloud settles its candidate rows
    against its own points alone, in blocks of at most two rows here, and
    every distance is still scipy's to the last bit."""
    g, sizes = trained_like_class_cloud(seed)
    assert len(g) * len(sizes) * max(sizes) > geometry.DENSE_PAIRS
    monkeypatch.setattr(geometry, "BLOCK_PAIRS", 2 * max(sizes))
    calls = spy_settle(monkeypatch)
    got = geometry._directed_many(g, g, sizes)
    assert same_bits(got, scipy_directed(g, g, sizes))
    # the floor: a few top rows against every cloud; then one call per cloud
    (clouds, top, points), *per_cloud = calls
    assert (clouds, points) == (len(sizes), len(g)) and 1 <= top <= len(sizes)
    assert [(c, b) for c, _, b in per_cloud] == [(1, size) for size in sizes]
    rows = [r for _, r, _ in per_cloud]
    assert sum(r > 2 for r in rows) >= len(sizes) // 2       # several blocks
    assert sum(rows) < len(g) * len(sizes) // 20                # few candidates


def test_gate_sized_clouds_take_one_product(monkeypatch):
    """The acceptance gate's class clouds (3 clients x 96 rows) are under
    ``DENSE_PAIRS``: each class is one product of all its rows against all
    its client clouds, with no probe pass."""
    shards, _ = generate_federation(DatasetSpec(
        input_dim=16, num_classes=3, samples_per_client=96, num_clients=3,
        skew_strength=2.0, noise_std=0.1, seed=0))
    spec = nn.mlp_spec(16, (64,), (32, 16), 3)
    calls = spy_settle(monkeypatch)
    manifold_report(nn.init_params(spec, 0), spec, shards)
    sizes = [size for _, size in geometry._class_sizes(shards)]
    assert calls == [(3, size, size) for size in sizes]
    assert all(size * 3 * size <= geometry.DENSE_PAIRS for size in sizes)


def scale_m_federation():
    """The acceptance network at scale M: 20 clients x 500 rows, 3 classes."""
    rng = np.random.default_rng(0)
    shards = [ClientShard(c, rng.normal(size=(500, 16)), rng.integers(0, 3, size=500))
              for c in range(20)]
    spec = nn.mlp_spec(16, (64,), (32, 16), 3)
    return nn.init_params(spec, 0), spec, shards


def test_manifold_report_memory_is_the_clouds_plus_one_block():
    """At scale M ``class_manifolds`` holds the class clouds, built one
    shard's embeddings at a time. The geometry phase holds one class's cloud
    at a time: the largest, one shard's embeddings while it is built, then the
    probe pass's (clouds, rows) estimates and one block: its product, the
    per-pair thresholds and the pair mask, under three blocks of float64
    together (3.6 MB in all). Holding every class cloud at once peaked at
    7.0 MB, 2.9 MB over this bound; the unblocked kernel also held a 240 x
    3,340 probe product, a padded copy of each global cloud and a copy of
    every client cloud."""
    block = 512 << 10                       # the most one product may hold
    assert geometry.BLOCK_PAIRS * 8 <= block
    params, spec, shards = scale_m_federation()
    per, global_clouds = class_manifolds(params, spec, shards)
    clouds = sum(cloud.nbytes for cloud in global_clouds.values())
    largest = max(cloud.nbytes for cloud in global_clouds.values())
    shard = max(len(s) for s in shards) * spec.embedding_dim * 8
    estimates = max(len(cloud) for cloud in global_clouds.values()) * len(shards) * 8
    del per, global_clouds
    assert traced_peak(lambda: class_manifolds(params, spec, shards)) < clouds + 2 * block
    assert traced_peak(lambda: manifold_report(params, spec, shards)) \
        < largest + shard + estimates + 3 * block


def test_accumulate_adds_left_to_right():
    """The kernel's exact sums rely on ``np.add.accumulate`` along axis 1
    adding each row's terms in column order, as a Python loop over floats
    does, and not pairwise as ``np.sum`` does."""
    rng = np.random.default_rng(5)
    terms = rng.normal(size=(400, 64)) ** 2 * 10.0 ** rng.uniform(-8, 8, size=(400, 64))
    for width in (1, 2, 7, 64):
        x = np.ascontiguousarray(terms[:, :width])
        loop = []
        for row in x.tolist():
            total = row[0]
            for value in row[1:]:
                total += value
            loop.append(total)
        assert same_bits(np.add.accumulate(x, axis=1)[:, -1], np.array(loop))
    # the rows are ones where the order of addition shows in the bits
    assert not same_bits(terms.sum(axis=1), np.add.accumulate(terms, axis=1)[:, -1])


def test_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, fedmp; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 10), extra=st.integers(1, 6))
def test_monotone_completion(seed, n, extra):
    """A subset's distance to the whole never beats a superset's: for
    A within A~ within G, d_H(A~, G) <= d_H(A, G)."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n + extra + 2, 3))
    a = g[:n]
    a_tilde = g[: n + extra]
    assert hausdorff_distance(a_tilde, g) <= hausdorff_distance(a, g) + 1e-12


def toy_federation(num_clients=2, n=12, k=3, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    shards = [
        ClientShard(
            client_id=i,
            inputs=rng.normal(size=(n, dim)),
            labels=(np.arange(n) % k).astype(np.int64),
        )
        for i in range(num_clients)
    ]
    spec = nn.mlp_spec(dim, (5,), (), k)
    params = nn.init_params(spec, seed)
    return params, spec, shards


class TestClassManifolds:
    def test_single_client_global_equals_local(self):
        params, spec, shards = toy_federation(num_clients=1)
        per, global_clouds = class_manifolds(params, spec, shards)
        for cls, cloud in global_clouds.items():
            assert np.array_equal(cloud, per[(0, cls)])

    def test_union_counts(self):
        params, spec, shards = toy_federation(num_clients=2)
        per, global_clouds = class_manifolds(params, spec, shards)
        for cls, cloud in global_clouds.items():
            assert len(cloud) == len(per[(0, cls)]) + len(per[(1, cls)])

    def test_client_clouds_are_views_in_shard_order(self):
        """Each client cloud is a view of its class's global cloud, and the
        views tile the global cloud in shard order, with no gap or overlap."""
        params, spec, shards = toy_federation(num_clients=4, n=13, seed=2)
        shards = [shards[i] for i in (2, 0, 3, 1)]
        per, global_clouds = class_manifolds(params, spec, shards)
        for cls, cloud in global_clouds.items():
            row = 0
            for shard in shards:
                part = per[(shard.client_id, cls)]
                assert np.shares_memory(part, cloud)
                assert part.ctypes.data == cloud[row:].ctypes.data
                u, _ = nn.forward_extractor(params, spec, shard.inputs)
                assert same_bits(part, u[shard.labels == cls])
                row += len(part)
            assert row == len(cloud)

    def test_union_bounded_by_worst_pair(self):
        # M_i is a subset of the global cloud, so d_H(M_i, global) is the
        # farthest global point's distance to M_i, which some single client
        # owns: d_H(M_i, global) <= max_j d_H(M_i, M_j).
        params, spec, shards = toy_federation(num_clients=3, seed=5)
        per, global_clouds = class_manifolds(params, spec, shards)
        for (cid, cls), cloud in per.items():
            to_global = hausdorff_distance(cloud, global_clouds[cls])
            worst_pair = max(
                hausdorff_distance(cloud, per[(other, cls)])
                for other in range(3)
                if other != cid
            )
            assert to_global <= worst_pair + 1e-12


class TestManifoldReport:
    def test_identical_clouds_all_zero(self):
        params, spec, shards = toy_federation(num_clients=1)
        twin = ClientShard(
            client_id=1, inputs=shards[0].inputs.copy(), labels=shards[0].labels.copy()
        )
        report = manifold_report(params, spec, [shards[0], twin])
        assert all(v == 0.0 for v in report["to_global"].values())
        assert report["mean_to_global"] == 0.0

    def test_to_global_matches_cdist_reference(self):
        params, spec, shards = toy_federation(num_clients=3, seed=5)
        per, global_clouds = class_manifolds(params, spec, shards)
        report = manifold_report(params, spec, shards)
        assert report["to_global"] == {
            key: cdist_hausdorff(cloud, global_clouds[key[1]]) for key, cloud in per.items()
        }
        # the mean runs in ``class_manifolds``' key order
        assert list(report["to_global"]) == list(per)
        assert report["mean_to_global"] == float(np.mean(list(report["to_global"].values())))

    @pytest.mark.parametrize("client", [0, 2])
    def test_non_finite_embedding_rejected(self, client):
        params, spec, shards = toy_federation(num_clients=3, seed=5)
        shards[client].inputs[1, 0] = np.inf      # so that row embeds as inf
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            manifold_report(params, spec, shards)

    def test_pure_function_of_inputs(self):
        params, spec, shards = toy_federation(num_clients=2, seed=9)
        a = manifold_report(params, spec, shards)
        b = manifold_report(params, spec, shards)
        assert a == b


# The empirical harness for the claim that a manifold closer to the global
# one trains a closer classifier. It runs only here, so it lives here.


def collection_distance(clouds_a: dict, clouds_b: dict) -> float:
    """Mean over shared classes of the per-class Hausdorff distance."""
    classes = sorted(set(clouds_a) & set(clouds_b))
    if not classes:
        raise ValueError("no shared classes between cloud collections")
    return float(np.mean([hausdorff_distance(clouds_a[c], clouds_b[c]) for c in classes]))


def _train_classifier_on_clouds(clouds: dict, num_classes: int, dim: int,
                                seed: int, steps: int, learning_rate: float) -> tuple:
    # small fixed head trained with full-batch Adam
    head = nn.NetworkSpec((dim, 16, num_classes))
    params = nn.init_params(head, seed)
    state = nn.AdamState(learning_rate=learning_rate, weight_decay=0.0)
    x = np.concatenate([clouds[c] for c in sorted(clouds)], axis=0)
    y = np.concatenate([np.full(len(clouds[c]), c, dtype=np.int64) for c in sorted(clouds)])
    for _ in range(steps):
        logits, cache = nn.forward_full(params, head, x)
        _, grad = nn.softmax_cross_entropy(logits, y)
        nn.adam_step(params, nn.backward(params, head, cache, grad), state)
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


class TestLemma1Harness:
    def make_clouds(self, seed=0):
        rng = np.random.default_rng(seed)
        centers = np.array([[4.0, 0.0, 0.0], [-4.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        global_clouds = {
            c: centers[c] + rng.normal(size=(40, 3)) for c in range(3)
        }
        near = {c: np.concatenate([pts[:10], pts[20:30]]) for c, pts in global_clouds.items()}
        far = {c: pts[:4] for c, pts in global_clouds.items()}
        return global_clouds, near, far

    def test_precondition_enforced(self):
        global_clouds, near, far = self.make_clouds()
        with pytest.raises(ValueError, match="precondition"):
            lemma1_harness(global_clouds, far, near, num_classes=3, steps=0)

    def test_zero_steps_identical_classifiers(self):
        global_clouds, near, far = self.make_clouds()
        report = lemma1_harness(global_clouds, near, far, num_classes=3, steps=0)
        for trial in report["trials"]:
            assert trial["param_distance"]["near"] == 0.0
            assert trial["param_distance"]["far"] == 0.0
            accs = trial["accuracy"]
            assert accs["near"] == accs["far"] == accs["global"]

    def test_near_equals_global_ties(self):
        global_clouds, _, far = self.make_clouds(seed=3)
        # shrink "near" very slightly so the strict precondition holds while the
        # training set is essentially the global cloud
        near = {c: pts[:-1] for c, pts in global_clouds.items()}
        report = lemma1_harness(global_clouds, near, far, num_classes=3, steps=50)
        assert report["d_near"] < report["d_far"]
        assert report["passed"]

    def test_collection_distance_requires_shared_classes(self):
        with pytest.raises(ValueError):
            collection_distance({0: np.zeros((1, 2))}, {1: np.zeros((1, 2))})


class TestPca:
    def test_planar_cloud_exact_recovery(self):
        rng = np.random.default_rng(1)
        coords = rng.normal(size=(20, 2))
        basis = np.linalg.qr(rng.normal(size=(5, 2)))[0]
        cloud = coords @ basis.T + 3.0
        proj = pca_project_2d(cloud)
        from scipy.spatial.distance import pdist

        assert np.allclose(pdist(proj), pdist(coords), atol=1e-9)

    def test_collinear_second_component_zero(self):
        t = np.linspace(0, 1, 15)[:, None]
        cloud = t * np.array([[1.0, 2.0, -1.0]])
        proj = pca_project_2d(cloud)
        assert proj[:, 1].var() < 1e-18

    def test_reconstruction_error_is_trailing_eigenvalue_mass(self):
        rng = np.random.default_rng(4)
        cloud = rng.normal(size=(50, 3)) * np.array([3.0, 1.0, 0.3])
        centered = cloud - cloud.mean(axis=0)
        cov = centered.T @ centered / (len(cloud) - 1)
        eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        proj = pca_project_2d(cloud)
        residual_var = (centered**2).sum() / (len(cloud) - 1) - (proj**2).sum() / (
            len(cloud) - 1
        )
        assert residual_var == pytest.approx(eigvals[2:].sum(), abs=1e-9)

    def test_small_inputs_rejected(self):
        with pytest.raises(ValueError):
            pca_project_2d(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            pca_project_2d(np.zeros((5, 1)))

    def test_deterministic_sign(self):
        rng = np.random.default_rng(8)
        cloud = rng.normal(size=(30, 4))
        assert np.array_equal(pca_project_2d(cloud), pca_project_2d(cloud.copy()))
