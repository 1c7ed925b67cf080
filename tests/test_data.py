"""Synthetic federation generation and shard merging."""

import numpy as np
import pytest

from fedmp.data import (
    DatasetSpec,
    _client_transform,
    generate_federation,
    merge_shards,
)


def spec(**kw):
    base = dict(
        input_dim=8,
        num_classes=3,
        samples_per_client=30,
        num_clients=3,
        skew_strength=0.0,
        noise_std=0.1,
        seed=0,
    )
    base.update(kw)
    return DatasetSpec(**base)


class TestDatasetSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            spec(num_classes=1)
        with pytest.raises(ValueError):
            spec(samples_per_client=2)  # < num_classes
        with pytest.raises(ValueError):
            spec(skew_strength=-1.0)
        with pytest.raises(ValueError):
            spec(noise_std=-0.1)
        with pytest.raises(ValueError):
            spec(num_clients=0)


class TestGenerateFederation:
    def test_shapes_and_labels(self):
        shards, global_test = generate_federation(spec())
        assert len(shards) == 3
        for shard in shards:
            assert shard.inputs.shape == (30, 8)
            assert set(np.unique(shard.labels)) == {0, 1, 2}
        assert len(global_test) == 3 * 30

    def test_label_balance_within_one(self):
        shards, _ = generate_federation(spec(samples_per_client=31))
        for shard in shards:
            counts = np.bincount(shard.labels, minlength=3)
            assert counts.max() - counts.min() <= 1

    def test_iid_control_class_means_agree(self):
        # skew_strength=0: all clients sample the identical distribution, so
        # empirical class means agree within sampling error.
        shards, _ = generate_federation(spec(samples_per_client=400))
        for cls in range(3):
            means = [s.inputs[s.labels == cls].mean(axis=0) for s in shards]
            for m in means[1:]:
                assert np.linalg.norm(m - means[0]) < 0.5

    def test_iid_pooled_indistinguishable(self):
        # N=1 vs N=2 pooled under zero skew: same generating distribution.
        one, _ = generate_federation(spec(num_clients=1, samples_per_client=600))
        two, _ = generate_federation(spec(num_clients=2, samples_per_client=300))
        pooled = merge_shards(two)
        for cls in range(3):
            a = one[0].inputs[one[0].labels == cls]
            b = pooled.inputs[pooled.labels == cls]
            assert np.linalg.norm(a.mean(axis=0) - b.mean(axis=0)) < 0.6
            assert abs(a.std() - b.std()) < 0.2

    def test_skew_separates_client_class_means(self):
        # skew_strength=2 vs 0 at the same seed: cross-client distance between
        # per-class means strictly grows.
        kw = dict(num_classes=3, num_clients=3, input_dim=8, seed=7,
                  samples_per_client=120)

        def mean_dist(strength):
            shards, _ = generate_federation(spec(skew_strength=strength, **kw))
            total = 0.0
            for cls in range(3):
                ms = [s.inputs[s.labels == cls].mean(axis=0) for s in shards]
                for i in range(len(ms)):
                    for j in range(i + 1, len(ms)):
                        total += np.linalg.norm(ms[i] - ms[j])
            return total

        assert mean_dist(2.0) > mean_dist(0.0)

    def test_bitwise_reproducible(self):
        a, ta = generate_federation(spec(skew_strength=2.0, seed=5))
        b, tb = generate_federation(spec(skew_strength=2.0, seed=5))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.inputs, sb.inputs)
            assert np.array_equal(sa.labels, sb.labels)
        assert np.array_equal(ta.inputs, tb.inputs)

    def test_transform_invertible(self):
        # each client's transform, drawn first from the stream its shard uses
        s = spec(skew_strength=2.0)
        for cid in range(s.num_clients):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=[s.seed, 1, cid]))
            a, _ = _client_transform(s.input_dim, s.skew_strength, rng)
            assert np.isfinite(np.linalg.cond(a))
            assert np.linalg.cond(a) < 1e6

    def test_global_test_spans_all_clients(self):
        _, global_test = generate_federation(spec(num_clients=4))
        assert len(global_test) == 4 * 30
        assert global_test.client_id == -1


def test_merge_shards_concatenates():
    shards, _ = generate_federation(spec())
    merged = merge_shards(shards, client_id=9)
    assert merged.client_id == 9
    assert len(merged) == sum(len(s) for s in shards)
