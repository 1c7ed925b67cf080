"""Feature-inversion attack and leakage metrics.

Closed forms used as oracles: constant-image SSIM, the 1-D Gaussian Frechet
distance, the RMS distance, and a least-squares bound for a rank-deficient
encoder.
"""

import numpy as np
import pytest

from fedmp import nn, privacy
from fedmp.data import ClientShard
from fedmp.privacy import (
    AttackConfig,
    attack_report,
    frechet_distance,
    intercepted_features,
    is_risk,
    l2_distance,
    mirror_decoder_spec,
    ssim,
    train_decoder,
    unit_normalizer,
)

from helpers import params_equal


def reconstruction_mse(dec_params, dec_spec, z, x) -> float:
    out, _ = nn.forward_full(dec_params, dec_spec, z)
    return float(np.mean((out - x) ** 2))


class TestSsim:
    def test_identical_is_one(self):
        x = np.random.default_rng(0).uniform(size=(4, 4))
        assert ssim(x, x) == pytest.approx(1.0)

    def test_constant_images_closed_form(self):
        # x == a, y == b: variance terms vanish, SSIM = (2ab+C1)/(a^2+b^2+C1)
        a, b, L = 0.8, 0.3, 1.0
        c1 = (0.01 * L) ** 2
        expected = (2 * a * b + c1) / (a**2 + b**2 + c1)
        got = ssim(np.full((3, 3), a), np.full((3, 3), b), dynamic_range=L)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_one_vs_zero_constant(self):
        # a=1, b=0, L=1 -> C1/(1+C1) = 1e-4/(1+1e-4)
        got = ssim(np.ones(5), np.zeros(5), dynamic_range=1.0)
        assert got == pytest.approx(1e-4 / (1 + 1e-4), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        x, y = rng.uniform(size=8), rng.uniform(size=8)
        assert ssim(x, y) == pytest.approx(ssim(y, x), abs=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros(3), np.zeros(4))


class TestL2Distance:
    def test_identical_zero_and_risky(self):
        x = np.random.default_rng(2).uniform(size=6)
        assert l2_distance(x, x) == 0.0
        assert is_risk(0.0)

    def test_ones_vs_zeros(self):
        assert l2_distance(np.ones(7), np.zeros(7)) == pytest.approx(1.0)
        assert not is_risk(1.0)

    def test_hand_example(self):
        # x=[1,0], y=[0,0] -> sqrt(1/2)
        assert l2_distance(np.array([1.0, 0.0]), np.zeros(2)) == pytest.approx(
            np.sqrt(0.5), abs=1e-12
        )

    def test_threshold_boundary(self):
        assert not is_risk(privacy.L2_RISK_THRESHOLD)
        assert is_risk(privacy.L2_RISK_THRESHOLD - 1e-9)


class TestFrechet:
    def test_identical_clouds_zero(self):
        pts = np.random.default_rng(3).normal(size=(50, 4))
        assert frechet_distance(pts, pts.copy()) == pytest.approx(0.0, abs=1e-6)

    def test_1d_mean_shift(self):
        # mu 0 vs 1, sigma 1 vs 1 -> (mu1-mu2)^2 + (s1-s2)^2 = 1
        rng = np.random.default_rng(4)
        base = rng.normal(size=(4000, 1))
        base = (base - base.mean()) / base.std(ddof=1)
        assert frechet_distance(base, base + 1.0) == pytest.approx(1.0, abs=1e-3)

    def test_1d_scale_gap(self):
        # mu equal, sigma 1 vs 2 -> (1-2)^2 = 1
        rng = np.random.default_rng(5)
        base = rng.normal(size=(4000, 1))
        base = (base - base.mean()) / base.std(ddof=1)
        assert frechet_distance(base, 2.0 * base) == pytest.approx(1.0, abs=1e-3)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(60, 3)), 2.0 + rng.normal(size=(70, 3))
        assert frechet_distance(a, b) == pytest.approx(frechet_distance(b, a), rel=1e-9)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            frechet_distance(np.zeros((5, 2)), np.zeros((5, 3)))


def make_shard(n=40, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    return ClientShard(
        client_id=0,
        inputs=rng.uniform(size=(n, dim)),
        labels=rng.integers(0, 3, size=n),
    )


class TestDecoder:
    def identity_network(self, dim):
        # attacked at layer 1, the first affine layer's output, before its ReLU
        spec = nn.NetworkSpec((dim, dim, dim), split_index=2)
        values = {}
        for idx in (0, 2):
            values[(idx, "W")] = np.eye(dim)
            values[(idx, "b")] = np.zeros(dim)
        return nn.Parameters(values), spec

    def test_mirror_spec_widths(self):
        spec = nn.mlp_spec(16, (64, 32), (16,), 3)
        dec = mirror_decoder_spec(spec, spec.split_index)
        assert dec.widths == (32, 64, 16)     # embedding width in, input dim out
        assert dec.split_index is None
        # an odd split, after an affine layer and before its ReLU, reads the same widths
        assert mirror_decoder_spec(spec, 3) == dec
        assert mirror_decoder_spec(spec, 1).widths == (64, 16)

    def test_zero_epochs_is_initialization(self):
        params, spec = self.identity_network(4)
        shard = make_shard(dim=4)
        cfg = AttackConfig(split_index=1, epochs=0, seed=3)
        dec_params, dec_spec = train_decoder(params, spec, shard, cfg)
        fresh = nn.init_params(dec_spec, cfg.seed)
        assert params_equal(dec_params, fresh)

    def test_identity_encoder_recovered(self):
        # invertible case: a linear decoder can reach ~zero training MSE
        params, spec = self.identity_network(3)
        shard = make_shard(n=60, dim=3, seed=7)
        cfg = AttackConfig(split_index=1, epochs=300, learning_rate=3e-2, seed=0)
        dec_params, dec_spec = train_decoder(params, spec, shard, cfg)
        n_train = int(len(shard) * cfg.train_fraction)
        z = intercepted_features(params, spec, shard.inputs[:n_train], 1)
        assert reconstruction_mse(dec_params, dec_spec, z, shard.inputs[:n_train]) < 1e-3

    def test_encoder_untouched(self):
        params, spec = self.identity_network(4)
        before = params.copy()
        train_decoder(params, spec, make_shard(dim=4), AttackConfig(split_index=1, epochs=5))
        assert params_equal(params, before)

    def test_rank_deficient_floor(self):
        # encoder projects 2-d inputs to their first coordinate; no decoder can
        # recover the second coordinate better than predicting its mean.
        enc_spec = nn.NetworkSpec((2, 1, 2), split_index=2)
        enc = nn.Parameters({
            (0, "W"): np.array([[1.0], [0.0]]),
            (0, "b"): np.zeros(1),
            (2, "W"): np.zeros((1, 2)),
            (2, "b"): np.zeros(2),
        })
        rng = np.random.default_rng(11)
        inputs = rng.normal(size=(80, 2))
        shard = ClientShard(client_id=0, inputs=inputs, labels=np.zeros(80, dtype=np.int64))
        cfg = AttackConfig(split_index=1, epochs=400, learning_rate=2e-2, seed=1)
        dec_params, dec_spec = train_decoder(enc, enc_spec, shard, cfg)
        n_train = int(80 * cfg.train_fraction)
        x_train = inputs[:n_train]
        z = intercepted_features(enc, enc_spec, x_train, 1)
        mse = reconstruction_mse(dec_params, dec_spec, z, x_train)
        # least-squares oracle: best achievable = residual variance of the
        # regression of x onto [z, 1], averaged over both coordinates
        design = np.hstack([z, np.ones((n_train, 1))])
        coef, *_ = np.linalg.lstsq(design, x_train, rcond=None)
        floor = float(np.mean((design @ coef - x_train) ** 2))
        assert mse >= floor - 1e-9

    def test_degenerate_shard_rejected(self):
        params, spec = self.identity_network(2)
        tiny = ClientShard(client_id=0, inputs=np.zeros((1, 2)), labels=np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError):
            train_decoder(params, spec, tiny, AttackConfig(split_index=1))

    def test_negative_learning_rate_rejected(self):
        # the decoder would climb its loss and report no risk
        with pytest.raises(ValueError, match=r"^learning_rate must be >= 0, got -0.01$"):
            AttackConfig(split_index=1, learning_rate=-0.01)
        assert AttackConfig(split_index=1, learning_rate=0.0).learning_rate == 0.0

    def test_train_fraction_validated(self):
        with pytest.raises(ValueError):
            AttackConfig(split_index=1, train_fraction=0.0)
        with pytest.raises(ValueError):
            AttackConfig(split_index=1, train_fraction=1.0)


class TestAttackReport:
    def test_report_rows_match_configs(self):
        spec = nn.mlp_spec(6, (8,), (5,), 3)
        params = nn.init_params(spec, 0)
        shards = [make_shard(n=24, dim=6, seed=s) for s in range(2)]
        configs = [AttackConfig(split_index=i, epochs=2, seed=0) for i in (1, 2)]
        reports = attack_report(params, spec, shards, configs)
        assert [r.split_index for r in reports] == [1, 2]
        for rep in reports:
            assert -1.0 <= rep.max_ssim <= 1.0
            assert rep.min_l2 >= 0.0

    @pytest.mark.parametrize("split", [0, 6])
    def test_split_outside_network_rejected(self, split):
        spec = nn.mlp_spec(6, (8,), (5,), 3)         # 5 layers
        shards = [make_shard(n=24, dim=6)]
        configs = [AttackConfig(split_index=1, epochs=2), AttackConfig(split_index=split)]
        with pytest.raises(ValueError, match=rf"split_index {split} outside 1\.\.5"):
            attack_report(nn.init_params(spec, 0), spec, shards, configs)

    @pytest.mark.parametrize("n, fraction", [(10, 0.9), (4, 0.75), (2, 0.5), (1, 0.5)])
    def test_held_out_part_under_two_rows_rejected_before_training(self, n, fraction,
                                                                   monkeypatch):
        """The Frechet distance needs the covariance of the held-out rows,
        which one row does not have; it used to fail in ``eigh`` after the
        decoders of the clients before had trained."""
        spec = nn.mlp_spec(6, (8,), (5,), 3)
        small = make_shard(n=n, dim=6, seed=1)
        shards = [make_shard(n=24, dim=6), ClientShard(1, small.inputs, small.labels)]

        def no_training(*args):
            raise AssertionError("a decoder trained before every split was checked")

        monkeypatch.setattr(privacy, "train_decoder", no_training)
        n_train = int(n * fraction)
        message = (rf"^client 1: {n} rows at train_fraction {fraction} leave {n_train} to "
                   rf"train the decoder and {n - n_train} held out; the attack needs at "
                   rf"least 1 and 2$")
        with pytest.raises(ValueError, match=message):
            attack_report(nn.init_params(spec, 0), spec, shards,
                          [AttackConfig(split_index=1, epochs=2, train_fraction=fraction)])

    def test_two_held_out_rows_are_enough(self):
        spec = nn.mlp_spec(6, (8,), (5,), 3)
        shards = [make_shard(n=12, dim=6)]          # 10 train the decoder, 2 held out
        (report,) = attack_report(nn.init_params(spec, 0), spec, shards,
                                  [AttackConfig(split_index=1, epochs=2, train_fraction=0.9)])
        assert np.isfinite(report.frechet)

    def test_perfect_reconstruction_flags_risk(self):
        # feed originals through a normalizer as their own "reconstruction"
        shard = make_shard(n=10, dim=4, seed=2)
        normalize = unit_normalizer([shard])
        x = normalize(shard.inputs[0])
        assert ssim(x, x) == pytest.approx(1.0)
        assert l2_distance(x, x) == 0.0
        assert is_risk(l2_distance(x, x))

    def test_unit_normalizer_range(self):
        shards = [make_shard(seed=s) for s in range(3)]
        normalize = unit_normalizer(shards)
        for s in shards:
            out = normalize(s.inputs)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_deterministic_given_seed(self):
        spec = nn.mlp_spec(5, (6,), (4,), 2)
        params = nn.init_params(spec, 1)
        shards = [make_shard(n=20, dim=5, seed=4)]
        cfgs = [AttackConfig(split_index=1, epochs=3, seed=9)]
        a = attack_report(params, spec, shards, cfgs)
        b = attack_report(params, spec, shards, cfgs)
        assert a[0].max_ssim == b[0].max_ssim
        assert a[0].frechet == b[0].frechet
