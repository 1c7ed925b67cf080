"""End-to-end checks of the command-line driver on tiny configurations."""

import csv
import json

import numpy as np
import pytest

from fedmp import cli
from fedmp.cli import main
from fedmp.config import MODES, ExperimentConfig, load_config
from fedmp.data import generate_federation, merge_shards
from fedmp.federation import run_federation
from fedmp.protocol import serialize_model

SMALL = """
input_dim = 6
classes = 3
clients = 2
samples_per_client = 12
rounds = 2
local_epochs = 1
batch_size = 8
hidden_extractor = 8
hidden_classifier = 6
sample_count = 8
learning_rate = 0.001
track_geometry = false
seeds = 0, 1
stage_epochs = 1, 1, 1
attack_layers = 1
attack_epochs = 2
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL)
    return path


def run_cli(*argv):
    return main(list(argv))


def test_run_rejects_u16_overflow(tmp_path, capsys):
    # 65536 classes cannot be packed into a feature blob's u16 label field
    path = tmp_path / "wide.cfg"
    path.write_text("input_dim = 2\nclasses = 65536\nclients = 1\n"
                    "samples_per_client = 65536\nseeds = 0\n")
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert "num_classes must be <= 65535" in err
    assert "Traceback" not in err


@pytest.fixture
def generations(monkeypatch):
    """Counts the federations the CLI generates."""
    calls = []

    def counting(spec):
        calls.append(spec)
        return generate_federation(spec)

    monkeypatch.setattr(cli, "generate_federation", counting)
    return calls


def test_mode_option_rechecks_the_file(tmp_path, capsys, generations):
    # centralized trains one client, so 70000 clients load; fedmp cannot run them
    path = tmp_path / "pooled.cfg"
    path.write_text("mode = centralized\ninput_dim = 2\nclasses = 2\nclients = 70000\n"
                    "samples_per_client = 2\nseeds = 0\n")
    assert load_config(path).clients == 70000
    assert run_cli("run", "--config", str(path), "--mode", "fedmp",
                   "--out", str(tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert f"{path}: line 4: clients: num_clients must be <= 65535, got 70000" in err
    assert "Traceback" not in err
    assert generations == []


@pytest.mark.parametrize("seeds,argv,message", [
    ("1, 1", (), "line 2: seeds: needs distinct non-negative integers, got [1, 1]"),
    ("1", ("--seed", "-1"), "--seed: seeds: needs distinct non-negative integers, got [-1]"),
])
def test_bad_seeds_fail_before_generating(tmp_path, capsys, generations, seeds, argv, message):
    path = tmp_path / "seeds.cfg"
    path.write_text(f"input_dim = 2\nseeds = {seeds}\n")
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "run"), *argv) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert generations == []
    assert not (tmp_path / "run").exists()


def test_run_validates_before_generating(tmp_path, capsys, generations):
    path = tmp_path / "many.cfg"
    path.write_text("input_dim = 2\nclasses = 2\nclients = 65536\n"
                    "samples_per_client = 1\nseeds = 0, 1\n")
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "run")) == 1
    assert "num_clients must be <= 65535" in capsys.readouterr().err
    assert generations == []


def test_run_generates_once_for_all_seeds(cfg_path, tmp_path, generations):
    assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "r")) == 0
    assert len(generations) == 1
    assert sorted(p.name for p in (tmp_path / "r").glob("metrics_seed*")) == [
        "metrics_seed0.jsonl", "metrics_seed1.jsonl"]


def test_ablate_generates_once(cfg_path, tmp_path, generations):
    assert run_cli("ablate", "--config", str(cfg_path), "--out", str(tmp_path / "a")) == 0
    assert len(generations) == 1


class TestGenerate:
    def test_writes_shards_and_manifest(self, cfg_path, tmp_path):
        out = tmp_path / "data"
        assert run_cli("generate", "--config", str(cfg_path), "--out", str(out)) == 0
        assert (out / "shard_0.csv").exists()
        assert (out / "shard_1.csv").exists()
        assert (out / "global_test.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == {"shard_0.csv", "shard_1.csv", "global_test.csv"}

    def test_regeneration_byte_identical(self, cfg_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("generate", "--config", str(cfg_path), "--out", str(out_a))
        run_cli("generate", "--config", str(cfg_path), "--out", str(out_b))
        for name in ("shard_0.csv", "shard_1.csv", "global_test.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestRun:
    def test_fedmp_outputs(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 0
        for seed in (0, 1):
            assert (out / f"metrics_seed{seed}.jsonl").exists()
            assert (out / f"ledger_seed{seed}.csv").exists()
            assert (out / f"model_server_seed{seed}.bin").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["num_seeds"] == 2
        values = list(report["per_seed_accuracy"].values())
        assert report["mean_accuracy"] == pytest.approx(np.mean(values))
        assert report["std_accuracy"] == pytest.approx(np.std(values))

    def test_accuracy_curve_rows(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        run_cli("run", "--config", str(cfg_path), "--out", str(out))
        with open(out / "accuracy_curve.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2  # one per round
        assert set(rows[0]) == {"round", "seed0", "seed1"}

    def test_centralized_matches_pooled_single_client(self, cfg_path, tmp_path):
        out = tmp_path / "central"
        assert run_cli("run", "--config", str(cfg_path), "--mode", "centralized",
                       "--seed", "0", "--out", str(out)) == 0

        config = ExperimentConfig(
            input_dim=6, classes=3, clients=2, samples_per_client=12, rounds=2,
            local_epochs=1, batch_size=8, hidden_extractor=(8,),
            hidden_classifier=(6,), sample_count=8, learning_rate=1e-3,
            track_geometry=False,
        )
        shards, global_test = generate_federation(config.dataset_spec())
        pooled = merge_shards(shards, client_id=0)
        fed = config.federation_config(0, mode="fedavg")
        fed.num_clients = 1
        expected = run_federation(fed, [pooled], config.network_spec(), global_test)

        # the blob stores float32 tensors, so compare in serialized form
        got = (out / "model_server_seed0.bin").read_bytes()
        assert got == serialize_model(expected.params)

    def test_single_mode_emits_client_models(self, cfg_path, tmp_path):
        out = tmp_path / "single"
        assert run_cli("run", "--config", str(cfg_path), "--mode", "single",
                       "--seed", "0", "--out", str(out)) == 0
        assert (out / "model_client_0_seed0.bin").exists()
        assert (out / "model_client_1_seed0.bin").exists()

    def test_manifest_hashes_match_files(self, cfg_path, tmp_path):
        import hashlib
        out = tmp_path / "run"
        run_cli("run", "--config", str(cfg_path), "--seed", "0", "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_rerun_is_deterministic(self, cfg_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("run", "--config", str(cfg_path), "--seed", "0", "--out", str(out_a))
        run_cli("run", "--config", str(cfg_path), "--seed", "0", "--out", str(out_b))
        for name in ("metrics_seed0.jsonl", "ledger_seed0.csv", "model_server_seed0.bin"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestAblate:
    def test_four_rows_and_off_off_matches_fedavg(self, cfg_path, tmp_path):
        out = tmp_path / "abl"
        assert run_cli("ablate", "--config", str(cfg_path), "--seed", "0",
                       "--out", str(out)) == 0
        with open(out / "ablation.csv") as fh:
            rows = {row["variant"]: row for row in csv.DictReader(fh)}
        assert set(rows) == {"off/off", "sfmc-only", "cpgma-only", "both"}

        run_out = tmp_path / "fedavg"
        run_cli("run", "--config", str(cfg_path), "--mode", "fedavg",
                "--seed", "0", "--out", str(run_out))
        report = json.loads((run_out / "report.json").read_text())
        # bitwise: the decimal strings round-trip exactly
        assert float(rows["off/off"]["seed0"]) == report["per_seed_accuracy"]["0"]


class TestAttack:
    def test_requires_run_artifacts(self, cfg_path, tmp_path):
        out = tmp_path / "empty"
        out.mkdir()
        assert run_cli("attack", "--config", str(cfg_path), "--out", str(out)) == 1

    def test_attack_layer_outside_network(self, tmp_path, capsys):
        # SMALL's network has 5 layers
        path = tmp_path / "deep.cfg"
        path.write_text(SMALL.replace("attack_layers = 1", "attack_layers = 9"))
        assert run_cli("attack", "--config", str(path), "--out", str(tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert "deep.cfg: line 16: attack_layers: layer 9 outside 1..5" in err
        assert "Traceback" not in err

    def test_rows_per_seed_and_layer(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        run_cli("run", "--config", str(cfg_path), "--out", str(out))
        assert run_cli("attack", "--config", str(cfg_path), "--out", str(out)) == 0
        with open(out / "leakage.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2  # 2 seeds x 1 attacked layer
        for row in rows:
            assert -1.0 <= float(row["max_ssim"]) <= 1.0
            assert float(row["min_l2"]) >= 0.0


class TestReport:
    def test_missing_report_fails(self, cfg_path, tmp_path):
        out = tmp_path / "none"
        out.mkdir()
        assert run_cli("report", "--config", str(cfg_path), "--out", str(out)) == 1

    def test_prints_summary(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli("run", "--config", str(cfg_path), "--seed", "1", "--out", str(out))
        capsys.readouterr()
        assert run_cli("report", "--config", str(cfg_path), "--seed", "1",
                       "--out", str(out)) == 0
        text = capsys.readouterr().out
        assert "mean" in text and "seed 1" in text


class TestErrors:
    def test_unknown_mode_names_the_choices(self, cfg_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--config", str(cfg_path), "--mode", "bogus")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert all(repr(mode) in err for mode in MODES)

    def test_missing_config_file(self, tmp_path):
        assert run_cli("run", "--config", str(tmp_path / "nope.cfg")) == 1

    def test_bad_config_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("not_a_key = 1\n")
        assert run_cli("run", "--config", str(path)) == 1
