"""End-to-end checks of the command-line driver on tiny configurations."""

import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_env_overrides_apply_without_a_config_file(tmp_path, monkeypatch):
    for key, value in {"ROUNDS": "1", "CLIENTS": "2", "SAMPLES_PER_CLIENT": "12",
                       "SEEDS": "5", "TRACK_GEOMETRY": "false"}.items():
        monkeypatch.setenv("FEDMP_" + key, value)
    out = tmp_path / "run"
    assert run_cli("run", "--mode", "fedavg", "--out", str(out)) == 0
    echo = json.loads((out / "manifest.json").read_text())["config"]
    assert (echo["rounds"], echo["clients"], echo["seeds"]) == (1, 2, [5])
    assert [p.name for p in out.glob("metrics_seed*")] == ["metrics_seed5.jsonl"]


def test_bad_env_value_fails_without_a_config_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FEDMP_ROUNDS", "0")
    assert run_cli("run", "--mode", "fedavg", "--out", str(tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert "env FEDMP_ROUNDS: rounds:" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("mode, where", [("fedmp", "round 1"), ("fewshot", "few-shot stage 1")])
def test_diverging_run_names_round_client_and_phase(tmp_path, capsys, mode, where):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL.replace("learning_rate = 0.001", "learning_rate = 1e300")
                    .replace("seeds = 0, 1", "seeds = 0"))
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("run", "--config", str(path), "--mode", mode, "--out", str(tmp_path / "run"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}, client 0, local training, epoch ")
    assert "non-finite" in err and "Traceback" not in err


def test_exploding_embeddings_fail_at_the_upload_with_warnings_as_errors(tmp_path):
    """The 1e6 learning-rate probe (mode fedmp, seed 0, 5 rounds, the
    default network and data): its losses stay finite, but round 1's
    embeddings outgrow float16. The upload's encoder rejects them, and the
    error names the round, the client and the phase, also when every
    warning is an error, so no NumPy overflow warning comes first."""
    path = tmp_path / "probe.cfg"
    path.write_text("learning_rate = 1e6\nrounds = 5\nseeds = 0\n")
    src = str(Path(cli.__file__).resolve().parent.parent)
    path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "fedmp.cli", "run",
                           "--config", str(path), "--mode", "fedmp",
                           "--out", str(tmp_path / "run")],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path_var))
    assert proc.returncode == 1
    assert proc.stderr == ("error: round 1, client 0, upload: feature embeddings hold a value "
                           "that is not finite as float16\n")


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


class TestGenerate:
    def test_writes_shards_and_manifest(self, cfg_path, tmp_path):
        out = tmp_path / "data"
        assert run_cli("generate", "--config", str(cfg_path), "--out", str(out)) == 0
        assert (out / "shard_0.csv").exists()
        assert (out / "shard_1.csv").exists()
        assert (out / "global_test.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == {"shard_0.csv", "shard_1.csv", "global_test.csv"}

    def test_csv_round_trip(self, cfg_path, tmp_path):
        out = tmp_path / "data"
        assert run_cli("generate", "--config", str(cfg_path), "--out", str(out)) == 0
        shards, global_test = generate_federation(load_config(cfg_path).dataset_spec())
        # 17 significant digits round-trip every float64 exactly
        for name, shard in (("shard_0.csv", shards[0]), ("global_test.csv", global_test)):
            loaded = np.loadtxt(out / name, delimiter=",", ndmin=2)
            assert np.array_equal(loaded[:, :-1], shard.inputs)
            assert np.array_equal(loaded[:, -1].astype(np.int64), shard.labels)

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

    def test_fedmp_with_both_modules_off_writes_fedavgs_files(self, cfg_path, tmp_path):
        off = tmp_path / "off.cfg"
        off.write_text(SMALL + "mode = fedmp\nenable_sfmc = false\nenable_cpgma = false\n")
        assert run_cli("run", "--config", str(off), "--seed", "0",
                       "--out", str(tmp_path / "off")) == 0
        assert run_cli("run", "--config", str(cfg_path), "--mode", "fedavg", "--seed", "0",
                       "--out", str(tmp_path / "fedavg")) == 0
        names = ["metrics_seed0.jsonl", "ledger_seed0.csv", "model_server_seed0.bin",
                 *sorted(p.name for p in (tmp_path / "fedavg").glob("pca_*.csv"))]
        assert len(names) > 3
        for name in names:
            assert (tmp_path / "off" / name).read_bytes() == \
                (tmp_path / "fedavg" / name).read_bytes(), name

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

    def test_ledger_csv_export(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--config", str(cfg_path), "--seed", "0", "--out", str(out)) == 0

        config = load_config(cfg_path)
        shards, global_test = generate_federation(config.dataset_spec())
        expected = run_federation(config.federation_config(0), shards, config.network_spec(),
                                  global_test)

        with open(out / "ledger_seed0.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "direction", "kind", "bytes", "client_id"]
        assert rows[1:] == [[str(v) for v in dataclasses.astuple(entry)]
                            for entry in expected.ledger.entries]
        assert {row[2] for row in rows[1:]} == {"model", "features", "prototypes"}

    def test_single_mode_emits_client_models(self, cfg_path, tmp_path):
        out = tmp_path / "single"
        assert run_cli("run", "--config", str(cfg_path), "--mode", "single",
                       "--seed", "0", "--out", str(out)) == 0
        assert (out / "model_client_0_seed0.bin").exists()
        assert (out / "model_client_1_seed0.bin").exists()

    def test_manifest_hashes_match_files(self, cfg_path, tmp_path):
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


class TestAttack:
    def test_requires_run_artifacts(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "empty"
        out.mkdir()
        assert run_cli("attack", "--config", str(cfg_path), "--out", str(out)) == 1
        assert f"no report.json in {out}" in capsys.readouterr().err
        assert run_cli("attack", "--config", str(cfg_path), "--seed", "0",
                       "--out", str(out)) == 1
        assert "missing run artifacts" in capsys.readouterr().err

    def test_attacks_the_seeds_the_run_wrote(self, cfg_path, tmp_path):
        # the file lists seeds 0 and 1; the run wrote seed 5 only
        out = tmp_path / "run"
        run_cli("run", "--config", str(cfg_path), "--seed", "5", "--out", str(out))
        assert run_cli("attack", "--config", str(cfg_path), "--out", str(out)) == 0
        with open(out / "leakage.csv") as fh:
            assert [row["seed"] for row in csv.DictReader(fh)] == ["5"]

    def test_attack_layer_outside_network(self, tmp_path, capsys):
        # SMALL's network has 5 layers
        path = tmp_path / "deep.cfg"
        path.write_text(SMALL.replace("attack_layers = 1", "attack_layers = 9"))
        assert run_cli("attack", "--config", str(path), "--out", str(tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert "deep.cfg: line 16: attack_layers: layer 9 outside 1..5" in err
        assert "Traceback" not in err

    def test_held_out_part_of_one_row_is_named(self, tmp_path, capsys):
        # 10 rows at 0.9 leave 1 held out, whose covariance is not defined
        path = tmp_path / "tiny.cfg"
        path.write_text(SMALL.replace("samples_per_client = 12", "samples_per_client = 10")
                        + "attack_train_fraction = 0.9\n")
        out = tmp_path / "run"
        assert run_cli("run", "--config", str(path), "--seed", "0", "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli("attack", "--config", str(path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == ("error: client 0: 10 rows at train_fraction 0.9 leave 9 to train the "
                       "decoder and 1 held out; the attack needs at least 1 and 2\n")
        assert not (out / "leakage.csv").exists()

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

    def test_manifest_lists_the_leakage_file(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        run_cli("run", "--config", str(cfg_path), "--seed", "5", "--out", str(out))
        run_config = json.loads((out / "manifest.json").read_text())["config"]
        longer = tmp_path / "longer.cfg"
        longer.write_text(SMALL.replace("attack_epochs = 2", "attack_epochs = 3"))
        assert run_cli("attack", "--config", str(longer), "--seed", "5", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # the config block stays the run's; every artifact is listed, with its hash
        assert manifest["config"] == run_config and run_config["attack_epochs"] == 2
        assert set(manifest["files"]) == {p.name for p in out.iterdir()} - {"manifest.json"}
        assert "leakage.csv" in manifest["files"]
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


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

    def test_traffic_of_the_seeds_the_run_wrote(self, cfg_path, tmp_path, capsys):
        # the file lists seeds 0 and 1; the run wrote seed 5 only
        out = tmp_path / "run"
        run_cli("run", "--config", str(cfg_path), "--seed", "5", "--out", str(out))
        capsys.readouterr()
        assert run_cli("report", "--config", str(cfg_path), "--out", str(out)) == 0
        with open(out / "ledger_seed5.csv") as fh:
            total = sum(int(row["bytes"]) for row in csv.DictReader(fh))
        lines = capsys.readouterr().out.splitlines()
        assert "  seed 5: accuracy" in "\n".join(lines)
        assert [line for line in lines if "traffic" in line] == [
            f"  seed 5: total traffic {total} bytes"]

    def test_traffic_by_direction_and_kind(self, cfg_path, tmp_path, capsys):
        # fedmp sends every kind down and models and features up
        out = tmp_path / "run"
        run_cli("run", "--config", str(cfg_path), "--seed", "1", "--out", str(out))
        capsys.readouterr()
        assert run_cli("report", "--config", str(cfg_path), "--out", str(out)) == 0
        with open(out / "ledger_seed1.csv") as fh:
            rows = list(csv.DictReader(fh))
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("  seed 1: total traffic "
                            f"{sum(int(row['bytes']) for row in rows)} bytes")
        want = []
        for direction, kinds in (("up", ("model", "features")),
                                 ("down", ("model", "features", "prototypes"))):
            for kind in kinds:
                sent = sum(int(row["bytes"]) for row in rows
                           if (row["direction"], row["kind"]) == (direction, kind))
                assert sent > 0
                want.append(f"    {direction} {kind}: {sent} bytes")
        assert lines[start + 1:] == want
        # a row is a u16 label and 8 float16 values: uploads are 2 x 12 rows a round
        assert want[1] == f"    up features: {2 * 2 * (8 + 12 * (2 + 2 * 8))} bytes"


class TestErrors:
    def test_unknown_mode_names_the_choices(self, cfg_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--config", str(cfg_path), "--mode", "bogus")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert all(repr(mode) in err for mode in MODES)

    def test_ablate_is_not_a_command(self, cfg_path, capsys):
        # the module ablation is tools/attribution.py
        with pytest.raises(SystemExit) as exc:
            run_cli("ablate", "--config", str(cfg_path))
        assert exc.value.code == 2
        assert "invalid choice: 'ablate'" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert run_cli("run", "--config", str(tmp_path / "nope.cfg")) == 1

    @pytest.mark.parametrize("where", ["out is a file", "out under a file", "config is a dir"])
    def test_file_system_error_prints_an_error(self, cfg_path, tmp_path, capsys, where):
        afile = tmp_path / "afile"
        afile.write_text("")
        config, out = {
            "out is a file": (cfg_path, afile),
            "out under a file": (cfg_path, afile / "x"),
            "config is a dir": (tmp_path, tmp_path / "run"),
        }[where]
        assert run_cli("run", "--config", str(config), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_bad_config_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("not_a_key = 1\n")
        assert run_cli("run", "--config", str(path)) == 1
