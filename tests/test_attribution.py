"""Tests of the seed-sweep tool, ``tools/attribution.py``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fedmp.config import load_config
from fedmp.data import generate_federation
from fedmp.federation import run_federation, run_few_shot
from test_acceptance import BENCHMARK

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
import attribution  # noqa: E402


def test_sweeps_the_gates_config():
    assert attribution.gate_config() == BENCHMARK


# the gate's values as a config file, the other keys at their defaults
GATE_FILE = """\
input_dim = 16
classes = 3
clients = 3
samples_per_client = 96
skew_strength = 2.0
noise_std = 0.1
hidden_extractor = 64
hidden_classifier = 32, 16
rounds = 30
local_epochs = 4
batch_size = 64
learning_rate = 3e-3
weight_decay = 6e-3
sample_count = 96
stage_epochs = 30, 30, 5
"""


def test_a_config_file_of_the_gates_values_sweeps_as_the_default(tmp_path, capsys):
    path = tmp_path / "gate.cfg"
    path.write_text(GATE_FILE)
    assert load_config(path) == BENCHMARK
    assert attribution.main(["--config", str(path), "--seeds", "3", "--rounds", "2"]) == 0
    # the JSON floats round-trip, so equal lines are equal bits
    assert capsys.readouterr().out == json.dumps(
        attribution.sweep(attribution.gate_config(), [3], 2)) + "\n"


def test_sweeps_the_files_values(tmp_path, capsys):
    """On seed 0, the file's own dataset seed, FedAvg and few-shot are the
    runs ``fedmp run`` makes of the file, for the file's rounds."""
    path = tmp_path / "small.cfg"
    path.write_text("input_dim = 6\nclients = 2\nsamples_per_client = 12\nrounds = 2\n"
                    "hidden_extractor = 8\nhidden_classifier = 6\nsample_count = 8\n"
                    "learning_rate = 0.001\ntrack_geometry = false\nstage_epochs = 1, 2, 1\n")
    assert attribution.main(["--config", str(path), "--seeds", "0"]) == 0
    result = json.loads(capsys.readouterr().out)
    config = load_config(path)
    spec, (shards, test) = config.network_spec(), generate_federation(config.dataset_spec())
    fedavg = run_federation(config.federation_config(0, mode="fedavg"), shards, spec, test)
    few = run_few_shot(config.federation_config(0, mode="fewshot"), shards, spec, test,
                       stage_epochs=config.stage_epochs)
    assert result["rounds"] == 2
    assert result["accuracy"]["fedavg"] == [fedavg.metrics[-1]["global_test_accuracy"]]
    assert result["accuracy"]["fewshot"] == [few.ensemble_accuracy]


@pytest.mark.parametrize("text, env, message", [
    ("input_dim = 16\nbogus = 1\n", {}, "{path}: line 2: unknown key 'bogus'"),
    ("rounds = 2\n", {"FEDMP_ROUNDS": "0"}, "env FEDMP_ROUNDS: rounds: "),
], ids=["bad line", "bad env value"])
def test_a_bad_config_fails_at_load(tmp_path, text, env, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    proc = subprocess.run([sys.executable, str(TOOLS / "attribution.py"), "--config", str(path)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, **env})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: " + message.format(path=path))
    assert "Traceback" not in proc.stderr


def test_paired_mean_and_standard_error():
    assert attribution.paired([0.25]) == {"mean": 0.25, "se": None}
    out = attribution.paired([0.1, 0.3, 0.5])
    assert out["mean"] == pytest.approx(0.3) and out["se"] == pytest.approx(0.2 / 3 ** 0.5)


def test_one_seed_two_rounds_prints_one_json_line():
    proc = subprocess.run([sys.executable, str(TOOLS / "attribution.py"),
                           "--seeds", "3", "--rounds", "2"],
                          capture_output=True, text=True, timeout=120, check=True)
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert result["seeds"] == [3] and result["rounds"] == 2
    accuracy = result["accuracy"]
    assert list(accuracy) == ["fedavg", "fedmp", "sfmc", "cpgma", "fewshot"]
    assert all(len(accs) == 1 and 0 < accs[0] <= 1 for accs in accuracy.values())
    assert result["mean"] == {name: accs[0] for name, accs in accuracy.items()}
    assert result["vs_fedavg"] == {
        name: {"mean": accs[0] - accuracy["fedavg"][0], "se": None}
        for name, accs in accuracy.items() if name != "fedavg"}


def test_bad_seed_range_is_rejected():
    proc = subprocess.run([sys.executable, str(TOOLS / "attribution.py"), "--seeds", "5-2"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "not a seed range" in proc.stderr
