"""Smoke test of the seed-sweep tool, ``tools/attribution.py``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_acceptance import BENCHMARK

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
import attribution  # noqa: E402


def test_sweeps_the_gates_config():
    assert attribution.gate_config() == BENCHMARK


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
