"""Smoke test of the per-kernel test runner, ``tools/kernel_matrix.py``."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "kernel_matrix.py"
TARGET = "tests/test_kernels.py::test_forward_output_is_the_last_relu_entry"


def run(*argv):
    # a few seconds on a 2-core host; the timeout only guards against a hang
    return subprocess.run([sys.executable, str(SCRIPT), *argv],
                          capture_output=True, text=True, timeout=120)


def test_one_target_under_a_non_default_kernel(monkeypatch):
    # Prescott runs on any x86-64 CPU, and OpenBLAS reports it as Katmai;
    # one line at the default thread count, then one at one thread, and a
    # count set by the caller does not leak into the default run
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    proc = run("--kernels", "Prescott", TARGET)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    default, one = proc.stdout.splitlines()
    threads = default.split(", threads ")[1].split(")")[0]
    assert default.startswith(f"Prescott (Katmai, threads {threads}): pass: 1 passed")
    assert int(threads) > 1 or len(os.sched_getaffinity(0)) == 1
    assert one.startswith("Prescott (Katmai, threads 1): pass: 1 passed")


def test_a_failing_kernel_fails_the_run():
    proc = run("--kernels", "Prescott", "tests/test_kernels.py::no_such_test")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("Prescott (Katmai, ") and ": FAIL: " in line for line in lines)
