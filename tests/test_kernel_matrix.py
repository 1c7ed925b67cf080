"""Smoke test of the per-kernel test runner, ``tools/kernel_matrix.py``."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "kernel_matrix.py"
TARGET = "tests/test_kernels.py::test_forward_output_is_the_last_relu_entry"


def run(*argv):
    # a few seconds on a 2-core host; the timeout only guards against a hang
    return subprocess.run([sys.executable, str(SCRIPT), *argv],
                          capture_output=True, text=True, timeout=120)


def test_one_target_under_a_non_default_kernel():
    # Prescott runs on any x86-64 CPU, and OpenBLAS reports it as Katmai
    proc = run("--kernels", "Prescott", TARGET)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    [line] = proc.stdout.splitlines()
    assert line.startswith("Prescott (Katmai): pass: 1 passed")


def test_a_failing_kernel_fails_the_run():
    proc = run("--kernels", "Prescott", "tests/test_kernels.py::no_such_test")
    assert proc.returncode == 1
    [line] = proc.stdout.splitlines()
    assert line.startswith("Prescott (Katmai): FAIL: ")
