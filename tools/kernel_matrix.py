"""Run pytest targets once per OpenBLAS kernel and print one line per kernel.

    python3 tools/kernel_matrix.py [--kernels SkylakeX,Haswell] [pytest targets...]

Run it from the root of a source checkout. Dot products and long reductions
round differently on different OpenBLAS kernels, and the golden digests are
pinned per kernel, so a change that must keep every bit is checked under each
kernel the CPU can run, not only the one OpenBLAS picks for it. Each kernel
gets its own pytest subprocess with ``OPENBLAS_CORETYPE`` set, since OpenBLAS
reads it once when it loads. With no targets the whole suite runs.

Each line names the kernel that was set, the kernel OpenBLAS reports (from
``blas_kernel.py``; ``Prescott`` reports ``Katmai``), ``pass`` or ``FAIL``,
and pytest's summary line. The exit status is 1 if any kernel failed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Prescott")
REPORT = ("import sys; sys.path.insert(0, 'tools'); "
          "from blas_kernel import blas_kernel; print(blas_kernel())")


def _env(kernel: str) -> dict:
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_kernel(kernel: str, targets: list[str]) -> tuple[bool, str]:
    """(passed, line) for ``targets`` run under ``kernel``."""
    env = _env(kernel)
    reported = subprocess.run([sys.executable, "-c", REPORT], cwd=ROOT, env=env,
                              capture_output=True, text=True).stdout.strip() or "?"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *targets], cwd=ROOT, env=env, capture_output=True, text=True)
    summary = (proc.stdout.strip() or proc.stderr.strip() or "no output").splitlines()[-1]
    passed = proc.returncode == 0
    return passed, f"{kernel} ({reported}): {'pass' if passed else 'FAIL'}: {summary}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kernels", default=",".join(KERNELS),
                        help="comma-separated OPENBLAS_CORETYPE values (default: %(default)s)")
    parser.add_argument("targets", nargs="*", help="pytest targets (default: the whole suite)")
    args = parser.parse_args(argv)
    kernels = [k.strip() for k in args.kernels.split(",") if k.strip()]
    if not kernels:
        parser.error("--kernels names no kernel")
    failed = 0
    for kernel in kernels:
        passed, line = run_kernel(kernel, args.targets)
        failed += not passed
        print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
