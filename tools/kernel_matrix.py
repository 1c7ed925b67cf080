"""Run pytest targets once per OpenBLAS kernel and thread count, and print
one line per run.

    python3 tools/kernel_matrix.py [--kernels SkylakeX,Haswell] [pytest targets...]

Run it from the root of a source checkout. Dot products and long reductions
round differently on different OpenBLAS kernels, and the golden digests are
pinned per kernel, so a change that must keep every bit is checked under each
kernel the CPU can run, not only the one OpenBLAS picks for it. OpenBLAS may
also split a large product at a row that depends on its thread count, so
each kernel runs twice: at the host's default count, and at one thread
(``OPENBLAS_NUM_THREADS=1``), as ``perfbench`` runs it. Each run is its own
pytest subprocess with ``OPENBLAS_CORETYPE`` set, since OpenBLAS reads both
variables once when it loads. With no targets the whole suite runs.

Each line names the kernel that was set, the kernel and thread count
OpenBLAS reports (from ``blas_kernel.py`` and ``perfbench/run.py``'s
``blas_threads``; ``Prescott`` reports ``Katmai``), ``pass`` or ``FAIL``,
and pytest's summary line. The exit status is 1 if any run failed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Prescott")
THREADS = (None, "1")          # the host's default count, then perfbench's
REPORT = ("import sys; sys.path[:0] = ['tools', 'perfbench']; "
          "from blas_kernel import blas_kernel; from run import blas_threads; "
          "print(blas_kernel(), blas_threads())")


def _env(kernel: str, threads: str | None) -> dict:
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    if threads is None:
        env.pop("OPENBLAS_NUM_THREADS", None)
    else:
        env["OPENBLAS_NUM_THREADS"] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_kernel(kernel: str, threads: str | None, targets: list[str]) -> tuple[bool, str]:
    """(passed, line) for ``targets`` run under ``kernel`` at ``threads``
    OpenBLAS threads (None: the default count)."""
    env = _env(kernel, threads)
    report = subprocess.run([sys.executable, "-c", REPORT], cwd=ROOT, env=env,
                            capture_output=True, text=True).stdout.split()
    reported, count = report if len(report) == 2 else ("?", "?")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *targets], cwd=ROOT, env=env, capture_output=True, text=True)
    summary = (proc.stdout.strip() or proc.stderr.strip() or "no output").splitlines()[-1]
    passed = proc.returncode == 0
    return passed, (f"{kernel} ({reported}, threads {count}): "
                    f"{'pass' if passed else 'FAIL'}: {summary}")


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
        for threads in THREADS:
            passed, line = run_kernel(kernel, threads, args.targets)
            failed += not passed
            print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
