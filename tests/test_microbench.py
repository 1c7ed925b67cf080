"""Smoke test of the primitive microbenchmark, ``tools/microbench.py``."""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "microbench.py"

PRIMITIVES = {
    "nn.forward.batch", "nn.backward.batch", "nn.forward.head", "nn.backward.head",
    "federation.upcast_foreign", "federation.compute_sfmc_loss",
    "nn.backward.extractor",
    "nn.softmax_cross_entropy.batch", "nn.softmax_cross_entropy.head", "nn.adam_step",
    "privacy.decoder_step.layer2", "privacy.decoder_step.layer4",
    "federation.unit_prototypes", "federation.cpgma_embedding_grad",
    "federation.evaluate_accuracy", "federation.update_centers.upload",
    "federation.local_train.warm", "federation.local_train.cold",
    "federation.local_train.reused", "federation._foreign",
    "protocol.FeatureBank.insert",
    "protocol.FeatureBank.sample", "geometry._directed_many", "geometry.manifold_report",
    "protocol.serialize_features.upload", "protocol.serialize_features.round",
    *(f"protocol.deserialize_features.{blob}" for blob in ("upload", "foreign", "round")),
}


def run_once(env=None):
    # about a second on a 2-core host; the timeout only guards against a hang
    return subprocess.run([sys.executable, str(SCRIPT), "--repeats", "1"], env=env,
                          capture_output=True, text=True, timeout=60, check=True)


def test_one_repeat_prints_one_json_line():
    proc = run_once()
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert result["repeats"] == 1 and result["unit"] == "us_per_call"
    assert result["blas_kernel"]
    assert list(result["results"]) == ["import", "S", "M"]
    assert list(result["results"]["import"]) == ["import fedmp"]
    for scale in ("S", "M"):
        timings = result["results"][scale]
        assert set(timings) == PRIMITIVES
        assert all(t > 0 for t in timings.values())
    assert result["results"]["import"]["import fedmp"] > 0
    peaks = result["peak_bytes"]
    assert list(peaks) == ["S", "M"]
    assert all(list(peaks[scale]) == ["federation.evaluate_accuracy", "geometry.manifold_report",
                                      "protocol.FeatureBank.full"] for scale in peaks)
    # scoring 10,000 rows at M holds one block's activations (1,024 rows
    # through layers 64, 32, 16 and 3 wide), not the 9.3 MB of all rows'
    block = 1024 * (64 + 32 + 16 + 3) * 8
    assert 0 < peaks["S"]["federation.evaluate_accuracy"] < block
    assert block < peaks["M"]["federation.evaluate_accuracy"] < block + (256 << 10)
    # the geometry phase holds one class cloud at a time: above the
    # smallest (about a third of the 10,000 x 64 float64 rows at M), under
    # the clouds of every class together
    assert 0 < peaks["S"]["geometry.manifold_report"] < peaks["M"]["geometry.manifold_report"]
    clouds = 20 * 500 * 64 * 8
    assert clouds // 4 < peaks["M"]["geometry.manifold_report"] < clouds
    # a full bank (20 x 3 x 512 rows of 64 at M) holds blob rows, a u16 label
    # and 64 float16 values, and 16 B more a row: above the blob rows' 4.0 MB,
    # within 256 KiB of the rows
    rows = 20 * 3 * 512
    full = peaks["M"]["protocol.FeatureBank.full"]
    assert rows * 65 * 2 < full < rows * (65 * 2 + 16) + (256 << 10)
    assert 0 < peaks["S"]["protocol.FeatureBank.full"] < peaks["M"]["protocol.FeatureBank.full"]


def test_runs_without_scipy(tmp_path):
    # fedmp does not need SciPy, and neither does the tool's record of the
    # host: a ``scipy`` that fails to import comes first on the path
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("raise ImportError('no scipy here')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(tmp_path), os.environ.get("PYTHONPATH")])))
    machine = json.loads(run_once(env).stdout)["machine"]
    assert "scipy" not in machine
    assert set(machine) == {"nproc", "python", "numpy", "blas", "blas_thread_cap",
                            "blas_threads", "loadavg_start"}
