"""Smoke test of the primitive microbenchmark, ``tools/microbench.py``."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "microbench.py"

PRIMITIVES = {
    "nn.forward.batch", "nn.backward.batch", "nn.forward.head", "nn.backward.head",
    "nn.softmax_cross_entropy.batch", "nn.softmax_cross_entropy.head", "nn.adam_step",
    "federation.unit_prototypes", "federation.cpgma_embedding_grad",
    "federation.draw_foreign", "protocol.FeatureBank.insert",
    "protocol.FeatureBank.sample", "geometry.directed_distance", "geometry.mean_to_global",
}


def test_one_repeat_prints_one_json_line():
    # about a second on a 2-core host; the timeout only guards against a hang
    proc = subprocess.run([sys.executable, str(SCRIPT), "--repeats", "1"],
                          capture_output=True, text=True, timeout=60, check=True)
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
    # the geometry phase's tracemalloc peak: above the M class clouds
    # (10,000 x 64 float64), and under them plus a few blocks of products
    peaks = result["peak_bytes"]
    assert list(peaks) == ["S", "M"]
    assert all(list(peaks[scale]) == ["geometry.mean_to_global"] for scale in peaks)
    assert 0 < peaks["S"]["geometry.mean_to_global"] < peaks["M"]["geometry.mean_to_global"]
    clouds = 20 * 500 * 64 * 8
    assert clouds < peaks["M"]["geometry.mean_to_global"] < clouds + (4 << 20)
