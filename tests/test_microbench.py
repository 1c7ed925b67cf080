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
    assert list(result["results"]) == ["S", "M"]
    for timings in result["results"].values():
        assert set(timings) == PRIMITIVES
        assert all(t > 0 for t in timings.values())
