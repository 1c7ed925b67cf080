"""What a run imports, checked in a fresh interpreter.

NumPy loads ``numpy.ma`` lazily, and ``np.unique`` pulls it in (NumPy 2.4's
``_unique1d`` calls ``np.ma.is_masked``): about 8 ms and 1 MB inside a run's
first round. The round path finds its distinct labels, client ids and probe
rows with ``bincount`` instead, so a run never loads it. pytest and
hypothesis may load it themselves, so the check runs in a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

RUN = """
import sys

import numpy as np

assert "numpy.ma" not in sys.modules, "numpy.ma loaded before any run"

from fedmp import geometry, nn, privacy
from fedmp.config import ExperimentConfig
from fedmp.data import ClientShard, generate_federation
from fedmp.federation import run_federation, run_few_shot

exp = ExperimentConfig(
    input_dim=16, classes=3, clients=3, samples_per_client=96,
    hidden_extractor=(64,), hidden_classifier=(32, 16),
    rounds=2, local_epochs=1, batch_size=64, sample_count=96,
    stage_epochs=(1, 1, 1), attack_epochs=1,
)
spec = exp.network_spec()
shards, global_test = generate_federation(exp.dataset_spec())
run_federation(exp.federation_config(0), shards, spec, global_test)
run_few_shot(exp.federation_config(0, mode="fewshot"), shards, spec, global_test,
             stage_epochs=exp.stage_epochs)
privacy.attack_report(nn.init_params(spec, 0), spec, shards, exp.attack_configs(0))

# scale M (20 clients x 500 rows) is past DENSE_PAIRS, so the probe pass runs
rng = np.random.default_rng(0)
wide = [ClientShard(c, rng.normal(size=(500, 16)), rng.integers(0, 3, size=500))
        for c in range(20)]
geometry.manifold_report(nn.init_params(spec, 0), spec, wide)

print("numpy.ma" in sys.modules)
"""


def test_a_run_does_not_import_numpy_ma():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", RUN], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
