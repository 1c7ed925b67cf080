"""Module attribution over a seed sweep, on an experiment config (by
default the acceptance gate's).

    python3 tools/attribution.py [--config exp.cfg] [--seeds 0-11] [--rounds 30]

Run it from the root of a source checkout; it imports ``fedmp`` from
``src/``. For each seed it builds that seed's federation from the config's
dataset values with ``dataset_seed`` set to the seed, as the gate does, and
runs the variants on it with the config's network and training values:
FedAvg, FedMP, SFMC alone and CPGMA alone for ``--rounds`` rounds (default:
the config's ``rounds``) without geometry, and the few-shot schedule with
the config's ``stage_epochs`` and module switches. It prints one JSON line:

- ``accuracy``: per variant, the final accuracy of each seed in order (the
  last round's global test accuracy; the ensemble's for few-shot);
- ``mean``: per variant, the mean over the seeds;
- ``vs_fedavg``: per variant but FedAvg, the paired per-seed difference from
  FedAvg: its ``mean`` and standard error ``se`` (null for one seed).

``--config`` reads a ``key = value`` file as ``fedmp run`` does, ``FEDMP_``
variables included; a bad line exits 2 with ``error: <file>: line N: ...``.
The file's ``mode``, ``seeds``, ``dataset_seed``, ``output_dir`` and attack
keys play no part. Without ``--config`` the sweep runs the gate's config,
which no ``FEDMP_`` variable changes. The sweep is a second view of the
gate's verdict over more draws of the same noise; the gate keeps its own
seeds and bounds. OpenBLAS is capped at one thread, as in ``perfbench``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (sfmc, cpgma) of each round-loop variant, as the gate's fixture runs them
VARIANTS = {"fedavg": (False, False), "fedmp": (True, True),
            "sfmc": (True, False), "cpgma": (False, True)}


def gate_config():
    """The gate's ``BENCHMARK`` config (``tests/test_acceptance.py``)."""
    from fedmp.config import ExperimentConfig

    return ExperimentConfig(
        input_dim=16, classes=3, clients=3, samples_per_client=96,
        skew_strength=2.0, noise_std=0.1,
        hidden_extractor=(64,), hidden_classifier=(32, 16),
        rounds=30, local_epochs=4, batch_size=64,
        learning_rate=3e-3, weight_decay=6e-3,
        sample_count=96, stage_epochs=(30, 30, 5),
    )


def seed_accuracies(config, seed: int, rounds: int) -> dict:
    """Each variant's final accuracy on ``seed``'s federation under ``config``."""
    from fedmp.data import generate_federation
    from fedmp.federation import run_federation, run_few_shot

    spec = config.network_spec()
    shards, global_test = generate_federation(
        dataclasses.replace(config.dataset_spec(), seed=seed))
    out = {}
    for name, (sfmc, cpgma) in VARIANTS.items():
        cfg = config.federation_config(seed, mode="fedmp")
        cfg.enable_sfmc, cfg.enable_cpgma = sfmc, cpgma
        cfg.track_geometry = False
        cfg.rounds = rounds
        out[name] = run_federation(cfg, shards, spec, global_test).metrics[-1][
            "global_test_accuracy"]
    few = run_few_shot(config.federation_config(seed, mode="fedmp"), shards, spec, global_test,
                       stage_epochs=config.stage_epochs)
    out["fewshot"] = few.ensemble_accuracy
    return out


def paired(diffs: list) -> dict:
    """Mean and standard error of paired differences; se is None for one."""
    n = len(diffs)
    mean = sum(diffs) / n
    if n < 2:
        return {"mean": mean, "se": None}
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    return {"mean": mean, "se": math.sqrt(var / n)}


def sweep(config, seeds: list, rounds: int) -> dict:
    per_seed = [seed_accuracies(config, seed, rounds) for seed in seeds]
    accuracy = {name: [acc[name] for acc in per_seed] for name in per_seed[0]}
    return {
        "seeds": seeds,
        "rounds": rounds,
        "accuracy": accuracy,
        "mean": {name: sum(accs) / len(accs) for name, accs in accuracy.items()},
        "vs_fedavg": {name: paired([a - b for a, b in zip(accs, accuracy["fedavg"])])
                      for name, accs in accuracy.items() if name != "fedavg"},
    }


def seed_range(text: str) -> list:
    """``A-B`` (inclusive) or a single seed."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"not a seed range: {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", help="key = value experiment config to sweep, read as "
                                         "`fedmp run` reads it, FEDMP_ variables included "
                                         "(default: the gate's config)")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-11"),
                        help="inclusive seed range A-B (default 0-11)")
    parser.add_argument("--rounds", type=int, help="rounds of each round-loop variant "
                                                    "(default: the config's rounds)")
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if args.config is None:
        config = gate_config()
    else:
        from fedmp.config import ConfigError, load_config

        try:
            config = load_config(args.config)
        except (ConfigError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    rounds = config.rounds if args.rounds is None else args.rounds
    print(json.dumps(sweep(config, args.seeds, rounds)))
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
