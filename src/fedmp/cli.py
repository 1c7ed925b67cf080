"""Batch experiment driver.

Subcommands: generate (synthetic federation to CSV), run (one of the five
training modes over all seeds), attack (feature-inversion privacy evaluation
of a finished run), report (summarize a run directory). Only this module
writes files. All emitted numbers use 17-significant-digit decimals so they
round-trip exactly. The module ablation is ``tools/attribution.py``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import geometry, nn, privacy
from .config import (
    MODES,
    ConfigError,
    ExperimentConfig,
    apply_env_overrides,
    check_ranges,
    load_config,
)
from .data import generate_federation, merge_shards
from .federation import FederationConfig, run_federation, run_few_shot
from .protocol import (
    DOWN,
    KIND_FEATURES,
    KIND_MODEL,
    KIND_PROTOTYPES,
    UP,
    deserialize_model,
    serialize_model,
)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, header, rows) -> Path:
    """Write ``header`` (skipped if None), then ``rows``, each cell through ``_fmt``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(outdir: Path, config: ExperimentConfig, files: list[Path], add=False) -> None:
    """Write ``config`` and each file's SHA-256. With ``add`` the files join those
    of the manifest already there, which keeps its config block, the run's."""
    path = outdir / "manifest.json"
    manifest = (json.loads(path.read_text()) if add and path.exists()
                else {"config": dataclasses.asdict(config), "files": {}})
    manifest["files"].update((p.name, _sha256(p)) for p in sorted(files))
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _load_experiment(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else apply_env_overrides(ExperimentConfig())
    if args.mode:
        config.mode = args.mode
    if args.seed is not None:
        config.seeds = (args.seed,)
        config.origins = {**config.origins, "seeds": "--seed"}
    if args.out:
        config.output_dir = args.out
    # a value in range for the file's mode can be out of range for ``--mode``'s
    return check_ranges(config)


def cmd_generate(args) -> int:
    config = _load_experiment(args)
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    shards, global_test = generate_federation(config.dataset_spec())
    names = [f"shard_{shard.client_id}.csv" for shard in shards] + ["global_test.csv"]
    files = [_write_csv(outdir / name, None, ([*x, y] for x, y in zip(s.inputs, s.labels)))
             for name, s in zip(names, [*shards, global_test])]
    _write_manifest(outdir, config, files)
    print(f"wrote {len(files)} dataset files to {outdir}")
    return 0


def _run_one_seed(config: ExperimentConfig, fed: FederationConfig, spec, federation):
    """Train on ``federation`` (shards, global test set), which does not depend
    on the run seed. Returns (final_accuracy, metrics_rows, ledger, snapshots,
    extra_models)."""
    shards, global_test = federation
    mode = config.mode
    if mode in ("centralized", "fedavg", "fedmp"):
        if mode == "centralized":
            shards = [merge_shards(shards, client_id=0)]
        result = run_federation(fed, shards, spec, global_test,
                                snapshot_rounds={1, max(1, config.rounds // 2), config.rounds})
        return (result.metrics[-1]["global_test_accuracy"], result.metrics, result.ledger,
                result.snapshots, {"server": result.params})
    stage_epochs = config.stage_epochs if mode == "fewshot" else config.stage_epochs[:1]
    result = run_few_shot(fed, shards, spec, global_test, stage_epochs=stage_epochs)
    final = result.ensemble_accuracy if mode == "fewshot" else result.metrics[-1]["server_accuracy"]
    return final, result.metrics, result.ledger, {}, {
        "server": result.server_params,
        **{f"client_{i}": p for i, p in enumerate(result.client_params)},
    }


def cmd_run(args) -> int:
    config = _load_experiment(args)
    spec = config.network_spec()
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    federation = generate_federation(config.dataset_spec())
    global_test = federation[1]
    files: list[Path] = []
    finals: dict[int, float] = {}
    curves: dict[int, list] = {}

    for seed in config.seeds:
        final, metrics, ledger, snapshots, models = _run_one_seed(
            config, config.federation_config(seed), spec, federation)
        finals[seed] = final

        metrics_path = outdir / f"metrics_seed{seed}.jsonl"
        with open(metrics_path, "w") as fh:
            for row in metrics:
                fh.write(json.dumps(row) + "\n")
        files.append(metrics_path)

        files.append(_write_csv(outdir / f"ledger_seed{seed}.csv", LEDGER_HEADER,
                                map(dataclasses.astuple, ledger.entries)))

        for name, params in models.items():
            model_path = outdir / f"model_{name}_seed{seed}.bin"
            model_path.write_bytes(serialize_model(params))
            files.append(model_path)

        if "global_test_accuracy" in (metrics[0] if metrics else {}):
            curves[seed] = [row["global_test_accuracy"] for row in metrics]

        for rnd, params in snapshots.items():
            u, _ = nn.forward_extractor(params, spec, global_test.inputs)
            proj = geometry.pca_project_2d(u)
            files.append(_write_csv(outdir / f"pca_round{rnd}_seed{seed}.csv",
                                    ["x", "y", "label"],
                                    ([*p, y] for p, y in zip(proj, global_test.labels))))

    if curves:
        seeds = sorted(curves)
        rounds = enumerate(zip(*(curves[s] for s in seeds)), start=1)
        files.append(_write_csv(outdir / "accuracy_curve.csv",
                                ["round"] + [f"seed{s}" for s in seeds],
                                ([rnd, *accs] for rnd, accs in rounds)))

    values = [finals[s] for s in sorted(finals)]
    report = {
        "mode": config.mode,
        "per_seed_accuracy": {str(s): finals[s] for s in sorted(finals)},
        "mean_accuracy": float(np.mean(values)),
        "std_accuracy": float(np.std(values)),
        "num_seeds": len(values),
    }
    if not np.all(np.isfinite(values)):
        print("non-finite final accuracy", file=sys.stderr)
        return 1
    report_path = outdir / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True))
    files.append(report_path)
    _write_manifest(outdir, config, files)
    print(f"{config.mode}: mean accuracy {report['mean_accuracy']:.4f} "
          f"± {report['std_accuracy']:.4f} over {len(values)} seeds")
    return 0


def cmd_attack(args) -> int:
    config = _load_experiment(args)
    outdir = Path(config.output_dir)
    spec = config.network_spec()
    seeds = config.seeds
    if args.seed is None:       # the seeds the run wrote, not the file's
        report_path = outdir / "report.json"
        if not report_path.exists():
            print(f"no report.json in {outdir}; run `fedmp run` first", file=sys.stderr)
            return 1
        seeds = [int(s) for s in json.loads(report_path.read_text())["per_seed_accuracy"]]
    missing = [s for s in seeds if not (outdir / f"model_server_seed{s}.bin").exists()]
    if missing:
        print(f"missing run artifacts in {outdir} for seeds {missing}; "
              f"run `fedmp run` first", file=sys.stderr)
        return 1
    shards, _ = generate_federation(config.dataset_spec())
    rows = []
    for seed in seeds:
        params = deserialize_model((outdir / f"model_server_seed{seed}.bin").read_bytes(), spec)
        for rep in privacy.attack_report(params, spec, shards, config.attack_configs(seed)):
            rows.append([seed, rep.split_index, rep.frechet, rep.max_ssim, rep.min_l2,
                         int(rep.risk)])
            print(f"seed {seed} layer {rep.split_index}: "
                  f"FD {rep.frechet:.2f} maxSSIM {rep.max_ssim:.4f} "
                  f"minL2 {rep.min_l2:.4f} risk={rep.risk}")
    path = _write_csv(outdir / "leakage.csv",
                      ["seed", "split_index", "frechet", "max_ssim", "min_l2", "risk"], rows)
    _write_manifest(outdir, config, [path], add=True)
    return 0


# the columns of ``ledger_seed<s>.csv``, one row per ``LedgerEntry``; ``cmd_report`` sums ``bytes``
LEDGER_HEADER = ("round", "direction", "kind", "bytes", "client_id")


def cmd_report(args) -> int:
    config = _load_experiment(args)
    outdir = Path(config.output_dir)
    report_path = outdir / "report.json"
    if not report_path.exists():
        print(f"no report.json in {outdir}", file=sys.stderr)
        return 1
    report = json.loads(report_path.read_text())
    print(f"mode: {report['mode']}")
    for seed, acc in report["per_seed_accuracy"].items():
        print(f"  seed {seed}: accuracy {acc:.4f}")
    print(f"  mean ± std: {report['mean_accuracy']:.4f} ± {report['std_accuracy']:.4f}")
    for seed in report["per_seed_accuracy"]:     # the seeds the run wrote
        ledger_path = outdir / f"ledger_seed{seed}.csv"
        if ledger_path.exists():
            sent: dict[tuple, int] = {}       # bytes by (direction, kind)
            with open(ledger_path) as fh:
                for row in csv.DictReader(fh):
                    key = (row["direction"], row["kind"])
                    sent[key] = sent.get(key, 0) + int(row["bytes"])
            print(f"  seed {seed}: total traffic {sum(sent.values())} bytes")
            for direction in (UP, DOWN):
                for kind in (KIND_MODEL, KIND_FEATURES, KIND_PROTOTYPES):
                    if (direction, kind) in sent:
                        print(f"    {direction} {kind}: {sent[direction, kind]} bytes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedmp",
        description="Deterministic federated-learning experiments on synthetic feature-skew data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (
        ("generate", cmd_generate),
        ("run", cmd_run),
        ("attack", cmd_attack),
        ("report", cmd_report),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--seed", type=int, help="run a single seed instead of the config's list")
        p.add_argument("--mode", choices=MODES, help="override the configured mode")
        p.add_argument("--out", help="override the output directory")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
