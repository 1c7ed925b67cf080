"""Batch experiment driver.

Subcommands: generate (synthetic federation to CSV), run (one of the five
training modes over all seeds), ablate (the four-row module ablation), attack
(feature-inversion privacy evaluation of a finished run), report (summarize a
run directory). All emitted numbers use 17-significant-digit decimals so they
round-trip exactly.
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
from .config import MODES, ConfigError, ExperimentConfig, check_ranges, config_echo, load_config
from .data import generate_federation, merge_shards, save_csv
from .federation import FederationConfig, run_federation, run_few_shot
from .protocol import deserialize_model, serialize_model


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(outdir: Path, config: ExperimentConfig, files: list[Path]) -> None:
    manifest = {
        "config": config_echo(config),
        "files": {p.name: _sha256(p) for p in sorted(files)},
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _load_experiment(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
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
    files = [outdir / f"shard_{shard.client_id}.csv" for shard in shards]
    files.append(outdir / "global_test.csv")
    for shard, path in zip([*shards, global_test], files):
        save_csv(shard, path)
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
    feds = {seed: config.federation_config(seed) for seed in config.seeds}
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    federation = generate_federation(config.dataset_spec())
    global_test = federation[1]
    files: list[Path] = []
    finals: dict[int, float] = {}
    curves: dict[int, list] = {}

    for seed in config.seeds:
        final, metrics, ledger, snapshots, models = _run_one_seed(
            config, feds[seed], spec, federation)
        finals[seed] = final

        metrics_path = outdir / f"metrics_seed{seed}.jsonl"
        with open(metrics_path, "w") as fh:
            for row in metrics:
                fh.write(json.dumps(row) + "\n")
        files.append(metrics_path)

        ledger_path = outdir / f"ledger_seed{seed}.csv"
        ledger.to_csv(ledger_path)
        files.append(ledger_path)

        for name, params in models.items():
            model_path = outdir / f"model_{name}_seed{seed}.bin"
            model_path.write_bytes(serialize_model(params))
            files.append(model_path)

        if "global_test_accuracy" in (metrics[0] if metrics else {}):
            curves[seed] = [row["global_test_accuracy"] for row in metrics]

        for rnd, params in snapshots.items():
            u, _ = nn.forward_extractor(params, spec, global_test.inputs)
            proj = geometry.pca_project_2d(u)
            pca_path = outdir / f"pca_round{rnd}_seed{seed}.csv"
            with open(pca_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["x", "y", "label"])
                for p, y in zip(proj, global_test.labels):
                    writer.writerow([_fmt(float(p[0])), _fmt(float(p[1])), int(y)])
            files.append(pca_path)

    if curves:
        curve_path = outdir / "accuracy_curve.csv"
        with open(curve_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            seeds = sorted(curves)
            writer.writerow(["round"] + [f"seed{s}" for s in seeds])
            for i in range(len(curves[seeds[0]])):
                writer.writerow([i + 1] + [_fmt(curves[s][i]) for s in seeds])
        files.append(curve_path)

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


ABLATION_VARIANTS = (
    ("off/off", False, False),
    ("sfmc-only", True, False),
    ("cpgma-only", False, True),
    ("both", True, True),
)


def cmd_ablate(args) -> int:
    config = _load_experiment(args)
    spec = config.network_spec()
    variants = []
    for name, sfmc, cpgma in ABLATION_VARIANTS:
        variant = dataclasses.replace(config, mode="fedmp" if (sfmc or cpgma) else "fedavg",
                                      enable_sfmc=sfmc, enable_cpgma=cpgma)
        feds = {seed: variant.federation_config(seed) for seed in variant.seeds}
        variants.append((name, variant, feds))
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    federation = generate_federation(config.dataset_spec())
    rows = []
    for name, variant, feds in variants:
        accs = []
        for seed in variant.seeds:
            final, _, _, _, _ = _run_one_seed(variant, feds[seed], spec, federation)
            accs.append(final)
        rows.append((name, accs, float(np.mean(accs)), float(np.std(accs))))
    path = outdir / "ablation.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant"] + [f"seed{s}" for s in config.seeds] + ["mean", "std"])
        for name, accs, mean, std in rows:
            writer.writerow([name] + [_fmt(a) for a in accs] + [_fmt(mean), _fmt(std)])
    _write_manifest(outdir, config, [path])
    for name, _, mean, std in rows:
        print(f"{name}: {mean:.4f} ± {std:.4f}")
    return 0


def cmd_attack(args) -> int:
    config = _load_experiment(args)
    outdir = Path(config.output_dir)
    spec = config.network_spec()
    missing = [
        s for s in config.seeds
        if not (outdir / f"model_server_seed{s}.bin").exists()
    ]
    if missing:
        print(f"missing run artifacts in {outdir} for seeds {missing}; "
              f"run `fedmp run` first", file=sys.stderr)
        return 1
    shards, _ = generate_federation(config.dataset_spec())
    path = outdir / "leakage.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "split_index", "frechet", "max_ssim", "min_l2", "risk"])
        for seed in config.seeds:
            params = deserialize_model(
                (outdir / f"model_server_seed{seed}.bin").read_bytes(), spec
            )
            for rep in privacy.attack_report(params, spec, shards, config.attack_configs(seed)):
                writer.writerow([
                    seed, rep.split_index, _fmt(rep.frechet),
                    _fmt(rep.max_ssim), _fmt(rep.min_l2), int(rep.risk),
                ])
                print(f"seed {seed} layer {rep.split_index}: "
                      f"FD {rep.frechet:.2f} maxSSIM {rep.max_ssim:.4f} "
                      f"minL2 {rep.min_l2:.4f} risk={rep.risk}")
    return 0


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
    for seed in config.seeds:
        ledger_path = outdir / f"ledger_seed{seed}.csv"
        if ledger_path.exists():
            with open(ledger_path) as fh:
                total = sum(int(row["bytes"]) for row in csv.DictReader(fh))
            print(f"  seed {seed}: total traffic {total} bytes")
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
        ("ablate", cmd_ablate),
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
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
