"""fedmp benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload s-gate --seed 0 --seconds 45 --trace 0

Run it from the root of a source checkout; it imports fedmp from ``src/``.
A run sets up the workload's inputs from the seed, then repeats whole units of
the workload until ``--seconds`` would be exceeded, and never fewer than two
units (three in a traced run), so that repeats can be compared. End-to-end
timings are medians over the units, in passes of a reference loop
(calibration.py), which cancel the shared host's changes of speed; per-layer
times are medians in seconds.

``--trace 0`` reports the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced units and reports the per-layer
metrics of the traced ones, plus the tracing overhead. Every unit's outputs
are checked; the last line of standard output is the JSON result.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Mini-batches of at most 64 rows gain nothing from BLAS threads, and one
# thread keeps run-to-run timings steady on a shared machine.
BLAS_THREADS = 1
SETUP_PROBES = 9              # fresh processes that repeat the set-up
MIN_COVERAGE = 0.95           # share of a traced unit inside top-level spans

# Reported by --trace 0; BENCHMARK.json lists the same names. The run also
# prints run_s, ms_per_round, train_samples_per_s and reference_ms.
END_TO_END = (
    "setup_s", "run_ref", "round_ref", "train_samples_per_ref", "peak_rss_mb",
    "up_bytes_per_round", "down_bytes_per_round", "final_accuracy",
)
# Reported by --trace 1, in this order; BENCHMARK.json lists the same names.
PER_LAYER = (
    "nn.adam_step.calls", "nn.adam_step.self_s",
    "nn.forward.calls", "nn.forward.self_s", "nn.forward.flops",
    "nn.backward.calls", "nn.backward.self_s", "nn.backward.flops",
    "nn.softmax_cross_entropy.self_s", "nn.init_params.s",
    "protocol.FeatureBank.insert.calls", "protocol.FeatureBank.insert.records",
    "protocol.FeatureBank.insert.self_s",
    "protocol.FeatureBank.sample.calls", "protocol.FeatureBank.sample.records",
    "protocol.FeatureBank.sample.self_s",
    "protocol.bank.peak_records",
    "protocol.serialize_features.calls", "protocol.serialize_features.bytes",
    "protocol.serialize_features.self_s",
    "protocol.serialize_model.self_s", "protocol.serialize_prototypes.self_s",
    "protocol.CommLedger.record.calls", "protocol.CommLedger.total.self_s",
    "federation.local_train.calls", "federation.local_train.samples",
    "federation.local_train.records_out", "federation.local_train.self_s",
    "federation.compute_sfmc_loss.calls", "federation.compute_sfmc_loss.rows",
    "federation.compute_sfmc_loss.self_s",
    "federation.cpgma_embedding_grad.calls", "federation.cpgma_embedding_grad.self_s",
    "federation.update_client_center.calls", "federation.update_client_center.self_s",
    "federation.update_global_prototype.self_s", "federation.aggregate_models.self_s",
    "federation.evaluate_accuracy.self_s", "federation.one_shot_prototypes.self_s",
    "federation.ensemble_predict.self_s", "federation.run_federation.self_s",
    "federation.run_few_shot.self_s",
    "federation.sfmc.restack_ratio", "federation.records.used_ratio",
    "geometry.manifold_report.calls", "geometry.manifold_report.s",
    "geometry.class_manifolds.self_s",
    "geometry.hausdorff_distance.calls", "geometry.hausdorff_distance.point_pairs",
    "geometry.hausdorff_distance.self_s",
    "data.generate_federation.s",
    "privacy.attack_report.s", "privacy.train_decoder.calls", "privacy.train_decoder.self_s",
    "trace.overhead_s", "trace.coverage",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the step times as JSON and exit")
    return parser.parse_args(argv)


def timed_setup(name: str, seed: int):
    """Import fedmp from this checkout and build the workload's inputs.
    Returns (workloads module, workload, inputs, seconds per step).
    NumPy and SciPy load with fedmp, inside the timer, so this script's
    modules that import them are imported only here and later."""
    start = time.perf_counter()
    import fedmp
    import_s = time.perf_counter() - start
    if not Path(fedmp.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"fedmp was imported from {fedmp.__file__}, not from {SRC}")
    import workloads
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name]
    inputs, times = workloads.set_up(workload, seed)
    times["import"] = import_s
    return workloads, workload, inputs, times


def setup_probe(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record(loadavg) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "loadavg_start": list(loadavg),
    }


@dataclass
class Unit:
    """One measured unit: its outputs, its trace (if traced) and its failures."""

    result: object
    tracer: object
    digest: str
    failures: list


def run_units(wl, workload, seed, inputs, seconds: float, trace: bool):
    """Repeat units until the next would overrun ``seconds``. Returns the
    units that finished, the number attempted and the clock that timed them."""
    from calibration import Clock
    from fedmp import federation
    from tracing import Tracer

    pattern = [False, True, True] if trace else [False, False]
    units: list[Unit] = []
    elapsed: list[float] = []      # per unit, reference passes and checks included
    attempted = 0
    start = time.perf_counter()
    # untraced units split long calls at local_train's returns; traced ones
    # do not, so that no reference pass lands inside a traced span
    clock = Clock(split_at=(federation, "local_train"))
    while True:
        traced = pattern[attempted] if attempted < len(pattern) else (
            trace and (attempted - len(pattern)) % 2 == 1)
        attempted += 1
        tracer = Tracer() if traced else None
        clock.split = not traced
        unit_start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer:
                    result = wl.run_unit(workload, seed, inputs, clock)
            else:
                result = wl.run_unit(workload, seed, inputs, clock)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            break
        failures = wl.check_outputs(workload, inputs, result)
        digest = wl.digest(result)
        if units and digest != units[0].digest:
            failures.append("outputs differ from the first unit of this run")
        if tracer is not None:
            failures += check_trace(tracer, result, units)
        for failure in failures:
            print(f"FAILED unit {attempted}: {failure}", file=sys.stderr)
        units.append(Unit(result, tracer, digest, failures))
        elapsed.append(time.perf_counter() - unit_start)
        if attempted >= len(pattern) and (
                time.perf_counter() - start + statistics.median(elapsed) > seconds):
            break
    return units, attempted, clock


def exact_counts(tracer) -> dict:
    return {name: (span.calls, span.counts) for name, span in tracer.spans.items()}


def check_trace(tracer, result, units) -> list[str]:
    failures = []
    coverage = tracer.top_level_s / result.wall_s
    if coverage < MIN_COVERAGE:
        failures.append(f"top-level spans cover {coverage:.3f} of the unit, under {MIN_COVERAGE}")
    traced_samples = tracer.spans["federation.local_train"].counts["samples"]
    if traced_samples != result.samples:
        failures.append(f"local_train saw {traced_samples} samples, expected {result.samples}")
    earlier = [u.tracer for u in units if u.tracer is not None]
    if earlier and exact_counts(earlier[0]) != exact_counts(tracer):
        failures.append("exact counts differ between traced units")
    return failures


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(units, setup_totals, clock) -> dict:
    """Medians over the units. The ``_ref`` timings are the ones BENCHMARK.json
    bounds; the wall-clock ones beside them are printed for reading only,
    because the host's speed swings wider than any bound (see README.md)."""
    results = [u.result for u in units]
    first = results[0]

    def med(fn) -> float:
        return statistics.median(fn(r) for r in results)

    return {
        "setup_s": metric(statistics.median(setup_totals), "s"),
        "run_ref": metric(med(lambda r: r.run_ref), "ref"),
        "round_ref": metric(med(lambda r: r.federation_ref / r.federation_rounds), "ref"),
        "train_samples_per_ref": metric(med(lambda r: r.samples / r.run_ref), "samples/ref"),
        "run_s": metric(med(lambda r: r.wall_s), "s"),
        "ms_per_round": metric(med(lambda r: 1000.0 * r.federation_s / r.federation_rounds), "ms"),
        "train_samples_per_s": metric(med(lambda r: r.samples / r.wall_s), "samples/s"),
        "reference_ms": metric(1000.0 * statistics.median(clock.passes), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "up_bytes_per_round": metric(first.up_bytes / first.ledger_rounds, "B"),
        "down_bytes_per_round": metric(first.down_bytes / first.ledger_rounds, "B"),
        "final_accuracy": metric(statistics.mean(first.accuracies), "fraction"),
    }


def _ratio(numerator: int, denominator: int) -> float:
    # both counts are zero where the mechanism never runs
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(plain, traced, setup_times) -> dict:
    spans = traced[0].tracer.spans

    def med(name: str, attr: str) -> float:
        return statistics.median(getattr(u.tracer.spans[name], attr) for u in traced)

    def count(name: str, key: str) -> int:
        return spans[name].counts[key]

    out = {}
    for name, span in spans.items():
        out[f"{name}.calls"] = metric(span.calls, "count")
        out[f"{name}.s"] = metric(med(name, "total_s"), "s")
        out[f"{name}.self_s"] = metric(med(name, "self_s"), "s")
        for key, value in span.counts.items():
            unit = {"bytes": "B", "flops": "flop"}.get(key, "count")
            out[f"{name}.{key}"] = metric(value, unit)
    out["protocol.bank.peak_records"] = out.pop("protocol.FeatureBank.insert.peak_records")
    out["federation.sfmc.restack_ratio"] = metric(_ratio(
        count("federation.compute_sfmc_loss", "rows"),
        count("protocol.FeatureBank.sample", "records")), "ratio")
    out["federation.records.used_ratio"] = metric(_ratio(
        count("protocol.FeatureBank.insert", "records"),
        count("federation.local_train", "records_out")), "ratio")
    out["data.generate_federation.s"] = metric(
        statistics.median(t["generate_federation"] for t in setup_times), "s")
    out["trace.overhead_s"] = metric(
        statistics.median(u.result.wall_s for u in traced)
        - statistics.median(u.result.wall_s for u in plain), "s")
    out["trace.coverage"] = metric(statistics.median(
        u.tracer.top_level_s / u.result.wall_s for u in traced), "fraction")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fedmp" / "__init__.py").is_file():
        print(f"no fedmp sources at {SRC}; run from the root of a fedmp checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    loadavg = os.getloadavg()

    wl, workload, inputs, times = timed_setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps(times))
        return 0
    print("machine " + json.dumps(machine_record(loadavg)))
    setup_times = [times] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    setup_totals = [sum(t.values()) for t in setup_times]

    units, attempted, clock = run_units(wl, workload, args.seed, inputs, args.seconds, bool(args.trace))
    if not units:
        print("no unit finished", file=sys.stderr)
        return 1
    plain = [u for u in units if u.tracer is None]
    traced = [u for u in units if u.tracer is not None]
    if args.trace and not (plain and traced):
        print("a traced run needs an untraced and a traced unit", file=sys.stderr)
        return 1
    failed = attempted - len(units) + sum(1 for u in units if u.failures)
    for kind, group in (("untraced", plain), ("traced", traced)):
        if group:
            walls = [u.result.wall_s for u in group]
            print(f"digest {args.workload} seed {args.seed} {kind}: {group[0].digest}")
            print(f"unit_s {kind}: {len(walls)} units, min {min(walls)!r} "
                  f"median {statistics.median(walls)!r} max {max(walls)!r}")
            refs = [u.result.run_ref for u in group]
            print(f"unit_ref {kind}: {len(refs)} units, min {min(refs)!r} "
                  f"median {statistics.median(refs)!r} max {max(refs)!r}")

    if args.trace:
        table = per_layer_metrics(plain, traced, setup_times)
        listed = PER_LAYER
    else:
        table = end_to_end_metrics(units, setup_totals, clock)
        listed = END_TO_END
    metrics = {name: table[name] for name in listed}
    for name, m in table.items():
        print(f"{name:48s} {m['value']!r:>24} {m['unit']}")
    print(f"{'failed_runs':48s} {failed / attempted!r:>24} fraction")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
