"""Release gate: one test per acceptance criterion, one printed verdict each.

The benchmark criteria share a module-scoped fixture that trains every variant
(baseline, each module alone, both) for 30 rounds over three seeds, so the
whole file stays inside the stated runtime budgets.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fedmp import nn, privacy, protocol
from fedmp.config import ExperimentConfig
from fedmp.data import generate_federation
from fedmp.federation import (
    FederationConfig,
    aggregate_models,
    local_train,
    run_federation,
    run_few_shot,
    _derive_seed,
)
from fedmp.protocol import (
    CommLedger,
    feature_blob_bytes,
    model_blob_bytes,
    prototype_blob_bytes,
    serialize_model,
)

SEEDS = (0, 1, 2)

# benchmark constants (synthetic feature-skew federation, 30 rounds)
BENCHMARK = ExperimentConfig(
    input_dim=16,
    classes=3,
    clients=3,
    samples_per_client=96,
    skew_strength=2.0,
    noise_std=0.1,
    hidden_extractor=(64,),
    hidden_classifier=(32, 16),
    rounds=30,
    local_epochs=4,
    batch_size=64,
    learning_rate=3e-3,
    weight_decay=6e-3,
    sample_count=96,
    stage_epochs=(30, 30, 5),
)


def verdict(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def bench_config(seed: int, enable_sfmc: bool, enable_cpgma: bool,
                 track_geometry: bool = False, rounds: int | None = None) -> FederationConfig:
    cfg = BENCHMARK.federation_config(seed, mode="fedmp")
    cfg.enable_sfmc = enable_sfmc
    cfg.enable_cpgma = enable_cpgma
    cfg.track_geometry = track_geometry
    if rounds is not None:
        cfg.rounds = rounds
    return cfg


def bench_data(seed: int):
    import dataclasses
    spec = dataclasses.replace(BENCHMARK.dataset_spec(), seed=seed)
    return generate_federation(spec)


@pytest.fixture(scope="module")
def benchmark_runs():
    """Train all four module variants over the three benchmark seeds."""
    spec = BENCHMARK.network_spec()
    runs = {}
    start = time.monotonic()
    for seed in SEEDS:
        shards, global_test = bench_data(seed)
        for name, (sfmc, cpgma) in {
            "fedavg": (False, False),
            "fedmp": (True, True),
            "sfmc": (True, False),
            "cpgma": (False, True),
        }.items():
            cfg = bench_config(seed, sfmc, cpgma, track_geometry=(name == "fedmp"))
            runs[(name, seed)] = run_federation(cfg, shards, spec, global_test)
    runs["elapsed"] = time.monotonic() - start
    return runs


def final_accuracy(runs, name):
    return [runs[(name, s)].metrics[-1]["global_test_accuracy"] for s in SEEDS]


def test_criterion_1_unit_oracle_suite():
    """Every worked-example unit test passes, in under a minute."""
    files = [
        "test_nn.py", "test_protocol.py", "test_data.py", "test_federation.py",
        "test_geometry.py", "test_privacy.py", "test_config.py",
    ]
    here = Path(__file__).parent
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *[str(here / f) for f in files]],
        capture_output=True, text=True,
    )
    elapsed = time.monotonic() - start
    ok = proc.returncode == 0 and elapsed < 60.0
    verdict("criterion 1: unit-oracle suite", ok,
            f"exit={proc.returncode} elapsed={elapsed:.1f}s"
            + ("" if proc.returncode == 0 else "\n" + proc.stdout[-2000:]))


def test_criterion_2_gradient_check():
    """Analytic vs central finite-difference gradients, 20 random networks."""
    start = time.monotonic()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for trial in range(20):
        d0 = int(rng.integers(2, 6))
        hidden = int(rng.integers(2, 8))
        k = int(rng.integers(2, 5))
        classifier = () if trial % 2 == 0 else (int(rng.integers(2, 8)),)
        spec = nn.mlp_spec(d0, (hidden,), classifier, k)
        params = nn.init_params(spec, int(rng.integers(0, 1 << 30)))
        for key in params.keys():
            # keep rectifier pre-activations off the exact kink (fresh biases
            # are zero, and dead inputs would land exactly on it)
            params[key] += 0.1 * rng.normal(size=params[key].shape)
        x = rng.normal(size=(4, d0))
        labels = rng.integers(0, k, size=4)
        logits, cache = nn.forward_full(params, spec, x)
        _, grad_logits = nn.softmax_cross_entropy(logits, labels)
        grads = nn.backward(params, spec, cache, grad_logits)
        h = 1e-5
        for key in grads.keys():
            flat = params[key].reshape(-1)
            analytic = grads[key].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp, _ = nn.softmax_cross_entropy(nn.forward_full(params, spec, x)[0], labels)
                flat[i] = orig - h
                lm, _ = nn.softmax_cross_entropy(nn.forward_full(params, spec, x)[0], labels)
                flat[i] = orig
                num = (lp - lm) / (2 * h)
                rel = abs(analytic[i] - num) / max(abs(num), 1e-3)
                worst = max(worst, rel)
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 60.0
    verdict("criterion 2: gradient check", ok,
            f"worst rel err={worst:.2e} elapsed={elapsed:.1f}s")


def reference_fedavg(shards, spec, config):
    """Independent FedAvg loop: no bank, no prototypes, no ledger."""
    params = nn.init_params(spec, _derive_seed(config.seed, 0))
    for t in range(1, config.rounds + 1):
        locals_, sizes = [], []
        for shard in shards:
            p = params.copy()
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=[config.seed, 1, t, shard.client_id])
            )
            local_train(p, spec, shard, config, config.local_epochs, rng)
            locals_.append(p)
            sizes.append(len(shard))
        params = aggregate_models(locals_, sizes)
    return params


def test_criterion_3_fedavg_identity():
    """Both modules off reproduces the reference FedAvg trajectory bitwise."""
    spec = BENCHMARK.network_spec()
    shards, global_test = bench_data(0)
    cfg = bench_config(0, False, False, rounds=5)
    cfg.local_epochs = 2
    result = run_federation(cfg, shards, spec, global_test)
    expected = reference_fedavg(shards, spec, cfg)
    ok = serialize_model(result.params) == serialize_model(expected)
    verdict("criterion 3: FedAvg ablation identity (T=5, N=3, E=2)", ok)


def test_criterion_4_accuracy_delta(benchmark_runs):
    """Full method beats the baseline by >= 2pp; each module alone >= 0."""
    fa = float(np.mean(final_accuracy(benchmark_runs, "fedavg")))
    fm = float(np.mean(final_accuracy(benchmark_runs, "fedmp")))
    ds = float(np.mean(final_accuracy(benchmark_runs, "sfmc"))) - fa
    dc = float(np.mean(final_accuracy(benchmark_runs, "cpgma"))) - fa
    elapsed = benchmark_runs["elapsed"]
    ok = (fm - fa) >= 0.02 and ds >= 0.0 and dc >= 0.0 and elapsed < 600.0
    verdict(
        "criterion 4: accuracy delta on the benchmark", ok,
        f"baseline={fa:.3f} full={fm:.3f} (+{100 * (fm - fa):.1f}pp) "
        f"classifier-sharing alone {100 * ds:+.1f}pp, alignment alone "
        f"{100 * dc:+.1f}pp, elapsed={elapsed:.0f}s",
    )


def test_criterion_5_hausdorff_contraction(benchmark_runs):
    """Mean client-to-global manifold distance shrinks over training."""
    pairs = []
    for seed in SEEDS:
        m = benchmark_runs[("fedmp", seed)].metrics
        pairs.append((m[0]["hausdorff_mean"], m[-1]["hausdorff_mean"]))
    ok = all(last < first for first, last in pairs)
    verdict("criterion 5: manifold distance contraction", ok,
            " ".join(f"seed{s}: {a:.2f}->{b:.2f}" for s, (a, b) in zip(SEEDS, pairs)))


def test_criterion_6_leakage_trend(benchmark_runs):
    """Deeper interception point leaks less (max SSIM) in >= 2 of 3 seeds."""
    spec = BENCHMARK.network_spec()
    shallow_idx, deep_idx = BENCHMARK.attack_layers
    wins = 0
    details = []
    for seed in SEEDS:
        shards, _ = bench_data(seed)
        params = benchmark_runs[("fedmp", seed)].params
        configs = [
            privacy.AttackConfig(
                split_index=idx,
                epochs=BENCHMARK.attack_epochs,
                train_fraction=BENCHMARK.attack_train_fraction,
                learning_rate=BENCHMARK.attack_learning_rate,
                seed=seed,
            )
            for idx in (shallow_idx, deep_idx)
        ]
        shallow, deep = privacy.attack_report(params, spec, shards, configs)
        wins += deep.max_ssim < shallow.max_ssim
        details.append(f"seed{seed}: {shallow.max_ssim:.3f}->{deep.max_ssim:.3f}")
    ok = wins >= 2
    verdict("criterion 6: leakage falls with depth", ok,
            f"{wins}/3 seeds ({', '.join(details)})")


def test_criterion_7_communication_accounting():
    """Ledger totals equal the closed-form byte formulas; few-shot is 3 events."""
    rng = np.random.default_rng(7)
    exact = True
    for _ in range(50):
        t = int(rng.integers(1, 6))
        shapes = [(int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in range(t)]
        n = int(rng.integers(0, 40))
        d = int(rng.integers(1, 33))
        k = int(rng.integers(1, 8))
        params = nn.Parameters({
            (i, "W"): np.zeros(shape) for i, shape in enumerate(shapes)
        })
        scalars = sum(r * c for r, c in shapes)
        exact &= len(protocol.serialize_model(params)) == model_blob_bytes(params)
        exact &= model_blob_bytes(params) == 8 + 8 * t + 4 * scalars
        exact &= feature_blob_bytes(n, d) == 8 + n * (2 + 2 * d)
        exact &= prototype_blob_bytes(k, d) == 8 + 4 * k * d

        ledger = CommLedger()
        entries = [
            (int(rng.integers(1, 4)),
             protocol.UP if rng.integers(2) else protocol.DOWN,
             [protocol.KIND_MODEL, protocol.KIND_FEATURES, protocol.KIND_PROTOTYPES][rng.integers(3)],
             int(rng.integers(1, 10_000)),
             int(rng.integers(0, 3)))
            for _ in range(int(rng.integers(1, 20)))
        ]
        for row in entries:
            ledger.record(*row)
        exact &= ledger.total() == sum(e[3] for e in entries)
        exact &= ledger.total(direction=protocol.UP) == sum(
            e[3] for e in entries if e[1] == protocol.UP
        )

    spec = BENCHMARK.network_spec()
    shards, global_test = bench_data(0)
    few = run_few_shot(bench_config(0, True, True), shards, spec, global_test,
                       stage_epochs=BENCHMARK.stage_epochs)
    multi = run_federation(bench_config(0, True, True), shards, spec, global_test)
    three_events = few.ledger.rounds() == [1, 2, 3]
    fewer_bytes = few.ledger.total() < multi.ledger.total()
    ok = exact and three_events and fewer_bytes
    verdict("criterion 7: communication accounting", ok,
            f"closed-form exact={exact}, events={few.ledger.rounds()}, "
            f"bytes {few.ledger.total()} < {multi.ledger.total()}: {fewer_bytes}")


def test_criterion_8_determinism_and_order_independence():
    """Same config + seed -> byte-identical streams; client order irrelevant."""
    import json
    spec = BENCHMARK.network_spec()
    shards, global_test = bench_data(1)
    cfg = bench_config(1, True, True, rounds=5)

    def stream(order=None):
        r = run_federation(cfg, shards, spec, global_test, client_order=order)
        return (
            json.dumps(r.metrics).encode(),
            tuple(r.ledger.entries),
            serialize_model(r.params),
        )

    a, b = stream(), stream()
    permuted = stream(order=[2, 0, 1])
    ok = a == b == permuted
    verdict("criterion 8: determinism and order independence", ok)


def test_criterion_9_few_shot_quality(benchmark_runs):
    """Few-shot ensemble within 3pp of the multi-round baseline, mean over seeds."""
    spec = BENCHMARK.network_spec()
    few = []
    for seed in SEEDS:
        shards, global_test = bench_data(seed)
        result = run_few_shot(bench_config(seed, True, True), shards, spec,
                              global_test, stage_epochs=BENCHMARK.stage_epochs)
        few.append(result.ensemble_accuracy)
    few_mean = float(np.mean(few))
    fedavg_mean = float(np.mean(final_accuracy(benchmark_runs, "fedavg")))
    ok = few_mean >= fedavg_mean - 0.03
    verdict("criterion 9: few-shot ensemble quality", ok,
            f"few-shot={few_mean:.3f} baseline={fedavg_mean:.3f} "
            f"(gap {100 * (few_mean - fedavg_mean):+.1f}pp)")
