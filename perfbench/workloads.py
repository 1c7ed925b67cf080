"""The benchmark's workloads: inputs made from a seed, the work of one unit,
and the checks on that unit's outputs.

Every call into fedmp goes through the public library API, the same calls
that ``fedmp run`` and ``tests/test_acceptance.py`` make. Calls are looked up
on the module at call time, so a ``Tracer`` installed around a unit sees them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from fedmp import data, federation, nn, privacy, protocol
from fedmp.config import ExperimentConfig

# The acceptance benchmark's constants (scale S).
SCALE_S = ExperimentConfig(
    input_dim=16, classes=3, clients=3, samples_per_client=96,
    skew_strength=2.0, noise_std=0.1,
    hidden_extractor=(64,), hidden_classifier=(32, 16),
    rounds=30, local_epochs=4, batch_size=64,
    learning_rate=3e-3, weight_decay=6e-3,
    sample_count=96, stage_epochs=(30, 30, 5),
)
# Scale M: 20 clients x 500 samples, 5 rounds. Bank slots hold 512 records per
# (client, class) and fill at about 167 per round, so FIFO eviction starts in
# round 4; a shorter run would never evict.
SCALE_M = dataclasses.replace(SCALE_S, clients=20, samples_per_client=500, rounds=5)

# name -> (enable_sfmc, enable_cpgma, track_geometry), as in the acceptance gate
VARIANTS = {
    "fedavg": (False, False, False),
    "fedmp": (True, True, True),
    "sfmc": (True, False, False),
    "cpgma": (False, True, False),
}


@dataclass(frozen=True)
class Workload:
    experiment: ExperimentConfig
    seeds_per_run: int
    variants: tuple
    few_shot_and_attack: bool
    accuracy_variant: str

    def seeds(self, seed: int) -> tuple:
        first = seed * self.seeds_per_run
        return tuple(range(first, first + self.seeds_per_run))


WORKLOADS = {
    "s-gate": Workload(SCALE_S, 3, tuple(VARIANTS), True, "fedmp"),
    "m-fedavg": Workload(SCALE_M, 1, ("fedavg",), False, "fedavg"),
    "m-fedmp": Workload(SCALE_M, 1, ("fedmp",), False, "fedmp"),
}


@dataclass
class Inputs:
    spec: nn.NetworkSpec
    federations: dict          # seed -> (shards, global_test)


def set_up(workload: Workload, seed: int) -> tuple[Inputs, dict]:
    """Generate the workload's data and network; returns the inputs and the
    seconds spent in each step (``import`` is added by the caller)."""
    times = {}
    start = time.perf_counter()
    federations = {
        s: data.generate_federation(
            dataclasses.replace(workload.experiment.dataset_spec(), seed=s))
        for s in workload.seeds(seed)
    }
    times["generate_federation"] = time.perf_counter() - start
    start = time.perf_counter()
    spec = workload.experiment.network_spec()
    times["network_spec"] = time.perf_counter() - start
    start = time.perf_counter()
    nn.init_params(spec, seed)
    times["init_params"] = time.perf_counter() - start
    return Inputs(spec, federations), times


def federation_config(workload: Workload, seed: int, variant: str) -> federation.FederationConfig:
    cfg = workload.experiment.federation_config(seed, mode="fedmp")
    cfg.enable_sfmc, cfg.enable_cpgma, cfg.track_geometry = VARIANTS[variant]
    return cfg


@dataclass
class UnitResult:
    """Outputs and timings of one unit of a workload. A ``_ref`` time is in
    passes of the reference loop (``calibration.Clock``)."""

    wall_s: float = 0.0             # inside the unit's calls into fedmp
    run_ref: float = 0.0
    federation_s: float = 0.0       # inside run_federation
    federation_ref: float = 0.0
    federation_rounds: int = 0
    samples: int = 0                # processed by local_train
    up_bytes: int = 0
    down_bytes: int = 0
    ledger_rounds: int = 0          # rounds and few-shot stages with traffic
    accuracies: list = field(default_factory=list)     # the workload's reported runs
    federations: list = field(default_factory=list)    # (variant, seed, cfg, RunResult)
    few_shots: list = field(default_factory=list)      # (seed, cfg, FewShotResult)
    attacks: list = field(default_factory=list)        # (seed, [LeakageReport])


def run_unit(workload: Workload, seed: int, inputs: Inputs, clock) -> UnitResult:
    """One unit of work: every variant for every seed of the workload, then
    (for the gate) few-shot and the inversion attack on the fedmp models.
    ``clock`` (a ``calibration.Clock``) times each call into fedmp."""
    out = UnitResult()
    spec = inputs.spec

    def timed(fn, *args, **kwargs):
        result, wall, ref = clock.call(fn, *args, **kwargs)
        out.wall_s += wall
        out.run_ref += ref
        return result, wall, ref

    for s in workload.seeds(seed):
        shards, global_test = inputs.federations[s]
        for variant in workload.variants:
            cfg = federation_config(workload, s, variant)
            result, wall, ref = timed(federation.run_federation, cfg, shards, spec, global_test)
            out.federation_s += wall
            out.federation_ref += ref
            out.federation_rounds += cfg.rounds
            out.samples += cfg.rounds * cfg.local_epochs * sum(len(sh) for sh in shards)
            out.federations.append((variant, s, cfg, result))
            if variant == workload.accuracy_variant:
                out.accuracies.append(result.metrics[-1]["global_test_accuracy"])
    if workload.few_shot_and_attack:
        exp = workload.experiment
        for s in workload.seeds(seed):
            shards, global_test = inputs.federations[s]
            cfg = federation_config(workload, s, "fedmp")
            result, *_ = timed(federation.run_few_shot, cfg, shards, spec, global_test,
                               stage_epochs=exp.stage_epochs)
            out.samples += sum(exp.stage_epochs) * sum(len(sh) for sh in shards)
            out.few_shots.append((s, cfg, result))
        fedmp_params = {s: r.params for v, s, _, r in out.federations if v == "fedmp"}
        for s in workload.seeds(seed):
            configs = [
                privacy.AttackConfig(
                    split_index=layer, epochs=exp.attack_epochs,
                    train_fraction=exp.attack_train_fraction,
                    learning_rate=exp.attack_learning_rate, seed=s,
                )
                for layer in exp.attack_layers
            ]
            reports, *_ = timed(privacy.attack_report,
                                fedmp_params[s], spec, inputs.federations[s][0], configs)
            out.attacks.append((s, reports))
    ledgers = [r.ledger for *_, r in out.federations] + [r.ledger for *_, r in out.few_shots]
    entries = [e for lg in ledgers for e in lg.entries]
    out.up_bytes = sum(e.byte_count for e in entries if e.direction == protocol.UP)
    out.down_bytes = sum(e.byte_count for e in entries if e.direction == protocol.DOWN)
    out.ledger_rounds = sum(len(lg.rounds()) for lg in ledgers)
    return out


# ---------------------------------------------------------------------------
# output checks


def _ledger_rows(ledger) -> list:
    return [dataclasses.astuple(e) for e in ledger.entries]


def digest(unit: UnitResult) -> str:
    """SHA-256 over metrics rows, ledger entries and model blobs (and the
    attack reports), in the order the unit produced them."""
    h = hashlib.sha256()

    def add(obj):
        h.update(json.dumps(obj, sort_keys=True).encode())

    for variant, s, _, result in unit.federations:
        add([variant, s, result.metrics, _ledger_rows(result.ledger)])
        h.update(protocol.serialize_model(result.params))
    for s, _, result in unit.few_shots:
        add([s, result.metrics, _ledger_rows(result.ledger), result.ensemble_accuracy])
        for params in [result.server_params, *result.client_params]:
            h.update(protocol.serialize_model(params))
    for s, reports in unit.attacks:
        add([s, [dataclasses.asdict(rep) for rep in reports]])
    return h.hexdigest()


class _BankModel:
    """Closed-form occupancy of the server feature bank, per (client, class)."""

    def __init__(self, cfg, shards):
        self.cfg = cfg
        self.class_counts = {
            sh.client_id: np.bincount(sh.labels, minlength=cfg.num_classes) for sh in shards
        }
        self.held = {cid: np.zeros(cfg.num_classes, dtype=np.int64) for cid in self.class_counts}

    def upload(self, cid: int) -> None:
        self.held[cid] = np.minimum(self.cfg.bank_capacity, self.held[cid] + self.class_counts[cid])

    def foreign_records(self, cid: int) -> int:
        return sum(min(self.cfg.sample_count, int(self.held[other].sum()))
                   for other in self.held if other != cid)


def expected_federation_ledger(cfg, shards, spec, model_bytes: int) -> list:
    d = spec.embedding_dim
    bank = _BankModel(cfg, shards)
    sizes = {sh.client_id: len(sh) for sh in shards}
    rows = []
    for t in range(1, cfg.rounds + 1):
        for cid in sorted(sizes):
            rows.append((t, protocol.DOWN, protocol.KIND_MODEL, model_bytes, cid))
            if cfg.enable_sfmc:
                rows.append((t, protocol.DOWN, protocol.KIND_FEATURES,
                             protocol.feature_blob_bytes(bank.foreign_records(cid), d), cid))
            if cfg.enable_cpgma:
                rows.append((t, protocol.DOWN, protocol.KIND_PROTOTYPES,
                             protocol.prototype_blob_bytes(cfg.num_classes, d), cid))
        for cid in sorted(sizes):
            rows.append((t, protocol.UP, protocol.KIND_MODEL, model_bytes, cid))
            if cfg.enable_sfmc or cfg.enable_cpgma:
                rows.append((t, protocol.UP, protocol.KIND_FEATURES,
                             protocol.feature_blob_bytes(sizes[cid], d), cid))
                bank.upload(cid)
    return rows


def expected_few_shot_ledger(cfg, shards, spec, model_bytes: int, stage_epochs) -> list:
    d = spec.embedding_dim
    bank = _BankModel(cfg, shards)
    sizes = {sh.client_id: len(sh) for sh in shards}
    rows = []
    for stage in range(1, len(stage_epochs) + 1):
        for cid in sorted(sizes):
            rows.append((stage, protocol.UP, protocol.KIND_MODEL, model_bytes, cid))
        if stage == len(stage_epochs):
            continue
        for cid in sorted(sizes):
            rows.append((stage, protocol.UP, protocol.KIND_FEATURES,
                         protocol.feature_blob_bytes(sizes[cid], d), cid))
            bank.upload(cid)
        for cid in sorted(sizes):
            rows.append((stage, protocol.DOWN, protocol.KIND_MODEL, model_bytes, cid))
            rows.append((stage, protocol.DOWN, protocol.KIND_FEATURES,
                         protocol.feature_blob_bytes(bank.foreign_records(cid), d), cid))
            rows.append((stage, protocol.DOWN, protocol.KIND_PROTOTYPES,
                         protocol.prototype_blob_bytes(cfg.num_classes, d), cid))
    return rows


def check_outputs(workload: Workload, inputs: Inputs, unit: UnitResult) -> list[str]:
    """Ledger entries against the closed-form blob sizes, and final accuracy
    finite and above chance. Returns the failures found."""
    failures = []
    spec = inputs.spec
    chance = 1.0 / workload.experiment.classes

    def accuracy_ok(what: str, acc) -> None:
        if acc is None or not math.isfinite(acc) or acc <= chance:
            failures.append(f"{what}: final accuracy {acc!r} is not above chance {chance:.4f}")

    for variant, s, cfg, result in unit.federations:
        what = f"{variant} seed {s}"
        shards = inputs.federations[s][0]
        expected = expected_federation_ledger(
            cfg, shards, spec, protocol.model_blob_bytes(result.params))
        if sorted(_ledger_rows(result.ledger)) != sorted(expected):
            failures.append(f"{what}: ledger differs from the closed-form blob sizes")
        accuracy_ok(what, result.metrics[-1]["global_test_accuracy"])
    for s, cfg, result in unit.few_shots:
        what = f"few-shot seed {s}"
        shards = inputs.federations[s][0]
        expected = expected_few_shot_ledger(
            cfg, shards, spec, protocol.model_blob_bytes(result.server_params),
            workload.experiment.stage_epochs)
        if sorted(_ledger_rows(result.ledger)) != sorted(expected):
            failures.append(f"{what}: ledger differs from the closed-form blob sizes")
        accuracy_ok(what, result.ensemble_accuracy)
    return failures
