"""The names and argument positions that ``perfbench/tracing.py`` relies on.

The tracer replaces every function in its ``TARGETS`` by name and reads some
arguments of ``local_train`` and ``FeatureBank.insert`` by position. A
renamed function or a reordered parameter would otherwise fail only in a
traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from fedmp.config import ExperimentConfig
from fedmp.data import generate_federation
from fedmp.federation import run_federation, run_few_shot

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

TINY = ExperimentConfig(
    input_dim=4, classes=3, clients=2, samples_per_client=12,
    hidden_extractor=(6,), hidden_classifier=(5,),
    rounds=2, local_epochs=2, batch_size=4, sample_count=4, stage_epochs=(1, 2),
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_resolves_every_target_and_counts_samples():
    tracing = load_tracing()
    shards, global_test = generate_federation(TINY.dataset_spec())
    spec = TINY.network_spec()
    rows = sum(len(shard) for shard in shards)
    with tracing.Tracer() as tracer:            # resolves every TARGETS entry
        run_federation(TINY.federation_config(0), shards, spec, global_test)
        run_few_shot(TINY.federation_config(0, mode="fewshot"), shards, spec, global_test,
                     stage_epochs=TINY.stage_epochs)
    trained = tracer.spans["federation.local_train"]
    epochs = TINY.rounds * TINY.local_epochs + sum(TINY.stage_epochs)
    assert trained.counts["samples"] == epochs * rows
    assert trained.calls == (TINY.rounds + len(TINY.stage_epochs)) * TINY.clients
    assert tracer.spans["federation.compute_sfmc_loss"].calls > 0
    # the tracer counts ``len(args[1])``: the batch must stay insert's first
    # argument. Every round and every stage but the last uploads each row once
    inserted = tracer.spans["protocol.FeatureBank.insert"]
    uploads = TINY.rounds + len(TINY.stage_epochs) - 1
    assert inserted.counts["records"] == uploads * rows
    assert inserted.calls == uploads * TINY.clients
    # the round's geometry phase is the span the tracer names; few-shot has none
    assert tracer.spans["geometry.manifold_report"].calls == TINY.rounds
