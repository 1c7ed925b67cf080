"""The names and argument positions that ``perfbench/tracing.py`` relies on.

The tracer replaces every function in its ``TARGETS`` by name and reads some
arguments of ``local_train``, ``compute_sfmc_loss`` and ``FeatureBank.insert``
by position. It counts ``nn.forward``'s and ``nn.backward``'s flops from
``spec.layers``, ``nn.AFFINE``, ``forward``'s ``start`` and ``stop`` (fourth
and fifth positional arguments) and the cache's ``(layer index, array)``
entries. A renamed function, a reordered parameter or a changed cache would
otherwise fail, or count wrong, only in a traced benchmark run.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

from fedmp import federation, nn, privacy
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


def test_tracer_resolves_every_target_and_counts_samples(monkeypatch):
    tracing = load_tracing()
    shards, global_test = generate_federation(TINY.dataset_spec())
    spec = TINY.network_spec()
    rows = sum(len(shard) for shard in shards)
    drawn = []          # per local_train call, the rows its steps draw

    def spy(params, spec, shard, config, epochs, rng, foreign=None, *args, **kwargs):
        sample = len(foreign) if config.enable_sfmc and foreign else 0
        batches = [min(config.batch_size, len(shard) - start)
                   for start in range(0, len(shard), config.batch_size)]
        drawn.append(epochs * sum(min(batch, sample) for batch in batches))
        return original(params, spec, shard, config, epochs, rng, foreign, *args, **kwargs)

    original = federation.local_train
    monkeypatch.setattr(federation, "local_train", spy)
    with tracing.Tracer() as tracer:            # resolves every TARGETS entry
        run_federation(TINY.federation_config(0), shards, spec, global_test)
        run_few_shot(TINY.federation_config(0, mode="fewshot"), shards, spec, global_test,
                     stage_epochs=TINY.stage_epochs)
    trained = tracer.spans["federation.local_train"]
    epochs = TINY.rounds * TINY.local_epochs + sum(TINY.stage_epochs)
    assert trained.counts["samples"] == epochs * rows
    assert trained.calls == (TINY.rounds + len(TINY.stage_epochs)) * TINY.clients
    # every local step makes one head pass, with or without foreign rows;
    # the tracer counts ``len(args[2])``: they must stay its third argument
    steps = epochs * sum(-(-len(shard) // TINY.batch_size) for shard in shards)
    head = tracer.spans["federation.compute_sfmc_loss"]
    assert head.calls == steps
    assert list(inspect.signature(federation.compute_sfmc_loss).parameters)[2] == "foreign"
    assert 0 < head.counts["rows"] == sum(drawn)
    # the tracer counts ``len(args[1])``: the batch must stay insert's first
    # argument. Every round and every stage but the last uploads each row once
    inserted = tracer.spans["protocol.FeatureBank.insert"]
    uploads = TINY.rounds + len(TINY.stage_epochs) - 1
    assert inserted.counts["records"] == uploads * rows
    assert inserted.calls == uploads * TINY.clients
    # the round's geometry phase is the span the tracer names; few-shot has none
    assert tracer.spans["geometry.manifold_report"].calls == TINY.rounds


def test_tracer_counts_the_flops_the_widths_give(monkeypatch):
    """Each traced ``nn.forward`` counts 2 flops per row per multiply-add of
    the affine layers it runs, and each ``nn.backward`` 4 per cached row of
    each affine layer in its cache: the counts derived here from the widths
    and each call's rows, over every kind of call a run and an attack make
    (extractor, head, whole network, odd attack splits, the decoder)."""
    tracing = load_tracing()
    shards, global_test = generate_federation(TINY.dataset_spec())
    spec = TINY.network_spec()
    real_forward, real_backward = nn.forward, nn.backward
    want = {"forward": [0, 0], "backward": [0, 0]}       # calls, flops

    def macs(widths, layer):            # multiply-adds per row of affine ``layer``
        return widths[layer // 2] * widths[layer // 2 + 1]

    def forward(params, spec, x, start=0, stop=None):
        out, cache = real_forward(params, spec, x, start, stop)
        stop = 2 * len(spec.widths) - 3 if stop is None else stop
        affine = range(start + start % 2, stop, 2)
        want["forward"][0] += 1
        want["forward"][1] += 2 * len(out) * sum(macs(spec.widths, idx) for idx in affine)
        return out, cache

    def backward(params, spec, cache, upstream, **kwargs):
        want["backward"][0] += 1
        want["backward"][1] += sum(4 * len(saved) * macs(spec.widths, idx)
                                   for idx, saved in cache if idx % 2 == 0)
        return real_backward(params, spec, cache, upstream, **kwargs)

    monkeypatch.setattr(nn, "forward", forward)
    monkeypatch.setattr(nn, "backward", backward)
    attacks = [privacy.AttackConfig(split_index=split, epochs=2) for split in (1, 2, 3)]
    with tracing.Tracer() as tracer:
        result = run_federation(TINY.federation_config(0), shards, spec, global_test)
        privacy.attack_report(result.params, spec, shards, attacks)
    for name in ("forward", "backward"):
        span = tracer.spans[f"nn.{name}"]
        assert span.calls > 0
        assert [span.calls, span.counts["flops"]] == want[name]
