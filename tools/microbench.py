"""Time fedmp's training-step primitives at the benchmark's two scales.

    python3 tools/microbench.py [--repeats 7]

Run it from the root of a source checkout; it imports ``fedmp`` from
``src/``. Each primitive is called on fixed inputs built from the acceptance
network (16-d input, extractor (64), head (32, 16), 3 classes):

- ``S``: a 64-row mini-batch, and a foreign sample of 192 rows (3 clients,
  96 rows sampled from each other client);
- ``M``: the same mini-batch, a foreign sample of 1,824 rows (20 clients x 96
  rows) and a 20 x 500-row bank.

A local step's CPGMA pass is ``federation.cpgma_embedding_grad`` on the
mini-batch's embeddings with the unit prototypes already computed:
``local_train`` computes them once per prototypes array
(``federation.unit_prototypes``, timed on its own), since the prototypes
stay fixed while a round's clients train.
The kernel makes no BLAS call: row norms and cosines, per-class sums and
one elementwise gradient over the 64 x 64 batch.

``nn.backward.extractor`` is the step's one extractor backward, which takes
the gradient at the split: the local rows' part of the head's, plus CPGMA's
embedding gradient scaled by its weight. Every ``nn.backward`` case writes
into one gradient buffer, as a training loop reuses one.

A local step's head pass with SFMC runs over the 64 local embeddings
stacked on 64 rows drawn from the foreign sample:
``federation.compute_sfmc_loss`` times it as ``local_train`` makes it, on
a ``federation.Workspace`` head whose input and labels already hold the
stacked rows (the stacked forward and the split cross-entropy). Its parts
are timed through the checked ``nn`` functions as the ``.head`` cases: the
64-32-16-3 head's forward (``nn.forward`` from the split), the two-part
cross-entropy and the backward that carries the gradient to the split, all
on the 128 stacked rows. The sample arrives as float16; ``local_train``
upcasts it to float64 once per call, ``federation.upcast_foreign``, through
``protocol.upcast``'s float16 -> float32 table, so each draw is float64
already.

``local_train`` runs those steps fused, on the buffers of a
``federation.Workspace``, so its steps call none of the checked ``nn``
functions above; its whole calls are timed on one client's shard (96 rows at S, 500
at M) for the benchmark's 4 epochs of 64-row batches, from a copy of the
same model each call: ``.warm`` with SFMC on the scale's foreign sample and
CPGMA on warm prototypes, as in a later round, and ``.cold`` as round 1
runs, with no foreign sample and every prototype cold, so neither module
runs. Both make a workspace per call, as a run's first call does;
``.reused`` is ``.warm`` in one workspace made before timing, the model
copied into it each call, as a run's later calls are.

The feature codecs, ``protocol.serialize_features`` and
``deserialize_features``, are timed on the blobs a round sends: ``.upload``
is one client's final-epoch rows (96 at S, 500 at M), ``.foreign`` a foreign
sample (192 at S, 1,824 at M) and ``.round`` every client's upload, one blob
each (3 x 96 rows at S, 20 x 500 = 10,000 at M). As in a run, uploads are
encoded from float64 rows, rounding each value to float16 once, and foreign
samples from the bank's float16 rows.

``federation.update_centers.upload`` is the server's center pass for one
client's upload, as decoded: the rows upcast to float64 once, then one
``update_client_center`` EMA step per class present in each 64-row
mini-batch, 8 batches x 3 classes at M (500 rows) and 96 rows at S.

``privacy.decoder_step.layer2`` and ``.layer4`` are one step of the
inversion attack's decoder fit, ``privacy.train_decoder``, at each layer
the benchmark attacks: ``nn.forward_full``, ``nn.backward`` into one
gradient buffer and ``nn.adam_step``, on the 48 rows a 96-row shard trains
the decoder on, at the decoder's widths, (64, 16) and (32, 64, 16). These
are the only ``nn.backward`` calls a benchmark run makes; the case is the
same at both scales.

``federation.evaluate_accuracy`` scores a test set of every client's rows
(3 x 96 = 288 at S, 20 x 500 = 10,000 at M), in blocks of at most 1,025 rows,
as a round scores its global test set.

``geometry.manifold_report`` is the round's geometry phase: it embeds every
client's rows (3 x 96 at S, 20 x 500 at M) and takes the directed Hausdorff
distance of each (client, class) cloud, one class at a time, in one kernel
call per class. ``geometry._directed_many`` is that call for class 0, from
the class's global cloud to each of its client clouds: 3 clouds of about 32
rows at S, under ``DENSE_PAIRS``, and 20 of about 167 at M, over it. The
network is untrained, so the kernel keeps more candidate rows than on a
trained one.

Memory is reported under ``peak_bytes``: the ``tracemalloc`` peak of one
call at each scale, in bytes above what was allocated before the call
(``tracemalloc`` sees NumPy's arrays), of ``federation.evaluate_accuracy``, of
``geometry.manifold_report`` and of ``protocol.FeatureBank.full``, which makes
a bank of the scale's shape, its arrays allocated whole, and fills it until
every (client, class) slot holds ``BANK_CAPACITY`` rows: at M, 20 x 3 x 512
rows of 64. A bank row holds its float16 embedding (128 B at width 64), its
int64 round and its int64 place in the client's pool, 144 B; its label and
client id follow from where it sits. The latter is a memory figure only and
is not timed.

``import fedmp`` is timed apart from the scales: the median, over
``IMPORT_PROBES`` fresh interpreters, of the time the import statement takes
in each, as ``perfbench`` times its ``import`` step. It is reported under
``results["import"]``.

One warm-up call sets how many calls make up one timed repeat (at least
``MIN_TIME`` seconds), and each figure is the median over ``--repeats``
repeats of the time per call, in microseconds, measured with
``time.perf_counter``. OpenBLAS is capped at one thread, as in ``perfbench``;
``machine`` describes the host with the fields of ``perfbench``'s record
but SciPy's version, which fedmp does not import, and ``blas_kernel``
names the OpenBLAS kernel the products ran on. The result is printed as one
JSON line. Tracing slows every allocation, so the peaks are taken after all
timing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALES = {"S": (3, 96), "M": (20, 500)}       # clients, samples per client
SAMPLE_COUNT = 96
BANK_CAPACITY = 512
BATCH = 64
DECODER_ROWS = 48           # the attack's training half of a 96-row shard
EPOCHS = 4
MIN_TIME = 0.01
IMPORT_PROBES = 5
PEAK_CASES = ("federation.evaluate_accuracy", "geometry.manifold_report",
              "protocol.FeatureBank.full")
UNTIMED = {"protocol.FeatureBank.full"}


def cases(scale: str) -> dict:
    """name -> zero-argument callable, on inputs of the given scale."""
    import numpy as np

    from fedmp import geometry, nn
    from fedmp.data import ClientShard
    from fedmp.federation import (
        FederationConfig,
        Workspace,
        _update_centers,
        compute_sfmc_loss,
        cpgma_embedding_grad,
        evaluate_accuracy,
        local_train,
        unit_prototypes,
    )
    from fedmp.protocol import (
        FeatureBank,
        FeatureBatch,
        deserialize_features,
        serialize_features,
        upcast,
    )
    from fedmp.privacy import intercepted_features, mirror_decoder_spec

    clients, per_client = SCALES[scale]
    rng = np.random.default_rng(0)
    spec = nn.NetworkSpec((16, 64, 32, 16, 3), split_index=2)      # widths, then the split
    params = nn.init_params(spec, 0)

    x = rng.normal(size=(BATCH, 16))
    y = rng.integers(0, 3, size=BATCH)
    logits, cache = nn.forward_full(params, spec, x)
    _, glogits = nn.softmax_cross_entropy(logits, y)
    grads = nn.backward(params, spec, cache, glogits)
    out = params.zeros_like()           # as ``local_train`` reuses one buffer
    u, cache_f = nn.forward_extractor(params, spec, x)
    prototypes = rng.normal(size=(3, spec.embedding_dim))
    units = unit_prototypes(prototypes)
    _, grad_align = cpgma_embedding_grad(u, y, units)

    # every client's final-epoch embeddings, float64 as they are collected,
    # and as the server decodes them
    inputs = rng.normal(size=(clients * per_client, 16))
    embeddings, _ = nn.forward_extractor(params, spec, inputs)
    uploads = [FeatureBatch(embeddings[c * per_client:(c + 1) * per_client],
                            rng.integers(0, 3, size=per_client)) for c in range(clients)]
    round_blobs = [serialize_features(batch) for batch in uploads]
    decoded = [deserialize_features(blob) for blob in round_blobs]

    def fill():
        # a new bank with every (client, class) slot full, so each further
        # insert evicts as many rows as it adds, as in the later rounds of a run
        bank = FeatureBank(BANK_CAPACITY, clients, 3, spec.embedding_dim)
        for t in range(2 * -(-3 * BANK_CAPACITY // per_client)):
            for c, batch in enumerate(decoded):
                bank.insert(batch, c, t + 1)
        return bank

    bank = fill()
    foreign = bank.sample(0, SAMPLE_COUNT, 0)           # float16, as decoded
    blobs = {"upload": round_blobs[0], "foreign": serialize_features(foreign)}
    upcast_foreign = upcast(foreign.embeddings)
    picks = np.sort(np.random.default_rng(0).choice(len(foreign), BATCH, replace=False))
    stacked = np.concatenate((u, upcast_foreign.take(picks, axis=0)))
    stacked_labels = np.concatenate((y, foreign.labels.take(picks)))
    head_logits, head_cache = nn.forward(params, spec, stacked, spec.split_index)
    _, head_glogits = nn.softmax_cross_entropy(head_logits, stacked_labels, split=BATCH)
    # the head pass as ``local_train`` makes it: the workspace head's input
    # and labels hold the local rows, then the drawn ones
    head = Workspace(params, spec, BATCH).head
    head.input[:2 * BATCH], head.labels[:2 * BATCH] = stacked, stacked_labels

    labels = np.concatenate([batch.labels for batch in uploads])
    shards = [ClientShard(c, inputs[c * per_client:(c + 1) * per_client], batch.labels)
              for c, batch in enumerate(uploads)]
    cloud, parts = geometry._class_cloud(params, spec, shards, 0, int(np.sum(labels == 0)))
    sizes = [len(part) for part in parts.values()]

    state = nn.AdamState(learning_rate=3e-3, weight_decay=6e-3)
    center_config = FederationConfig(batch_size=BATCH)
    train_config = FederationConfig(num_clients=clients, batch_size=BATCH, learning_rate=3e-3,
                                    weight_decay=6e-3, sample_count=SAMPLE_COUNT)

    reused = Workspace(params.copy(), spec, BATCH)

    def train(foreign, prototypes, workspace=None):
        if workspace is None:
            model = params.copy()
        else:                   # as ``federation._train`` copies the server model in
            model = workspace.params
            model.vec[...] = params.vec
        return local_train(model, spec, shards[0], train_config, EPOCHS,
                           np.random.default_rng(0), foreign=foreign, prototypes=prototypes,
                           round_tag=2, workspace=workspace)
    centers = np.zeros((3, spec.embedding_dim))

    def decoder_step(split: int):
        # as ``privacy.train_decoder`` steps on a shard's training rows
        dec_spec = mirror_decoder_spec(spec, split)
        dec_params = nn.init_params(dec_spec, 0)
        dec_grads = dec_params.zeros_like()
        dec_state = nn.AdamState(learning_rate=1e-3, weight_decay=0.0)
        target = inputs[:DECODER_ROWS]
        z = intercepted_features(params, spec, target, split)

        def step():
            out, cache = nn.forward_full(dec_params, dec_spec, z)
            nn.backward(dec_params, dec_spec, cache, 2.0 * (out - target) / out.size,
                        out=dec_grads)
            nn.adam_step(dec_params, dec_grads, dec_state)
        return step
    return {
        "nn.forward.batch": lambda: nn.forward_full(params, spec, x),
        "nn.backward.batch": lambda: nn.backward(params, spec, cache, glogits, out=out),
        "federation.upcast_foreign": lambda: upcast(foreign.embeddings),
        "federation.compute_sfmc_loss": lambda: compute_sfmc_loss(
            head, head.input[:BATCH], head.input[BATCH:2 * BATCH]),
        "nn.forward.head": lambda: nn.forward(params, spec, stacked, spec.split_index),
        "nn.backward.head": lambda: nn.backward(params, spec, head_cache, head_glogits,
                                                out=out, input_grad=True),
        "nn.backward.extractor": lambda: nn.backward(params, spec, cache_f, grad_align,
                                                     out=out),
        "nn.softmax_cross_entropy.batch": lambda: nn.softmax_cross_entropy(logits, y),
        "nn.softmax_cross_entropy.head": lambda: nn.softmax_cross_entropy(
            head_logits, stacked_labels, split=BATCH),
        "nn.adam_step": lambda: nn.adam_step(params, grads, state),
        "privacy.decoder_step.layer2": decoder_step(2),
        "privacy.decoder_step.layer4": decoder_step(4),
        "federation.unit_prototypes": lambda: unit_prototypes(prototypes),
        "federation.cpgma_embedding_grad": lambda: cpgma_embedding_grad(u, y, units),
        "federation.update_centers.upload": lambda: _update_centers(centers, decoded[0],
                                                                    center_config),
        "protocol.FeatureBank.insert": lambda: bank.insert(decoded[0], 0, 1),
        "protocol.FeatureBank.sample": lambda: bank.sample(0, SAMPLE_COUNT, 0),
        "protocol.FeatureBank.full": fill,
        "protocol.serialize_features.upload": lambda: serialize_features(uploads[0]),
        "protocol.serialize_features.foreign": lambda: serialize_features(foreign),
        "protocol.serialize_features.round": lambda: [serialize_features(b) for b in uploads],
        "protocol.deserialize_features.upload": lambda: deserialize_features(blobs["upload"]),
        "protocol.deserialize_features.foreign": lambda: deserialize_features(blobs["foreign"]),
        "protocol.deserialize_features.round": lambda: [deserialize_features(b)
                                                        for b in round_blobs],
        "federation.evaluate_accuracy": lambda: evaluate_accuracy(params, spec, inputs, labels),
        "geometry._directed_many": lambda: geometry._directed_many(cloud, cloud, sizes),
        "geometry.manifold_report": lambda: geometry.manifold_report(params, spec, shards),
        "federation.local_train.warm": lambda: train(foreign, prototypes),
        "federation.local_train.cold": lambda: train(None, np.zeros_like(prototypes)),
        "federation.local_train.reused": lambda: train(foreign, prototypes, reused),
    }


def time_call(fn, repeats: int) -> float:
    """Median seconds per call over ``repeats`` timed repeats."""
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    number = max(1, int(MIN_TIME / once)) if once > 0 else 1
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples)


def peak_bytes(fn) -> int:
    """``tracemalloc`` peak of one call, above what was allocated before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def import_time(probes: int) -> float:
    """Median seconds of ``import fedmp`` over ``probes`` fresh interpreters."""
    code = ("import time; start = time.perf_counter(); import fedmp; "
            "print(time.perf_counter() - start)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout)
        for _ in range(probes))


def machine_record(loadavg) -> dict:
    """``perfbench/run.py``'s ``machine_record`` without its SciPy version."""
    import numpy
    from run import BLAS_THREADS, blas_threads     # perfbench's; neither imports SciPy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "loadavg_start": list(loadavg),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from blas_kernel import blas_kernel

    results = {"import": {"import fedmp": round(import_time(IMPORT_PROBES) * 1e6, 2)}}
    scales = {scale: cases(scale) for scale in SCALES}
    results.update({
        scale: {name: round(time_call(fn, args.repeats) * 1e6, 2)
                for name, fn in fns.items() if name not in UNTIMED}
        for scale, fns in scales.items()
    })
    peaks = {scale: {name: peak_bytes(fns[name]) for name in PEAK_CASES}
             for scale, fns in scales.items()}
    print(json.dumps({"unit": "us_per_call", "repeats": args.repeats,
                      "machine": machine_record(os.getloadavg()),
                      "blas_kernel": blas_kernel(),
                      "results": results, "peak_bytes": peaks}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
