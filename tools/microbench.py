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
``local_train`` computes them once per call (``federation.unit_prototypes``,
timed on its own), since the prototypes stay fixed while a client trains.

``nn.backward.extractor`` is the backward that CPGMA's embedding gradient
then takes through the extractor's cache.

A local step's SFMC pass is ``federation.draw_foreign`` (64 of the sample's
rows: ``choice``, ``sort``, ``take``) followed by the ``.head`` cases, the
64-32-16-3 head's forward, cross-entropy and backward on the 64 drawn rows.
``nn.Parameters.add_scaled`` adds that head gradient, scaled, into a
gradient of the whole model, as ``local_train`` adds each auxiliary one.

The feature codecs, ``protocol.serialize_features`` and
``deserialize_features``, are timed on the blobs a round sends: ``.upload``
is one client's final-epoch rows (96 at S, 500 at M), ``.foreign`` a foreign
sample (192 at S, 1,824 at M) and ``.round`` every client's upload, one blob
each (3 x 96 rows at S, 20 x 500 = 10,000 at M). As in a run, the rows are
float32.

``geometry.mean_to_global`` is the round's geometry phase: it embeds every
client's rows (3 x 96 at S, 20 x 500 at M) and takes the directed Hausdorff
distance of each (client, class) cloud, in one kernel call per class.
``geometry.directed_distance`` is one such distance, from a class's global
cloud to one client's cloud. Memory is reported under ``peak_bytes``: the
``tracemalloc`` peak of one call at each scale, in bytes above what was
allocated before the call (``tracemalloc`` sees NumPy's arrays), of
``geometry.mean_to_global`` and of ``protocol.FeatureBank.full``, which fills
a new bank until every (client, class) slot holds ``BANK_CAPACITY`` rows: at
M, 20 x 3 x 512 float32 rows of 64. The latter is a memory figure only and
is not timed.

``import fedmp`` is timed apart from the scales: the median, over
``IMPORT_PROBES`` fresh interpreters, of the time the import statement takes
in each, as ``perfbench`` times its ``import`` step. It is reported under
``results["import"]``.

One warm-up call sets how many calls make up one timed repeat (at least
``MIN_TIME`` seconds), and each figure is the median over ``--repeats``
repeats of the time per call, in microseconds, measured with
``time.perf_counter``. OpenBLAS is capped at one thread, as in ``perfbench``,
whose ``machine_record`` describes the host; ``blas_kernel`` names the
OpenBLAS kernel the products ran on. The result is printed as one JSON line.
Tracing slows every allocation, so the peaks are taken after all timing.
"""

from __future__ import annotations

import argparse
import json
import os
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
MIN_TIME = 0.01
IMPORT_PROBES = 5
PEAK_CASES = ("geometry.mean_to_global", "protocol.FeatureBank.full")
UNTIMED = {"protocol.FeatureBank.full"}


def cases(scale: str) -> dict:
    """name -> zero-argument callable, on inputs of the given scale."""
    import numpy as np

    from fedmp import geometry, nn
    from fedmp.data import ClientShard
    from fedmp.federation import cpgma_embedding_grad, draw_foreign, unit_prototypes
    from fedmp.protocol import (
        FeatureBank,
        FeatureBatch,
        deserialize_features,
        serialize_features,
    )

    clients, per_client = SCALES[scale]
    rng = np.random.default_rng(0)
    spec = nn.mlp_spec(16, (64,), (32, 16), 3)
    params = nn.init_params(spec, 0)

    x = rng.normal(size=(BATCH, 16))
    y = rng.integers(0, 3, size=BATCH)
    logits, cache = nn.forward_full(params, spec, x)
    _, glogits = nn.softmax_cross_entropy(logits, y)
    grads = nn.backward(params, spec, cache, glogits)
    u, cache_f = nn.forward_extractor(params, spec, x)
    prototypes = rng.normal(size=(3, spec.embedding_dim))
    units = unit_prototypes(prototypes)
    _, grad_align = cpgma_embedding_grad(u, y, units)

    # every client's final-epoch embeddings, as float32 as they are uploaded
    inputs = rng.normal(size=(clients * per_client, 16))
    embeddings, _ = nn.forward_extractor(params, spec, inputs)
    uploads = [FeatureBatch.of_client(
        embeddings[c * per_client:(c + 1) * per_client].astype(np.float32),
        rng.integers(0, 3, size=per_client), c, 1) for c in range(clients)]

    def fill(bank):
        # every (client, class) slot full, so each further insert evicts as
        # many rows as it adds, as in the later rounds of a run
        for _ in range(2 * -(-3 * BANK_CAPACITY // per_client)):
            for batch in uploads:
                bank.insert(batch)
        return bank

    bank = fill(FeatureBank(BANK_CAPACITY))
    foreign = bank.sample(0, SAMPLE_COUNT, 0)
    blobs = {"upload": serialize_features(uploads[0]), "foreign": serialize_features(foreign)}
    round_blobs = [serialize_features(batch) for batch in uploads]
    draw_rng = np.random.default_rng(0)
    drawn = draw_foreign(foreign, BATCH, draw_rng)
    head_logits, head_cache = nn.forward_classifier(params, spec, drawn.embeddings)
    _, head_glogits = nn.softmax_cross_entropy(head_logits, drawn.labels)
    head_grads = nn.backward(params, spec, head_cache, head_glogits)
    total_grads = grads.copy()

    labels = np.concatenate([batch.labels for batch in uploads])
    shards = [ClientShard(c, inputs[c * per_client:(c + 1) * per_client], batch.labels)
              for c, batch in enumerate(uploads)]
    global_cloud = embeddings[labels == 0]
    client_cloud = embeddings[:per_client][uploads[0].labels == 0]

    state = nn.AdamState(learning_rate=3e-3, weight_decay=6e-3)
    return {
        "nn.forward.batch": lambda: nn.forward_full(params, spec, x),
        "nn.backward.batch": lambda: nn.backward(params, spec, cache, glogits),
        "federation.draw_foreign": lambda: draw_foreign(foreign, BATCH, draw_rng),
        "nn.forward.head": lambda: nn.forward_classifier(params, spec, drawn.embeddings),
        "nn.backward.head": lambda: nn.backward(params, spec, head_cache, head_glogits),
        "nn.backward.extractor": lambda: nn.backward(params, spec, cache_f, grad_align),
        "nn.Parameters.add_scaled": lambda: total_grads.add_scaled(head_grads, 0.37),
        "nn.softmax_cross_entropy.batch": lambda: nn.softmax_cross_entropy(logits, y),
        "nn.softmax_cross_entropy.head": lambda: nn.softmax_cross_entropy(
            head_logits, drawn.labels),
        "nn.adam_step": lambda: nn.adam_step(params, grads, state),
        "federation.unit_prototypes": lambda: unit_prototypes(prototypes),
        "federation.cpgma_embedding_grad": lambda: cpgma_embedding_grad(u, y, units),
        "protocol.FeatureBank.insert": lambda: bank.insert(uploads[0]),
        "protocol.FeatureBank.sample": lambda: bank.sample(0, SAMPLE_COUNT, 0),
        "protocol.FeatureBank.full": lambda: fill(FeatureBank(BANK_CAPACITY)),
        "protocol.serialize_features.upload": lambda: serialize_features(uploads[0]),
        "protocol.serialize_features.foreign": lambda: serialize_features(foreign),
        "protocol.serialize_features.round": lambda: [serialize_features(b) for b in uploads],
        "protocol.deserialize_features.upload": lambda: deserialize_features(blobs["upload"]),
        "protocol.deserialize_features.foreign": lambda: deserialize_features(blobs["foreign"]),
        "protocol.deserialize_features.round": lambda: [deserialize_features(b)
                                                        for b in round_blobs],
        "geometry.directed_distance": lambda: geometry.directed_distance(
            global_cloud, client_cloud),
        "geometry.mean_to_global": lambda: geometry.mean_to_global(params, spec, shards),
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
    from run import machine_record           # perfbench's record of the host

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
