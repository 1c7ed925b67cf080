"""Per-layer tracing of fedmp from outside the program.

Inside ``with Tracer():``, the public functions listed in ``TARGETS``
are replaced by timing wrappers in every fedmp module that binds them, so a
name imported with ``from ... import`` is wrapped where it is called. Methods
are wrapped on their class. Each wrapper records a span: its inclusive time,
its self time (inclusive time minus the time of wrapped calls nested inside
it) and exact work counts derived from the call's arguments and result.
Leaving the ``with`` block puts every original back, so untraced runs pay
nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from fedmp import cli, config, data, federation, geometry, nn, privacy, protocol

MODULES = (nn, data, protocol, federation, geometry, privacy, config, cli)


def _affine_flops(spec, layer_indices, rows: int, per_entry: int) -> int:
    total = 0
    for idx in layer_indices:
        layer = spec.layers[idx]
        if layer[0] == nn.AFFINE:
            total += per_entry * rows * layer[1] * layer[2]
    return total


def _forward(counts, args, kwargs, result):
    spec = args[1]
    start = args[3] if len(args) > 3 else kwargs.get("start", 0)
    stop = args[4] if len(args) > 4 else kwargs.get("stop")
    stop = len(spec.layers) if stop is None else stop
    counts["flops"] += _affine_flops(spec, range(start, stop), result[0].shape[0], 2)


def _backward(counts, args, kwargs, result):
    spec, cache = args[1], args[2]
    for idx, saved in cache:
        layer = spec.layers[idx]
        if layer[0] == nn.AFFINE:
            counts["flops"] += 4 * saved.shape[0] * layer[1] * layer[2]


def _bank_insert(counts, args, kwargs, result):
    bank = args[0]
    counts["records"] += len(args[1])
    counts["peak_records"] = max(counts["peak_records"], len(bank))


def _bank_sample(counts, args, kwargs, result):
    counts["records"] += len(result)


def _serialized(counts, args, kwargs, result):
    counts["bytes"] += len(result)


def _local_train(counts, args, kwargs, result):
    shard = args[2]
    epochs = args[4] if len(args) > 4 else kwargs["epochs"]
    counts["samples"] += len(shard) * epochs
    counts["records_out"] += sum(len(batch) for batch in result[0])


def _sfmc(counts, args, kwargs, result):
    foreign = args[2] if len(args) > 2 else kwargs["foreign"]
    counts["rows"] += len(foreign)


def _points(cloud) -> int:
    pts = cloud.points if isinstance(cloud, geometry.PointCloud) else cloud
    return len(pts)


def _hausdorff(counts, args, kwargs, result):
    counts["point_pairs"] += _points(args[0]) * _points(args[1])


# (layer, owner, attribute, counter, count names)
TARGETS = (
    ("nn", nn, "forward", _forward, ("flops",)),
    ("nn", nn, "backward", _backward, ("flops",)),
    ("nn", nn, "adam_step", None, ()),
    ("nn", nn, "softmax_cross_entropy", None, ()),
    ("nn", nn, "init_params", None, ()),
    ("protocol", protocol.FeatureBank, "insert", _bank_insert, ("records", "peak_records")),
    ("protocol", protocol.FeatureBank, "sample", _bank_sample, ("records",)),
    ("protocol", protocol, "serialize_features", _serialized, ("bytes",)),
    ("protocol", protocol, "serialize_model", None, ()),
    ("protocol", protocol, "serialize_prototypes", None, ()),
    ("protocol", protocol.CommLedger, "record", None, ()),
    ("protocol", protocol.CommLedger, "total", None, ()),
    ("federation", federation, "local_train", _local_train, ("samples", "records_out")),
    ("federation", federation, "compute_sfmc_loss", _sfmc, ("rows",)),
    ("federation", federation, "cpgma_embedding_grad", None, ()),
    ("federation", federation, "update_client_center", None, ()),
    ("federation", federation, "update_global_prototype", None, ()),
    ("federation", federation, "aggregate_models", None, ()),
    ("federation", federation, "evaluate_accuracy", None, ()),
    ("federation", federation, "one_shot_prototypes", None, ()),
    ("federation", federation, "ensemble_predict", None, ()),
    ("federation", federation, "run_federation", None, ()),
    ("federation", federation, "run_few_shot", None, ()),
    ("geometry", geometry, "manifold_report", None, ()),
    ("geometry", geometry, "class_manifolds", None, ()),
    ("geometry", geometry, "hausdorff_distance", _hausdorff, ("point_pairs",)),
    ("privacy", privacy, "attack_report", None, ()),
    ("privacy", privacy, "train_decoder", None, ()),
)


def span_name(layer: str, owner, attr: str) -> str:
    return f"{layer}.{owner.__name__}.{attr}" if isinstance(owner, type) else f"{layer}.{attr}"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Span statistics for one traced stretch of work."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.top_level_s = 0.0
        self._stack: list[list[float]] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn, counter, count_names):
        stats = self.spans.setdefault(name, SpanStats(counts=dict.fromkeys(count_names, 0)))
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_level_s += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - child[0]
            if counter is not None:
                counter(stats.counts, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        for layer, owner, attr, counter, count_names in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name(layer, owner, attr), original, counter, count_names)
            homes = [owner] if isinstance(owner, type) else [
                mod for mod in MODULES if getattr(mod, attr, None) is original
            ]
            for home in homes:
                self._restore.append((home, attr, original))
                setattr(home, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._restore:
            home, attr, original = self._restore.pop()
            setattr(home, attr, original)
        return False
