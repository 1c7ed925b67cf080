"""The FedMP training loop and its building blocks.

Implements the three client losses with self-adaptive weighting, the two-level
EMA prototype maintenance on the server, the per-round client/server protocol
with exact byte accounting, dataset-size-weighted aggregation, and the
three-communication few-shot schedule with a final model ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import geometry, nn
from .data import ClientShard
from .protocol import (
    DOWN,
    UP,
    KIND_FEATURES,
    KIND_MODEL,
    KIND_PROTOTYPES,
    CommLedger,
    FeatureBank,
    FeatureBatch,
    deserialize_features,
    deserialize_prototypes,
    model_blob_bytes,
    serialize_features,
    serialize_prototypes,
)


OPTIMIZERS = ("adam", "sgd")
EPS_GUARD = 1e-8             # keeps the adaptive weights and unit vectors finite
EVAL_ROWS = 1024             # rows per forward when a whole set is scored


class DivergenceError(ValueError):
    """Local training met a non-finite loss or gradient. Raised by
    ``local_train`` naming the epoch and batch; the round loops add the round
    or few-shot stage, the client and the phase."""


@dataclass
class TrainingConfig:
    """The training settings. ``config.ExperimentConfig`` reads them as config
    keys, and ``FederationConfig`` adds the run's shape and seed."""

    rounds: int = 30
    local_epochs: int = 2
    batch_size: int = 64
    mu_client: float = 0.5
    mu_server: float = 0.7
    learning_rate: float = 1e-4
    weight_decay: float = 5e-4
    enable_sfmc: bool = True
    enable_cpgma: bool = True
    sample_count: int = 64
    bank_capacity: int = 512
    optimizer: str = "adam"
    track_geometry: bool = True


@dataclass
class FederationConfig(TrainingConfig):
    num_clients: int = 3
    num_classes: int = 3
    seed: int = 0

    def __post_init__(self):
        # each message starts with the field it is about
        for name in ("mu_client", "mu_server"):
            if not 0 < getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in (0, 1]")
        for name, low in (("rounds", 1), ("num_clients", 1), ("local_epochs", 1),
                          ("batch_size", 1), ("bank_capacity", 1), ("sample_count", 0),
                          ("learning_rate", 0), ("weight_decay", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer {self.optimizer!r} is not one of {OPTIMIZERS}")
        for name in ("num_clients", "num_classes"):     # u16 fields of feature blobs
            if getattr(self, name) > 0xFFFF:
                raise ValueError(f"{name} must be <= 65535, got {getattr(self, name)}")


@dataclass
class RunResult:
    params: nn.Parameters
    metrics: list[dict]
    ledger: CommLedger
    snapshots: dict = field(default_factory=dict)


@dataclass
class FewShotResult:
    client_params: list[nn.Parameters]
    server_params: nn.Parameters
    metrics: list[dict]
    ledger: CommLedger
    ensemble_accuracy: float


def combine_losses(l_local: float, l_sfmc: float | None,
                   l_cpgma: float | None) -> tuple[float, float]:
    """The self-adaptive weights ``(w_s, w_c)``: the total loss is
    ``l_local + w_s * l_sfmc + w_c * l_cpgma``, each auxiliary term scaled by
    the detached magnitude ratio |local| / (|aux| + eps), so its contribution
    tracks the primary loss without flipping the sign of a negative auxiliary
    loss. A module that is off passes ``None`` or 0.0 and gets weight 0."""
    vals = [l_local, l_sfmc or 0.0, l_cpgma or 0.0]
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"non-finite loss inputs {vals}")
    l_sfmc, l_cpgma = float(vals[1]), float(vals[2])
    w_s = abs(l_local) / (abs(l_sfmc) + EPS_GUARD) if l_sfmc != 0.0 else 0.0
    w_c = abs(l_local) / (abs(l_cpgma) + EPS_GUARD) if l_cpgma != 0.0 else 0.0
    return w_s, w_c


def compute_sfmc_loss(params: nn.Parameters, spec: nn.NetworkSpec,
                      foreign: FeatureBatch):
    """Mean cross-entropy of the classifier head on sampled foreign embeddings.
    The gradient is laid out like the whole model with +0.0 in the extractor's
    tensors; the extractor never sees these rows. An empty ``foreign``
    raises ``ValueError``."""
    logits, cache = nn.forward_classifier(params, spec, foreign.embeddings)
    loss, glogits = nn.softmax_cross_entropy(logits, foreign.labels)
    return loss, nn.backward(params, spec, cache, glogits)


def draw_foreign(foreign: FeatureBatch, rows: int, rng: np.random.Generator) -> FeatureBatch:
    """``rows`` distinct rows of ``foreign``, kept in sample order, or all of
    ``foreign`` when it has no more rows than that."""
    if len(foreign) <= rows:
        return foreign
    return foreign.take(np.sort(rng.choice(len(foreign), rows, replace=False)))


class UnitPrototypes(NamedTuple):
    """The prototypes at unit length, as ``cpgma_embedding_grad`` reads them."""

    vectors: list          # per class its own (d,) array, or None while cold
    rows: np.ndarray       # (K, d): the same values, zero rows for cold classes


def unit_prototypes(prototypes: np.ndarray) -> UnitPrototypes:
    """Each class's prototype scaled to unit length; a prototype whose norm is
    below ``EPS_GUARD`` is cold. Every unit vector is its own ``p / p_norm``
    array: on some OpenBLAS kernels a product's bits depend on where its
    vector starts, so a row of one 2-D array would not reproduce them."""
    vectors = []
    rows = np.zeros(np.shape(prototypes))
    for cls, p in enumerate(prototypes):
        p_norm = np.linalg.norm(p)
        if p_norm < EPS_GUARD:
            vectors.append(None)
            continue
        vectors.append(p / p_norm)
        rows[cls] = vectors[-1]
    return UnitPrototypes(vectors, rows)


def cpgma_embedding_grad(u: np.ndarray, labels: np.ndarray, units: UnitPrototypes):
    """Negated per-class mean cosine between embeddings and their prototype,
    plus the gradient with respect to the embeddings.

    ``units`` is ``unit_prototypes`` of the prototypes, which stay fixed while
    a client trains. Classes absent from the batch, or whose prototype is
    still (near) zero, contribute nothing (cold-start guard).
    """
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=len(units.vectors))
    ends = np.cumsum(counts).tolist()
    warm, cold = [], []
    for cls, (count, end) in enumerate(zip(counts.tolist(), ends)):
        if count:
            (cold if units.vectors[cls] is None else warm).append((cls, end - count, end))
    if not warm:
        return 0.0, np.zeros_like(u)
    # rows stable-sorted by label, so each class is one contiguous slice in
    # its batch order; a product over such a slice has the bits of one over
    # the class's gathered rows. In C order a row's norm does not depend on
    # which other rows are reduced with it.
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    u_hat = u.take(order, axis=0)
    # what np.linalg.norm(u_hat, axis=1, keepdims=True) computes
    norms = np.sqrt(np.add.reduce(u_hat * u_hat, axis=1, keepdims=True))
    np.maximum(norms, EPS_GUARD, out=norms)
    u_hat /= norms
    cos = np.zeros(len(labels))
    loss = 0.0
    for cls, lo, hi in warm:
        np.matmul(u_hat[lo:hi], units.vectors[cls], out=cos[lo:hi])
        loss -= float(cos[lo:hi].sum() / (hi - lo))     # what cos.mean() computes
    # d(-cos)/du = -(p_hat - cos * u_hat) / ||u||, averaged within the class
    g = units.rows[sorted_labels]
    g -= cos[:, None] * u_hat
    np.negative(g, out=g)
    g /= norms
    g /= counts[sorted_labels][:, None]
    for _, lo, hi in cold:
        g[lo:hi] = 0.0
    grad_u = np.empty_like(u)
    grad_u[order] = g
    return loss, grad_u


def update_client_center(center: np.ndarray, batch_class_features: np.ndarray,
                         mu_client: float) -> np.ndarray:
    """EMA of a client's per-class batch means; empty batches are a no-op.
    The mean runs in float64 whatever the rows' dtype."""
    if not 0 < mu_client <= 1:
        raise ValueError("mu_client must be in (0, 1]")
    if batch_class_features.size == 0:
        return center
    # what .mean(axis=0, dtype=np.float64) computes, without its dispatch
    mean = np.add.reduce(batch_class_features, axis=0, dtype=np.float64)
    mean /= len(batch_class_features)
    return (1.0 - mu_client) * center + mu_client * mean


def update_global_prototype(prototype: np.ndarray, centers, sizes,
                            mu_server: float) -> np.ndarray:
    """EMA toward the dataset-size-weighted mean of the client centers."""
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.sum() <= 0:
        raise ValueError("total dataset size must be positive")
    weighted = np.tensordot(sizes / sizes.sum(), np.stack(list(centers)), axes=1)
    return (1.0 - mu_server) * prototype + mu_server * weighted


def aggregate_models(params_list: list[nn.Parameters], sizes) -> nn.Parameters:
    """Coordinate-wise dataset-size-weighted average, in the given order."""
    if not params_list:
        raise ValueError("cannot aggregate an empty client set")
    sizes = np.asarray(sizes, dtype=np.float64)
    if len(sizes) != len(params_list):
        raise ValueError("sizes must match params_list")
    weights = sizes / sizes.sum()
    layout = params_list[0].layout
    if any(params.layout is not layout for params in params_list):
        raise ValueError("client models differ in structure")
    total = np.zeros(layout.size)
    for w, params in zip(weights, params_list):
        total += float(w) * params.vec
    return nn.Parameters.over(total, layout)


def _logit_blocks(params: nn.Parameters, spec: nn.NetworkSpec, x: np.ndarray):
    """(rows, logits) for consecutive blocks of the rows of ``x``, so scoring
    a whole set holds one block's activations at a time, not the set's.

    Bit rule: each block starts at a multiple of ``EVAL_ROWS``, so each row
    keeps its place within every BLAS kernel's row tiles, and a one-row tail
    joins the block before it, since a one-row product goes through gemv and
    rounds differently. The logits are then the whole set's, bit for bit,
    wherever each layer's product takes the same BLAS path in a block as over
    the whole set: OpenBLAS's SkylakeX kernel has a small-matrix path for
    products of at most 10^6 multiply-adds, and with more than one thread a
    product may be split at a row that is not a multiple of the row tile."""
    x = np.atleast_2d(x)
    n = len(x)
    if n == 0:
        raise ValueError("cannot score an empty set of rows")
    stops = [*range(EVAL_ROWS, n, EVAL_ROWS), n]
    if n > 1 and n % EVAL_ROWS == 1:
        del stops[-2]
    start = 0
    for stop in stops:
        # the cache is not kept, so the next block's forward can reuse its memory
        yield slice(start, stop), nn.forward_full(params, spec, x[start:stop])[0]
        start = stop


def evaluate_accuracy(params: nn.Parameters, spec: nn.NetworkSpec,
                      inputs: np.ndarray, labels: np.ndarray) -> float:
    """The fraction of rows whose largest logit is their label."""
    labels = np.asarray(labels)
    correct = 0
    for rows, logits in _logit_blocks(params, spec, inputs):
        correct += int(np.count_nonzero(logits.argmax(axis=1) == labels[rows]))
    return correct / len(labels)       # the bits of the whole set's ``.mean()``


def ensemble_predict(models: list[nn.Parameters], spec: nn.NetworkSpec,
                     x: np.ndarray) -> np.ndarray:
    """Argmax of the mean per-model softmax; ties go to the smallest class."""
    if not models:
        raise ValueError("ensemble needs at least one model")
    probs = np.zeros((np.atleast_2d(x).shape[0], spec.num_classes))
    for params in models:
        for rows, logits in _logit_blocks(params, spec, x):
            probs[rows] += nn.softmax(logits)
    return probs.argmax(axis=1)


def local_train(params: nn.Parameters, spec: nn.NetworkSpec, shard: ClientShard,
                config: FederationConfig, epochs: int, rng: np.random.Generator,
                foreign: FeatureBatch | None = None,
                prototypes: np.ndarray | None = None,
                round_tag: int = 0,
                collect_final_epoch: bool = True):
    """Mini-batch training of ``params`` in place for ``epochs`` epochs.

    With ``collect_final_epoch``, every sample's embedding in the final epoch
    is recorded as the float32 it is uploaded as, one ``FeatureBatch`` per
    mini-batch, so the caller can upload them. SFMC runs when it is enabled
    and ``foreign`` has rows, CPGMA when it is enabled and ``prototypes`` are
    given.

    SFMC is stochastic: each mini-batch trains the head on ``draw_foreign``
    of as many foreign rows as it has local rows. The draws come from their
    own stream, so a run without SFMC draws nothing.
    A non-finite loss or gradient raises ``DivergenceError`` naming the
    epoch and batch, before the step would write it into ``params``.
    Returns (feature_batches, tally): the sums over the mini-batches of the
    local, SFMC and CPGMA losses (0.0 where a module did not run), then the
    number of mini-batches, as ``[l_local, l_sfmc, l_cpgma, batches]``.
    """
    if len(shard) == 0:
        raise ValueError("client shard is empty")
    sfmc = config.enable_sfmc and bool(foreign)
    # the prototypes stay fixed while a client trains
    units = unit_prototypes(prototypes) if config.enable_cpgma and prototypes is not None else None
    if sfmc:
        foreign_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=[config.seed, 4, round_tag, shard.client_id])
        )
    opt_state = nn.AdamState(learning_rate=config.learning_rate,
                             weight_decay=config.weight_decay)
    step = nn.adam_step if config.optimizer == "adam" else nn.sgd_step
    tally = [0.0, 0.0, 0.0, 0]
    feature_batches: list[FeatureBatch] = []
    # every batch's local backward rewrites all of it
    total_grads = params.zeros_like()
    n = len(shard)
    for epoch in range(epochs):
        order = rng.permutation(n)
        final_epoch = epoch == epochs - 1
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, yb = shard.inputs[idx], shard.labels[idx]

            # two forwards, so ``u`` is the extractor's output for any split;
            # one backward over both caches does what a head backward and an
            # extractor backward did, in the same operations and order
            u, cache_f = nn.forward_extractor(params, spec, xb)
            logits, cache_c = nn.forward_classifier(params, spec, u)
            l_local, glogits = nn.softmax_cross_entropy(logits, yb)
            nn.backward(params, spec, cache_f + cache_c, glogits, out=total_grads)

            l_sfmc = l_cpgma = 0.0
            if sfmc:
                l_sfmc, sfmc_grads = compute_sfmc_loss(
                    params, spec, draw_foreign(foreign, len(idx), foreign_rng))
            if units is not None:
                l_cpgma, grad_u_align = cpgma_embedding_grad(u, yb, units)

            try:        # both raise ValueError on a non-finite loss or gradient
                w_s, w_c = combine_losses(l_local, l_sfmc, l_cpgma)
                if w_s:         # nonzero only after an SFMC pass
                    total_grads.add_scaled(sfmc_grads, w_s)
                if w_c:
                    # 0 while every prototype is cold: no backward to discard
                    total_grads.add_scaled(nn.backward(params, spec, cache_f, grad_u_align), w_c)
                step(params, total_grads, opt_state)
            except ValueError as err:
                raise DivergenceError(f"epoch {epoch + 1}, batch "
                                      f"{start // config.batch_size + 1}: {err}") from err

            tally[0] += l_local
            tally[1] += l_sfmc
            tally[2] += l_cpgma
            tally[3] += 1
            if final_epoch and collect_final_epoch:
                feature_batches.append(
                    FeatureBatch.of_client(u.astype(np.float32), yb, shard.client_id, round_tag))
    return feature_batches, tally


def _derive_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence(entropy=[seed, 0, tag]).generate_state(1)[0])


def _start(config: FederationConfig, shards: list[ClientShard], spec: nn.NetworkSpec,
           global_test: ClientShard):
    """The initial model and the shards by client id."""
    ids = sorted(s.client_id for s in shards)
    if ids != list(range(config.num_clients)):
        raise ValueError(f"client ids must be 0..{config.num_clients - 1} "
                         f"(num_clients = {config.num_clients}), got {ids}")
    if config.num_classes != spec.num_classes:
        raise ValueError(f"num_classes is {config.num_classes}, "
                         f"but the network has {spec.num_classes} classes")
    if len(global_test) == 0:
        raise ValueError("global_test is empty: there is nothing to score the model on")
    return nn.init_params(spec, _derive_seed(config.seed, 0)), {s.client_id: s for s in shards}


def _train(server_params: nn.Parameters, spec: nn.NetworkSpec, shard: ClientShard,
           config: FederationConfig, epochs: int, stream: int, t: int, **kw):
    """A copy of the server model trained on ``shard``; the shuffle is seeded
    by ``[seed, stream, t, client]``, stream 1 in rounds and 3 in few-shot
    stages. Returns (params, upload, tally): the upload is the final epoch's
    rows as one feature blob, or None when none were collected. A
    ``DivergenceError`` names the round or stage, the client and the phase."""
    params = server_params.copy()
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=[config.seed, stream, t, shard.client_id]))
    try:
        batches, tally = local_train(params, spec, shard, config, epochs, rng, round_tag=t, **kw)
    except DivergenceError as err:
        where = "round" if stream == 1 else "few-shot stage"
        raise DivergenceError(f"{where} {t}, client {shard.client_id}, local training, "
                              f"{err}") from err
    upload = serialize_features(FeatureBatch.concat(batches)) if batches else None
    return params, upload, tally


def _foreign(bank: FeatureBank, config: FederationConfig, t: int,
             cid: int) -> tuple[FeatureBatch, int]:
    """Client ``cid``'s foreign sample for round or stage ``t``, as the
    client decodes it, and the length of its blob."""
    seq = np.random.SeedSequence(entropy=[config.seed, 2, t, cid])
    blob = serialize_features(bank.sample(cid, config.sample_count, int(seq.generate_state(1)[0])))
    return deserialize_features(blob), len(blob)


def _broadcast(prototypes: np.ndarray) -> tuple[np.ndarray, int]:
    """The prototypes as every client decodes them, and the length of their
    blob, encoded once per round or stage."""
    blob = serialize_prototypes(prototypes)
    return deserialize_prototypes(blob), len(blob)


def _aggregate(trained: dict, shards: dict) -> nn.Parameters:
    ordered = sorted(trained)
    return aggregate_models([trained[cid] for cid in ordered], [len(shards[cid]) for cid in ordered])


# every metrics row shares these key strings
_LOSS_KEYS = tuple(f"mean_{name}_loss" for name in ("local", "sfmc", "cpgma"))


def _losses(tallies: dict) -> dict:
    """Mean per-batch losses of the clients' ``local_train`` tallies, reduced
    in client-id order so they do not depend on the order they trained in."""
    ordered = [tallies[cid] for cid in sorted(tallies)]
    batches = sum(tally[3] for tally in ordered)
    return {
        key: sum(tally[i] for tally in ordered) / batches if batches else 0.0
        for i, key in enumerate(_LOSS_KEYS)
    }


def _traffic(ledger: CommLedger, t: int) -> dict:
    return {"up_bytes": ledger.total(round=t, direction=UP),
            "down_bytes": ledger.total(round=t, direction=DOWN)}


def _server_feature_update(bank: FeatureBank, centers: np.ndarray, prototypes: np.ndarray,
                           uploads: dict, shards: dict, config: FederationConfig) -> None:
    """Bank insertion plus the two-level EMA of ``centers`` (N, K, d) and
    ``prototypes`` (K, d), in place, in client-id then batch order.
    ``uploads`` maps each client to its feature blob, decoded here once. Its
    rows enter the bank in one insert: a FIFO slot keeps the same rows whether
    it is trimmed after each mini-batch or after all of them. The centers
    take one EMA step per mini-batch, every ``batch_size`` rows."""
    for cid in sorted(uploads):
        rows = deserialize_features(uploads[cid])
        if config.enable_sfmc:          # nothing else samples the bank
            bank.insert(rows)
        for start in range(0, len(rows), config.batch_size):
            stop = start + config.batch_size
            embeddings, labels = rows.embeddings[start:stop], rows.labels[start:stop]
            for cls in np.flatnonzero(np.bincount(labels)):
                centers[cid, cls] = update_client_center(
                    centers[cid, cls], embeddings[labels == cls], config.mu_client,
                )
    ordered = sorted(shards)
    for cls in range(config.num_classes):
        prototypes[cls] = update_global_prototype(
            prototypes[cls],
            [centers[cid, cls] for cid in ordered],
            [len(shards[cid]) for cid in ordered],
            config.mu_server,
        )


def run_federation(config: FederationConfig, shards: list[ClientShard],
                   spec: nn.NetworkSpec, global_test: ClientShard,
                   client_order: list[int] | None = None,
                   snapshot_rounds=()) -> RunResult:
    """Algorithm loop: T rounds of parallel client updates, server-side bank
    and prototype maintenance, and weighted aggregation. The reported metrics
    are invariant to ``client_order``."""
    d = spec.embedding_dim
    server, by_id = _start(config, shards, spec, global_test)
    order = list(client_order) if client_order is not None else sorted(by_id)
    if sorted(order) != sorted(by_id):
        raise ValueError("client_order must be a permutation of the client ids")
    prototypes = np.zeros((config.num_classes, d))
    centers = np.zeros((config.num_clients, config.num_classes, d))
    bank = FeatureBank(config.bank_capacity)
    ledger = CommLedger()

    feature_traffic = config.enable_sfmc or config.enable_cpgma
    model_bytes = model_blob_bytes(server)
    metrics: list[dict] = []
    snapshots: dict[int, nn.Parameters] = {}

    for t in range(1, config.rounds + 1):
        # the bank is unchanged until every client has trained, so a foreign
        # sample is drawn just before its client trains; the ledger keeps its size
        received, prototype_bytes = _broadcast(prototypes) if config.enable_cpgma else (None, 0)
        foreign, foreign_bytes, trained, uploads, tallies = None, {}, {}, {}, {}
        for cid in order:
            if config.enable_sfmc:
                foreign, foreign_bytes[cid] = _foreign(bank, config, t, cid)
            trained[cid], uploads[cid], tallies[cid] = _train(
                server, spec, by_id[cid], config, config.local_epochs, 1, t,
                foreign=foreign, prototypes=received, collect_final_epoch=feature_traffic,
            )

        # broadcast, then upload entries in client-id order: independent of ``order``
        for cid in sorted(by_id):
            ledger.record(t, DOWN, KIND_MODEL, model_bytes, cid)
            if config.enable_sfmc:
                ledger.record(t, DOWN, KIND_FEATURES, foreign_bytes[cid], cid)
            if config.enable_cpgma:
                ledger.record(t, DOWN, KIND_PROTOTYPES, prototype_bytes, cid)
        for cid in sorted(by_id):
            ledger.record(t, UP, KIND_MODEL, model_bytes, cid)
            if feature_traffic:
                ledger.record(t, UP, KIND_FEATURES, len(uploads[cid]), cid)

        if feature_traffic:
            _server_feature_update(bank, centers, prototypes, uploads, by_id, config)
        server = _aggregate(trained, by_id)
        del trained, uploads, foreign       # the rest of the round reads none of them
        if t in snapshot_rounds:
            snapshots[t] = server.copy()

        metrics.append({
            "round": t,
            "global_test_accuracy":
                evaluate_accuracy(server, spec, global_test.inputs, global_test.labels),
            **_losses(tallies),
            "hausdorff_mean": (
                geometry.mean_to_global(server, spec, shards) if config.track_geometry else None
            ),
            **_traffic(ledger, t),
        })

    return RunResult(params=server, metrics=metrics, ledger=ledger, snapshots=snapshots)


def one_shot_prototypes(uploads: dict, sizes: dict, num_classes: int, d: int) -> np.ndarray:
    """Size-weighted cross-client class means of each client's uploaded
    FeatureBatch, computed at once (no EMA), in float64."""
    protos = np.zeros((num_classes, d))
    for cls in range(num_classes):
        acc = np.zeros(d)
        total = 0.0
        for cid in sorted(uploads):
            embs = uploads[cid].embeddings[uploads[cid].labels == cls]
            if len(embs):
                acc += sizes[cid] * embs.mean(axis=0, dtype=np.float64)
                total += sizes[cid]
        if total > 0:
            protos[cls] = acc / total
    return protos


def run_few_shot(config: FederationConfig, shards: list[ClientShard],
                 spec: nn.NetworkSpec, global_test: ClientShard,
                 stage_epochs=(30, 60, 60)) -> FewShotResult:
    """Few-shot schedule: each stage is pure local training, each stage ends in
    one communication. Intermediate communications aggregate the model, exchange
    features, and compute prototypes one-shot; the final communication uploads
    all client models for ensembling (and a last weighted average). Stage 1
    has neither a foreign sample nor prototypes, so it runs neither module."""
    stage_epochs = list(stage_epochs)
    if not stage_epochs or any(e < 1 for e in stage_epochs):
        raise ValueError("stage_epochs must be a nonempty list of positive ints")
    d = spec.embedding_dim
    server, by_id = _start(config, shards, spec, global_test)
    ledger = CommLedger()
    bank = FeatureBank(config.bank_capacity)
    prototypes = None           # as the clients decoded them
    foreign: dict[int, FeatureBatch | None] = dict.fromkeys(by_id)
    model_bytes = model_blob_bytes(server)
    metrics: list[dict] = []

    for stage, epochs in enumerate(stage_epochs, start=1):
        final_comm = stage == len(stage_epochs)
        trained, uploads, tallies = {}, {}, {}
        for cid in sorted(by_id):
            trained[cid], uploads[cid], tallies[cid] = _train(
                server, spec, by_id[cid], config, epochs, 3, stage,
                foreign=foreign[cid], prototypes=prototypes,
                collect_final_epoch=not final_comm,
            )

        ordered = sorted(by_id)
        for cid in ordered:
            ledger.record(stage, UP, KIND_MODEL, model_bytes, cid)
        server = _aggregate(trained, by_id)
        if not final_comm:
            flat = {cid: deserialize_features(uploads[cid]) for cid in ordered}
            for cid in ordered:
                bank.insert(flat[cid])
                ledger.record(stage, UP, KIND_FEATURES, len(uploads[cid]), cid)
            # prototypes computed at once: mu_client = mu_server = 1
            prototypes, prototype_bytes = _broadcast(one_shot_prototypes(
                flat, {cid: len(by_id[cid]) for cid in ordered}, config.num_classes, d))
            for cid in ordered:
                foreign[cid], foreign_bytes = _foreign(bank, config, stage, cid)
                ledger.record(stage, DOWN, KIND_MODEL, model_bytes, cid)
                ledger.record(stage, DOWN, KIND_FEATURES, foreign_bytes, cid)
                ledger.record(stage, DOWN, KIND_PROTOTYPES, prototype_bytes, cid)

        metrics.append({
            "stage": stage, "epochs": epochs, **_losses(tallies), **_traffic(ledger, stage),
            "server_accuracy":
                evaluate_accuracy(server, spec, global_test.inputs, global_test.labels),
        })

    client_params = [trained[cid] for cid in sorted(trained)]
    preds = ensemble_predict(client_params, spec, global_test.inputs)
    ensemble_acc = float((preds == global_test.labels).mean())
    return FewShotResult(client_params=client_params, server_params=server,
                         metrics=metrics, ledger=ledger, ensemble_accuracy=ensemble_acc)
