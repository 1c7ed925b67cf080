"""The FedMP training loop and its building blocks.

Implements the three client losses with self-adaptive weighting, the two-level
EMA prototype maintenance on the server, the per-round client/server protocol
with exact byte accounting, dataset-size-weighted aggregation, and the
three-communication few-shot schedule with a final model ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    feature_blob_bytes,
    model_blob_bytes,
    prototype_blob_bytes,
)


OPTIMIZERS = ("adam", "sgd")


@dataclass
class FederationConfig:
    rounds: int = 30
    num_clients: int = 3
    local_epochs: int = 2
    num_classes: int = 3
    batch_size: int = 64
    mu_client: float = 0.5
    mu_server: float = 0.7
    learning_rate: float = 1e-4
    weight_decay: float = 5e-4
    enable_sfmc: bool = True
    enable_cpgma: bool = True
    sample_count: int = 64
    bank_capacity: int = 512
    eps_guard: float = 1e-8
    seed: int = 0
    optimizer: str = "adam"
    track_geometry: bool = True

    def __post_init__(self):
        if not 0 < self.mu_client <= 1:
            raise ValueError("mu_client must be in (0, 1]")
        if not 0 < self.mu_server <= 1:
            raise ValueError("mu_server must be in (0, 1]")
        if min(self.rounds, self.num_clients, self.local_epochs) < 1:
            raise ValueError("rounds, num_clients, local_epochs must be >= 1")
        if self.batch_size < 1 or self.sample_count < 0:
            raise ValueError("batch_size >= 1 and sample_count >= 0 required")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        for name in ("num_clients", "num_classes"):     # u16 fields of feature blobs
            if getattr(self, name) > 0xFFFF:
                raise ValueError(f"{name} must be <= 65535, got {getattr(self, name)}")


@dataclass
class LossBreakdown:
    local: float
    sfmc: float
    cpgma: float
    weight_sfmc: float
    weight_cpgma: float
    total: float


@dataclass
class ClientState:
    client_id: int
    shard: ClientShard
    params: nn.Parameters
    opt_state: nn.AdamState | None = None


@dataclass
class ServerState:
    params: nn.Parameters
    prototypes: np.ndarray                 # (K, d), zero-initialized
    client_centers: np.ndarray             # (N, K, d), zero-initialized
    bank: FeatureBank
    ledger: CommLedger


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
    ensemble_accuracy: float | None = None


def combine_losses(l_local: float, l_sfmc: float | None, l_cpgma: float | None,
                   enable_sfmc: bool = True, enable_cpgma: bool = True,
                   eps_guard: float = 1e-8) -> LossBreakdown:
    """Self-adaptive total loss: auxiliary terms are scaled by the detached
    magnitude ratio |local| / (|aux| + eps), so their contribution tracks the
    primary loss without flipping the sign of a negative auxiliary loss."""
    vals = [l_local, l_sfmc or 0.0, l_cpgma or 0.0]
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"non-finite loss inputs {vals}")
    l_sfmc = float(l_sfmc) if (enable_sfmc and l_sfmc is not None) else 0.0
    l_cpgma = float(l_cpgma) if (enable_cpgma and l_cpgma is not None) else 0.0
    w_s = abs(l_local) / (abs(l_sfmc) + eps_guard) if enable_sfmc and l_sfmc != 0.0 else 0.0
    w_c = abs(l_local) / (abs(l_cpgma) + eps_guard) if enable_cpgma and l_cpgma != 0.0 else 0.0
    total = l_local + w_s * l_sfmc + w_c * l_cpgma
    return LossBreakdown(l_local, l_sfmc, l_cpgma, w_s, w_c, float(total))


def compute_sfmc_loss(params: nn.Parameters, spec: nn.NetworkSpec,
                      foreign: FeatureBatch):
    """Mean cross-entropy of the classifier head on sampled foreign embeddings.
    Gradients exist only for classifier parameters; the extractor never sees
    these rows."""
    if not foreign:
        return 0.0, params.partition(spec.split_index)[1].zeros_like()
    logits, cache = nn.forward_classifier(params, spec, foreign.embeddings)
    loss, glogits = nn.softmax_cross_entropy(logits, foreign.labels)
    grads, _ = nn.backward(params, spec, cache, glogits, input_grad=False)
    return loss, grads


def draw_foreign(foreign: FeatureBatch, rows: int, rng: np.random.Generator) -> FeatureBatch:
    """``rows`` distinct rows of ``foreign``, kept in sample order, or all of
    ``foreign`` when it has no more rows than that."""
    if len(foreign) <= rows:
        return foreign
    return foreign.take(np.sort(rng.choice(len(foreign), rows, replace=False)))


def cpgma_embedding_grad(u: np.ndarray, labels: np.ndarray, prototypes: np.ndarray,
                         eps_guard: float = 1e-8):
    """Negated per-class mean cosine between embeddings and their prototype,
    plus the gradient with respect to the embeddings.

    Classes absent from the batch, or whose prototype is still (near) zero,
    contribute nothing (cold-start guard).
    """
    loss = 0.0
    grad_u = np.zeros_like(u)
    # row norms and unit rows of the whole batch, once; in C order a row's
    # norm does not depend on which other rows are reduced with it
    u = np.ascontiguousarray(u)
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    np.maximum(norms, eps_guard, out=norms)
    u_hat = u / norms
    for cls in np.unique(labels):
        p = prototypes[cls]
        p_norm = np.linalg.norm(p)
        if p_norm < eps_guard:
            continue
        p_hat = p / p_norm
        idx = np.flatnonzero(labels == cls)
        uc_hat = u_hat[idx]
        cos = uc_hat @ p_hat
        loss -= float(cos.sum() / len(idx))      # what cos.mean() computes
        # d(-cos)/du = -(p_hat - cos * u_hat) / ||u||, averaged within the class
        g = p_hat - cos[:, None] * uc_hat
        np.negative(g, out=g)
        g /= norms[idx]
        g /= len(idx)
        grad_u[idx] = g
    return loss, grad_u


def compute_cpgma_loss(params: nn.Parameters, spec: nn.NetworkSpec,
                       x: np.ndarray, labels: np.ndarray, prototypes: np.ndarray,
                       eps_guard: float = 1e-8):
    """Prototype-alignment loss with gradients for the extractor only."""
    u, cache = nn.forward_extractor(params, spec, x)
    loss, grad_u = cpgma_embedding_grad(u, np.asarray(labels), prototypes, eps_guard)
    grads, _ = nn.backward(params, spec, cache, grad_u, input_grad=False)
    return loss, grads


def update_client_center(center: np.ndarray, batch_class_features: np.ndarray,
                         mu_client: float) -> np.ndarray:
    """EMA of a client's per-class batch means; empty batches are a no-op."""
    if not 0 < mu_client <= 1:
        raise ValueError("mu_client must be in (0, 1]")
    if batch_class_features.size == 0:
        return center
    return (1.0 - mu_client) * center + mu_client * batch_class_features.mean(axis=0)


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


def evaluate_accuracy(params: nn.Parameters, spec: nn.NetworkSpec,
                      inputs: np.ndarray, labels: np.ndarray) -> float:
    logits, _ = nn.forward_full(params, spec, inputs)
    return float((logits.argmax(axis=1) == np.asarray(labels)).mean())


def ensemble_predict(models: list[nn.Parameters], spec: nn.NetworkSpec,
                     x: np.ndarray) -> np.ndarray:
    """Argmax of the mean per-model softmax; ties go to the smallest class."""
    if not models:
        raise ValueError("ensemble needs at least one model")
    probs = np.zeros((np.atleast_2d(x).shape[0], spec.num_classes))
    for params in models:
        logits, _ = nn.forward_full(params, spec, x)
        probs += nn.softmax(logits)
    return probs.argmax(axis=1)


def _step(params, grads, opt_state, optimizer):
    if optimizer == "adam":
        nn.adam_step(params, grads, opt_state)
    else:
        nn.sgd_step(params, grads, opt_state)


@dataclass
class LocalTrainStats:
    sum_local: float = 0.0
    sum_sfmc: float = 0.0
    sum_cpgma: float = 0.0
    batches: int = 0


def local_train(params: nn.Parameters, spec: nn.NetworkSpec, shard: ClientShard,
                config: FederationConfig, epochs: int, rng: np.random.Generator,
                foreign: FeatureBatch | None = None,
                prototypes: np.ndarray | None = None,
                round_tag: int = 0,
                enable_sfmc: bool | None = None,
                enable_cpgma: bool | None = None,
                collect_final_epoch: bool = True):
    """Mini-batch training of ``params`` in place for ``epochs`` epochs.

    With ``collect_final_epoch``, every sample's embedding in the final epoch
    is recorded, one ``FeatureBatch`` per mini-batch, so the caller can upload
    them.

    SFMC is stochastic: each mini-batch trains the head on ``draw_foreign``
    of as many foreign rows as it has local rows. The draws come from their
    own stream, so a run without SFMC draws nothing.
    Returns (feature_batches, stats).
    """
    if len(shard) == 0:
        raise ValueError("client shard is empty")
    enable_sfmc = config.enable_sfmc if enable_sfmc is None else enable_sfmc
    enable_cpgma = config.enable_cpgma if enable_cpgma is None else enable_cpgma
    if enable_sfmc and foreign:
        foreign_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=[config.seed, 4, round_tag, shard.client_id])
        )
    opt_state = nn.AdamState(learning_rate=config.learning_rate,
                             weight_decay=config.weight_decay)
    stats = LocalTrainStats()
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
            nn.backward(params, spec, cache_f + cache_c, glogits, input_grad=False,
                        out=total_grads)

            l_sfmc = sfmc_grads = None
            if enable_sfmc and foreign:
                l_sfmc, sfmc_grads = compute_sfmc_loss(
                    params, spec, draw_foreign(foreign, len(idx), foreign_rng))
            l_cpgma = None
            if enable_cpgma and prototypes is not None:
                l_cpgma, grad_u_align = cpgma_embedding_grad(
                    u, yb, prototypes, config.eps_guard
                )

            breakdown = combine_losses(
                l_local, l_sfmc, l_cpgma, enable_sfmc, enable_cpgma, config.eps_guard
            )
            if sfmc_grads is not None and breakdown.weight_sfmc:
                total_grads.add_scaled(sfmc_grads, breakdown.weight_sfmc)
            if breakdown.weight_cpgma:
                # 0 while every prototype is cold: no backward to discard
                cpgma_grads, _ = nn.backward(params, spec, cache_f, grad_u_align,
                                             input_grad=False)
                total_grads.add_scaled(cpgma_grads, breakdown.weight_cpgma)
            _step(params, total_grads, opt_state, config.optimizer)

            stats.sum_local += breakdown.local
            stats.sum_sfmc += breakdown.sfmc
            stats.sum_cpgma += breakdown.cpgma
            stats.batches += 1
            if final_epoch and collect_final_epoch:
                feature_batches.append(
                    FeatureBatch.of_client(u.copy(), yb, shard.client_id, round_tag))
    return feature_batches, stats


def client_update(client: ClientState, server_params: nn.Parameters,
                  spec: nn.NetworkSpec, config: FederationConfig,
                  foreign: FeatureBatch, prototypes: np.ndarray,
                  round_tag: int, collect_final_epoch: bool = True):
    """One ClientUpdate: adopt the broadcast model, train E local epochs, and
    return the updated parameters plus the final-epoch feature batches (none
    unless ``collect_final_epoch``)."""
    client.params = server_params.copy()
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=[config.seed, 1, round_tag, client.client_id])
    )
    batches, stats = local_train(
        client.params, spec, client.shard, config, config.local_epochs, rng,
        foreign=foreign, prototypes=prototypes, round_tag=round_tag,
        collect_final_epoch=collect_final_epoch,
    )
    return client.params, batches, stats


def _sample_seed(config_seed: int, round_tag: int, client_id: int) -> int:
    seq = np.random.SeedSequence(entropy=[config_seed, 2, round_tag, client_id])
    return int(seq.generate_state(1)[0])


def _server_feature_update(server: ServerState, uploads: dict, sizes: dict,
                           config: FederationConfig) -> None:
    """Bank insertion plus the two-level EMA, in client-id then batch order.
    Each client's batches enter the bank in one insert: a FIFO slot keeps the
    same rows whether it is trimmed after each batch or after all of them."""
    for cid in sorted(uploads):
        server.bank.insert(FeatureBatch.concat(uploads[cid]))
        for batch in uploads[cid]:
            for cls in np.unique(batch.labels):
                server.client_centers[cid, cls] = update_client_center(
                    server.client_centers[cid, cls],
                    batch.embeddings[batch.labels == cls], config.mu_client,
                )
    ordered = sorted(sizes)
    for cls in range(config.num_classes):
        server.prototypes[cls] = update_global_prototype(
            server.prototypes[cls],
            [server.client_centers[cid, cls] for cid in ordered],
            [sizes[cid] for cid in ordered],
            config.mu_server,
        )


def _init_clients(config: FederationConfig, shards: list[ClientShard], spec: nn.NetworkSpec):
    """The initial model, a client state per shard holding a copy, client sizes."""
    if len(shards) != config.num_clients:
        raise ValueError(f"expected {config.num_clients} shards, got {len(shards)}")
    init = nn.init_params(spec, _derive_seed(config.seed, 0))
    clients = {s.client_id: ClientState(s.client_id, s, init.copy()) for s in shards}
    return init, clients, {cid: len(c.shard) for cid, c in clients.items()}


def run_federation(config: FederationConfig, shards: list[ClientShard],
                   spec: nn.NetworkSpec, global_test: ClientShard | None = None,
                   client_order: list[int] | None = None,
                   snapshot_rounds=()) -> RunResult:
    """Algorithm loop: T rounds of parallel client updates, server-side bank
    and prototype maintenance, and weighted aggregation. The reported metrics
    are invariant to ``client_order``."""
    d = spec.embedding_dim
    init, clients, sizes = _init_clients(config, shards, spec)
    server = ServerState(
        params=init.copy(),
        prototypes=np.zeros((config.num_classes, d)),
        client_centers=np.zeros((config.num_clients, config.num_classes, d)),
        bank=FeatureBank(config.bank_capacity),
        ledger=CommLedger(),
    )
    order = list(client_order) if client_order is not None else sorted(clients)
    if sorted(order) != sorted(clients):
        raise ValueError("client_order must be a permutation of the client ids")

    feature_traffic = config.enable_sfmc or config.enable_cpgma
    model_bytes = model_blob_bytes(server.params)
    prototype_bytes = prototype_blob_bytes(config.num_classes, d)
    metrics: list[dict] = []
    snapshots: dict[int, nn.Parameters] = {}

    for t in range(1, config.rounds + 1):
        # the bank is unchanged until every client has trained, so a foreign
        # sample is drawn just before its client trains; the ledger keeps its size
        foreign_rows: dict[int, int] = {}
        uploads: dict[int, list[FeatureBatch]] = {}
        stats: dict[int, LocalTrainStats] = {}
        for cid in order:
            foreign = (
                server.bank.sample(cid, config.sample_count,
                                   _sample_seed(config.seed, t, cid))
                if config.enable_sfmc else None
            )
            foreign_rows[cid] = len(foreign) if foreign is not None else 0
            _, uploads[cid], stats[cid] = client_update(
                clients[cid], server.params, spec, config, foreign,
                server.prototypes if config.enable_cpgma else None, t,
                collect_final_epoch=feature_traffic,
            )

        # broadcast, then upload entries in client-id order: independent of ``order``
        for cid in sorted(clients):
            server.ledger.record(t, DOWN, KIND_MODEL, model_bytes, cid)
            if config.enable_sfmc:
                server.ledger.record(t, DOWN, KIND_FEATURES,
                                     feature_blob_bytes(foreign_rows[cid], d), cid)
            if config.enable_cpgma:
                server.ledger.record(t, DOWN, KIND_PROTOTYPES, prototype_bytes, cid)
        for cid in sorted(clients):
            server.ledger.record(t, UP, KIND_MODEL, model_bytes, cid)
            if feature_traffic:
                rows = sum(len(batch) for batch in uploads[cid])
                server.ledger.record(t, UP, KIND_FEATURES, feature_blob_bytes(rows, d), cid)

        if feature_traffic:
            _server_feature_update(server, uploads, sizes, config)

        ordered = sorted(clients)
        server.params = aggregate_models(
            [clients[cid].params for cid in ordered], [sizes[cid] for cid in ordered]
        )
        if t in snapshot_rounds:
            snapshots[t] = server.params.copy()

        row = {
            "round": t,
            "global_test_accuracy": (
                evaluate_accuracy(server.params, spec, global_test.inputs, global_test.labels)
                if global_test is not None else None
            ),
            "mean_local_loss": _mean(stats, "sum_local"),
            "mean_sfmc_loss": _mean(stats, "sum_sfmc"),
            "mean_cpgma_loss": _mean(stats, "sum_cpgma"),
            "hausdorff_mean": (
                geometry.mean_to_global(server.params, spec, shards)
                if config.track_geometry else None
            ),
            "up_bytes": server.ledger.total(round=t, direction=UP),
            "down_bytes": server.ledger.total(round=t, direction=DOWN),
        }
        metrics.append(row)

    return RunResult(params=server.params, metrics=metrics,
                     ledger=server.ledger, snapshots=snapshots)


def _mean(stats: dict[int, LocalTrainStats], attr: str) -> float:
    # reduce in client-id order so the result does not depend on the
    # processing order of the round
    total = sum(getattr(stats[cid], attr) for cid in sorted(stats))
    batches = sum(stats[cid].batches for cid in sorted(stats))
    return total / batches if batches else 0.0


def _derive_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence(entropy=[seed, 0, tag]).generate_state(1)[0])


def one_shot_prototypes(uploads: dict, sizes: dict, num_classes: int, d: int) -> np.ndarray:
    """Size-weighted cross-client class means of each client's uploaded
    FeatureBatch, computed at once (no EMA)."""
    protos = np.zeros((num_classes, d))
    for cls in range(num_classes):
        acc = np.zeros(d)
        total = 0.0
        for cid in sorted(uploads):
            embs = uploads[cid].embeddings[uploads[cid].labels == cls]
            if len(embs):
                acc += sizes[cid] * embs.mean(axis=0)
                total += sizes[cid]
        if total > 0:
            protos[cls] = acc / total
    return protos


def run_few_shot(config: FederationConfig, shards: list[ClientShard],
                 spec: nn.NetworkSpec, global_test: ClientShard | None = None,
                 stage_epochs=(30, 60, 60)) -> FewShotResult:
    """Few-shot schedule: each stage is pure local training, each stage ends in
    one communication. Intermediate communications aggregate the model, exchange
    features, and compute prototypes one-shot; the final communication uploads
    all client models for ensembling (and a last weighted average)."""
    stage_epochs = list(stage_epochs)
    if not stage_epochs or any(e < 1 for e in stage_epochs):
        raise ValueError("stage_epochs must be a nonempty list of positive ints")
    d = spec.embedding_dim
    init, clients, sizes = _init_clients(config, shards, spec)
    ledger = CommLedger()
    bank = FeatureBank(config.bank_capacity)
    prototypes = np.zeros((config.num_classes, d))
    foreign: dict[int, FeatureBatch | None] = dict.fromkeys(clients)
    model_bytes = model_blob_bytes(init)
    prototype_bytes = prototype_blob_bytes(config.num_classes, d)
    metrics: list[dict] = []

    num_comms = len(stage_epochs)
    server_params = init.copy()
    for stage, epochs in enumerate(stage_epochs, start=1):
        use_modules = stage > 1
        final_comm = stage == num_comms
        uploads: dict[int, list[FeatureBatch]] = {}
        stats: dict[int, LocalTrainStats] = {}
        for cid in sorted(clients):
            client = clients[cid]
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=[config.seed, 3, stage, cid])
            )
            batches, st = local_train(
                client.params, spec, client.shard, config, epochs, rng,
                foreign=foreign[cid],
                prototypes=prototypes if use_modules else None,
                round_tag=stage,
                enable_sfmc=config.enable_sfmc and use_modules,
                enable_cpgma=config.enable_cpgma and use_modules,
                collect_final_epoch=not final_comm,
            )
            uploads[cid] = batches
            stats[cid] = st

        ordered = sorted(clients)
        for cid in ordered:
            ledger.record(stage, UP, KIND_MODEL, model_bytes, cid)
        server_params = aggregate_models(
            [clients[cid].params for cid in ordered], [sizes[cid] for cid in ordered]
        )
        if not final_comm:
            flat = {cid: FeatureBatch.concat(uploads[cid]) for cid in ordered}
            for cid in ordered:
                bank.insert(flat[cid])
                ledger.record(stage, UP, KIND_FEATURES, feature_blob_bytes(len(flat[cid]), d), cid)
            # prototypes computed at once: mu_client = mu_server = 1
            prototypes = one_shot_prototypes(flat, sizes, config.num_classes, d)
            for cid in ordered:
                foreign[cid] = bank.sample(
                    cid, config.sample_count, _sample_seed(config.seed, stage, cid)
                )
                ledger.record(stage, DOWN, KIND_MODEL, model_bytes, cid)
                ledger.record(stage, DOWN, KIND_FEATURES,
                              feature_blob_bytes(len(foreign[cid]), d), cid)
                ledger.record(stage, DOWN, KIND_PROTOTYPES, prototype_bytes, cid)
                clients[cid].params = server_params.copy()

        row = {
            "stage": stage,
            "epochs": epochs,
            "mean_local_loss": _mean(stats, "sum_local"),
            "mean_sfmc_loss": _mean(stats, "sum_sfmc"),
            "mean_cpgma_loss": _mean(stats, "sum_cpgma"),
            "up_bytes": ledger.total(round=stage, direction=UP),
            "down_bytes": ledger.total(round=stage, direction=DOWN),
        }
        if global_test is not None:
            row["server_accuracy"] = evaluate_accuracy(
                server_params, spec, global_test.inputs, global_test.labels
            )
        metrics.append(row)

    ensemble_acc = None
    client_params = [clients[cid].params for cid in sorted(clients)]
    if global_test is not None:
        preds = ensemble_predict(client_params, spec, global_test.inputs)
        ensemble_acc = float((preds == global_test.labels).mean())
    return FewShotResult(client_params=client_params, server_params=server_params,
                         metrics=metrics, ledger=ledger, ensemble_accuracy=ensemble_acc)
