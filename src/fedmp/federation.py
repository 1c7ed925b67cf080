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
    deserialize_features,
    deserialize_prototypes,
    model_blob_bytes,
    serialize_features,
    serialize_prototypes,
    upcast,
)


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
        # a label is a feature row's u16; client ids keep the same bound
        for name in ("num_clients", "num_classes"):
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


def combine_losses(l_local: float, l_sfmc: float, l_cpgma: float) -> tuple[float, float]:
    """The self-adaptive weights ``(w_s, w_c)``: the total loss is
    ``l_local + w_s * l_sfmc + w_c * l_cpgma``, each auxiliary term scaled by
    the detached magnitude ratio |local| / (|aux| + eps), so its contribution
    tracks the primary loss without flipping the sign of a negative auxiliary
    loss. A module that is off passes 0.0 and gets weight 0."""
    if not all(map(math.isfinite, (l_local, l_sfmc, l_cpgma))):
        raise ValueError(f"non-finite loss inputs {[l_local, l_sfmc, l_cpgma]}")
    w_s = abs(l_local) / (abs(l_sfmc) + EPS_GUARD) if l_sfmc != 0.0 else 0.0
    w_c = abs(l_local) / (abs(l_cpgma) + EPS_GUARD) if l_cpgma != 0.0 else 0.0
    return w_s, w_c


def compute_sfmc_loss(head: nn.Pass, u: np.ndarray, foreign: np.ndarray):
    """A local step's one head pass, over the local embeddings ``u`` stacked
    on the ``foreign`` rows: the first rows of ``head.input``, then the rows
    behind them, with their labels in the same rows of ``head.labels``.
    Without SFMC, ``foreign`` has no rows.

    Returns ``(l_local, l_sfmc, glogits)``: the mean cross-entropy of the
    local rows and of the foreign rows (0.0 for none), and the gradient of
    each mean at its own rows of the stacked logits (local rows first). The
    caller weights the foreign rows' gradient by ``w_s`` and runs
    ``head.backward``, whose first ``len(u)`` rows go on into the extractor:
    the foreign rows reach only the head."""
    head.forward(head.input[:len(u) + len(foreign)])
    (l_local, l_sfmc), glogits = head.cross_entropy(len(u))
    return l_local, l_sfmc, glogits


def unit_prototypes(prototypes: np.ndarray) -> np.ndarray:
    """Each class's prototype scaled to unit length, as
    ``cpgma_embedding_grad`` reads them; a prototype whose norm is below
    ``EPS_GUARD`` is cold and gets a zero row."""
    prototypes = np.asarray(prototypes, dtype=np.float64)
    norms = np.sqrt(np.add.reduce(prototypes * prototypes, axis=1))
    warm = norms >= EPS_GUARD
    rows = np.zeros(prototypes.shape)
    rows[warm] = prototypes[warm] / norms[warm, None]
    return rows


def cpgma_embedding_grad(u: np.ndarray, labels: np.ndarray, units: np.ndarray):
    """Negated per-class mean cosine between embeddings and their prototype,
    plus the gradient with respect to the embeddings.

    ``units`` is ``unit_prototypes`` of the prototypes, which stay fixed while
    a client trains. Classes absent from the batch, or whose prototype is
    still (near) zero, contribute nothing (cold-start guard): a cold class's
    unit row is zero, and so are its rows' cosines and gradient.
    """
    labels = np.asarray(labels)
    p = units.take(labels, axis=0)
    # in C order each row's sums run over its own values alone, so a row's
    # bits do not depend on the layout of ``u`` or on the rows beside it
    u = np.ascontiguousarray(u)
    # what np.linalg.norm(u, axis=1) computes
    norms = np.sqrt(np.add.reduce(u * u, axis=1))
    np.maximum(norms, EPS_GUARD, out=norms)
    cos = np.add.reduce(u * p, axis=1)
    cos /= norms
    counts = np.bincount(labels, minlength=len(units))
    means = np.bincount(labels, cos, len(units)) / np.maximum(counts, 1)
    # 0.0 - x: an all-cold batch's loss is +0.0
    loss = 0.0 - float(np.add.reduce(means))
    # d(-cos)/du = (cos * u / ||u|| - p_hat) / ||u||, averaged within the class
    g = u * (cos / norms)[:, None]
    g -= p
    g /= (norms * counts.take(labels))[:, None]
    return loss, g


def update_client_center(center: np.ndarray, batch_class_features: np.ndarray,
                         mu_client: float) -> np.ndarray:
    """EMA of a client's per-class batch means; empty batches are a no-op.
    The mean runs in float64 whatever the rows' dtype. The round passes it
    float64 rows, each upload upcast once (``protocol.upcast``); float16
    rows reduced with ``dtype=float64`` give the same bits."""
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


def _row_labels(labels, rows: int, classes: int) -> np.ndarray:
    """``labels`` as int64, checked to be one label per row, each a class
    index in ``[0, classes)``."""
    labels = np.asarray(labels)
    if labels.shape != (rows,):
        raise ValueError(f"labels of shape {labels.shape} for {rows} rows")
    return nn.check_labels(labels, rows, classes)


def evaluate_accuracy(params: nn.Parameters, spec: nn.NetworkSpec,
                      inputs: np.ndarray, labels: np.ndarray) -> float:
    """The fraction of rows whose largest logit is their label."""
    labels = _row_labels(labels, len(np.atleast_2d(inputs)), spec.num_classes)
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


def _training_rows(spec: nn.NetworkSpec, shard: ClientShard, foreign: FeatureBatch | None):
    """(inputs, labels, foreign labels): the shard's inputs as float64 and
    its labels as int64, and the foreign sample's labels as int64 (None
    without a sample), once each is checked to fit the network; these are
    every value a step used to check per mini-batch."""
    inputs = np.asarray(shard.inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != spec.input_dim:
        raise nn.ShapeError(f"layer 0: inputs of shape {inputs.shape}, "
                            f"expected (rows, {spec.input_dim})")
    k = spec.num_classes
    labels = nn.check_labels(shard.labels, len(inputs), k)
    if foreign is None:
        return inputs, labels, None
    if foreign.embeddings.ndim != 2 or foreign.embeddings.shape[1] != spec.embedding_dim:
        raise nn.ShapeError(f"layer {spec.split_index}: foreign rows of shape "
                            f"{foreign.embeddings.shape}, expected (rows, {spec.embedding_dim})")
    return inputs, labels, nn.check_labels(foreign.labels, len(foreign), k)


class Workspace:
    """What ``local_train`` reuses from call to call, one per run: the
    model ``params`` it trains, the gradient, Adam's moments, the extractor
    pass over at most ``rows`` rows and the head pass over twice as many,
    with their plans. A call overwrites each buffer before reading it;
    nothing is sized by a foreign sample. ``units`` keeps the last
    prototypes array's unit prototypes, since a round hands every client
    the same array and nothing writes into it."""

    __slots__ = ("params", "spec", "rows", "grads", "moments", "extractor", "head", "_units")

    def __init__(self, params: nn.Parameters, spec: nn.NetworkSpec, rows: int):
        if params.layout is not spec.layout:
            raise nn.ShapeError("params must be laid out like the network")
        if spec.split_index is None:
            raise nn.ShapeError("local training needs a network split into extractor and head")
        self.params, self.spec, self.rows = params, spec, rows
        # every step's head and extractor backwards rewrite all of it
        self.grads = params.zeros_like()
        self.moments = (params.zeros_like(), params.zeros_like())
        self.head = nn.Pass(params, self.grads, spec, spec.split_index, None, 2 * rows,
                            input_grad=True, loss=True)
        self.extractor = nn.Pass(params, self.grads, spec, 0, spec.split_index, rows,
                                 out=self.head.input)
        self._units = (None, None)

    def units(self, prototypes: np.ndarray) -> np.ndarray | None:
        """``unit_prototypes(prototypes)``, or None while every prototype is
        cold, made once per prototypes array."""
        if self._units[0] is not prototypes:
            units = unit_prototypes(prototypes)
            self._units = (prototypes, units if units.any() else None)
        return self._units[1]


def local_train(params: nn.Parameters, spec: nn.NetworkSpec, shard: ClientShard,
                config: FederationConfig, epochs: int, rng: np.random.Generator,
                foreign: FeatureBatch | None = None,
                prototypes: np.ndarray | None = None,
                round_tag: int = 0,
                collect_final_epoch: bool = True, *,
                workspace: Workspace | None = None):
    """Mini-batch training of ``params`` in place for ``epochs`` epochs.

    With ``collect_final_epoch``, every sample's embedding in the final epoch
    is recorded in float64, in one ``FeatureBatch`` in the order the epoch
    trained them, so the caller can upload them: the encoder rounds each
    value to float16 once. SFMC runs when it is enabled and ``foreign`` has
    rows, CPGMA when it is enabled and ``prototypes`` are given and not all
    cold: while every prototype is cold, CPGMA's loss is 0 and so is its
    weight ``w_c``, so the step is the one it is without CPGMA.

    Every mini-batch, whatever the modules, runs one head pass
    (``compute_sfmc_loss``) over its local rows stacked on its foreign
    rows. With SFMC those are as many rows as the batch has, drawn without
    replacement and kept in sample order (the whole sample when it is no
    larger); without SFMC there are none, and the pass is the batch's own.
    The decoded float16 sample is upcast to float64 once per call, so no
    step pays that cast. The draws come from their own stream, so a run
    without SFMC draws nothing.

    Each mini-batch is one fused pass over the buffers of ``workspace``,
    which must train ``params`` (``None``: one made for the call): the
    extractor writes its output into the first rows of the head's input
    and the draw gathers the foreign rows behind it; one head forward and
    one softmax pass score both parts, and one head backward hands the local
    rows' gradient at the split, with ``w_c`` times
    ``cpgma_embedding_grad``'s added in, to one extractor backward.
    The inputs, widths and labels are checked once per call, and each step
    runs the operations of ``nn.forward``, ``nn.backward`` and
    ``nn.softmax_cross_entropy`` in their order, so it gets their bits.
    A non-finite loss or gradient raises ``DivergenceError`` naming the
    epoch and batch, before the step would write it into ``params``.
    Returns (feature_batches, tally): the sums over the mini-batches of the
    local, SFMC and CPGMA losses (0.0 where a module did not run), then the
    number of mini-batches, as ``[l_local, l_sfmc, l_cpgma, batches]``.
    """
    n = len(shard)
    if n == 0:
        raise ValueError("client shard is empty")
    batch = min(config.batch_size, n)
    if workspace is None:
        workspace = Workspace(params, spec, batch)
    elif workspace.params is not params or workspace.spec != spec or workspace.rows < batch:
        raise ValueError("the workspace was made for another model, network or batch size")
    sfmc = config.enable_sfmc and bool(foreign)
    inputs, labels, foreign_labels = _training_rows(spec, shard, foreign if sfmc else None)
    # the prototypes stay fixed while a client trains
    units = workspace.units(prototypes) if config.enable_cpgma and prototypes is not None else None
    sample = 0
    if sfmc:
        foreign_rows = upcast(foreign.embeddings)
        sample = len(foreign_rows)
        foreign_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=[config.seed, 4, round_tag, shard.client_id])
        )
    m, v = workspace.moments
    m.vec.fill(0.0)
    v.vec.fill(0.0)
    opt_state = nn.AdamState(learning_rate=config.learning_rate,
                             weight_decay=config.weight_decay, m=m, v=v)
    tally = [0.0, 0.0, 0.0, 0]
    head, extractor = workspace.head, workspace.extractor
    total_grads = workspace.grads
    features = final = None
    for epoch in range(epochs):
        # one gather per epoch; each batch is a slice of its rows
        order = rng.permutation(n)
        epoch_inputs, epoch_labels = inputs[order], labels[order]
        if epoch == epochs - 1 and collect_final_epoch:
            features, final = np.empty((n, spec.embedding_dim)), epoch_labels
        for start in range(0, n, config.batch_size):
            xb = epoch_inputs[start:start + config.batch_size]
            yb = epoch_labels[start:start + config.batch_size]
            rows = len(yb)

            u = extractor.forward(xb)           # the first rows of head.input
            head.labels[:rows] = yb
            end = rows + min(rows, sample)
            drawn = head.input[rows:end]        # the foreign rows go behind u
            if sample > rows:
                picks = foreign_rng.choice(sample, rows, replace=False)
                picks.sort()
                # the picks are in range: "clip" writes into ``out`` unbuffered
                foreign_rows.take(picks, axis=0, out=drawn, mode="clip")
                foreign_labels.take(picks, out=head.labels[rows:end], mode="clip")
            elif sample:
                drawn[...] = foreign_rows
                head.labels[rows:end] = foreign_labels
            l_local, l_sfmc, glogits = compute_sfmc_loss(head, u, drawn)
            l_cpgma = 0.0
            if units is not None:
                l_cpgma, grad_u_align = cpgma_embedding_grad(u, yb, units)

            try:        # both raise ValueError on a non-finite loss or gradient
                w_s, w_c = combine_losses(l_local, l_sfmc, l_cpgma)
                # the head's gradient weighs local rows 1/n and foreign rows
                # w_s/m; at the split the local rows' part, plus w_c times
                # CPGMA's gradient, carries on into the extractor. Between
                # them the two backwards write every tensor
                glogits[rows:] *= w_s
                grad_u = head.backward(glogits)[:rows]
                if w_c:
                    grad_u += w_c * grad_u_align
                extractor.backward(grad_u)
                nn.adam_step(params, total_grads, opt_state)
            except ValueError as err:
                raise DivergenceError(f"epoch {epoch + 1}, batch "
                                      f"{start // config.batch_size + 1}: {err}") from err

            tally[0] += l_local
            tally[1] += l_sfmc
            tally[2] += l_cpgma
            tally[3] += 1
            if features is not None:
                features[start:start + rows] = u
    return ([FeatureBatch(features, final)] if features is not None else []), tally


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
    _row_labels(global_test.labels, len(global_test), spec.num_classes)
    return nn.init_params(spec, _derive_seed(config.seed, 0)), {s.client_id: s for s in shards}


def _workspace(server: nn.Parameters, spec: nn.NetworkSpec, config: FederationConfig,
               shards) -> Workspace:
    """A workspace for training copies of ``server`` on any of ``shards``."""
    return Workspace(server.copy(), spec, min(config.batch_size, max(map(len, shards))))


def _train(server_params: nn.Parameters, spec: nn.NetworkSpec, shard: ClientShard,
           config: FederationConfig, epochs: int, stream: int, t: int,
           workspace: Workspace | None = None, **kw):
    """A copy of the server model trained on ``shard`` in ``workspace``
    (``None``: one for the call), shuffled by ``[seed, stream, t, client]``,
    stream 1 in rounds and 3 in few-shot stages. Returns (params, upload, tally): the upload is the final epoch's
    rows as one feature blob, or None when none were collected. A
    ``DivergenceError`` names the round or stage, the client and the phase:
    local training, or the upload, whose encoder rejects an embedding that
    is not finite as float16."""
    if workspace is None:
        workspace = _workspace(server_params, spec, config, [shard])
    params = workspace.params
    params.vec[...] = server_params.vec
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=[config.seed, stream, t, shard.client_id]))
    where = f"{'round' if stream == 1 else 'few-shot stage'} {t}, client {shard.client_id}"
    try:
        batches, tally = local_train(params, spec, shard, config, epochs, rng, round_tag=t,
                                     workspace=workspace, **kw)
    except DivergenceError as err:
        raise DivergenceError(f"{where}, local training, {err}") from err
    try:
        upload = serialize_features(FeatureBatch.concat(batches)) if batches else None
    except ValueError as err:
        raise DivergenceError(f"{where}, upload: {err}") from err
    return params.copy(), upload, tally


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


def _update_centers(centers: np.ndarray, rows: FeatureBatch, config: FederationConfig) -> None:
    """One upload's EMA of its client's ``centers`` (K, d), in place: one
    step per class in each mini-batch of ``batch_size`` rows, over the rows
    upcast to float64 once and stably sorted by (batch, class), so each
    step reads one contiguous slice, its rows in upload order."""
    k = len(centers)
    keys = np.arange(len(rows)) // config.batch_size * k + rows.labels
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    embeddings = upcast(rows.embeddings.take(order, axis=0))
    # each group's first row, then the end; an empty upload has no group
    bounds = [*np.flatnonzero(np.diff(keys, prepend=-1)).tolist(), len(keys)]
    for start, stop in zip(bounds, bounds[1:]):
        cls = int(keys[start]) % k
        centers[cls] = update_client_center(centers[cls], embeddings[start:stop],
                                            config.mu_client)


def _server_feature_update(bank: FeatureBank, centers: np.ndarray, prototypes: np.ndarray,
                           uploads: dict, shards: dict, config: FederationConfig, t: int) -> None:
    """Bank insertion plus the two-level EMA of ``centers`` (N, K, d) and
    ``prototypes`` (K, d), in place, in client-id then batch order.
    ``uploads`` maps each client to its round-``t`` feature blob, decoded
    here once. Its rows enter the bank in one insert: a FIFO slot keeps the
    same rows whether it is trimmed after each mini-batch or after all of
    them."""
    for cid in sorted(uploads):
        rows = deserialize_features(uploads[cid])
        if config.enable_sfmc:          # nothing else samples the bank
            bank.insert(rows, cid, t)
        _update_centers(centers[cid], rows, config)
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
    workspace = _workspace(server, spec, config, shards)
    prototypes = np.zeros((config.num_classes, d))
    centers = np.zeros((config.num_clients, config.num_classes, d))
    bank = FeatureBank(config.bank_capacity, len(by_id), config.num_classes, d)
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
                server, spec, by_id[cid], config, config.local_epochs, 1, t, workspace,
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
            _server_feature_update(bank, centers, prototypes, uploads, by_id, config, t)
        server = _aggregate(trained, by_id)
        del trained, uploads, foreign       # the rest of the round reads none of them
        if t in snapshot_rounds:
            snapshots[t] = server.copy()

        metrics.append({
            "round": t,
            "global_test_accuracy":
                evaluate_accuracy(server, spec, global_test.inputs, global_test.labels),
            **_losses(tallies),
            "hausdorff_mean": (geometry.manifold_report(server, spec, shards)["mean_to_global"]
                               if config.track_geometry else None),
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
    workspace = _workspace(server, spec, config, shards)
    ledger = CommLedger()
    bank = FeatureBank(config.bank_capacity, len(by_id), config.num_classes, d)
    prototypes = None           # as the clients decoded them
    foreign: dict[int, FeatureBatch | None] = dict.fromkeys(by_id)
    model_bytes = model_blob_bytes(server)
    metrics: list[dict] = []

    for stage, epochs in enumerate(stage_epochs, start=1):
        final_comm = stage == len(stage_epochs)
        trained, uploads, tallies = {}, {}, {}
        for cid in sorted(by_id):
            trained[cid], uploads[cid], tallies[cid] = _train(
                server, spec, by_id[cid], config, epochs, 3, stage, workspace,
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
                bank.insert(flat[cid], cid, stage)
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
