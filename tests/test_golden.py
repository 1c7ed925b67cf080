"""Golden digests: pinned SHA-256 of the metrics JSON, the ledger entries and
the model blobs of four small fixed runs, and of the reports of a feature-
inversion attack on one of them.

Criterion 8 checks determinism inside one process; these digests check it
across commits. A change that is meant to keep outputs bit for bit must leave
every digest here unchanged. A change that alters outputs on purpose re-pins
them and says why. The digests were pinned with NumPy 2.4 on OpenBLAS; a
different BLAS build may round matrix products differently.
"""

import dataclasses
import hashlib
import json

import pytest

from fedmp import privacy
from fedmp.config import ExperimentConfig
from fedmp.data import generate_federation
from fedmp.federation import run_federation, run_few_shot
from fedmp.protocol import serialize_model

# the acceptance benchmark's network and hyperparameters (scale S)
SCALE_S = ExperimentConfig(
    input_dim=16, classes=3, clients=3, samples_per_client=96,
    skew_strength=2.0, noise_std=0.1,
    hidden_extractor=(64,), hidden_classifier=(32, 16),
    rounds=5, local_epochs=4, batch_size=64,
    learning_rate=3e-3, weight_decay=6e-3,
    sample_count=96, stage_epochs=(3, 3, 2),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(metrics, ledger, models) -> dict:
    return {
        "metrics": _sha(json.dumps(metrics, sort_keys=True).encode()),
        "ledger": _sha(json.dumps([dataclasses.astuple(e) for e in ledger.entries]).encode()),
        "models": _sha(b"".join(serialize_model(p) for p in models)),
    }


def _data(seed: int):
    return generate_federation(dataclasses.replace(SCALE_S.dataset_spec(), seed=seed))


def fedavg_run() -> dict:
    # criterion 3's configuration: T=5, N=3, E=2, both modules off
    shards, global_test = _data(0)
    cfg = SCALE_S.federation_config(0, mode="fedavg")
    cfg.local_epochs = 2
    cfg.track_geometry = False
    result = run_federation(cfg, shards, SCALE_S.network_spec(), global_test)
    return _digests(result.metrics, result.ledger, [result.params])


def fedmp_run() -> dict:
    # both modules and geometry on; a 40-row bank slot evicts from round 2 on
    shards, global_test = _data(1)
    cfg = SCALE_S.federation_config(1, mode="fedmp")
    cfg.bank_capacity = 40
    result = run_federation(cfg, shards, SCALE_S.network_spec(), global_test)
    assert all(row["hausdorff_mean"] is not None for row in result.metrics)
    return _digests(result.metrics, result.ledger, [result.params])


def sgd_run() -> dict:
    # both modules on, plain SGD: partial gradients update only their slice
    shards, global_test = _data(3)
    cfg = SCALE_S.federation_config(3, mode="fedmp")
    cfg.optimizer = "sgd"
    cfg.track_geometry = False
    result = run_federation(cfg, shards, SCALE_S.network_spec(), global_test)
    return _digests(result.metrics, result.ledger, [result.params])


def attack_run() -> dict:
    # decoders train through adam_step with weight decay 0; the split-2
    # decoder starts with a flatten layer
    shards, global_test = _data(4)
    spec = SCALE_S.network_spec()
    cfg = SCALE_S.federation_config(4, mode="fedmp")
    cfg.track_geometry = False
    result = run_federation(cfg, shards, spec, global_test)
    configs = [privacy.AttackConfig(split_index=layer, epochs=20, seed=4)
               for layer in SCALE_S.attack_layers]
    reports = privacy.attack_report(result.params, spec, shards, configs)
    decoder, _ = privacy.train_decoder(result.params, spec, shards[0], configs[0])
    return {
        "reports": _sha(json.dumps([dataclasses.asdict(r) for r in reports],
                                   sort_keys=True).encode()),
        "decoder": _sha(serialize_model(decoder)),
    }


def fewshot_run() -> dict:
    shards, global_test = _data(2)
    cfg = SCALE_S.federation_config(2, mode="fewshot")
    result = run_few_shot(cfg, shards, SCALE_S.network_spec(), global_test,
                          stage_epochs=SCALE_S.stage_epochs)
    metrics = [result.metrics, result.ensemble_accuracy]
    return _digests(metrics, result.ledger, [result.server_params, *result.client_params])


GOLDEN = {
    "attack": (attack_run, {
        "reports": "24e41c32a7262df8a7df6c760ac88ec56d90e9508c41d3d004f92e1f18355de4",
        "decoder": "da3d18b054c2872be056ac850649e0932f854522595766d8f53f83b78f4d4a74",
    }),
    "fedavg": (fedavg_run, {
        "metrics": "1cef4fce21dad5aad1167ec44442a6cf2132740d91620ded98dca3b9336429c9",
        "ledger": "a3e226a821fc9a8025f4d21ef8b8a8d0e5c329193608a83d66c2103a4965ce7b",
        "models": "39451f1f5a7a578155157bc5adf6c33da314b3a48942c41749c14f479d2d93a2",
    }),
    "fedmp": (fedmp_run, {
        "metrics": "6edc6e16cf1e7918dd14823271ca02fa2f96b5edacc94cb17e402c8a40c27bbb",
        "ledger": "ad3dc7aabdbfe2085cb32398b99976a37544fc61182b1778f75998f1fe79e03b",
        "models": "8cb28ac451f47ad26a2546b54f9727e3edef7df97e5767681e3a089d139e2120",
    }),
    "sgd": (sgd_run, {
        "metrics": "43ab99e78de2295c33b15be826edfb3ab54dbe9424606242cb436e500df56cef",
        "ledger": "ad3dc7aabdbfe2085cb32398b99976a37544fc61182b1778f75998f1fe79e03b",
        "models": "ad031f72a697d87750507c1dd5d06f350462db538cde807fe62b2664356c0926",
    }),
    "fewshot": (fewshot_run, {
        "metrics": "bd9f3e808fcb441f49f3070bc109567ce44a8d73e5ab378bd761c0f2cf7f8d95",
        "ledger": "10b99386b3e6a31b4aef4aadd66b2dc95d21db7511a7c30d5141ee8e9b777bed",
        "models": "47061ec20a69094e0561a1e80393a554e63d178ba55251ea4b73909d3e2542dd",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name):
    run, expected = GOLDEN[name]
    assert run() == expected
