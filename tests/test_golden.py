"""Golden digests: pinned SHA-256 of the metrics JSON, the ledger entries and
the model blobs of four small fixed runs, and of the reports of a feature-
inversion attack on one of them.

Criterion 8 checks determinism inside one process; these digests check it
across commits. A change that is meant to keep outputs bit for bit must leave
every digest here unchanged. A change that alters outputs on purpose re-pins
them and says why.

Dot products and long reductions round differently on different OpenBLAS
kernels, so the digests are kept in one table per kernel, keyed by the name
the loaded OpenBLAS reports. The tables were pinned with NumPy 2.4 and its
bundled OpenBLAS. A re-pin re-pins every table: run ``PIN_COMMAND`` once per
kernel, with ``OPENBLAS_CORETYPE`` set to each kernel the CPU can run. A
kernel with no table fails the test and names the command that pins it.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from fedmp import privacy
from fedmp.config import ExperimentConfig
from fedmp.data import generate_federation
from fedmp.federation import run_federation, run_few_shot
from fedmp.protocol import FeatureBank, serialize_model

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from blas_kernel import blas_kernel  # noqa: E402

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


def cpgma_run() -> dict:
    # CPGMA alone: no foreign sample is sent, so nothing of SFMC runs
    shards, global_test = _data(5)
    cfg = SCALE_S.federation_config(5, mode="fedmp")
    cfg.enable_sfmc = False
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


RUNS = {
    "attack": attack_run,
    "cpgma": cpgma_run,
    "fedavg": fedavg_run,
    "fedmp": fedmp_run,
    "fewshot": fewshot_run,
}

# one table per OpenBLAS kernel, keyed by the name the kernel reports; pinned
# with PIN_COMMAND, once per kernel the host can run
GOLDEN = {
    "SkylakeX": {
        "attack": {
            "reports": "bd87fa2eaf6f117d83e68f404e3e4547c88958c2ae10e8472c140a6b815fe20f",
            "decoder": "8e7c812c8138071a7ef64b2290dcf9d272c594e7f70f5dd12f14afa7b384ae4d",
        },
        "cpgma": {
            "metrics": "d15c905b59c23e2e27d29d406b2453d5b571e28353b6ef1422a463a29cc3b7ef",
            "ledger": "cefe51952dbaee6082ccf9f984d9b56bd608dd7956c00af45cc75b498d0cc906",
            "models": "3f55981440b93f9e8fd01a91efa51b2285cd7f5f93f6c0bca2414bb5fa852bed",
        },
        "fedavg": {
            "metrics": "1cef4fce21dad5aad1167ec44442a6cf2132740d91620ded98dca3b9336429c9",
            "ledger": "a3e226a821fc9a8025f4d21ef8b8a8d0e5c329193608a83d66c2103a4965ce7b",
            "models": "39451f1f5a7a578155157bc5adf6c33da314b3a48942c41749c14f479d2d93a2",
        },
        "fedmp": {
            "metrics": "93694c628523ef01ad4d20073cc2c4845baee8062c10db5f91edd591f25e34d6",
            "ledger": "286f025ceb9d7f0bcdc762a1a065175ad68ff84be80550c7161f55225501909e",
            "models": "4ffbaeeae6a2eec1afd570ccd394617cd308866fc23fae2f8d395f1834a78641",
        },
        "fewshot": {
            "metrics": "40a22d6a39ad5c72fdb3ec8d07213b3d26d07412dcf2b883eaba0c06d51a9356",
            "ledger": "79a6cd9e980258b06791d1d890eea1925cd295afdbf6b17322b5e0159e921eb0",
            "models": "c95824a8e3345d42bf8d8a8107e93c085643662ebdf65516feb0574db74a74fc",
        },
    },
    "Haswell": {
        "attack": {
            "reports": "d760e80f496773b699153b5bf8bbd1cd616800cd6a953f8eb9f5776188f72022",
            "decoder": "8e7c812c8138071a7ef64b2290dcf9d272c594e7f70f5dd12f14afa7b384ae4d",
        },
        "cpgma": {
            "metrics": "136da27c6fe72107beb35220efcb2e32fec86b1c17b11efe9513421200766a38",
            "ledger": "cefe51952dbaee6082ccf9f984d9b56bd608dd7956c00af45cc75b498d0cc906",
            "models": "3f55981440b93f9e8fd01a91efa51b2285cd7f5f93f6c0bca2414bb5fa852bed",
        },
        "fedavg": {
            "metrics": "1cef4fce21dad5aad1167ec44442a6cf2132740d91620ded98dca3b9336429c9",
            "ledger": "a3e226a821fc9a8025f4d21ef8b8a8d0e5c329193608a83d66c2103a4965ce7b",
            "models": "39451f1f5a7a578155157bc5adf6c33da314b3a48942c41749c14f479d2d93a2",
        },
        "fedmp": {
            "metrics": "b16c0b7caf53fc5b2332819f980e887301a18f6c674b6628cbae16e144a40398",
            "ledger": "286f025ceb9d7f0bcdc762a1a065175ad68ff84be80550c7161f55225501909e",
            "models": "4ffbaeeae6a2eec1afd570ccd394617cd308866fc23fae2f8d395f1834a78641",
        },
        "fewshot": {
            "metrics": "40a22d6a39ad5c72fdb3ec8d07213b3d26d07412dcf2b883eaba0c06d51a9356",
            "ledger": "79a6cd9e980258b06791d1d890eea1925cd295afdbf6b17322b5e0159e921eb0",
            "models": "c95824a8e3345d42bf8d8a8107e93c085643662ebdf65516feb0574db74a74fc",
        },
    },
    "Sandybridge": {
        "attack": {
            "reports": "522078a3c68a6bc161fde7717d4a57b57201ab57436439e21d4136761320d452",
            "decoder": "8e7c812c8138071a7ef64b2290dcf9d272c594e7f70f5dd12f14afa7b384ae4d",
        },
        "cpgma": {
            "metrics": "81b753239e4c449968e48fc61e245d667fd6761f5e8837514c8847d3789b0165",
            "ledger": "cefe51952dbaee6082ccf9f984d9b56bd608dd7956c00af45cc75b498d0cc906",
            "models": "3f55981440b93f9e8fd01a91efa51b2285cd7f5f93f6c0bca2414bb5fa852bed",
        },
        "fedavg": {
            "metrics": "1cef4fce21dad5aad1167ec44442a6cf2132740d91620ded98dca3b9336429c9",
            "ledger": "a3e226a821fc9a8025f4d21ef8b8a8d0e5c329193608a83d66c2103a4965ce7b",
            "models": "39451f1f5a7a578155157bc5adf6c33da314b3a48942c41749c14f479d2d93a2",
        },
        "fedmp": {
            "metrics": "05b04e1531bf83fb15b33b5a96157227ec559923733175f4dcc4512ba0a9ac49",
            "ledger": "286f025ceb9d7f0bcdc762a1a065175ad68ff84be80550c7161f55225501909e",
            "models": "4ffbaeeae6a2eec1afd570ccd394617cd308866fc23fae2f8d395f1834a78641",
        },
        "fewshot": {
            "metrics": "40a22d6a39ad5c72fdb3ec8d07213b3d26d07412dcf2b883eaba0c06d51a9356",
            "ledger": "79a6cd9e980258b06791d1d890eea1925cd295afdbf6b17322b5e0159e921eb0",
            "models": "c95824a8e3345d42bf8d8a8107e93c085643662ebdf65516feb0574db74a74fc",
        },
    },
    "Katmai": {
        "attack": {
            "reports": "20a3ceea7eb04b06f5db1333a127358603cfe9cf7a1aa745a6fd75f10d05f8b6",
            "decoder": "8e7c812c8138071a7ef64b2290dcf9d272c594e7f70f5dd12f14afa7b384ae4d",
        },
        "cpgma": {
            "metrics": "81b753239e4c449968e48fc61e245d667fd6761f5e8837514c8847d3789b0165",
            "ledger": "cefe51952dbaee6082ccf9f984d9b56bd608dd7956c00af45cc75b498d0cc906",
            "models": "3f55981440b93f9e8fd01a91efa51b2285cd7f5f93f6c0bca2414bb5fa852bed",
        },
        "fedavg": {
            "metrics": "1cef4fce21dad5aad1167ec44442a6cf2132740d91620ded98dca3b9336429c9",
            "ledger": "a3e226a821fc9a8025f4d21ef8b8a8d0e5c329193608a83d66c2103a4965ce7b",
            "models": "39451f1f5a7a578155157bc5adf6c33da314b3a48942c41749c14f479d2d93a2",
        },
        "fedmp": {
            "metrics": "05b04e1531bf83fb15b33b5a96157227ec559923733175f4dcc4512ba0a9ac49",
            "ledger": "286f025ceb9d7f0bcdc762a1a065175ad68ff84be80550c7161f55225501909e",
            "models": "4ffbaeeae6a2eec1afd570ccd394617cd308866fc23fae2f8d395f1834a78641",
        },
        "fewshot": {
            "metrics": "40a22d6a39ad5c72fdb3ec8d07213b3d26d07412dcf2b883eaba0c06d51a9356",
            "ledger": "79a6cd9e980258b06791d1d890eea1925cd295afdbf6b17322b5e0159e921eb0",
            "models": "c95824a8e3345d42bf8d8a8107e93c085643662ebdf65516feb0574db74a74fc",
        },
    },
}

PIN_COMMAND = "PYTHONPATH=src python tests/test_golden.py"


def expected_digests(kernel: str | None) -> dict:
    """The kernel's table; a kernel without one fails, it never skips."""
    if kernel not in GOLDEN:
        pytest.fail(
            f"no golden digests for the OpenBLAS kernel {kernel!r} "
            f"(pinned: {', '.join(sorted(GOLDEN))}); run `{PIN_COMMAND}` on "
            f"this host and add the entry it prints to GOLDEN in tests/test_golden.py",
            pytrace=False,
        )
    return GOLDEN[kernel]


def format_entry(kernel: str | None, table: dict) -> str:
    """One kernel's GOLDEN entry, as source."""
    lines = [f'    "{kernel}": {{']
    for name in sorted(table):
        lines.append(f'        "{name}": {{')
        lines += [f'            "{key}": "{digest}",' for key, digest in table[name].items()]
        lines.append("        },")
    lines.append("    },")
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_digests(name):
    expected = expected_digests(blas_kernel())[name]
    assert RUNS[name]() == expected


def test_cpgma_alone_never_fills_the_bank():
    """Without SFMC nothing samples the bank, so a CPGMA-only run inserts
    nothing into it; its centers, prototypes and ledger, and so its digests,
    are those pinned above."""
    with mock.patch.object(FeatureBank, "insert", autospec=True,
                           side_effect=FeatureBank.insert) as insert:
        digests = cpgma_run()
        assert insert.call_count == 0
        fedmp_run()
        assert insert.call_count > 0        # the spy sees a run that samples the bank
    assert digests == expected_digests(blas_kernel())["cpgma"]


def test_kernel_tables_pin_the_same_digests():
    """Only the host's table is compared with a run, so a group or digest
    left in, or missing from, another kernel's table would pass unnoticed."""
    for kernel, table in GOLDEN.items():
        assert set(table) == set(RUNS), kernel
        for name, digests in table.items():
            assert set(digests) == set(GOLDEN["SkylakeX"][name]), (kernel, name)


def test_unknown_kernel_fails_with_the_pin_command(monkeypatch):
    monkeypatch.setitem(globals(), "blas_kernel", lambda: "NoSuchKernel")
    with pytest.raises(pytest.fail.Exception) as failure:
        test_golden_digests("fedavg")
    message = str(failure.value)
    assert "'NoSuchKernel'" in message and PIN_COMMAND in message


if __name__ == "__main__":
    # print this kernel's GOLDEN entry; OPENBLAS_CORETYPE=<kernel> selects
    # another kernel this CPU can run
    print(format_entry(blas_kernel(), {name: run() for name, run in RUNS.items()}))
