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
            "reports": "6642651665533c200711706e586d1a13179fbff7d75c7bd0f9f70c0f34043b99",
            "decoder": "6a04382ca2155df23d9f66864133bc3be29d7c27959406973523e0643bf2b320",
        },
        "cpgma": {
            "metrics": "86743db6b7a3c95b3e69d86d83b4726dce3f5c272397bdd3a800e344053c63ff",
            "ledger": "0738670b842e2911270050b8ae927369ac592bec6c32a0c7ed55be1550d08bc7",
            "models": "9bc3b8a5d21e2186a5560502a8e770e626c4c4aae6c47e0ff6495c4c53591bb6",
        },
        "fedavg": {
            "metrics": "1cef4fce21dad5aad1167ec44442a6cf2132740d91620ded98dca3b9336429c9",
            "ledger": "a3e226a821fc9a8025f4d21ef8b8a8d0e5c329193608a83d66c2103a4965ce7b",
            "models": "39451f1f5a7a578155157bc5adf6c33da314b3a48942c41749c14f479d2d93a2",
        },
        "fedmp": {
            "metrics": "4eda4e590e3389f87afeabc1aa30f0bce1e255577ae50c80210c73009108b35f",
            "ledger": "ad3dc7aabdbfe2085cb32398b99976a37544fc61182b1778f75998f1fe79e03b",
            "models": "94563f7bec0289dba498c991c59c7a54cfca98044cda51b18d79451716edb429",
        },
        "fewshot": {
            "metrics": "4ad506ed25369a574beee17c25e2c09cd93cd788580c2c8d691f385386fd2382",
            "ledger": "10b99386b3e6a31b4aef4aadd66b2dc95d21db7511a7c30d5141ee8e9b777bed",
            "models": "0c50c5f079d04f288ef309a5e5f04901698c7b8a7bddc89e62fcb1f3c05313e5",
        },
    },
    "Haswell": {
        "attack": {
            "reports": "548dbb7f2b262a2c81a556d68f2396dd344c11978b45b60e52fa7101fa262582",
            "decoder": "6a04382ca2155df23d9f66864133bc3be29d7c27959406973523e0643bf2b320",
        },
        "cpgma": {
            "metrics": "1f16c01ba1576b912d7cfd8f8738c60bb4e913a92d2886767111d17a3f41d6e8",
            "ledger": "0738670b842e2911270050b8ae927369ac592bec6c32a0c7ed55be1550d08bc7",
            "models": "9bc3b8a5d21e2186a5560502a8e770e626c4c4aae6c47e0ff6495c4c53591bb6",
        },
        "fedavg": {
            "metrics": "1cef4fce21dad5aad1167ec44442a6cf2132740d91620ded98dca3b9336429c9",
            "ledger": "a3e226a821fc9a8025f4d21ef8b8a8d0e5c329193608a83d66c2103a4965ce7b",
            "models": "39451f1f5a7a578155157bc5adf6c33da314b3a48942c41749c14f479d2d93a2",
        },
        "fedmp": {
            "metrics": "17b2008d73b575358f9030d472f7ba16198c32048f2a68b080d719e2c8d92350",
            "ledger": "ad3dc7aabdbfe2085cb32398b99976a37544fc61182b1778f75998f1fe79e03b",
            "models": "94563f7bec0289dba498c991c59c7a54cfca98044cda51b18d79451716edb429",
        },
        "fewshot": {
            "metrics": "4ad506ed25369a574beee17c25e2c09cd93cd788580c2c8d691f385386fd2382",
            "ledger": "10b99386b3e6a31b4aef4aadd66b2dc95d21db7511a7c30d5141ee8e9b777bed",
            "models": "0c50c5f079d04f288ef309a5e5f04901698c7b8a7bddc89e62fcb1f3c05313e5",
        },
    },
    "Sandybridge": {
        "attack": {
            "reports": "617a3ca20ad3c866cc8b9a150123cfca754eb074898d5dd8d41a11860e244394",
            "decoder": "6a04382ca2155df23d9f66864133bc3be29d7c27959406973523e0643bf2b320",
        },
        "cpgma": {
            "metrics": "b2fc931e79ff64dbe4db2e470099d75dafc4fbfe3008b953fc0f75eccc3cf977",
            "ledger": "0738670b842e2911270050b8ae927369ac592bec6c32a0c7ed55be1550d08bc7",
            "models": "9bc3b8a5d21e2186a5560502a8e770e626c4c4aae6c47e0ff6495c4c53591bb6",
        },
        "fedavg": {
            "metrics": "1cef4fce21dad5aad1167ec44442a6cf2132740d91620ded98dca3b9336429c9",
            "ledger": "a3e226a821fc9a8025f4d21ef8b8a8d0e5c329193608a83d66c2103a4965ce7b",
            "models": "39451f1f5a7a578155157bc5adf6c33da314b3a48942c41749c14f479d2d93a2",
        },
        "fedmp": {
            "metrics": "4583f94072f64449801f07c59a104f2942eb832328d11af1bec350c5eca98fa3",
            "ledger": "ad3dc7aabdbfe2085cb32398b99976a37544fc61182b1778f75998f1fe79e03b",
            "models": "94563f7bec0289dba498c991c59c7a54cfca98044cda51b18d79451716edb429",
        },
        "fewshot": {
            "metrics": "67d5ded541633ea6cc23bf74f4b62184134e8f067e91ba60139a15924c710f49",
            "ledger": "10b99386b3e6a31b4aef4aadd66b2dc95d21db7511a7c30d5141ee8e9b777bed",
            "models": "0c50c5f079d04f288ef309a5e5f04901698c7b8a7bddc89e62fcb1f3c05313e5",
        },
    },
    "Katmai": {
        "attack": {
            "reports": "4f66ace4cf5c16b5436f185364149f60d354d4ef7ecad036746880485d6caef6",
            "decoder": "6a04382ca2155df23d9f66864133bc3be29d7c27959406973523e0643bf2b320",
        },
        "cpgma": {
            "metrics": "3b44645ceed1c8c923c1f2fadda4a37dbc1ccd1b5ac5e85fae8220cae3cec9aa",
            "ledger": "0738670b842e2911270050b8ae927369ac592bec6c32a0c7ed55be1550d08bc7",
            "models": "9bc3b8a5d21e2186a5560502a8e770e626c4c4aae6c47e0ff6495c4c53591bb6",
        },
        "fedavg": {
            "metrics": "1cef4fce21dad5aad1167ec44442a6cf2132740d91620ded98dca3b9336429c9",
            "ledger": "a3e226a821fc9a8025f4d21ef8b8a8d0e5c329193608a83d66c2103a4965ce7b",
            "models": "39451f1f5a7a578155157bc5adf6c33da314b3a48942c41749c14f479d2d93a2",
        },
        "fedmp": {
            "metrics": "cb36539ed4d0d6115b6ed67d568f81da9c6a4985e4c7309b39c9a724df5bdcfc",
            "ledger": "ad3dc7aabdbfe2085cb32398b99976a37544fc61182b1778f75998f1fe79e03b",
            "models": "94563f7bec0289dba498c991c59c7a54cfca98044cda51b18d79451716edb429",
        },
        "fewshot": {
            "metrics": "67d5ded541633ea6cc23bf74f4b62184134e8f067e91ba60139a15924c710f49",
            "ledger": "10b99386b3e6a31b4aef4aadd66b2dc95d21db7511a7c30d5141ee8e9b777bed",
            "models": "0c50c5f079d04f288ef309a5e5f04901698c7b8a7bddc89e62fcb1f3c05313e5",
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
