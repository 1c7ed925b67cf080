"""Golden digests: pinned SHA-256 of the metrics JSON, the ledger entries and
the model blobs of five small fixed runs, and of the reports of a feature-
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


def sgd_run() -> dict:
    # both modules on, plain SGD over the whole-model gradient
    shards, global_test = _data(3)
    cfg = SCALE_S.federation_config(3, mode="fedmp")
    cfg.optimizer = "sgd"
    cfg.track_geometry = False
    result = run_federation(cfg, shards, SCALE_S.network_spec(), global_test)
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
    "sgd": sgd_run,
    "fewshot": fewshot_run,
}

# one table per OpenBLAS kernel, keyed by the name the kernel reports; pinned
# with PIN_COMMAND, once per kernel the host can run
GOLDEN = {
    "SkylakeX": {
        "attack": {
            "reports": "14c0d040d0c9e619dc7071850b1d3948701a3353c91f3daaa77435fc9795f903",
            "decoder": "0659f328f57eeaefd80a42b70b90c9176b6c89fad16941cd7cb15626a3443c6c",
        },
        "cpgma": {
            "metrics": "5b06b43cd98a1c6abd78d33c10f875c00338299460303421ef68094ce06777d7",
            "ledger": "0738670b842e2911270050b8ae927369ac592bec6c32a0c7ed55be1550d08bc7",
            "models": "cb663c7df3ed8b404948681fcb7f5cbefb85fccd398d5e5dedaeb91d41e8721f",
        },
        "fedavg": {
            "metrics": "1cef4fce21dad5aad1167ec44442a6cf2132740d91620ded98dca3b9336429c9",
            "ledger": "a3e226a821fc9a8025f4d21ef8b8a8d0e5c329193608a83d66c2103a4965ce7b",
            "models": "39451f1f5a7a578155157bc5adf6c33da314b3a48942c41749c14f479d2d93a2",
        },
        "fedmp": {
            "metrics": "85f6c441985fc25bcc0f7da3767228228a40d2d1b9b8039a79f6052e42e6c9f2",
            "ledger": "ad3dc7aabdbfe2085cb32398b99976a37544fc61182b1778f75998f1fe79e03b",
            "models": "c05254583b0ecac0e7315948558ee1d97972314abacad5e11a49593e1d324485",
        },
        "fewshot": {
            "metrics": "cd19d2f9273e02a9750ba1d8b91531ca5db6c20d61cf4e1751628ebb48927b2a",
            "ledger": "10b99386b3e6a31b4aef4aadd66b2dc95d21db7511a7c30d5141ee8e9b777bed",
            "models": "1cee7d03fede812c7a227da1c15616be5a7e89c6042250bfafe964b6d2d19c54",
        },
        "sgd": {
            "metrics": "2eab8160a3bf2b6a7ee83488e90620ec65dbcac7acacf61316a86b772bd7025a",
            "ledger": "ad3dc7aabdbfe2085cb32398b99976a37544fc61182b1778f75998f1fe79e03b",
            "models": "46e56b512e01490f6227d4ba12aa90bbce7e5322d7e06a9360f31d55c05211f6",
        },
    },
    "Haswell": {
        "attack": {
            "reports": "efd30de530787cd3b9aebfedd6b71db897e0c4807f1d91976f4f394d59b6bde2",
            "decoder": "0659f328f57eeaefd80a42b70b90c9176b6c89fad16941cd7cb15626a3443c6c",
        },
        "cpgma": {
            "metrics": "5b06b43cd98a1c6abd78d33c10f875c00338299460303421ef68094ce06777d7",
            "ledger": "0738670b842e2911270050b8ae927369ac592bec6c32a0c7ed55be1550d08bc7",
            "models": "cb663c7df3ed8b404948681fcb7f5cbefb85fccd398d5e5dedaeb91d41e8721f",
        },
        "fedavg": {
            "metrics": "1cef4fce21dad5aad1167ec44442a6cf2132740d91620ded98dca3b9336429c9",
            "ledger": "a3e226a821fc9a8025f4d21ef8b8a8d0e5c329193608a83d66c2103a4965ce7b",
            "models": "39451f1f5a7a578155157bc5adf6c33da314b3a48942c41749c14f479d2d93a2",
        },
        "fedmp": {
            "metrics": "76fb017270279583ab6c30a8319a091e714632d1a88bc6e346fd07c9bc3133bb",
            "ledger": "ad3dc7aabdbfe2085cb32398b99976a37544fc61182b1778f75998f1fe79e03b",
            "models": "c05254583b0ecac0e7315948558ee1d97972314abacad5e11a49593e1d324485",
        },
        "fewshot": {
            "metrics": "adabe83f0910e09c18fa8a36801071177de9da96c1ee2f9940dfbf0ff83b55fb",
            "ledger": "10b99386b3e6a31b4aef4aadd66b2dc95d21db7511a7c30d5141ee8e9b777bed",
            "models": "1cee7d03fede812c7a227da1c15616be5a7e89c6042250bfafe964b6d2d19c54",
        },
        "sgd": {
            "metrics": "fad3bd8896145b094c71123de59404be0ab0b6e9269758837441c35f9a345d7d",
            "ledger": "ad3dc7aabdbfe2085cb32398b99976a37544fc61182b1778f75998f1fe79e03b",
            "models": "46e56b512e01490f6227d4ba12aa90bbce7e5322d7e06a9360f31d55c05211f6",
        },
    },
    "Sandybridge": {
        "attack": {
            "reports": "1953bcc50f4aa3dfc654b11ac5c0baac5c2fad639b8db4dc855e30efa467f6dc",
            "decoder": "0659f328f57eeaefd80a42b70b90c9176b6c89fad16941cd7cb15626a3443c6c",
        },
        "cpgma": {
            "metrics": "5b06b43cd98a1c6abd78d33c10f875c00338299460303421ef68094ce06777d7",
            "ledger": "0738670b842e2911270050b8ae927369ac592bec6c32a0c7ed55be1550d08bc7",
            "models": "cb663c7df3ed8b404948681fcb7f5cbefb85fccd398d5e5dedaeb91d41e8721f",
        },
        "fedavg": {
            "metrics": "1cef4fce21dad5aad1167ec44442a6cf2132740d91620ded98dca3b9336429c9",
            "ledger": "a3e226a821fc9a8025f4d21ef8b8a8d0e5c329193608a83d66c2103a4965ce7b",
            "models": "39451f1f5a7a578155157bc5adf6c33da314b3a48942c41749c14f479d2d93a2",
        },
        "fedmp": {
            "metrics": "3a36353e6228d1cc0a9a59fc5585c1e37b9524df165cbb167bf49645c2b24077",
            "ledger": "ad3dc7aabdbfe2085cb32398b99976a37544fc61182b1778f75998f1fe79e03b",
            "models": "c05254583b0ecac0e7315948558ee1d97972314abacad5e11a49593e1d324485",
        },
        "fewshot": {
            "metrics": "fa3bc9b303f963f47635f9a6c8c2c69ccce4e220fb549a8dc5e7c2bc2adb2d58",
            "ledger": "10b99386b3e6a31b4aef4aadd66b2dc95d21db7511a7c30d5141ee8e9b777bed",
            "models": "1cee7d03fede812c7a227da1c15616be5a7e89c6042250bfafe964b6d2d19c54",
        },
        "sgd": {
            "metrics": "0bfe2ba686b2b4c57d5977668183340729c0743ded453850662bbfe18461b273",
            "ledger": "ad3dc7aabdbfe2085cb32398b99976a37544fc61182b1778f75998f1fe79e03b",
            "models": "46e56b512e01490f6227d4ba12aa90bbce7e5322d7e06a9360f31d55c05211f6",
        },
    },
    "Katmai": {
        "attack": {
            "reports": "86b177f07414e84b4f4d116b5122d8b1d6e216a2156e81a0cfef6eaa43969b48",
            "decoder": "0659f328f57eeaefd80a42b70b90c9176b6c89fad16941cd7cb15626a3443c6c",
        },
        "cpgma": {
            "metrics": "5b06b43cd98a1c6abd78d33c10f875c00338299460303421ef68094ce06777d7",
            "ledger": "0738670b842e2911270050b8ae927369ac592bec6c32a0c7ed55be1550d08bc7",
            "models": "cb663c7df3ed8b404948681fcb7f5cbefb85fccd398d5e5dedaeb91d41e8721f",
        },
        "fedavg": {
            "metrics": "1cef4fce21dad5aad1167ec44442a6cf2132740d91620ded98dca3b9336429c9",
            "ledger": "a3e226a821fc9a8025f4d21ef8b8a8d0e5c329193608a83d66c2103a4965ce7b",
            "models": "39451f1f5a7a578155157bc5adf6c33da314b3a48942c41749c14f479d2d93a2",
        },
        "fedmp": {
            "metrics": "3a36353e6228d1cc0a9a59fc5585c1e37b9524df165cbb167bf49645c2b24077",
            "ledger": "ad3dc7aabdbfe2085cb32398b99976a37544fc61182b1778f75998f1fe79e03b",
            "models": "c05254583b0ecac0e7315948558ee1d97972314abacad5e11a49593e1d324485",
        },
        "fewshot": {
            "metrics": "fa3bc9b303f963f47635f9a6c8c2c69ccce4e220fb549a8dc5e7c2bc2adb2d58",
            "ledger": "10b99386b3e6a31b4aef4aadd66b2dc95d21db7511a7c30d5141ee8e9b777bed",
            "models": "1cee7d03fede812c7a227da1c15616be5a7e89c6042250bfafe964b6d2d19c54",
        },
        "sgd": {
            "metrics": "0bfe2ba686b2b4c57d5977668183340729c0743ded453850662bbfe18461b273",
            "ledger": "ad3dc7aabdbfe2085cb32398b99976a37544fc61182b1778f75998f1fe79e03b",
            "models": "46e56b512e01490f6227d4ba12aa90bbce7e5322d7e06a9360f31d55c05211f6",
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
