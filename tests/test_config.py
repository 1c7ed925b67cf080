"""Configuration file parsing, environment overrides, and mode mapping."""

import dataclasses
import json
import re

import pytest

from fedmp.config import (
    ENV_PREFIX,
    MODES,
    ConfigError,
    ExperimentConfig,
    apply_env_overrides,
    load_config,
    parse_config_text,
)
from fedmp.federation import FederationConfig


class TestParsing:
    def test_empty_text_is_defaults(self):
        assert parse_config_text("") == ExperimentConfig()

    def test_basic_keys(self):
        cfg = parse_config_text(
            """
            mode = fedavg
            rounds = 5
            learning_rate = 0.003
            seeds = 0, 1
            hidden_extractor = 64
            enable_cpgma = false
            """
        )
        assert cfg.mode == "fedavg"
        assert cfg.rounds == 5
        assert cfg.learning_rate == 0.003
        assert cfg.seeds == (0, 1)
        assert cfg.hidden_extractor == (64,)
        assert cfg.enable_cpgma is False

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("# comment\n\nrounds = 3  # trailing\n")
        assert cfg.rounds == 3

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*learning_rte"):
            parse_config_text("rounds = 3\nlearning_rte = 0.1\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("rounds 3\n")

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match="rounds"):
            parse_config_text("rounds = many\n")

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("mode = federated\n")

    def test_bool_spellings(self):
        for text, expected in (("yes", True), ("0", False), ("ON", True), ("off", False)):
            cfg = parse_config_text(f"enable_sfmc = {text}\n")
            assert cfg.enable_sfmc is expected
        with pytest.raises(ConfigError):
            parse_config_text("enable_sfmc = maybe\n")

    def test_empty_list_value(self):
        cfg = parse_config_text("hidden_classifier =\n")
        assert cfg.hidden_classifier == ()

    def test_unknown_optimizer_reports_file_and_line(self, tmp_path):
        # Adam is the only update rule; a file that still sets the old key fails
        path = tmp_path / "exp.cfg"
        path.write_text("rounds = 3\noptimizer = adam\n")
        with pytest.raises(ConfigError,
                           match=rf"{path.name}: line 2: unknown key 'optimizer'"):
            load_config(path, environ={})

    def test_key_set_twice_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("rounds = 3\nrounds = 5\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path, environ={})
        assert str(exc.value) == f"{path}: line 2: rounds already set at line 1"

    def test_empty_extractor_rejected(self):
        with pytest.raises(ConfigError, match="line 1: hidden_extractor"):
            parse_config_text("hidden_extractor =\n")

    def test_non_positive_hidden_widths_rejected(self):
        with pytest.raises(ConfigError, match="line 2: hidden_extractor"):
            parse_config_text("rounds = 3\nhidden_extractor = 0, -3\n")
        with pytest.raises(ConfigError, match="line 1: hidden_classifier"):
            parse_config_text("hidden_classifier = 16, 0\n")


class TestRangesAtLoad:
    """Values that only a later stage would trip over fail at load, naming
    the key and where it was set."""

    def test_attack_layers_outside_network(self):
        # the default network has 7 layers
        with pytest.raises(ConfigError, match="exp.cfg: line 2: attack_layers: layer 8 outside 1..7"):
            parse_config_text("rounds = 3\nattack_layers = 2, 8\n", source="exp.cfg")
        with pytest.raises(ConfigError, match="line 1: attack_layers: layer 0"):
            parse_config_text("attack_layers = 0\n")
        assert parse_config_text("attack_layers = 1, 7\n").attack_layers == (1, 7)

    def test_default_attack_layers_against_a_shorter_network(self):
        with pytest.raises(ConfigError, match="default value: attack_layers: layer 4 outside 1..3"):
            parse_config_text("hidden_extractor = 8\nhidden_classifier =\n")

    @pytest.mark.parametrize("key", ["clients", "classes"])
    def test_u16_counts(self, key):
        with pytest.raises(ConfigError, match=rf"line 2: {key}: num_{key} must be <= 65535"):
            parse_config_text(f"rounds = 3\n{key} = 65536\n")
        # enough samples per client to hold 65535 classes
        text = f"{key} = 65535\nsamples_per_client = 65535\n"
        assert getattr(parse_config_text(text), key) == 65535

    def test_unbuildable_network(self):
        with pytest.raises(ConfigError, match="network"):
            parse_config_text("classes = 0\n")

    @pytest.mark.parametrize("line,key,message", [
        ("mu_client = 2", "mu_client", "mu_client must be in (0, 1]"),
        ("mu_server = 0", "mu_server", "mu_server must be in (0, 1]"),
        ("rounds = 0", "rounds", "rounds must be >= 1"),
        ("local_epochs = 0", "local_epochs", "local_epochs must be >= 1"),
        ("clients = 0", "clients", "num_clients must be >= 1"),
        ("batch_size = 0", "batch_size", "batch_size must be >= 1"),
        ("bank_capacity = 0", "bank_capacity", "bank_capacity must be >= 1"),
        ("sample_count = -1", "sample_count", "sample_count must be >= 0"),
        ("learning_rate = -1", "learning_rate", "learning_rate must be >= 0"),
        ("weight_decay = -0.5", "weight_decay", "weight_decay must be >= 0"),
        ("classes = 1", "classes", "num_classes must be >= 2"),
        ("samples_per_client = 1", "samples_per_client", "samples_per_client must cover"),
        ("skew_strength = -1", "skew_strength", "skew_strength must be >= 0"),
        ("noise_std = nan", "noise_std", "not a finite number"),
        ("learning_rate = inf", "learning_rate", "not a finite number"),
        ("stage_epochs = 2, 0", "stage_epochs", "values must be positive"),
        ("stage_epochs =", "stage_epochs", "needs at least one value"),
        ("attack_train_fraction = 1.5", "attack_train_fraction",
         "train_fraction must be in (0, 1)"),
        ("attack_epochs = -1", "attack_epochs", "epochs must be >= 0"),
        ("attack_learning_rate = -0.01", "attack_learning_rate",
         "learning_rate must be >= 0, got -0.01"),
        ("seeds =", "seeds", "needs distinct non-negative integers, got []"),
        ("seeds = 1, 1", "seeds", "needs distinct non-negative integers, got [1, 1]"),
        ("seeds = 0, -1", "seeds", "needs distinct non-negative integers, got [0, -1]"),
        ("dataset_seed = -2", "dataset_seed", "seed must be >= 0, got -2"),
    ])
    def test_bad_value_named_at_its_line(self, line, key, message):
        pattern = re.escape(f"exp.cfg: line 2: {key}: {message}")
        with pytest.raises(ConfigError, match=pattern):
            parse_config_text(f"mode = fedmp\n{line}\n", source="exp.cfg")

    def test_library_check_named_by_env_variable(self):
        with pytest.raises(ConfigError, match=re.escape(
                "env FEDMP_BANK_CAPACITY: bank_capacity: bank_capacity must be >= 1")):
            apply_env_overrides(ExperimentConfig(), {ENV_PREFIX + "BANK_CAPACITY": "0"})

    @pytest.mark.parametrize("key,value,message", [
        ("SEEDS", "", "seeds: needs distinct non-negative integers, got []"),
        ("SEEDS", "3,3", "seeds: needs distinct non-negative integers, got [3, 3]"),
        ("SEEDS", "-1", "seeds: needs distinct non-negative integers, got [-1]"),
        ("DATASET_SEED", "-2", "dataset_seed: seed must be >= 0, got -2"),
    ])
    def test_seed_named_by_env_variable(self, key, value, message):
        with pytest.raises(ConfigError, match=re.escape(f"env {ENV_PREFIX}{key}: {message}")):
            apply_env_overrides(ExperimentConfig(), {ENV_PREFIX + key: value})

    def test_env_value_named(self):
        with pytest.raises(ConfigError, match="env FEDMP_ATTACK_LAYERS: attack_layers"):
            apply_env_overrides(ExperimentConfig(), {ENV_PREFIX + "ATTACK_LAYERS": "9"})
        with pytest.raises(ConfigError, match="env FEDMP_CLIENTS: clients"):
            apply_env_overrides(ExperimentConfig(), {ENV_PREFIX + "CLIENTS": "70000"})

    def test_checked_after_env_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("hidden_classifier =\n")       # 3 layers; default attack (2, 4)
        cfg = load_config(path, environ={ENV_PREFIX + "ATTACK_LAYERS": "2"})
        assert cfg.attack_layers == (2,)
        path.write_text("attack_layers = 6\n")          # 5 layers without hidden_classifier
        with pytest.raises(ConfigError, match=rf"{path.name}: line 1: attack_layers: layer 6"):
            load_config(path, environ={ENV_PREFIX + "HIDDEN_CLASSIFIER": ""})


class TestEnvOverrides:
    def test_override_applies(self):
        cfg = apply_env_overrides(ExperimentConfig(), {ENV_PREFIX + "ROUNDS": "9"})
        assert cfg.rounds == 9

    def test_unrelated_env_ignored(self):
        cfg = apply_env_overrides(ExperimentConfig(), {"ROUNDS": "9", "OTHER_ROUNDS": "9"})
        assert cfg.rounds == ExperimentConfig().rounds

    def test_env_beats_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("rounds = 4\n")
        cfg = load_config(path, environ={ENV_PREFIX + "ROUNDS": "7"})
        assert cfg.rounds == 7

    def test_bad_env_value_rejected(self):
        with pytest.raises(ConfigError, match="FEDMP_ROUNDS"):
            apply_env_overrides(ExperimentConfig(), {ENV_PREFIX + "ROUNDS": "x"})

    def test_bad_env_optimizer_rejected(self):
        # a FEDMP_ variable that names no key fails instead of being ignored
        with pytest.raises(ConfigError, match="env FEDMP_OPTIMIZER: unknown key 'optimizer'"):
            apply_env_overrides(ExperimentConfig(), {ENV_PREFIX + "OPTIMIZER": "sgd"})


class TestDerivedObjects:
    def test_network_spec_dimensions(self):
        cfg = ExperimentConfig(input_dim=16, hidden_extractor=(64,),
                               hidden_classifier=(32, 16), classes=3)
        spec = cfg.network_spec()
        assert spec.input_dim == 16
        assert spec.embedding_dim == 64
        assert spec.num_classes == 3

    def test_mode_fedavg_disables_modules(self):
        fed = ExperimentConfig().federation_config(seed=0, mode="fedavg")
        assert not fed.enable_sfmc and not fed.enable_cpgma

    def test_mode_fedmp_enables_modules(self):
        fed = ExperimentConfig().federation_config(seed=0, mode="fedmp")
        assert fed.enable_sfmc and fed.enable_cpgma

    def test_module_flags_respected_in_fedmp_mode(self):
        cfg = ExperimentConfig(enable_sfmc=False)
        fed = cfg.federation_config(seed=0, mode="fedmp")
        assert not fed.enable_sfmc and fed.enable_cpgma

    @pytest.mark.parametrize("mode,modules,clients", [
        ("fedavg", False, 3), ("fedmp", True, 3), ("fewshot", True, 3),
        ("single", False, 3), ("centralized", False, 1),
    ])
    def test_mode_mapping(self, mode, modules, clients):
        # the modules run only in fedmp and fewshot; centralized is one client
        assert mode in MODES
        fed = ExperimentConfig(mode=mode).federation_config(seed=0)
        assert (fed.enable_sfmc, fed.enable_cpgma) == (modules, modules)
        assert fed.num_clients == clients
        assert ExperimentConfig().federation_config(seed=0, mode=mode) == fed

    def test_shared_fields_copied_by_name(self):
        cfg = ExperimentConfig(
            clients=4, classes=5, rounds=7, local_epochs=3, batch_size=5,
            mu_client=0.25, mu_server=0.5, learning_rate=0.02, weight_decay=0.0,
            sample_count=9, bank_capacity=11, track_geometry=False,
        )
        assert cfg.federation_config(seed=2) == FederationConfig(
            rounds=7, num_clients=4, local_epochs=3, num_classes=5, batch_size=5,
            mu_client=0.25, mu_server=0.5, learning_rate=0.02, weight_decay=0.0,
            sample_count=9, bank_capacity=11, seed=2, track_geometry=False,
        )

    def test_seed_passed_through(self):
        assert ExperimentConfig().federation_config(seed=5).seed == 5

    def test_echo_round_trips_tuples_as_lists(self):
        # the run manifest writes ``asdict``; JSON prints its tuples as lists
        echo = json.loads(json.dumps(dataclasses.asdict(ExperimentConfig(seeds=(3, 4)))))
        assert echo["seeds"] == [3, 4]
        assert echo["mode"] == "fedmp"
