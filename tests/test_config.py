"""Configuration file parsing, environment overrides, and mode mapping."""

import pytest

from fedmp.config import (
    ENV_PREFIX,
    ConfigError,
    ExperimentConfig,
    apply_env_overrides,
    config_echo,
    load_config,
    parse_config_text,
)


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
        path = tmp_path / "exp.cfg"
        path.write_text("rounds = 3\noptimizer = adamw\n")
        with pytest.raises(ConfigError, match=rf"{path.name}: line 2: optimizer"):
            load_config(path, environ={})
        assert parse_config_text("optimizer = SGD\n").optimizer == "sgd"

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
        assert getattr(parse_config_text(f"{key} = 65535\n"), key) == 65535

    def test_unbuildable_network(self):
        with pytest.raises(ConfigError, match="network"):
            parse_config_text("classes = 0\n")

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
        with pytest.raises(ConfigError, match="FEDMP_OPTIMIZER"):
            apply_env_overrides(ExperimentConfig(), {ENV_PREFIX + "OPTIMIZER": "adamw"})


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

    def test_seed_passed_through(self):
        assert ExperimentConfig().federation_config(seed=5).seed == 5

    def test_echo_round_trips_tuples_as_lists(self):
        echo = config_echo(ExperimentConfig(seeds=(3, 4)))
        assert echo["seeds"] == [3, 4]
        assert echo["mode"] == "fedmp"
