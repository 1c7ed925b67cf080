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
