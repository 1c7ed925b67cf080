"""Flat key = value experiment configuration with a typed schema.

Unknown keys are rejected with the offending key name; every key can be
overridden through the environment with the ``FEDMP_`` prefix (dots in key
names are not used, so ``learning_rate`` becomes ``FEDMP_LEARNING_RATE``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import ClassVar

from .data import DatasetSpec
from .federation import OPTIMIZERS, FederationConfig
from .nn import NetworkSpec, ShapeError, mlp_spec

ENV_PREFIX = "FEDMP_"
MODES = ("fedavg", "fedmp", "fewshot", "single", "centralized")


class ConfigError(ValueError):
    pass


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _parse_int_list(value: str) -> tuple:
    value = value.strip()
    if not value:
        return ()
    return tuple(int(v.strip()) for v in value.split(","))


def _parse_widths(value: str, allow_empty: bool) -> tuple:
    widths = _parse_int_list(value)
    if not widths and not allow_empty:
        raise ValueError("needs at least one width")
    if any(w < 1 for w in widths):
        raise ValueError(f"widths must be positive, got {widths}")
    return widths


def _choice(options: tuple):
    def parse(value: str) -> str:
        v = value.strip().lower()
        if v not in options:
            raise ValueError(f"must be one of {options}")
        return v
    return parse


@dataclass
class ExperimentConfig:
    mode: str = "fedmp"
    seeds: tuple = (0, 1, 2)
    output_dir: str = "out"
    # dataset
    input_dim: int = 16
    classes: int = 3
    clients: int = 3
    samples_per_client: int = 64
    skew_strength: float = 2.0
    noise_std: float = 0.1
    dataset_seed: int = 0
    # network
    hidden_extractor: tuple = (64, 32)
    hidden_classifier: tuple = (16,)
    # federation
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
    eps_guard: float = 1e-8
    optimizer: str = "adam"
    track_geometry: bool = True
    stage_epochs: tuple = (30, 60, 60)
    # privacy attack
    attack_layers: tuple = (2, 4)
    attack_epochs: int = 200
    attack_train_fraction: float = 0.5
    attack_learning_rate: float = 1e-2
    # where each value was set: "<file>: line <n>" or "env FEDMP_<KEY>"
    origins: ClassVar[dict] = {}

    def dataset_spec(self) -> DatasetSpec:
        return DatasetSpec(
            input_dim=self.input_dim,
            num_classes=self.classes,
            samples_per_client=self.samples_per_client,
            num_clients=self.clients,
            skew_strength=self.skew_strength,
            noise_std=self.noise_std,
            seed=self.dataset_seed,
        )

    def network_spec(self) -> NetworkSpec:
        return mlp_spec(self.input_dim, self.hidden_extractor,
                        self.hidden_classifier, self.classes)

    def federation_config(self, seed: int, mode: str | None = None) -> FederationConfig:
        mode = mode or self.mode
        modules = mode in ("fedmp", "fewshot", "single")
        return FederationConfig(
            rounds=self.rounds,
            num_clients=self.clients,
            local_epochs=self.local_epochs,
            num_classes=self.classes,
            batch_size=self.batch_size,
            mu_client=self.mu_client,
            mu_server=self.mu_server,
            learning_rate=self.learning_rate,
            weight_decay=self.weight_decay,
            enable_sfmc=self.enable_sfmc and modules and mode != "single",
            enable_cpgma=self.enable_cpgma and modules and mode != "single",
            sample_count=self.sample_count,
            bank_capacity=self.bank_capacity,
            eps_guard=self.eps_guard,
            seed=seed,
            optimizer=self.optimizer,
            track_geometry=self.track_geometry,
        )


# one parser per key, chosen by the field's annotation
_PARSE_BY_TYPE = {"int": int, "float": float, "bool": _parse_bool,
                  "tuple": _parse_int_list, "str": str}
_PARSERS = {f.name: _PARSE_BY_TYPE[f.type] for f in fields(ExperimentConfig)}
_PARSERS["mode"] = _choice(MODES)
_PARSERS["optimizer"] = _choice(OPTIMIZERS)
_PARSERS["hidden_extractor"] = lambda value: _parse_widths(value, allow_empty=False)
_PARSERS["hidden_classifier"] = lambda value: _parse_widths(value, allow_empty=True)


def _check_ranges(config: ExperimentConfig) -> ExperimentConfig:
    """Reject values that only a later stage would trip over, naming the key
    and where it was set."""
    def fail(key: str, message: str):
        raise ConfigError(f"{config.origins.get(key, 'default value')}: {key}: {message}")

    for key in ("clients", "classes"):      # u16 fields of feature headers
        if getattr(config, key) > 0xFFFF:
            fail(key, f"num_{key} must be <= 65535, got {getattr(config, key)}")
    try:
        layers = len(config.network_spec().layers)
    except ShapeError as exc:
        raise ConfigError(f"network (input_dim, hidden widths, classes): {exc}") from None
    for split in config.attack_layers:
        if not 1 <= split <= layers:
            fail("attack_layers", f"layer {split} outside 1..{layers}, the network's layers")
    return config


def _parse(text: str, source: str) -> ExperimentConfig:
    values: dict = {}
    origins: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{source}: line {lineno}: unknown key {key!r}")
        origins[key] = f"{source}: line {lineno}"
        try:
            values[key] = _PARSERS[key](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{origins[key]}: {key}: {exc}") from None
    config = ExperimentConfig(**values)
    config.origins = origins
    return config


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    return _check_ranges(_parse(text, source))


def apply_env_overrides(config: ExperimentConfig, environ=None) -> ExperimentConfig:
    environ = os.environ if environ is None else environ
    origins = dict(config.origins)
    for key in _PARSERS:
        env_key = ENV_PREFIX + key.upper()
        if env_key in environ:
            origins[key] = f"env {env_key}"
            try:
                setattr(config, key, _PARSERS[key](environ[env_key]))
            except ValueError as exc:
                raise ConfigError(f"env {env_key}: {exc}") from None
    config.origins = origins
    return _check_ranges(config)


def load_config(path, environ=None) -> ExperimentConfig:
    """The file's values, then the environment's; ranges are checked once
    both are in, so an override can bring a file's value back into range."""
    with open(path) as fh:
        config = _parse(fh.read(), source=str(path))
    return apply_env_overrides(config, environ)


def config_echo(config: ExperimentConfig) -> dict:
    out = {}
    for f in fields(config):
        v = getattr(config, f.name)
        out[f.name] = list(v) if isinstance(v, tuple) else v
    return out
