"""Flat key = value experiment configuration with a typed schema.

Unknown keys are rejected with the offending key name; every key can be
overridden through the environment with the ``FEDMP_`` prefix (dots in key
names are not used, so ``learning_rate`` becomes ``FEDMP_LEARNING_RATE``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from typing import ClassVar

from .data import DatasetSpec
from .federation import OPTIMIZERS, FederationConfig, TrainingConfig
from .nn import NetworkSpec, ShapeError, mlp_spec
from .privacy import AttackConfig

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


def _parse_float(value: str) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"not a finite number: {value.strip()!r}")
    return v


def _parse_positive(value: str, allow_empty: bool) -> tuple:
    values = _parse_int_list(value)
    if not values and not allow_empty:
        raise ValueError("needs at least one value")
    if any(v < 1 for v in values):
        raise ValueError(f"values must be positive, got {values}")
    return values


def _choice(options: tuple):
    def parse(value: str) -> str:
        v = value.strip().lower()
        if v not in options:
            raise ValueError(f"must be one of {options}")
        return v
    return parse


@dataclass
class ExperimentConfig(TrainingConfig):
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
    # federation, besides the inherited training keys
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
        """The seed's training config for ``mode`` (the configured one by
        default). SFMC and CPGMA run only in fedmp and fewshot, and
        centralized trains one client on the pooled data."""
        mode = mode or self.mode
        modules = mode in ("fedmp", "fewshot")
        return FederationConfig(**{
            **{f.name: getattr(self, f.name) for f in fields(TrainingConfig)},
            "num_clients": 1 if mode == "centralized" else self.clients,
            "num_classes": self.classes,
            "seed": seed,
            "enable_sfmc": self.enable_sfmc and modules,
            "enable_cpgma": self.enable_cpgma and modules,
        })

    def attack_configs(self, seed: int) -> list[AttackConfig]:
        """One inversion attack per layer in ``attack_layers``."""
        return [AttackConfig(split_index=layer, epochs=self.attack_epochs,
                             train_fraction=self.attack_train_fraction,
                             learning_rate=self.attack_learning_rate, seed=seed)
                for layer in self.attack_layers]


# one parser per key, chosen by the field's annotation
_PARSE_BY_TYPE = {"int": int, "float": _parse_float, "bool": _parse_bool,
                  "tuple": _parse_int_list, "str": str}
_PARSERS = {f.name: _PARSE_BY_TYPE[f.type] for f in fields(ExperimentConfig)}
_PARSERS["mode"] = _choice(MODES)
_PARSERS["optimizer"] = _choice(OPTIMIZERS)
_PARSERS["hidden_extractor"] = lambda value: _parse_positive(value, allow_empty=False)
_PARSERS["hidden_classifier"] = lambda value: _parse_positive(value, allow_empty=True)
_PARSERS["stage_epochs"] = _PARSERS["hidden_extractor"]

# the config key of a library field, where the names differ
_KEY_OF_FIELD = {"num_clients": "clients", "num_classes": "classes", "seed": "dataset_seed"}


def check_ranges(config: ExperimentConfig) -> ExperimentConfig:
    """Reject values that only a later stage would trip over, naming the key
    and where it was set. The training, dataset and attack objects check
    their own fields, each message starting with the field's name."""
    def fail(key: str, message: str):
        raise ConfigError(f"{config.origins.get(key, 'default value')}: {key}: {message}")

    try:
        layers = len(config.network_spec().layers)
    except ShapeError as exc:
        raise ConfigError(f"network (input_dim, hidden widths, classes): {exc}") from None
    for split in config.attack_layers:
        if not 1 <= split <= layers:
            fail("attack_layers", f"layer {split} outside 1..{layers}, the network's layers")
    if not config.seeds or min(config.seeds) < 0 or len(set(config.seeds)) < len(config.seeds):
        fail("seeds", f"needs distinct non-negative integers, got {list(config.seeds)}")
    for build, prefix in ((lambda: config.federation_config(0), ""),
                          (config.dataset_spec, ""),
                          (lambda: config.attack_configs(0), "attack_")):
        try:
            build()
        except ValueError as exc:
            name = str(exc).split()[0]
            fail(prefix + _KEY_OF_FIELD.get(name, name), str(exc))
    return config


def _value(key: str, raw: str, origin: str):
    try:
        return _PARSERS[key](raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{origin}: {key}: {exc}") from None


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
        values[key] = _value(key, value, origins[key])
    config = ExperimentConfig(**values)
    config.origins = origins
    return config


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    return check_ranges(_parse(text, source))


def apply_env_overrides(config: ExperimentConfig, environ=None) -> ExperimentConfig:
    environ = os.environ if environ is None else environ
    origins = dict(config.origins)
    for key in _PARSERS:
        env_key = ENV_PREFIX + key.upper()
        if env_key in environ:
            origins[key] = f"env {env_key}"
            setattr(config, key, _value(key, environ[env_key], origins[key]))
    config.origins = origins
    return check_ranges(config)


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
