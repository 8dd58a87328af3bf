"""Run configuration: defaults, INI config files and the config hash.

The config file is flat ``key = value`` INI with one section per
pipeline stage ([dataset], [lstm], [svr], [polyreg], [run]); CLI flags
override file values, which override the defaults below.  The config
hash fingerprints every semantic field (paths excluded) and is embedded
in each output artifact so reruns are attributable.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

__all__ = ["RunConfig", "load_config", "config_hash", "ConfigError"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    input_path: str | None = None  # None selects the bundled sample CSV
    out_dir: str = "out"
    seed: int = 42

    # dataset
    target_column: str = "close"
    train_fraction: float = 0.8
    window: int = 30

    # lstm
    lstm_hidden_size: int = 50
    lstm_epochs: tuple[int, ...] = (10, 30, 50, 80, 100)
    lstm_learning_rate: float = 1e-3
    lstm_beta1: float = 0.9
    lstm_beta2: float = 0.999
    lstm_adam_eps: float = 1e-8
    lstm_batch_size: int = 32

    # svr
    svr_kernels: tuple[str, ...] = ("rbf", "sigmoid", "linear")
    svr_gammas: tuple[float, ...] = (0.001, 0.01, 0.1, 1.0)
    svr_cs: tuple[float, ...] = (1.0, 10.0, 100.0, 1000.0)
    svr_epsilon: float = 0.1
    svr_tol: float = 1e-3
    svr_cv_folds: int = 5
    svr_coef0: float = 0.0
    svr_features: str = "time"  # "time" or "window"

    # polynomial regression
    poly_degrees: tuple[int, ...] = (2, 4, 6, 9, 11)

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.target_column not in ("close", "adj_close"):
            raise ConfigError(f"target_column must be close or adj_close, got {self.target_column!r}")
        if self.svr_features not in ("time", "window"):
            raise ConfigError(f"svr_features must be time or window, got {self.svr_features!r}")
        for label, seq in (("lstm_epochs", self.lstm_epochs),
                           ("svr_kernels", self.svr_kernels),
                           ("svr_gammas", self.svr_gammas),
                           ("svr_cs", self.svr_cs),
                           ("poly_degrees", self.poly_degrees)):
            if len(seq) == 0:
                raise ConfigError(f"{label} must not be empty")


_SECTIONS = {
    "dataset": {
        "target_column": str,
        "train_fraction": float,
        "window": int,
    },
    "lstm": {
        "hidden_size": ("lstm_hidden_size", int),
        "epochs": ("lstm_epochs", "int_list"),
        "learning_rate": ("lstm_learning_rate", float),
        "beta1": ("lstm_beta1", float),
        "beta2": ("lstm_beta2", float),
        "adam_eps": ("lstm_adam_eps", float),
        "batch_size": ("lstm_batch_size", int),
    },
    "svr": {
        "kernels": ("svr_kernels", "str_list"),
        "gammas": ("svr_gammas", "float_list"),
        "cs": ("svr_cs", "float_list"),
        "epsilon": ("svr_epsilon", float),
        "tol": ("svr_tol", float),
        "cv_folds": ("svr_cv_folds", int),
        "coef0": ("svr_coef0", float),
        "features": ("svr_features", str),
    },
    "polyreg": {
        "degrees": ("poly_degrees", "int_list"),
    },
    "run": {
        "seed": int,
    },
}


def _convert(raw: str, kind):
    raw = raw.strip()
    if kind is str:
        return raw
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if kind == "int_list":
        return tuple(int(p) for p in parts)
    if kind == "float_list":
        return tuple(float(p) for p in parts)
    if kind == "str_list":
        return tuple(parts)
    raise AssertionError(kind)


def load_config(path: str | Path, base: RunConfig | None = None) -> RunConfig:
    """Overlay an INI config file on ``base`` (defaults when omitted)."""
    base = base if base is not None else RunConfig()
    parser = configparser.ConfigParser()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    overrides = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        known = _SECTIONS[section]
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            spec = known[key]
            if isinstance(spec, tuple):
                field, kind = spec
            else:
                field, kind = key, spec
            try:
                overrides[field] = _convert(raw, kind)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for {section}.{key}: {raw!r}") from exc
    return replace(base, **overrides)


def config_hash(cfg: RunConfig) -> str:
    """12-hex-digit digest of every semantic field (paths excluded)."""
    payload = asdict(cfg)
    payload.pop("input_path")
    payload.pop("out_dir")
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
