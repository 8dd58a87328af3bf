"""Run configuration: defaults, INI config files and the config hash.

The config file is flat ``key = value`` INI with one section per
pipeline stage ([dataset], [lstm], [svr], [polyreg], [run]); CLI flags
override file values, which override the defaults below.  Every key
is a RunConfig field: ``lstm_*``, ``svr_*`` and ``poly_*`` fields are
[lstm], [svr] and [polyreg] keys without their prefix, ``seed`` is a
[run] key, and the other fields but the CLI-only paths are [dataset]
keys.  A value parses as the type of its field's default.  The config
hash fingerprints every semantic field (paths excluded) and is embedded
in each output artifact so reruns are attributable.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import Field, asdict, dataclass, fields, replace
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
            # a repeat would fit and write the same grid point twice
            for i, value in enumerate(seq):
                if value in seq[:i]:
                    raise ConfigError(f"{label} repeats {value!r}")


_CLI_ONLY = ("input_path", "out_dir")
_PREFIXES = {"lstm": "lstm", "svr": "svr", "poly": "polyreg"}


def _schema() -> dict[str, dict[str, Field]]:
    schema: dict[str, dict[str, Field]] = {}
    for f in fields(RunConfig):
        prefix, _, key = f.name.partition("_")
        if prefix in _PREFIXES:
            schema.setdefault(_PREFIXES[prefix], {})[key] = f
        elif f.name not in _CLI_ONLY:
            schema.setdefault("run" if f.name == "seed" else "dataset", {})[f.name] = f
    return schema


_SCHEMA = _schema()


def _parse(raw: str, default):
    """``raw`` as ``default``'s type; a tuple takes a comma-separated list."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(p.strip()) for p in raw.split(",") if p.strip())
    return type(default)(raw.strip())


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

    if parser.defaults():
        raise ConfigError(f"{path}: unknown section [DEFAULT]")
    overrides = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        known = _SCHEMA[section]
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            field = known[key]
            try:
                overrides[field.name] = _parse(raw, field.default)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for {section}.{key}: {raw!r}") from exc
    return replace(base, **overrides)


def config_hash(cfg: RunConfig) -> str:
    """12-hex-digit digest of every semantic field (paths excluded)."""
    payload = asdict(cfg)
    for name in _CLI_ONLY:
        payload.pop(name)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
