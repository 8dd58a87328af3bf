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

``RunConfig`` checks the range of every setting when it is built, so
each command refuses a bad setting before it writes a file, and the
model code reads values that are already checked.  Every message names
the setting by its INI key, which is unique across sections.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import Field, asdict, dataclass, fields
from pathlib import Path

__all__ = ["RunConfig", "load_config", "config_hash", "ConfigError", "MODEL_NAMES"]

KERNEL_KINDS = ("linear", "rbf", "sigmoid")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    input_path: str | None = None  # None selects the bundled sample CSV
    out_dir: str = "out"
    seed: int = 42

    # dataset
    train_fraction: float = 0.8
    window: int = 30

    # lstm
    lstm_hidden_size: int = 50
    lstm_epochs: tuple[int, ...] = (10, 30, 50, 80, 100)
    lstm_learning_rate: float = 1e-3
    lstm_batch_size: int = 32

    # svr
    svr_kernels: tuple[str, ...] = ("rbf", "sigmoid", "linear")
    svr_gammas: tuple[float, ...] = (0.001, 0.01, 0.1, 1.0)
    svr_cs: tuple[float, ...] = (1.0, 10.0, 100.0, 1000.0)
    svr_epsilon: float = 0.1
    svr_cv_folds: int = 5
    svr_features: str = "time"  # "time" or "window"

    # polynomial regression
    poly_degrees: tuple[int, ...] = (2, 4, 6, 9, 11)

    def __post_init__(self):
        for name, ok, wording in self._ranges():
            value = getattr(self, name)
            for v in value if isinstance(value, tuple) else (value,):
                if not ok(v):
                    raise ConfigError(f"{_key(name)} {wording}, got {v!r}")
        for f in fields(self):
            seq = getattr(self, f.name)
            if not isinstance(seq, tuple):
                continue
            if len(seq) == 0:
                raise ConfigError(f"{_key(f.name)} must not be empty")
            # a repeat would fit and write the same grid point twice
            for i, value in enumerate(seq):
                if value in seq[:i]:
                    raise ConfigError(f"{_key(f.name)} repeats {value!r}")

    def _ranges(self) -> list:
        """(field, condition, wording) of every setting with a range; a
        value that fails its condition, or an entry of a list that does,
        is refused as ``{INI key} {wording}, got {value!r}``."""
        at_least_1 = (lambda v: v >= 1, "must be >= 1")
        # gamma scales the rbf and sigmoid kernels and is ignored by linear
        scaled = bool({"rbf", "sigmoid"} & set(self.svr_kernels))
        return [
            ("seed", lambda v: v >= 0, "must be >= 0"),
            ("train_fraction", lambda v: 0 < v < 1, "must be in (0, 1)"),
            ("window", *at_least_1),
            ("lstm_hidden_size", *at_least_1),
            ("lstm_epochs", *at_least_1),
            ("lstm_learning_rate", lambda v: math.isfinite(v) and v > 0,
             "must be finite and > 0"),
            ("lstm_batch_size", *at_least_1),
            ("svr_kernels", lambda v: v in KERNEL_KINDS, "must be linear, rbf or sigmoid"),
            ("svr_gammas", math.isfinite, "must be finite"),
            ("svr_gammas", lambda v: v > 0 or not scaled,
             "must be > 0 for the rbf and sigmoid kernels"),
            ("svr_cs", lambda v: math.isfinite(v) and v > 0, "must be finite and > 0"),
            ("svr_epsilon", lambda v: math.isfinite(v) and v >= 0,
             "must be finite and non-negative"),
            ("svr_cv_folds", lambda v: v >= 2, "must be >= 2"),
            ("svr_features", lambda v: v in ("time", "window"), "must be time or window"),
            ("poly_degrees", *at_least_1),
        ]


_CLI_ONLY = ("input_path", "out_dir")
# field prefix -> INI section; the prefixes are the model family names
_PREFIXES = {"lstm": "lstm", "svr": "svr", "poly": "polyreg"}

MODEL_NAMES = tuple(_PREFIXES)


def _key(name: str) -> str:
    """The INI key of the RunConfig field ``name``."""
    prefix, _, key = name.partition("_")
    return key if prefix in _PREFIXES else name


def _schema() -> dict[str, dict[str, Field]]:
    schema: dict[str, dict[str, Field]] = {}
    for f in fields(RunConfig):
        if f.name in _CLI_ONLY:
            continue
        section = _PREFIXES.get(f.name.partition("_")[0],
                                "run" if f.name == "seed" else "dataset")
        schema.setdefault(section, {})[_key(f.name)] = f
    return schema


_SCHEMA = _schema()


def _parse(raw: str, default):
    """``raw`` as ``default``'s type; a tuple takes a comma-separated list."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(p.strip()) for p in raw.split(",") if p.strip())
    return type(default)(raw.strip())


def load_config(path: str | Path) -> RunConfig:
    """The defaults overlaid with an INI config file."""
    import configparser  # only commands given --config parse INI

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
    return RunConfig(**overrides)


def config_hash(cfg: RunConfig) -> str:
    """12-hex-digit digest of every semantic field (paths excluded)."""
    payload = asdict(cfg)
    for name in _CLI_ONLY:
        payload.pop(name)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
