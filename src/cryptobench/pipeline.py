"""Pipeline stages behind the CLI: prepare, per-model runs, comparison.

Artifact layout under ``out_dir``:

    prepared.csv          index,date,normalized_close (train scaler applied)
    prepare_meta.json     scaler min/max, split boundary, fingerprint
    lstm_epochs.csv       epoch,mse              (normalized test MSE)
    lstm_history.csv      epoch,train_loss       (batch-loss mean per epoch)
    {model}_model.json    bit-exact serialized winning model
    {model}_result.json   scores + winning config + prediction dump
    svr_grid.csv          kernel,gamma,c,mse     (forward-chaining CV MSE)
    svr_best.json         winning grid cell + grid work totals
    poly_degrees.csv      degree,mse             (test MSE)
    comparison.csv        model,mse_normalized,mse_raw
    report.json / report.txt
    predictions_{model}.csv   date,actual,predicted  (raw prices)

Every file embeds the config hash and seed (the comparison files carry
those of the results they rank); floats are written with ``repr`` so
reruns with the same config are byte-identical.

``run_model`` writes every family's artifacts: each family only runs its
sweep and refit and returns tables, model fields, its winning config and
normalized test predictions; the stamping, the scoring on both scales
and the result file are shared.  A family's module is imported by the
function that runs it, so each command loads only its own.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import sample_data_path
from .config import MODEL_NAMES, RunConfig, config_hash
from . import dataset as ds
from . import evaluation

__all__ = [
    "PipelineError",
    "PreparedData",
    "prepare",
    "run_model",
    "run_compare",
    "load_prepared",
    "MODEL_NAMES",
]

FORMAT_VERSION = 2


class PipelineError(ValueError):
    """An input that is not UTF-8 text, a missing, malformed or mismatched
    artifact, or an unknown model."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # builtin repr: shortest exact round-trip
    return str(value)


def _write_table(path: Path, header: list[str], rows, cfg_hash: str, seed: int):
    lines = [f"# config_hash={cfg_hash}", f"# seed={seed}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


# JSON types of a field, matched exactly: JSON true and false load as
# bools, and a bool is an int to isinstance
_STRING, _INTEGER = ((str,), "a string"), ((int,), "an integer")
_NUMBER, _OBJECT = ((int, float), "a number"), ((dict,), "an object")
_LIST = ((list,), "a list")


def _check_fields(payload, fields: dict, where: str) -> dict:
    """``payload``, which must be a JSON object holding each key of
    ``fields`` with a value of its type (any where it maps to None); a
    PipelineError otherwise, its message starting with ``where``."""
    if not isinstance(payload, dict):
        raise PipelineError(f"{where}: not a JSON object")
    missing = [key for key in fields if key not in payload]
    if missing:
        raise PipelineError(f"{where}: missing {', '.join(missing)}")
    for key, json_type in fields.items():
        if json_type and type(payload[key]) not in json_type[0]:
            raise PipelineError(f"{where}: {key} is not {json_type[1]}")
    return payload


def _read_json(path: Path, what: str = "artifact", fields: dict | None = None) -> dict:
    """The JSON object in the ``what`` file ``path``, checked against
    ``fields`` as ``_check_fields`` does."""
    if not path.exists():
        raise PipelineError(f"missing artifact: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise PipelineError(f"unreadable artifact {path}: {exc}") from exc
    return _check_fields(payload, fields or {}, f"malformed {what} {path}")


@contextlib.contextmanager
def _malformed(path: Path, what: str):
    """Report a bad value met while reading the ``what`` file ``path``
    as malformed, naming the file."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise PipelineError(f"malformed {what} {path}: {exc!r}") from exc


def _input_path(cfg: RunConfig) -> Path:
    return Path(cfg.input_path) if cfg.input_path else sample_data_path()


# --- prepare -----------------------------------------------------------

@dataclass
class PreparedData:
    dates: list[dt.date]
    normalized: np.ndarray
    scaler: ds.ScalerParams
    split_index: int
    fingerprint: str

    @property
    def train_values(self) -> np.ndarray:
        return self.normalized[: self.split_index]

    @property
    def test_values(self) -> np.ndarray:
        return self.normalized[self.split_index:]


def prepare(cfg: RunConfig) -> dict:
    """Parse, clean, split, fit the scaler on train, normalize, persist."""
    path = _input_path(cfg)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    raw_bytes = path.read_bytes()
    try:  # utf-8-sig drops the byte-order mark spreadsheet exports start with
        text = raw_bytes.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object starts past any such mark
        offset = exc.start + len(raw_bytes) - len(exc.object)
        raise PipelineError(f"{path} is not UTF-8 text: byte "
                            f"0x{raw_bytes[offset]:02x} at offset {offset}") from None
    records = ds.parse_csv(text)
    cleaned = ds.clean(records)
    split_index = ds.chronological_split(len(cleaned), cfg.train_fraction)

    values = np.array([rec.close for rec in cleaned], dtype=np.float64)
    scaler = ds.fit_scaler(values[:split_index])
    normalized = ds.scale(values, scaler)

    digest = hashlib.sha256()
    digest.update(raw_bytes)
    digest.update(f"|split={split_index}".encode())
    fingerprint = digest.hexdigest()[:16]

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg_hash = config_hash(cfg)
    rows = [(i, rec.date.isoformat(), float(normalized[i]))
            for i, rec in enumerate(cleaned)]
    _write_table(out / "prepared.csv", ["index", "date", "normalized_close"],
                 rows, cfg_hash, cfg.seed)
    meta = {
        "format_version": FORMAT_VERSION,
        "config_hash": cfg_hash,
        "seed": cfg.seed,
        "train_fraction": cfg.train_fraction,
        "window": cfg.window,
        "n_records": len(cleaned),
        "n_parsed": len(records),
        "n_dropped": len(records) - len(cleaned),
        "split_index": split_index,
        "scaler": {"min": scaler.min, "max": scaler.max},
        "dataset_fingerprint": fingerprint,
    }
    _write_json(out / "prepare_meta.json", meta)
    return {
        "n_parsed": len(records),
        "n_records": len(cleaned),
        "n_train": split_index,
        "n_test": len(cleaned) - split_index,
        "paths": [out / "prepared.csv", out / "prepare_meta.json"],
    }


def load_prepared(out_dir: str | Path, cfg: RunConfig | None = None) -> PreparedData:
    """The prepared series in ``out_dir``; with ``cfg``, its train
    fraction and window must be the ones prepare ran with."""
    out = Path(out_dir)
    meta_path = out / "prepare_meta.json"
    meta = _read_json(meta_path, fields={
        "scaler": _OBJECT, "split_index": _INTEGER, "n_records": _INTEGER,
        "dataset_fingerprint": _STRING})
    if cfg is not None:
        for key in ("train_fraction", "window"):
            if meta.get(key) != getattr(cfg, key):
                raise PipelineError(
                    f"prepared artifacts used {key}={meta.get(key)!r} but the current "
                    f"config says {getattr(cfg, key)!r}; rerun prepare")
    bounds = _check_fields(meta["scaler"], {"min": _NUMBER, "max": _NUMBER},
                           f"malformed artifact {meta_path}: scaler")
    with _malformed(meta_path, "artifact"):  # a NaN or flat scaler
        scaler = ds.ScalerParams(bounds["min"], bounds["max"])
    n_records, split_index = meta["n_records"], meta["split_index"]
    if not 0 < split_index < n_records:
        raise PipelineError(f"malformed artifact {meta_path}: split_index {split_index} "
                            f"does not split n_records {n_records}")
    csv_path = out / "prepared.csv"
    if not csv_path.exists():
        raise PipelineError(f"missing artifact: {csv_path}")
    dates = []
    values = []
    for line_no, line in enumerate(csv_path.read_text(encoding="utf-8").splitlines(), 1):
        if not line or line.startswith("#") or line.startswith("index,"):
            continue
        try:
            index_text, date_text, value_text = line.split(",")
            if int(index_text) != len(values):
                raise ValueError(f"index {index_text} out of order, expected {len(values)}")
            dates.append(dt.date.fromisoformat(date_text))
            values.append(float(value_text))
            if not np.isfinite(values[-1]):
                raise ValueError(f"value {value_text} is not finite")
        except ValueError as exc:
            raise PipelineError(
                f"malformed artifact {csv_path}: line {line_no} {line!r}: {exc}") from None
    if len(values) != n_records:
        raise PipelineError(f"malformed artifact {csv_path}: {len(values)} rows, but "
                            f"{meta_path} says n_records {n_records}")
    return PreparedData(
        dates=dates,
        normalized=np.array(values, dtype=np.float64),
        scaler=scaler,
        split_index=split_index,
        fingerprint=meta["dataset_fingerprint"],
    )


# --- model runs --------------------------------------------------------
# Each family runs its sweep and refit and hands back a _Fit; run_model
# stamps, scores and writes every artifact from it.

def _boundary_windows(prepared: PreparedData, window: int) -> tuple:
    """Train windows from the train slice; test windows prepend the last
    ``window`` train values so every test record yields one sample."""
    train_ds = ds.make_windows(prepared.train_values, window)
    tail = np.concatenate([prepared.train_values[-window:], prepared.test_values])
    test_ds = ds.make_windows(tail, window)
    return train_ds, test_ds


@dataclass
class _Fit:
    tables: dict  # file name -> (header, rows)
    model: dict  # family fields of {name}_model.json
    summary: dict  # winning config, the result's config_summary
    preds_norm: np.ndarray  # normalized predictions for the test slice
    records: dict = field(default_factory=dict)  # extra JSON file -> fields


def _fit_lstm(cfg: RunConfig, prepared: PreparedData) -> _Fit:
    from . import lstm as lstm_mod

    train_ds, test_ds = _boundary_windows(prepared, cfg.window)
    rows, snapshots, history = lstm_mod.epoch_grid(train_ds, test_ds, cfg.lstm_epochs, cfg)
    best_epoch = min(rows, key=lambda r: (r[1], r[0]))[0]
    best = snapshots[best_epoch].params
    return _Fit(
        tables={
            "lstm_epochs.csv": (["epoch", "mse"], rows),
            "lstm_history.csv": (["epoch", "train_loss"], list(enumerate(history, 1))),
        },
        model={
            "window": cfg.window,
            "input_dim": best.input_dim,
            "hidden_size": best.hidden_size,
            "epochs": best_epoch,
            "params": best.to_fields(),
        },
        summary={
            "epochs": best_epoch,
            "hidden_size": cfg.lstm_hidden_size,
            "learning_rate": cfg.lstm_learning_rate,
            "batch_size": cfg.lstm_batch_size,
            "window": cfg.window,
        },
        # the predictions the winning epoch was selected by
        preds_norm=snapshots[best_epoch].test_predictions,
    )


def _time_features(n: int) -> np.ndarray:
    """Scalar time index normalized onto [0, 1] over the full series."""
    return (np.arange(n, dtype=np.float64) / (n - 1)).reshape(-1, 1)


def _fit_svr(cfg: RunConfig, prepared: PreparedData) -> _Fit:
    from . import svr as svr_mod

    split = prepared.split_index
    if cfg.svr_features == "time":
        t = _time_features(len(prepared.normalized))
        x_train, y_train, x_test = t[:split], prepared.train_values, t[split:]
    else:
        train_ds, test_ds = _boundary_windows(prepared, cfg.window)
        x_train, y_train, x_test = train_ds.inputs, train_ds.targets, test_ds.inputs

    grid = svr_mod.grid_search(
        x_train, y_train,
        kernels=cfg.svr_kernels, gammas=cfg.svr_gammas, cs=cfg.svr_cs,
        folds=ds.time_folds(len(y_train), cfg.svr_cv_folds), epsilon=cfg.svr_epsilon)
    best_cell = grid.best
    spec = svr_mod.KernelSpec(kind=best_cell.kernel, gamma=best_cell.gamma)
    # grid cells keep the stock iteration budget (non-convergence there is
    # a warning by design); the single winning refit gets a roomy cap
    refit_iters = max(100 * len(y_train), 1_000_000)
    model = svr_mod.fit(x_train, y_train, svr_mod.SvrConfig(
        kernel=spec, c=best_cell.c, epsilon=cfg.svr_epsilon, max_iter=refit_iters))
    return _Fit(
        tables={"svr_grid.csv": (["kernel", "gamma", "c", "mse"],
                                 [(c.kernel, c.gamma, c.c, c.cv_mse) for c in grid.cells])},
        records={"svr_best.json": {
            "kernel": best_cell.kernel,
            "gamma": best_cell.gamma,
            "c": best_cell.c,
            "cv_mse": best_cell.cv_mse,
            "converged_folds": best_cell.converged_folds,
            "max_n_iter": best_cell.max_n_iter,
            "grid_fits": grid.fits,
            "grid_smo_iterations": grid.smo_iterations,
            "grid_capped_fits": grid.capped_fits,
        }},
        model={
            "features": cfg.svr_features,
            "kernel": {"kind": spec.kind, "gamma": spec.gamma},
            "c": best_cell.c,
            "epsilon": cfg.svr_epsilon,
            "bias": model.bias,
            "n_features": int(x_train.shape[1]),
            "support_vectors": model.support_vectors.tolist(),
            "dual_coefs": model.dual_coefs.tolist(),
            "converged": model.converged,
            "n_iter": model.n_iter,
            "kkt_violation": model.kkt_violation,
        },
        summary={
            "kernel": best_cell.kernel,
            "gamma": best_cell.gamma,
            "c": best_cell.c,
            "epsilon": cfg.svr_epsilon,
            "features": cfg.svr_features,
            "cv_folds": cfg.svr_cv_folds,
        },
        preds_norm=svr_mod.predict_batch(model, x_test),
    )


def _fit_poly(cfg: RunConfig, prepared: PreparedData) -> _Fit:
    from . import polyreg

    split = prepared.split_index
    xs = np.arange(len(prepared.normalized), dtype=np.float64)
    rows, model = polyreg.degree_sweep(
        (xs[:split], prepared.train_values),
        (xs[split:], prepared.test_values),
        cfg.poly_degrees)
    return _Fit(
        tables={"poly_degrees.csv": (["degree", "mse"], rows)},
        model={
            "degree": model.degree,
            "intercept": model.intercept,
            "coefficients": model.coefficients.tolist(),
            "feature_scale": list(model.feature_scale),
        },
        summary={"degree": model.degree, "include_bias": False},
        preds_norm=polyreg.predict(model, xs[split:]),
    )


_RUNNERS = {"lstm": _fit_lstm, "svr": _fit_svr, "poly": _fit_poly}


def run_model(cfg: RunConfig, name: str) -> dict:
    """Run one model family's sweep and refit against the prepared
    artifacts, then write its tables, model file and scored result."""
    if name not in _RUNNERS:
        raise PipelineError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    out = Path(cfg.out_dir)
    prepared = load_prepared(out, cfg)
    fit = _RUNNERS[name](cfg, prepared)

    stamp = {"format_version": FORMAT_VERSION, "config_hash": config_hash(cfg),
             "seed": cfg.seed}
    for file_name, (header, rows) in fit.tables.items():
        _write_table(out / file_name, header, rows, stamp["config_hash"], cfg.seed)
    for file_name, fields in fit.records.items():
        _write_json(out / file_name, stamp | fields)
    scaler = prepared.scaler
    _write_json(out / f"{name}_model.json", stamp | fit.model | {
        "kind": name, "scaler": {"min": scaler.min, "max": scaler.max}})

    actual_raw = ds.inverse_scale(prepared.test_values, scaler)
    preds_raw = ds.inverse_scale(fit.preds_norm, scaler)
    test_dates = prepared.dates[prepared.split_index:]
    payload = stamp | {
        "model": name,
        "dataset_fingerprint": prepared.fingerprint,
        "mse_normalized": evaluation.mse(prepared.test_values, fit.preds_norm),
        "mse_raw": evaluation.mse(actual_raw, preds_raw),
        "config_summary": fit.summary,
        "predictions": [
            {"date": date.isoformat(), "actual": float(a), "predicted": float(p)}
            for date, a, p in zip(test_dates, actual_raw, preds_raw)
        ],
    }
    _write_json(out / f"{name}_result.json", payload)
    return payload


# --- comparison --------------------------------------------------------

# The fields of a ``{model}_result.json`` that ``run_compare`` reads, and
# those of each entry of its predictions.
_RESULT_FIELDS = {"dataset_fingerprint": _STRING, "config_hash": _STRING,
                  "seed": _INTEGER, "mse_normalized": _NUMBER, "mse_raw": _NUMBER,
                  "config_summary": _OBJECT, "predictions": _LIST}
_PREDICTION_FIELDS = {"date": _STRING, "actual": _NUMBER, "predicted": _NUMBER}


def run_compare(out_dir: str | Path, models=MODEL_NAMES, subset_ok: bool = False,
                expected_hash: str | None = None) -> list[evaluation.ModelResult]:
    """Assemble the cross-model report from the per-model result files and
    return the ranked results, the winner first.

    The results must agree on dataset, config hash and seed, and the
    report is stamped with the fingerprint, hash and seed they carry.  With
    ``expected_hash``, results made under any other config are refused.
    """
    out = Path(out_dir)
    available = {}
    missing = []
    for name in models:
        path = out / f"{name}_result.json"
        if path.exists():
            available[name] = _read_json(path, "result", _RESULT_FIELDS)
        else:
            missing.append(str(path))
    if missing and not subset_ok:
        raise PipelineError(
            "missing model results: " + ", ".join(missing)
            + " (pass --subset-ok to compare what exists)")
    if not available:
        raise PipelineError("no model results found to compare")
    for key in ("dataset_fingerprint", "config_hash", "seed"):
        values = {name: payload[key] for name, payload in available.items()}
        if len(set(values.values())) > 1:
            raise PipelineError(
                f"results disagree on {key}: "
                + ", ".join(f"{name}={value}" for name, value in values.items())
                + " (rerun the models against one prepare and config)")
    first = next(iter(available.values()))
    cfg_hash, seed = first["config_hash"], first["seed"]
    fingerprint = first["dataset_fingerprint"]
    if expected_hash is not None and expected_hash != cfg_hash:
        raise PipelineError(
            f"the results were made with config_hash {cfg_hash} but the given "
            f"config and seed hash to {expected_hash}")

    # every value is checked before the first file is written
    results, prediction_rows = [], {}
    for name, payload in available.items():
        path = out / f"{name}_result.json"
        for i, entry in enumerate(payload["predictions"]):
            _check_fields(entry, _PREDICTION_FIELDS,
                          f"malformed result {path}: predictions[{i}]")
        with _malformed(path, "result"):  # a negative or non-finite MSE
            results.append(evaluation.ModelResult(
                model_name=name,
                mse_normalized=payload["mse_normalized"],
                mse_raw=payload["mse_raw"],
                config_summary=payload["config_summary"],
            ))
        prediction_rows[name] = [(p["date"], p["actual"], p["predicted"])
                                 for p in payload["predictions"]]
    ranked = evaluation.compare(results)
    winner = ranked[0].model_name

    summary = {
        "format_version": FORMAT_VERSION,
        "config_hash": cfg_hash,
        "seed": seed,
        "dataset_fingerprint": fingerprint,
        "winner": winner,
        "results": [
            {
                "model": r.model_name,
                "mse_normalized": r.mse_normalized,
                "mse_raw": r.mse_raw,
                "config_summary": r.config_summary,
            }
            for r in ranked
        ],
    }
    lines = [
        f"model comparison (config {cfg_hash}, seed {seed})",
        f"dataset fingerprint: {fingerprint}",
        "",
        f"{'model':<12} {'mse (normalized)':>20} {'mse (raw)':>20}",
    ]
    for r in ranked:
        lines.append(f"{r.model_name:<12} {r.mse_normalized:>20.10g} {r.mse_raw:>20.10g}")
    lines += ["", f"winner: {winner}"]
    files = [
        (out / "comparison.csv", _write_table,
         (["model", "mse_normalized", "mse_raw"],
          [(r.model_name, r.mse_normalized, r.mse_raw) for r in ranked],
          cfg_hash, seed)),
        (out / "report.json", _write_json, (summary,)),
        (out / "report.txt", Path.write_text, ("\n".join(lines) + "\n", "utf-8")),
        *((out / f"predictions_{name}.csv", _write_table,
           (["date", "actual", "predicted"], rows, cfg_hash, seed))
          for name, rows in prediction_rows.items()),
    ]
    # a compare that fails part-way removes what it wrote, so it leaves
    # none of its files
    written = []
    try:
        for path, write, args in files:
            written.append(path)
            write(path, *args)
    except BaseException:
        for path in written:
            if path.is_file():
                path.unlink()
        raise
    return ranked
