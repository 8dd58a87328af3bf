"""Output checks run after every pass; each returns a list of problems.

A stage counts as a failed operation when its exit code is not 0 or any
check on the artifacts it wrote fails.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


def _table(path: Path) -> list[list[str]]:
    """Data rows of a ``# ...``-prefixed CSV artifact, header dropped."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _finite(label: str, values) -> list[str]:
    bad = [v for v in values if not math.isfinite(v)]
    return [f"{label}: non-finite MSE {bad[0]!r}"] if bad else []


def _check_result(out: Path, model: str, expected_winner) -> list[str]:
    """Finite MSEs, the criterion-7 unit relation, argmin winner, fingerprint."""
    meta = _json(out / "prepare_meta.json")
    result = _json(out / f"{model}_result.json")
    norm, raw = result["mse_normalized"], result["mse_raw"]
    problems = _finite(f"{model}_result.json", (norm, raw))
    span = meta["scaler"]["max"] - meta["scaler"]["min"]
    if not problems and abs(raw - span * span * norm) > 1e-9 * raw:
        problems.append(f"{model}: mse_raw {raw!r} != span^2 x mse_normalized {norm!r}")
    summary = result["config_summary"]
    winner = {key: summary[key] for key in expected_winner}
    if winner != expected_winner:
        problems.append(f"{model}: winner {winner} is not the table argmin {expected_winner}")
    if result["dataset_fingerprint"] != meta["dataset_fingerprint"]:
        problems.append(f"{model}: fingerprint differs from prepare_meta.json")
    return problems


def check_prepare(out: Path, expected_rows: int) -> list[str]:
    meta = _json(out / "prepare_meta.json")
    problems = []
    if meta["n_dropped"] != 0:
        problems.append(f"prepare dropped {meta['n_dropped']} rows")
    if meta["n_records"] != expected_rows:
        problems.append(f"prepare kept {meta['n_records']} rows, expected {expected_rows}")
    return problems


def check_lstm(out: Path) -> list[str]:
    rows = [(float(mse), int(epoch)) for epoch, mse in _table(out / "lstm_epochs.csv")]
    problems = _finite("lstm_epochs.csv", [r[0] for r in rows])
    return problems + _check_result(out, "lstm", {"epochs": min(rows)[1]})


def check_svr(out: Path) -> list[str]:
    cells = [(k, float(g), float(c), float(m)) for k, g, c, m in _table(out / "svr_grid.csv")]
    mses = [cell[3] for cell in cells]
    problems = _finite("svr_grid.csv", mses)
    kernel, gamma, c, _ = cells[mses.index(min(mses))]  # ties: first in grid order
    return problems + _check_result(out, "svr", {"kernel": kernel, "gamma": gamma, "c": c})


def check_poly(out: Path) -> list[str]:
    rows = [(float(mse), int(degree)) for degree, mse in _table(out / "poly_degrees.csv")]
    problems = _finite("poly_degrees.csv", [r[0] for r in rows])
    return problems + _check_result(out, "poly", {"degree": min(rows)[1]})


def check_compare(out: Path) -> list[str]:
    report = _json(out / "report.json")
    ranked = [(r["mse_normalized"], r["model"]) for r in report["results"]]
    problems = _finite("report.json", [r[0] for r in ranked])
    if report["winner"] != min(ranked)[1]:
        problems.append(f"report winner {report['winner']} is not the MSE argmin")
    meta = _json(out / "prepare_meta.json")
    if report["dataset_fingerprint"] != meta["dataset_fingerprint"]:
        problems.append("report fingerprint differs from prepare_meta.json")
    return problems


def check_stage(stage: tuple[str, ...], out: Path, expected_rows: int) -> list[str]:
    if stage[0] == "prepare":
        return check_prepare(out, expected_rows)
    if stage[0] == "compare":
        return check_compare(out)
    return {"lstm": check_lstm, "svr": check_svr, "poly": check_poly}[stage[1]](out)


def tree_digest(root: Path, pattern: str = "*") -> str:
    """sha256 over the relative paths and bytes of the matching files under
    root, bytecode caches excluded."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern)
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
