import dataclasses
import datetime
import importlib
import importlib.util
import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cryptobench
from cryptobench import pipeline
from cryptobench.cli import main
from cryptobench.config import MODEL_NAMES, RunConfig, config_hash, load_config
from cryptobench import dataset
from cryptobench.dataset import make_windows
from cryptobench import evaluation
from cryptobench import lstm as lstm_mod
from cryptobench import polyreg
from cryptobench import svr as svr_mod

SAMPLE = str(cryptobench.sample_data_path())

SMALL_INI = """\
[dataset]
window = 8

[lstm]
hidden_size = 8
epochs = 1, 2
batch_size = 16

[svr]
kernels = linear, rbf
gammas = 0.1
cs = 1.0, 10.0

[polyreg]
degrees = 2, 3
"""


# an INI line every command refuses, as its section and line, and the one
# error line it is refused with, where {ini} stands for the config path:
# a setting out of range, or a key that was once a setting and is now
# refused like any unknown key, whatever its value
BAD_SETTINGS = [
    ("lstm", "hidden_size = 0", "hidden_size must be >= 1, got 0"),
    ("lstm", "hidden_size = -3", "hidden_size must be >= 1, got -3"),
    ("lstm", "batch_size = 0", "batch_size must be >= 1, got 0"),
    ("lstm", "learning_rate = nan", "learning_rate must be finite and > 0, got nan"),
    ("lstm", "learning_rate = 0", "learning_rate must be finite and > 0, got 0.0"),
    ("lstm", "epochs = 0", "epochs must be >= 1, got 0"),
    ("svr", "cv_folds = 1", "cv_folds must be >= 2, got 1"),
    ("svr", "epsilon = nan", "epsilon must be finite and non-negative, got nan"),
    ("svr", "epsilon = inf", "epsilon must be finite and non-negative, got inf"),
    ("svr", "gammas = inf", "gammas must be finite, got inf"),
    ("svr", "cs = inf", "cs must be finite and > 0, got inf"),
    ("svr", "kernels = poly", "kernels must be linear, rbf or sigmoid, got 'poly'"),
    ("polyreg", "degrees = 0", "degrees must be >= 1, got 0"),
    ("run", "seed = -1", "seed must be >= 0, got -1"),
    ("dataset", "target_column = adj_close", "{ini}: unknown key 'target_column' in [dataset]"),
    ("lstm", "adam_eps = -1e-8", "{ini}: unknown key 'adam_eps' in [lstm]"),
    ("lstm", "beta1 = 1", "{ini}: unknown key 'beta1' in [lstm]"),
    ("lstm", "beta2 = 1", "{ini}: unknown key 'beta2' in [lstm]"),
    ("lstm", "beta2 = inf", "{ini}: unknown key 'beta2' in [lstm]"),
    ("svr", "coef0 = nan", "{ini}: unknown key 'coef0' in [svr]"),
    ("svr", "tol = inf", "{ini}: unknown key 'tol' in [svr]"),
]


def bad_settings(section):
    """The (setting, message) rows of BAD_SETTINGS in ``section``."""
    return [(setting, message) for at, setting, message in BAD_SETTINGS if at == section]


# every command, its exit code on a failure and the label its error line starts with
EVERY_COMMAND = [(["prepare"], 2, "prepare"),
                 *((["run", name], 3, f"run {name}") for name in MODEL_NAMES),
                 (["compare"], 4, "compare")]


# the files each command writes, all of them or, if it fails, none
COMMAND_FILES = {
    "prepare": {"prepared.csv", "prepare_meta.json"},
    "run poly": {"poly_degrees.csv", "poly_model.json", "poly_result.json",
                 "predictions_poly.csv"},
    "compare": {"comparison.csv", "report.json", "report.txt"},
}


def assert_every_command_refuses(args, message, capsys):
    """Each command run with ``args`` exits with its failure code and the
    one error line ``<label> failed: <message>``."""
    for command, code, label in EVERY_COMMAND:
        assert main([*command, *args]) == code, command
        assert capsys.readouterr().err.splitlines() == [f"{label} failed: {message}"]


@pytest.fixture(scope="session")
def small_ini(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.ini"
    path.write_text(SMALL_INI)
    return str(path)


@pytest.fixture(scope="session")
def full_run(tmp_path_factory, small_ini):
    """One prepared + fully-run output directory shared by read-only tests."""
    out = str(tmp_path_factory.mktemp("out"))
    base = ["--input", SAMPLE, "--config", small_ini, "--out-dir", out, "--seed", "3"]
    assert main(["prepare", *base]) == 0
    for model in ("poly", "svr", "lstm"):
        assert main(["run", model, *base]) == 0
    return out, base


@pytest.fixture(scope="session")
def window_svr_run(tmp_path_factory):
    """A prepared out-dir with ``run svr`` on lag-window features."""
    root = tmp_path_factory.mktemp("window_svr")
    ini = root / "window.ini"
    ini.write_text(SMALL_INI.replace("[svr]\n", "[svr]\nfeatures = window\n"))
    out = root / "out"
    base = ["--input", SAMPLE, "--config", str(ini), "--out-dir", str(out), "--seed", "5"]
    assert main(["prepare", *base]) == 0
    with pytest.warns(svr_mod.ConvergenceWarning, match=r"linear C=10 \(1 of 5 folds\)"):
        assert main(["run", "svr", *base]) == 0
    return out


def walk_csv(path, rows, seed):
    """Write a daily OHLCV file of a seeded geometric random walk; returns its path."""
    rng = np.random.default_rng(seed)
    close = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, rows)))
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    for i, c in enumerate(close):
        day = datetime.date(2020, 1, 1) + datetime.timedelta(days=i)
        lines.append(f"{day},{c:.4f},{c * 1.01:.4f},{c * 0.99:.4f},{c:.4f},{c:.4f},1000")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture(scope="session")
def long_lstm_run(tmp_path_factory, small_ini):
    """``run lstm`` on a 100-row walk: at window 8, 72 train and 20 test
    windows."""
    root = tmp_path_factory.mktemp("long_lstm")
    out = str(root / "out")
    base = ["--input", walk_csv(root / "walk.csv", 100, 4), "--config", small_ini,
            "--out-dir", out]
    assert main(["prepare", *base]) == 0
    assert main(["run", "lstm", *base]) == 0
    return out, base


@pytest.fixture(scope="session")
def sample_lstm_run(tmp_path_factory):
    """``run lstm`` on the bundled sample at the default hidden size
    (50), for two epochs.  Its 12 test windows are a column count at
    which OpenBLAS can round a column of ``W @ z`` differently from a
    wider product, so scoring them alone shows whether predictions
    depend on the batch."""
    root = tmp_path_factory.mktemp("sample_lstm")
    ini = root / "lstm.ini"
    ini.write_text("[lstm]\nepochs = 1, 2\n")
    base = ["--input", SAMPLE, "--config", str(ini), "--out-dir", str(root / "out")]
    assert main(["prepare", *base]) == 0
    assert main(["run", "lstm", *base]) == 0
    return root / "out"


def _private_copy(full_run, tmp_path):
    """Copy of the shared run for a test that writes into its out-dir."""
    out, base = full_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return copy, [*base[:-4], "--out-dir", str(copy), *base[-2:]]


def _set_prepared_value(path, row, text):
    """Write ``text`` as the normalized_close of data row ``row`` of the
    prepared.csv at ``path`` (a negative row counts from the end)."""
    lines = path.read_text().splitlines(keepends=True)
    at = row + 3 if row >= 0 else row  # two stamp lines and the header first
    lines[at] = f"{lines[at].rsplit(',', 1)[0]},{text}\n"
    path.write_text("".join(lines))


# Runs ``cli.main`` on its arguments, if any, in a fresh interpreter and
# prints the exit code and then every loaded module's name, one a line.
_MODULES_PROBE = """\
import contextlib, io, sys
from cryptobench import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, *sorted(sys.modules), sep="\\n")
"""


def modules_after(*argv):
    """(exit code, names in ``sys.modules``) of a fresh interpreter that
    imported ``cryptobench.cli`` and ran ``main(argv)`` if argv is given."""
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(cryptobench.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, *argv], env=env,
                          capture_output=True, text=True, check=True)
    code, *names = proc.stdout.splitlines()
    return int(code), set(names)


def read_table(path):
    rows = []
    header = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or not line:
            continue
        if header is None:
            header = line
            continue
        rows.append(line.split(","))
    return header, rows


class TestPrepare:
    def test_writes_artifacts_and_counts(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["prepare", "--input", SAMPLE, "--out-dir", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "kept 60 after cleaning" in printed
        assert "48 train / 12 test" in printed
        assert (out / "prepared.csv").exists()
        meta = json.loads((out / "prepare_meta.json").read_text())
        assert meta["split_index"] == 48
        assert meta["scaler"]["max"] > meta["scaler"]["min"]

    def test_prepared_csv_header(self, tmp_path):
        out = tmp_path / "out"
        main(["prepare", "--input", SAMPLE, "--out-dir", str(out)])
        header, rows = read_table(out / "prepared.csv")
        assert header == "index,date,normalized_close"
        assert len(rows) == 60

    def test_missing_input_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert main(["prepare", "--input", str(missing), "--out-dir", str(tmp_path)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_all_rows_failing_clean_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("Date,Open,High,Low,Close,Adj Close,Volume\n"
                       "10/01/2020,9,10,8,,9,100\n"
                       "11/01/2020,9,10,8,,9,100\n")
        assert main(["prepare", "--input", str(bad), "--out-dir", str(tmp_path)]) == 2
        assert "no records left" in capsys.readouterr().err

    def test_byte_order_mark_is_ignored(self, tmp_path):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(SAMPLE).read_bytes())
        for name, csv in (("plain", SAMPLE), ("bom", str(bom))):
            assert main(["prepare", "--input", csv, "--out-dir", str(tmp_path / name)]) == 0
        assert (read_table(tmp_path / "bom" / "prepared.csv")
                == read_table(tmp_path / "plain" / "prepared.csv"))

    def test_undecodable_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        raw = Path(SAMPLE).read_bytes()
        bad.write_bytes(raw[:100] + b"\xff" + raw[100:])
        out = tmp_path / "out"
        assert main(["prepare", "--input", str(bad), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("prepare failed:") and "0xff at offset 100" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_oversized_field_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(Path(SAMPLE).read_text() + "x" * 131_073 + "\n")
        out = tmp_path / "out"
        assert main(["prepare", "--input", str(bad), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("prepare failed:") and "field larger than field limit" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_repeated_grid_value_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "repeat.ini"
        ini.write_text("[polyreg]\ndegrees = 3, 3, 2\n")
        out = tmp_path / "out"
        assert main(["prepare", "--input", SAMPLE, "--config", str(ini),
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["prepare failed: degrees repeats 3"]
        assert not out.exists()

    def test_default_input_is_bundled_sample(self, tmp_path):
        out = tmp_path / "out"
        assert main(["prepare", "--out-dir", str(out)]) == 0

    def test_roundtrip_of_prepared_values(self, tmp_path):
        out = tmp_path / "out"
        main(["prepare", "--input", SAMPLE, "--out-dir", str(out)])
        prepared = pipeline.load_prepared(out)
        assert len(prepared.normalized) == 60
        assert prepared.split_index == 48
        # train slice of a min-max normalization spans exactly [0, 1]
        assert prepared.train_values.min() == 0.0
        assert prepared.train_values.max() == 1.0


class TestBadSettings:
    @pytest.mark.parametrize("section, setting, message", BAD_SETTINGS,
                             ids=[f"{section}-{setting}" for section, setting, _ in BAD_SETTINGS])
    def test_every_command_refuses_before_writing(self, tmp_path, section, setting, message,
                                                  capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[{section}]\n{setting}\n")
        out = tmp_path / "out"
        assert_every_command_refuses(
            ["--input", SAMPLE, "--config", str(ini), "--out-dir", str(out)],
            message.format(ini=ini), capsys)
        assert not out.exists()

    def test_negative_seed_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert_every_command_refuses(["--out-dir", str(out), "--seed", "-1"],
                                     "seed must be >= 0, got -1", capsys)
        assert not out.exists()


class TestRun:
    def test_run_without_prepare_exits_3(self, tmp_path, capsys):
        assert main(["run", "poly", "--out-dir", str(tmp_path / "empty")]) == 3
        assert "missing artifact" in capsys.readouterr().err

    def test_poly_outputs(self, full_run):
        out, _ = full_run
        header, rows = read_table(Path(out) / "poly_degrees.csv")
        assert header == "degree,mse"
        assert [r[0] for r in rows] == ["2", "3"]
        result = json.loads((Path(out) / "poly_result.json").read_text())
        assert result["model"] == "poly"
        assert result["mse_normalized"] >= 0
        assert len(result["predictions"]) == 12

    def test_svr_outputs(self, full_run):
        out, _ = full_run
        header, rows = read_table(Path(out) / "svr_grid.csv")
        assert header == "kernel,gamma,c,mse"
        assert len(rows) == 4  # 2 kernels x 1 gamma x 2 Cs
        best = json.loads((Path(out) / "svr_best.json").read_text())
        assert best["kernel"] in ("linear", "rbf")
        assert best["converged_folds"] in range(RunConfig().svr_cv_folds + 1)
        assert isinstance(best["max_n_iter"], int) and best["max_n_iter"] > 0
        model = json.loads((Path(out) / "svr_model.json").read_text())
        assert isinstance(model["n_iter"], int) and model["n_iter"] > 0
        assert isinstance(model["kkt_violation"], float)
        if model["converged"]:
            assert model["kkt_violation"] <= svr_mod.SvrConfig.tol

    def test_lstm_outputs(self, full_run):
        out, _ = full_run
        header, rows = read_table(Path(out) / "lstm_epochs.csv")
        assert header == "epoch,mse"
        assert [r[0] for r in rows] == ["1", "2"]
        header, rows = read_table(Path(out) / "lstm_history.csv")
        assert header == "epoch,train_loss"
        assert len(rows) == 2

    def test_lstm_result_reports_the_selected_mse(self, tmp_path):
        # the result scores the winning epoch's own predictions, so its MSE
        # is the table's to the last bit
        ini = tmp_path / "lstm.ini"
        ini.write_text("[lstm]\nepochs = 10, 30\n")
        out = tmp_path / "out"
        base = ["--input", SAMPLE, "--config", str(ini), "--out-dir", str(out), "--seed", "42"]
        assert main(["prepare", *base]) == 0
        assert main(["run", "lstm", *base]) == 0
        _, rows = read_table(Path(out) / "lstm_epochs.csv")
        epoch, mse = min(((int(e), float(m)) for e, m in rows), key=lambda r: (r[1], r[0]))
        result = json.loads((Path(out) / "lstm_result.json").read_text())
        assert result["config_summary"]["epochs"] == epoch
        assert result["mse_normalized"] == mse

    def test_missing_config_exits_3(self, full_run, tmp_path, capsys):
        out, _ = full_run
        missing = tmp_path / "nope.ini"
        assert main(["run", "poly", "--config", str(missing), "--out-dir", out]) == 3
        assert str(missing) in capsys.readouterr().err

    def test_svr_window_features(self, window_svr_run):
        model = json.loads((window_svr_run / "svr_model.json").read_text())
        assert model["features"] == "window"
        assert model["n_features"] == 8
        result = json.loads((window_svr_run / "svr_result.json").read_text())
        assert result["config_summary"]["features"] == "window"
        assert len(result["predictions"]) == 12

    def test_sample_svr_grid_work(self, tmp_path):
        # the shipped run: its exact SMO work under the forward-chaining folds
        base = ["--input", SAMPLE, "--out-dir", str(tmp_path), "--seed", "42"]
        assert main(["prepare", *base]) == 0
        with pytest.warns(svr_mod.ConvergenceWarning,
                          match=r"in rbf gamma=1 C=1000 \(3 of 5 folds\), "
                                r"linear C=1000 \(1 of 5 folds\);"):
            assert main(["run", "svr", *base]) == 0
        best = json.loads((tmp_path / "svr_best.json").read_text())
        assert ((best["grid_fits"], best["grid_smo_iterations"], best["grid_capped_fits"])
                == (180, 34_575, 4))
        assert (best["kernel"], best["gamma"], best["c"]) == ("sigmoid", 0.1, 100.0)

    def test_predictions_carry_the_prepared_hash_and_seed(self, tmp_path):
        # made with seed 7 and the default config
        out = tmp_path / "out"
        assert main(["prepare", "--out-dir", str(out), "--seed", "7"]) == 0
        assert main(["run", "poly", "--out-dir", str(out), "--seed", "7"]) == 0
        assert ((out / "predictions_poly.csv").read_text().splitlines()[:2]
                == ["# config_hash=461f4cbb52d9", "# seed=7"])

    def _failing_svr_grid(self, tmp_path, small_ini, capsys, monkeypatch, fail):
        """``run svr`` on two workers whose ``fit`` calls ``fail``; returns
        the exit code, the stderr lines and the ``svr_*`` files left."""
        out = tmp_path / "out"
        base = ["--input", SAMPLE, "--config", small_ini, "--out-dir", str(out)]
        assert main(["prepare", *base]) == 0
        capsys.readouterr()
        parent = os.getpid()
        real_fit = svr_mod.fit

        def fit_in_worker(X, y, cfg):
            if os.getpid() != parent:
                fail()
            return real_fit(X, y, cfg)

        monkeypatch.setattr(svr_mod, "fit", fit_in_worker)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        code = main(["run", "svr", *base])
        return code, capsys.readouterr().err.splitlines(), sorted(out.glob("svr_*"))

    def test_svr_worker_exception_exits_3(self, tmp_path, small_ini, capsys, monkeypatch):
        def fail():
            raise ValueError("worker fit failed")

        code, err, left = self._failing_svr_grid(tmp_path, small_ini, capsys, monkeypatch, fail)
        assert code == 3
        assert err == ["run svr failed: worker fit failed"]
        assert left == []
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_svr_worker_death_exits_3(self, tmp_path, small_ini, capsys, monkeypatch):
        code, err, left = self._failing_svr_grid(tmp_path, small_ini, capsys, monkeypatch,
                                                 lambda: os._exit(1))
        assert code == 3
        assert len(err) == 1 and err[0].startswith("run svr failed: "), err
        assert "worker died" in err[0]
        assert left == []
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_two_cpu_svr_run_leaves_no_process(self, tmp_path, small_ini, monkeypatch):
        out = tmp_path / "out"
        base = ["--input", SAMPLE, "--config", small_ini, "--out-dir", str(out)]
        assert main(["prepare", *base]) == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert main(["run", "svr", *base]) == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def _run_after_a_good_prepare(self, tmp_path, capsys, family, setting):
        """``run family`` with a bad [family] setting in an out-dir that a
        valid config prepared: (exit code, stderr lines, files left)."""
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[{family}]\n{setting}\n")
        out = tmp_path / "out"
        base = ["--input", SAMPLE, "--out-dir", str(out)]
        assert main(["prepare", *base]) == 0
        capsys.readouterr()
        code = main(["run", family, *base, "--config", str(ini)])
        left = sorted(p.name for p in out.iterdir())
        return code, capsys.readouterr().err.splitlines(), left

    @pytest.mark.parametrize("setting, message", bad_settings("lstm"),
                             ids=[setting for setting, _ in bad_settings("lstm")])
    def test_lstm_size_below_one_exits_3(self, tmp_path, setting, message, capsys):
        code, err, left = self._run_after_a_good_prepare(tmp_path, capsys, "lstm", setting)
        assert code == 3
        assert err == [f"run lstm failed: {message.format(ini=tmp_path / 'bad.ini')}"]
        assert left == ["prepare_meta.json", "prepared.csv"]

    @pytest.mark.parametrize("setting, message", bad_settings("svr"),
                             ids=[setting for setting, _ in bad_settings("svr")])
    def test_svr_non_finite_setting_exits_3(self, tmp_path, setting, message, capsys):
        code, err, left = self._run_after_a_good_prepare(tmp_path, capsys, "svr", setting)
        assert code == 3
        assert err == [f"run svr failed: {message.format(ini=tmp_path / 'bad.ini')}"]
        assert left == ["prepare_meta.json", "prepared.csv"]

    def test_config_mismatch_exits_3(self, full_run, tmp_path, capsys):
        out, _ = full_run
        # different window than the prepared artifacts were built with
        assert main(["run", "poly", "--input", SAMPLE, "--out-dir", out]) == 3
        assert "rerun prepare" in capsys.readouterr().err

    @pytest.mark.parametrize("name, damage", [
        ("poly_degrees.csv", lambda path: (path.unlink(), path.mkdir())),
        ("prepare_meta.json", lambda path: path.write_text(json.dumps(
            {k: v for k, v in json.loads(path.read_text()).items() if k != "scaler"}))),
        ("prepare_meta.json", lambda path: path.write_text(json.dumps(
            json.loads(path.read_text()) | {"scaler": {"min": "x", "max": 1.0}}))),
        ("prepare_meta.json", lambda path: path.write_text("[1]")),
        ("prepare_meta.json", lambda path: path.write_text(json.dumps(
            (meta := json.loads(path.read_text())) | {"split_index": meta["n_records"]}))),
        ("prepared.csv", lambda path: path.write_text(path.read_text() + "0,2024-01-01\n")),
        ("prepared.csv", lambda path: path.write_text(
            "".join(path.read_text().splitlines(keepends=True)[:-5]))),
        ("prepared.csv", lambda path: path.write_text(
            "".join([*(lines := path.read_text().splitlines(keepends=True))[:-2],
                     lines[-1], lines[-2]]))),
        ("prepared.csv", lambda path: _set_prepared_value(path, -1, "inf")),
        ("prepared.csv", lambda path: _set_prepared_value(path, 0, "nan")),
        ("prepare_meta.json", lambda path: path.write_text(json.dumps(
            json.loads(path.read_text()) | {"scaler": {"min": math.nan, "max": 1.0}}))),
        ("prepare_meta.json", lambda path: path.write_text(json.dumps(
            json.loads(path.read_text()) | {"scaler": {"min": 1.0, "max": 1.0}}))),
    ], ids=["table_is_a_directory", "meta_without_scaler", "meta_text_scaler", "meta_list",
            "meta_split_at_end", "prepared_short_row", "prepared_truncated", "prepared_rows_swapped",
            "prepared_inf", "prepared_nan", "meta_nan_scaler", "meta_flat_scaler"])
    def test_broken_artifact_exits_3(self, full_run, tmp_path, capsys, name, damage):
        copy, args = _private_copy(full_run, tmp_path)
        path = copy / name
        damage(path)
        assert main(["run", "poly", *args]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("run poly failed:"), err
        assert str(path) in err[0]

    def test_poly_fits_each_degree_once(self, tmp_path, monkeypatch):
        out = str(tmp_path / "out")
        assert main(["prepare", "--out-dir", out]) == 0
        fits = []
        real_fit = polyreg.fit

        def counting_fit(*args):
            fits.append(real_fit(*args))
            return fits[-1]

        monkeypatch.setattr(polyreg, "fit", counting_fit)
        assert main(["run", "poly", "--out-dir", out]) == 0
        assert [m.degree for m in fits] == list(RunConfig().poly_degrees)
        model = json.loads((Path(out) / "poly_model.json").read_text())
        swept = next(m for m in fits if m.degree == model["degree"])
        assert np.float64(model["coefficients"]).tobytes() == swept.coefficients.tobytes()
        assert (np.float64([model["intercept"], *model["feature_scale"]]).tobytes()
                == np.float64([swept.intercept, *swept.feature_scale]).tobytes())


# What ``run_model`` writes for each family, beyond its model and result files.
FAMILY_ARTIFACTS = {
    "lstm": (["lstm_epochs.csv", "lstm_history.csv"], []),
    "svr": (["svr_grid.csv"], ["svr_best.json"]),
    "poly": (["poly_degrees.csv"], []),
}


class TestRunModelStamps:
    @pytest.mark.parametrize("name", pipeline.MODEL_NAMES)
    def test_every_artifact_is_stamped(self, full_run, name):
        out = Path(full_run[0])
        meta = json.loads((out / "prepare_meta.json").read_text())
        tables, records = FAMILY_ARTIFACTS[name]
        for file_name in [*records, f"{name}_model.json", f"{name}_result.json"]:
            payload = json.loads((out / file_name).read_text())
            assert payload["format_version"] == pipeline.FORMAT_VERSION, file_name
            assert payload["config_hash"] == meta["config_hash"], file_name
            assert payload["seed"] == meta["seed"], file_name
        for file_name in [*tables, f"predictions_{name}.csv"]:
            head = (out / file_name).read_text().splitlines()[:2]
            assert head == [f"# config_hash={meta['config_hash']}",
                            f"# seed={meta['seed']}"], file_name
        model = json.loads((out / f"{name}_model.json").read_text())
        assert model["kind"] == name
        assert model["scaler"] == meta["scaler"]


def _test_windows(prepared, window):
    """The test slice's windows, the last ``window`` train values first."""
    tail = np.concatenate([prepared.train_values[-window:], prepared.test_values])
    return make_windows(tail, window).inputs


def predict_from_model_file(out, name, prepared):
    """Normalized predictions for the ``prepared`` test slice by the model
    that ``{name}_model.json`` in ``out`` holds, rebuilt from the file's
    fields, and those fields."""
    fields = json.loads((out / f"{name}_model.json").read_text())
    split = prepared.split_index
    if name == "lstm":
        parts = fields["params"]
        vec = np.concatenate([np.ravel(parts["w"]), parts["w_y"], [parts["b_y"]]])
        params = lstm_mod.LstmParams(vec, fields["input_dim"], fields["hidden_size"])
        return lstm_mod.predict_batch(params, _test_windows(prepared, fields["window"])), fields
    if name == "svr":
        model = svr_mod.SvrModel(
            support_vectors=np.reshape(fields["support_vectors"], (-1, fields["n_features"])),
            dual_coefs=np.array(fields["dual_coefs"]), bias=fields["bias"],
            kernel=svr_mod.KernelSpec(**fields["kernel"]))
        n = len(prepared.normalized)
        x_test = ((np.arange(n) / (n - 1)).reshape(-1, 1)[split:]
                  if fields["features"] == "time"
                  else _test_windows(prepared, fields["n_features"]))
        return svr_mod.predict_batch(model, x_test), fields
    model = polyreg.PolyModel(
        degree=fields["degree"], intercept=fields["intercept"],
        coefficients=np.array(fields["coefficients"]),
        feature_scale=tuple(fields["feature_scale"]))
    xs = np.arange(len(prepared.normalized), dtype=np.float64)
    return polyreg.predict(model, xs[split:]), fields


def reproduce_from_model_file(run, name, request):
    """The ``run`` fixture's ``{name}`` predictions and normalized MSE from
    the rebuilt model, next to those that its result file stores."""
    out = request.getfixturevalue(run)
    out = Path(out[0] if isinstance(out, tuple) else out)
    prepared = pipeline.load_prepared(out)
    preds_norm, fields = predict_from_model_file(out, name, prepared)
    scaler = dataset.ScalerParams(**fields["scaler"])
    result = json.loads((out / f"{name}_result.json").read_text())
    return ((dataset.inverse_scale(preds_norm, scaler),
             [p["predicted"] for p in result["predictions"]]),
            (evaluation.mse(prepared.test_values, preds_norm), result["mse_normalized"]))


class TestCheckpointRoundTrips:
    def test_lstm_checkpoint_reproduces_predictions(self, request):
        (rebuilt, stored), _ = reproduce_from_model_file("full_run", "lstm", request)
        np.testing.assert_array_equal(rebuilt, stored)

    @pytest.mark.parametrize("run", ["full_run"])
    def test_lstm_checkpoint_reproduces_the_result_mse(self, run, request):
        # the rebuilt checkpoint, scoring the test windows alone, gives the
        # stored MSE to the last bit
        _, (rebuilt, stored) = reproduce_from_model_file(run, "lstm", request)
        assert rebuilt == stored


class TestModelFileRoundTrip:
    @pytest.mark.parametrize("run, name", [
        ("long_lstm_run", "lstm"), ("sample_lstm_run", "lstm"),
        ("full_run", "svr"), ("window_svr_run", "svr"), ("full_run", "poly"),
    ])
    def test_model_file_reproduces_the_result(self, run, name, request):
        # the rebuilt model, scoring the test windows alone, gives the
        # stored predictions and MSE to the last bit; the full_run LSTM
        # case is TestCheckpointRoundTrips
        (preds, stored_preds), (mse, stored_mse) = reproduce_from_model_file(run, name, request)
        np.testing.assert_array_equal(preds, stored_preds)
        assert mse == stored_mse


class TestCompare:
    def test_full_comparison(self, full_run, tmp_path, capsys):
        out, base = _private_copy(full_run, tmp_path)
        assert main(["compare", *base]) == 0
        printed = capsys.readouterr().out
        assert "winner:" in printed
        header, rows = read_table(Path(out) / "comparison.csv")
        assert header == "model,mse_normalized,mse_raw"
        assert len(rows) == 3
        report = json.loads((Path(out) / "report.json").read_text())
        assert report["winner"] == report["results"][0]["model"]
        meta = json.loads((Path(out) / "prepare_meta.json").read_text())
        assert report["dataset_fingerprint"] == meta["dataset_fingerprint"]
        assert f"dataset fingerprint: {meta['dataset_fingerprint']}" in printed
        mses = [r["mse_normalized"] for r in report["results"]]
        assert mses == sorted(mses)
        for name in ("lstm", "svr", "poly"):
            header, rows = read_table(Path(out) / f"predictions_{name}.csv")
            assert header == "date,actual,predicted"
            assert len(rows) == 12

    def test_missing_results_exit_4(self, tmp_path, small_ini, capsys):
        out = str(tmp_path / "out")
        base = ["--input", SAMPLE, "--config", small_ini, "--out-dir", out]
        assert main(["prepare", *base]) == 0
        assert main(["run", "poly", *base]) == 0
        assert main(["run", "svr", *base]) == 0
        assert main(["compare", *base]) == 4
        assert "lstm_result.json" in capsys.readouterr().err

    def test_subset_flag_allows_partial(self, tmp_path, small_ini):
        out = str(tmp_path / "out")
        base = ["--input", SAMPLE, "--config", small_ini, "--out-dir", out]
        assert main(["prepare", *base]) == 0
        assert main(["run", "poly", *base]) == 0
        assert main(["compare", *base, "--subset-ok"]) == 0
        header, rows = read_table(Path(out) / "comparison.csv")
        assert len(rows) == 1
        assert rows[0][0] == "poly"

    def test_models_flag_restricts_selection(self, full_run, tmp_path):
        out, base = _private_copy(full_run, tmp_path)
        assert main(["compare", *base, "--models", "poly,svr"]) == 0
        header, rows = read_table(Path(out) / "comparison.csv")
        assert sorted(r[0] for r in rows) == ["poly", "svr"]

    @pytest.mark.parametrize("key, value", [
        ("dataset_fingerprint", "0" * 16), ("config_hash", "0" * 16), ("seed", 0),
    ], ids=["dataset_fingerprint", "config_hash", "seed"])
    def test_mismatched_results_exit_4(self, full_run, tmp_path, key, value, capsys):
        copy, args = _private_copy(full_run, tmp_path)
        path = copy / "svr_result.json"
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        assert main(["compare", *args]) == 4
        err = capsys.readouterr().err
        assert key in err and f"svr={value}" in err
        assert not (copy / "report.json").exists()

    def test_truncated_result_exits_4(self, full_run, tmp_path, capsys):
        copy, args = _private_copy(full_run, tmp_path)
        path = copy / "svr_result.json"
        path.write_text(path.read_text()[:100])
        assert main(["compare", *args]) == 4
        assert str(path) in capsys.readouterr().err
        assert not (copy / "report.json").exists()

    @pytest.mark.parametrize("edit", [
        lambda payload: {},
        lambda payload: [1],
        lambda payload: {k: v for k, v in payload.items() if k != "mse_raw"},
        lambda payload: payload | {"mse_normalized": -1},
        lambda payload: payload | {"dataset_fingerprint": ["x"]},
        # JSON true loads as a bool, which is an int to isinstance
        lambda payload: payload | {"seed": True},
        lambda payload: payload | {"mse_normalized": True},
        lambda payload: payload | {"mse_raw": True},
        lambda payload: payload | {"config_summary": [["degree", 2]]},
    ], ids=["empty_object", "list", "missing_mse_raw", "negative_mse", "list_fingerprint",
            "bool_seed", "bool_mse_normalized", "bool_mse_raw", "list_config_summary"])
    def test_malformed_result_exits_4(self, full_run, tmp_path, capsys, edit):
        copy, args = _private_copy(full_run, tmp_path)
        path = copy / "svr_result.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        assert main(["compare", *args]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("compare failed:"), err
        assert str(path) in err[0]
        assert not (copy / "report.json").exists()

    def test_bool_seed_in_every_result_exits_4(self, full_run, tmp_path, capsys):
        # the results agree, so only the type check stands between them and
        # a report stamped seed=True
        copy, _ = _private_copy(full_run, tmp_path)
        for name in MODEL_NAMES:
            path = copy / f"{name}_result.json"
            path.write_text(json.dumps(json.loads(path.read_text()) | {"seed": True}))
        assert main(["compare", "--out-dir", str(copy)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("compare failed:"), err
        assert "seed is not an integer" in err[0]
        assert not (copy / "comparison.csv").exists()

    @pytest.mark.parametrize("name", ["report.json", "poly_result.json"])
    def test_file_that_is_a_directory_exits_4(self, full_run, tmp_path, capsys, name):
        copy, args = _private_copy(full_run, tmp_path)
        path = copy / name
        path.unlink(missing_ok=True)
        path.mkdir()
        assert main(["compare", *args, "--subset-ok"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("compare failed:"), err
        assert str(path) in err[0]
        assert not (copy / "comparison.csv").exists()

    def test_report_carries_the_results_hash_and_seed(self, tmp_path):
        # made with seed 7, compared without --config or --seed
        out = tmp_path / "out"
        assert main(["prepare", "--out-dir", str(out), "--seed", "7"]) == 0
        assert main(["run", "poly", "--out-dir", str(out), "--seed", "7"]) == 0
        assert main(["compare", "--out-dir", str(out), "--subset-ok"]) == 0
        assert ((out / "comparison.csv").read_text().splitlines()[:2]
                == ["# config_hash=461f4cbb52d9", "# seed=7"])
        report = json.loads((out / "report.json").read_text())
        assert (report["config_hash"], report["seed"]) == ("461f4cbb52d9", 7)
        assert ((out / "report.txt").read_text().splitlines()[0]
                == "model comparison (config 461f4cbb52d9, seed 7)")

    @pytest.mark.parametrize("flags", [["--seed", "4"], []], ids=["seed", "config"])
    def test_mismatched_config_exits_4(self, full_run, tmp_path, capsys, flags):
        copy, args = _private_copy(full_run, tmp_path)
        cfg = load_config(args[3])  # the small INI, which sets no seed
        given = config_hash(dataclasses.replace(cfg, seed=int(flags[1])) if flags else cfg)
        assert main(["compare", *args[:-2], *flags]) == 4
        err = capsys.readouterr().err.splitlines()
        result = json.loads((copy / "poly_result.json").read_text())
        assert len(err) == 1 and err[0].startswith("compare failed:")
        assert result["config_hash"] in err[0] and given in err[0]
        assert not any((copy / name).exists() for name in COMMAND_FILES["compare"])

    def test_missing_config_exits_4(self, full_run, tmp_path, capsys):
        out, _ = full_run
        missing = tmp_path / "nope.ini"
        assert main(["compare", "--config", str(missing), "--out-dir", out]) == 4
        assert str(missing) in capsys.readouterr().err

    def test_unknown_model_name(self, full_run, capsys):
        _, base = full_run
        assert main(["compare", *base, "--models", "arima"]) == 4
        assert capsys.readouterr().err.splitlines() == ["compare failed: unknown models: arima"]


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path, small_ini):
        outputs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            base = ["--input", SAMPLE, "--config", small_ini,
                    "--out-dir", str(out), "--seed", "11"]
            assert main(["prepare", *base]) == 0
            assert main(["run", "poly", *base]) == 0
            assert main(["run", "lstm", *base]) == 0
            assert main(["compare", *base, "--subset-ok"]) == 0
            outputs.append(out)
        a, b = outputs
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestCommandFiles:
    def test_each_command_adds_exactly_its_files(self, tmp_path, small_ini):
        out = tmp_path / "out"
        base = ["--input", SAMPLE, "--config", small_ini, "--out-dir", str(out)]
        expected = set()
        for label, files in COMMAND_FILES.items():
            flags = ["--subset-ok"] if label == "compare" else []
            assert main([*label.split(), *base, *flags]) == 0
            expected |= files
            assert {path.name for path in out.iterdir()} == expected, label

    @pytest.mark.parametrize("label, name, code", [
        ("prepare", "prepare_meta.json", 2),
        ("run poly", "poly_result.json", 3),
    ])  # compare's case is TestCompare::test_file_that_is_a_directory_exits_4
    def test_file_that_is_a_directory_leaves_none_of_its_files(
            self, full_run, tmp_path, capsys, label, name, code):
        copy, args = _private_copy(full_run, tmp_path)
        for other in COMMAND_FILES[label]:  # so that any left is this run's
            (copy / other).unlink(missing_ok=True)
        path = copy / name
        path.mkdir()
        assert main([*label.split(), *args]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"{label} failed:"), err
        assert str(path) in err[0]
        assert not any((copy / other).exists() for other in COMMAND_FILES[label] - {name})


class TestBenchmarkHooks:
    def test_every_named_hook_is_wrapped_and_called(self, tmp_path, small_ini, monkeypatch):
        # perfbench reads its per-layer metrics from spans around these
        # functions; one renamed away, or whose arguments or result no longer
        # fit its counter, would read 0 without failing the benchmark
        spec = importlib.util.spec_from_file_location(
            "perfbench_spans", Path(__file__).parents[1] / "perfbench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
        spec.loader.exec_module(spans)
        base = ["--input", SAMPLE, "--config", small_ini, "--out-dir", str(tmp_path / "out")]
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert main(["prepare", *base]) == 0
            for model in MODEL_NAMES:
                assert main(["run", model, *base]) == 0
            assert main(["compare", *base]) == 0
        finally:
            tracer.restore()
        assert tracer.absent == set()
        assert set(spans.NAMED_HOOKS) <= {span.name for span in tracer.spans}


FAMILIES = {"cryptobench.lstm", "cryptobench.svr", "cryptobench.polyreg"}


class TestImportGraph:
    """Each command loads only the modules it runs (checked in fresh
    interpreters, so nothing the test session imported counts)."""

    def test_cli_import_loads_neither_numpy_nor_the_pipeline(self):
        loaded = modules_after()[1]
        assert "numpy" not in loaded
        assert {m for m in loaded if m.startswith("cryptobench")} == {
            "cryptobench", "cryptobench.cli", "cryptobench.config"}

    def test_cli_import_leaves_urllib_request_unloaded(self):
        assert "urllib.request" not in modules_after()[1]

    def test_cli_import_leaves_process_pools_unloaded(self):
        loaded = modules_after()[1]
        assert not loaded & {"multiprocessing", "concurrent.futures"}

    def test_run_lstm_leaves_process_pools_unloaded(self, tmp_path, small_ini):
        # the LSTM trains and scores in one process.  Only a host with two
        # or more usable CPUs can fail this: code that forks only there,
        # as the LSTM's forked scorer did, passes it on one
        base = ["--config", small_ini, "--out-dir", str(tmp_path / "out")]
        assert main(["prepare", *base]) == 0
        code, loaded = modules_after("run", "lstm", *base)
        assert code == 0
        assert not loaded & {"multiprocessing", "concurrent.futures"}

    def test_run_svr_leaves_process_pools_unloaded(self, tmp_path, small_ini):
        # the grid forks its own workers.  As for the LSTM, only a host
        # with two or more usable CPUs can fail this
        base = ["--config", small_ini, "--out-dir", str(tmp_path / "out")]
        assert main(["prepare", *base]) == 0
        code, loaded = modules_after("run", "svr", *base)
        assert code == 0
        assert not loaded & {"multiprocessing", "concurrent.futures"}

    def test_prepare_loads_no_model_family(self, tmp_path):
        code, loaded = modules_after("prepare", "--out-dir", str(tmp_path / "out"))
        assert code == 0
        assert "cryptobench.pipeline" in loaded
        assert not loaded & FAMILIES

    def test_run_poly_loads_no_other_family(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["prepare", "--out-dir", out]) == 0
        code, loaded = modules_after("run", "poly", "--out-dir", out)
        assert code == 0
        assert loaded & FAMILIES == {"cryptobench.polyreg"}

    def test_compare_loads_no_model_family(self, full_run, tmp_path):
        _, base = _private_copy(full_run, tmp_path)
        code, loaded = modules_after("compare", *base)
        assert code == 0
        assert "cryptobench.evaluation" in loaded
        assert not loaded & FAMILIES


class TestErrorTypes:
    def test_three_errors_and_two_warnings(self):
        # each module raises one error type; nothing tells finer kinds apart
        defined = {}
        for info in pkgutil.iter_modules(cryptobench.__path__):
            module = importlib.import_module(f"cryptobench.{info.name}")
            defined |= {name: obj for name, obj in vars(module).items()
                        if isinstance(obj, type) and issubclass(obj, BaseException)
                        and obj.__module__ == module.__name__}
        assert {name: obj.__bases__ for name, obj in defined.items()} == {
            "ConfigError": (ValueError,),
            "DatasetError": (ValueError,),
            "PipelineError": (ValueError,),
            "DataWarning": (UserWarning,),
            "ConvergenceWarning": (UserWarning,),
        }
