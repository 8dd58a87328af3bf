import math
import re
from dataclasses import fields

import pytest

from cryptobench.config import ConfigError, RunConfig, config_hash, load_config


# settings RunConfig refuses and the message it refuses them with: a row
# for every setting with a range, the value just outside it or not finite
OUT_OF_RANGE = [
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"train_fraction": 0.0}, "train_fraction must be in (0, 1), got 0.0"),
    ({"window": 0}, "window must be >= 1, got 0"),
    ({"lstm_hidden_size": 0}, "hidden_size must be >= 1, got 0"),
    ({"lstm_epochs": (10, 0)}, "epochs must be >= 1, got 0"),
    ({"lstm_learning_rate": math.inf}, "learning_rate must be finite and > 0, got inf"),
    ({"lstm_batch_size": 0}, "batch_size must be >= 1, got 0"),
    ({"svr_kernels": ("linear", "poly")}, "kernels must be linear, rbf or sigmoid, got 'poly'"),
    ({"svr_gammas": (0.1, -math.inf)}, "gammas must be finite, got -inf"),
    ({"svr_kernels": ("linear", "sigmoid"), "svr_gammas": (0.1, 0.0)},
     "gammas must be > 0 for the rbf and sigmoid kernels, got 0.0"),
    ({"svr_cs": (1.0, 0.0)}, "cs must be finite and > 0, got 0.0"),
    ({"svr_epsilon": -0.1}, "epsilon must be finite and non-negative, got -0.1"),
    ({"svr_cv_folds": 1}, "cv_folds must be >= 2, got 1"),
    ({"svr_features": "pca"}, "features must be time or window, got 'pca'"),
    ({"poly_degrees": (2, 0)}, "degrees must be >= 1, got 0"),
]


class TestRunConfig:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.train_fraction == 0.8
        assert cfg.window == 30
        assert cfg.lstm_epochs == (10, 30, 50, 80, 100)
        assert cfg.svr_gammas == (0.001, 0.01, 0.1, 1.0)
        assert cfg.svr_cs == (1.0, 10.0, 100.0, 1000.0)
        assert cfg.poly_degrees == (2, 4, 6, 9, 11)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigError):
            RunConfig(train_fraction=1.0)

    def test_rejects_empty_lists(self):
        with pytest.raises(ConfigError):
            RunConfig(lstm_epochs=())

    @pytest.mark.parametrize("name, values, repeated", [
        ("lstm_epochs", (1, 2, 1), "1"),
        ("svr_kernels", ("linear", "rbf", "linear"), "'linear'"),
        ("svr_gammas", (0.1, 0.1), "0.1"),
        ("svr_cs", (1.0, 10.0, 10.0), "10.0"),
        ("poly_degrees", (3, 3, 2), "3"),
    ])
    def test_rejects_repeated_grid_values(self, name, values, repeated):
        # the message names the INI key, the field without its prefix
        key = name.partition("_")[2]
        with pytest.raises(ConfigError, match=f"^{key} repeats {repeated}$"):
            RunConfig(**{name: values})

    def test_rejects_unknown_feature_mode(self):
        with pytest.raises(ConfigError):
            RunConfig(svr_features="pca")

    @pytest.mark.parametrize("settings, message", OUT_OF_RANGE,
                             ids=["-".join(settings) for settings, _ in OUT_OF_RANGE])
    def test_refuses_each_setting_out_of_range(self, settings, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(**settings)

    def test_accepts_range_edges(self):
        RunConfig(seed=0, window=1, lstm_hidden_size=1, lstm_epochs=(1,), lstm_batch_size=1,
                  lstm_learning_rate=5e-324, svr_epsilon=0.0,
                  svr_cs=(5e-324,), svr_cv_folds=2, poly_degrees=(1,))
        # gamma scales only the rbf and sigmoid kernels
        RunConfig(svr_kernels=("linear",), svr_gammas=(0.0, -1.0))


class TestLoadConfig:
    def test_sections_and_lists(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[dataset]\n"
            "window = 12\n"
            "train_fraction = 0.75\n"
            "[lstm]\n"
            "hidden_size = 9\n"
            "epochs = 5, 10\n"
            "learning_rate = 0.01\n"
            "batch_size = 16\n"
            "[svr]\n"
            "kernels = linear, rbf\n"
            "gammas = 0.5\n"
            "cs = 2.0, 4\n"
            "epsilon = 0.05\n"
            "cv_folds = 3\n"
            "features = window\n"
            "[polyreg]\n"
            "degrees = 3\n"
            "[run]\n"
            "seed = 7\n"
        )
        cfg = load_config(path)
        expected = dict(
            window=12, train_fraction=0.75,
            lstm_hidden_size=9, lstm_epochs=(5, 10), lstm_learning_rate=0.01, lstm_batch_size=16,
            svr_kernels=("linear", "rbf"), svr_gammas=(0.5,), svr_cs=(2.0, 4.0),
            svr_epsilon=0.05, svr_cv_folds=3, svr_features="window", poly_degrees=(3,), seed=7,
        )
        assert len(expected) == 14
        assert set(expected) == {f.name for f in fields(RunConfig)} - {"input_path", "out_dir"}
        for name, value in expected.items():
            got = getattr(cfg, name)
            assert got != getattr(RunConfig(), name), name
            assert got == value and type(got) is type(value), name
            if isinstance(value, tuple):
                assert [type(v) for v in got] == [type(v) for v in value], name

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[models]\nfoo = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(path)

    @pytest.mark.parametrize("sections", ["", "[dataset]\n", "[lstm]\n"],
                             ids=["alone", "dataset", "lstm"])
    def test_default_section_is_rejected(self, tmp_path, sections):
        path = tmp_path / "run.ini"
        path.write_text("[DEFAULT]\nwindow = 5\n" + sections)
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            load_config(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[lstm]\ndropout = 0.5\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[dataset]\nwindow = soon\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "nope.ini")

    def test_partial_override_keeps_defaults(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[dataset]\nwindow = 5\n")
        cfg = load_config(path)
        assert cfg.window == 5
        assert cfg.lstm_epochs == RunConfig().lstm_epochs


class TestConfigHash:
    def test_stable_across_paths(self):
        a = RunConfig(input_path="/a.csv", out_dir="x")
        b = RunConfig(input_path="/b.csv", out_dir="y")
        assert config_hash(a) == config_hash(b)

    def test_changes_with_semantic_fields(self):
        base = RunConfig()
        assert config_hash(base) != config_hash(RunConfig(seed=1))
        assert config_hash(base) != config_hash(RunConfig(window=10))
        assert config_hash(base) != config_hash(RunConfig(svr_epsilon=0.2))

    def test_repeatable(self):
        assert config_hash(RunConfig()) == config_hash(RunConfig())

    def test_default_hash_is_pinned(self):
        assert config_hash(RunConfig()) == "fb9d095ed4c2"
