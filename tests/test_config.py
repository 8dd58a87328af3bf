import pytest

from cryptobench.config import ConfigError, RunConfig, config_hash, load_config


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

    def test_rejects_unknown_feature_mode(self):
        with pytest.raises(ConfigError):
            RunConfig(svr_features="pca")


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
            "[svr]\n"
            "kernels = linear\n"
            "gammas = 0.5\n"
            "cs = 2.0, 4.0\n"
            "[polyreg]\n"
            "degrees = 3\n"
            "[run]\n"
            "seed = 7\n"
        )
        cfg = load_config(path)
        assert cfg.window == 12
        assert cfg.train_fraction == 0.75
        assert cfg.lstm_hidden_size == 9
        assert cfg.lstm_epochs == (5, 10)
        assert cfg.svr_kernels == ("linear",)
        assert cfg.svr_cs == (2.0, 4.0)
        assert cfg.poly_degrees == (3,)
        assert cfg.seed == 7

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[models]\nfoo = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
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
