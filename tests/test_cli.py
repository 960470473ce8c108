import json

import pytest

from ueprobe.cli import main, read_config_file
from ueprobe.harness import ExperimentConfig, config_digest, default_options


def parsed(experiment, **options):
    """The canonical values that ExperimentConfig reads from raw option text."""
    return ExperimentConfig(experiment=experiment, options=options).options


class TestParseValue:
    def test_scalars(self):
        values = parsed("toy2d", resolution="42", n_per_class=" 7.0 ", grid_min="0.5",
                        grid_max="6", save_models="models")
        assert values == {"resolution": 42, "n_per_class": 7, "grid_min": 0.5, "grid_max": 6.0,
                          "save_models": "models"}
        assert type(values["resolution"]) is int and type(values["grid_max"]) is float
        assert parsed("toy2d", **{"gp.link": "logistic"}) == {"gp.link": "logistic"}
        assert parsed("toy2d", **{"gp.grid_scale": "median"}) == {"gp.grid_scale": "median"}
        assert parsed("toy2d", **{"gp.grid_scale": "2"}) == {"gp.grid_scale": 2.0}

    def test_int_list(self):
        assert parsed("toy2d", **{"mcdropout.arch": "2,300,2"}) == {"mcdropout.arch": [2, 300, 2]}
        assert parsed("toy2d", **{"mcdropout.arch": "2, 300.0, 2"}) == {"mcdropout.arch": [2, 300, 2]}
        assert parsed("theorem-check", ray_distances="10") == {"ray_distances": [10.0]}
        assert parsed("theorem-check", ray_distances=10) == {"ray_distances": [10.0]}

    def test_string_list(self):
        # text options keep their commas; only list options split on them
        assert parsed("toy2d", load_models="a,b") == {"load_models": "a,b"}

    @pytest.mark.parametrize("key, text", [
        ("resolution", "5.5"),
        ("resolution", "five"),
        ("grid_min", "nan"),
        ("gp.link", "tanh"),
        ("gp.grid_scale", "0"),
        ("gp.grid_scale", "mean"),
        ("mcdropout.arch", "2"),
        ("mcdropout.arch", "2,0,2"),
        ("mcdropout.arch", "2,300,3"),
        ("mcdropout.arch", "2,,2"),
    ])
    def test_rejects_by_declared_type(self, key, text):
        with pytest.raises(ValueError, match=f"option {key}"):
            parsed("toy2d", **{key: text})


class TestConfigFile:
    def test_parses_and_skips_comments(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("# comment\n\nresolution=4\nmcdropout.arch=2,8,2\ngp.link=probit\n")
        assert read_config_file(path) == {
            "resolution": "4",
            "mcdropout.arch": "2,8,2",
            "gp.link": "probit",
        }

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("resolution 4\n")
        with pytest.raises(ValueError):
            read_config_file(path)

    def test_default_values_give_the_default_digest(self, tmp_path):
        for experiment in ("toy2d", "theorem-check"):
            path = tmp_path / f"{experiment}.cfg"
            path.write_text("".join(
                f"{k}={','.join(map(str, v)) if isinstance(v, list) else v}\n"
                for k, v in default_options(experiment).items()
            ))
            cfg = ExperimentConfig(experiment=experiment, options=read_config_file(path))
            assert config_digest(cfg) == config_digest(ExperimentConfig(experiment=experiment))


class TestMain:
    def test_theorem_check_success(self, tmp_path, capsys):
        out = tmp_path / "thm.json"
        code = main(["theorem-check", "--seed", "0", "--out", str(out), "--format", "json"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["experiment"] == "theorem-check"
        assert doc["metadata"]["theorem"]["violations"] == []

    def test_theorem_check_violation_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("ray_distances=4.0,5.0\n")
        out = tmp_path / "thm.csv"
        code = main(["theorem-check", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert out.exists()  # report still written, with violations recorded
        assert "check failed" in capsys.readouterr().err

    def test_toy2d_tiny_run(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(
            "n_per_class=20\nresolution=3\n"
            "mcdropout.arch=2,8,2\nmcdropout.epochs=2\nmcdropout.n_passes=5\n"
        )
        out = tmp_path / "toy.csv"
        code = main([
            "toy2d", "--config", str(cfg), "--methods", "gp,mcdropout",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "probe_id,method,descriptor,p_class1,entropy_nats"
        assert len(lines) == 1 + 2 * 9

    def test_unknown_method_exits_1(self, tmp_path, capsys):
        code = main(["toy2d", "--methods", "oracle", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_method_outside_experiment_exits_1(self, tmp_path, capsys):
        out = tmp_path / "thm.csv"
        code = main(["theorem-check", "--methods", "mcdropout", "--out", str(out)])
        assert code == 1
        assert "does not apply" in capsys.readouterr().err
        assert not out.exists()

    def test_theorem_check_ignores_save_models(self, tmp_path, caplog):
        out = tmp_path / "thm.json"
        code = main([
            "theorem-check", "--save-models", str(tmp_path / "models"),
            "--out", str(out), "--format", "json",
        ])
        assert code == 0
        assert "save_models does not apply to theorem-check; ignored" in caplog.text
        assert "save_models" not in json.loads(out.read_text())["metadata"]["options"]
        assert not (tmp_path / "models").exists()

    def test_unknown_option_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("bogus_key=1\n")
        code = main(["toy2d", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_missing_mnist_paths_exit_1(self, tmp_path, capsys):
        code = main(["digit-table", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "MNIST" in capsys.readouterr().err

    def test_bad_experiment_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    @pytest.mark.parametrize("line, key", [
        ("resolution=5.5", "resolution"),
        ("mcdropout.arch=2", "mcdropout.arch"),
    ])
    def test_bad_value_exits_1_naming_the_key(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{line}\nmcdropout.epochs=1\nmcdropout.n_passes=1\n")
        out = tmp_path / "x.csv"
        code = main(["toy2d", "--config", str(cfg), "--methods", "mcdropout", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert key in err and "Traceback" not in err
        assert not out.exists()
