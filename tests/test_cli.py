import json

import pytest

from ueprobe.cli import main, parse_value, read_config_file


class TestParseValue:
    def test_scalars(self):
        assert parse_value("42") == 42
        assert parse_value("0.5") == 0.5
        assert parse_value("true") is True
        assert parse_value("False") is False
        assert parse_value("probit") == "probit"

    def test_int_list(self):
        assert parse_value("2,300,2") == [2, 300, 2]

    def test_string_list(self):
        assert parse_value("a,b") == ["a", "b"]


class TestConfigFile:
    def test_parses_and_skips_comments(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("# comment\n\nresolution=4\nmcdropout.arch=2,8,2\ngp.link=probit\n")
        assert read_config_file(path) == {
            "resolution": 4,
            "mcdropout.arch": [2, 8, 2],
            "gp.link": "probit",
        }

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("resolution 4\n")
        with pytest.raises(ValueError):
            read_config_file(path)


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
