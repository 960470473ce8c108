import json
import os

import numpy as np
import pytest

from ueprobe import bnn, harness
from ueprobe.errors import CheckFailure, NumericalError
from ueprobe.harness import (
    EXPERIMENTS,
    METHODS,
    ExperimentConfig,
    ReportRow,
    UncertaintyReport,
    config_digest,
    default_options,
    merged_options,
    run_digit_table,
    run_mnist_interp,
    run_theorem_check,
    run_toy2d,
    write_report,
)
from ueprobe.numerics import LN2, binary_entropy

TINY_TOY = {
    "n_per_class": 40,
    "resolution": 5,
    "mcdropout.arch": [2, 16, 2],
    "mcdropout.epochs": 5,
    "mcdropout.n_passes": 10,
    "mfvi.arch": [2, 16, 2],
    "mfvi.epochs": 5,
    "mfvi.predict_draws": 10,
    "hmc.arch": [2, 16, 2],
    "hmc.n_samples": 10,
    "hmc.burn_in": 5,
    "hmc.map_epochs": 10,
}

TINY_MNIST_METHOD_OPTS = {
    "n_pairs": 4,
    "t_steps": 7,
    "encoder.arch": [784, 32, 8, 2],
    "encoder.epochs": 4,
    "gp.subsample": 100,
    "mcdropout.arch": [784, 16, 2],
    "mcdropout.epochs": 4,
    "mcdropout.n_passes": 10,
    "mfvi.arch": [784, 16, 2],
    "mfvi.epochs": 4,
    "mfvi.predict_draws": 10,
    "hmc.arch": [784, 16, 2],
    "hmc.n_samples": 5,
    "hmc.burn_in": 3,
    "hmc.map_epochs": 4,
}


@pytest.fixture(scope="module")
def tiny_toy_report():
    cfg = ExperimentConfig(experiment="toy2d", methods=("gp", "mcdropout", "mfvi", "hmc"),
                           seed=5, options=TINY_TOY)
    return run_toy2d(cfg)


class TestWriteReport:
    def _report(self):
        rows = [
            ReportRow("a", "gp", "x=1;y=2", 0.25, float(binary_entropy(0.25))),
            ReportRow("b", "gp", "x=2;y=3", 0.5, LN2),
            ReportRow("a", "mcdropout", "x=1;y=2", 1.0, 0.0),
        ]
        return UncertaintyReport(rows=rows, metadata={"seed": 1, "entropy_units": "nats"})

    def test_empty_csv_is_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(UncertaintyReport(), path, "csv")
        assert path.read_text() == "probe_id,method,descriptor,p_class1,entropy_nats\n"

    def test_row_count(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(self._report(), path, "csv")
        assert len(path.read_text().splitlines()) == 4

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "r.csv"
        rows = [ReportRow("p", "gp", "d", 1 / 3, float(binary_entropy(1 / 3)))]
        write_report(UncertaintyReport(rows=rows), path, "csv")
        assert "0.333333333" in path.read_text()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(self._report(), a, "json")
        write_report(self._report(), b, "json")
        assert a.read_bytes() == b.read_bytes()

    def test_json_mirrors_rows(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(self._report(), path, "json")
        doc = json.loads(path.read_text())
        assert doc["metadata"]["entropy_units"] == "nats"
        assert len(doc["rows"]) == 3
        assert doc["rows"][0]["probe_id"] == "a"

    def test_duplicate_rows_rejected(self, tmp_path):
        rows = [ReportRow("a", "gp", "d", 0.5, LN2), ReportRow("a", "gp", "d", 0.5, LN2)]
        with pytest.raises(NumericalError):
            write_report(UncertaintyReport(rows=rows), tmp_path / "x.csv", "csv")

    def test_bad_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_report(UncertaintyReport(), tmp_path / "x.yaml", "yaml")

    def test_3100_rows_give_3101_lines(self, tmp_path):
        rows = [
            ReportRow(f"pair{i:03d}_t{j:02d}", "gp", f"pair={i};t={j}", 0.5, LN2)
            for i in range(100)
            for j in range(31)
        ]
        path = tmp_path / "sweep.csv"
        write_report(UncertaintyReport(rows=rows), path, "csv")
        assert len(path.read_text().splitlines()) == 3101


class TestConfig:
    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="nonsense"):
            merged_options(ExperimentConfig(experiment="toy2d", options={"nonsense": 1}))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="toy2d", methods=("gp", "oracle"))

    @pytest.mark.parametrize("experiment, methods", [
        ("digit-table", ["gp"]),
        ("theorem-check", ["mcdropout"]),
    ])
    def test_method_outside_experiment_rejected(self, experiment, methods):
        with pytest.raises(ValueError, match="does not apply"):
            ExperimentConfig(experiment=experiment, methods=methods)

    def test_default_methods_per_experiment(self):
        defaults = {e: ExperimentConfig(experiment=e).methods for e in EXPERIMENTS}
        assert defaults == {
            "toy2d": METHODS,
            "mnist-interp": METHODS,
            "digit-table": ("mcdropout",),
            "theorem-check": ("gp",),
        }

    def test_methods_canonical_order(self):
        cfg = ExperimentConfig(experiment="toy2d", methods=("hmc", "gp"))
        assert cfg.methods == ("gp", "hmc")

    def test_digest_stable_and_sensitive(self):
        a = ExperimentConfig(experiment="toy2d", seed=1)
        b = ExperimentConfig(experiment="toy2d", seed=1)
        c = ExperimentConfig(experiment="toy2d", seed=2)
        d = ExperimentConfig(experiment="toy2d", seed=1, options={"resolution": 10})
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(c)
        assert config_digest(a) != config_digest(d)

    def test_defaults_exist_for_all_experiments(self):
        for exp in ("toy2d", "mnist-interp", "digit-table", "theorem-check"):
            assert default_options(exp)

    def test_default_digests_pinned(self):
        # reports carry these digests; a change to a default or its canonical form moves them
        assert {e: config_digest(ExperimentConfig(experiment=e)) for e in EXPERIMENTS} == {
            "toy2d": "c6a59595a5d97210ce2e59d5877ac636e127ef9ca6bfda828d5f7f23632e8829",
            "mnist-interp": "6bbd4264a3cf82be5d156032d951b5a741b06790c8f5069496a0b85d3124e45b",
            "digit-table": "83560826de760d370ba7b781c59df324ee6bb0fa15a10ebebecd4ad806ff0985",
            "theorem-check": "6fb1d254e1b970bedcdab6129206c7081b3dcd29fbd7c0c94807637388551578",
        }


class TestOptions:
    @pytest.mark.parametrize("key, value", [("resolution", 5.5), ("n_per_class", 200.5),
                                            ("resolution", "5.5")])
    def test_fractional_integer_rejected_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=f"option {key}"):
            ExperimentConfig(experiment="toy2d", options={key: value})

    def test_integer_forms_give_one_digest(self):
        digests = {
            config_digest(ExperimentConfig(experiment="toy2d", options={"resolution": v}))
            for v in (5, 5.0, "5", "5.0")
        }
        assert len(digests) == 1

    def test_bad_arch_is_a_value_error(self):
        with pytest.raises(ValueError, match="mcdropout.arch"):
            ExperimentConfig(experiment="toy2d", options={"mcdropout.arch": 2})

    @pytest.mark.parametrize("value", [10, "10", 10.0])
    def test_single_ray_distance_runs_the_check(self, value):
        cfg = ExperimentConfig(experiment="theorem-check", options={"ray_distances": value})
        with pytest.raises(CheckFailure):
            run_theorem_check(cfg)

    @pytest.mark.parametrize("key, value", [
        ("hmc.step_size", -1),
        ("hmc.map_epochs", 0),
        ("mcdropout.n_passes", 0),
        ("mcdropout.dropout", 0.0),
        ("mfvi.batch_size", 0),
        ("mfvi.kl_weight", -1),
        ("mfvi.prior_precision", -1),
        ("mfvi.predict_draws", 0),
        ("gp.signal_variance", -1.0),
    ])
    def test_bad_value_fails_before_any_training(self, monkeypatch, key, value):
        def trained(*args, **kwargs):
            raise AssertionError("a method trained before the options were checked")

        for module, name in [(harness, "train"), (harness, "fit_hyperparams"),
                             (harness, "mfvi_train"), (harness, "hmc_sample"), (bnn, "train")]:
            monkeypatch.setattr(module, name, trained)
        cfg = ExperimentConfig(experiment="toy2d", options=dict(TINY_TOY, **{key: value}))
        with pytest.raises(ValueError, match=f"option {key}="):
            run_toy2d(cfg)


class TestToy2d:
    def test_row_count_and_alignment(self, tiny_toy_report):
        rep = tiny_toy_report
        assert len(rep.rows) == 4 * 25
        by_method = {}
        for row in rep.rows:
            by_method.setdefault(row.method, set()).add(row.probe_id)
        ids = list(by_method.values())
        assert all(s == ids[0] for s in ids)

    def test_entropy_recomputes_from_probability(self, tiny_toy_report):
        for row in tiny_toy_report.rows:
            assert abs(row.entropy_nats - float(binary_entropy(row.p_class1))) < 1e-9

    def test_metadata_complete(self, tiny_toy_report):
        md = tiny_toy_report.metadata
        assert md["experiment"] == "toy2d"
        assert md["entropy_units"] == "nats"
        assert set(md["method_info"]) == {"gp", "mcdropout", "mfvi", "hmc"}
        assert all("train_accuracy" in info for info in md["method_info"].values())
        assert len(md["config_digest"]) == 64

    def test_deterministic_end_to_end(self, tiny_toy_report, tmp_path):
        cfg = ExperimentConfig(experiment="toy2d", methods=("gp", "mcdropout", "mfvi", "hmc"),
                               seed=5, options=TINY_TOY)
        rep2 = run_toy2d(cfg)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(tiny_toy_report, a, "csv")
        write_report(rep2, b, "csv")
        assert a.read_bytes() == b.read_bytes()

    def test_save_then_load_models(self, tmp_path):
        opts = dict(TINY_TOY, save_models=str(tmp_path / "models"))
        cfg = ExperimentConfig(experiment="toy2d", methods=("mcdropout", "mfvi", "hmc"),
                               seed=5, options=opts)
        rep_save = run_toy2d(cfg)
        saved = sorted(os.listdir(tmp_path / "models"))
        assert saved == ["hmc.uep", "mcdropout.uep", "mfvi.uep"]
        assert set(rep_save.metadata["model_hashes"]) == {"hmc", "mcdropout", "mfvi"}

        opts2 = dict(TINY_TOY, load_models=str(tmp_path / "models"))
        cfg2 = ExperimentConfig(experiment="toy2d", methods=("mcdropout", "mfvi", "hmc"),
                                seed=5, options=opts2)
        rep_load = run_toy2d(cfg2)
        assert rep_load.metadata["model_hashes"] == rep_save.metadata["model_hashes"]
        a = {(r.probe_id, r.method): r.p_class1 for r in rep_save.rows}
        b = {(r.probe_id, r.method): r.p_class1 for r in rep_load.rows}
        assert a == b


class TestTheoremCheck:
    def test_passes_with_defaults(self):
        cfg = ExperimentConfig(experiment="theorem-check", methods=("gp",), seed=0)
        rep = run_theorem_check(cfg)
        assert rep.metadata["theorem"]["violations"] == []
        ray = [r for r in rep.metadata["theorem"]["probes"] if r["probe_id"].startswith("ray")]
        assert any(r["kstar_inf"] < 1e-10 for r in ray)

    def test_coverage_violation_raises_with_report(self):
        cfg = ExperimentConfig(
            experiment="theorem-check", methods=("gp",), seed=0,
            options={"ray_distances": [4.0]},
        )
        with pytest.raises(CheckFailure) as exc_info:
            run_theorem_check(cfg)
        assert exc_info.value.report is not None
        assert exc_info.value.detail


class TestSyntheticMnistPipeline:
    def test_interp_experiment_mechanics(self, synthetic_mnist):
        opts = dict(TINY_MNIST_METHOD_OPTS)
        opts.update(
            mnist_train_images=synthetic_mnist["train_images"],
            mnist_train_labels=synthetic_mnist["train_labels"],
            mnist_test_images=synthetic_mnist["test_images"],
            mnist_test_labels=synthetic_mnist["test_labels"],
        )
        cfg = ExperimentConfig(experiment="mnist-interp",
                               methods=("gp", "mcdropout", "mfvi", "hmc"), seed=3, options=opts)
        rep = run_mnist_interp(cfg)
        assert len(rep.rows) == 4 * 4 * 7
        curves = rep.metadata["mean_entropy_per_t"]
        assert set(curves) == {"gp", "mcdropout", "mfvi", "hmc"}
        assert all(len(c) == 7 for c in curves.values())
        for row in rep.rows:
            assert abs(row.entropy_nats - float(binary_entropy(row.p_class1))) < 1e-9
        # curve values recompute from the rows
        t_grid = rep.metadata["t_grid"]
        per_t = {m: [[] for _ in t_grid] for m in curves}
        for row in rep.rows:
            t_index = int(row.probe_id.split("_t")[1])
            per_t[row.method][t_index].append(row.entropy_nats)
        for m, curve in curves.items():
            for t, values in zip(t_grid, per_t[m]):
                assert abs(curve[f"{t:.9g}"] - np.mean(values)) < 1e-9

    @pytest.mark.parametrize("key, value", [("t_steps", 0), ("t_steps", 1), ("gp.subsample", 0)])
    def test_bad_count_fails_before_loading_or_training(self, monkeypatch, synthetic_mnist,
                                                         key, value):
        def called(*args, **kwargs):
            raise AssertionError("IDX files loaded or a method trained before the options were checked")

        for name in ("load_idx", "train", "fit_hyperparams"):
            monkeypatch.setattr(harness, name, called)
        opts = {**TINY_MNIST_METHOD_OPTS, key: value,
                **{f"mnist_{k}": path for k, path in synthetic_mnist.items()}}
        with pytest.raises(ValueError, match=f"option {key}"):
            run_mnist_interp(ExperimentConfig(experiment="mnist-interp",
                                              methods=("gp", "mcdropout"), options=opts))

    def test_digit_table_mechanics(self, synthetic_mnist):
        opts = {
            "mnist_train_images": synthetic_mnist["train_images"],
            "mnist_train_labels": synthetic_mnist["train_labels"],
            "mnist_test_images": synthetic_mnist["test_images"],
            "mnist_test_labels": synthetic_mnist["test_labels"],
            "mcdropout.arch": [784, 16, 2],
            "mcdropout.epochs": 4,
            "mcdropout.n_passes": 10,
        }
        cfg = ExperimentConfig(experiment="digit-table", methods=("mcdropout",), seed=3,
                               options=opts)
        rep = run_digit_table(cfg)
        assert len(rep.rows) == 80  # 8 test samples x 10 classes
        table = rep.metadata["per_digit_mean_entropy"]
        assert set(table) == {str(c) for c in range(10)}
        for c in range(10):
            # each digit's mean is over the entropies of its rows' averaged probabilities
            class_rows = [r for r in rep.rows if r.descriptor == f"class={c}"]
            assert len(class_rows) == 8
            for row in class_rows:
                assert abs(row.entropy_nats - float(binary_entropy(row.p_class1))) < 1e-9
            assert abs(table[str(c)] - np.mean([r.entropy_nats for r in class_rows])) < 1e-9
