import json
from pathlib import Path

import numpy as np
import pytest

from topobayes import (
    GaussianMixtureIntensity,
    classify,
    default_clutter,
    default_prior,
    diagram_from_json,
    fit_class_model,
    mixture_to_json,
    PosteriorConfig,
)
from topobayes.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    return json.loads(Path(path).read_text())


@pytest.fixture
def dataset(tmp_path):
    """Small two-band dataset: signals, diagrams, and their manifests."""
    sig_dir = tmp_path / "signals"
    for band, seed in (("alpha", 0), ("beta", 1000)):
        assert run("generate", "--band", band, "--n", 6, "--duration", 1.0,
                   "--rate", 128, "--snr", 10, "--seed", seed, "--out", sig_dir) == 0
    pd_dir = tmp_path / "diagrams"
    assert run("pd", "--manifest", sig_dir / "manifest.json", "--out", pd_dir) == 0
    return tmp_path


class TestGenerate:
    def test_writes_files_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        assert run("generate", "--band", "alpha", "--n", 4, "--seed", 7,
                   "--snr", 5, "--out", out) == 0
        files = sorted(p.name for p in out.glob("alpha_*.csv"))
        assert files == [f"alpha_{i:03d}.csv" for i in range(4)]
        manifest = read_json(out / "manifest.json")
        assert len(manifest["entries"]) == 4
        assert all(e["label"] == "alpha" for e in manifest["entries"])

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        args = ("generate", "--band", "alpha", "--n", 3, "--seed", 7, "--snr", 5,
                "--out", out)
        assert run(*args) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(*args) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_band_above_nyquist_fails_validation(self, tmp_path):
        assert run("generate", "--band", "alpha", "--n", 1, "--rate", 20,
                   "--out", tmp_path / "x") == 1

    def test_two_bands_merge_in_manifest(self, tmp_path):
        out = tmp_path / "out"
        run("generate", "--band", "alpha", "--n", 2, "--seed", 0, "--out", out)
        run("generate", "--band", "beta", "--n", 2, "--seed", 1, "--out", out)
        labels = [e["label"] for e in read_json(out / "manifest.json")["entries"]]
        assert labels == ["alpha", "alpha", "beta", "beta"]

    @pytest.mark.parametrize("entry", [{"signal": "x.csv"}, {"label": 3, "signal": "x.csv"}])
    def test_merge_rejects_entry_without_label(self, tmp_path, capsys, entry):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"rate": 256.0, "entries": [entry]}))
        assert run("generate", "--band", "alpha", "--n", 1, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {manifest}:")

    def test_unknown_flag_exits_one(self, tmp_path):
        assert run("generate", "--nonsense") == 1


class TestPd:
    def test_known_signal(self, tmp_path):
        src = tmp_path / "sig.csv"
        src.write_text("0\n-1\n0\n-2\n0\n")
        out = tmp_path / "pd"
        assert run("pd", str(src), "--rate", 100, "--out", out) == 0
        d = diagram_from_json(read_json(out / "sig.pd.json"))
        assert sorted(map(tuple, d.points)) == [(0.0, 2.0), (1.0, 1.0)]
        assert d.b_min == -2.0

    def test_monotone_signal_single_point(self, tmp_path):
        src = tmp_path / "mono.csv"
        src.write_text("0\n1\n2\n3\n")
        out = tmp_path / "pd"
        assert run("pd", str(src), "--rate", 100, "--out", out) == 0
        d = diagram_from_json(read_json(out / "mono.pd.json"))
        assert len(d) == 1

    def test_missing_file_exit_two_names_path(self, tmp_path, capsys):
        out = tmp_path / "pd"
        assert run("pd", tmp_path / "absent.csv", "--rate", 100, "--out", out) == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_continues_past_bad_file(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text("0\n1\n0\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("0\nbroken\n")
        out = tmp_path / "pd"
        assert run("pd", good, bad, "--rate", 100, "--out", out) == 2
        assert (out / "good.pd.json").exists()
        assert "bad.csv" in capsys.readouterr().err

    def test_needs_inputs(self, tmp_path):
        assert run("pd", "--out", tmp_path / "pd") == 1

    def test_json_signal_input(self, tmp_path):
        src = tmp_path / "sig.json"
        src.write_text(json.dumps({"rate": 100.0, "samples": [0, -1, 0, -2, 0]}))
        out = tmp_path / "pd"
        assert run("pd", src, "--out", out) == 0
        d = diagram_from_json(read_json(out / "sig.pd.json"))
        assert sorted(map(tuple, d.points)) == [(0.0, 2.0), (1.0, 1.0)]


class TestFitClassifyRoundtrip:
    def test_fit_alpha_zero_emits_prior(self, dataset):
        model_path = dataset / "model.json"
        assert run("fit", "--manifest", dataset / "diagrams" / "manifest.json",
                   "--label", "alpha", "--alpha", 0.0, "--sigma-obs", 0.5,
                   "--out", model_path) == 0
        obj = read_json(model_path)
        assert obj["label"] == "alpha"
        assert obj["posterior"] == mixture_to_json(default_prior())
        assert obj["lambda"] == 1.0

    def test_roundtrip_matches_in_process(self, dataset):
        manifest = dataset / "diagrams" / "manifest.json"
        for label in ("alpha", "beta"):
            assert run("fit", "--manifest", manifest, "--label", label,
                       "--alpha", 0.7, "--sigma-obs", 0.2,
                       "--out", dataset / f"{label}.model.json") == 0

        target = next((dataset / "diagrams").glob("alpha_*.pd.json"))
        report_path = dataset / "cls.json"
        assert run("classify", "--models", dataset / "alpha.model.json",
                   dataset / "beta.model.json", "--diagram", target,
                   "--out", report_path) == 0
        report = read_json(report_path)

        # same computation through the library
        entries = read_json(manifest)["entries"]
        cfg = PosteriorConfig(alpha=0.7, sigma_obs=0.2, clutter=default_clutter())
        models = []
        for label in ("alpha", "beta"):
            training = [
                diagram_from_json(read_json(dataset / "diagrams" / e["diagram"]))
                for e in entries if e["label"] == label
            ]
            models.append(fit_class_model(training, default_prior(), cfg, label))
        want = classify(diagram_from_json(read_json(target)), models, 1.0)
        assert report["label"] == want.label
        assert report["votes"] == want.votes
        assert report["log_densities"] == pytest.approx(want.log_densities)

    def test_classify_identical_models_deterministic_tie(self, dataset, capsys):
        manifest = dataset / "diagrams" / "manifest.json"
        run("fit", "--manifest", manifest, "--label", "alpha",
            "--alpha", 0.7, "--sigma-obs", 0.2, "--out", dataset / "m1.json")
        # same posterior under a different label
        obj = read_json(dataset / "m1.json")
        obj["label"] = "zeta"
        (dataset / "m2.json").write_text(json.dumps(obj))
        target = next((dataset / "diagrams").glob("beta_*.pd.json"))
        assert run("classify", "--models", dataset / "m1.json", dataset / "m2.json",
                   "--diagram", target) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["label"] == "alpha"
        assert report["votes"] == {"alpha": 0, "zeta": 0}

    def test_fit_unknown_label(self, dataset):
        assert run("fit", "--manifest", dataset / "diagrams" / "manifest.json",
                   "--label", "gamma", "--out", dataset / "m.json") == 1

    def test_fit_with_custom_prior_and_clutter_files(self, dataset):
        prior = GaussianMixtureIntensity.single(2.0, (1.0, 2.0), 5.0)
        clutter = GaussianMixtureIntensity.single(0.5, (2.0, 2.0), 10.0)
        prior_path = dataset / "prior.json"
        clutter_path = dataset / "clutter.json"
        prior_path.write_text(json.dumps(mixture_to_json(prior)))
        clutter_path.write_text(json.dumps(mixture_to_json(clutter)))
        model_path = dataset / "custom.model.json"
        assert run("fit", "--manifest", dataset / "diagrams" / "manifest.json",
                   "--label", "alpha", "--alpha", 0.0, "--sigma-obs", 0.5,
                   "--prior", prior_path, "--clutter", clutter_path,
                   "--out", model_path) == 0
        # alpha 0 passes the custom prior straight through
        obj = read_json(model_path)
        assert obj["posterior"] == mixture_to_json(prior)
        assert obj["lambda"] == 2.0


class TestCv:
    def test_report_fields_and_partition(self, dataset):
        report_path = dataset / "cv.json"
        assert run("cv", "--manifest", dataset / "diagrams" / "manifest.json",
                   "--k-folds", 3, "--alpha", 0.7, "--sigma-obs", 0.2,
                   "--seed", 5, "--out", report_path) == 0
        report = read_json(report_path)
        assert set(report) >= {"accuracy", "per_fold", "confusion", "labels",
                               "k_folds", "seed", "config"}
        assert report["k_folds"] == 3
        assert len(report["per_fold"]) == 3
        conf = np.array(report["confusion"])
        assert conf.sum() == 12
        assert conf.sum(axis=1).tolist() == [6, 6]
        assert 0.0 <= report["accuracy"] <= 1.0

    def test_deterministic(self, dataset):
        a_path, b_path = dataset / "cv_a.json", dataset / "cv_b.json"
        for p in (a_path, b_path):
            assert run("cv", "--manifest", dataset / "diagrams" / "manifest.json",
                       "--k-folds", 3, "--seed", 5, "--out", p) == 0
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_k_too_large_rejected(self, dataset, capsys):
        for k in (50, 1):  # 1 is too small: every fold trains on nothing
            assert run("cv", "--manifest", dataset / "diagrams" / "manifest.json",
                       "--k-folds", k) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:")


class TestHeatmap:
    def test_grid_shape_and_peak(self, dataset, tmp_path):
        model_path = tmp_path / "m.json"
        g = GaussianMixtureIntensity.single(2.0, (1.0, 2.0), 0.2)
        model_path.write_text(json.dumps(
            {"label": "x", "lambda": 2.0, "posterior": mixture_to_json(g)}))
        out = tmp_path / "hm"
        assert run("heatmap", "--model", model_path, "--bounds", "0,0,3,4",
                   "--res", "20x30", "--out", out) == 0
        rows = Path(out.with_suffix(".csv")).read_text().strip().splitlines()
        grid = np.array([[float(v) for v in r.split(",")] for r in rows])
        assert grid.shape == (20, 30)
        assert grid.max() == 1.0
        sidecar = read_json(out.with_suffix(".json"))
        assert sidecar["resolution"] == [20, 30]
        # argmax cell adjacent to the component mean
        i, j = np.unravel_index(np.argmax(grid), grid.shape)
        b = np.linspace(0, 3, 20)[i]
        p = np.linspace(0, 4, 30)[j]
        assert abs(b - 1.0) <= 3 / 19 and abs(p - 2.0) <= 4 / 29

    def test_bad_bounds_exit_one(self, tmp_path):
        model_path = tmp_path / "m.json"
        g = GaussianMixtureIntensity.single(2.0, (1.0, 2.0), 0.2)
        model_path.write_text(json.dumps(
            {"label": "x", "lambda": 2.0, "posterior": mixture_to_json(g)}))
        assert run("heatmap", "--model", model_path, "--bounds", "0,0,0,4",
                   "--res", "8x8", "--out", tmp_path / "hm") == 1


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return path


def _list_manifest(d):
    _write(d / "manifest.json", [])
    return ("generate", "--band", "alpha", "--n", 1, "--out", d)


def _non_object_manifest_entry(d):
    return ("pd", "--manifest", _write(d / "m.json", {"entries": ["signal"]}), "--out", d / "pd")


def _components_not_a_list(d):
    _write(d / "a.pd.json", {"points": [[1.0, 1.0]]})
    manifest = _write(d / "m.json", {"entries": [{"diagram": "a.pd.json", "label": "a"}]})
    return ("fit", "--manifest", manifest, "--label", "a",
            "--prior", _write(d / "prior.json", {"components": 5}), "--out", d / "model.json")


def _lambda_not_a_number(d):
    g = GaussianMixtureIntensity.single(2.0, (1.0, 2.0), 0.2)
    model = _write(d / "m.json", {"label": "x", "lambda": "x", "posterior": mixture_to_json(g)})
    return ("classify", "--models", model, model,
            "--diagram", _write(d / "d.json", {"points": [[1.0, 1.0]]}))


class TestExitCodes:
    @pytest.mark.parametrize("make_argv", [
        _list_manifest, _non_object_manifest_entry, _components_not_a_list, _lambda_not_a_number,
    ], ids=lambda f: f.__name__.lstrip("_"))
    def test_malformed_input_gives_one_error_line(self, tmp_path, capsys, make_argv):
        assert run(*make_argv(tmp_path)) in (1, 2)
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err


class TestPipeline:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("pipeline", "--n", 6, "--k-folds", 3, "--snr", 10,
                   "--seed", 3, "--out", out) == 0
        assert "cv accuracy:" in capsys.readouterr().out
        report = read_json(out / "cv_report.json")
        assert report["k_folds"] == 3
        assert report["labels"] == ["alpha", "beta"]
