import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from topobayes import (
    ClassModel,
    GaussianMixtureIntensity,
    PersistenceDiagram,
    classify,
    default_clutter,
    default_prior,
    diagram_from_json,
    diagram_to_json,
    fit_class_model,
    mixture_to_json,
    model_to_json,
    PosteriorConfig,
)
from topobayes import cli
from topobayes.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    return json.loads(Path(path).read_text())


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Module-wide inputs: two small bands of signals, their diagrams, one model per band."""
    root = tmp_path_factory.mktemp("cli_files")
    for band, seed in (("alpha", 0), ("beta", 1000)):
        assert run("generate", "--band", band, "--n", 4, "--duration", 1.0, "--rate", 128,
                   "--snr", 10, "--seed", seed, "--out", root / "signals") == 0
    assert run("pd", "--manifest", root / "signals" / "manifest.json",
               "--out", root / "diagrams") == 0
    for band in ("alpha", "beta"):
        assert run("fit", "--manifest", root / "diagrams" / "manifest.json", "--label", band,
                   "--out", root / f"{band}.json") == 0
    return root


def _base_argv(command, files, out):
    """A run of command that succeeds on the module-wide inputs, writing under out."""
    manifest = files / "diagrams" / "manifest.json"
    return {
        "generate": ["generate", "--band", "alpha", "--n", 1, "--out", out / "sig"],
        "pd": ["pd", files / "signals" / "alpha_000.csv", "--rate", 128, "--out", out / "pd"],
        "fit": ["fit", "--manifest", manifest, "--label", "alpha", "--out", out / "m.json"],
        "classify": ["classify", "--models", files / "alpha.json", files / "beta.json",
                     "--diagram", files / "diagrams" / "alpha_000.pd.json"],
        "cv": ["cv", "--manifest", manifest, "--k-folds", 2],
        "heatmap": ["heatmap", "--model", files / "alpha.json", "--bounds", "0,0,3,4",
                    "--res", "8x8", "--out", out / "hm"],
        "pipeline": ["pipeline", "--n", 4, "--k-folds", 2, "--out", out / "run"],
    }[command]


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
        assert capsys.readouterr().err == f"error: {tmp_path / 'absent.csv'}: no such file\n"

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

    def test_model_file_is_sorted_indented_json_of_the_model(self, dataset):
        manifest = dataset / "diagrams" / "manifest.json"
        model_path = dataset / "alpha.model.json"
        assert run("fit", "--manifest", manifest, "--label", "alpha", "--alpha", 0.6,
                   "--sigma-obs", 0.3, "--out", model_path) == 0
        training = [diagram_from_json(read_json(dataset / "diagrams" / e["diagram"]))
                    for e in read_json(manifest)["entries"] if e["label"] == "alpha"]
        cfg = PosteriorConfig(alpha=0.6, sigma_obs=0.3, clutter=default_clutter())
        model = fit_class_model(training, default_prior(), cfg, "alpha")
        want = json.dumps(model_to_json(model), indent=2, sort_keys=True) + "\n"
        assert model_path.read_text() == want

    def test_classify_writes_zero_density_as_string(self, cli_files, tmp_path, capsys):
        void = _write(tmp_path / "void.json",
                      {"label": "void", "lambda": 0.0, "posterior": {"components": []}})
        assert run("classify", "--models", cli_files / "alpha.json", void,
                   "--diagram", cli_files / "diagrams" / "beta_000.pd.json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["log_densities"]["void"] == "-inf"
        assert isinstance(report["log_densities"]["alpha"], float)
        assert report["label"] == "alpha" and report["votes"] == {"alpha": 1, "void": 0}

    def test_fit_reads_only_its_own_label(self, dataset, capsys):
        manifest = dataset / "diagrams" / "manifest.json"
        (dataset / "diagrams" / "beta_000.pd.json").write_text("{broken")
        assert run("fit", "--manifest", manifest, "--label", "alpha",
                   "--out", dataset / "alpha.json") == 0
        assert run("fit", "--manifest", manifest, "--label", "beta",
                   "--out", dataset / "beta.json") == 2
        assert "beta_000.pd.json: malformed JSON" in capsys.readouterr().err
        # the manifest itself is still checked in full
        entries = read_json(manifest)["entries"] + [{"label": "beta"}]
        _write(manifest, {"entries": entries})
        assert run("fit", "--manifest", manifest, "--label", "alpha",
                   "--out", dataset / "alpha.json") == 2
        assert "entry without a 'diagram' path" in capsys.readouterr().err

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


def _list_manifest(d, files):
    manifest = _write(d / "manifest.json", [])
    return ("generate", "--band", "alpha", "--n", 1, "--out", d), 2, manifest


def _non_object_manifest_entry(d, files):
    manifest = _write(d / "m.json", {"entries": ["signal"]})
    return ("pd", "--manifest", manifest, "--out", d / "pd"), 2, manifest


def _components_not_a_list(d, files):
    _write(d / "a.pd.json", {"points": [[1.0, 1.0]]})
    manifest = _write(d / "m.json", {"entries": [{"diagram": "a.pd.json", "label": "a"}]})
    prior = _write(d / "prior.json", {"components": 5})
    return ("fit", "--manifest", manifest, "--label", "a",
            "--prior", prior, "--out", d / "model.json"), 2, prior


def _lambda_not_a_number(d, files):
    g = GaussianMixtureIntensity.single(2.0, (1.0, 2.0), 0.2)
    model = _write(d / "m.json", {"label": "x", "lambda": "x", "posterior": mixture_to_json(g)})
    return ("classify", "--models", model, model,
            "--diagram", _write(d / "d.json", {"points": [[1.0, 1.0]]})), 2, model


def _model_without_label(d, files):
    model = _write(d / "m.json", {"lambda": 0.0, "posterior": {"components": []}})
    return ("classify", "--models", model, files / "beta.json",
            "--diagram", files / "diagrams" / "beta_000.pd.json"), 2, model


def _model_nested_too_deep(d, files):
    model = d / "m.json"
    model.write_text("[" * 100_000 + "]" * 100_000)
    return ("classify", "--models", model, files / "beta.json",
            "--diagram", files / "diagrams" / "beta_000.pd.json"), 2, model


def _prior_component_overflows(d, files):
    # finite, but its log kernel is not: the fitted model scored NaN and classify exited 0
    prior = _write(d / "prior.json", {"components": [{"w": 1.0, "mu": [-1e200, 1.0],
                                                      "var": 1e-200}]})
    return ("fit", "--manifest", files / "diagrams" / "manifest.json", "--label", "alpha",
            "--alpha", 0, "--prior", prior, "--out", d / "model.json"), 2, prior


def _model_component_overflows(d, files):
    model = _write(d / "m.json", {"label": "x", "lambda": 1.0, "posterior": {
        "components": [{"w": 1.0, "mu": [1e10, 1.0], "var": 1e-300}]}})
    return ("classify", "--models", model, files / "beta.json",
            "--diagram", files / "diagrams" / "beta_000.pd.json"), 2, model


def _model_weight_too_large_for_a_float(d, files):
    model = d / "m.json"
    model.write_text('{"label": "x", "posterior": {"components": '
                     '[{"w": 1' + "0" * 400 + ', "mu": [1.0, 1.0], "var": 1.0}]}}')
    return ("classify", "--models", model, files / "beta.json",
            "--diagram", files / "diagrams" / "beta_000.pd.json"), 2, model


def _signal_not_utf8(d, files):
    signal = d / "s.csv"
    signal.write_bytes(b"\xff\xfe0\n1\n")
    return ("pd", signal, "--rate", 100, "--out", d / "pd"), 2, signal


def _signal_nested_too_deep(d, files):
    signal = d / "s.json"
    signal.write_text("[" * 100_000 + "]" * 100_000)
    return ("pd", signal, "--out", d / "pd"), 2, signal


def _bad_flag(command, flag):
    """A run that would succeed but for one appended flag that must be rejected."""
    def make(d, files):
        return (*_base_argv(command, files, d), flag), 1, None
    make.__name__ = f"_{command}{flag}"
    return make


# flag -> strategy for the value text of each numeric option of each subcommand:
# the non-finite, zero and negative edge cases, or a small finite number
_EDGES = st.sampled_from(["nan", "inf", "-inf", "0", "-1"])
_REAL = _EDGES | st.floats(-4.0, 4.0).map(repr)
_INT = _EDGES | st.integers(0, 64).map(str)  # --n and --res stay small: a run must stay cheap
_POSTERIOR = {"--alpha": _REAL, "--sigma-obs": _REAL}
_CV = {"--k-folds": _INT, "--threshold": _REAL, "--seed": _INT}
_SAMPLING = {"--duration": _REAL, "--rate": _REAL, "--snr": _REAL, "--seed": _INT, "--n": _INT}
_NUMERIC_FLAGS = {
    "generate": _SAMPLING,
    "pd": {"--rate": _REAL},
    "fit": _POSTERIOR,
    "classify": {"--threshold": _REAL},
    "cv": {**_POSTERIOR, **_CV},
    "heatmap": {"--bounds": st.lists(_REAL, min_size=4, max_size=4).map(",".join),
                "--res": st.lists(_INT, min_size=2, max_size=2).map("x".join)},
    "pipeline": {**_SAMPLING, **_POSTERIOR, **_CV},
}


class TestExitCodes:
    @pytest.mark.parametrize("make_case", [
        _list_manifest, _non_object_manifest_entry, _components_not_a_list, _lambda_not_a_number,
        _model_without_label, _model_nested_too_deep, _signal_not_utf8, _signal_nested_too_deep,
        _prior_component_overflows, _model_component_overflows,
        _model_weight_too_large_for_a_float,
        _bad_flag("generate", "--duration=inf"), _bad_flag("generate", "--duration=nan"),
        # numpy refuses the 1.8 PiB sample array at once, without trying to allocate it
        _bad_flag("generate", "--duration=1e12"),
        _bad_flag("generate", "--rate=inf"), _bad_flag("generate", "--rate=nan"),
        _bad_flag("generate", "--snr=-inf"), _bad_flag("generate", "--seed=-1"),
        _bad_flag("fit", "--sigma-obs=inf"),
        _bad_flag("classify", "--threshold=nan"), _bad_flag("classify", "--threshold=inf"),
        _bad_flag("heatmap", "--bounds=0,0,inf,3"), _bad_flag("cv", "--seed=-1"),
    ], ids=lambda f: f.__name__.lstrip("_"))
    def test_malformed_input_gives_one_error_line(self, tmp_path, capsys, cli_files, make_case):
        argv, code, bad_file = make_case(tmp_path, cli_files)
        assert run(*argv) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err
        if bad_file is not None:  # a data-file error names the file, once
            assert err.startswith(f"error: {bad_file}:") and err.count(str(bad_file)) == 1

    @pytest.mark.parametrize("command", sorted(_NUMERIC_FLAGS))
    def test_base_runs_succeed(self, tmp_path, cli_files, capsys, command):
        # each rejected flag above and each drawn one below is the only fault in its run
        assert run(*_base_argv(command, cli_files, tmp_path)) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning is one more stderr line
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_numeric_flags_exit_cleanly(self, cli_files, data):
        command = data.draw(st.sampled_from(sorted(_NUMERIC_FLAGS)), label="command")
        flags = []
        for flag, values in _NUMERIC_FLAGS[command].items():
            value = data.draw(st.none() | values, label=flag)
            if value is not None:
                flags.append(f"{flag}={value}")
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
            code = run(*_base_argv(command, cli_files, Path(tmp)), *flags)
        event(f"{command}: exit {code}")  # shown by --hypothesis-show-statistics
        assert code in (0, 1, 2)
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()


class TestEntrypoint:
    """`python -m topobayes.cli`, the path the installed script takes."""

    def _run(self, *argv):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
        return subprocess.run([sys.executable, "-m", "topobayes.cli", *map(str, argv)],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_exit_codes(self, tmp_path):
        assert self._run("--help").returncode == 0
        proc = self._run("generate", "--band", "alpha", "--n", 1, "--out", tmp_path,
                         "--nonsense")
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")
        model = tmp_path / "absent.json"
        proc = self._run("classify", "--models", model, model, "--diagram", tmp_path / "d.json")
        assert proc.returncode == 2
        assert proc.stderr == f"error: {model}: no such file\n"

    def test_import_does_not_load_scipy_special(self):
        # scipy.special is most of the import's time and memory; generate and pd never need it
        src = Path(__file__).resolve().parent.parent / "src"
        code = "import sys, topobayes.cli; print('scipy.special' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr


class TestPipeline:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("pipeline", "--n", 6, "--k-folds", 3, "--snr", 10,
                   "--seed", 3, "--out", out) == 0
        assert "cv accuracy:" in capsys.readouterr().out
        report = read_json(out / "cv_report.json")
        assert report["k_folds"] == 3
        assert report["labels"] == ["alpha", "beta"]


# floats at the edges of their JSON and %.17g text: signed zero, the least subnormal, the
# largest magnitudes, and the exponents where repr switches between plain and e-notation
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e308, 1e-5, 1e-4, 1e16, 1e15, 0.1, 1 / 3, 123456789.125]
_LABELS = st.sampled_from(['say "hi"', "back\\slash", "new\nline", "naïve ☃", "null", "[]",
                           "%r %s", "", "\x00"]) | st.text()


def _floats(lo, hi):
    return st.sampled_from([x for x in _EDGE_FLOATS if lo <= x <= hi]) | st.floats(lo, hi)


def _component():
    """(w, b, p, var) of a component the mixture accepts; weights include 1e308.

    The variance stays below 1e308 / (2 pi), where the normalizer of the kernel overflows."""
    coord = _floats(-1e16, 1e16)
    return st.tuples(_floats(5e-324, 1e308), coord, coord, _floats(1e-5, 1e307))


class TestWriters:
    """Model, diagram and CSV files are byte for byte what the per-value encoders write."""

    @settings(max_examples=150, deadline=None)
    @given(label=_LABELS, comps=st.lists(_component(), max_size=5).filter(
        lambda cs: math.isfinite(sum(c[0] for c in cs))))
    def test_model_file_is_the_indented_json_of_model_to_json(self, label, comps):
        a = np.array(comps, dtype=float).reshape(-1, 4)
        model = ClassModel(label, GaussianMixtureIntensity(a[:, 0], a[:, 1:3], a[:, 3]))
        want = json.dumps(model_to_json(model), indent=2, sort_keys=True) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            cli._emit_model(model, Path(tmp) / "m.json")
            assert (Path(tmp) / "m.json").read_bytes() == want.encode()

    @settings(max_examples=150, deadline=None)
    @given(b_min=_floats(-1e308, 1e308), points=arrays(
        float, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6).map(
            lambda shape: (shape[0], 2)), elements=_floats(0.0, 1e308)))
    def test_diagram_file_is_the_indented_json_of_diagram_to_json(self, b_min, points):
        diagram = PersistenceDiagram(points, b_min)
        want = json.dumps(diagram_to_json(diagram), indent=2, sort_keys=True) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            cli._emit_diagram(diagram, Path(tmp) / "d.json")
            assert (Path(tmp) / "d.json").read_bytes() == want.encode()

    @settings(max_examples=150, deadline=None)
    @given(table=arrays(float, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
                        elements=_floats(-1e308, 1e308)))
    def test_csv_formats_each_value_at_round_trip_precision(self, table):
        want = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in table)
        with tempfile.TemporaryDirectory() as tmp:
            cli._write_csv(Path(tmp) / "t.csv", table)
            assert (Path(tmp) / "t.csv").read_bytes() == want.encode()
