import argparse
import copy
import inspect
import io
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from topobayes import (
    GaussianMixtureIntensity,
    PersistenceDiagram,
    Signal,
    classify,
    default_clutter,
    default_prior,
    diagram_log_density,
    posterior_intensity,
    sublevel_pd,
    tilt,
    PosteriorConfig,
    ValidationError,
)
from topobayes import cli
from topobayes.cli import (diagram_from_json, load_signal, main, mixture_from_json, model_arrays,
                           model_from_arrays)
from oracles import diagram_to_json, mixture_to_json, model_to_json


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
        "pd": ["pd", files / "signals" / "alpha_000.csv", "--out", out / "pd"],
        "fit": ["fit", "--manifest", manifest, "--label", "alpha", "--out", out / "m.json"],
        "classify": ["classify", "--models", files / "alpha.json", files / "beta.json",
                     "--diagram", files / "diagrams" / "alpha_000.pd.json"],
        "cv": ["cv", "--manifest", manifest, "--k-folds", 2],
        "heatmap": ["heatmap", "--model", files / "alpha.json", "--bounds", 0, 0, 3, 4,
                    "--res", 8, 8, "--out", out / "hm"],
        "pipeline": ["pipeline", "--n", 4, "--k-folds", 2, "--out", out / "run"],
    }[command]


@pytest.fixture(scope="module")
def many_diagrams(tmp_path_factory):
    """36 diagrams labeled alpha, more than one worker's chunk; their manifest's path."""
    root = tmp_path_factory.mktemp("many_diagrams")
    assert run("generate", "--band", "alpha", "--n", 36, "--duration", 1.0, "--rate", 128,
               "--snr", 10, "--out", root / "signals") == 0
    assert run("pd", "--manifest", root / "signals" / "manifest.json",
               "--out", root / "diagrams") == 0
    return root / "diagrams" / "manifest.json"


def _serially(monkeypatch):
    """Make cli._pool a pool whose map is the builtin map, in this process: generate's and pd's
    _map then compute a list comprehension, and classify parses its model files where it builds
    them. fit, cv and heatmap start no pool, so it changes nothing for them."""
    pool = SimpleNamespace(map=lambda fn, items, chunksize=1: map(fn, items))
    monkeypatch.setattr(cli, "_pool", lambda items: nullcontext(pool))


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

    def test_matches_a_serial_run(self, tmp_path, monkeypatch):
        # more signals than one worker's chunk
        args = ("generate", "--band", "beta", "--n", 40, "--duration", 0.5, "--seed", 3,
                "--snr", 5)
        assert run(*args, "--out", tmp_path / "workers") == 0
        _serially(monkeypatch)
        assert run(*args, "--out", tmp_path / "serial") == 0
        workers = {p.name: p.read_bytes() for p in (tmp_path / "workers").iterdir()}
        assert len(workers) == 41
        assert workers == {p.name: p.read_bytes() for p in (tmp_path / "serial").iterdir()}

    def test_band_above_nyquist_fails_validation(self, tmp_path, capsys):
        # the workers refuse the band before writing a signal, so not even the directory is made
        assert run("generate", "--band", "alpha", "--n", 2, "--rate", 20,
                   "--out", tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert not (tmp_path / "x").exists()

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
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]  # no CSV written

    def test_refused_rate_mix_changes_no_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("generate", "--band", "beta", "--n", 2, "--out", out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert run("generate", "--band", "beta", "--n", 2, "--out", out, "--rate", 512) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "refusing to mix" in err
        assert err.startswith("error: ")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_unknown_flag_exits_one(self, tmp_path):
        assert run("generate", "--nonsense") == 1


def _out_of_memory(sig):
    raise MemoryError


class TestPd:
    def test_known_signal(self, tmp_path):
        src = tmp_path / "sig.csv"
        src.write_text("0\n-1\n0\n-2\n0\n")
        out = tmp_path / "pd"
        assert run("pd", str(src), "--out", out) == 0
        d = diagram_from_json(read_json(out / "sig.pd.json"))
        assert sorted(map(tuple, d.points)) == [(0.0, 2.0), (1.0, 1.0)]
        assert d.b_min == -2.0

    def test_monotone_signal_single_point(self, tmp_path):
        src = tmp_path / "mono.csv"
        src.write_text("0\n1\n2\n3\n")
        out = tmp_path / "pd"
        assert run("pd", str(src), "--out", out) == 0
        d = diagram_from_json(read_json(out / "mono.pd.json"))
        assert len(d) == 1

    def test_missing_file_exit_two_names_path(self, tmp_path, capsys):
        out = tmp_path / "pd"
        assert run("pd", tmp_path / "absent.csv", "--out", out) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'absent.csv'}: no such file\n"

    def test_continues_past_bad_file(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text("0\n1\n0\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("0\nbroken\n")
        out = tmp_path / "pd"
        assert run("pd", good, bad, "--out", out) == 2
        assert (out / "good.pd.json").exists()
        assert "bad.csv" in capsys.readouterr().err

    def test_names_every_failing_file_in_one_line(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text("0\n1\n0\n")
        bad1 = tmp_path / "bad1.csv"
        bad1.write_text("0\nbroken\n")
        bad2 = tmp_path / "bad2.csv"
        bad2.write_text("0\n")
        out = tmp_path / "pd"
        assert run("pd", bad2, good, bad1, "--out", out) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {bad2}:")
        assert err.index(str(bad2)) < err.index(str(bad1))
        assert read_json(out / "manifest.json") == {"entries": [{"diagram": "good.pd.json"}]}
        assert sorted(p.name for p in out.iterdir()) == ["good.pd.json", "manifest.json"]

    def test_matches_a_serial_reference(self, tmp_path, capsys):
        # more signals than one worker's chunk, CSV and JSON, of many lengths, one of them bad
        rng = np.random.default_rng(5)
        sig_dir = tmp_path / "signals"
        sig_dir.mkdir()
        entries = []
        for i in range(40):
            samples = np.round(rng.normal(size=int(rng.integers(2, 400))), int(rng.integers(1, 4)))
            if i % 3:
                path = sig_dir / f"s{i:02d}.csv"
                cli._write_csv(path, samples[:, None])
            else:
                path = _write(sig_dir / f"s{i:02d}.json", {"rate": 50.0, "samples": samples.tolist()})
            entries.append({"signal": path.name, "label": "ab"[i % 2]})
        (sig_dir / "bad.csv").write_text("1\nx\n")
        entries.insert(17, {"signal": "bad.csv", "label": "a"})
        manifest = _write(sig_dir / "manifest.json", {"rate": 100.0, "entries": entries})
        out = tmp_path / "pd"
        assert run("pd", "--manifest", manifest, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {sig_dir / 'bad.csv'}: malformed line 2: 'x'\n"

        want = tmp_path / "want"
        listed = []
        for e in entries:
            path = sig_dir / e["signal"]
            if path.name != "bad.csv":
                sig = (Signal(read_json(path)["samples"]) if path.suffix == ".json"
                       else load_signal(path))
                cli._emit_diagram(tilt(sublevel_pd(sig)), want / f"{path.stem}.pd.json")
                listed.append({"diagram": f"{path.stem}.pd.json", "label": e["label"]})
        cli._emit({"entries": listed}, want / "manifest.json")
        assert len(listed) == 40
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {
            p.name: p.read_bytes() for p in want.iterdir()}

    # the method _pool's workers start with, whatever the interpreter's default is
    @pytest.mark.skipif(
        multiprocessing.get_context(cli._START_METHOD).get_start_method() != "fork",
        reason="a patch reaches the workers only when they are forked")
    @pytest.mark.parametrize("die, message", [
        (lambda sig: os._exit(3), "a worker process died"),  # as when the kernel kills it
        (_out_of_memory, "out of memory"),
    ], ids=["worker_exits", "memory_error_in_worker"])
    def test_worker_failure_is_one_error_line(self, tmp_path, capsys, monkeypatch, die, message):
        for name in ("a", "b", "c"):
            (tmp_path / f"{name}.csv").write_text("0\n1\n0\n")
        monkeypatch.setattr(cli, "sublevel_pd", die)
        assert run("pd", *sorted(tmp_path.glob("*.csv")), "--out", tmp_path / "pd") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}"), err

    @pytest.mark.skipif(sys.platform != "linux", reason="pools fork on Linux alone")
    def test_workers_fork_when_the_default_is_forkserver(self):
        # Python 3.14's default on Linux: each of its workers is a child of the fork server,
        # where a forked one is the command's own child; /proc/self/stat's 4th field is the parent
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import multiprocessing, os; from pathlib import Path; from topobayes import cli; "
                "multiprocessing.set_start_method('forkserver'); "
                "stat, = cli._map(Path.read_text, [Path('/proc/self/stat')]); "
                "print(int(stat.rsplit(')', 1)[1].split()[1]) == os.getpid())")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.stdout == "True\n", proc.stderr

    def test_inputs_sharing_an_output_name_write_nothing(self, tmp_path, capsys):
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            (tmp_path / d / "x.csv").write_text("0\n1\n0\n")
        manifest = _write(tmp_path / "m.json",
                          {"rate": 100, "entries": [{"signal": "a/x.csv"}, {"signal": "b/x.csv"}]})
        out = tmp_path / "pd"
        for argv, code in (((tmp_path / "a" / "x.csv", tmp_path / "b" / "x.csv"), 1),
                           (("--manifest", manifest), 2)):
            assert run("pd", *argv, "--out", out) == code
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and not out.exists()
            assert "a/x.csv" in err and "b/x.csv" in err

    def test_needs_inputs(self, tmp_path):
        assert run("pd", "--out", tmp_path / "pd") == 1

    @pytest.mark.parametrize("argv", [
        ("--manifest", "m.json", "y.csv"),  # files beside a manifest are not read
    ], ids=["manifest_and_signal_files"])
    def test_refused_command_line_writes_nothing(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        for name in ("x", "y"):
            Path(f"{name}.csv").write_text("0\n1\n0\n")
        _write(Path("m.json"), {"rate": 100, "entries": [{"signal": "x.csv"}]})
        assert run("pd", *argv, "--out", "pd") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert not Path("pd").exists()

    @pytest.mark.parametrize("argv", [
        ("x.csv", "y.csv"),
        ("--manifest", "m.json"),
    ], ids=["csv_without_rate", "signal_manifest_without_rate_for_csv_signals"])
    def test_csv_signals_need_no_rate(self, tmp_path, capsys, monkeypatch, argv):
        # a diagram depends on the samples alone, so no sample rate is asked for
        monkeypatch.chdir(tmp_path)
        samples = {"x": [0.0, -1.0, 0.5, -2.0, 0.25], "y": [3.0, 1.0, 2.0]}
        for name, values in samples.items():
            Path(f"{name}.csv").write_text("".join(f"{v!r}\n" for v in values))
        _write(Path("m.json"), {"entries": [{"signal": "x.csv"}, {"signal": "y.csv"}]})
        assert run("pd", *argv, "--out", "pd") == 0
        assert capsys.readouterr() == ("", "")
        for name, values in samples.items():
            cli._emit_diagram(tilt(sublevel_pd(values)), f"want/{name}.pd.json")
        cli._emit({"entries": [{"diagram": "x.pd.json"}, {"diagram": "y.pd.json"}]},
                  "want/manifest.json")
        assert {p.name: p.read_bytes() for p in Path("pd").iterdir()} == {
            p.name: p.read_bytes() for p in Path("want").iterdir()}

    @pytest.mark.parametrize("out", ["sig", "sig/../sig"])
    def test_refuses_to_replace_its_signal_manifest(self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        assert run("generate", "--band", "alpha", "--n", 2, "--rate", 128, "--out", "sig") == 0
        before = {p: p.read_bytes() for p in Path("sig").iterdir()}
        # the diagram manifest would be written over the signal manifest it was made from
        assert run("pd", "--manifest", "sig/manifest.json", "--out", out) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert {p: p.read_bytes() for p in Path("sig").iterdir()} == before

    def test_json_signal_input(self, tmp_path):
        src = tmp_path / "sig.json"
        src.write_text(json.dumps({"rate": 100.0, "samples": [0, -1, 0, -2, 0]}))
        out = tmp_path / "pd"
        assert run("pd", src, "--out", out) == 0
        d = diagram_from_json(read_json(out / "sig.pd.json"))
        assert sorted(map(tuple, d.points)) == [(0.0, 2.0), (1.0, 1.0)]


class TestJsonByteOrderMark:
    """A JSON file that starts with a UTF-8 byte-order mark reads as the file without it."""

    BOM = b"\xef\xbb\xbf"

    def test_signal_gives_the_plain_files_diagram(self, tmp_path):
        plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
        plain.write_text('{"rate": 128, "samples": [0.5, 1.5, -1.0, 2.0]}')
        bom.write_bytes(self.BOM + plain.read_bytes())
        assert run("pd", plain, bom, "--out", tmp_path / "pd") == 0
        assert ((tmp_path / "pd" / "bom.pd.json").read_bytes()
                == (tmp_path / "pd" / "plain.pd.json").read_bytes())

    def test_model_gives_the_plain_files_report(self, tmp_path, cli_files, capsys):
        bom = tmp_path / "alpha.json"
        bom.write_bytes(self.BOM + (cli_files / "alpha.json").read_bytes())
        reports = []
        for alpha in (cli_files / "alpha.json", bom):
            assert run("classify", "--models", alpha, cli_files / "beta.json",
                       "--diagram", cli_files / "diagrams" / "alpha_000.pd.json") == 0
            reports.append(capsys.readouterr())
        assert reports[0] == reports[1] and reports[0].err == ""


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
            models.append((label, posterior_intensity(default_prior(), training, cfg)))
        d = diagram_from_json(read_json(target))
        scores = {label: diagram_log_density(d, g) for label, g in models}
        want = classify(scores, 1.0)
        assert report["label"] == want.label
        assert report["votes"] == want.votes
        assert report["log_densities"] == pytest.approx(scores)

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

    def test_one_model_is_refused_before_any_file_is_read(self, tmp_path, capsys):
        # a lone model was parsed and built before the refusal; a fault in it was reported first
        model = tmp_path / "m.json"
        model.write_text("{not json")
        assert run("classify", "--models", model, "--diagram", tmp_path / "missing.pd.json",
                   "--threshold", 0) == 1
        assert capsys.readouterr() == ("", "error: need at least 2 class models\n")

    def test_model_file_is_sorted_indented_json_of_the_model(self, dataset):
        manifest = dataset / "diagrams" / "manifest.json"
        model_path = dataset / "alpha.model.json"
        assert run("fit", "--manifest", manifest, "--label", "alpha", "--alpha", 0.6,
                   "--sigma-obs", 0.3, "--out", model_path) == 0
        training = [diagram_from_json(read_json(dataset / "diagrams" / e["diagram"]))
                    for e in read_json(manifest)["entries"] if e["label"] == "alpha"]
        cfg = PosteriorConfig(alpha=0.6, sigma_obs=0.3, clutter=default_clutter())
        g = posterior_intensity(default_prior(), training, cfg)
        want = json.dumps(model_to_json("alpha", g), indent=2, sort_keys=True) + "\n"
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

    def test_classify_report_matches_serially_read_models(self, cli_files, tmp_path,
                                                          monkeypatch):
        argv = ["classify", "--models", cli_files / "beta.json", cli_files / "alpha.json",
                "--diagram", cli_files / "diagrams" / "alpha_001.pd.json"]
        assert run(*argv, "--out", tmp_path / "workers.json") == 0
        _serially(monkeypatch)
        assert run(*argv, "--out", tmp_path / "serial.json") == 0
        assert (tmp_path / "workers.json").read_bytes() == (tmp_path / "serial.json").read_bytes()

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fit_survives_a_point_far_from_prior_and_clutter(self, tmp_path, capfd):
        # (32.5, 32.5)'s denominator is subnormal, so (alpha / m) / denom overflows
        _write(tmp_path / "prior.json", {"components": [{"w": 1, "mu": [3, 3], "var": 1}]})
        _write(tmp_path / "clutter.json", {"components": []})
        _write(tmp_path / "d.pd.json", {"b_min": 0.0, "points": [[3, 3], [32.5, 32.5]]})
        _write(tmp_path / "manifest.json", {"entries": [{"diagram": "d.pd.json", "label": "a"}]})
        assert run("fit", "--manifest", tmp_path / "manifest.json", "--label", "a",
                   "--prior", tmp_path / "prior.json", "--clutter", tmp_path / "clutter.json",
                   "--out", tmp_path / "m.json") == 0
        assert capfd.readouterr().err == ""
        model = read_json(tmp_path / "m.json")
        weights = [c["w"] for c in model["posterior"]["components"]]
        assert weights == pytest.approx([0.3, 1.0, 1.0], rel=1e-6)  # 1 / m for each point
        assert model["lambda"] == pytest.approx(2.3)


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

    @pytest.mark.parametrize("command", ["fit", "cv"])
    def test_names_the_first_bad_diagram_in_manifest_order(self, many_diagrams, tmp_path,
                                                           capsys, command):
        # the later bad file is in the second, shorter chunk, so it likely fails first
        entries = [{"diagram": str(many_diagrams.parent / e["diagram"]), "label": e["label"]}
                   for e in read_json(many_diagrams)["entries"]]
        (tmp_path / "late.pd.json").write_text("{broken")
        entries[34]["diagram"] = str(tmp_path / "late.pd.json")
        entries[3]["diagram"] = str(tmp_path / "absent.pd.json")
        manifest = _write(tmp_path / "manifest.json", {"entries": entries})
        options = {"fit": ["--label", "alpha", "--out", tmp_path / "m.json"],
                   "cv": ["--k-folds", 2]}[command]
        assert run(command, "--manifest", manifest, *options) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'absent.pd.json'}: no such file\n"

    def test_k_too_large_rejected(self, dataset, capsys):
        for k in (50, 1):  # 1 is too small: every fold trains on nothing
            assert run("cv", "--manifest", dataset / "diagrams" / "manifest.json",
                       "--k-folds", k) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:")

    def test_default_is_ten_folds(self, tmp_path):
        # 10 diagrams a class; the report holds the bytes cv wrote when a manifest could also
        # set the fold count, and an explicit --k-folds 10 writes the same
        for band, seed in (("alpha", 0), ("beta", 1000)):
            assert run("generate", "--band", band, "--n", 10, "--duration", 1.0, "--rate", 128,
                       "--snr", 0, "--seed", seed, "--out", tmp_path / "signals") == 0
        assert run("pd", "--manifest", tmp_path / "signals" / "manifest.json",
                   "--out", tmp_path / "diagrams") == 0
        manifest = tmp_path / "diagrams" / "manifest.json"
        assert run("cv", "--manifest", manifest, "--out", tmp_path / "default.json") == 0
        assert run("cv", "--manifest", manifest, "--k-folds", 10,
                   "--out", tmp_path / "ten.json") == 0
        expected = {"accuracy": 0.7, "config": {"alpha": 0.7, "sigma_obs": 0.2, "threshold_c": 1.0},
                    "confusion": [[7, 3], [3, 7]], "k_folds": 10, "labels": ["alpha", "beta"],
                    "per_fold": [0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 0.5, 1.0, 0.5, 0.5], "seed": 0}
        report = (tmp_path / "default.json").read_bytes()
        assert report == json.dumps(expected, indent=2, sort_keys=True).encode() + b"\n"
        assert report == (tmp_path / "ten.json").read_bytes()

    @pytest.mark.parametrize("command", ["pd", "generate", "fit", "cv"])
    def test_manifest_k_folds_refused(self, cli_files, tmp_path, capsys, command):
        # a manifest's k_folds, once cv's fold count, is refused in either kind of manifest, so
        # an old one cannot silently change a CV from its fold count to --k-folds' default
        kind = "signal" if command in ("pd", "generate") else "diagram"
        listed = read_json(cli_files / f"{kind}s" / "manifest.json")
        for e in listed["entries"]:
            e[kind] = str(cli_files / f"{kind}s" / e[kind])
        manifest = _write(tmp_path / "manifest.json", {**listed, "k_folds": 2})
        text = manifest.read_bytes()
        argv = {"pd": ("pd", "--manifest", manifest, "--out", tmp_path / "pd"),
                "generate": ("generate", "--band", "alpha", "--n", 1, "--rate", 128,
                             "--out", tmp_path),
                "fit": ("fit", "--manifest", manifest, "--label", "alpha",
                        "--out", tmp_path / "m.json"),
                "cv": ("cv", "--manifest", manifest, "--out", tmp_path / "cv.json")}[command]
        assert run(*argv) == 2
        assert capsys.readouterr().err == (f"error: {manifest}: 'k_folds' is no longer read; "
                                           "give cv's fold count as --k-folds\n")
        assert list(tmp_path.iterdir()) == [manifest] and manifest.read_bytes() == text


class TestHeatmap:
    def test_grid_shape_and_peak(self, dataset, tmp_path):
        model_path = tmp_path / "m.json"
        g = GaussianMixtureIntensity.single(2.0, (1.0, 2.0), 0.2)
        model_path.write_text(json.dumps(
            {"label": "x", "lambda": 2.0, "posterior": mixture_to_json(g)}))
        out = tmp_path / "hm"
        assert run("heatmap", "--model", model_path, "--bounds", 0, 0, 3, 4,
                   "--res", 20, 30, "--out", out) == 0
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_intensity_past_the_float_range_is_drawn(self, tmp_path):
        # a log peak of about 713, past log(max float): the run was refused, and before that
        # the grid was scaled by inf / inf to NaN, written, and the run exited 0
        model_path = _write(tmp_path / "m.json", {"label": "x", "lambda": 1e308, "posterior": {
            "components": [{"w": 1e308, "mu": [0.0, 0.0], "var": 0.01}]}})
        out = tmp_path / "hm"
        assert run("heatmap", "--model", model_path, "--bounds", 0, 0, 1, 1, "--res", 2, 2,
                   "--out", out) == 0
        grid = np.loadtxt(out.with_suffix(".csv"), delimiter=",")
        assert grid.shape == (2, 2) and np.all(np.isfinite(grid)) and grid.max() == 1.0

    def test_bad_bounds_exit_one(self, tmp_path):
        model_path = tmp_path / "m.json"
        g = GaussianMixtureIntensity.single(2.0, (1.0, 2.0), 0.2)
        model_path.write_text(json.dumps(
            {"label": "x", "lambda": 2.0, "posterior": mixture_to_json(g)}))
        assert run("heatmap", "--model", model_path, "--bounds", 0, 0, 0, 4,
                   "--res", 8, 8, "--out", tmp_path / "hm") == 1


# spellings of a mixture component; each must decode, or be rejected, as its parsed object does
_COMPONENT_SPELLINGS = {
    "as_written": lambda c: c,
    "keys_in_another_order": lambda c: {"var": c["var"], "w": c["w"], "mu": c["mu"]},
    "an_extra_key": lambda c: {**c, "note": [1, 2]},
    "mu_of_three": lambda c: {**c, "mu": [*c["mu"], 1.0]},
    "mu_of_one": lambda c: {**c, "mu": c["mu"][:1]},
    "mu_a_string": lambda c: {**c, "mu": "ab"},
    "mu_a_longer_string": lambda c: {**c, "mu": "abc"},
    "mu_a_component": lambda c: {**c, "mu": dict(c)},
    "w_a_component": lambda c: {**c, "w": dict(c)},
    "without_mu": lambda c: {"w": c["w"], "var": c["var"]},
    "a_list_of_the_row": lambda c: [c["w"], *c["mu"], c["var"]],  # a row only as a tuple
}


class TestMixtureFiles:
    """Mixture and model files are parsed with component_row, which makes each component object
    a row as it is parsed. A file decodes, or is rejected, as its parsed objects do."""

    @pytest.mark.parametrize("spelling", sorted(_COMPONENT_SPELLINGS))
    def test_components_decode_as_their_objects(self, tmp_path, cli_files, capsys, spelling):
        first, second = {"w": 1.0, "mu": [1.0, 0.5], "var": 0.5}, {"w": 0.5, "mu": [2.0, 0.5],
                                                                     "var": 1.0}
        mixtures = {name: {"components": [spell(first), second]}
                    for name, spell in [("reference", _COMPONENT_SPELLINGS["as_written"]),
                                        ("spelled", _COMPONENT_SPELLINGS[spelling])]}
        try:  # the parsed objects, without an object_hook
            want = mixture_from_json(json.loads(json.dumps(mixtures["spelled"])))
            assert want.weights.tolist() == [1.0, 0.5]
            assert want.means.tolist() == [[1.0, 0.5], [2.0, 0.5]]
        except ValidationError as e:
            want = str(e)
        prior, model, out = tmp_path / "prior.json", tmp_path / "model.json", tmp_path / "out"
        consumers = {
            "fit --prior": (prior, ("fit", "--manifest", cli_files / "diagrams" / "manifest.json",
                                    "--label", "alpha", "--prior", prior, "--out", out)),
            "classify": (model, ("classify", "--models", model, cli_files / "beta.json",
                                 "--diagram", cli_files / "diagrams" / "beta_000.pd.json",
                                 "--out", out)),
            "heatmap": (model, ("heatmap", "--model", model, "--bounds", 0, 0, 3, 3,
                                "--res", 4, 4, "--out", out)),
        }
        for consumer, (path, argv) in consumers.items():
            results = {}
            for name, mixture in mixtures.items():
                _write(prior, mixture)
                _write(model, {"label": "a", "lambda": 1.5, "posterior": mixture})
                code = run(*argv)
                results[name] = (code, capsys.readouterr().err,
                                 [f.read_bytes() for f in sorted(tmp_path.glob("out*"))])
            assert results["reference"][0] == 0, consumer
            if isinstance(want, str):
                assert results["spelled"][:2] == (2, f"error: {path}: {want}\n"), consumer
            else:
                assert results["spelled"] == results["reference"], consumer

    def test_reading_a_model_holds_its_text_and_a_row_per_component(self, tmp_path):
        a = np.random.default_rng(0).uniform(0.1, 2.0, size=(100_000, 4))
        path = tmp_path / "m.json"
        cli._emit_model("m", GaussianMixtureIntensity(a[:, 0], a[:, 1:3], a[:, 3]), path)
        tracemalloc.start()
        try:
            _, g = model_from_arrays(cli._read(path, model_arrays))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.weights.tobytes() == a[:, 0].tobytes()
        # the text, twice while it is decoded, then one tuple of 4 floats per component, 168 B;
        # a dict and a list per component took 3.3 times the file's size
        assert peak < 2.5 * path.stat().st_size, peak / path.stat().st_size


class TestModelFileNames:
    """classify and heatmap name a faulty model file alike, as a Path prints it: classify named
    --models ./bad.json "./bad.json" for a 'lambda' that disagrees with its posterior, and
    "bad.json" for a parse fault, as heatmap named it for both."""

    @pytest.mark.parametrize("text, reason", [
        ("{", "malformed JSON ("),
        ('{"posterior": {"components": []}}',
         "model JSON needs a 'label' string and a 'posterior'"),
        ('{"label": "bad", "lambda": 1.0, "posterior": {"components": []}}',
         "model JSON 'lambda' must equal the posterior's total mass"),
    ])
    def test_classify_and_heatmap_name_it_alike(self, tmp_path, cli_files, capsys, monkeypatch,
                                                text, reason):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text(text)
        errors = []
        for argv in (("classify", "--models", "./bad.json", cli_files / "beta.json",
                      "--diagram", cli_files / "diagrams" / "alpha_000.pd.json"),
                     ("heatmap", "--model", "./bad.json", "--bounds", 0, 0, 3, 4, "--res", 8, 8,
                      "--out", "hm")):
            assert run(*argv) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and errors[0].startswith(f"error: bad.json: {reason}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


class TestClassifyMemory:
    """classify parses each model file in a worker process that never loads scipy, and builds
    and scores the models in its own process one at a time."""

    @staticmethod
    def _model_file(path, label, seed):
        a = np.random.default_rng(seed).uniform(0.1, 2.0, size=(100_000, 4))
        cli._emit_model(label, GaussianMixtureIntensity(a[:, 0], a[:, 1:3], a[:, 3]), path)
        return path

    def test_holds_one_built_model_at_a_time(self, tmp_path, cli_files):
        import scipy.special  # noqa: F401 -- loaded outside the trace, as in any process after it
        models = [self._model_file(tmp_path / f"{label}.json", label, seed)
                  for seed, label in enumerate(("b", "a"))]
        diagram = cli_files / "diagrams" / "alpha_001.pd.json"
        tracemalloc.start()
        try:
            assert run("classify", "--models", *models, "--diagram", diagram,
                       "--out", tmp_path / "report.json") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        d = cli._read(diagram, diagram_from_json)
        scores = {label: diagram_log_density(d, g) for label, g in
                  (model_from_arrays(cli._read(path, model_arrays)) for path in models)}
        report = read_json(tmp_path / "report.json")
        assert (report["label"], report["votes"], report["log_densities"]) == (*classify(scores),
                                                                                scores)
        # the rows of both models, 3.2 MB each, and one model's kernel constants, 4 MB, with a
        # chunk of scores; the parent held both built models and a pickled copy of each: 21.9 MB
        assert peak < 17e6, peak

    def test_a_worker_decodes_a_model_without_scipy(self, tmp_path):
        path = self._model_file(tmp_path / "m.json", "m", 0)
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys; from topobayes import cli; "
                f"obj = cli._read({str(path)!r}, cli.model_arrays); "
                "print(obj['label'], [a.shape for a in obj['posterior']], "
                "'scipy.special' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.stdout == "m [(100000,), (100000, 2), (100000,)] False\n", proc.stderr


def _manifest_ending_in(cli_files, bad):
    """A manifest beside the diagram file bad: four good diagrams of each band, then bad."""
    entries = [{"diagram": str(cli_files / "diagrams" / f"{band}_{i:03d}.pd.json"),
                "label": band} for band in ("alpha", "beta") for i in range(4)]
    return _write(bad.parent / "m.json", {"entries": [
        *entries, {"diagram": bad.name, "label": "alpha"}]})


class TestHugeDiagramPoints:
    """A diagram point whose b^2 + p^2 overflows, with a coordinate above about 1.34e154, scored
    NaN: classify wrote NaN and exited 0. Such a point is an error in the file that holds it."""

    # json reads NaN, Infinity and 1e999 as non-finite floats; each is refused by the same test
    @pytest.mark.parametrize("point", ["1e308, 1e308", "NaN, 1", "Infinity, 1", "0, -1e999"])
    @pytest.mark.parametrize("command", ["classify", "fit", "cv"])
    def test_reading_one_exits_two_naming_the_file(self, tmp_path, cli_files, capfd, command,
                                                    point):
        big = tmp_path / "big.pd.json"
        big.write_text(f'{{"b_min": 0.0, "points": [[{point}]]}}')
        manifest = _manifest_ending_in(cli_files, big)
        argv = {"classify": ("classify", "--models", cli_files / "alpha.json",
                             cli_files / "beta.json", "--diagram", big),
                "fit": ("fit", "--manifest", manifest, "--label", "alpha",
                        "--out", tmp_path / "model.json"),
                "cv": ("cv", "--manifest", manifest, "--k-folds", 2)}[command]
        assert run(*argv) == 2
        out, err = capfd.readouterr()
        assert (out, err) == ("", f"error: {big}: diagram points must be finite, "
                                  "with b^2 + p^2 finite\n")

    def test_pd_names_the_signal_and_lists_the_rest(self, tmp_path, capfd):
        # the tilted point is (0, 2e308): an overflow, which printed two RuntimeWarnings
        big, ok = tmp_path / "big.csv", tmp_path / "ok.csv"
        big.write_text("1e308\n-1e308\n1e308\n")
        ok.write_text("0.5\n-1\n0.25\n1\n-0.5\n")
        assert run("pd", big, ok, "--out", tmp_path / "pd") == 2
        assert capfd.readouterr() == ("", f"error: {big}: diagram points must be finite, "
                                          "with b^2 + p^2 finite\n")
        assert read_json(tmp_path / "pd" / "manifest.json") == {
            "entries": [{"diagram": "ok.pd.json"}]}


class TestInfiniteBMin:
    """A diagram file's "b_min" of 1e999 is read by json as inf, which the diagram refuses."""

    @pytest.mark.parametrize("command", ["fit", "cv"])
    def test_reading_one_exits_two_naming_the_file(self, tmp_path, cli_files, capfd, command):
        bad = tmp_path / "inf.pd.json"
        bad.write_text('{"b_min": 1e999, "points": [[1.0, 2.0]]}')
        manifest = _manifest_ending_in(cli_files, bad)
        argv = {"fit": ("--label", "alpha", "--out", tmp_path / "model.json"),
                "cv": ("--k-folds", 2)}[command]
        assert run(command, "--manifest", manifest, *argv) == 2
        assert capfd.readouterr() == ("", f"error: {bad}: b_min must be finite\n")
        assert not (tmp_path / "model.json").exists()


class TestFarPointScores:
    """A point whose b^2 + p^2 is finite but near the double range overflowed scoring: classify
    warned twice and wrote NaN, which is not strict JSON, or warned and wrote the overflow's
    value; heatmap warned. It scores from each kernel's own form, with nothing on stderr."""

    @pytest.fixture(scope="class")
    def far(self, cli_files, tmp_path_factory):
        """The far diagram, and one model per band fitted with --alpha 1: no prior share."""
        root = tmp_path_factory.mktemp("far")
        for band in ("alpha", "beta"):
            assert run("fit", "--manifest", cli_files / "diagrams" / "manifest.json",
                       "--label", band, "--alpha", 1, "--out", root / f"{band}.json") == 0
        return _write(root / "far.pd.json", {"b_min": 0, "points": [[1.0, 1.3e154]]}), root

    def test_under_models_without_a_prior_share_it_scores_minus_inf(self, far, capfd):
        diagram, models = far
        assert run("classify", "--models", models / "alpha.json", models / "beta.json",
                   "--diagram", diagram) == 0
        out, err = capfd.readouterr()
        assert err == ""
        assert json.loads(out)["log_densities"] == {"alpha": "-inf", "beta": "-inf"}

    def test_the_prior_share_scores_it_finite(self, far, cli_files, capfd):
        # the (1 - alpha) share of the prior, variance 20: -(1.3e154 - 3)^2 / 40
        assert run("classify", "--models", cli_files / "alpha.json", cli_files / "beta.json",
                   "--diagram", far[0]) == 0
        out, err = capfd.readouterr()
        assert err == ""
        assert json.loads(out)["log_densities"] == {
            "alpha": pytest.approx(-4.225e306, rel=1e-12),
            "beta": pytest.approx(-4.225e306, rel=1e-12)}

    def test_heatmap_reaching_it(self, cli_files, tmp_path, capfd):
        assert run("heatmap", "--model", cli_files / "alpha.json", "--bounds", 0, 0, 3, 1.3e154,
                   "--res", 8, 8, "--out", tmp_path / "hm") == 0
        assert capfd.readouterr() == ("", "")
        grid = np.loadtxt(tmp_path / "hm.csv", delimiter=",")
        assert grid.max() == 1.0 and np.all(grid[:, 1:] == 0.0)


class TestUpdateOverflow:
    """A prior variance of 1e10 with --sigma-obs 1e300 overflowed the update: fit warned and wrote
    a model of the (1 - alpha) prior share alone. It is one error line, and no model."""

    @pytest.mark.parametrize("command", ["fit", "cv"])
    def test_exits_one_with_one_error_line(self, cli_files, tmp_path, capfd, command):
        prior = _write(tmp_path / "prior.json",
                       {"components": [{"w": 1.0, "mu": [3.0, 3.0], "var": 1e10}]})
        manifest = cli_files / "diagrams" / "manifest.json"
        argv = {"fit": ("fit", "--manifest", manifest, "--label", "alpha", "--out",
                        tmp_path / "model.json"),
                "cv": ("cv", "--manifest", manifest, "--k-folds", 2)}[command]
        assert run(*argv, "--prior", prior, "--sigma-obs", 1e300) == 1
        out, err = capfd.readouterr()
        assert (out, err) == ("", "error: sigma_obs, prior and points overflow the update's "
                                  "products\n")
        assert not (tmp_path / "model.json").exists()

    def test_a_pair_too_far_for_its_squared_distance_fits_quietly(self, tmp_path, capfd):
        # the squared distance of the prior mean and the point overflowed: fit warned on stderr
        prior = _write(tmp_path / "prior.json",
                       {"components": [{"w": 1.0, "mu": [1.3e154, 0.0], "var": 1.0}]})
        _write(tmp_path / "d.pd.json", {"b_min": 0.0, "points": [[0.0, 1.3e154]]})
        manifest = _write(tmp_path / "manifest.json",
                          {"entries": [{"diagram": "d.pd.json", "label": "x"}]})
        assert run("fit", "--manifest", manifest, "--label", "x", "--prior", prior,
                   "--out", tmp_path / "model.json") == 0
        assert capfd.readouterr() == ("", "")
        _, g = model_from_arrays(model_arrays(json.loads((tmp_path / "model.json").read_text())))
        assert np.all(np.isfinite(g.weights))


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


def _model_label_not_a_string(d, files):
    model = _write(d / "m.json", {"label": 5, "lambda": 0.0, "posterior": {"components": []}})
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


def _model_lambda_too_large_for_a_float(command):
    def make(d, files):
        model = d / "m.json"
        model.write_text('{"label": "x", "lambda": 1' + "0" * 400 + ', "posterior": '
                         '{"components": [{"w": 1.0, "mu": [1.0, 1.0], "var": 1.0}]}}')
        argv = {"classify": ("classify", "--models", model, files / "beta.json",
                             "--diagram", files / "diagrams" / "beta_000.pd.json"),
                "heatmap": ("heatmap", "--model", model, "--bounds", 0, 0, 3, 4, "--res", 8, 8,
                            "--out", d / "hm")}[command]
        return argv, 2, model
    return _named(f"model_lambda_too_large_for_a_float_{command}", make)


def _classify_one_missing_model(d, files):
    # one model cannot be voted on: refused before any file is read, so the missing one is
    # not named; it was, with exit 2, after every file was parsed and the model built
    return ("classify", "--models", d / "missing.json",
            "--diagram", files / "diagrams" / "beta_000.pd.json"), 1, None


def _classify_one_model_file_twice(d, files):
    # one label twice: the second build is refused before it is scored
    return ("classify", "--models", files / "alpha.json", files / "alpha.json",
            "--diagram", files / "diagrams" / "beta_000.pd.json"), 1, None


def _classify_bad_threshold_and_a_bad_model(d, files):
    # the model's lambda disagrees with its posterior, which only building it shows: the
    # threshold is refused first, before any model is built
    model = _write(d / "m.json", {"label": "x", "lambda": 3.0, "posterior": {
        "components": [{"w": 1.0, "mu": [1.0, 1.0], "var": 1.0}]}})
    return ("classify", "--models", model, files / "beta.json", "--threshold", "0",
            "--diagram", files / "diagrams" / "beta_000.pd.json"), 1, None


def _pd_inputs_sharing_an_output_name(name, *paths):
    """pd over copies of a good CSV signal at paths, which share a stem: nothing may be written."""
    def make(d, files):
        for p in paths:
            (d / p).parent.mkdir(parents=True, exist_ok=True)
            (d / p).write_text((files / "signals" / "alpha_000.csv").read_text())
        return ("pd", *(d / p for p in paths), "--out", d / "pd"), 1, None
    return _named(name, make)


def _signal_not_utf8(d, files):
    signal = d / "s.csv"
    signal.write_bytes(b"\xff\xfe0\n1\n")
    return ("pd", signal, "--out", d / "pd"), 2, signal


def _signal_nested_too_deep(d, files):
    signal = d / "s.json"
    signal.write_text("[" * 100_000 + "]" * 100_000)
    return ("pd", signal, "--out", d / "pd"), 2, signal


def _out_is_an_input(name, command, flag, *paths, out=None):
    """command on a copy of the module-wide inputs, with flag given paths and --out the first of
    them (or out, another name of that file): a run that went ahead would replace the copy."""
    def make(d, files):
        root = d / "files"
        shutil.copytree(files, root)
        for mixture in ("prior.json", "clutter.json"):
            _write(root / mixture, {"components": [{"w": 1, "mu": [3, 3], "var": 1}]})
        return (*_base_argv(command, root, d), flag, *(root / p for p in paths),
                "--out", root / (out or paths[0])), 1, None
    return _named(name, make)


def _pipeline_mixture_in_its_out(name, flag, where, link=None):
    """pipeline with flag's mixture file at where, and a link to it at link if given. generate and
    pd may write any file in run/signals/ and run/diagrams/, its --out's two directories, so a
    file there, or the target of a link there, is refused before anything is written."""
    def make(d, files):
        for path in filter(None, (where, link)):
            (d / path).parent.mkdir(parents=True, exist_ok=True)
        mixture = _write(d / where, {"components": [{"w": 1, "mu": [3, 3], "var": 1}]})
        if link:
            (d / link).symlink_to(mixture)
        return (*_base_argv("pipeline", files, d), flag, mixture), 1, None
    return _named(name, make)


def _out_is_its_malformed_manifest(command):
    """fit, cv or pd with an --out that writes over its own manifest, which is malformed: the one
    check of --out comes once the manifest is parsed, so the file's fault is reported (exit 2)."""
    def make(d, files):
        manifest = _write(d / "manifest.json", {"entries": "none"})
        argv = {"fit": ("fit", "--manifest", manifest, "--label", "alpha", "--out", manifest),
                "cv": ("cv", "--manifest", manifest, "--out", manifest),
                "pd": ("pd", "--manifest", manifest, "--out", d)}[command]
        return argv, 2, manifest
    return _named(f"{command}_out_is_its_malformed_manifest", make)


def _pd_out_is_its_signal(d, files):
    signal = _write(d / "manifest.json", {"rate": 100, "samples": [0, 1, 0, 2, 0]})
    return ("pd", signal, "--out", d), 1, None


def _pd_out_is_a_listed_signal(d, files):
    _write(d / "manifest.json", {"rate": 100, "samples": [0, 1, 0, 2, 0]})
    signals = _write(d / "signals.json", {"entries": [{"signal": "manifest.json"}]})
    return ("pd", "--manifest", signals, "--out", d), 1, None


def _pd_diagram_over_its_signal(d, files):
    # x.csv's diagram is x.pd.json, a signal it was also given: the stems x and x.pd differ
    (d / "x.csv").write_text("0\n1\n0\n")
    signal = _write(d / "x.pd.json", {"rate": 100, "samples": [0, 1, 0, 2, 0]})
    return ("pd", d / "x.csv", signal, "--out", d), 1, None


def _named(name, make):
    make.__name__ = f"_{name}"
    return make


# the keys of a mixture component, which every parse makes a (w, b, p, v) row
_COMPONENT = {"mu": [1.0, 1.0], "var": 0.5, "w": 1.0}


def _manifest_entry_a_component(command):
    """A manifest whose one entry has exactly a component's keys."""
    def make(d, files):
        manifest = _write(d / "m.json", {"rate": 128, "entries": [_COMPONENT]})
        argv = {"pd": ("pd", "--manifest", manifest, "--out", d / "pd"),
                "fit": ("fit", "--manifest", manifest, "--label", "alpha", "--out", d / "m"),
                "cv": ("cv", "--manifest", manifest)}[command]
        return argv, 2, manifest
    return _named(f"manifest_entry_a_component_{command}", make)


def _diagram_a_component(name, obj, command="classify"):
    """classify, or fit over a manifest listing it, of the diagram file holding obj."""
    def make(d, files):
        diagram = _write(d / "d.json", obj)
        manifest = _write(d / "m.json", {"entries": [{"diagram": "d.json", "label": "a"}]})
        argv = {"classify": ("classify", "--models", files / "alpha.json", files / "beta.json",
                             "--diagram", diagram),
                "fit": ("fit", "--manifest", manifest, "--label", "a", "--out", d / "m")}[command]
        return argv, 2, diagram
    return _named(f"{name}_{command}", make)


def _signal_manifest(name, **fields):
    """pd over a signal manifest of one good CSV signal, with the given top-level fields."""
    def make(d, files):
        entry = {"signal": str(files / "signals" / "alpha_000.csv"), "label": "alpha"}
        manifest = _write(d / "m.json", {"entries": [entry], **fields})
        return ("pd", "--manifest", manifest, "--out", d / "pd"), 2, manifest
    return _named(name, make)


def _diagram_manifest(name, command, extra_entry=None, **fields):
    """fit --label alpha or cv --k-folds 2 over a diagram manifest of the good diagrams plus
    extra_entry."""
    def make(d, files):
        entries = read_json(files / "diagrams" / "manifest.json")["entries"]
        for e in entries:
            e["diagram"] = str(files / "diagrams" / e["diagram"])
        if extra_entry is not None:
            entries.append({"diagram": entries[0]["diagram"], **extra_entry})
        manifest = _write(d / "m.json", {"entries": entries, **fields})
        argv = {"fit": ("fit", "--manifest", manifest, "--label", "alpha", "--out", d / "m"),
                "cv": ("cv", "--manifest", manifest, "--k-folds", 2)}[command]
        return argv, 2, manifest
    return _named(f"{name}_{command}", make)


def _signal_json(name, text):
    """pd over one JSON signal file holding text."""
    def make(d, files):
        signal = d / "s.json"
        signal.write_text(text)
        return ("pd", signal, "--out", d / "pd"), 2, signal
    return _named(name, make)


# the JSON text of each sample rate that a file may not hold, by name
_BAD_RATES = {"a_bool": "true", "a_string": '"128"', "null": "null", "a_list": "[1]",
              "nan": "NaN", "zero": "0", "negative": "-1", "infinite": "1e999"}


def _bad_rate(name, text):
    """The reads of a file's sample rate, each of a file whose "rate" is the JSON text: pd of a
    JSON signal, and pd and a merging generate of a signal manifest."""
    def signal_manifest(command):
        def make(d, files):
            entry = {"signal": str(files / "signals" / "alpha_000.csv"), "label": "alpha"}
            manifest = d / "manifest.json"
            manifest.write_text(f'{{"rate": {text}, "entries": [{json.dumps(entry)}]}}')
            argv = {"pd": ("pd", "--manifest", manifest, "--out", d / "pd"),
                    "generate": ("generate", "--band", "alpha", "--n", 1, "--out", d)}[command]
            return argv, 2, manifest
        return _named(f"signal_manifest_rate_{name}_{command}", make)
    return [_signal_json(f"signal_json_rate_{name}", f'{{"rate": {text}, "samples": [0, 1]}}'),
            signal_manifest("pd"), signal_manifest("generate")]


def _cv_one_fold(d, files):
    # every fold would train on nothing; an --out among the module-wide inputs, which a refused
    # run adds no file to, shows that no report is written
    return ("cv", "--manifest", files / "diagrams" / "manifest.json", "--k-folds", 1,
            "--out", files / "k1.json"), 1, None


def _heatmap_numbers_in_one_token(d, files):
    # --bounds takes four values and --res two, so the one-token forms 0,0,3,4 and 8x8 are
    # refused; an --out among the module-wide inputs shows that nothing is written
    return ("heatmap", "--model", files / "alpha.json", "--bounds", "0,0,3,4", "--res", "8x8",
            "--out", files / "hm"), 1, None


def _bad_flag(command, *flag):
    """A run that would succeed but for one appended flag, given as its argv tokens, that must be
    rejected; {d} in a token is the case's directory, and {files} that of the module-wide inputs."""
    def make(d, files):
        tokens = (t.format(d=d, files=files) for t in flag)
        return (*_base_argv(command, files, d), *tokens), 1, None
    make.__name__ = f"_{command}{' '.join(flag)}"
    return make


# flag -> strategy for the value text of each numeric option of each subcommand: the
# non-finite, zero and negative edge cases, sizes past what numpy or Python can index, or a
# small finite number
_EDGES = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e20", "1e308", str(10 ** 20)])
_REAL = _EDGES | st.floats(-4.0, 4.0).map(repr)
# --n and --res are small or rejected before any work: a run must stay cheap
_INT = _EDGES | st.integers(0, 64).map(str)
_POSTERIOR = {"--alpha": _REAL, "--sigma-obs": _REAL}
_CV = {"--k-folds": _INT, "--threshold": _REAL, "--seed": _INT}
_SAMPLING = {"--duration": _REAL, "--rate": _REAL, "--snr": _REAL, "--seed": _INT, "--n": _INT}
_NUMERIC_FLAGS = {
    "generate": _SAMPLING,
    "pd": {},
    "fit": _POSTERIOR,
    "classify": {"--threshold": _REAL},
    "cv": {**_POSTERIOR, **_CV},
    "heatmap": {"--bounds": st.lists(_REAL, min_size=4, max_size=4),
                "--res": st.lists(_INT, min_size=2, max_size=2)},
    "pipeline": {**_SAMPLING, **_POSTERIOR, **_CV},
}


def _write_mutation_inputs(d):
    """Small valid files of every kind the CLI reads, in d; kind -> (file, {consumer: argv})."""
    component = {"w": 1.0, "mu": [1.0, 1.0], "var": 0.5}
    mixture = {"components": [component, {"w": 0.5, "mu": [2.0, 0.5], "var": 1.0}]}
    for i in range(1, 5):
        _write(d / f"d{i}.pd.json", {"b_min": -1.0, "points": [[0.5, i], [1.0, 0.25]]})
    (d / "s.csv").write_text("amplitude\n0.5\n-1.0\n0.25\n1.0\n-0.5\n")
    files = {
        "signal_manifest": _write(d / "manifest.json", {
            "rate": 128, "entries": [{"signal": "s.csv", "label": "alpha"}]}),
        "signal_csv": d / "s.csv",
        "signal_json": _write(d / "s.json", {"rate": 128, "samples": [0.5, -1.0, 0.25, 1.0]}),
        "diagram_manifest": _write(d / "diagrams.json", {"entries": [
            {"diagram": f"d{i}.pd.json", "label": label} for i, label in enumerate("aabb", 1)]}),
        "diagram": d / "d1.pd.json",
        "mixture": _write(d / "mixture.json", mixture),
        "model": _write(d / "a.json", {"label": "a", "lambda": 1.5, "posterior": mixture}),
    }
    _write(d / "b.json", {"label": "b", "lambda": 1.0, "posterior": {"components": [
        {"w": 1.0, "mu": [0.5, 2.0], "var": 0.5}]}})
    fit = ("fit", "--manifest", files["diagram_manifest"], "--label", "a", "--out", d / "m.json")
    classify = ("classify", "--models", files["model"], d / "b.json", "--diagram", files["diagram"])
    consumers = {
        "signal_manifest": {
            "pd": ("pd", "--manifest", files["signal_manifest"], "--out", d / "pd"),
            "generate": ("generate", "--band", "alpha", "--n", 1, "--duration", 0.25,
                         "--rate", 128, "--out", d)},
        "signal_csv": {"pd": ("pd", files["signal_csv"], "--out", d / "pd")},
        "signal_json": {"pd": ("pd", files["signal_json"], "--out", d / "pd")},
        "diagram_manifest": {"fit": fit, "cv": ("cv", "--manifest", files["diagram_manifest"],
                                                "--k-folds", 2)},
        "diagram": {"classify": classify, "fit": fit},
        "mixture": {"fit --prior": (*fit, "--prior", files["mixture"]),
                    "fit --clutter": (*fit, "--clutter", files["mixture"])},
        "model": {"classify": classify,
                  "heatmap": ("heatmap", "--model", files["model"], "--bounds", 0, 0, 3, 3,
                              "--res", 4, 4, "--out", d / "hm")},
    }
    return {kind: (files[kind], consumers[kind]) for kind in files}


_MUTATION_KINDS = ["diagram", "diagram_manifest", "mixture", "model", "signal_csv", "signal_json",
                   "signal_manifest"]  # the keys of _write_mutation_inputs
_SWAPS = [None, True, "x", 0.5, [], {}]
# integers no float holds; past 4300 digits Python will not even convert one from text
_HUGE = ["1" + "0" * 400, "-1" + "0" * 400, "1" + "0" * 5000]
_DEEP = "[" * 100_000 + "]" * 100_000  # deeper than any JSON parser recurses
_MARK = "\x00raw\x00"  # stands for raw JSON text that json.dumps cannot write


def _json_type(value):
    return {bool: "bool", int: "number", float: "number"}.get(type(value), type(value).__name__)


def _value_paths(obj, path=()):
    """The path, as keys and indices, of every value in the JSON tree obj, obj's own included."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _value_paths(value, (*path, key))


def _json_mutations(value, path):
    """The mutation kinds that apply to value at path in a JSON file."""
    kinds = ["swap", "huge", "deep", "shape"] + (["drop"] if path else [])
    if _json_type(value) == "number":
        kinds.append("string")
        if path[:1] == ("points",):
            kinds.append("wedge")
    return kinds


def _mutate_json(text, data):
    """text with one value mutated, as drawn from data; (new text, mutation)."""
    obj = json.loads(text)
    path = data.draw(st.sampled_from(list(_value_paths(obj))), label="path")
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]] if path else obj
    kind = data.draw(st.sampled_from(_json_mutations(value, path)), label="mutation")
    raw = data.draw(st.sampled_from(_HUGE), label="huge") if kind == "huge" else _DEEP
    new = {
        "swap": lambda: data.draw(st.sampled_from(
            [s for s in _SWAPS if _json_type(s) != _json_type(value)]), label="swap to"),
        "huge": lambda: _MARK,
        "deep": lambda: _MARK,
        "shape": lambda: [value],  # one level of nesting too many
        "string": lambda: repr(value),  # the number written as a string
        "wedge": lambda: -1.0 - abs(value),  # a point below the wedge b, p >= 0
        "drop": lambda: None,
    }[kind]()
    if kind == "drop":
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = new
    else:
        obj = new
    return json.dumps(obj).replace(json.dumps(_MARK), raw), kind


def _mutate_csv(text, data):
    """text with one line dropped, or one data line (not the header) replaced; as _mutate_json."""
    lines = text.splitlines()
    kind = data.draw(st.sampled_from(["drop", "swap", "string", "huge", "deep", "shape"]),
                     label="mutation")
    i = data.draw(st.integers(0 if kind == "drop" else 1, len(lines) - 1), label="line")
    lines[i:i + 1] = {
        "drop": [],
        "swap": [data.draw(st.sampled_from(["x", "true", "null", "[]", "{}"]), label="swap to")],
        "string": [f'"{lines[i]}"'],
        "huge": [data.draw(st.sampled_from(_HUGE), label="huge")],
        "deep": [_DEEP],
        "shape": [f"{lines[i]},{lines[i]}"],
    }[kind]
    return "".join(line + "\n" for line in lines), kind


class TestParser:
    """The parser sets no defaults: a command's own signature gives every option left out."""

    @pytest.mark.parametrize("argv, given", [
        ("generate --band alpha --n 1 --out o", "band n out"),
        ("pd --out o", "out"),
        ("pd a.csv b.csv --out o", "inputs out"),
        ("fit --manifest m --label a --out o", "manifest label out"),
        ("classify --models a b --diagram d", "models diagram"),
        ("cv --manifest m", "manifest"),
        ("cv --manifest m --seed 3", "manifest seed"),  # an option that has a default
        ("heatmap --model m --bounds 0 0 1 1 --res 2 2 --out o", "model bounds res out"),
        ("pipeline --out o", "out"),
    ])
    def test_namespace_holds_only_the_given_options(self, argv, given):
        options = vars(cli.build_parser().parse_args(argv.split()))
        assert set(options) == {*given.split(), "command", "func"}

    def test_every_option_is_a_parameter_of_its_command(self):
        # argparse derives each option's name from its flag; pipeline passes cv's on, all but
        # the manifest it writes itself
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        for command, parser in subparsers.choices.items():
            func = parser.get_default("func")
            params = set(inspect.signature(func).parameters)
            if func is cli.pipeline:
                params |= set(inspect.signature(cli.cv).parameters) - {"manifest"}
                params.remove("options")
            options = {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}
            assert options == params, (command, options ^ params)

    @pytest.mark.parametrize("command", ["generate", "pd", "fit", "classify", "cv", "heatmap",
                                         "pipeline"])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: topobayes {command} ")

    @pytest.mark.parametrize("commands, options", [
        (("generate", "pipeline"), ("duration", "rate", "seed")),
        (("fit", "cv"), ("alpha", "sigma_obs", "prior", "clutter")),
        (("classify", "cv"), ("threshold",)),
        (("cv", "pipeline"), ("seed",)),  # pipeline passes cv's other options on
    ])
    def test_commands_sharing_an_option_default_it_alike(self, commands, options):
        for option in options:
            defaults = {inspect.signature(getattr(cli, c)).parameters[option].default
                        for c in commands}
            assert len(defaults) == 1, (option, commands, defaults)


class TestExitCodes:
    @pytest.mark.parametrize("make_case", [
        _list_manifest, _non_object_manifest_entry, _components_not_a_list, _lambda_not_a_number,
        _model_without_label, _model_label_not_a_string, _model_nested_too_deep,
        _signal_not_utf8, _signal_nested_too_deep,
        _prior_component_overflows, _model_component_overflows,
        _model_weight_too_large_for_a_float,
        _signal_manifest("signal_manifest_rate_not_a_number", rate="abc"),
        _signal_manifest("signal_manifest_rate_in_a_list", rate=[1]),
        _signal_manifest("signal_manifest_rate_too_large_for_a_float", rate=10**400),
        _signal_manifest("signal_manifest_rate_negative", rate=-1),
        _signal_manifest("signal_manifest_signal_not_a_string", rate=128, entries=[{"signal": 5}]),
        _signal_manifest("signal_manifest_signal_null", rate=128, entries=[{"signal": None}]),
        _diagram_manifest("diagram_not_a_string", "fit", {"diagram": 5, "label": "beta"}),
        _diagram_manifest("diagram_not_a_string", "cv", {"diagram": 5, "label": "alpha"}),
        _diagram_manifest("label_not_a_string", "fit", {"label": 0}),
        _diagram_manifest("label_not_a_string", "cv", {"label": 0}),
        _diagram_manifest("k_folds_a_string", "cv", k_folds="3"),
        _diagram_manifest("k_folds_a_bool", "cv", k_folds=True),
        _diagram_manifest("k_folds_one", "cv", k_folds=1),
        _diagram_manifest("k_folds_zero", "cv", k_folds=0),
        # a valid fold count too: cv's one source of it is --k-folds, so a manifest may not set it
        _diagram_manifest("k_folds_two", "cv", k_folds=2),
        _diagram_manifest("k_folds_two", "fit", k_folds=2),
        _diagram_manifest("entry_without_label", "cv", {}),
        # every manifest's optional fields are checked, whichever command reads it
        _signal_manifest("signal_manifest_k_folds_not_an_integer", rate=128, k_folds="x"),
        _signal_manifest("signal_manifest_k_folds_two", rate=128, k_folds=2),
        _diagram_manifest("diagram_manifest_rate_negative", "fit", rate=-1),
        _signal_json("signal_json_samples_a_string", '{"rate": 100, "samples": "12"}'),
        _signal_json("signal_json_sample_too_large_for_a_float",
                     '{"rate": 100, "samples": [0, 1' + "0" * 400 + ']}'),
        _signal_json("signal_json_rate_too_large_for_a_float",
                     '{"rate": 1' + "0" * 400 + ', "samples": [0, 1]}'),
        _signal_json("signal_json_malformed", "{not json"),
        _signal_json("signal_json_integer_past_the_digit_limit",
                     '{"rate": 1' + "0" * 5000 + ', "samples": [0, 1]}'),
        *[case for name, text in _BAD_RATES.items() for case in _bad_rate(name, text)],
        _model_lambda_too_large_for_a_float("classify"),
        _model_lambda_too_large_for_a_float("heatmap"),
        _classify_one_missing_model, _classify_one_model_file_twice, _classify_bad_threshold_and_a_bad_model,
        _cv_one_fold, _heatmap_numbers_in_one_token,
        _signal_manifest("signal_manifest_lists_one_signal_twice", rate=128,
                         entries=[{"signal": "x.csv"}, {"signal": "x.csv", "label": "b"}]),
        # every JSON file is parsed with component_row: a component's keys elsewhere are malformed
        _manifest_entry_a_component("pd"), _manifest_entry_a_component("fit"),
        _manifest_entry_a_component("cv"),
        _diagram_a_component("diagram_a_component", _COMPONENT),
        _diagram_a_component("diagram_a_component", _COMPONENT, "fit"),
        _diagram_a_component("diagram_point_a_component", {"points": [
            [1.0, 1.0], {"mu": [], "var": 2.0, "w": 1.0}]}),  # a row would be (1, 2)
        _diagram_a_component("diagram_points_a_component", {"points": {
            "mu": [[1.0, 2.0], [3.0, 4.0]], "var": [5.0, 6.0], "w": [7.0, 8.0]}}),
        _signal_json("signal_json_samples_a_component",
                     '{"rate": 100, "samples": {"mu": [1, 2], "var": 3, "w": 0}}'),
        _pd_inputs_sharing_an_output_name("pd_same_stem_in_two_directories", "a/x.csv", "b/x.csv"),
        _pd_inputs_sharing_an_output_name("pd_same_stem_csv_and_json", "x.csv", "x.json"),
        _pd_inputs_sharing_an_output_name("pd_same_file_twice", "x.csv", "x.csv"),
        # pd has no --rate: a diagram depends on the samples alone
        _bad_flag("pd", "--rate=0"), _bad_flag("pd", "--rate=nan"),
        _bad_flag("generate", "--duration=inf"), _bad_flag("generate", "--duration=nan"),
        # numpy refuses the 1.8 PiB sample array at once, without trying to allocate it
        _bad_flag("generate", "--duration=1e12"),
        _bad_flag("generate", "--rate=inf"), _bad_flag("generate", "--rate=nan"),
        _bad_flag("generate", "--snr=-inf"), _bad_flag("generate", "--seed=-1"),
        _bad_flag("fit", "--sigma-obs=inf"),
        _bad_flag("classify", "--threshold=nan"), _bad_flag("classify", "--threshold=inf"),
        _bad_flag("heatmap", "--bounds", "0", "0", "inf", "3"), _bad_flag("cv", "--seed=-1"),
        # an --out with no last path component to put .json and .csv on
        _bad_flag("heatmap", "--out=/"), _bad_flag("heatmap", "--out="),
        # nor with a last component "..", which would make the names "...json" and "...csv"
        _bad_flag("heatmap", "--out={d}/.."), _bad_flag("heatmap", "--out={d}/sub/.."),
        # nor one whose .json sidecar is the --model itself, {files}/alpha.json
        _bad_flag("heatmap", "--out={files}/alpha.heat"),
        _bad_flag("heatmap", "--out={files}/alpha"),
        # nor an --out of fit, classify or cv that is one of its own inputs
        _out_is_an_input("fit_out_is_its_manifest", "fit", "--manifest", "diagrams/manifest.json"),
        _out_is_an_input("fit_out_is_its_prior", "fit", "--prior", "prior.json"),
        _out_is_an_input("fit_out_is_its_clutter", "fit", "--clutter", "clutter.json"),
        # a diagram of another label, which fit does not read, is still one its manifest lists
        _out_is_an_input("fit_out_is_a_listed_diagram", "fit", "--manifest",
                         "diagrams/manifest.json", out="diagrams/beta_000.pd.json"),
        _out_is_an_input("classify_out_is_one_of_its_models", "classify", "--models",
                         "alpha.json", "beta.json"),
        _out_is_an_input("classify_out_is_its_diagram", "classify", "--diagram",
                         "diagrams/alpha_000.pd.json"),
        _out_is_an_input("cv_out_is_its_manifest", "cv", "--manifest", "diagrams/manifest.json"),
        _out_is_an_input("cv_out_is_its_manifest_by_another_name", "cv", "--manifest",
                         "diagrams/manifest.json", out="signals/../diagrams/manifest.json"),
        _out_is_an_input("cv_out_is_its_prior", "cv", "--prior", "prior.json"),
        _out_is_an_input("cv_out_is_its_clutter", "cv", "--clutter", "clutter.json"),
        _out_is_an_input("cv_out_is_a_listed_diagram", "cv", "--manifest",
                         "diagrams/manifest.json", out="diagrams/alpha_001.pd.json"),
        # nor a pipeline --out whose signals/ or diagrams/ holds its --prior or --clutter, or a
        # link to it: pd would write a diagram over the first and third, and the second is
        # refused with its directory
        _pipeline_mixture_in_its_out("pipeline_prior_is_a_diagram_it_writes", "--prior",
                                     "run/diagrams/alpha_000.pd.json"),
        _pipeline_mixture_in_its_out("pipeline_clutter_in_its_signals", "--clutter",
                                     "run/signals/clutter.json"),
        _pipeline_mixture_in_its_out("pipeline_prior_linked_from_a_diagram_it_writes", "--prior",
                                     "prior.json", link="run/diagrams/alpha_000.pd.json"),
        # nor a pd --out whose manifest.json or diagram is a signal file it was given or listed
        _pd_out_is_its_signal, _pd_out_is_a_listed_signal, _pd_diagram_over_its_signal,
        # but a manifest is parsed first, so a malformed one is reported even when --out names it
        _out_is_its_malformed_manifest("fit"), _out_is_its_malformed_manifest("cv"),
        _out_is_its_malformed_manifest("pd"),
        # sizes numpy or Python cannot index, rejected before any array is made
        _bad_flag("generate", "--rate=1e308"), _bad_flag("generate", "--duration=1e20"),
        _bad_flag("generate", "--n=100000000000000000000"),
        _bad_flag("heatmap", "--res", "10000000000000000000", "2"),
        # finite values whose squares or products overflow
        _bad_flag("heatmap", "--bounds", "0", "0", "3", "1e308"),
        _bad_flag("fit", "--sigma-obs=1e308"),
    ], ids=lambda f: f.__name__.lstrip("_"))
    def test_malformed_input_gives_one_error_line(self, tmp_path, capsys, cli_files, make_case):
        argv, code, bad_file = make_case(tmp_path, cli_files)
        inputs = {p: p.read_bytes() for p in cli_files.rglob("*") if p.is_file()}
        own = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        made = sorted(tmp_path.rglob("*"))
        assert run(*argv) == code
        if code == 1:  # a refusal writes nothing, not even a directory
            assert sorted(tmp_path.rglob("*")) == made
        # a refused run changes none of the module-wide inputs, such as the model it was given,
        # and adds no file among them
        assert {p: p.read_bytes() for p in cli_files.rglob("*") if p.is_file()} == inputs
        # nor does it change any file its case made
        assert {p: p.read_bytes() for p in own} == own
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
            if value is not None:  # a list is the values of one option of several
                flags += [flag, *value] if isinstance(value, list) else [f"{flag}={value}"]
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
            code = run(*_base_argv(command, cli_files, Path(tmp)), *flags)
        event(f"{command}: exit {code}")  # shown by --hypothesis-show-statistics
        assert code in (0, 1, 2)
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()

    @pytest.mark.parametrize("kind", _MUTATION_KINDS)
    def test_unmutated_files_succeed(self, tmp_path, capsys, kind):
        # each mutation below is then the only fault in its run
        _, consumers = _write_mutation_inputs(tmp_path)[kind]
        for argv in consumers.values():
            assert run(*argv) == 0, (argv, capsys.readouterr().err)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning is one more stderr line
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_files_exit_cleanly(self, data):
        kind = data.draw(st.sampled_from(_MUTATION_KINDS), label="file")
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path, consumers = _write_mutation_inputs(Path(tmp))[kind]
            consumer = data.draw(st.sampled_from(sorted(consumers)), label="command")
            mutate = _mutate_csv if path.suffix == ".csv" else _mutate_json
            text, mutation = mutate(path.read_text(), data)
            path.write_text(text)
            with redirect_stdout(out), redirect_stderr(err):
                code = run(*consumers[consumer])
        event(f"{kind} {mutation} via {consumer}: exit {code}")
        assert code in (0, 1, 2)
        # every mutation makes a file no reader may accept, but for a dropped key, line or element
        assert code or mutation == "drop", text[:300]
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()
        if code == 2:
            assert str(path) in lines[0], lines[0]


class TestEntrypoint:
    """`python -m topobayes.cli`, which exits with main's return code as the installed script
    does."""

    def _run(self, *argv, flags=(), **env):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
        return subprocess.run([sys.executable, *flags, "-m", "topobayes.cli", *map(str, argv)],
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

    def test_help_lists_each_command_docstring_summary(self):
        # wide enough that argparse wraps no summary, which it may do at a hyphen
        proc = self._run("--help", COLUMNS="1000")
        assert proc.returncode == 0
        for func in cli._COMMANDS:
            summary = func.__doc__.partition("\n")[0]
            assert func.__name__ in proc.stdout and summary in proc.stdout, func.__name__

    def test_runs_with_docstrings_stripped(self, tmp_path):
        # python -OO strips every docstring to None, the help texts' source
        for argv in (["--help"], ["generate", "--help"]):
            proc = self._run(*argv, flags=["-OO"])
            assert (proc.returncode, proc.stderr) == (0, ""), argv
        for flags in ((), ("-OO",)):
            out = tmp_path / "-".join(("run", *flags))
            proc = self._run("pipeline", "--n", 6, "--k-folds", 3, "--out", out, flags=flags)
            assert (proc.returncode, proc.stderr) == (0, ""), flags
        files = [{p.relative_to(top): p.read_bytes() for p in top.rglob("*") if p.is_file()}
                 for top in (tmp_path / "run", tmp_path / "run--OO")]
        # 12 signals and 12 diagrams, each set with its manifest, and the report
        assert len(files[0]) == 27 and files[0] == files[1]

    def test_import_does_not_load_scipy_special(self):
        src = Path(__file__).resolve().parent.parent / "src"
        for module, absent in (
            # scipy.special is most of the import's time and memory; generate and pd never need
            # it. Nor do the commands without workers need the process pool, or cv's thread pool.
            ("topobayes.cli", ("scipy.special", "multiprocessing", "concurrent.futures")),
            # the library reads no files: the file formats, and argparse, are the CLI's alone
            ("topobayes", ("topobayes.cli", "argparse")),
        ):
            code = f"import sys, {module}; print([m for m in {absent!r} if m in sys.modules])"
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
            assert proc.returncode == 0 and proc.stdout == "[]\n", module + proc.stderr


class TestPipeline:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("pipeline", "--n", 6, "--k-folds", 3, "--snr", 10,
                   "--seed", 3, "--out", out) == 0
        assert "cv accuracy:" in capsys.readouterr().out
        report = read_json(out / "cv_report.json")
        assert report["k_folds"] == 3
        assert report["labels"] == ["alpha", "beta"]

    @pytest.mark.parametrize("flag, value, code", [
        ("--prior", "nope.json", 2), ("--clutter", "clutter.json", 2), ("--alpha", "2", 1),
        ("--sigma-obs", "0", 1), ("--threshold", "0", 1),
        # the base runs' --n 4, and cli_files' 4 diagrams a band, are fewer than 5 folds
        ("--k-folds", "1", 1), ("--k-folds", "5", 1)])
    def test_cv_settings_refused_before_anything_is_written(self, cli_files, tmp_path, capsys,
                                                            flag, value, code):
        # clutter.json holds a weight of -1; each refusal is the one cv makes of the same setting
        _write(tmp_path / "clutter.json", {"components": [{"w": -1, "mu": [3, 3], "var": 1}]})
        value = tmp_path / value if value.endswith(".json") else value
        assert run(*_base_argv("pipeline", cli_files, tmp_path), flag, value) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert not (tmp_path / "run").exists()
        assert run(*_base_argv("cv", cli_files, tmp_path), flag, value) == code
        assert capsys.readouterr().err == err

    # beta's f_high, 30 Hz, is above the Nyquist rate at 50 Hz and alpha's, 13 Hz, only at 20 Hz;
    # beta's seed is --seed + 1000000, so a negative --seed is refused as generate refuses it
    @pytest.mark.parametrize("flag, value", [("--rate", "50"), ("--rate", "20"), ("--seed", "-1")])
    def test_sampling_refused_by_generate_before_anything_is_written(self, tmp_path, capsys,
                                                                     flag, value):
        assert run("pipeline", "--n", 4, "--k-folds", 2, flag, value,
                   "--out", tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert not (tmp_path / "run").exists()
        assert run("generate", "--band", "beta", "--n", 4, flag, value,
                   "--out", tmp_path / "signals") == 1
        assert capsys.readouterr().err == err


# floats at the edges of their JSON and %.17g text: signed zero, the least subnormal, the
# largest magnitudes, and the exponents where repr switches between plain and e-notation
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e308, 1e-5, 1e-4, 1e16, 1e15, 0.1, 1 / 3, 123456789.125]
_LABELS = st.sampled_from(['say "hi"', "back\\slash", "new\nline", "naïve ☃", "null", "[]",
                           "%r %s", "", "\x00"]) | st.text()


def _floats(lo, hi):
    return st.sampled_from([x for x in _EDGE_FLOATS if lo <= x <= hi]) | st.floats(lo, hi)


# values per block for the writers' oracles: a block is one row, a part of a row, or a few rows
_BLOCK_SIZES = st.integers(1, 9)


def _component():
    """(w, b, p, var) of a component the mixture accepts; weights include 1e308.

    The variance stays below 1e308 / (2 pi), where the normalizer of the kernel overflows."""
    coord = _floats(-1e16, 1e16)
    return st.tuples(_floats(5e-324, 1e308), coord, coord, _floats(1e-5, 1e307))


class TestWriters:
    """Model, diagram and CSV files are byte for byte what the per-value encoders write.

    The oracles draw the values per block a writer formats, so their files span many blocks."""

    @settings(max_examples=150, deadline=None)
    @given(label=_LABELS, comps=st.lists(_component(), max_size=5).filter(
        lambda cs: math.isfinite(sum(c[0] for c in cs))), block=_BLOCK_SIZES)
    def test_model_file_is_the_indented_json_of_model_to_json(self, label, comps, block):
        a = np.array(comps, dtype=float).reshape(-1, 4)
        model = (label, GaussianMixtureIntensity(a[:, 0], a[:, 1:3], a[:, 3]))
        want = json.dumps(model_to_json(*model), indent=2, sort_keys=True) + "\n"
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_BLOCK_VALUES", block):
            cli._emit_model(*model, Path(tmp) / "m.json")
            assert (Path(tmp) / "m.json").read_bytes() == want.encode()

    @settings(max_examples=150, deadline=None)
    # a point's b^2 + p^2 must be finite, so its coordinates stay below about 1.34e154
    @given(b_min=_floats(-1e308, 1e308), points=arrays(
        float, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6).map(
            lambda shape: (shape[0], 2)), elements=_floats(0.0, 9e153)), block=_BLOCK_SIZES)
    def test_diagram_file_is_the_indented_json_of_diagram_to_json(self, b_min, points, block):
        diagram = PersistenceDiagram(points, b_min)
        want = json.dumps(diagram_to_json(diagram), indent=2, sort_keys=True) + "\n"
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_BLOCK_VALUES", block):
            cli._emit_diagram(diagram, Path(tmp) / "d.json")
            assert (Path(tmp) / "d.json").read_bytes() == want.encode()

    @settings(max_examples=150, deadline=None)
    @given(table=arrays(float, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
                        elements=_floats(-1e308, 1e308)), block=_BLOCK_SIZES)
    def test_csv_formats_each_value_at_round_trip_precision(self, table, block):
        want = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in table)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_BLOCK_VALUES", block):
            cli._write_csv(Path(tmp) / "t.csv", table)
            assert (Path(tmp) / "t.csv").read_bytes() == want.encode()

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 11])  # B = 4 rows a block: 0, 1, B-1 ... 2B+3
    def test_files_of_n_rows_in_blocks_of_four_rows(self, tmp_path, capsys, monkeypatch, n):
        a = np.random.default_rng(n).uniform(0.1, 2.0, size=(n, 4))
        model = ("m", GaussianMixtureIntensity(a[:, 0], a[:, 1:3], a[:, 3]))
        diagram = PersistenceDiagram(a[:, :2], -0.5)
        table = a[:, 1:]

        def dump(obj):
            return json.dumps(obj, indent=2, sort_keys=True) + "\n"

        for width, write, want in [
            (4, lambda path: cli._emit_model(*model, path), dump(model_to_json(*model))),
            (2, lambda path: cli._emit_diagram(diagram, path), dump(diagram_to_json(diagram))),
            (3, lambda path: cli._write_csv(path, table),
             "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in table)),
        ]:
            monkeypatch.setattr(cli, "_BLOCK_VALUES", 4 * width)
            write(tmp_path / "f")
            assert (tmp_path / "f").read_text() == want
        cli._emit({"b_min": -0.5, "points": []}, None, [None, None], diagram.points)
        assert capsys.readouterr().out == dump(diagram_to_json(diagram))

    def test_writers_hold_a_block_not_the_file(self, tmp_path):
        # the whole text of either file would be tens of MB; the model's (K, 4) rows are 3.2 MB
        rng = np.random.default_rng(0)
        a = rng.uniform(0.1, 2.0, size=(100_000, 4))
        model = ("m", GaussianMixtureIntensity(a[:, 0], a[:, 1:3], a[:, 3]))
        table = rng.normal(size=(1000, 1000))
        for write, limit in [(lambda: cli._emit_model(*model, tmp_path / "m.json"), 8e6),
                             (lambda: cli._write_csv(tmp_path / "t.csv", table), 2e6)]:
            tracemalloc.start()
            try:
                write()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit, peak
