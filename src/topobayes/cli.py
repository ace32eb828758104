"""Batch command-line surface for the signal classification pipeline.

Subcommands: generate, pd, fit, classify, cv, heatmap, pipeline. Structured
artifacts are JSON; signals and heatmap grids are CSV. Exit codes are stable
for scripting: 0 success, 1 validation error, 2 I/O or data-file error.
"""

import argparse
import json
import sys
from pathlib import Path

from .classifier import (
    LabeledDataset,
    classify as classify_diagram,
    cross_validate,
    fit_class_model,
    model_from_json,
    model_to_json,
)
from .errors import DataFileError, ValidationError
from .filtration import diagram_from_json, diagram_to_json, sublevel_pd, tilt
from .intensity import intensity_grid, mixture_from_json
from .posterior import PosteriorConfig, default_clutter, default_prior
from .signals import ALPHA_BAND, BETA_BAND, generate_band_signal, add_noise, load_signal

_BANDS = {"alpha": ALPHA_BAND, "beta": BETA_BAND}


def _read(path, decode):
    """decode() of the JSON file at path; a fault in the file is a DataFileError naming it."""
    p = Path(path)
    if not p.exists():
        raise DataFileError(f"{p}: no such file")
    try:
        return decode(json.loads(p.read_text()))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise DataFileError(f"{p}: malformed JSON ({e})") from None
    except ValidationError as e:
        raise DataFileError(f"{p}: {e}") from None


def _emit(obj, out):
    """obj as indented, key-sorted strict JSON (finite floats only) to the file out, or stdout."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    if not out:
        print(text)
        return
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    Path(out).write_text(text + "\n")


def _write_csv(path, rows):
    """One line per row, its values comma-separated at round-trip precision."""
    Path(path).write_text("".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows))


def _manifest(obj):
    entries = obj.get("entries") if isinstance(obj, dict) else None
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise ValidationError("manifest needs an 'entries' list of objects")
    return obj


def _prior_and_config(prior, clutter, alpha, sigma_obs):
    """The prior and posterior config from optional mixture files."""
    prior = _read(prior, mixture_from_json) if prior else default_prior()
    clutter = _read(clutter, mixture_from_json) if clutter else default_clutter()
    return prior, PosteriorConfig(alpha=alpha, sigma_obs=sigma_obs, clutter=clutter)


def generate(band, n, out, duration=2.0, rate=256.0, snr=None, seed=0) -> int:
    """Write n band-limited signals as CSV plus a merged dataset manifest."""
    if n < 1 or seed < 0:
        raise ValidationError("--n must be at least 1 and --seed at least 0")
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(n):
        sig = generate_band_signal(_BANDS[band], duration, rate, seed + 2 * i)
        if snr is not None:
            sig = add_noise(sig, snr, seed + 2 * i + 1)
        name = f"{band}_{i:03d}.csv"
        _write_csv(outdir / name, sig.samples[:, None])
        entries.append({"signal": name, "label": band})

    manifest_path = outdir / "manifest.json"
    manifest = {"rate": rate, "entries": []}
    if manifest_path.exists():
        previous = _read(manifest_path, _manifest)
        if previous.get("rate") not in (None, rate):
            raise ValidationError(
                f"manifest {manifest_path} has rate {previous.get('rate')}, "
                f"refusing to mix with {rate}"
            )
        if not all(isinstance(e.get("label"), str) and isinstance(e.get("signal"), str)
                   for e in previous["entries"]):
            raise DataFileError(f"{manifest_path}: entry without a 'label' and 'signal' string")
        manifest["entries"] = [e for e in previous["entries"] if e["label"] != band]
    manifest["entries"].extend(entries)
    manifest["entries"].sort(key=lambda e: (e["label"], e["signal"]))
    _emit(manifest, manifest_path)
    return 0


def _signal_tasks(manifest, inputs, rate):
    if manifest:
        obj = _read(manifest, _manifest)
        rate = rate if rate is not None else obj.get("rate")
        tasks = []
        for e in obj["entries"]:
            if "signal" not in e:
                raise DataFileError(f"{manifest}: entry without a 'signal' path")
            tasks.append((Path(manifest).parent / e["signal"], e.get("label"), rate))
        return tasks
    if not inputs:
        raise ValidationError("pd needs --manifest or signal files")
    return [(Path(p), None, rate) for p in inputs]


def pd(out, manifest=None, inputs=(), rate=None) -> int:
    """Convert signals to tilted persistence diagram JSON files."""
    tasks = _signal_tasks(manifest, inputs, rate)
    outdir = Path(out)

    entries = []
    failures = 0
    for path, label, task_rate in tasks:
        fmt = "json" if path.suffix == ".json" else "csv"
        try:
            sig = load_signal(path, format=fmt, rate=task_rate if fmt == "csv" else None)
            diagram = tilt(sublevel_pd(sig))
        except (DataFileError, ValidationError, OSError) as err:
            failures += 1
            print(f"error: {path}: {err}", file=sys.stderr)
            continue
        name = path.stem + ".pd.json"
        _emit(diagram_to_json(diagram), outdir / name)
        entry = {"diagram": name}
        if label is not None:
            entry["label"] = label
        entries.append(entry)
    _emit({"entries": entries}, outdir / "manifest.json")
    return 2 if failures else 0


def _load_diagram_entries(manifest_path):
    manifest = _read(manifest_path, _manifest)
    entries = []
    for e in manifest["entries"]:
        if "diagram" not in e:
            raise DataFileError(f"{manifest_path}: entry without a 'diagram' path")
        diagram = _read(Path(manifest_path).parent / e["diagram"], diagram_from_json)
        entries.append((diagram, e.get("label")))
    return manifest, entries


def fit(manifest, label, out, alpha=0.7, sigma_obs=0.2, prior=None, clutter=None) -> int:
    """Fit one class model from the labeled diagrams in a manifest."""
    _, entries = _load_diagram_entries(manifest)
    training = [d for d, lab in entries if lab == label]
    if not training:
        raise ValidationError(f"no diagrams labeled {label!r} in manifest")
    prior, cfg = _prior_and_config(prior, clutter, alpha, sigma_obs)
    _emit(model_to_json(fit_class_model(training, prior, cfg, label)), out)
    return 0


def classify(models, diagram, threshold=1.0, out=None) -> int:
    """Classify one diagram against two or more fitted models."""
    models = [_read(p, model_from_json) for p in models]
    result = classify_diagram(_read(diagram, diagram_from_json), models, threshold)
    report = {
        "label": result.label,
        "votes": result.votes,
        # a zero density, the one non-finite value, is written as a string: strict JSON
        "log_densities": {k: "-inf" if v == float("-inf") else v
                          for k, v in result.log_densities.items()},
        "threshold": threshold,
    }
    _emit(report, out)
    return 0


def cv(manifest, k_folds=None, alpha=0.7, sigma_obs=0.2, prior=None, clutter=None,
       threshold=1.0, seed=0, out=None) -> int:
    """Cross-validate the classifier on a labeled manifest; print the report unless out is set."""
    obj, entries = _load_diagram_entries(manifest)
    if any(lab is None for _, lab in entries):
        raise ValidationError("cv needs a label on every manifest entry")
    if seed < 0:
        raise ValidationError("--seed must be at least 0")
    k = k_folds if k_folds is not None else obj.get("k_folds", 10)
    data = LabeledDataset(tuple(entries), k)
    prior, cfg = _prior_and_config(prior, clutter, alpha, sigma_obs)
    _emit(cross_validate(data, prior, cfg, threshold, seed), out)
    return 0


def heatmap(model, bounds, res, out) -> int:
    """Export a scaled intensity grid for a fitted model."""
    posterior = _read(model, model_from_json).posterior
    bounds = _split(bounds, ",", 4, float, "--bounds bmin,pmin,bmax,pmax")
    resolution = _split(res, "x", 2, int, "--res NxM, e.g. 128x128")
    grid = intensity_grid(posterior, bounds, resolution)
    _emit(
        {
            "bounds": list(bounds),
            "resolution": list(resolution),
            "rows": "birth",
            "cols": "persistence",
            "model": str(model),
        },
        Path(out).with_suffix(".json"),
    )
    _write_csv(Path(out).with_suffix(".csv"), grid)
    return 0


def pipeline(out, n=100, duration=2.0, rate=256.0, snr=5.0, seed=0, alpha=0.7,
             sigma_obs=0.2, prior=None, clutter=None, k_folds=None, threshold=1.0) -> int:
    """Generate both bands, extract diagrams, and cross-validate, in one go."""
    out = Path(out)
    sig_dir = out / "signals"
    for band, seed_offset in (("alpha", 0), ("beta", 1_000_000)):
        generate(band, n, sig_dir, duration=duration, rate=rate, snr=snr, seed=seed + seed_offset)
    code = pd(out / "diagrams", manifest=sig_dir / "manifest.json")
    if code != 0:
        return code
    report_path = out / "cv_report.json"
    cv(out / "diagrams" / "manifest.json", k_folds, alpha, sigma_obs, prior, clutter,
       threshold, seed, out=report_path)
    accuracy = _read(report_path, lambda report: report["accuracy"])
    print(f"cv accuracy: {accuracy:.4f} ({report_path})")
    return 0


def _split(text, sep, count, kind, usage):
    """count values of type kind, separated by sep in text."""
    try:
        values = tuple(kind(v) for v in text.lower().split(sep))
    except ValueError:
        values = ()
    if len(values) != count:
        raise ValidationError(f"expected {usage}, got {text!r}")
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad arguments, per the exit-code contract
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="topobayes", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # options shared by several subcommands, each declared once
    sampling = _Parser(add_help=False)
    sampling.add_argument("--duration", type=float, default=2.0)
    sampling.add_argument("--rate", type=float, default=256.0)
    seeding = _Parser(add_help=False)
    seeding.add_argument("--seed", type=int, default=0)
    posterior = _Parser(add_help=False)
    posterior.add_argument("--alpha", type=float, default=0.7)
    posterior.add_argument("--sigma-obs", dest="sigma_obs", type=float, default=0.2)
    posterior.add_argument("--prior", default=None)
    posterior.add_argument("--clutter", default=None)
    voting = _Parser(add_help=False)
    voting.add_argument("--threshold", type=float, default=1.0)
    folding = _Parser(add_help=False)
    folding.add_argument("--k-folds", dest="k_folds", type=int, default=None,
                         help="default: the manifest's k_folds, else 10")

    p = sub.add_parser("generate", parents=[sampling, seeding],
                       help="write synthetic band-limited signals")
    p.add_argument("--band", choices=sorted(_BANDS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--snr", type=float, default=None, help="SNR in dB; omit for clean signals")
    p.add_argument("--out", required=True)
    p.set_defaults(func=generate)

    p = sub.add_parser("pd", help="convert signals to persistence diagrams")
    p.add_argument("inputs", nargs="*", help="signal files (alternative to --manifest)")
    p.add_argument("--manifest")
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=pd)

    p = sub.add_parser("fit", parents=[posterior], help="fit one class model from labeled diagrams")
    p.add_argument("--manifest", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=fit)

    p = sub.add_parser("classify", parents=[voting],
                       help="classify one diagram against fitted models")
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--diagram", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=classify)

    p = sub.add_parser("cv", parents=[posterior, folding, voting, seeding],
                       help="k-fold cross validation on a labeled manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cv)

    p = sub.add_parser("heatmap", help="export a scaled intensity grid as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--bounds", required=True, help="bmin,pmin,bmax,pmax")
    p.add_argument("--res", required=True, help="NxM grid resolution")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=heatmap)

    p = sub.add_parser("pipeline", parents=[sampling, seeding, posterior, folding, voting],
                       help="generate -> pd -> cv in one command")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--snr", type=float, default=5.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=pipeline)

    return parser


def main(argv=None) -> int:
    try:
        options = vars(build_parser().parse_args(argv))
        del options["command"]
        return options.pop("func")(**options)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataFileError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
