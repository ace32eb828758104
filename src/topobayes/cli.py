"""Batch command-line surface for the signal classification pipeline.

Subcommands: generate, pd, fit, classify, cv, heatmap, pipeline. Structured
artifacts are JSON; signals and heatmap grids are CSV. Exit codes are stable
for scripting: 0 success, 1 validation error, 2 I/O or data-file error.
"""

import argparse
import json
import math
import sys
from pathlib import Path

from .classifier import (
    LabeledDataset,
    classify,
    cross_validate,
    fit_class_model,
    model_from_json,
    model_to_json,
)
from .errors import DataFileError, ValidationError
from .filtration import diagram_from_json, diagram_to_json, sublevel_pd, tilt
from .intensity import grid_axes, intensity_grid, mixture_from_json
from .posterior import PosteriorConfig, default_clutter, default_prior
from .signals import ALPHA_BAND, BETA_BAND, generate_band_signal, add_noise, load_signal

_BANDS = {"alpha": ALPHA_BAND, "beta": BETA_BAND}


def _write_json(path, obj):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(_json_safe(obj), indent=2, sort_keys=True) + "\n")


def _json_safe(obj):
    # strict JSON: non-finite floats become strings
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _read_json(path):
    p = Path(path)
    if not p.exists():
        raise DataFileError(f"{p}: no such file")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise DataFileError(f"{p}: malformed JSON ({e})") from None


def _write_signal_csv(path, signal):
    lines = [format(v, ".17g") for v in signal.samples]
    Path(path).write_text("\n".join(lines) + "\n")


def _load_manifest(path):
    obj = _read_json(path)
    entries = obj.get("entries") if isinstance(obj, dict) else None
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise DataFileError(f"{path}: manifest needs an 'entries' list of objects")
    return obj, Path(path).parent


def _load_mixture_file(path):
    try:
        return mixture_from_json(_read_json(path))
    except ValidationError as e:
        raise DataFileError(f"{path}: {e}") from None


def _prior_and_config(prior, clutter, alpha, sigma_obs):
    """The prior and posterior config from optional mixture files."""
    prior = _load_mixture_file(prior) if prior else default_prior()
    clutter = _load_mixture_file(clutter) if clutter else default_clutter()
    return prior, PosteriorConfig(alpha=alpha, sigma_obs=sigma_obs, clutter=clutter)


def _kwargs(args):
    """Parsed arguments as keywords for a plain command function."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func")}


def generate(band, n, out, duration=2.0, rate=256.0, snr=None, seed=0) -> int:
    """Write n band-limited signals as CSV plus a merged dataset manifest."""
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(n):
        sig = generate_band_signal(_BANDS[band], duration, rate, seed + 2 * i)
        if snr is not None:
            sig = add_noise(sig, snr, seed + 2 * i + 1)
        name = f"{band}_{i:03d}.csv"
        _write_signal_csv(outdir / name, sig)
        entries.append({"signal": name, "label": band})

    manifest_path = outdir / "manifest.json"
    manifest = {"rate": rate, "entries": []}
    if manifest_path.exists():
        previous, _ = _load_manifest(manifest_path)
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
    _write_json(manifest_path, manifest)
    return 0


def cmd_generate(args) -> int:
    return generate(**_kwargs(args))


def _signal_tasks(manifest, inputs, rate):
    if manifest:
        obj, base = _load_manifest(manifest)
        rate = rate if rate is not None else obj.get("rate")
        tasks = []
        for e in obj["entries"]:
            if "signal" not in e:
                raise DataFileError(f"{manifest}: entry without a 'signal' path")
            tasks.append((base / e["signal"], e.get("label"), rate))
        return tasks
    if not inputs:
        raise ValidationError("pd needs --manifest or signal files")
    return [(Path(p), None, rate) for p in inputs]


def pd(out, manifest=None, inputs=(), rate=None) -> int:
    """Convert signals to tilted persistence diagram JSON files."""
    tasks = _signal_tasks(manifest, inputs, rate)
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)

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
        _write_json(outdir / name, diagram_to_json(diagram))
        entry = {"diagram": name}
        if label is not None:
            entry["label"] = label
        entries.append(entry)
    _write_json(outdir / "manifest.json", {"entries": entries})
    return 2 if failures else 0


def cmd_pd(args) -> int:
    return pd(**_kwargs(args))


def _load_diagram_entries(manifest_path):
    manifest, base = _load_manifest(manifest_path)
    entries = []
    for e in manifest["entries"]:
        if "diagram" not in e:
            raise DataFileError(f"{manifest_path}: entry without a 'diagram' path")
        try:
            diagram = diagram_from_json(_read_json(base / e["diagram"]))
        except ValidationError as err:
            raise DataFileError(f"{base / e['diagram']}: {err}") from None
        entries.append((diagram, e.get("label")))
    return manifest, entries


def cmd_fit(args) -> int:
    """Fit one class model from the labeled diagrams in a manifest."""
    _, entries = _load_diagram_entries(args.manifest)
    training = [d for d, lab in entries if lab == args.label]
    if not training:
        raise ValidationError(f"no diagrams labeled {args.label!r} in manifest")
    prior, cfg = _prior_and_config(args.prior, args.clutter, args.alpha, args.sigma_obs)
    model = fit_class_model(training, prior, cfg, args.label)
    _write_json(args.out, model_to_json(model))
    return 0


def cmd_classify(args) -> int:
    """Classify one diagram against two or more fitted models."""
    models = [model_from_json(_read_json(p)) for p in args.models]
    try:
        diagram = diagram_from_json(_read_json(args.diagram))
    except ValidationError as e:
        raise DataFileError(f"{args.diagram}: {e}") from None
    result = classify(diagram, models, args.threshold)
    report = {
        "label": result.label,
        "votes": result.votes,
        "log_densities": result.log_densities,
        "threshold": args.threshold,
    }
    if args.out:
        _write_json(args.out, report)
    else:
        print(json.dumps(_json_safe(report), indent=2, sort_keys=True))
    return 0


def cv(manifest, k_folds=None, alpha=0.7, sigma_obs=0.2, prior=None, clutter=None,
       threshold=1.0, seed=0, out=None) -> dict:
    """Cross-validate the classifier on a labeled diagram manifest.

    Writes the report to `out`, or prints it when `out` is None, and returns it.
    """
    obj, entries = _load_diagram_entries(manifest)
    if any(lab is None for _, lab in entries):
        raise ValidationError("cv needs a label on every manifest entry")
    k = k_folds if k_folds is not None else obj.get("k_folds", 10)
    data = LabeledDataset(tuple(entries), k)
    prior, cfg = _prior_and_config(prior, clutter, alpha, sigma_obs)
    report = cross_validate(data, prior, cfg, threshold, seed)
    if out:
        _write_json(out, report)
    else:
        print(json.dumps(_json_safe(report), indent=2, sort_keys=True))
    return report


def cmd_cv(args) -> int:
    cv(**_kwargs(args))
    return 0


def cmd_heatmap(args) -> int:
    """Export a scaled intensity grid for a fitted model."""
    model = model_from_json(_read_json(args.model))
    bounds = _parse_bounds(args.bounds)
    resolution = _parse_res(args.res)
    grid = intensity_grid(model.posterior, bounds, resolution)
    b_axis, p_axis = grid_axes(bounds, resolution)

    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = prefix.with_suffix(".csv")
    rows = [",".join(format(v, ".17g") for v in row) for row in grid]
    csv_path.write_text("\n".join(rows) + "\n")
    _write_json(
        prefix.with_suffix(".json"),
        {
            "bounds": list(bounds),
            "resolution": [len(b_axis), len(p_axis)],
            "rows": "birth",
            "cols": "persistence",
            "model": str(args.model),
        },
    )
    return 0


def cmd_pipeline(args) -> int:
    """Generate both bands, extract diagrams, and cross-validate, in one go."""
    out = Path(args.out)
    sig_dir = out / "signals"
    for band, seed_offset in (("alpha", 0), ("beta", 1_000_000)):
        code = generate(band, args.n, sig_dir, duration=args.duration, rate=args.rate,
                        snr=args.snr, seed=args.seed + seed_offset)
        if code != 0:
            return code
    code = pd(out / "diagrams", manifest=sig_dir / "manifest.json")
    if code != 0:
        return code
    report_path = out / "cv_report.json"
    report = cv(out / "diagrams" / "manifest.json", k_folds=args.k_folds, alpha=args.alpha,
                sigma_obs=args.sigma_obs, prior=args.prior, clutter=args.clutter,
                threshold=args.threshold, seed=args.seed, out=report_path)
    print(f"cv accuracy: {report['accuracy']:.4f} ({report_path})")
    return 0


def _parse_bounds(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise ValidationError("--bounds expects bmin,pmin,bmax,pmax")
    try:
        return tuple(float(v) for v in parts)
    except ValueError:
        raise ValidationError(f"malformed --bounds {text!r}") from None


def _parse_res(text):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValidationError("--res expects NxM, e.g. 128x128")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValidationError(f"malformed --res {text!r}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad arguments, per the exit-code contract
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="topobayes", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="write synthetic band-limited signals")
    p.add_argument("--band", choices=sorted(_BANDS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--rate", type=float, default=256.0)
    p.add_argument("--snr", type=float, default=None, help="SNR in dB; omit for clean signals")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("pd", help="convert signals to persistence diagrams")
    p.add_argument("inputs", nargs="*", help="signal files (alternative to --manifest)")
    p.add_argument("--manifest")
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pd)

    p = sub.add_parser("fit", help="fit one class model from labeled diagrams")
    p.add_argument("--manifest", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--alpha", type=float, default=0.7)
    p.add_argument("--sigma-obs", dest="sigma_obs", type=float, default=0.2)
    p.add_argument("--prior", default=None)
    p.add_argument("--clutter", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("classify", help="classify one diagram against fitted models")
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--diagram", required=True)
    p.add_argument("--threshold", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cv", help="k-fold cross validation on a labeled manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--k-folds", dest="k_folds", type=int, default=None)
    p.add_argument("--alpha", type=float, default=0.7)
    p.add_argument("--sigma-obs", dest="sigma_obs", type=float, default=0.2)
    p.add_argument("--prior", default=None)
    p.add_argument("--clutter", default=None)
    p.add_argument("--threshold", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("heatmap", help="export a scaled intensity grid as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--bounds", required=True, help="bmin,pmin,bmax,pmax")
    p.add_argument("--res", required=True, help="NxM grid resolution")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("pipeline", help="generate -> pd -> cv in one command")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--rate", type=float, default=256.0)
    p.add_argument("--snr", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.7)
    p.add_argument("--sigma-obs", dest="sigma_obs", type=float, default=0.2)
    p.add_argument("--prior", default=None)
    p.add_argument("--clutter", default=None)
    p.add_argument("--k-folds", dest="k_folds", type=int, default=10)
    p.add_argument("--threshold", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DataFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
