"""Batch command-line surface for the signal classification pipeline.

Subcommands: generate, pd, fit, classify, cv, heatmap, pipeline. Structured
artifacts are JSON; signals and heatmap grids are CSV. Every format is read and
written here, not in the library. Exit codes are stable for scripting:
0 success, 1 validation error, 2 I/O or data-file error.
"""

import argparse
import itertools
import json
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .classifier import (
    ClassModel,
    LabeledDataset,
    classify as classify_diagram,
    cross_validate,
    fit_class_model,
    usable_cpus,
)
from .errors import MAX_SIZE, DataFileError, ValidationError
from .filtration import PersistenceDiagram, sublevel_pd, tilt
from .intensity import GaussianMixtureIntensity, intensity_grid
from .posterior import PosteriorConfig, default_clutter, default_prior
from .signals import ALPHA_BAND, BETA_BAND, Signal, add_noise, check_rate, generate_band_signal

_BANDS = {"alpha": ALPHA_BAND, "beta": BETA_BAND}
# values per block of text a writer formats, so it holds a block, not a file's floats and text
_BLOCK_VALUES = 2 ** 14


def _read(path, decode):
    """decode() of the JSON file at path, its component objects parsed as component_row's rows;
    a fault in the file is a DataFileError naming it."""
    p = Path(path)
    if not p.exists():
        raise DataFileError(f"{p}: no such file")
    try:
        obj = json.loads(p.read_text(), object_hook=component_row)
    except (ValueError, RecursionError) as e:  # ValueError: also an integer of over 4300 digits
        raise DataFileError(f"{p}: malformed JSON ({e})") from None
    try:
        return decode(obj)
    except ValidationError as e:
        raise DataFileError(f"{p}: {e}") from None


def _map(fn, items):
    """[fn(item) for item in items], computed in one worker process per usable CPU.

    Limit the workers as for any process, with taskset. A worker that dies, as when the kernel
    kills it for want of memory, is a MemoryError: main reports it as one error line."""
    from concurrent.futures import ProcessPoolExecutor  # not paid for by commands without workers
    from concurrent.futures.process import BrokenProcessPool

    workers = max(1, min(len(items), usable_cpus()))
    # an item is often milliseconds of work, so a worker takes up to 32 at a time, but fewer
    # where that would leave a worker idle
    try:
        with ProcessPoolExecutor(workers) as pool:
            return list(pool.map(fn, items, chunksize=max(1, min(32, len(items) // workers))))
    except BrokenProcessPool:
        raise MemoryError("a worker process died, perhaps killed for want of memory") from None


def _blocks(item, sep, table):
    """The rows of the 2-D array table, each filled into the %-template item and joined by sep,
    as texts of about _BLOCK_VALUES values each."""
    step = max(1, _BLOCK_VALUES // max(1, table.shape[1]))
    for start in range(0, len(table), step):
        block = table[start:start + step]
        yield (sep if start else "") + sep.join([item] * len(block)) % tuple(block.ravel().tolist())


def _emit(obj, out, row=None, rows=()):
    """obj as indented, key-sorted strict JSON (finite floats only) to the file out, or stdout.

    The rows of a 2-D float array fill obj's last value in key order, an empty list, each as the
    JSON shape row with its None leaves in key order: the bytes of json.dumps, since a float's
    repr is its JSON text, without running its slow indenting encoder over every row."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    parts = [text]
    if len(rows):
        at = text.rindex("[]")  # the last value is followed by closing brackets only
        line = text[text.rindex("\n", 0, at) + 1:at]
        pad = "\n" + " " * (len(line) - len(line.lstrip()) + 2)
        item = json.dumps(row, indent=2, sort_keys=True).replace("\n", pad).replace("null", "%r")
        parts = itertools.chain([text[:at], "[", pad], _blocks(item, "," + pad, rows),
                                [pad[:-2], "]", text[at + 2:]])
    if not out:
        sys.stdout.writelines(parts)
        return
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        f.writelines(parts)


def _write_csv(path, table):
    """One line per row of the 2-D array table, its values comma-separated, round-trip exact."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)  # only here: a refused run writes nothing
    with open(path, "w") as f:
        f.writelines(_blocks(",".join(["%.17g"] * table.shape[1]) + "\n", "", table))


def _emit_model(model, out):
    """The model as {"label", "lambda", "posterior": {"components": [{"mu", "var", "w"}, ...]}}
    through _emit, without a dict per component."""
    g = model.posterior
    _emit({"label": model.label, "lambda": model.lam, "posterior": {"components": []}}, out,
          {"mu": [None, None], "var": None, "w": None},
          np.column_stack([g.means, g.variances, g.weights]))


def _emit_diagram(diagram, out):
    """The diagram as {"b_min", "points": [[b, p], ...]} through _emit, without a list per
    point."""
    _emit({"b_min": diagram.b_min, "points": []}, out, [None, None], diagram.points)


def json_floats(value, what, *shape):
    """value, JSON numbers nested in lists of the given lengths, or tuples of set ones, as floats.

    The first length may be None, for any. With no lengths value is one number and comes back
    as a float, else as an array. A bool, a string, any other non-number, a wrong length or
    nesting, or an integer too large for a float is a ValidationError about what."""
    level = [value]
    for n in shape:
        if not (set(map(type, level)) <= ({list} if n is None else {list, tuple})
                and (n is None or set(map(len, level)) <= {n})):
            raise ValidationError(f"malformed {what}")
        level = list(itertools.chain.from_iterable(level))
    if not set(map(type, level)) <= {int, float}:
        raise ValidationError(f"malformed {what}: not a number")
    try:
        a = np.array(level, dtype=float)
    except OverflowError:
        raise ValidationError(f"malformed {what}: a number too large for a float") from None
    return a.reshape(-1, *shape[1:]) if shape else float(a[0])


_COMPONENT_KEYS = frozenset(("mu", "var", "w"))


def component_row(obj):
    """json object_hook: a {"mu": [b, p], "var": v, "w": w} object as its row (w, b, p, v), which
    mixture_from_json reads as it would read the object; any other object as it is.

    So a parse holds one tuple of 4 floats per component, where it held a dict and a list; and
    tuples of floats, unlike lists, drop out of the garbage collector's sweeps, which would walk
    the whole parsed file. A row is 4 long, so no reader of (b, p) pairs takes one for a pair."""
    if obj.keys() == _COMPONENT_KEYS and type(obj["mu"]) is list and len(obj["mu"]) == 2:
        return (obj["w"], *obj["mu"], obj["var"])
    return obj


def mixture_from_json(obj) -> GaussianMixtureIntensity:
    """The mixture of the wire format {"components": [{"w": c, "mu": [b, p], "var": s}, ...]},
    its components given as objects or as component_row's rows."""
    if not isinstance(obj, dict) or not isinstance(obj.get("components"), list):
        raise ValidationError("mixture JSON needs a 'components' list")
    # a mu that is not a (b, p) pair makes a row that is not 4 long
    try:
        rows = [c if type(c) is tuple else (c["w"], *c["mu"], c["var"])
                for c in obj["components"]]
    except (KeyError, TypeError):
        raise ValidationError("mixture JSON has malformed components") from None
    a = json_floats(rows, "mixture components", None, 4)
    return GaussianMixtureIntensity(a[:, 0], a[:, 1:3], a[:, 3])


def model_from_json(obj) -> ClassModel:
    if not isinstance(obj, dict) or not isinstance(obj.get("label"), str) or "posterior" not in obj:
        raise ValidationError("model JSON needs a 'label' string and a 'posterior'")
    model = ClassModel(label=obj["label"], posterior=mixture_from_json(obj["posterior"]))
    # "lambda" is redundant with the posterior; a file whose value disagrees
    # was edited or corrupted, so it is rejected rather than ignored
    mass = model.lam
    lam = json_floats(obj.get("lambda", mass), "model JSON 'lambda'")
    if not abs(lam - mass) <= 1e-12 * max(1.0, mass):
        raise ValidationError("model JSON 'lambda' must equal the posterior's total mass")
    return model


def diagram_from_json(obj) -> PersistenceDiagram:
    """The diagram of the wire format {"b_min": r, "points": [[b, p], ...]}, tilted."""
    if not isinstance(obj, dict) or "points" not in obj:
        raise ValidationError("diagram JSON needs a 'points' list")
    pts = json_floats(obj["points"], "diagram points", None, 2)
    return PersistenceDiagram(pts, json_floats(obj.get("b_min", 0.0), "diagram 'b_min'"))


def signal_from_json(obj) -> Signal:
    """Wire format: {"rate": <Hz>, "samples": [<number>, ...]}."""
    if not isinstance(obj, dict):
        raise ValidationError("expected an object with 'rate' and 'samples'")
    return Signal(json_floats(obj.get("samples"), "'samples'", None), obj.get("rate"))


def load_signal(path, rate: float) -> Signal:
    """Read a CSV signal: one amplitude per line with an optional single header
    line. CSV carries no sample rate, so `rate` must be supplied."""
    p = Path(path)
    if not p.exists():
        raise DataFileError(f"{p}: no such file")
    values = []
    try:
        text = p.read_text()
    except UnicodeDecodeError as e:
        raise DataFileError(f"{p}: not UTF-8 text ({e})") from None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            if ln == 1:
                continue  # single optional header line
            raise DataFileError(f"{p}: malformed line {ln}: {line!r}") from None
    try:
        return Signal(values, rate)
    except ValidationError as e:
        raise DataFileError(f"{p}: {e}") from None


def _manifest(path, key, labeled=False):
    """The manifest at path, {"rate": Hz (optional), "k_folds": int (optional), "entries":
    [{key: path, "label": str}, ...]}, each label optional unless labeled."""
    def decode(obj):
        entries = obj.get("entries") if isinstance(obj, dict) else None
        if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
            raise ValidationError("manifest needs an 'entries' list of objects")
        for e in entries:
            if not isinstance(e.get(key), str):
                raise ValidationError(f"entry without a '{key}' path")
            if (labeled or "label" in e) and not isinstance(e.get("label"), str):
                raise ValidationError("entry without a 'label' string")
        if "rate" in obj:
            check_rate(obj["rate"])
        if "k_folds" in obj and type(obj["k_folds"]) is not int:  # a bool is not a fold count
            raise ValidationError("'k_folds' must be an integer")
        return obj
    return _read(path, decode)


def _prior_and_config(prior, clutter, alpha, sigma_obs):
    """The prior and posterior config from optional mixture files."""
    prior = _read(prior, mixture_from_json) if prior else default_prior()
    clutter = _read(clutter, mixture_from_json) if clutter else default_clutter()
    return prior, PosteriorConfig(alpha=alpha, sigma_obs=sigma_obs, clutter=clutter)


def _write_signal(i, band, duration, rate, snr, seed, outdir):
    """Write the i-th signal of band into outdir as CSV; its file name."""
    sig = generate_band_signal(_BANDS[band], duration, rate, seed + 2 * i)
    if snr is not None:
        sig = add_noise(sig, snr, seed + 2 * i + 1)
    name = f"{band}_{i:03d}.csv"
    _write_csv(outdir / name, sig.samples[:, None])
    return name


def generate(band, n, out, duration=2.0, rate=256.0, snr=None, seed=0):
    """Write n band-limited signals as CSV, in worker processes, plus a merged dataset manifest."""
    if not 1 <= n <= MAX_SIZE or seed < 0:  # a larger range(n) has no len
        raise ValidationError(f"--n must lie in [1, {MAX_SIZE}] and --seed be at least 0")
    outdir = Path(out)
    manifest_path = outdir / "manifest.json"
    previous = (_manifest(manifest_path, "signal", labeled=True) if manifest_path.exists()
                else {"entries": []})
    if previous.get("rate") not in (None, rate):
        raise ValidationError(
            f"manifest {manifest_path} has rate {previous.get('rate')}, "
            f"refusing to mix with {rate}"
        )
    names = _map(partial(_write_signal, band=band, duration=duration, rate=rate, snr=snr,
                         seed=seed, outdir=outdir), range(n))
    entries = [{"signal": name, "label": band} for name in names]
    entries += [e for e in previous["entries"] if e["label"] != band]
    entries.sort(key=lambda e: (e["label"], e["signal"]))
    _emit({"rate": rate, "entries": entries}, manifest_path)


def _signal_tasks(manifest, inputs, rate):
    """The (path, label) of each signal and the rate of the CSV ones, checked before any is read.

    A fault in the list of signals is the manifest's, if one lists them, or the command line's."""
    if rate is not None:
        check_rate(rate)
    if manifest and inputs:
        raise ValidationError("pd takes --manifest or signal files, not both")
    if manifest:
        obj = _manifest(manifest, "signal")
        tasks = [(Path(manifest).parent / e["signal"], e.get("label")) for e in obj["entries"]]
        rate = rate if rate is not None else obj.get("rate")
    elif inputs:
        tasks = [(Path(p), None) for p in inputs]
    else:
        raise ValidationError("pd needs --manifest or signal files")
    fault, prefix = (DataFileError, f"{manifest}: ") if manifest else (ValidationError, "")
    first = {}
    for path, _ in tasks:
        other = first.setdefault(path.stem, path)
        if other is not path:  # one diagram file would silently overwrite the other
            raise fault(f"{prefix}{other} and {path} would both write {path.stem}.pd.json")
    if rate is None and any(path.suffix != ".json" for path, _ in tasks):
        raise fault(f"{prefix}csv signals need a sample rate: a manifest 'rate' or --rate")
    return tasks, rate


def _signal_diagram(path, rate, outdir):
    """Write the diagram of the signal at path into outdir; the error naming the file, or None."""
    try:
        sig = (_read(path, signal_from_json) if path.suffix == ".json"
               else load_signal(path, rate))
        diagram = tilt(sublevel_pd(sig))
    except (DataFileError, OSError) as err:  # each names the file
        return str(err)
    except ValidationError as err:  # a diagram no reader would take: samples 1.8e308 apart
        return f"{path}: {err}"
    _emit_diagram(diagram, outdir / (path.stem + ".pd.json"))
    return None


def pd(out, manifest=None, inputs=(), rate=None):
    """Convert CSV and JSON signals, told apart by suffix, to tilted persistence diagram files.

    A signal that fails is left out of the manifest, and one error names every such file."""
    outdir = Path(out)
    if manifest and os.path.realpath(outdir / "manifest.json") == os.path.realpath(manifest):
        raise ValidationError(f"pd --out {out} would replace its input manifest {manifest}")
    tasks, rate = _signal_tasks(manifest, inputs, rate)
    errors = _map(partial(_signal_diagram, rate=rate, outdir=outdir),
                  [path for path, _ in tasks])

    entries = []
    for (path, label), error in zip(tasks, errors):
        if error is None:
            entry = {"diagram": path.stem + ".pd.json"}
            if label is not None:
                entry["label"] = label
            entries.append(entry)
    _emit({"entries": entries}, outdir / "manifest.json")
    failures = [error for error in errors if error is not None]
    if failures:
        raise DataFileError("; ".join(failures))


def _load_diagram_entries(manifest_path, label=None, labeled=False):
    """The manifest and its (diagram, label) entries; only those labeled label, if given."""
    manifest = _manifest(manifest_path, "diagram", labeled)
    # read in this process: a worker pool measured no faster for a few hundred diagrams
    return manifest, [(_read(Path(manifest_path).parent / e["diagram"], diagram_from_json),
                       e.get("label"))
                      for e in manifest["entries"] if label in (None, e.get("label"))]


def fit(manifest, label, out, alpha=0.7, sigma_obs=0.2, prior=None, clutter=None):
    """Fit one class model from the labeled diagrams in a manifest."""
    _, entries = _load_diagram_entries(manifest, label)
    if not entries:
        raise ValidationError(f"no diagrams labeled {label!r} in manifest")
    prior, cfg = _prior_and_config(prior, clutter, alpha, sigma_obs)
    _emit_model(fit_class_model([d for d, _ in entries], prior, cfg, label), out)


def classify(models, diagram, threshold=1.0, out=None):
    """Classify one diagram against two or more fitted models, read in worker processes."""
    import scipy.special  # decoding a model needs it: imported once, and forked workers inherit it
    models = _map(partial(_read, decode=model_from_json), models)
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


def cv(manifest, k_folds=None, alpha=0.7, sigma_obs=0.2, prior=None, clutter=None,
       threshold=1.0, seed=0, out=None):
    """Cross-validate on a labeled manifest; the report, printed unless out is set."""
    if seed < 0:
        raise ValidationError("--seed must be at least 0")
    obj, entries = _load_diagram_entries(manifest, labeled=True)
    k = k_folds if k_folds is not None else obj.get("k_folds", 10)
    data = LabeledDataset(tuple(entries), k)
    prior, cfg = _prior_and_config(prior, clutter, alpha, sigma_obs)
    report = cross_validate(data, prior, cfg, threshold, seed)
    _emit(report, out)
    return report


def heatmap(model, bounds, res, out):
    """Export a scaled intensity grid for a fitted model."""
    # the .json and .csv names are made from the last path component, and ".." makes "...json"
    if Path(out).name in ("", ".."):
        raise ValidationError(f"--out must end in a file name prefix, not {str(out)!r}")
    # with_suffix replaces a suffix on the prefix: --out m.heat next to --model m.json is m.json;
    # realpath follows links and "..", and unlike Path.resolve raises nothing on a link loop
    sidecar, table = Path(out).with_suffix(".json"), Path(out).with_suffix(".csv")
    if os.path.realpath(model) in (os.path.realpath(sidecar), os.path.realpath(table)):
        raise ValidationError(f"heatmap --out {out} would replace its --model {model}")
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
        sidecar,
    )
    _write_csv(table, grid)


def pipeline(out, n=100, duration=2.0, rate=256.0, snr=5.0, seed=0, **options):
    """Generate both bands, extract diagrams, and cross-validate them with cv's options."""
    out = Path(out)
    sig_dir = out / "signals"
    for band, seed_offset in (("alpha", 0), ("beta", 1_000_000)):
        generate(band, n, sig_dir, duration=duration, rate=rate, snr=snr, seed=seed + seed_offset)
    pd(out / "diagrams", manifest=sig_dir / "manifest.json")
    report_path = out / "cv_report.json"
    report = cv(out / "diagrams" / "manifest.json", seed=seed, out=report_path, **options)
    print(f"cv accuracy: {report['accuracy']:.4f} ({report_path})")


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
    # an option left out is not in the namespace, so its command's signature gives its default
    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message):  # exit 1 on bad arguments, per the exit-code contract
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="topobayes", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # options shared by several subcommands, each declared once
    sampling = _Parser(add_help=False)
    sampling.add_argument("--duration", type=float)
    sampling.add_argument("--rate", type=float)
    seeding = _Parser(add_help=False)
    seeding.add_argument("--seed", type=int)
    posterior = _Parser(add_help=False)
    posterior.add_argument("--alpha", type=float)
    posterior.add_argument("--sigma-obs", type=float)
    posterior.add_argument("--prior")
    posterior.add_argument("--clutter")
    voting = _Parser(add_help=False)
    voting.add_argument("--threshold", type=float)
    folding = _Parser(add_help=False)
    folding.add_argument("--k-folds", type=int, help="default: the manifest's k_folds, else 10")

    p = sub.add_parser("generate", parents=[sampling, seeding],
                       help="write synthetic band-limited signals")
    p.add_argument("--band", choices=sorted(_BANDS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--snr", type=float, help="SNR in dB; omit for clean signals")
    p.add_argument("--out", required=True)
    p.set_defaults(func=generate)

    p = sub.add_parser("pd", help="convert signals to persistence diagrams")
    p.add_argument("inputs", nargs="*", help="signal files (alternative to --manifest)")
    p.add_argument("--manifest")
    p.add_argument("--rate", type=float)
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
    p.add_argument("--out")
    p.set_defaults(func=classify)

    p = sub.add_parser("cv", parents=[posterior, folding, voting, seeding],
                       help="k-fold cross validation on a labeled manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cv)

    p = sub.add_parser("heatmap", help="export a scaled intensity grid as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--bounds", required=True, help="bmin,pmin,bmax,pmax")
    p.add_argument("--res", required=True, help="NxM grid resolution")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=heatmap)

    p = sub.add_parser("pipeline", parents=[sampling, seeding, posterior, folding, voting],
                       help="generate -> pd -> cv in one command")
    p.add_argument("--n", type=int)
    p.add_argument("--snr", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=pipeline)

    return parser


def main(argv=None) -> int:
    try:
        options = vars(build_parser().parse_args(argv))
        del options["command"]
        options.pop("func")(**options)
    except (ValidationError, MemoryError) as e:  # MemoryError: a size such as --duration 1e12
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1
    except (DataFileError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
