"""Batch command-line surface for the signal classification pipeline.

Each subcommand is a function in _COMMANDS whose docstring's first line is its help, and one
check refuses an --out that would replace one of its inputs, before anything is written. JSON
artifacts and CSV signals and grids are read and written here, not in the library. Exit codes
are stable for scripting: 0 success, 1 validation error, 2 I/O or data-file error.
"""

import argparse
import contextlib
import inspect
import itertools
import json
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .classifier import (LabeledDataset, check_folds, check_threshold,
                         classify as classify_diagram, cross_validate, diagram_log_density,
                         usable_cpus)
from .errors import MAX_SIZE, DataFileError, ValidationError
from .filtration import PersistenceDiagram, sublevel_pd, tilt
from .intensity import GaussianMixtureIntensity, intensity_grid, total_mass
from .posterior import PosteriorConfig, default_clutter, default_prior, posterior_intensity
from .signals import ALPHA_BAND, BETA_BAND, add_noise, generate_band_signal

_BANDS = {"alpha": ALPHA_BAND, "beta": BETA_BAND}
# values per block of text a writer formats, so it holds a block, not a file's floats and text
_BLOCK_VALUES = 2 ** 14
# _pool's start method: fork on Linux, not 3.14's forkserver, whose pools import the package anew
_START_METHOD = "fork" if sys.platform == "linux" else None


def _read(path, decode):
    """decode() of the JSON file at path, its component objects parsed as component_row's rows
    and a leading byte-order mark dropped; a fault in the file is a DataFileError naming it."""
    p = Path(path)
    if not p.exists():
        raise DataFileError(f"{p}: no such file")
    try:
        obj = json.loads(p.read_text(encoding="utf-8-sig"), object_hook=component_row)
    except (ValueError, RecursionError) as e:  # ValueError: also an integer of over 4300 digits
        raise DataFileError(f"{p}: malformed JSON ({e})") from None
    return _decoded(p, decode, obj)


def _decoded(path, decode, obj):
    """decode(obj) of obj read or made from the file path; a fault is a DataFileError naming it."""
    try:
        return decode(obj)
    except ValidationError as e:
        raise DataFileError(f"{path}: {e}") from None


def _check_out(command, out, written, *inputs):
    """Refuse an --out whose written files include one of the command's input files, before
    any file is written; a path of None, an option left out, is no file."""
    # realpath follows links and "..", and unlike Path.resolve raises nothing on a link loop
    targets = {os.path.realpath(p) for p in written if p is not None}
    for path in inputs:
        if targets and path is not None and os.path.realpath(path) in targets:
            raise ValidationError(f"{command} --out {out} would replace its input {path}")


@contextlib.contextmanager
def _pool(items):
    """A pool of one worker process per usable CPU for items, and never more workers than items.

    Limit the workers as for any process, with taskset. A worker that dies, as when the kernel
    kills it for want of memory, is a MemoryError: main reports it as one error line."""
    import multiprocessing  # not paid for by commands without workers, nor are these
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        with ProcessPoolExecutor(max(1, min(len(items), usable_cpus())),
                                 mp_context=multiprocessing.get_context(_START_METHOD)) as pool:
            yield pool
    except BrokenProcessPool:
        raise MemoryError("a worker process died, perhaps killed for want of memory") from None


def _map(fn, items):
    """[fn(item) for item in items], computed in _pool's workers. An item is often milliseconds
    of work, so a worker takes up to 32 at a time, but fewer where that would leave one idle."""
    with _pool(items) as pool:
        return list(pool.map(fn, items, chunksize=max(1, min(32, len(items) // usable_cpus()))))


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


def _emit_model(label, g, out):
    """The model of label and its mixture g as {"label", "lambda", "posterior": {"components":
    [{"mu", "var", "w"}, ...]}} through _emit, without a dict per component."""
    _emit({"label": label, "lambda": total_mass(g), "posterior": {"components": []}}, out,
          {"mu": [None, None], "var": None, "w": None},
          np.column_stack([g.means, g.variances, g.weights]))


def _emit_diagram(diagram, out):
    """The diagram as {"b_min", "points": [[b, p], ...]} through _emit, with no list per point."""
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


def check_rate(value) -> float:
    """A sample rate in Hz read from a file, as a float: a json_floats number, positive, finite."""
    rate = json_floats(value, "sample rate")
    if not 0 < rate < np.inf:
        raise ValidationError("sample rate must be a positive finite number")
    return rate


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
    return GaussianMixtureIntensity(*mixture_arrays(obj))


def mixture_arrays(obj) -> tuple:
    """mixture_from_json's weights, means and variances, checked as far as needs no scipy."""
    if not isinstance(obj, dict) or not isinstance(obj.get("components"), list):
        raise ValidationError("mixture JSON needs a 'components' list")
    # a mu that is not a (b, p) pair makes a row that is not 4 long
    try:
        rows = [c if type(c) is tuple else (c["w"], *c["mu"], c["var"])
                for c in obj["components"]]
    except (KeyError, TypeError):
        raise ValidationError("mixture JSON has malformed components") from None
    a = json_floats(rows, "mixture components", None, 4)
    return a[:, 0], a[:, 1:3], a[:, 3]


def model_arrays(obj) -> dict:
    """obj, a model's JSON, with its posterior as mixture_arrays's arrays."""
    if not isinstance(obj, dict) or not isinstance(obj.get("label"), str) or "posterior" not in obj:
        raise ValidationError("model JSON needs a 'label' string and a 'posterior'")
    return {**obj, "posterior": mixture_arrays(obj["posterior"])}


def model_from_arrays(obj) -> tuple:
    """The (label, mixture) of model_arrays's obj, its 'lambda' checked against its posterior."""
    g = GaussianMixtureIntensity(*obj["posterior"])
    # "lambda" is redundant with the posterior; a file whose value disagrees
    # was edited or corrupted, so it is rejected rather than ignored
    mass = total_mass(g)
    lam = json_floats(obj.get("lambda", mass), "model JSON 'lambda'")
    if not abs(lam - mass) <= 1e-12 * max(1.0, mass):
        raise ValidationError("model JSON 'lambda' must equal the posterior's total mass")
    return obj["label"], g


def diagram_from_json(obj) -> PersistenceDiagram:
    """The diagram of the wire format {"b_min": r, "points": [[b, p], ...]}, tilted."""
    if not isinstance(obj, dict) or "points" not in obj:
        raise ValidationError("diagram JSON needs a 'points' list")
    pts = json_floats(obj["points"], "diagram points", None, 2)
    return PersistenceDiagram(pts, json_floats(obj.get("b_min", 0.0), "diagram 'b_min'"))


def signal_from_json(obj) -> np.ndarray:
    """The samples of the wire format {"rate": <Hz>, "samples": [<number>, ...]}, as floats."""
    if not isinstance(obj, dict):
        raise ValidationError("expected an object with 'rate' and 'samples'")
    check_rate(obj.get("rate"))
    return json_floats(obj.get("samples"), "'samples'", None)


def load_signal(path) -> np.ndarray:
    """The samples of a CSV signal, one amplitude per line with an optional single header line,
    as a float array; sublevel_pd refuses under 2 finite ones. CSV carries no sample rate."""
    p = Path(path)
    if not p.exists():
        raise DataFileError(f"{p}: no such file")
    values = []
    try:
        text = p.read_text(encoding="utf-8-sig")
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
    return np.array(values)


def _manifest(path, key, labeled=False):
    """The manifest at path, {"rate": Hz (optional), "entries": [{key: path, "label": str},
    ...]}, each label optional unless labeled, and the files it lists: each entry's (path from
    the manifest's directory, label or None). A "k_folds" key, once cv's fold count, is refused."""
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
        if "k_folds" in obj:  # not ignored: a CV would silently change its fold count
            raise ValidationError("'k_folds' is no longer read; give cv's fold count as --k-folds")
        return obj, [(Path(path).parent / e[key], e.get("label")) for e in entries]
    return _read(path, decode)


def _prior_and_config(prior, clutter, alpha, sigma_obs):
    """The prior and posterior config from optional mixture files."""
    prior = _read(prior, mixture_from_json) if prior else default_prior()
    clutter = _read(clutter, mixture_from_json) if clutter else default_clutter()
    return prior, PosteriorConfig(alpha=alpha, sigma_obs=sigma_obs, clutter=clutter)


def _write_signal(i, band, duration, rate, snr, seed, outdir):
    """Write the i-th signal of band into outdir as CSV; its manifest entry."""
    sig = generate_band_signal(_BANDS[band], duration, rate, seed + 2 * i)
    if snr is not None:
        sig = add_noise(sig, snr, seed + 2 * i + 1)
    name = f"{band}_{i:03d}.csv"
    _write_csv(outdir / name, sig.samples[:, None])
    return {"signal": name, "label": band}


def generate(band, n, out, duration=2.0, rate=256.0, snr=None, seed=0):
    """Write n band-limited signals as CSV, plus a merged dataset manifest.

    The signals are written in worker processes."""
    if not 1 <= n <= MAX_SIZE or seed < 0:  # a larger range(n) has no len
        raise ValidationError(f"--n must lie in [1, {MAX_SIZE}] and --seed be at least 0")
    outdir = Path(out)
    manifest_path = outdir / "manifest.json"
    previous = (_manifest(manifest_path, "signal", labeled=True)[0] if manifest_path.exists()
                else {"entries": []})
    if previous.get("rate") not in (None, rate):
        raise ValidationError(f"manifest {manifest_path} has rate {previous.get('rate')}, "
                              f"refusing to mix with {rate}")
    entries = _map(partial(_write_signal, band=band, duration=duration, rate=rate, snr=snr,
                           seed=seed, outdir=outdir), range(n))
    entries += [e for e in previous["entries"] if e["label"] != band]
    entries.sort(key=lambda e: (e["label"], e["signal"]))
    _emit({"rate": rate, "entries": entries}, manifest_path)


def _signal_tasks(manifest, inputs):
    """The (path, label) of each signal, checked before any is read.

    A fault in the list of signals is the manifest's, if one lists them, or the command line's."""
    if manifest and inputs:
        raise ValidationError("pd takes --manifest or signal files, not both")
    if manifest:
        tasks = _manifest(manifest, "signal")[1]
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
    return tasks


def _signal_diagram(task, outdir):
    """Write the diagram of the signal of the (path, label) task into outdir; its manifest entry,
    labeled if the task is, or else the error naming the file."""
    path, label = task
    try:
        samples = _read(path, signal_from_json) if path.suffix == ".json" else load_signal(path)
        # no diagram, or none a reader would take: samples 1.8e308 apart
        diagram = _decoded(path, lambda s: tilt(sublevel_pd(s)), samples)
    except (DataFileError, OSError) as err:  # each names the file
        return str(err)
    _emit_diagram(diagram, outdir / (path.stem + ".pd.json"))
    return {"diagram": path.stem + ".pd.json", **({} if label is None else {"label": label})}


def pd(out, manifest=None, inputs=()):
    """Convert CSV and JSON signals, told apart by suffix, to tilted persistence diagram files.

    A diagram depends on the samples alone, so a CSV signal needs no sample rate. A signal that
    fails is left out of the manifest, and one error names every such file."""
    outdir = Path(out)
    tasks = _signal_tasks(manifest, inputs)
    signals = [path for path, _ in tasks]
    # once the signals are known, before any is read: nothing written may replace an input
    written = [outdir / "manifest.json", *(outdir / (s.stem + ".pd.json") for s in signals)]
    _check_out("pd", out, written, manifest, *signals)
    results = _map(partial(_signal_diagram, outdir=outdir), tasks)
    _emit({"entries": [r for r in results if isinstance(r, dict)]}, outdir / "manifest.json")
    failures = [r for r in results if isinstance(r, str)]
    if failures:
        raise DataFileError("; ".join(failures))


def _load_diagram_entries(command, out, manifest_path, *inputs, label=None):
    """The manifest's (diagram, label) entries: only those labeled label, if given, else all,
    each of which must have a label. An --out that is the manifest, a listed diagram or one
    of inputs is refused once the manifest is read, before any diagram or input is."""
    listed = _manifest(manifest_path, "diagram", labeled=label is None)[1]
    _check_out(command, out, [out], manifest_path, *inputs, *(path for path, _ in listed))
    # read in this process: a worker pool measured no faster for a few hundred diagrams
    return [(_read(path, diagram_from_json), lab) for path, lab in listed
            if label in (None, lab)]


def fit(manifest, label, out, alpha=0.7, sigma_obs=0.2, prior=None, clutter=None):
    """Fit one class model from the labeled diagrams in a manifest."""
    entries = _load_diagram_entries("fit", out, manifest, prior, clutter, label=label)
    if not entries:
        raise ValidationError(f"no diagrams labeled {label!r} in manifest")
    prior, cfg = _prior_and_config(prior, clutter, alpha, sigma_obs)
    _emit_model(label, posterior_intensity(prior, [d for d, _ in entries], cfg), out)


def classify(models, diagram, threshold=1.0, out=None):
    """Classify one diagram against fitted models.

    The models are parsed in worker processes, then built one by one."""
    _check_out("classify", out, [out], *models, diagram)
    with _pool(models) as pool:
        parsing = pool.map(partial(_read, decode=model_arrays), models)
        import scipy.special  # building a model needs it, and the workers do not: loaded meanwhile
        parsed = list(parsing)  # a fault in a model file is reported before one in the diagram
    d, log_densities = _read(diagram, diagram_from_json), {}
    check_threshold(threshold)  # before any model is built
    for path in models:  # a model's arrays leave the list as it is built, and go with it
        label, g = _decoded(Path(path), model_from_arrays, parsed.pop(0))
        if label in log_densities:
            raise ValidationError("class labels must be distinct")
        log_densities[label] = diagram_log_density(d, g)
        del g  # let go before the next model is built
    result = classify_diagram(log_densities, threshold)
    # a zero density, the one non-finite value, is written as a string: strict JSON
    _emit({"label": result.label, "votes": result.votes, "threshold": threshold, "log_densities":
           {k: "-inf" if v == float("-inf") else v for k, v in log_densities.items()}}, out)


def cv(manifest, k_folds=10, alpha=0.7, sigma_obs=0.2, prior=None, clutter=None,
       threshold=1.0, seed=0, out=None) -> dict:
    """Cross-validate on a labeled manifest, writing the report to out, else to stdout."""
    entries = _load_diagram_entries("cv", out, manifest, prior, clutter)
    data = LabeledDataset(tuple(entries), k_folds)
    prior, cfg = _prior_and_config(prior, clutter, alpha, sigma_obs)
    report = cross_validate(data, prior, cfg, threshold, seed)
    _emit(report, out)
    return report


def heatmap(model, bounds, res, out):
    """Export a fitted model's scaled intensity grid as CSV, with a JSON sidecar."""
    # the .json and .csv names are made from the last path component, and ".." makes "...json"
    if Path(out).name in ("", ".."):
        raise ValidationError(f"--out must end in a file name prefix, not {str(out)!r}")
    # with_suffix replaces a suffix on the prefix: --out m.heat next to --model m.json is m.json
    sidecar, table = Path(out).with_suffix(".json"), Path(out).with_suffix(".csv")
    _check_out("heatmap", out, [sidecar, table], model)
    _, posterior = _decoded(Path(model), model_from_arrays, _read(model, model_arrays))
    grid = intensity_grid(posterior, bounds, res)
    _emit(
        {
            "bounds": list(bounds),
            "resolution": list(res),
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
    # generate keeps a manifest's other labels and pd writes their diagrams too, so what they
    # write is known only once written: no input may be a file in either, or a link's target
    present = [p for d in (sig_dir, out / "diagrams") if d.is_dir() for p in d.iterdir()]
    _check_out("pipeline", out, [out / "cv_report.json", *present],
               options.get("prior"), options.get("clutter"))
    # cv's settings, each left out at its default in cv's signature, are checked before any write
    settings = {name: p.default for name, p in inspect.signature(cv).parameters.items()} | options
    _prior_and_config(*map(settings.get, ("prior", "clutter", "alpha", "sigma_obs")))
    check_threshold(settings["threshold"])
    check_folds(settings["k_folds"], dict.fromkeys(("alpha", "beta"), n))  # each band's --n
    for band, seed_offset in (("alpha", 0), ("beta", 1_000_000)):
        generate(band, n, sig_dir, duration=duration, rate=rate, snr=snr, seed=seed + seed_offset)
    pd(out / "diagrams", manifest=sig_dir / "manifest.json")
    report_path = out / "cv_report.json"
    report = cv(out / "diagrams" / "manifest.json", seed=seed, out=report_path, **options)
    print(f"cv accuracy: {report['accuracy']:.4f} ({report_path})")


class _Parser(argparse.ArgumentParser):
    # an option left out is not in the namespace, so its command's signature gives its default
    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message):  # exit 1 on bad arguments, per the exit-code contract
        raise ValidationError(message)


# what a signature cannot say of an option, keyed by its flag, or by its command and flag where
# the help differs between commands; a flag has one type in every command
_OPTIONS = {
    "--band": {"choices": sorted(_BANDS)},
    **dict.fromkeys(("--n", "--seed", "--k-folds"), {"type": int}),
    **dict.fromkeys(("--duration", "--rate", "--snr", "--alpha", "--sigma-obs", "--threshold"),
                    {"type": float}),
    "--models": {"nargs": "+"},
    "inputs": {"nargs": "*", "help": "signal files (alternative to --manifest)"},
    "generate --snr": {"help": "SNR in dB; omit for clean signals"},
    "--bounds": {"nargs": 4, "type": float, "metavar": ("BMIN", "PMIN", "BMAX", "PMAX")},
    "--res": {"nargs": 2, "type": int, "metavar": ("NB", "NP")},
    "heatmap --out": {"help": "output path prefix"},
}

_COMMANDS = (generate, pd, fit, classify, cv, heatmap, pipeline)


def build_parser() -> argparse.ArgumentParser:
    # a summary is its docstring's first line; python -OO strips docstrings to None
    parser = _Parser(prog="topobayes", description=(__doc__ or "").partition("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for func in _COMMANDS:
        p = sub.add_parser(func.__name__, help=(func.__doc__ or "").partition("\n")[0])
        p.set_defaults(func=func)
        params = dict(inspect.signature(func).parameters)
        if params.pop("options", None):  # pipeline's for cv: all but its own and the manifest
            params.update((name, param) for name, param in inspect.signature(cv).parameters.items()
                          if name not in params and name != "manifest")
        for name, param in params.items():
            # pd's signal files are its one positional argument
            flag = name if name == "inputs" else "--" + name.replace("_", "-")
            kwargs = {**_OPTIONS.get(flag, {}), **_OPTIONS.get(f"{func.__name__} {flag}", {})}
            if param.default is param.empty:
                kwargs["required"] = True
            p.add_argument(flag, **kwargs)
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


if __name__ == "__main__":
    raise SystemExit(main())
