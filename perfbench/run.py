"""Benchmark for topobayes: one workload per invocation.

    python3 perfbench/run.py --workload {cv-desk,diagrams,cli-deploy}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from its src/
directory and nowhere else. The inputs are generated from --seed. The timed
phase repeats on the same inputs until --seconds have passed (at least
once) and timings are medians over the passes. Outputs are checked every
run. With --trace 1 the run also makes one traced pass and reports
per-layer metrics and the tracing overhead instead of end-to-end metrics.

Prints a table, writes the full record to perfbench/out/results/, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"} holding
the metrics BENCHMARK.json declares for the chosen mode.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("cv-desk", "diagrams", "cli-deploy"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def run_record(seed, blas_threads):
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    try:
        top, commit = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                     capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError, ValueError):
        top, commit = None, None
    if top is None or Path(top).resolve() != ROOT:
        commit = None  # not a git repository, or inside some other one
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_lib = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_lib = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "topobayes").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),  # identifies the code where git is absent
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_lib,
        "blas_threads": blas_threads,
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "platform": platform.platform(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "seed": seed,
    }


def peak_rss_mb():
    """Largest ru_maxrss of this process and of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure_setup(ctx, wl):
    """Fresh-process import plus input generation, repeated; medians."""
    ctx.import_process()  # warm-up: fills the file cache and any bytecode cache
    totals, imports = [], []
    for _ in range(SETUP_REPEATS):
        wall, import_s, _ = ctx.import_process()
        start = time.perf_counter()
        inputs = wl.make_inputs()
        totals.append(wall + time.perf_counter() - start)
        imports.append(import_s)
    return statistics.median(totals), statistics.median(imports), inputs


def timed_passes(wl, inputs, ctx, seconds):
    walls, results = [], []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < seconds:
        start = time.perf_counter()
        results.append(wl.run(inputs, ctx))
        walls.append(time.perf_counter() - start)
    return walls, results


def traced_pass(wl, ctx, run_id):
    from spans import Tracer

    tracer = Tracer(run_id)
    ctx.tracer = tracer
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            inputs = wl.make_inputs()
        with tracer.span("bench.phase"):
            start = time.perf_counter()
            result = wl.run(inputs, ctx)
            wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
        ctx.tracer = None
    return tracer, wall, result


def _fmt(value, unit):
    if isinstance(value, float):
        return f"{value:.6g} {unit}"
    return f"{value} {unit}"


def main(argv=None):
    args = parse_args(argv)
    package = ROOT / "src" / "topobayes" / "__init__.py"
    if not package.is_file():
        print(f"error: {package.relative_to(ROOT)} not found; run from a topobayes checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:  # before numpy loads; children inherit it
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    import topobayes

    if Path(topobayes.__file__).resolve() != package.resolve():
        print(f"error: imported topobayes from {topobayes.__file__}", file=sys.stderr)
        return 2
    import workloads

    run_id = uuid.uuid4().hex[:12]
    out_dir = HERE / "out"
    work = out_dir / "work" / run_id
    work.mkdir(parents=True)
    ctx = workloads.Context(ROOT, work)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    record = run_record(args.seed, nproc)

    try:
        outcome = measure(wl, ctx, run_id, args)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, layer, missing, spans, attempted, failures = outcome
    failed = min(attempted, len(failures))
    metrics["failed_frac"] = (failed / attempted, "fraction")

    print(f"topobayes benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} run={run_id}")
    print(f"  blas={record['blas']} threads={record['blas_threads']} nproc={record['nproc']} "
          f"setup repeats={SETUP_REPEATS}")
    for name, (value, unit) in list(metrics.items()) + sorted(layer.items()):
        print(f"  {name:<34} {_fmt(value, unit)}")
    for name in missing:
        print(f"  {name:<34} absent")
    if args.trace:
        wall = layer["trace.wall_s"][0]
        for name in ("intensity", "filtration"):
            print(f"  {name + ' self share of wall':<34} {layer[name + '.self_s'][0] / wall:.4f}")
        if layer.get("intensity.pairs", (0,))[0]:
            rate = layer["intensity.pairs"][0] / layer["intensity.log_eval_s"][0]
            print(f"  {'intensity.pairs_per_s':<34} {rate:.6g} 1/s")
    for msg in failures:
        print(f"  FAILED: {msg}")

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_id": run_id, "seconds": args.seconds, "record": record,
        "correct": not failures, "attempted": attempted, "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
        "absent": missing,
    }
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{run_id}"
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if spans:
        (results_dir / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")

    chosen = layer if args.trace else metrics
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    last = {m["name"]: {"value": chosen[m["name"]][0], "unit": chosen[m["name"]][1]}
            for m in wanted if m["name"] in chosen}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": last}))
    return 0


def measure(wl, ctx, run_id, args):
    """Set-up, timed passes, the traced pass if asked for, and the checks."""
    setup_s, import_s, inputs = measure_setup(ctx, wl)
    walls, results = timed_passes(wl, inputs, ctx, args.seconds)
    if args.trace:
        tracer, traced_wall, traced_result = traced_pass(wl, ctx, run_id)
        results.append(traced_result)
    peak = peak_rss_mb()  # before the checks, which are not the program's work

    attempted, failures = wl.check(inputs, results[0])
    first = json.dumps(wl.fingerprint(results[0]), sort_keys=True)
    if any(json.dumps(wl.fingerprint(r), sort_keys=True) != first for r in results[1:]):
        failures.append("passes gave different outputs")
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak, "MB"),
        "passes": (len(walls), "count"),
        **wl.metrics(results[0]),
    }
    if not args.trace:
        return metrics, {}, [], [], attempted, failures

    from spans import layer_metrics

    layer, missing = layer_metrics(tracer.spans, tracer.absent)
    procs = traced_result.get("procs", [])
    layer["cli.import_s"] = (import_s, "s")
    layer["cli.model_bytes"] = (traced_result.get("model_bytes", 0), "B")
    layer["cli.bytes_written"] = (traced_result.get("bytes_written", 0), "B")
    layer["cli.exit_nonzero"] = (sum(p["exit"] != 0 for p in procs), "count")
    layer["trace.wall_s"] = (traced_wall, "s")
    layer["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s")
    return metrics, layer, missing, tracer.spans, attempted, failures


if __name__ == "__main__":
    sys.exit(main())
