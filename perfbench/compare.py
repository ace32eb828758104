"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are results files or directories of them (as written to
perfbench/out/results/ by run.py). For every workload and metric the
command prints each side's median, quartiles and run count, the change of
the medians, and a verdict:

  improved    AFTER wins at least 9 of 10 pairs (runs paired by seed, ties
              count for neither) and the medians differ by more than
              BEFORE's interquartile range
  unresolved  either side's interquartile range, as a share of its median,
              is wider than the bound, and not every AFTER run beats every
              BEFORE run
  worse       AFTER's median is worse than BEFORE's by more than the bound
  no worse    otherwise

Bounds come from BENCHMARK.json; the workload-specific metrics that are not
declared there use EXTRA_BOUNDS. Per-layer metrics have no bound and get
no verdict.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# metrics only some workloads have: (better, bound)
EXTRA_BOUNDS = {
    "accuracy": ("higher", 0.02),
    "classify_p50_s": ("lower", 0.2),
    "failed_frac": ("lower", 0.0),
}


def load(arg):
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        if f.name.endswith(".spans.json"):
            continue
        obj = json.loads(f.read_text())
        if isinstance(obj, dict) and "workload" in obj and "metrics" in obj:
            runs.append(obj)
    return runs


def series(runs, workload, trace, metric):
    """{seed: value} plus the plain list, for one metric of one workload."""
    key = "per_layer" if trace else "metrics"
    values = [(r["seed"], r[key][metric]["value"]) for r in runs
              if r["workload"] == workload and r["trace"] == trace and metric in r[key]]
    return dict(values), [v for _, v in values]


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(before, after, paired, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    q1a, ma, q3a = summary(before)
    q1b, mb, q3b = summary(after)
    if ma == 0:
        return "worse" if sign * (mb - ma) > 0 else "no worse"
    change = sign * (mb - ma) / abs(ma)  # positive means worse
    wins = sum(sign * (b - a) < 0 for a, b in paired)
    if paired and wins >= 0.9 * len(paired) and change < 0 and abs(mb - ma) > q3a - q1a:
        return "improved"
    spread = max((q3a - q1a) / abs(ma), (q3b - q1b) / abs(mb) if mb else 0.0)
    all_better = all(sign * (b - a) < 0 for a in before for b in after)
    if spread > bound and not all_better:
        return "unresolved"
    if change > bound:
        return "worse"
    return "no worse"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    if not before or not after:
        print("error: no results found on one side", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in declared["end_to_end"]}
    bounds.update(EXTRA_BOUNDS)

    keys = sorted({(r["workload"], r["trace"]) for r in before} & {(r["workload"], r["trace"]) for r in after})
    print(f"{'workload':<11} {'metric':<30} {'before median [q1, q3] (n)':<36} "
          f"{'after median [q1, q3] (n)':<36} {'change':>8}  verdict")
    for workload, trace in keys:
        field = "per_layer" if trace else "metrics"
        names = sorted({m for r in before + after
                        if r["workload"] == workload and r["trace"] == trace for m in r[field]})
        for name in names:
            by_seed_a, a = series(before, workload, trace, name)
            by_seed_b, b = series(after, workload, trace, name)
            if not a or not b:
                continue
            paired = [(by_seed_a[s], by_seed_b[s]) for s in sorted(by_seed_a.keys() & by_seed_b.keys())]
            result = verdict(a, b, paired, *bounds[name]) if name in bounds and not trace else "-"
            ma, mb = summary(a)[1], summary(b)[1]
            shown = f"{100 * (mb - ma) / abs(ma):+.1f}%" if ma else ""
            cells = []
            for values in (a, b):
                q1, med, q3 = summary(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] ({len(values)})")
            print(f"{workload:<11} {name:<30} {cells[0]:<36} {cells[1]:<36} {shown:>8}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
