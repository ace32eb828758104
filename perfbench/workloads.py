"""The benchmark's workloads: inputs made from a seed, a timed phase, checks.

Each workload class has
  make_inputs()         -- generate the inputs from the seed (set-up, untimed)
  run(inputs, ctx)      -- the timed phase; returns a result dict
  fingerprint(result)   -- the outputs that must repeat exactly between passes
  check(inputs, result) -- (attempted operations, list of failure messages)
  metrics(result)       -- workload-specific metrics: name -> (value, unit)

Work runs in this process except in cli-deploy, whose steps are fresh
processes started one after another. Why each workload exists is in
README.md next to this file.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import topobayes as tb

import reference

HERE = Path(__file__).resolve().parent


class Context:
    """Where a run works, how it starts child processes, and its tracer."""

    def __init__(self, root, workdir):
        self.workdir = workdir
        self.tracer = None
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._children = 0

    def new_dir(self, name):
        path = self.workdir / name
        path.mkdir(parents=True)
        return path

    def _wait(self, proc):
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def import_process(self):
        """Fresh interpreter importing topobayes.cli: (wall s, import s, MB)."""
        code = ("import time; t = time.perf_counter(); import topobayes.cli; "
                "print(time.perf_counter() - t)")
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], env=self.env,
                                stdout=subprocess.PIPE, text=True)
        out = proc.stdout.read()
        proc.stdout.close()
        code, rss = self._wait(proc)
        wall = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"importing topobayes.cli exited {code}")
        return wall, float(out), rss

    def run_cli(self, cwd, cmd, *args):
        """One CLI command as a fresh process; traced when a tracer is set."""
        self._children += 1
        n = self._children
        argv = [sys.executable, str(HERE / "child.py")]
        trace_file = cwd / f"trace-{n}.json"
        if self.tracer is not None:
            argv += ["--trace", str(trace_file), "--prefix", f"c{n}."]
        argv += ["--", cmd, *args]
        with open(cwd / f"{cmd}-{n}.log", "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=log, stderr=log)
            code, rss = self._wait(proc)
            end = time.perf_counter()
        if code != 0:
            tail = (cwd / f"{cmd}-{n}.log").read_text()[-2000:]
            print(f"{cmd} exited {code}:\n{tail}", file=sys.stderr)
        rec = {"cmd": cmd, "wall_s": end - start, "rss_mb": rss, "exit": code}
        if self.tracer is not None:
            sid = self.tracer.new_id()
            self.tracer.add(sid, f"cli.{cmd}", start, end, self.tracer.current(),
                            {"rss_mb": rss, "exit": code})
            if trace_file.exists():
                child = json.loads(trace_file.read_text())
                self.tracer.adopt(child["spans"], sid)
                trace_file.unlink()
        return rec


def _diagram(values):
    return tb.tilt(tb.sublevel_pd(values))


def _check_diagram(values, d, what, failures):
    problems = reference.diagram_problems(values, d.points, d.b_min)
    if problems:
        failures.append(f"{what}: {'; '.join(problems)}")


class CvDesk:
    """The paper's experiment, built as tests/test_acceptance.py builds it."""

    name = "cv-desk"
    N_PER_CLASS, DURATION, RATE, SNR_DB, K_FOLDS = 100, 2.0, 256.0, 5.0, 10
    # the acceptance experiment's report at seed 0
    SEED0 = {
        "accuracy": 0.96,
        "confusion": [[100, 0], [8, 92]],
        "per_fold": [0.95, 0.95, 0.95, 1.0, 1.0, 0.95, 0.9, 0.95, 0.95, 1.0],
    }
    MIN_ACCURACY = 0.90

    def __init__(self, seed):
        self.seed = seed

    def make_inputs(self):
        base = 20260 + 100_000 * self.seed
        signals = []
        for label, band, offset in (("alpha", tb.ALPHA_BAND, 0), ("beta", tb.BETA_BAND, 50_000)):
            for i in range(self.N_PER_CLASS):
                sig = tb.generate_band_signal(band, self.DURATION, self.RATE, base + offset + i)
                sig = tb.add_noise(sig, self.SNR_DB, base + offset + 25_000 + i)
                signals.append((sig, label))
        return signals

    def run(self, signals, ctx):
        entries = tuple((_diagram(sig), label) for sig, label in signals)
        cfg = tb.PosteriorConfig(alpha=0.7, sigma_obs=0.2)
        report = tb.cross_validate(tb.LabeledDataset(entries, self.K_FOLDS),
                                   tb.default_prior(), cfg, 1.0, self.seed)
        return {"diagrams": [d for d, _ in entries], "report": report}

    def fingerprint(self, result):
        return result["report"]

    def check(self, signals, result):
        failures = []
        for (sig, _), d in zip(signals, result["diagrams"]):
            _check_diagram(sig.samples, d, "diagram", failures)
        report = result["report"]
        if self.seed == 0:
            for key, want in self.SEED0.items():
                if report[key] != want:
                    failures.append(f"cv {key} {report[key]} != {want}")
        elif report["accuracy"] < self.MIN_ACCURACY:
            failures.append(f"cv accuracy {report['accuracy']} < {self.MIN_ACCURACY}")
        return len(signals) + 1, failures

    def metrics(self, result):
        return {"accuracy": (result["report"]["accuracy"], "fraction")}


class Diagrams:
    """Persistence of long recordings and their windows; bottleneck pairs."""

    name = "diagrams"
    RATE, SNR_DB = 256.0, 5.0
    N_LONG = 4            # recordings per band
    LONG_S = 200.0        # 51,200 samples each
    WINDOW = 512          # 2 s windows of every recording
    PAIR_S = 4.0          # recordings compared by bottleneck distance
    N_PERTURBED, N_CROSS = 16, 20
    NOISE = 0.1           # sup-norm of the perturbation, so d_B <= NOISE

    def __init__(self, seed):
        self.seed = seed

    def make_inputs(self):
        rng = np.random.default_rng([self.seed, 2])

        def recording(band, seconds):
            gen_seed, noise_seed = (int(s) for s in rng.integers(0, 2**62, 2))
            sig = tb.generate_band_signal(band, seconds, self.RATE, gen_seed)
            return tb.add_noise(sig, self.SNR_DB, noise_seed).samples

        recordings = [recording(band, self.LONG_S)
                      for band in (tb.ALPHA_BAND, tb.BETA_BAND) for _ in range(self.N_LONG)]
        # every pair gets fresh recordings, so that a seed's bottleneck cost
        # averages over many signals rather than a few
        pairs = []
        for j in range(self.N_PERTURBED):
            a = recording((tb.ALPHA_BAND, tb.BETA_BAND)[j % 2], self.PAIR_S)
            pairs.append(("perturbed", a, a + rng.uniform(-self.NOISE, self.NOISE, len(a))))
        for _ in range(self.N_CROSS):
            pairs.append(("cross", recording(tb.ALPHA_BAND, self.PAIR_S),
                          recording(tb.BETA_BAND, self.PAIR_S)))
        windows = [rec[k:k + self.WINDOW]
                   for rec in recordings for k in range(0, len(rec) - self.WINDOW + 1, self.WINDOW)]
        return {"recordings": recordings, "windows": windows, "pairs": pairs}

    def run(self, inp, ctx):
        start = time.perf_counter()
        long_d = [_diagram(x) for x in inp["recordings"]]
        window_d = [_diagram(x) for x in inp["windows"]]
        pair_d = [(_diagram(a), _diagram(b)) for _, a, b in inp["pairs"]]
        mid = time.perf_counter()
        dists = [tb.bottleneck_distance(da, db) for da, db in pair_d]
        end = time.perf_counter()
        return {"long": long_d, "windows": window_d, "pair_diagrams": pair_d,
                "distances": dists, "persistence_s": mid - start, "bottleneck_s": end - mid}

    def fingerprint(self, result):
        return {"distances": result["distances"],
                "points": [len(d) for d in result["long"] + result["windows"]]}

    def check(self, inp, result):
        failures = []
        for values, d in zip(inp["recordings"], result["long"]):
            _check_diagram(values, d, "recording", failures)
        for values, d in zip(inp["windows"], result["windows"]):
            _check_diagram(values, d, "window", failures)
        for (kind, a, b), (da, db) in zip(inp["pairs"], result["pair_diagrams"]):
            _check_diagram(a, da, "pair window", failures)
            _check_diagram(b, db, "pair window", failures)
        seen = set()
        for (kind, _, _), (da, db), dist in zip(inp["pairs"], result["pair_diagrams"], result["distances"]):
            if not (np.isfinite(dist) and dist >= 0):
                failures.append(f"{kind} distance {dist}")
            elif kind == "perturbed" and dist > self.NOISE + 1e-12:
                failures.append(f"perturbed distance {dist} exceeds the stability bound {self.NOISE}")
            elif kind not in seen:  # symmetry, on the first pair of each kind
                seen.add(kind)
                back = tb.bottleneck_distance(db, da)
                if abs(back - dist) > 1e-12:
                    failures.append(f"{kind} distance not symmetric: {dist} vs {back}")
        n_diagrams = len(inp["recordings"]) + len(inp["windows"]) + 2 * len(inp["pairs"])
        return n_diagrams + len(inp["pairs"]), failures

    def metrics(self, result):
        return {"persistence_s": (result["persistence_s"], "s"),
                "bottleneck_s": (result["bottleneck_s"], "s")}


class CliDeploy:
    """The command-line tool as a deployment runs it: one process per step."""

    name = "cli-deploy"
    N_TRAIN = 750         # per class: enough for a model to reach the 100k cap
    N_HELD = 2            # held-out diagrams per class, one classify each
    SNR_DB = 5.0
    LABELS = ("alpha", "beta")

    def __init__(self, seed):
        self.seed = seed

    def make_inputs(self):
        alpha_seed = 3_000_000 + 10_000 * self.seed
        return {"alpha": alpha_seed, "beta": alpha_seed + 5_000}

    def held_out(self):
        return [f"{lab}_{i:03d}" for lab in self.LABELS
                for i in range(self.N_TRAIN, self.N_TRAIN + self.N_HELD)]

    def run(self, seeds, ctx):
        work = ctx.new_dir(f"pass-{len(list(ctx.workdir.iterdir()))}")
        procs = []
        n = str(self.N_TRAIN + self.N_HELD)

        def step(cmd, *args):
            rec = ctx.run_cli(work, cmd, *args)
            procs.append(rec)
            return rec["exit"] == 0

        ok = all(step("generate", "--band", lab, "--n", n, "--snr", str(self.SNR_DB),
                      "--seed", str(seeds[lab]), "--out", "signals") for lab in self.LABELS)
        ok = ok and step("pd", "--manifest", "signals/manifest.json", "--out", "diagrams")
        if ok:
            held = {f"{name}.pd.json" for name in self.held_out()}
            manifest = json.loads((work / "diagrams" / "manifest.json").read_text())
            train = [e for e in manifest["entries"] if e["diagram"] not in held]
            (work / "diagrams" / "train.json").write_text(json.dumps({"entries": train}))
            ok = all(step("fit", "--manifest", "diagrams/train.json", "--label", lab,
                          "--out", f"models/{lab}.json") for lab in self.LABELS)
        if ok:
            for name in self.held_out():
                step("classify", "--models", *(f"models/{lab}.json" for lab in self.LABELS),
                     "--diagram", f"diagrams/{name}.pd.json", "--out", f"classify/{name}.json")
        outputs = {}
        for name in self.held_out():
            path = work / "classify" / f"{name}.json"
            if path.exists():
                outputs[name] = json.loads(path.read_text())
        # what the commands wrote; logs and the training manifest are ours
        written = sum(p.stat().st_size for p in work.rglob("*")
                      if p.is_file() and p.suffix in (".csv", ".json") and p.name != "train.json")
        model_bytes = sum(p.stat().st_size for p in work.glob("models/*.json"))
        return {"work": work, "procs": procs, "classify": outputs,
                "model_bytes": model_bytes, "bytes_written": written}

    def fingerprint(self, result):
        return {"classify": result["classify"], "model_bytes": result["model_bytes"]}

    def check(self, seeds, result):
        expected_steps = len(self.LABELS) * (2 + self.N_HELD) + 1
        failures = [f"{p['cmd']} exited {p['exit']}" for p in result["procs"] if p["exit"] != 0]
        failures += ["step not run"] * (expected_steps - len(result["procs"]))
        if failures:
            return expected_steps, failures
        work = result["work"]
        diag_dir = work / "diagrams"
        manifest = json.loads((diag_dir / "manifest.json").read_text())
        entries = manifest["entries"]
        if len(entries) != len(self.LABELS) * (self.N_TRAIN + self.N_HELD):
            failures.append(f"pd wrote {len(entries)} diagrams")

        def points(name):
            obj = json.loads((diag_dir / f"{name}.pd.json").read_text())
            return np.asarray(obj["points"], dtype=float).reshape(-1, 2), obj["b_min"]

        ref_models = {}
        for lab in self.LABELS:
            obs = [points(f"{lab}_{i:03d}")[0] for i in range(self.N_TRAIN)]
            ref = reference.posterior(reference.DEFAULT_PRIOR, obs, alpha=0.7, sigma_obs=0.2,
                                      clutter=reference.DEFAULT_CLUTTER)
            ref_models[lab] = ref
            model = json.loads((work / "models" / f"{lab}.json").read_text())
            n_out = len(model["posterior"]["components"])
            if n_out != len(ref[0]):
                failures.append(f"fit {lab}: {n_out} components, reference {len(ref[0])}")
            elif abs(model["lambda"] - ref[0].sum()) > 1e-9 * ref[0].sum():
                failures.append(f"fit {lab}: mass {model['lambda']} vs reference {ref[0].sum()}")

        for name in self.held_out():
            pts, b_min = points(name)
            values = np.loadtxt(work / "signals" / f"{name}.csv")
            problems = reference.diagram_problems(values, pts, b_min)
            out = result["classify"].get(name)
            if out is None:
                failures.append(f"classify {name}: no output")
                continue
            want = {lab: reference.log_density(pts, *ref_models[lab]) for lab in self.LABELS}
            label, votes = reference.vote(want)
            for lab in self.LABELS:
                got = float(out["log_densities"][lab])
                if not abs(got - want[lab]) <= 1e-9 * abs(want[lab]):
                    problems.append(f"log density {lab} {got} vs reference {want[lab]}")
            if out["label"] != label or out["votes"] != votes:
                problems.append(f"label/votes {out['label']} {out['votes']} vs {label} {votes}")
            if problems:
                failures.append(f"classify {name}: {'; '.join(problems)}")
        return expected_steps, failures

    def metrics(self, result):
        times = sorted(p["wall_s"] for p in result["procs"] if p["cmd"] == "classify")
        out = {}
        if times:
            out["classify_p50_s"] = (statistics.median(times), "s")
            tail = tail_percentile(times)
            if tail is not None:
                out[f"classify_p{tail[0]:g}_s"] = (tail[1], "s")
        out["classify_samples"] = (len(times), "count")
        return out


def tail_percentile(samples):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, if any."""
    xs = sorted(samples)
    best = None
    for p in (90, 99, 99.9):
        if len(xs) * (1 - p / 100) >= 10:
            best = (p, xs[min(len(xs) - 1, int(np.ceil(p / 100 * len(xs))) - 1)])
    return best


WORKLOADS = {w.name: w for w in (CvDesk, Diagrams, CliDeploy)}
