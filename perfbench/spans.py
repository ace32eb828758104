"""Spans around topobayes' module-level functions, installed from outside.

A Tracer replaces each target function, in every loaded ``topobayes`` module
that binds it, with a wrapper that records a span: an id, the id of the span
that was open when it was called, a name, start and end times from
``time.perf_counter`` (CLOCK_MONOTONIC, so spans from child processes line up
with the parent's), and counts computed from the arguments and the result.
Spans stay in memory; the caller writes them out when the run ends.

A target that no longer exists is recorded as absent, and every metric that
depends on it is reported as absent rather than zero, so the package can
rename its internals without breaking the benchmark.
"""

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time

import numpy as np


def _n_samples(signal):
    values = signal.samples if hasattr(signal, "samples") else signal
    return int(np.asarray(values).size)


def _posterior_counts(args, result):
    prior, observations = args[0], args[1]
    observed = sum(len(d.points) for d in observations)
    raw = prior.n_components * (1 + observed)
    return {"raw": raw, "out": result.n_components}


def _log_eval_counts(args, result):
    g, x = args[0], args[1]
    points = np.asarray(x).reshape(-1, 2).shape[0]
    pairs = points * g.n_components
    # (points, components, 2) float64 difference array that the scorer forms
    return {"pairs": pairs, "bytes": pairs * 2 * 8}


def _vote_tie(args, result):
    top = max(result.votes.values())
    return {"tie": int(sum(v == top for v in result.votes.values()) > 1)}


# "<module>.<function>" -> counter(positional args, result) -> dict of counts
TARGETS = {
    "signals.generate_band_signal": lambda a, r: {"samples": len(r.samples)},
    "signals.add_noise": None,
    "filtration.sublevel_pd": lambda a, r: {"samples": _n_samples(a[0]), "points": len(r)},
    "filtration.tilt": None,
    "filtration.bottleneck_distance": lambda a, r: {"points": len(a[0]) + len(a[1])},
    "posterior.posterior_intensity": _posterior_counts,
    "intensity.log_eval_intensity": _log_eval_counts,
    "classifier.diagram_log_density": lambda a, r: {"neginf": int(r == -math.inf)},
    "classifier.classify": _vote_tie,
    "classifier.cross_validate": None,
}


class Tracer:
    """In-memory span recorder for one run (one process)."""

    def __init__(self, run_id, prefix=""):
        self.run_id = run_id
        self.prefix = prefix
        self.spans = []
        self.absent = []
        self._stack = []
        self._next = 0
        self._patches = []

    def current(self):
        return self._stack[-1] if self._stack else None

    def new_id(self):
        self._next += 1
        return f"{self.prefix}{self._next}"

    def add(self, sid, name, start, end, parent, attrs=None):
        self.spans.append({
            "id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "run": self.run_id, "attrs": attrs or {},
        })

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        sid = self.new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.add(sid, name, start, end, parent, attrs)

    def adopt(self, spans, parent):
        """Merge spans written by a child process under the span `parent`."""
        for s in spans:
            self.spans.append({**s, "parent": s["parent"] or parent, "run": self.run_id})

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.new_id()
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._stack.pop()
                self.add(sid, name, start, time.perf_counter(), parent, {"raised": 1})
                raise
            end = time.perf_counter()
            self._stack.pop()
            attrs = {}
            if counter is not None:
                try:
                    attrs = counter(sig.bind(*args, **kwargs).args, result)
                except (TypeError, AttributeError, ValueError, IndexError) as e:
                    attrs = {"count_error": f"{type(e).__name__}: {e}"}
            self.add(sid, name, start, end, parent, attrs)
            return result

        return traced

    def install(self):
        """Wrap every target in every loaded topobayes module that binds it."""
        for target, counter in TARGETS.items():
            module_name, func_name = target.split(".")
            try:
                home = importlib.import_module(f"topobayes.{module_name}")
            except ImportError:
                self.absent.append(target)
                continue
            original = getattr(home, func_name, None)
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "topobayes" or mod_name.startswith("topobayes.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


def self_times(spans):
    """Span id -> duration minus the time covered by its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


LAYERS = ("signals", "filtration", "posterior", "intensity", "classifier", "cli")


def layer_metrics(spans, absent):
    """Per-layer metrics from a run's spans.

    Returns (metrics, missing): metrics maps name -> (value, unit); missing
    lists the metric names whose wrapped function is absent or whose counts
    could not be taken.
    """
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    metrics, missing = {}, []

    def total(names, what, unit, metric):
        names = [names] if isinstance(names, str) else names
        if any(n in absent for n in names):
            missing.append(metric)
            return
        chosen = [s for n in names for s in by_name.get(n, [])]
        if what == "self_s":
            value = sum(own[s["id"]] for s in chosen)
        elif what == "calls":
            value = len(chosen)
        elif what == "max_rss_mb":
            value = max((s["attrs"]["rss_mb"] for s in chosen), default=0.0)
        else:
            if any(what not in s["attrs"] for s in chosen):
                missing.append(metric)
                return
            value = sum(s["attrs"][what] for s in chosen)
        metrics[metric] = (value, unit)

    gen = ["signals.generate_band_signal", "signals.add_noise"]
    total(gen, "self_s", "s", "signals.generate_s")
    total(gen, "calls", "count", "signals.calls")

    total("filtration.sublevel_pd", "self_s", "s", "filtration.sublevel_pd_s")
    total("filtration.sublevel_pd", "calls", "count", "filtration.sublevel_pd_calls")
    total("filtration.sublevel_pd", "samples", "count", "filtration.samples")
    total("filtration.sublevel_pd", "points", "count", "filtration.points")
    total("filtration.tilt", "self_s", "s", "filtration.tilt_s")
    total("filtration.bottleneck_distance", "self_s", "s", "filtration.bottleneck_s")
    total("filtration.bottleneck_distance", "calls", "count", "filtration.bottleneck_calls")
    total("filtration.bottleneck_distance", "points", "count", "filtration.bottleneck_points")

    post = "posterior.posterior_intensity"
    total(post, "self_s", "s", "posterior.update_s")
    total(post, "calls", "count", "posterior.calls")
    total(post, "raw", "count", "posterior.components_raw")
    total(post, "out", "count", "posterior.components_out")
    if "posterior.components_raw" in metrics and "posterior.components_out" in metrics:
        pruned = metrics["posterior.components_raw"][0] - metrics["posterior.components_out"][0]
        metrics["posterior.components_pruned"] = (pruned, "count")
    else:
        missing.append("posterior.components_pruned")

    ev = "intensity.log_eval_intensity"
    total(ev, "self_s", "s", "intensity.log_eval_s")
    total(ev, "calls", "count", "intensity.log_eval_calls")
    total(ev, "pairs", "count", "intensity.pairs")
    total(ev, "bytes", "B", "intensity.bytes_computed")
    if ev not in absent:
        biggest = max((s["attrs"].get("bytes", 0) for s in by_name.get(ev, [])), default=0)
        metrics["intensity.peak_call_bytes"] = (biggest, "B")
    else:
        missing.append("intensity.peak_call_bytes")

    total("classifier.diagram_log_density", "self_s", "s", "classifier.density_s")
    total("classifier.diagram_log_density", "calls", "count", "classifier.density_calls")
    total("classifier.diagram_log_density", "neginf", "count", "classifier.neginf_densities")
    total("classifier.classify", "self_s", "s", "classifier.classify_s")
    total("classifier.classify", "calls", "count", "classifier.classify_calls")
    total("classifier.classify", "tie", "count", "classifier.vote_ties")
    total("classifier.cross_validate", "self_s", "s", "classifier.cv_s")

    for cmd in ("generate", "pd", "fit", "classify"):
        total(f"cli.{cmd}", "self_s", "s", f"cli.{cmd}_s")
    total("cli.fit", "max_rss_mb", "MB", "cli.fit_rss_mb")
    total("cli.classify", "max_rss_mb", "MB", "cli.classify_rss_mb")

    for layer in LAYERS:
        value = sum(own[s["id"]] for s in spans if s["name"].split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = (value, "s")
    return metrics, missing
