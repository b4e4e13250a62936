"""Spans around demandlab's public functions, recorded from outside.

``Tracer.installed()`` replaces each traced function by a wrapper that
records a span (name, start, end, parent) and optional counts, then puts
every original back.  A function is replaced at every binding in a loaded
``demandlab`` module, because ``identification``, ``inequality`` and
``cli`` import some functions by name and look them up there.  Nothing
inside the package is edited.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly because the benchmark runs one caller on
one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

CLI_COMMANDS = ("demand", "classify", "sample", "nonid", "identify")

# Span names whose self time and call count are reported.
SPANS = (
    "marginals.cdf", "marginals.ppf", "marginals.pdf",
    "populations.ratio_ppf", "populations.quality_profile",
    "populations.sample", "populations.moments",
    "quadrature.solve_crossings", "quadrature.segmented_gl",
    "quadrature.integrate",
    "demand.quality_demand_surface", "demand.demand_curve",
    "demand.invert_demand", "demand.to_csv",
    "identification.slice_from_surface", "identification.pava",
    "identification.slice_moments",
    "identification.recover_from_slice_moments",
    "identification.verify_recovery",
    "inequality.classify", "inequality.build_nonid_demo",
    "scenario.load_scenario",
) + tuple(f"cli.main.{cmd}" for cmd in CLI_COMMANDS)

# Work counters: name -> what is counted.
COUNTS = ("marginals.cdf_points", "marginals.ppf_points",
          "quadrature.solve_crossings.rows", "quadrature.segmented_gl.nodes",
          "demand.quality_demand_surface.cells", "demand.demand_curve.prices")

IMPORT_METRICS = ("import.total_s", "import.scipy_special_s",
                  "import.numpy_s", "import.demandlab_self_s")


def self_metric(span: str) -> str:
    # The surface's own work is in the populations' _quality_profile.
    if span == "populations.quality_profile":
        return "populations.quality_profile_self_s"
    return f"{span}_s"


def per_layer_names() -> list:
    """Every per-layer metric a traced run reports, with unit and better."""
    out = [(m, "s", "lower") for m in IMPORT_METRICS]
    for span in SPANS:
        out.append((self_metric(span), "s", "lower"))
        out.append((f"{span}.calls", "count", "lower"))
    out += [(c, "count", "lower") for c in COUNTS]
    out += [("quadrature.solve_crossings.useful_ratio", "ratio", "higher"),
            ("quadrature.runtime_warnings", "count", "lower"),
            ("identification.pava_share", "ratio", "lower"),
            ("cli.identify.surface_builds", "count", "lower"),
            ("trace.untraced_round_ref_s", "s", "lower"),
            ("trace.traced_round_ref_s", "s", "lower"),
            ("trace.overhead_ref_s", "s", "lower"),
            ("trace.overhead_ratio", "ratio", "lower")]
    return out


def _size(args, index):
    return int(np.size(args[index]))


def _targets():
    """(owner, attribute, span name, counter) for every traced function.

    A counter is called as ``counter(counts, args, result)`` after the
    span closes.
    """
    mods = {name: importlib.import_module(f"demandlab.{name}")
            for name in ("marginals", "populations", "quadrature", "demand",
                         "identification", "inequality", "scenario")}
    pops = mods["populations"]

    def points(key, index):
        def count(counts, args, out):
            counts[key] += _size(args, index)
        return count

    def crossings(counts, args, roots):
        counts["quadrature.solve_crossings.rows"] += args[3]
        counts["useful_rows"] += int(np.any(roots < args[2], axis=1).sum())

    def nodes(counts, args, out):
        counts["quadrature.segmented_gl.nodes"] += out[0].size

    def cells(counts, args, out):
        counts["demand.quality_demand_surface.cells"] += out.values.size

    def prices(counts, args, out):
        counts["demand.demand_curve.prices"] += out.prices.size

    spec = mods["marginals"].MarginalSpec
    out = [(spec, "cdf", "marginals.cdf", points("marginals.cdf_points", 1)),
           (spec, "ppf", "marginals.ppf", points("marginals.ppf_points", 1)),
           (spec, "sample", "marginals.ppf", None),
           (spec, "pdf", "marginals.pdf", None),
           (pops.RatioMarginalSpec, "ppf", "populations.ratio_ppf", None)]
    for cls in (pops.PointMassPopulation, pops.ProductPopulation,
                pops.IndependentPopulation, pops.RatioConditionalPopulation,
                pops.MixturePopulation):
        out.append((cls, "_quality_profile", "populations.quality_profile",
                    None))
    out += [(pops, "sample", "populations.sample", None),
            (pops, "moments", "populations.moments", None),
            (mods["quadrature"], "solve_crossings",
             "quadrature.solve_crossings", crossings),
            (mods["quadrature"], "segmented_gl", "quadrature.segmented_gl",
             nodes),
            (mods["quadrature"], "integrate", "quadrature.integrate", None)]
    dm = mods["demand"]
    out += [(dm, "quality_demand_surface", "demand.quality_demand_surface",
             cells),
            (dm, "demand_curve", "demand.demand_curve", prices),
            (dm, "invert_demand", "demand.invert_demand", None)]
    for cls in (dm.DemandCurve, dm.RatioCdfTable, dm.QualityDemandSurface):
        out.append((cls, "to_csv", "demand.to_csv", None))
    for fn in ("slice_from_surface", "pava", "slice_moments",
               "recover_from_slice_moments", "verify_recovery"):
        out.append((mods["identification"], fn, f"identification.{fn}",
                    None))
    out += [(mods["inequality"], "classify", "inequality.classify", None),
            (mods["inequality"], "build_nonid_demo",
             "inequality.build_nonid_demo", None),
            (mods["scenario"], "load_scenario", "scenario.load_scenario",
             None)]
    return out


def _bindings(owner, attr):
    """Every (namespace, name) where the object ``owner.attr`` is bound.

    Classes are patched in place; module functions also at each by-name
    import in a loaded demandlab module.
    """
    if isinstance(owner, type):
        return [(owner, attr)]
    obj = getattr(owner, attr)
    found = []
    for name, mod in list(sys.modules.items()):
        if name == "demandlab" or name.startswith("demandlab."):
            for key, value in list(vars(mod).items()):
                if value is obj:
                    found.append((mod, key))
    return found


class Tracer:
    """In-memory spans and counts for one traced round or more."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = perf_counter()

    def wrap(self, fn, name: str, counter):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if counter is not None:
                counter(counts, args, out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, counter in _targets():
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                wrapped = self.wrap(original, name, counter)
                for ns, key in _bindings(owner, attr):
                    saved.append((ns, key, original))
                    setattr(ns, key, wrapped)
            yield self
        finally:
            for ns, key, original in reversed(saved):
                setattr(ns, key, original)

    def summary(self, rounds: int) -> dict:
        """Self time, calls and counts per round, keyed by metric name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - child[i]
            calls[name] += 1
        out = {}
        for span in SPANS:
            out[self_metric(span)] = self_time[span] / rounds
            out[f"{span}.calls"] = calls[span] / rounds
        for key in COUNTS:
            out[key] = self.counts[key] / rounds
        rows = self.counts["quadrature.solve_crossings.rows"]
        out["quadrature.solve_crossings.useful_ratio"] = (
            self.counts["useful_rows"] / rows if rows else 0.0)
        verify = sum(end - start for name, start, end, _ in self.spans
                     if name == "identification.verify_recovery")
        out["identification.pava_share"] = (
            self_time["identification.pava"] / verify if verify else 0.0)
        identify = calls["cli.main.identify"]
        out["cli.identify.surface_builds"] = (
            calls["demand.quality_demand_surface"] / identify
            if identify else 0.0)
        return out


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_times(python: str, env: dict, cwd, repeats: int = 3) -> dict:
    """Median import-layer times from ``python -X importtime``."""
    samples = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import demandlab"],
            env=env, cwd=cwd, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, check=True)
        cumulative, own = {}, 0
        for line in proc.stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if not match:
                continue
            self_us, cum_us, module = match.groups()
            cumulative.setdefault(module, int(cum_us))
            if module == "demandlab" or module.startswith("demandlab."):
                own += int(self_us)
        samples["import.total_s"].append(cumulative["demandlab"] / 1e6)
        samples["import.scipy_special_s"].append(
            cumulative.get("scipy.special", 0) / 1e6)
        samples["import.numpy_s"].append(cumulative.get("numpy", 0) / 1e6)
        samples["import.demandlab_self_s"].append(own / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}
