"""The four workloads: one round of operations each, with their checks.

An operation is one call a user of demandlab makes: a ``verify_recovery``,
a ``sample`` or a demand curve, a twin demo, or one CLI subcommand.  Each
is timed on its own and checked afterwards, outside the timer.  A check
returns None when the output is correct and a reason when it is not; an
exception or a failed check counts the operation as failed and the round
goes on.

Operations look up every demandlab function through its module at call
time, so a round run under ``Tracer.installed()`` calls the wrappers.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import shutil
import subprocess
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np
from scipy.special import betainc

import bench_inputs as bi

identification = importlib.import_module("demandlab.identification")
inequality = importlib.import_module("demandlab.inequality")
populations = importlib.import_module("demandlab.populations")
demand = importlib.import_module("demandlab.demand")
cli = importlib.import_module("demandlab.cli")

CLI_ARTIFACTS = {
    "demand": ("demand.csv", "ratio_cdf.csv"),
    "classify": ("inequality.json",),
    "sample": ("samples.csv",),
    "nonid": ("nonid_curves.csv", "nonid_demo.json"),
    "identify": ("moments.json", "recovery_report.json", "surface.csv"),
}
# Half-width of the normal bands, in standard errors.
Z_BAND = 6.0
CHILD_TIMEOUT_S = 120
# Time of one calibration on the reference machine, in its faster state:
# one CPU of a 2-CPU x86-64 virtual machine with Python 3.11.7, NumPy 2.4.6
# and SciPy 1.17.1.
CALIB_REF_S = 0.026
_CALIB_SMALL = np.random.default_rng(0).random(100_000)
_CALIB_LARGE = np.random.default_rng(1).random(1_000_000)


def calibrate() -> float:
    """Seconds one fixed piece of work takes right now.

    On a shared host the CPU's speed drifts, by up to 1.7x in phases of
    seconds to tens of seconds on the reference machine.  Each operation's
    time is therefore scaled by CALIB_REF_S over the mean of the
    calibrations just before and just after it.  The work mixes what the
    program does, in about equal shares: a scipy special function, a NumPy
    sort and an interpreted loop on data that fits a core's L2 cache, and
    arithmetic into freshly allocated 8 MB arrays, which does not.  It
    never calls demandlab, so no change to the program can move it.
    """
    start = perf_counter()
    betainc(2.0, 3.0, _CALIB_SMALL)
    np.sort(_CALIB_SMALL)
    acc = 0
    for i in range(50_000):
        acc += i
    for _ in range(10):
        _CALIB_LARGE * 1.0001 + _CALIB_LARGE
    return perf_counter() - start


# The first call pays one-time costs (page faults, scipy's dispatch).
calibrate()


@dataclass
class Op:
    """One timed call and the check of its result."""

    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    items: int = 1
    prepare: Callable[[], None] | None = None


def _rel_error(recovered, reference) -> float:
    worst = 0.0
    for key in reference.keys():
        if key != (0, 0):
            denom = max(abs(reference[key]), 1e-12)
            worst = max(worst, abs(recovered[key] - reference[key]) / denom)
    return worst


def _recovery_check(name, reference, bound, tail_bound):
    def check(report):
        err = _rel_error(report.recovered, reference)
        if not err <= bound:
            return f"{name}: recovered moments off by {err:.3g} > {bound:g}"
        if not report.tail_mass <= tail_bound:
            return f"{name}: tail mass {report.tail_mass:.3g}"
        return None
    return check


def identify_ops(inputs: bi.Inputs) -> list:
    """One ``verify_recovery`` per population of the workload."""
    config = inputs.config
    ops = []
    for name, pop in inputs.pops.items():
        reference = populations.moments(pop, config.max_order)
        ops.append(Op(
            "recovery", name,
            lambda pop=pop: identification.verify_recovery(pop, config),
            _recovery_check(name, reference, bi.RECOVERY_BOUND[name],
                            config.tail_bound)))
    return ops


def _sample_check(name, reference, ratios: dict):
    """Cross moments up to order 2 within a CLT band; keeps the ratios."""
    def check(draws):
        if draws.shape != (bi.N_DRAWS, 2) or not np.all(draws[:, 1] > 0.0):
            return f"{name}: malformed draws"
        n = draws.shape[0]
        for j, k in reference.keys():
            if j + k == 0:
                continue
            x = draws[:, 0] ** j * draws[:, 1] ** k
            gap = abs(float(x.mean()) - reference[(j, k)])
            band = Z_BAND * float(x.std()) / math.sqrt(n)
            if not gap <= band:
                return (f"{name}: sample E[vk^{j} vm^{k}] misses its CLT "
                        f"band by {gap:.3g} > {band:.3g}")
        ratios[name] = np.sort(draws[:, 0] / draws[:, 1])
        return None
    return check


def _demand_check(name, ratios: dict):
    """Curve against the empirical demand of the same form's draws."""
    def check(result):
        curve, table = result
        r = ratios.pop(name)
        n = r.size
        emp = (n - np.searchsorted(r, curve.prices, side="left")) / n
        d = curve.values
        band = Z_BAND * np.sqrt(np.maximum(d * (1.0 - d), 1.0 / n) / n)
        worst = float(np.max(np.abs(emp - d) - band))
        if not worst <= 0.0:
            return f"{name}: demand curve leaves its binomial band"
        if not (np.array_equal(table.r, curve.prices)
                and np.array_equal(table.G, 1.0 - d)):
            return f"{name}: inverted table is not 1 - D"
        return None
    return check


def nonid_tolerance(draws: int) -> float:
    """Gap two empirical demand curves of ``draws`` each stay within.

    Each lies within the DKW band of the shared true curve with
    probability 1 - MC_ALPHA, so their difference stays within twice it.
    """
    return 2.0 * math.sqrt(math.log(2.0 / bi.MC_ALPHA) / (2.0 * draws))


def _nonid_check(demo):
    if demo.low_report.regime != "low" or demo.high_report.regime != "high":
        return "nonid: regimes not split"
    if not (demo.curve_gap <= demo.tol and demo.mc_gap is not None
            and demo.mc_gap <= demo.tol):
        return "nonid: demand curves differ"
    return None


def market_ops(inputs: bi.Inputs) -> list:
    """Per form: 1e6 draws, then a 20k-price curve; then the twin demo."""
    ops = []
    ratios: dict = {}
    for name, pop in inputs.pops.items():
        seed = inputs.sample_seeds[name]
        reference = populations.moments(pop, 2)
        grid = demand.default_price_grid(pop, bi.N_PRICES)
        ops.append(Op("sample", name,
                      lambda pop=pop, seed=seed: populations.sample(
                          pop, bi.N_DRAWS, seed),
                      _sample_check(name, reference, ratios), bi.N_DRAWS))
        ops.append(Op("demand", name,
                      lambda pop=pop, grid=grid: _curve_and_table(pop, grid),
                      _demand_check(name, ratios), bi.N_PRICES))
    params = inputs.params
    tol = nonid_tolerance(bi.MC_DRAWS)
    ops.append(Op("nonid", "twins",
                  lambda: inequality.build_nonid_demo(
                      inputs.ratio, params["delta_low"],
                      params["delta_high"], None, tol, bi.MC_DRAWS,
                      inputs.sample_seeds["nonid"]),
                  _nonid_check))
    return ops


def _curve_and_table(pop, grid):
    curve = demand.demand_curve(pop, grid)
    return curve, demand.invert_demand(curve)


class CliRunner:
    """The 11 (subcommand, scenario) calls, in a subprocess or in-process.

    Every call writes into a fresh directory; its artifacts must hash to
    what the first call of the same pair wrote in this run.
    """

    def __init__(self, inputs: bi.Inputs, root: Path, workdir: Path,
                 python: str, env: dict):
        self.inputs = inputs
        self.root = root
        self.workdir = workdir
        self.python = python
        self.env = env
        self.digests: dict = {}
        self.peak_rss_kib = 0

    def _argv(self, cmd: str, scenario: str, out: Path) -> list:
        path = self.root / bi.SCENARIO_DIR / f"{scenario}.json"
        return [cmd, "--scenario", str(path), "--out", str(out),
                "--seed", str(self.inputs.cli_seed)]

    def ops(self, in_process: bool, tracer=None) -> list:
        out = []
        for cmd, scenario in bi.CLI_PAIRS:
            target = self.workdir / f"{cmd}-{scenario}"
            argv = self._argv(cmd, scenario, target)
            if in_process:
                call = self._in_process(cmd, argv, tracer)
            else:
                call = self._subprocess(argv)
            kind = "cli_identify" if cmd == "identify" else "cli_call"
            out.append(Op(kind, f"{cmd}:{scenario}", call,
                          self._check(cmd, scenario, target),
                          prepare=lambda target=target: _fresh_dir(target)))
        return out

    def _subprocess(self, argv):
        cmd = [self.python, "-m", "demandlab.cli", *argv]

        def call():
            code, rss = run_child(cmd, cwd=self.root, env=self.env)
            self.peak_rss_kib = max(self.peak_rss_kib, rss)
            return code
        return call

    def _in_process(self, cmd: str, argv, tracer):
        def call():
            if tracer is None:
                return cli.main(argv)
            with tracer.span(f"cli.main.{cmd}"):
                return cli.main(argv)
        return call

    def _check(self, cmd: str, scenario: str, target: Path):
        def check(code):
            if code != 0:
                return f"{cmd} {scenario}: exit code {code}"
            names = tuple(sorted(p.name for p in target.iterdir()))
            if names != CLI_ARTIFACTS[cmd]:
                return f"{cmd} {scenario}: artifacts {names}"
            digests = {name: hashlib.sha256(
                (target / name).read_bytes()).hexdigest() for name in names}
            first = self.digests.setdefault((cmd, scenario), digests)
            if digests != first:
                return f"{cmd} {scenario}: artifacts differ between calls"
            return None
        return check


def run_child(cmd, **popen_kwargs) -> tuple:
    """Exit code and peak RSS (KiB) of one child, output discarded.

    ``os.wait4`` reads the child's own resource usage, which the
    process-wide ``RUSAGE_CHILDREN`` maximum would mix with other children.
    A child still running after CHILD_TIMEOUT_S is killed.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, **popen_kwargs)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def _fresh_dir(target: Path) -> None:
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)


@dataclass
class Record:
    """One operation's wall time, the machine speed just before it, and
    its failure, if any."""

    kind: str
    label: str
    seconds: float
    speed: float
    items: int
    failure: str | None

    @property
    def ref_seconds(self) -> float:
        """Wall time scaled to the reference machine's speed."""
        return self.seconds * self.speed


def run_round(ops: list) -> list:
    """Run each operation once, in order; never raises for a failed one."""
    records = []
    before = calibrate()
    for op in ops:
        if op.prepare is not None:
            op.prepare()
        failure = None
        start = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed = perf_counter() - start
            failure = f"{op.kind} {op.label}: {type(exc).__name__}: {exc}"
        else:
            elapsed = perf_counter() - start
            try:
                failure = op.check(result)
            except Exception as exc:  # a check that cannot run is a failure
                failure = (f"{op.kind} {op.label}: check raised "
                           f"{type(exc).__name__}: {exc}")
            del result
        after = calibrate()
        records.append(Record(op.kind, op.label, elapsed,
                              2.0 * CALIB_REF_S / (before + after), op.items,
                              failure))
        before = after
    return records
