"""demandlab benchmark: four closed-loop workloads, one caller at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> \\
        --seconds <s> --trace <0|1>

``--trace 0`` times whole rounds of operations with tracing off, scaled
to a reference machine speed (see ``bench_workloads.calibrate``), and
reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1`` runs one
untraced warm-up round, then alternates a traced and an untraced round of
the same operations (in-process CLI calls for cli_demos).  It reports the
per-layer metrics: self time, calls and work counts per traced round, the
import layers, and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs the four workloads in turn, each in its own
process, and prefixes each metric with its workload.

Exit codes: 0 after a complete run (failed operations are counted, not
fatal), 2 when the checkout lacks the program or the benchmark's own
files disagree.
"""

from __future__ import annotations

import os

# One caller on one thread: BLAS/OpenMP pools would only add noise, and
# the linear solves here are a few 9 x 5 systems.  Set before numpy loads;
# CLI and set-up children inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
# cli_demos needs two rounds so the second can be checked against the first.
MIN_ROUNDS = {"cli_demos": 2}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import demandlab from this checkout's src/, and nothing else."""
    if not (SRC / "demandlab" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'demandlab'} is missing")
    if not (ROOT / "demos" / "scenarios").is_dir():
        fail("demos/scenarios is missing")
    sys.path.insert(0, str(SRC))
    import demandlab
    if Path(demandlab.__file__).resolve().parent != SRC / "demandlab":
        fail(f"imported demandlab from {demandlab.__file__}")


def declared_metrics() -> dict:
    """Metric names of BENCHMARK.json, keyed by section."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Run:
    """One workload at one seed: its inputs, operations and tallies.

    The bench_* modules import demandlab, so they are imported only after
    ``load_program`` has put this checkout's src/ first on the path.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        import bench_inputs
        import bench_workloads
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.inputs = bench_inputs.build(workload, seed, ROOT)
        self.records = []
        self.ref_setup_s = []
        self.failures = []
        self.ref_round_s = []
        self.wall_round_s = []
        self.wall_setup_s = []
        self.cli = None
        if workload == "cli_demos":
            self.cli = bench_workloads.CliRunner(
                self.inputs, ROOT, WORKDIR / str(os.getpid()),
                sys.executable, child_env())
        elif workload == "market_sim":
            self.ops = bench_workloads.market_ops(self.inputs)
        else:
            self.ops = bench_workloads.identify_ops(self.inputs)

    def round(self, ops) -> float:
        """Run one round; returns its time scaled to the reference speed."""
        import bench_workloads
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stderr(sink):
            records = bench_workloads.run_round(ops)
        self.records += records
        self.failures += [r.failure for r in records if r.failure]
        self.wall_round_s.append(sum(r.seconds for r in records))
        return sum(r.ref_seconds for r in records)

    def loop(self, step, min_rounds: int = 1, start: float | None = None):
        """Repeat ``step`` while another one fits in ``self.seconds``.

        The budget counts from ``start``, by default from now.
        """
        start = perf_counter() if start is None else start
        done = 0
        while True:
            t0 = perf_counter()
            step()
            done += 1
            now = perf_counter()
            if done >= min_rounds and now - start + (now - t0) > self.seconds:
                break

    # -- untraced ------------------------------------------------------

    def untraced(self) -> dict:
        ops = self.cli.ops(in_process=False) if self.cli else self.ops

        def step():
            self.ref_round_s.append(self.round(ops))
            if len(self.ref_setup_s) < SETUP_REPEATS:
                self.setup_probe()

        self.loop(step, MIN_ROUNDS.get(self.workload, 1))
        while len(self.ref_setup_s) < SETUP_REPEATS:
            self.setup_probe()
        rss_kib = (self.cli.peak_rss_kib if self.cli else
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return {"setup_s": statistics.median(self.ref_setup_s),
                "round_ref_s": statistics.median(self.ref_round_s),
                "peak_rss_mb": rss_kib / 1024.0}

    def setup_probe(self) -> None:
        """Time one set-up probe from spawn to exit, at reference speed.

        Probes run between rounds, so the median samples the machine at
        several moments of the run rather than one.
        """
        import bench_workloads
        probe = [sys.executable, str(ROOT / "perfbench" / "bench_setup.py"),
                 self.workload, str(self.seed)]
        before = bench_workloads.calibrate()
        start = perf_counter()
        code, _ = bench_workloads.run_child(probe, cwd=ROOT, env=child_env())
        self.wall_setup_s.append(perf_counter() - start)
        speed = (2.0 * bench_workloads.CALIB_REF_S
                 / (before + bench_workloads.calibrate()))
        self.ref_setup_s.append(self.wall_setup_s[-1] * speed)
        if code != 0:
            self.failures.append(f"setup probe exited with {code}")

    # -- traced --------------------------------------------------------

    def traced(self) -> dict:
        import bench_trace
        tracer = bench_trace.Tracer()
        plain, traced, warned = [], [], [0]
        if self.cli:
            plain_ops = self.cli.ops(in_process=True)
            traced_ops = self.cli.ops(in_process=True, tracer=tracer)
        else:
            plain_ops = traced_ops = self.ops

        def pair():
            with warnings.catch_warnings(record=True) as caught, \
                    tracer.installed():
                warnings.simplefilter("always")
                traced.append(self.round(traced_ops))
            warned[0] += sum(issubclass(w.category, RuntimeWarning)
                             for w in caught)
            plain.append(self.round(plain_ops))

        # The first round of a process also pays one-time costs (allocator
        # growth, lazy caches); keep them out of the tracing overhead.
        start = perf_counter()
        self.round(plain_ops)
        self.loop(pair, start=start)
        self.ref_round_s = traced
        rounds = len(traced)
        out = tracer.summary(rounds)
        out.update(bench_trace.import_times(sys.executable, child_env(),
                                            ROOT, IMPORT_REPEATS))
        untraced_s = statistics.median(plain)
        traced_s = statistics.median(traced)
        out.update({"quadrature.runtime_warnings": warned[0] / rounds,
                    "trace.untraced_round_ref_s": untraced_s,
                    "trace.traced_round_ref_s": traced_s,
                    "trace.overhead_ref_s": traced_s - untraced_s,
                    "trace.overhead_ratio": (traced_s - untraced_s)
                    / untraced_s})
        return out

    # -- report --------------------------------------------------------

    def report(self) -> list:
        """(name, value, unit, samples) rows of the workload's own figures.

        These are wall times, unscaled: the per-operation figures that are
        not end-to-end metrics of every workload, such as ``recovery_s``,
        the unscaled round and set-up times, and the machine's speed
        relative to the reference.
        """
        recs = self.records
        rows = []

        def median_of(kind, name, label=None):
            times = [r.seconds for r in recs if r.kind == kind
                     and (label is None or r.label == label)]
            if times:
                rows.append((name, statistics.median(times), "s",
                             len(times)))

        def rate_of(kind, name, unit):
            sel = [r for r in recs if r.kind == kind]
            if sel:
                rows.append((name, sum(r.items for r in sel)
                             / sum(r.seconds for r in sel), unit, len(sel)))

        median_of("recovery", "recovery_s")
        if self.workload.startswith("identify"):
            for label in self.inputs.pops:
                median_of("recovery", f"recovery_s[{label}]", label)
        rate_of("sample", "sample_draws_per_s", "draws/s")
        rate_of("demand", "demand_prices_per_s", "prices/s")
        median_of("nonid", "nonid_demo_s")
        median_of("cli_call", "cli_call_s")
        median_of("cli_identify", "cli_identify_s")
        rows += [("round_wall_s", statistics.median(self.wall_round_s), "s",
                  len(self.wall_round_s)),
                 ("setup_wall_s", statistics.median(self.wall_setup_s), "s",
                  len(self.wall_setup_s)),
                 ("machine_speed", statistics.median(r.speed for r in recs),
                  "ratio", len(recs))]
        return rows + [self.failed_frac()]

    def failed_frac(self) -> tuple:
        return ("failed_frac", len(self.failures) / self.attempted, "ratio",
                self.attempted)

    @property
    def attempted(self) -> int:
        return len(self.records) + len(self.ref_setup_s)


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            declared: dict) -> dict:
    run = Run(workload, seed, seconds)
    metrics = run.traced() if trace else run.untraced()
    section = "per_layer" if trace else "end_to_end"
    units = declared[section]
    if set(metrics) != set(units):
        fail(f"{section} metrics differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ set(units))}")
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"rounds {len(run.ref_round_s)}  attempted {run.attempted}  "
          f"failed {len(run.failures)}")
    print(f"  inputs {run.inputs.params}")
    samples = {"setup_s": SETUP_REPEATS, "peak_rss_mb": 1}
    rows = [(n, v, units[n], samples.get(
        n, IMPORT_REPEATS if n.startswith("import.") else len(run.ref_round_s)))
            for n, v in metrics.items()]
    rows += [run.failed_frac()] if trace else run.report()
    for name, value, unit, samples in rows:
        print(f"  {name:<46} {value:>16.6g} {unit:<9} n={samples}")
    for message in run.failures[:20]:
        print(f"  FAILED {message}")
    return {"correct": not run.failures, "attempted": run.attempted,
            "failed": len(run.failures),
            "metrics": {n: {"value": v, "unit": units[n]}
                        for n, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    declared = declared_metrics()
    load_program()
    import bench_inputs
    if args.workload == "all":
        final = run_all(bench_inputs.WORKLOADS, args)
    elif args.workload in bench_inputs.WORKLOADS:
        try:
            final = run_one(args.workload, args.seed, args.seconds,
                            bool(args.trace), declared)
        finally:
            shutil.rmtree(WORKDIR / str(os.getpid()), ignore_errors=True)
            with contextlib.suppress(OSError):
                WORKDIR.rmdir()
    else:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(bench_inputs.WORKLOADS)} or all")
    print(json.dumps(final), flush=True)
    return 0


def run_all(workloads, args) -> dict:
    """Each workload in its own process, so peak RSS stays its own."""
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        argv = ["--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, __file__, *argv], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        final["correct"] &= result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        final["metrics"].update({f"{name}.{n}": m for n, m
                                 in result["metrics"].items()})
    return final


if __name__ == "__main__":
    sys.exit(main())
