"""Command-line front end: scenario file in, CSV/JSON artifacts out.

Each subcommand is one row of ``COMMANDS``: its help text, the scenario
sections it needs, and a function that returns its artifacts by file
name.  One writer checks the sections, makes each dict body a JSON
report that embeds the command, the scenario file's sha256 and the
library version, and writes every file atomically (temp file + rename)
with the mode ``open`` would give a new file.  Reruns of the same
scenario and seed are byte-identical.  Exit codes: 0 success, 2
input/scenario error, 3 numeric failure, 4 demonstration-assertion
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .demand import (csv_column, default_price_grid, demand_curve,
                     invert_demand)
from . import identification as ident_mod
from . import inequality as ineq_mod
from . import populations as pops
from .errors import DemandLabError, ScenarioError
from .marginals import CHUNK
from .scenario import load_scenario

EXIT_OK = 0
EXIT_INPUT = 2
# stderr prefix for each DemandLabError.exit_code
_PREFIX = {EXIT_INPUT: "error", 3: "numeric failure", 4: "demo failure"}


def _atomic_write(path: str, text):
    """Write ``text``, a string or an iterable of strings written in
    turn, to ``path`` through a temp file and a rename."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        # mkstemp makes the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _price_grid(scenario, pop) -> np.ndarray:
    if scenario.price_grid is not None:
        return scenario.price_grid.resolve_prices(pop)
    return default_price_grid(pop)


def _demand(scenario) -> dict:
    pop = scenario.population
    curve = demand_curve(pop, _price_grid(scenario, pop))
    return {"demand.csv": curve.to_csv(),
            "ratio_cdf.csv": invert_demand(curve).to_csv()}


def _nonid(scenario) -> dict:
    cfg = scenario.nonid
    # Both twins share cfg.ratio, so its support fixes the price grid.
    demo = ineq_mod.build_nonid_demo(cfg.ratio, cfg.delta_low,
                                     cfg.delta_high,
                                     _price_grid(scenario, cfg.ratio),
                                     cfg.tol, cfg.mc_draws, scenario.seed)
    return {"nonid_demo.json": demo.to_json_dict(),
            "nonid_curves.csv": demo.curves_csv()}


def _identify(scenario) -> dict:
    report = ident_mod.verify_recovery(scenario.population,
                                       scenario.identification)
    return {"surface.csv": report.surface.to_csv(),
            "moments.json": report.recovered.to_json_dict(),
            "recovery_report.json": report.to_json_dict()}


def _sample_rows(draws: np.ndarray):
    """The text of samples.csv in blocks of CHUNK rows, byte for byte what
    ``csv_text`` gives for the whole draw: one block's text is held at a
    time."""
    yield "vk,vm\n"
    for start in range(0, draws.shape[0], CHUNK):
        block = draws[start:start + CHUNK]
        yield "".join(map("{},{}\n".format, csv_column(block[:, 0]),
                          csv_column(block[:, 1])))


# name -> (help text, scenario sections it needs, artifacts by file name
# in write order).  A dict is a JSON report; any other body is the file's
# text or an iterable of text.
COMMANDS = {
    "demand": ("tabulate the demand curve and implied ratio CDF",
               ("population",), _demand),
    "nonid": ("build the identical-demand twin-population demo",
              ("nonid",), _nonid),
    "identify": ("recover cross-moments from the quality surface",
                 ("population", "identification"), _identify),
    "classify": ("compute the same-side inequality report", ("population",),
                 lambda scn: {"inequality.json": ineq_mod.classify(
                     scn.population).to_json_dict()}),
    "sample": ("draw seeded consumers from the population", ("population",),
               lambda scn: {"samples.csv": _sample_rows(
                   pops.sample(scn.population, scn.sample_n, scn.seed))}),
}


def _write_artifacts(command: str, scenario, digest: str, out_dir: str):
    """Check the sections ``command`` needs, then write its artifacts."""
    _, sections, artifacts = COMMANDS[command]
    for section in sections:
        if getattr(scenario, section) is None:
            raise ScenarioError(f"scenario is missing the {section!r} "
                                f"section required by this command")
    for name, body in artifacts(scenario).items():
        if isinstance(body, dict):
            body = json.dumps({"command": command, "scenario_sha256": digest,
                               "version": __version__, **body},
                              indent=2, sort_keys=True) + "\n"
        _atomic_write(os.path.join(out_dir, name), body)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demandlab",
        description="Demand curves, inequality classification, and "
                    "moment recovery from scenario files.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True,
                       help="path to the scenario JSON file")
        p.add_argument("--out", default=None,
                       help="output directory (default: scenario outputs."
                            "dir, else current directory)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario, digest = load_scenario(args.scenario)
        if args.seed is not None:
            if args.seed < 0:
                raise ScenarioError("--seed must be >= 0")
            scenario = dataclasses.replace(scenario, seed=args.seed)
        _write_artifacts(args.command, scenario, digest,
                         args.out or scenario.out_dir or ".")
        return EXIT_OK
    except DemandLabError as exc:
        print(f"{_PREFIX[exc.exit_code]} ({args.command}): {exc}",
              file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
