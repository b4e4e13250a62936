"""Command-line front end: scenario file in, CSV/JSON artifacts out.

Exit codes: 0 success, 2 input/scenario error, 3 numeric failure,
4 demonstration-assertion failure.  Every JSON report embeds the
scenario file's sha256 and the library version; files are written
atomically (temp file + rename), with the mode ``open`` would give a new
file, and reruns of the same scenario and seed are byte-identical.
"""

from __future__ import annotations

import argparse
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


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _envelope(command: str, digest: str, body: dict) -> dict:
    out = {"command": command, "scenario_sha256": digest,
           "version": __version__}
    out.update(body)
    return out


def _require(value, name: str):
    if value is None:
        raise ScenarioError(f"scenario is missing the {name!r} section "
                            f"required by this command")
    return value


def _price_grid(scenario, pop) -> np.ndarray:
    if scenario.price_grid is not None:
        return scenario.price_grid.resolve_prices(pop)
    return default_price_grid(pop)


def cmd_demand(scenario, digest: str, out_dir: str) -> int:
    pop = _require(scenario.population, "population")
    curve = demand_curve(pop, _price_grid(scenario, pop))
    table = invert_demand(curve)
    _atomic_write(os.path.join(out_dir, "demand.csv"), curve.to_csv())
    _atomic_write(os.path.join(out_dir, "ratio_cdf.csv"), table.to_csv())
    return EXIT_OK


def cmd_classify(scenario, digest: str, out_dir: str) -> int:
    pop = _require(scenario.population, "population")
    report = ineq_mod.classify(pop)
    payload = _envelope("classify", digest, report.to_json_dict())
    _atomic_write(os.path.join(out_dir, "inequality.json"),
                  _json_text(payload))
    return EXIT_OK


def cmd_nonid(scenario, digest: str, out_dir: str) -> int:
    cfg = _require(scenario.nonid, "nonid")
    # Both twins share cfg.ratio, so its support fixes the price grid.
    demo = ineq_mod.build_nonid_demo(cfg.ratio, cfg.delta_low,
                                     cfg.delta_high,
                                     _price_grid(scenario, cfg.ratio),
                                     cfg.tol, cfg.mc_draws, scenario.seed)
    payload = _envelope("nonid", digest, demo.to_json_dict())
    _atomic_write(os.path.join(out_dir, "nonid_demo.json"),
                  _json_text(payload))
    _atomic_write(os.path.join(out_dir, "nonid_curves.csv"),
                  demo.curves_csv())
    return EXIT_OK


def cmd_identify(scenario, digest: str, out_dir: str) -> int:
    pop = _require(scenario.population, "population")
    config = _require(scenario.identification, "identification")
    report = ident_mod.verify_recovery(pop, config)
    _atomic_write(os.path.join(out_dir, "surface.csv"),
                  report.surface.to_csv())
    moments_payload = _envelope("identify", digest,
                                report.recovered.to_json_dict())
    _atomic_write(os.path.join(out_dir, "moments.json"),
                  _json_text(moments_payload))
    report_payload = _envelope("identify", digest, report.to_json_dict())
    _atomic_write(os.path.join(out_dir, "recovery_report.json"),
                  _json_text(report_payload))
    return EXIT_OK


def _sample_rows(draws: np.ndarray):
    """The text of samples.csv in blocks of CHUNK rows, byte for byte what
    ``csv_text`` gives for the whole draw: one block's text is held at a
    time."""
    yield "vk,vm\n"
    for start in range(0, draws.shape[0], CHUNK):
        block = draws[start:start + CHUNK]
        yield "".join(map("{},{}\n".format, csv_column(block[:, 0]),
                          csv_column(block[:, 1])))


def cmd_sample(scenario, digest: str, out_dir: str) -> int:
    pop = _require(scenario.population, "population")
    draws = pops.sample(pop, scenario.sample_n, scenario.seed)
    _atomic_write(os.path.join(out_dir, "samples.csv"), _sample_rows(draws))
    return EXIT_OK


COMMANDS = {"demand": cmd_demand, "nonid": cmd_nonid,
            "identify": cmd_identify, "classify": cmd_classify,
            "sample": cmd_sample}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demandlab",
        description="Demand curves, inequality classification, and "
                    "moment recovery from scenario files.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("demand", "tabulate the demand curve and implied ratio CDF"),
            ("nonid", "build the identical-demand twin-population demo"),
            ("identify", "recover cross-moments from the quality surface"),
            ("classify", "compute the same-side inequality report"),
            ("sample", "draw seeded consumers from the population")):
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
            scenario = _replace_seed(scenario, args.seed)
        out_dir = args.out or scenario.out_dir or "."
        return COMMANDS[args.command](scenario, digest, out_dir)
    except DemandLabError as exc:
        print(f"{_PREFIX[exc.exit_code]} ({args.command}): {exc}",
              file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_INPUT


def _replace_seed(scenario, seed: int):
    from dataclasses import replace
    return replace(scenario, seed=seed)


if __name__ == "__main__":
    sys.exit(main())
