"""Scenario documents: validated JSON in, populations and configs out.

A scenario is one JSON object describing a population plus whatever the
invoked pipeline needs (grids, identification window, demo offsets,
sample size).  Validation is strict: unknown keys anywhere are errors,
and every message carries the dotted path of the offending field so CLI
users can find it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import BoundViolation, ScenarioError
from .identification import IdentificationConfig
from .inequality import GAP_TOL
from .marginals import MarginalSpec
from .populations import (ConditionalSpec, IndependentPopulation,
                          MixturePopulation, PointMassPopulation, Population,
                          ProductPopulation, RatioConditionalPopulation,
                          RatioMarginalSpec, make_high_population,
                          make_low_population)

TOP_KEYS = {"population", "grids", "identification", "outputs",
            "seed", "nonid", "sample"}


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    return obj


def _check_keys(obj: dict, path: str, allowed: set, required: set = frozenset()):
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(
            f"{path}: unknown key(s) {sorted(unknown)}; allowed: "
            f"{sorted(allowed)}")
    missing = required - set(obj)
    if missing:
        raise ScenarioError(f"{path}: missing required key(s) "
                            f"{sorted(missing)}")


def _number(obj: dict, key: str, path: str, *, positive=False,
            nonnegative=False):
    if key not in obj:
        raise ScenarioError(f"{path}.{key}: missing required number")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{path}.{key}: expected a number, got {v!r}")
    v = float(v)
    if not np.isfinite(v):
        raise ScenarioError(f"{path}.{key}: must be finite")
    if positive and v <= 0.0:
        raise ScenarioError(f"{path}.{key}: must be > 0")
    if nonnegative and v < 0.0:
        raise ScenarioError(f"{path}.{key}: must be >= 0")
    return v


def _integer(obj: dict, key: str, path: str, *, default=None, minimum=None):
    if key not in obj:
        if default is not None:
            return default
        raise ScenarioError(f"{path}.{key}: missing required integer")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{path}.{key}: expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ScenarioError(f"{path}.{key}: must be >= {minimum}")
    return v


def _present(obj: dict, path: str, parsers: dict) -> dict:
    """Parse the keys of ``parsers`` that ``obj`` holds.

    Absent keys are left out, so the config class the result is passed
    to supplies its own defaults.
    """
    return {key: parse(obj, key, path) for key, parse in parsers.items()
            if key in obj}


def _string(obj: dict, key: str, path: str, *, choices=None):
    if key not in obj:
        raise ScenarioError(f"{path}.{key}: missing required string")
    v = obj[key]
    if not isinstance(v, str):
        raise ScenarioError(f"{path}.{key}: expected a string, got {v!r}")
    if choices is not None and v not in choices:
        raise ScenarioError(f"{path}.{key}: expected one of "
                            f"{sorted(choices)}, got {v!r}")
    return v


def _pairs(obj: dict, key: str, path: str) -> np.ndarray:
    v = obj.get(key)
    if (not isinstance(v, list) or len(v) < 2
            or not all(isinstance(row, list) and len(row) == 2
                       and all(isinstance(x, (int, float))
                               and not isinstance(x, bool) for x in row)
                       for row in v)):
        raise ScenarioError(
            f"{path}.{key}: expected a list of [x, y] number pairs")
    return np.asarray(v, dtype=float)


def marginal_from_dict(obj, path: str) -> MarginalSpec:
    obj = _require_mapping(obj, path)
    kind = _string(obj, "kind", path,
                   choices={"point_mass", "uniform", "beta", "tabulated"})
    try:
        if kind == "point_mass":
            _check_keys(obj, path, {"kind", "value"}, {"value"})
            return MarginalSpec.point_mass(_number(obj, "value", path,
                                                   positive=True))
        if kind == "uniform":
            _check_keys(obj, path, {"kind", "lo", "hi"}, {"lo", "hi"})
            return MarginalSpec.uniform(_number(obj, "lo", path),
                                        _number(obj, "hi", path))
        if kind == "beta":
            _check_keys(obj, path, {"kind", "alpha", "beta", "lo", "hi"},
                        {"alpha", "beta", "lo", "hi"})
            return MarginalSpec.scaled_beta(
                _number(obj, "alpha", path, positive=True),
                _number(obj, "beta", path, positive=True),
                _number(obj, "lo", path), _number(obj, "hi", path))
        _check_keys(obj, path, {"kind", "table"}, {"table"})
        table = _pairs(obj, "table", path)
        return MarginalSpec.tabulated(table[:, 0], table[:, 1])
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def ratio_from_dict(obj, path: str) -> RatioMarginalSpec:
    obj = _require_mapping(obj, path)
    kind = _string(obj, "kind", path,
                   choices={"uniform", "triangular", "tabulated"})
    try:
        if kind in ("uniform", "triangular"):
            _check_keys(obj, path, {"kind", "r_lo", "r_hi"},
                        {"r_lo", "r_hi"})
            lo = _number(obj, "r_lo", path, nonnegative=True)
            hi = _number(obj, "r_hi", path, positive=True)
            maker = (RatioMarginalSpec.uniform if kind == "uniform"
                     else RatioMarginalSpec.triangular)
            return maker(lo, hi)
        _check_keys(obj, path, {"kind", "table"}, {"table"})
        table = _pairs(obj, "table", path)
        return RatioMarginalSpec.tabulated(table[:, 0], table[:, 1])
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _conditional_kwargs(obj: dict, path: str) -> dict:
    out = {}
    if "epsilon_rule" in obj:
        rule = _require_mapping(obj["epsilon_rule"], f"{path}.epsilon_rule")
        kind = _string(rule, "kind", f"{path}.epsilon_rule",
                       choices={"half_mean", "fixed"})
        out["epsilon_kind"] = kind
        if kind == "fixed":
            _check_keys(rule, f"{path}.epsilon_rule", {"kind", "value"},
                        {"value"})
            out["epsilon_value"] = _number(rule, "value",
                                           f"{path}.epsilon_rule",
                                           positive=True)
        else:
            _check_keys(rule, f"{path}.epsilon_rule", {"kind"})
    if "sigma_multiplier" in obj:
        out["sigma_multiplier"] = _number(obj, "sigma_multiplier", path,
                                          positive=True)
    return out


def population_from_dict(obj, path: str = "population") -> Population:
    obj = _require_mapping(obj, path)
    form = _string(obj, "form", path,
                   choices={"point_mass", "product", "independent",
                            "ratio_conditional", "mixture"})
    try:
        if form == "point_mass":
            _check_keys(obj, path, {"form", "vk", "vm"}, {"vk", "vm"})
            return PointMassPopulation(_number(obj, "vk", path,
                                               nonnegative=True),
                                       _number(obj, "vm", path,
                                               positive=True))
        if form == "product":
            _check_keys(obj, path, {"form", "ratio", "vm"}, {"ratio", "vm"})
            return ProductPopulation(
                ratio_from_dict(obj["ratio"], f"{path}.ratio"),
                marginal_from_dict(obj["vm"], f"{path}.vm"))
        if form == "independent":
            _check_keys(obj, path, {"form", "vk", "vm"}, {"vk", "vm"})
            return IndependentPopulation(
                marginal_from_dict(obj["vk"], f"{path}.vk"),
                marginal_from_dict(obj["vm"], f"{path}.vm"))
        if form == "ratio_conditional":
            return _ratio_conditional_from_dict(obj, path)
        _check_keys(obj, path, {"form", "components"}, {"components"})
        comps = obj["components"]
        if not isinstance(comps, list) or not comps:
            raise ScenarioError(
                f"{path}.components: expected a nonempty list")
        parsed = []
        for i, comp in enumerate(comps):
            cpath = f"{path}.components[{i}]"
            comp = _require_mapping(comp, cpath)
            _check_keys(comp, cpath, {"weight", "population"},
                        {"weight", "population"})
            parsed.append((_number(comp, "weight", cpath, positive=True),
                           population_from_dict(comp["population"],
                                                f"{cpath}.population")))
        return MixturePopulation(tuple(parsed))
    except (ValueError, BoundViolation) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _ratio_conditional_from_dict(obj: dict, path: str) -> Population:
    allowed = {"form", "ratio", "family", "delta", "h_table",
               "epsilon_rule", "sigma_multiplier"}
    _check_keys(obj, path, allowed, {"ratio", "family"})
    ratio = ratio_from_dict(obj["ratio"], f"{path}.ratio")
    family = _string(obj, "family", path, choices={"low", "high", "custom"})
    kwargs = _conditional_kwargs(obj, path)
    if family in ("low", "high"):
        if "h_table" in obj:
            raise ScenarioError(f"{path}.h_table: only valid for the "
                                "custom family")
        delta = _number(obj, "delta", path, positive=True)
        maker = make_low_population if family == "low" else \
            make_high_population
        return maker(ratio, delta, **kwargs)
    if "delta" in obj:
        raise ScenarioError(f"{path}.delta: only valid for the low/high "
                            "families")
    table = _pairs(obj, "h_table", path)
    from .marginals import PwLinearTable
    cond = ConditionalSpec("custom",
                           h_table=PwLinearTable.raw(table[:, 0],
                                                     table[:, 1]),
                           **kwargs)
    return RatioConditionalPopulation(ratio, cond)


@dataclass(frozen=True)
class GridSpec:
    """Deferred grid recipe, resolved at use time.

    ``resolve_prices`` needs only a ``support``, so it takes a population
    or a ratio marginal alike.
    """

    kind: str
    n: int = 257
    lo: float | None = None
    hi: float | None = None
    values: tuple | None = None

    def resolve_prices(self, pop: Population) -> np.ndarray:
        from .demand import default_price_grid
        from .identification import chebyshev_prices
        if self.kind == "default":
            return default_price_grid(pop, self.n)
        if self.kind == "linspace":
            return np.linspace(self.lo, self.hi, self.n)
        if self.kind == "chebyshev":
            return chebyshev_prices(self.lo, self.hi, self.n)
        return np.asarray(self.values, dtype=float)


def _grid_from_dict(obj, path: str, default_n: int) -> GridSpec:
    obj = _require_mapping(obj, path)
    kind = _string(obj, "kind", path,
                   choices={"default", "linspace", "chebyshev", "explicit"})
    if kind == "default":
        _check_keys(obj, path, {"kind", "n"})
        return GridSpec("default", _integer(obj, "n", path,
                                            default=default_n, minimum=2))
    if kind in ("linspace", "chebyshev"):
        _check_keys(obj, path, {"kind", "n", "lo", "hi"}, {"lo", "hi"})
        lo = _number(obj, "lo", path, positive=True)
        hi = _number(obj, "hi", path, positive=True)
        if hi <= lo:
            raise ScenarioError(f"{path}: need lo < hi")
        return GridSpec(kind, _integer(obj, "n", path, default=default_n,
                                       minimum=2), lo, hi)
    _check_keys(obj, path, {"kind", "values"}, {"values"})
    vals = obj["values"]
    if (not isinstance(vals, list) or len(vals) < 2
            or not all(isinstance(x, (int, float))
                       and not isinstance(x, bool) for x in vals)):
        raise ScenarioError(f"{path}.values: expected >= 2 numbers")
    arr = np.asarray(vals, dtype=float)
    if np.any(arr <= 0.0) or np.any(np.diff(arr) <= 0.0):
        raise ScenarioError(f"{path}.values: must be positive and "
                            "strictly increasing")
    return GridSpec("explicit", n=arr.size, values=tuple(float(x)
                                                         for x in arr))


@dataclass(frozen=True)
class NonIdConfig:
    ratio: RatioMarginalSpec
    delta_low: float
    delta_high: float
    tol: float = GAP_TOL
    mc_draws: int | None = None


@dataclass(frozen=True)
class Scenario:
    population: Population | None
    price_grid: GridSpec | None
    identification: IdentificationConfig | None
    nonid: NonIdConfig | None
    sample_n: int
    out_dir: str | None
    seed: int


def scenario_from_dict(doc) -> Scenario:
    doc = _require_mapping(doc, "scenario")
    _check_keys(doc, "scenario", TOP_KEYS)

    population = None
    if "population" in doc:
        population = population_from_dict(doc["population"])

    price_grid = None
    if "grids" in doc:
        grids = _require_mapping(doc["grids"], "grids")
        _check_keys(grids, "grids", {"prices"})
        if "prices" in grids:
            price_grid = _grid_from_dict(grids["prices"], "grids.prices",
                                         257)

    ident = None
    if "identification" in doc:
        ident = _identification_from_dict(doc["identification"])

    nonid = None
    if "nonid" in doc:
        nonid = _nonid_from_dict(doc["nonid"])

    sample_n = 10000
    if "sample" in doc:
        sobj = _require_mapping(doc["sample"], "sample")
        _check_keys(sobj, "sample", {"n"}, {"n"})
        sample_n = _integer(sobj, "n", "sample", minimum=1)

    out_dir = None
    if "outputs" in doc:
        oobj = _require_mapping(doc["outputs"], "outputs")
        _check_keys(oobj, "outputs", {"dir"}, {"dir"})
        out_dir = _string(oobj, "dir", "outputs")

    seed = _integer(doc, "seed", "scenario", default=0, minimum=0)

    return Scenario(population, price_grid, ident, nonid, sample_n,
                    out_dir, seed)


def _span(obj: dict, key: str, path: str) -> tuple:
    raw = obj[key]
    if (not isinstance(raw, list) or len(raw) != 2
            or not all(isinstance(x, (int, float))
                       and not isinstance(x, bool) for x in raw)):
        raise ScenarioError(f"{path}.{key}: expected [lo, hi]")
    return float(raw[0]), float(raw[1])


_IDENTIFICATION_KEYS = {
    "quality_span": _span,
    "price_lo": partial(_number, positive=True),
    "price_hi": partial(_number, positive=True),
    "n_prices": partial(_integer, minimum=1),
    "max_order": partial(_integer, minimum=1),
    "n_quality": partial(_integer, minimum=16),
    "tail_bound": partial(_number, positive=True)}

_NONID_KEYS = {
    "delta_low": partial(_number, positive=True),
    "delta_high": partial(_number, positive=True),
    "tol": partial(_number, nonnegative=True),
    "mc_draws": partial(_integer, minimum=1)}


def _identification_from_dict(obj) -> IdentificationConfig:
    obj = _require_mapping(obj, "identification")
    _check_keys(obj, "identification", set(_IDENTIFICATION_KEYS),
                {"price_lo", "price_hi"})
    kwargs = _present(obj, "identification", _IDENTIFICATION_KEYS)
    try:
        return IdentificationConfig(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"identification: {exc}") from exc


def _nonid_from_dict(obj) -> NonIdConfig:
    obj = _require_mapping(obj, "nonid")
    _check_keys(obj, "nonid", {"ratio", *_NONID_KEYS},
                {"ratio", "delta_low", "delta_high"})
    return NonIdConfig(ratio=ratio_from_dict(obj["ratio"], "nonid.ratio"),
                       **_present(obj, "nonid", _NONID_KEYS))


def load_scenario(path: str):
    """Parse a scenario file; returns (Scenario, sha256 hex of the bytes)."""
    import hashlib
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path!r}: {exc}")
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"scenario file {path!r} is not valid JSON: "
                            f"{exc}")
    return scenario_from_dict(doc), digest
