"""Scenario documents: validated JSON in, populations and configs out.

A scenario is one JSON object describing a population plus whatever the
invoked pipeline needs (grids, identification window, demo offsets,
sample size).  Validation is strict: unknown keys anywhere are errors,
and every message carries the dotted path of the offending field so CLI
users can find it.

One reader handles every object.  An object's table maps each of its
keys to a parser ``parse(obj, key, path)``; ``_fields`` checks the
object's keys against the table and parses the keys that are present.
An absent optional key is left out, so the class the fields build
supplies its default, and each default is written once, on that class.
An object with several shapes names its shape in a ``kind`` or ``form``
tag (a ``ratio_conditional`` population a second one, ``family``), and
``_tagged`` hands it to the reader of that shape.  A new scenario key is
one table row.  Each price-grid kind reads to its function pop -> prices.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .demand import default_price_grid
from .errors import BoundViolation, DegenerateRatio, ScenarioError
from .identification import IdentificationConfig, chebyshev_prices
from .inequality import GAP_TOL
from .marginals import MarginalSpec, PwLinearTable
from .populations import (ConditionalSpec, IndependentPopulation,
                          MixturePopulation, PointMassPopulation, Population,
                          ProductPopulation, RatioConditionalPopulation,
                          RatioMarginalSpec, make_high_population,
                          make_low_population)


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    return obj


def _check_keys(obj: dict, path: str, allowed: set, required: set):
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
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{path}.{key}: expected a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:  # an integer literal past float range
        v = np.inf
    if not np.isfinite(v):
        raise ScenarioError(f"{path}.{key}: must be finite")
    if positive and v <= 0.0:
        raise ScenarioError(f"{path}.{key}: must be > 0")
    if nonnegative and v < 0.0:
        raise ScenarioError(f"{path}.{key}: must be >= 0")
    return v


def _integer(obj: dict, key: str, path: str, *, minimum: int, maximum=np.inf):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{path}.{key}: expected an integer, got {v!r}")
    if v < minimum:
        raise ScenarioError(f"{path}.{key}: must be >= {minimum}")
    if v > maximum:
        raise ScenarioError(f"{path}.{key}: must be <= {maximum}")
    return v


def _count(minimum: int):
    """Parser of a size or count: at most what NumPy can index."""
    return partial(_integer, minimum=minimum, maximum=np.iinfo(np.intp).max)


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


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _finite(values, key: str, path: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except OverflowError:  # an integer literal past float range
        arr = np.array(np.inf)
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{path}.{key}: entries must be finite")
    return arr


def _pairs(obj: dict, key: str, path: str) -> np.ndarray:
    v = obj[key]
    if (not isinstance(v, list) or len(v) < 2
            or not all(isinstance(row, list) and len(row) == 2
                       and all(map(_is_number, row)) for row in v)):
        raise ScenarioError(
            f"{path}.{key}: expected a list of [x, y] number pairs")
    return _finite(v, key, path)


def _span(obj: dict, key: str, path: str) -> tuple:
    raw = obj[key]
    if (not isinstance(raw, list) or len(raw) != 2
            or not all(map(_is_number, raw))):
        raise ScenarioError(f"{path}.{key}: expected [lo, hi]")
    lo, hi = _finite(raw, key, path)
    return float(lo), float(hi)


def _grid_values(obj: dict, key: str, path: str) -> tuple:
    vals = obj[key]
    if (not isinstance(vals, list) or len(vals) < 2
            or not all(map(_is_number, vals))):
        raise ScenarioError(f"{path}.{key}: expected >= 2 numbers")
    arr = _finite(vals, key, path)
    if np.any(arr <= 0.0) or np.any(np.diff(arr) <= 0.0):
        raise ScenarioError(f"{path}.{key}: must be positive and "
                            "strictly increasing")
    return tuple(float(x) for x in arr)


_POSITIVE = partial(_number, positive=True)
_NONNEGATIVE = partial(_number, nonnegative=True)


def _fields(obj, path: str, parsers: dict, required=None, tags=()) -> dict:
    """Parse the keys of ``parsers`` that the object ``obj`` holds.

    ``required`` defaults to every key of ``parsers``; ``tags`` are the
    keys the caller has already read.  Absent optional keys are left
    out, so the class the result is passed to supplies its own default.
    """
    obj = _require_mapping(obj, path)
    _check_keys(obj, path, {*parsers, *tags},
                set(parsers if required is None else required))
    return {key: parse(obj, key, path) for key, parse in parsers.items()
            if key in obj}


def _reader(make, parsers: dict, required=None, errors=ValueError):
    """Reader ``(obj, path, tags)`` of one shape: ``make(**fields)``.

    The constructor's ``errors`` become a :class:`ScenarioError` that
    carries the object's path.
    """
    def read(obj, path: str, tags=()):
        kwargs = _fields(obj, path, parsers, required, tags)
        try:
            return make(**kwargs)
        except errors as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
    return read


def _tagged(obj, path: str, tag: str, shapes: dict, tags=()):
    """Read an object whose ``tag`` key names its reader in ``shapes``."""
    obj = _require_mapping(obj, path)
    read = shapes[_string(obj, tag, path, choices=shapes)]
    return read(obj, path, (*tags, tag))


def _sub(read):
    """Parser of a key that holds an object read by ``read``."""
    return lambda obj, key, path: read(obj[key], f"{path}.{key}")


def _kind(shapes: dict):
    """Reader ``(obj, path)`` of an object tagged by ``kind``."""
    return lambda obj, path: _tagged(obj, path, "kind", shapes)


@dataclass(frozen=True)
class NonIdConfig:
    ratio: RatioMarginalSpec
    delta_low: float
    delta_high: float
    tol: float = GAP_TOL
    mc_draws: int | None = None


@dataclass(frozen=True)
class Scenario:
    population: Population | None = None
    price_grid: Callable[[Population], np.ndarray] | None = None
    identification: IdentificationConfig | None = None
    nonid: NonIdConfig | None = None
    sample_n: int = 10000
    out_dir: str | None = None
    seed: int = 0


_MARGINALS = {
    "point_mass": _reader(MarginalSpec.point_mass, {"value": _POSITIVE}),
    "uniform": _reader(MarginalSpec.uniform, {"lo": _number, "hi": _number}),
    "beta": _reader(MarginalSpec.scaled_beta,
                    {"alpha": _POSITIVE, "beta": _POSITIVE,
                     "lo": _number, "hi": _number}),
    "tabulated": _reader(lambda table: MarginalSpec.tabulated(*table.T),
                         {"table": _pairs})}
marginal_from_dict = _kind(_MARGINALS)

_RATIO_BOUNDS = {"r_lo": _NONNEGATIVE, "r_hi": _POSITIVE}
_RATIOS = {
    "uniform": _reader(RatioMarginalSpec.uniform, _RATIO_BOUNDS),
    "triangular": _reader(RatioMarginalSpec.triangular, _RATIO_BOUNDS),
    "tabulated": _reader(lambda table: RatioMarginalSpec.tabulated(*table.T),
                         {"table": _pairs})}
ratio_from_dict = _kind(_RATIOS)


def population_from_dict(obj, path: str = "population") -> Population:
    return _tagged(obj, path, "form", _POPULATIONS)


def _components(obj: dict, key: str, path: str) -> tuple:
    comps = obj[key]
    if not isinstance(comps, list) or not comps:
        raise ScenarioError(f"{path}.{key}: expected a nonempty list")
    return tuple(_COMPONENT(comp, f"{path}.{key}[{i}]")
                 for i, comp in enumerate(comps))


def _conditional(maker):
    """Constructor of one ratio_conditional family.

    ``epsilon_rule`` arrives as ConditionalSpec's epsilon keywords.
    """
    def make(ratio, epsilon_rule=(), **kwargs):
        return maker(ratio, **dict(epsilon_rule), **kwargs)
    return make


def _custom_population(ratio, h_table, **cond_kwargs):
    table = PwLinearTable.raw(*h_table.T)
    return RatioConditionalPopulation(
        ratio, ConditionalSpec("custom", h_table=table, **cond_kwargs))


_population = partial(_reader,
                      errors=(ValueError, BoundViolation, DegenerateRatio))
_COMPONENT = _reader(lambda weight, population: (weight, population),
                     {"weight": _POSITIVE,
                      "population": _sub(population_from_dict)})
_EPSILON_RULES = {
    "half_mean": _reader(lambda: {"epsilon_kind": "half_mean"}, {}),
    "fixed": _reader(lambda value: {"epsilon_kind": "fixed",
                                    "epsilon_value": value},
                     {"value": _POSITIVE})}
_CONDITIONAL = {"ratio": _sub(ratio_from_dict),
                "epsilon_rule": _sub(_kind(_EPSILON_RULES)),
                "sigma_multiplier": _POSITIVE}
_TWIN = ({**_CONDITIONAL, "delta": _POSITIVE}, {"ratio", "delta"})
_FAMILIES = {
    "low": _population(_conditional(make_low_population), *_TWIN),
    "high": _population(_conditional(make_high_population), *_TWIN),
    "custom": _population(_conditional(_custom_population),
                          {**_CONDITIONAL, "h_table": _pairs},
                          {"ratio", "h_table"})}
_POPULATIONS = {
    "point_mass": _population(PointMassPopulation,
                              {"vk": _NONNEGATIVE, "vm": _POSITIVE}),
    "product": _population(ProductPopulation,
                           {"ratio": _sub(ratio_from_dict),
                            "vm": _sub(marginal_from_dict)}),
    "independent": _population(IndependentPopulation,
                               {"vk": _sub(marginal_from_dict),
                                "vm": _sub(marginal_from_dict)}),
    "ratio_conditional": lambda obj, path, tags: _tagged(
        obj, path, "family", _FAMILIES, tags),
    "mixture": _population(MixturePopulation, {"components": _components})}
_GRID_N = _count(2)


def _spaced(grid):
    """Reader of a grid of ``n`` prices ``grid(lo, hi, n)``."""
    def make(lo, hi, n=257):
        if not lo < hi:
            raise ValueError("need lo < hi")
        return lambda pop: grid(lo, hi, n)
    return _reader(make, {"lo": _POSITIVE, "hi": _POSITIVE, "n": _GRID_N},
                   {"lo", "hi"})


_GRIDS = {
    "default": _reader(lambda **n: partial(default_price_grid, **n),
                       {"n": _GRID_N}, ()),
    "linspace": _spaced(np.linspace),
    "chebyshev": _spaced(chebyshev_prices),
    "explicit": _reader(lambda values: lambda pop: np.array(values),
                        {"values": _grid_values})}


def _section(read):
    """Parser of a top-level section, whose path is its own key."""
    return lambda doc, key, _path: read(doc[key], key)


def _single(key: str, parse, required=None):
    """Reader of an object with the one key ``key``; returns its value."""
    return lambda obj, path: _fields(obj, path, {key: parse},
                                     required).get(key)


# Top-level sections, and the Scenario fields whose names differ.
_SCENARIO = {
    "population": _section(population_from_dict),
    "grids": _section(_single("prices", _sub(_kind(_GRIDS)), ())),
    "identification": _section(_reader(
        IdentificationConfig,
        {"quality_span": _span, "price_lo": _POSITIVE,
         "price_hi": _POSITIVE, "n_prices": _count(1),
         "max_order": _count(1), "n_quality": _count(16),
         "tail_bound": _POSITIVE},
        {"price_lo", "price_hi"})),
    "nonid": _section(_reader(
        NonIdConfig,
        {"ratio": _sub(ratio_from_dict), "delta_low": _POSITIVE,
         "delta_high": _POSITIVE, "tol": _NONNEGATIVE,
         "mc_draws": _count(1)},
        {"ratio", "delta_low", "delta_high"})),
    "sample": _section(_single("n", _count(1))),
    "outputs": _section(_single("dir", _string)),
    "seed": partial(_integer, minimum=0)}
_FIELD_NAMES = {"grids": "price_grid", "sample": "sample_n",
                "outputs": "out_dir"}


def scenario_from_dict(doc) -> Scenario:
    fields = _fields(doc, "scenario", _SCENARIO, ())
    return Scenario(**{_FIELD_NAMES.get(key, key): value
                       for key, value in fields.items()})


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
        try:
            doc = json.loads(raw.decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or JSON, an over-long integer
            raise ScenarioError(f"scenario file {path!r} is not valid "
                                f"JSON: {exc}")
        return scenario_from_dict(doc), digest
    except RecursionError:  # in the JSON decoder or the reader
        raise ScenarioError(f"scenario file {path!r} is nested too "
                            "deeply") from None
