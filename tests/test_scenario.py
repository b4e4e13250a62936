import hashlib
import json

import numpy as np
import pytest

from demandlab import populations as pops
from demandlab import scenario as scn
from demandlab.errors import InsufficientPrices, ScenarioError
from helpers import HIGH_BOUND_U12


def parse(doc):
    return scn.scenario_from_dict(doc)


class TestPopulationForms:
    def test_point_mass(self):
        pop = scn.population_from_dict(
            {"form": "point_mass", "vk": 2.0, "vm": 1.0})
        assert isinstance(pop, pops.PointMassPopulation)
        assert (pop.vk, pop.vm) == (2.0, 1.0)

    def test_product(self):
        pop = scn.population_from_dict({
            "form": "product",
            "ratio": {"kind": "uniform", "r_lo": 1.0, "r_hi": 2.0},
            "vm": {"kind": "beta", "alpha": 2.0, "beta": 2.0,
                   "lo": 0.5, "hi": 1.5}})
        assert isinstance(pop, pops.ProductPopulation)
        assert pop.support.r_lo == 1.0
        assert pop.vm.mean == pytest.approx(1.0)

    def test_independent(self):
        pop = scn.population_from_dict({
            "form": "independent",
            "vk": {"kind": "uniform", "lo": 0.0, "hi": 2.0},
            "vm": {"kind": "point_mass", "value": 1.0}})
        assert isinstance(pop, pops.IndependentPopulation)
        assert pop.support.r_hi == pytest.approx(2.0)

    def test_ratio_conditional_low_and_high(self):
        base = {"form": "ratio_conditional",
                "ratio": {"kind": "uniform", "r_lo": 1.0, "r_hi": 2.0}}
        low = scn.population_from_dict(
            {**base, "family": "low", "delta": 0.5})
        high = scn.population_from_dict(
            {**base, "family": "high", "delta": 0.04})
        assert low.cond.family == "low"
        assert high.cond.family == "high"
        assert low.cond.delta == 0.5

    def test_custom_family_takes_a_table(self):
        pop = scn.population_from_dict({
            "form": "ratio_conditional",
            "ratio": {"kind": "uniform", "r_lo": 1.0, "r_hi": 2.0},
            "family": "custom",
            "h_table": [[1.0, 0.8], [2.0, 1.2]]})
        assert pop.cond.family == "custom"

    def test_mixture(self):
        pop = scn.population_from_dict({
            "form": "mixture",
            "components": [
                {"weight": 0.4, "population": {
                    "form": "product",
                    "ratio": {"kind": "uniform", "r_lo": 1.0, "r_hi": 2.0},
                    "vm": {"kind": "uniform", "lo": 0.5, "hi": 1.5}}},
                {"weight": 0.6, "population": {
                    "form": "point_mass", "vk": 2.0, "vm": 1.0}}]})
        assert isinstance(pop, pops.MixturePopulation)
        assert [w for w, _ in pop.components] == [0.4, 0.6]

    def test_triangular_and_tabulated_ratio_kinds(self):
        tri = scn.ratio_from_dict(
            {"kind": "triangular", "r_lo": 0.8, "r_hi": 2.2}, "x")
        assert tri.pdf(1.5) == pytest.approx(2.0 / 1.4)
        r = np.linspace(1.0, 2.0, 41)
        tab = scn.ratio_from_dict(
            {"kind": "tabulated",
             "table": [[float(x), 1.0] for x in r]}, "x")
        assert tab.cdf(1.5) == pytest.approx(0.5, abs=1e-12)


class TestStrictValidation:
    def test_unknown_keys_name_the_path_and_allowed_set(self):
        with pytest.raises(ScenarioError, match="scenario.*bogus.*allowed"):
            parse({"bogus": 1})
        with pytest.raises(ScenarioError,
                           match=r"population.*extra.*allowed"):
            parse({"population": {"form": "point_mass", "vk": 1.0,
                                  "vm": 1.0, "extra": 2}})
        with pytest.raises(ScenarioError, match=r"population\.vm.*allowed"):
            scn.population_from_dict({
                "form": "product",
                "ratio": {"kind": "uniform", "r_lo": 1.0, "r_hi": 2.0},
                "vm": {"kind": "uniform", "lo": 0.5, "hi": 1.5, "mu": 1}})

    def test_missing_required_keys(self):
        with pytest.raises(ScenarioError, match="missing"):
            scn.population_from_dict({"form": "point_mass", "vk": 1.0})

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ScenarioError, match="expected a number"):
            scn.population_from_dict(
                {"form": "point_mass", "vk": True, "vm": 1.0})
        with pytest.raises(ScenarioError, match="expected an integer"):
            parse({"seed": True})

    def test_unknown_form_and_kind(self):
        with pytest.raises(ScenarioError, match="expected one of"):
            scn.population_from_dict({"form": "copula"})
        with pytest.raises(ScenarioError, match="expected one of"):
            scn.marginal_from_dict({"kind": "gamma"}, "x")

    def test_delta_and_h_table_are_family_specific(self):
        with pytest.raises(ScenarioError, match="h_table"):
            scn.population_from_dict({
                "form": "ratio_conditional",
                "ratio": {"kind": "uniform", "r_lo": 1.0, "r_hi": 2.0},
                "family": "low", "delta": 0.5,
                "h_table": [[1.0, 1.0], [2.0, 1.0]]})
        with pytest.raises(ScenarioError, match="delta"):
            scn.population_from_dict({
                "form": "ratio_conditional",
                "ratio": {"kind": "uniform", "r_lo": 1.0, "r_hi": 2.0},
                "family": "custom", "delta": 0.5,
                "h_table": [[1.0, 1.0], [2.0, 1.0]]})

    def test_tables_must_be_finite(self):
        with pytest.raises(ScenarioError, match=r"table.*finite"):
            scn.marginal_from_dict(
                {"kind": "tabulated",
                 "table": [[0.0, 1.0], [0.5, float("nan")], [1.0, 1.0]]},
                "vm")
        with pytest.raises(ScenarioError, match=r"h_table.*finite"):
            scn.population_from_dict({
                "form": "ratio_conditional",
                "ratio": {"kind": "uniform", "r_lo": 1.0, "r_hi": 2.0},
                "family": "custom",
                "h_table": [[1.0, 0.8], [float("inf"), 1.2]]})

    def test_offset_over_bound_is_a_parse_error(self):
        # family parameters are checked while building the population,
        # so a bad offset surfaces as invalid input, not a failed run
        with pytest.raises(ScenarioError, match="outside"):
            scn.population_from_dict({
                "form": "ratio_conditional",
                "ratio": {"kind": "uniform", "r_lo": 1.0, "r_hi": 2.0},
                "family": "high", "delta": 2.0 * HIGH_BOUND_U12})

    @pytest.mark.parametrize("doc, message", [
        ({"population": {"form": "mixture", "components": [
            {"weight": 0.5, "population": {
                "form": "point_mass", "vk": 2.0, "vm": 1.0}},
            {"weight": 0.5, "population": {
                "form": "independent",
                "vk": {"kind": "uniform", "lo": 0.0, "hi": 2.0},
                "vm": {"kind": "uniform", "lo": "x", "hi": 1.5}}}]}},
         "population.components[1].population.vm.lo: expected a number, "
         "got 'x'"),
        ({"population": {"form": "mixture", "components": [
            {"population": {"form": "point_mass", "vk": 2.0, "vm": 1.0}}]}},
         "population.components[0]: missing required key(s) ['weight']"),
        ({"population": {
            "form": "ratio_conditional",
            "ratio": {"kind": "uniform", "r_lo": 1.0, "r_hi": 2.0},
            "family": "low", "delta": 0.5,
            "epsilon_rule": {"kind": "fixed", "value": -1}}},
         "population.epsilon_rule.value: must be > 0"),
        ({"grids": {"prices": {"kind": "explicit", "values": [1.0]}}},
         "grids.prices.values: expected >= 2 numbers"),
        ({"grids": {"prices": {"kind": "linspace", "lo": 2.0, "hi": 1.0}}},
         "grids.prices: need lo < hi"),
        ({"identification": {"price_lo": 0.5, "price_hi": 1.5,
                             "quality_span": [1.0]}},
         "identification.quality_span: expected [lo, hi]"),
        ({"nonid": {"ratio": {"kind": "uniform", "r_lo": 1.0, "r_hi": "x"},
                    "delta_low": 0.5, "delta_high": 0.04}},
         "nonid.ratio.r_hi: expected a number, got 'x'"),
        ({"sample": {"n": 0}}, "sample.n: must be >= 1"),
        ({"outputs": {"dir": 3}}, "outputs.dir: expected a string, got 3"),
        ({"seed": -1}, "scenario.seed: must be >= 0"),
        ({"bogus": 1},
         "scenario: unknown key(s) ['bogus']; allowed: ['grids', "
         "'identification', 'nonid', 'outputs', 'population', 'sample', "
         "'seed']"),
    ], ids=lambda v: None if isinstance(v, dict) else v.split(":")[0])
    def test_exact_messages(self, doc, message):
        with pytest.raises(ScenarioError) as info:
            parse(doc)
        assert str(info.value) == message

    def test_bad_mixture_weights(self):
        comp = {"weight": 0.4, "population": {
            "form": "point_mass", "vk": 2.0, "vm": 1.0}}
        with pytest.raises(ScenarioError, match="weight"):
            scn.population_from_dict({"form": "mixture",
                                      "components": [comp, comp]})


class TestConditionalOptions:
    BASE = {"form": "ratio_conditional",
            "ratio": {"kind": "uniform", "r_lo": 1.0, "r_hi": 2.0},
            "family": "low", "delta": 0.5}

    def test_epsilon_rules(self):
        fixed = scn.population_from_dict(
            {**self.BASE, "epsilon_rule": {"kind": "fixed", "value": 0.3}})
        half = scn.population_from_dict(
            {**self.BASE, "epsilon_rule": {"kind": "half_mean"}})
        assert fixed.cond.epsilon_kind == "fixed"
        assert fixed.cond.epsilon_value == 0.3
        assert half.cond.epsilon_kind == "half_mean"
        with pytest.raises(ScenarioError, match="value"):
            scn.population_from_dict(
                {**self.BASE, "epsilon_rule": {"kind": "fixed"}})

    def test_sigma_multiplier(self):
        pop = scn.population_from_dict(
            {**self.BASE, "sigma_multiplier": 0.25})
        assert pop.cond.sigma_multiplier == 0.25


class TestGrids:
    POP = {"form": "product",
           "ratio": {"kind": "uniform", "r_lo": 1.0, "r_hi": 2.0},
           "vm": {"kind": "uniform", "lo": 0.5, "hi": 1.5}}

    def test_default_grid(self):
        s = parse({"population": self.POP,
                   "grids": {"prices": {"kind": "default", "n": 33}}})
        grid = s.price_grid.resolve_prices(s.population)
        assert grid.size == 33
        assert grid[0] == pytest.approx(1.0 * (1 - 1e-3))
        assert grid[-1] == pytest.approx(2.0 * (1 + 1e-3))

    def test_linspace_and_chebyshev(self):
        s = parse({"population": self.POP,
                   "grids": {"prices": {"kind": "linspace", "n": 5,
                                        "lo": 1.0, "hi": 2.0}}})
        np.testing.assert_allclose(s.price_grid.resolve_prices(s.population),
                                   np.linspace(1.0, 2.0, 5))
        s = parse({"population": self.POP,
                   "grids": {"prices": {"kind": "chebyshev", "n": 7,
                                        "lo": 1.0, "hi": 2.0}}})
        grid = s.price_grid.resolve_prices(s.population)
        assert grid.size == 7 and np.all((grid > 1.0) & (grid < 2.0))

    def test_explicit_values_must_increase(self):
        s = parse({"population": self.POP,
                   "grids": {"prices": {"kind": "explicit",
                                        "values": [1.0, 1.3, 1.9]}}})
        np.testing.assert_allclose(s.price_grid.resolve_prices(s.population),
                                   [1.0, 1.3, 1.9])
        for bad in ([1.0], [1.0, 1.0], [1.3, 1.0], [-1.0, 1.0]):
            with pytest.raises(ScenarioError):
                parse({"population": self.POP,
                       "grids": {"prices": {"kind": "explicit",
                                            "values": bad}}})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_explicit_values_must_be_finite(self, bad):
        with pytest.raises(ScenarioError, match="values.*finite"):
            parse({"population": self.POP,
                   "grids": {"prices": {"kind": "explicit",
                                        "values": [1.0, bad, 2.0]}}})


class TestSections:
    def test_identification_defaults(self):
        s = parse({"identification": {"price_lo": 0.5, "price_hi": 1.5}})
        c = s.identification
        assert (c.n_prices, c.max_order, c.n_quality) == (9, 4, 4096)
        assert c.tail_bound == 1e-6
        assert c.quality_span is None

    def test_identification_quality_span(self):
        s = parse({"identification": {"price_lo": 0.5, "price_hi": 1.5,
                                      "quality_span": [-3.0, 3.0]}})
        assert s.identification.quality_span == (-3.0, 3.0)
        with pytest.raises(ScenarioError, match="quality_span"):
            parse({"identification": {"price_lo": 0.5, "price_hi": 1.5,
                                      "quality_span": [1.0]}})
        for bad in (float("nan"), float("-inf")):
            with pytest.raises(ScenarioError, match="quality_span.*finite"):
                parse({"identification": {"price_lo": 0.5, "price_hi": 1.5,
                                          "quality_span": [bad, 3.0]}})

    def test_identification_price_shortage_propagates(self):
        # config construction rejects this; the CLI reports it as a
        # pipeline failure, not a malformed scenario
        with pytest.raises(InsufficientPrices):
            parse({"identification": {"price_lo": 0.5, "price_hi": 1.5,
                                      "n_prices": 3, "max_order": 4}})

    def test_nonid_section(self):
        s = parse({"nonid": {
            "ratio": {"kind": "uniform", "r_lo": 1.0, "r_hi": 2.0},
            "delta_low": 0.5, "delta_high": 0.04}})
        assert s.nonid.tol == 1e-10
        assert s.nonid.mc_draws is None
        s = parse({"nonid": {
            "ratio": {"kind": "uniform", "r_lo": 1.0, "r_hi": 2.0},
            "delta_low": 0.5, "delta_high": 0.04,
            "tol": 0.01, "mc_draws": 1000}})
        assert (s.nonid.tol, s.nonid.mc_draws) == (0.01, 1000)

    def test_sample_outputs_seed_tolerances(self):
        doc = {"population": {"form": "point_mass", "vk": 2.0, "vm": 1.0},
               "sample": {"n": 77}, "outputs": {"dir": "out"}, "seed": 9}
        s = parse(doc)
        assert s.sample_n == 77
        assert s.out_dir == "out"
        assert s.seed == 9
        assert parse({}).sample_n == 10000  # default
        # tolerances live in nonid.tol and identification.tail_bound only
        for block in ({"nonid_gap": 0.5}, {"tail_bound": 1e-3}):
            with pytest.raises(ScenarioError, match="tolerances"):
                parse({**doc, "tolerances": block})


class TestLoadScenario:
    def test_hash_matches_the_raw_bytes(self, tmp_path):
        doc = {"population": {"form": "point_mass", "vk": 2.0, "vm": 1.0}}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        scenario, digest = scn.load_scenario(str(path))
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert isinstance(scenario.population, pops.PointMassPopulation)

    def test_bad_json_and_missing_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ScenarioError):
            scn.load_scenario(str(bad))
        with pytest.raises(ScenarioError):
            scn.load_scenario(str(tmp_path / "absent.json"))
