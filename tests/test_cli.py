import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import demandlab
from demandlab import identification as ident
from demandlab import populations as pops
from demandlab.cli import main
from demandlab.demand import quality_demand_surface
from demandlab.errors import QuadratureFailure
from demandlab.scenario import scenario_from_dict

PRODUCT_POP = {"form": "product",
               "ratio": {"kind": "uniform", "r_lo": 1.0, "r_hi": 2.0},
               "vm": {"kind": "uniform", "lo": 0.5, "hi": 1.5}}

BETA_POP = {"form": "independent",
            "vk": {"kind": "beta", "alpha": 2.0, "beta": 3.0,
                   "lo": 0.0, "hi": 1.0},
            "vm": {"kind": "beta", "alpha": 2.0, "beta": 2.0,
                   "lo": 0.5, "hi": 1.5}}

LOW_POP = {"form": "ratio_conditional",
           "ratio": {"kind": "uniform", "r_lo": 1.0, "r_hi": 2.0},
           "family": "low", "delta": 0.5}

PACKAGE_ROOT = Path(demandlab.__file__).resolve().parents[1]
DEMO_SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"

NONID = {"ratio": {"kind": "uniform", "r_lo": 1.0, "r_hi": 2.0},
         "delta_low": 0.5, "delta_high": 0.04}


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run(command, scenario_path, *extra):
    return main([command, "--scenario", str(scenario_path), *extra])


def digest_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestDemandCommand:
    def test_artifacts(self, tmp_path):
        scn = write_scenario(tmp_path, {
            "population": PRODUCT_POP,
            "grids": {"prices": {"kind": "default", "n": 65}}})
        assert run("demand", scn, "--out", str(tmp_path / "out")) == 0
        demand = (tmp_path / "out" / "demand.csv").read_text().splitlines()
        assert demand[0] == "p,D"
        assert len(demand) == 1 + 65
        ratio = (tmp_path / "out" / "ratio_cdf.csv").read_text().splitlines()
        assert ratio[0] == "r,G"
        # complementarity ties the two files together line by line
        d_vals = [float(r.split(",")[1]) for r in demand[1:]]
        g_vals = [float(r.split(",")[1]) for r in ratio[1:]]
        assert all(abs(d + g - 1.0) < 1e-12
                   for d, g in zip(d_vals, g_vals))

    def test_reruns_are_byte_identical(self, tmp_path):
        scn = write_scenario(tmp_path, {"population": PRODUCT_POP})
        out = tmp_path / "out"
        assert run("demand", scn, "--out", str(out)) == 0
        first = digest_of(out / "demand.csv")
        assert run("demand", scn, "--out", str(out)) == 0
        assert digest_of(out / "demand.csv") == first


class TestClassifyCommand:
    def test_report_envelope(self, tmp_path):
        scn = write_scenario(tmp_path, {"population": {
            "form": "ratio_conditional",
            "ratio": {"kind": "uniform", "r_lo": 1.0, "r_hi": 2.0},
            "family": "high", "delta": 0.04}})
        out = tmp_path / "out"
        assert run("classify", scn, "--out", str(out)) == 0
        doc = json.loads((out / "inequality.json").read_text())
        assert doc["command"] == "classify"
        assert doc["version"] == demandlab.__version__
        assert doc["scenario_sha256"] == digest_of(scn)
        assert doc["regime"] == "high"
        assert doc["boundary_mean_vm"] == pytest.approx(5.0, abs=1e-9)
        assert doc["method"] == "analytic"
        # every other JSON report carries the same envelope
        scn = write_scenario(tmp_path, {
            "population": BETA_POP, "nonid": NONID,
            "identification": {"price_lo": 0.5, "price_hi": 1.5}},
            "every_section.json")
        envelope = {"scenario_sha256": digest_of(scn),
                    "version": demandlab.__version__}
        for command, names in (("nonid", ["nonid_demo.json"]),
                               ("identify", ["moments.json",
                                             "recovery_report.json"])):
            assert run(command, scn, "--out", str(out)) == 0
            for name in names:
                doc = json.loads((out / name).read_text())
                assert doc["command"] == command, name
                assert {key: doc[key] for key in envelope} == envelope, name

    def test_huge_money_values(self, tmp_path):
        # E[vm] = 1.5e160 fits in a double, though hi**2 does not
        scn = write_scenario(tmp_path, {"population": {
            **PRODUCT_POP, "vm": {"kind": "uniform", "lo": 1e160,
                                  "hi": 2e160}}})
        out = tmp_path / "out"
        assert run("classify", scn, "--out", str(out)) == 0
        doc = json.loads((out / "inequality.json").read_text())
        assert doc["mean_vm"] == 1.5e160


class TestNonIdCommand:
    def test_demo_artifacts(self, tmp_path):
        scn = write_scenario(tmp_path, {"nonid": NONID})
        out = tmp_path / "out"
        assert run("nonid", scn, "--out", str(out)) == 0
        doc = json.loads((out / "nonid_demo.json").read_text())
        assert doc["command"] == "nonid"
        assert doc["curve_gap"] <= 1e-10
        assert doc["low"]["regime"] == "low"
        assert doc["high"]["regime"] == "high"
        curves = (out / "nonid_curves.csv").read_text().splitlines()
        assert curves[0] == "p,D_low,D_high,gap"

    def test_tolerance_precedence(self, tmp_path, capsys):
        # nonid.tol is the one place to set the gap tolerance: Monte Carlo
        # noise fails a zero tolerance and passes a loose one, and a
        # top-level tolerances block or a --tol flag is an input error
        doc = {"nonid": {**NONID, "tol": 0.0, "mc_draws": 20000}}
        scn = write_scenario(tmp_path, doc)
        assert run("nonid", scn, "--out", str(tmp_path / "a")) == 4
        doc["nonid"]["tol"] = 0.5
        scn = write_scenario(tmp_path, doc)
        assert run("nonid", scn, "--out", str(tmp_path / "b")) == 0
        capsys.readouterr()
        doc["tolerances"] = {"nonid_gap": 0.5}
        scn = write_scenario(tmp_path, doc)
        assert run("nonid", scn, "--out", str(tmp_path / "c")) == 2
        assert "tolerances" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()
        for command in ("demand", "nonid", "identify", "classify",
                        "sample"):
            with pytest.raises(SystemExit) as exc:
                run(command, scn, "--tol", "0.0")
            assert exc.value.code == 2

    def test_demo_failure_leaves_no_artifacts(self, tmp_path):
        # the second case resolves a grids block against the twins' ratio
        # marginal, so an out-of-bound offset still fails as a demo check
        for name, doc in (
                ("plain", {"nonid": {**NONID, "delta_high": 0.1}}),
                ("grids", {"nonid": {**NONID, "delta_low": 5.0},
                           "grids": {"prices": {"kind": "default",
                                                "n": 33}}})):
            scn = write_scenario(tmp_path, doc, f"{name}.json")
            out = tmp_path / name
            assert run("nonid", scn, "--out", str(out)) == 4, name
            assert not out.exists(), name


class TestIdentifyCommand:
    def test_recovery_artifacts(self, tmp_path):
        scn = write_scenario(tmp_path, {
            "population": BETA_POP,
            "identification": {"price_lo": 0.5, "price_hi": 1.5}})
        out = tmp_path / "out"
        assert run("identify", scn, "--out", str(out)) == 0
        surface = (out / "surface.csv").read_text().splitlines()
        assert surface[0] == "xQ,p,DQ"
        moments = json.loads((out / "moments.json").read_text())
        assert moments["command"] == "identify"
        assert moments["entries"]["0,1"] == pytest.approx(1.0, abs=1e-6)
        report = json.loads((out / "recovery_report.json").read_text())
        assert report["max_rel_error"] <= 1e-6
        assert report["config"]["n_prices"] == 9

    def test_custom_conditional_demo_scenario(self, tmp_path):
        # a custom h with an interior knot recovers to tolerance
        scn = DEMO_SCENARIOS / "custom_conditional.json"
        out = tmp_path / "out"
        assert run("identify", scn, "--out", str(out)) == 0
        report = json.loads((out / "recovery_report.json").read_text())
        assert report["max_rel_error"] <= 1e-6

    def test_one_surface_per_run(self, tmp_path, monkeypatch):
        doc = {"population": BETA_POP,
               "identification": {"price_lo": 0.5, "price_hi": 1.5,
                                  "n_quality": 512}}
        scn = write_scenario(tmp_path, doc)
        built = []

        def counting(*args):
            built.append(args)
            return quality_demand_surface(*args)

        monkeypatch.setattr(ident, "quality_demand_surface", counting)
        out = tmp_path / "out"
        assert run("identify", scn, "--out", str(out)) == 0
        assert len(built) == 1
        monkeypatch.undo()
        scenario = scenario_from_dict(doc)
        expected = ident.build_surface(scenario.population,
                                       scenario.identification)
        assert (out / "surface.csv").read_text() == expected.to_csv()

    def test_surface_failure_names_its_price_and_quality(self, tmp_path,
                                                         capsys):
        # vm ~ Beta(0.3, 2) puts |u - 0.5|^-0.7 at the money-value floor,
        # which no grade resolves; the message names the worst entry by
        # its price and quality offset, not by a kernel row index
        rough = {**BETA_POP, "vm": {**BETA_POP["vm"], "alpha": 0.3}}
        doc = {"population": rough,
               "identification": {"price_lo": 0.5, "price_hi": 1.5,
                                  "n_quality": 1024}}
        scn = write_scenario(tmp_path, doc)
        assert run("identify", scn, "--out", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "row " not in err
        found = re.search(r"quality surface at price (\S+), quality offset "
                          r"(\S+): ", err)
        p, x = map(float, found.groups())
        pop = scenario_from_dict(doc).population
        prices = ident.chebyshev_prices(0.5, 1.5, 9)
        assert p in prices.tolist()
        assert x in ident.default_quality_grid(pop, prices, 1024).tolist()
        # that entry misses its tolerance on its own too
        with pytest.raises(QuadratureFailure):
            pop._quality_profile(p, np.array([x]))

    @pytest.mark.parametrize("vk_unit, vm_unit", [
        (1.0, 1e3), (1.0, 1e-3), (1.0, 1e8), (1e8, 1.0)],
        ids=["money_1e3", "money_1e-3", "money_1e8", "good_1e8"])
    def test_recovery_does_not_depend_on_the_units(self, tmp_path, capsys,
                                                   vk_unit, vm_unit):
        # the demo population in other units of good value and of money:
        # its prices scale by vk_unit / vm_unit, and the price systems
        # are set in the power-of-two money unit nearest them
        doc = json.loads(
            (DEMO_SCENARIOS / "independent_betas.json").read_text())
        for key, unit in (("vk", vk_unit), ("vm", vm_unit)):
            doc["population"][key]["lo"] *= unit
            doc["population"][key]["hi"] *= unit
        for key in ("price_lo", "price_hi"):
            doc["identification"][key] *= vk_unit / vm_unit
        out = tmp_path / "out"
        assert run("identify", write_scenario(tmp_path, doc),
                   "--out", str(out)) == 0, capsys.readouterr().err
        report = json.loads((out / "recovery_report.json").read_text())
        assert report["max_rel_error"] <= 1e-9

    def test_price_shortage_is_a_numeric_failure(self, tmp_path):
        scn = write_scenario(tmp_path, {
            "population": BETA_POP,
            "identification": {"price_lo": 0.5, "price_hi": 1.5,
                               "n_prices": 3, "max_order": 4}})
        assert run("identify", scn, "--out", str(tmp_path / "out")) == 3
        assert not (tmp_path / "out").exists()


class TestSampleCommand:
    def test_seeded_draws(self, tmp_path):
        scn = write_scenario(tmp_path, {
            "population": PRODUCT_POP, "sample": {"n": 100}, "seed": 42})
        out = tmp_path / "out"
        assert run("sample", scn, "--out", str(out)) == 0
        lines = (out / "samples.csv").read_text().splitlines()
        assert lines[0] == "vk,vm"
        assert len(lines) == 1 + 100
        draws = pops.sample(scenario_from_dict(
            {"population": PRODUCT_POP}).population, 100, 42)
        assert lines[1:] == [f"{a:.17g},{b:.17g}" for a, b in draws]
        first = digest_of(out / "samples.csv")
        assert run("sample", scn, "--out", str(out)) == 0
        assert digest_of(out / "samples.csv") == first
        assert run("sample", scn, "--out", str(out), "--seed", "5") == 0
        assert digest_of(out / "samples.csv") != first

    def test_nan_draws_are_a_numeric_failure(self, tmp_path, capsys):
        # betaincinv returns NaN from a shape of about 1e200 up
        huge = {**BETA_POP, "vk": {**BETA_POP["vk"], "alpha": 1e308}}
        scn = write_scenario(tmp_path, {"population": huge,
                                        "sample": {"n": 10}})
        out = tmp_path / "out"
        assert run("sample", scn, "--out", str(out)) == 3
        assert not (out / "samples.csv").exists()
        err = capsys.readouterr().err
        assert "betaincinv(1e+308, 3," in err

    def test_outputs_dir_from_scenario(self, tmp_path):
        target = tmp_path / "from_scenario"
        scn = write_scenario(tmp_path, {
            "population": PRODUCT_POP, "sample": {"n": 10},
            "outputs": {"dir": str(target)}})
        assert run("sample", scn) == 0
        assert (target / "samples.csv").exists()


class TestInputErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert run("demand", tmp_path / "absent.json") == 2
        assert "error (demand)" in capsys.readouterr().err

    def test_unknown_key_names_the_allowed_set(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, {"population": PRODUCT_POP,
                                        "mystery": 1})
        assert run("demand", scn) == 2
        err = capsys.readouterr().err
        assert "mystery" in err and "allowed" in err

    def test_help_lists_the_subcommands(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        listed = re.findall(r"^    (\w+) +(.+)$", capsys.readouterr().out,
                            re.MULTILINE)
        assert listed == [
            ("demand", "tabulate the demand curve and implied ratio CDF"),
            ("nonid", "build the identical-demand twin-population demo"),
            ("identify", "recover cross-moments from the quality surface"),
            ("classify", "compute the same-side inequality report"),
            ("sample", "draw seeded consumers from the population")]

    def test_missing_section_for_command(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, {"population": PRODUCT_POP})
        assert run("nonid", scn) == 2
        assert "nonid" in capsys.readouterr().err

    def test_non_finite_grid_value(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, {
            "population": PRODUCT_POP,
            "grids": {"prices": {"kind": "explicit",
                                 "values": [1.0, float("nan"), 2.0]}}})
        assert run("demand", scn, "--out", str(tmp_path / "out")) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_money_value_reaching_zero(self, tmp_path, capsys):
        pop = {**BETA_POP, "vm": {**BETA_POP["vm"], "lo": -1.0}}
        scn = write_scenario(tmp_path, {"population": pop})
        assert run("demand", scn, "--out", str(tmp_path / "out")) == 2
        assert "population" in capsys.readouterr().err

    def test_negative_seed_override(self, tmp_path):
        scn = write_scenario(tmp_path, {"population": PRODUCT_POP})
        assert run("sample", scn, "--seed", "-1") == 2

    @pytest.mark.parametrize("pop", [
        {"form": "independent",
         "vk": {"kind": "point_mass", "value": 1.0},
         "vm": {"kind": "point_mass", "value": 2.0}},
        {"form": "point_mass", "vk": 1e308, "vm": 1e-308},
        {**LOW_POP, "sigma_multiplier": 1e-300},
    ], ids=["two_point_masses", "infinite_ratio", "tiny_sigma"])
    def test_unusable_population_is_a_typed_error(self, tmp_path, pop):
        scn = write_scenario(tmp_path, {
            "population": pop,
            "identification": {"price_lo": 1.1, "price_hi": 1.9,
                               "n_prices": 5, "max_order": 2,
                               "n_quality": 256}})
        proc = subprocess.run(
            [sys.executable, "-m", "demandlab.cli", "identify",
             "--scenario", str(scn), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)})
        assert proc.returncode in (2, 3), proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

    @pytest.mark.parametrize("pop, window, order, message", [
        ({**PRODUCT_POP, "vm": {"kind": "uniform", "lo": 1e160,
                                "hi": 2e160}}, (1.1, 1.9), 4, "E[W**2]"),
        ({"form": "independent",
          "vk": {"kind": "uniform", "lo": 0.0, "hi": 1e200},
          "vm": {"kind": "uniform", "lo": 0.5, "hi": 1.5}},
         (1.1, 1.9), 2, "E[W**2]"),
        ({"form": "ratio_conditional", "ratio": LOW_POP["ratio"],
          "family": "custom", "h_table": [[1.0, 1e100], [2.0, 1e100]]},
         (1.1, 1.9), 4, "E[W**4]"),
        ({**PRODUCT_POP, "ratio": {"kind": "uniform", "r_lo": 1e-300,
                                   "r_hi": 2e-300}},
         (1e-300, 2e-300), 4, "E[W**2] at price 1.0244717418524233e-300 "
                              "underflows")],
        ids=["huge_vm", "huge_vk", "huge_h", "tiny_prices"])
    def test_extreme_scales_are_numeric_failures(self, tmp_path, pop,
                                                 window, order, message):
        # overflowing moments and underflowing slice moments exit 3 with
        # one line that names the entry, and no NumPy warning
        scn = write_scenario(tmp_path, {
            "population": pop,
            "identification": {"price_lo": window[0], "price_hi": window[1],
                               "n_prices": 5, "max_order": order,
                               "n_quality": 256}})
        proc = subprocess.run(
            [sys.executable, "-m", "demandlab.cli", "identify",
             "--scenario", str(scn), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)})
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("numeric failure (identify): ")
        assert message in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

    def test_huge_sigma_recovers(self, tmp_path, capsys):
        # the conditional moments are formed in units of the truncation
        # half-width, so no term grows with the sigma multiplier
        scn = write_scenario(tmp_path, {
            "population": {**LOW_POP, "sigma_multiplier": 1e300},
            "identification": {"price_lo": 1.1, "price_hi": 1.9,
                               "n_prices": 5, "max_order": 2,
                               "n_quality": 256}})
        assert run("identify", scn, "--out", str(tmp_path / "out")) == 0, \
            capsys.readouterr().err


# Exit code of each demo scenario under demand, classify, sample, nonid
# and identify: 2 where the scenario lacks the command's section.
DEMO_EXIT_CODES = {"custom_conditional": [0, 0, 0, 2, 0],
                   "high_regime": [0, 0, 0, 2, 2],
                   "independent_betas": [0, 0, 0, 2, 0],
                   "product_uniform": [0, 0, 0, 2, 2],
                   "twin_markets": [2, 2, 2, 0, 2]}


# sha256 of every artifact of the demo runs above that exit 0, at
# --seed 7, as scenario/command/file, taken with NumPy 2.4.6 and SciPy
# 1.17.1.  Artifact bytes are part of the artifact contract and hold
# across versions of demandlab: a change that moves one updates this
# table and says so.
ARTIFACT_DIGESTS = {
    "custom_conditional/classify/inequality.json":
        "27fcd7ac47a6d04088aa706c7d89e375b874740109d7c25d331546a26f2c174d",
    "custom_conditional/demand/demand.csv":
        "2c0dfe98a935aff3a7a503f0752a46fc9edf49a46732cd2e6e3a8e82d43ec114",
    "custom_conditional/demand/ratio_cdf.csv":
        "e31098f2a230c6739098789e3dae514aecb11aab2b8d1c6f1f0b1ecf6c093d15",
    "custom_conditional/identify/moments.json":
        "a3d08ccb3cb2600ee569a1737f9f953e41b84fd10b9012e93fd133c941c83d53",
    "custom_conditional/identify/recovery_report.json":
        "4e47ed4cc53c8bfe3b8110a798ff9ae3af5e86463ba427beff4dff26f13ef43f",
    "custom_conditional/identify/surface.csv":
        "bae414963a8e35d997de842d412126a0b7ed05cf161075f48325e8556b8d348c",
    "custom_conditional/sample/samples.csv":
        "ed53fc0bcc85754c93d1d8e15c00f018f7198c19ad387aaad387d044da25a200",
    "high_regime/classify/inequality.json":
        "8dbceb484b7cac781b18979b7cbc8312ec8f2fbd07cac5aec114615540d7f002",
    "high_regime/demand/demand.csv":
        "e2a1227c14a8fc1699ba58e12b22d36ab030ff3b8800255ab8fa6f730a63de5c",
    "high_regime/demand/ratio_cdf.csv":
        "a3044b5a1e0bab3a216476410a60d41373b3af20d4518fc9ce0132c207a56ad4",
    "high_regime/sample/samples.csv":
        "3a691b5a3e9c863fdd02001973f29f0c4c3a86ac934e3e20d0d6a9c5f39090e2",
    "independent_betas/classify/inequality.json":
        "79496c2fc580c0e2e61547d8204b151a68f124ae56a030b2c7c54eff68cf4cda",
    "independent_betas/demand/demand.csv":
        "e10ea834847b74c8e51f61b496ee50828b46cb69711e378de0db7ec007d80ce7",
    "independent_betas/demand/ratio_cdf.csv":
        "cb69675dd53c48581c0c1d95aa335c3c45af110fa924f3701ce726a2258713d6",
    "independent_betas/identify/moments.json":
        "46f4a25fdd84aa6bab9fc2aad6b640e15d66fd09941edbfbf5e1ae8dae3be3e6",
    "independent_betas/identify/recovery_report.json":
        "4abe5f06b3a8033e3a68535eb7cd9a4db839eeabb2cb6db1e9bcf812f9bfb3fa",
    "independent_betas/identify/surface.csv":
        "4f47e047ee62f4dd6143fa97774ed1d585ce94ecba2f62257dc4f641e324f9bc",
    "independent_betas/sample/samples.csv":
        "cec7a2c9f445da43ff2c2d8d7b4f6cfa7f6614ac745b7b796427e64b1b532123",
    "product_uniform/classify/inequality.json":
        "8ee36d20758042517099ad5b7650c3b2d5337ab5c8f94a0896af1f135a46be7a",
    "product_uniform/demand/demand.csv":
        "e2a1227c14a8fc1699ba58e12b22d36ab030ff3b8800255ab8fa6f730a63de5c",
    "product_uniform/demand/ratio_cdf.csv":
        "a3044b5a1e0bab3a216476410a60d41373b3af20d4518fc9ce0132c207a56ad4",
    "product_uniform/sample/samples.csv":
        "cb97e28645af8c648201a58a36aa76e8113f4ee47bca57d10cb96c8f2aba37f2",
    "twin_markets/nonid/nonid_curves.csv":
        "91dda259e3d422646f94908a252f363d9db7336767c21d49c134c63e0a45fedb",
    "twin_markets/nonid/nonid_demo.json":
        "2de600f0aa2dcd87e384b08dc8627655fbe10e38759697b6337bb52b87c5bf92"}


@pytest.mark.parametrize("name", sorted(
    key.split("/")[0] for key in ARTIFACT_DIGESTS
    if key.endswith("/sample/samples.csv")))
def test_demo_samples_keep_their_bytes(tmp_path, name):
    out = tmp_path / "out"
    assert run("sample", DEMO_SCENARIOS / f"{name}.json", "--out", str(out),
               "--seed", "7") == 0
    assert (digest_of(out / "samples.csv")
            == ARTIFACT_DIGESTS[f"{name}/sample/samples.csv"])


@pytest.mark.parametrize("name", sorted(
    key.split("/")[0] for key in ARTIFACT_DIGESTS
    if key.endswith("/sample/samples.csv")))
def test_demo_samples_start_no_thread(tmp_path, usable_cpus, drainers, name):
    # 10,000 and 1,000 draws, below SPLIT_MIN, are drawn on the calling
    # thread even on 2 CPUs, with their pinned bytes
    usable_cpus(2)
    out = tmp_path / "out"
    assert run("sample", DEMO_SCENARIOS / f"{name}.json", "--out", str(out),
               "--seed", "7") == 0
    assert not drainers
    assert (digest_of(out / "samples.csv")
            == ARTIFACT_DIGESTS[f"{name}/sample/samples.csv"])


# sha256 of 10,000 draws of the low twin (ratio U[1, 2], delta 0.5) at
# seed 7 off the demos' sigma multiplier of 0.5: at 0.3 the truncated
# normal's ppf takes Phi differences, at 1e4 erf ones.
LOW_TWIN_SAMPLE_DIGESTS = {
    0.3: "53fa466e755485be9334d6f4994598396cf6d14b7cb793c2b196e70d63936858",
    1e4: "855d81dc236c0d6a242493dbec1c721efab16a2bbcb93a689ee616ddab6ca142"}


@pytest.mark.parametrize("sigma", sorted(LOW_TWIN_SAMPLE_DIGESTS))
def test_low_twin_samples_keep_their_bytes(sigma):
    pop = pops.make_low_population(pops.RatioMarginalSpec.uniform(1.0, 2.0),
                                   0.5, sigma_multiplier=sigma)
    assert (hashlib.sha256(pops.sample(pop, 10_000, 7).tobytes()).hexdigest()
            == LOW_TWIN_SAMPLE_DIGESTS[sigma])


def test_demo_scenario_exit_codes(tmp_path, capsys):
    got, digests = {}, {}
    for scn in sorted(DEMO_SCENARIOS.glob("*.json")):
        got[scn.stem] = []
        for command in ("demand", "classify", "sample", "nonid", "identify"):
            out = tmp_path / scn.stem / command
            code = run(command, scn, "--out", str(out), "--seed", "7")
            got[scn.stem].append(code)
            if code == 0:
                digests.update({f"{scn.stem}/{command}/{f.name}":
                                digest_of(f) for f in out.iterdir()})
    assert got == DEMO_EXIT_CODES, capsys.readouterr().err
    assert digests == ARTIFACT_DIGESTS


@pytest.mark.parametrize("scenario", ["independent_betas",
                                      "custom_conditional"])
def test_identify_starts_no_thread(tmp_path, usable_cpus, drainers,
                                   scenario):
    # on 2 CPUs the closed-form kernels of independent_betas and the
    # many-block conditional passes of custom_conditional all run on the
    # calling thread, with their artifacts' bits
    usable_cpus(2)
    out = tmp_path / "out"
    assert run("identify", DEMO_SCENARIOS / f"{scenario}.json",
               "--out", str(out), "--seed", "7") == 0
    assert not drainers
    for f in out.iterdir():
        assert (digest_of(f)
                == ARTIFACT_DIGESTS[f"{scenario}/identify/{f.name}"])


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_artifacts_get_the_mode_open_gives(tmp_path, umask, mode):
    # a new file open() creates is 0o666 less the umask
    old = os.umask(umask)
    try:
        for command in ("demand", "identify"):
            assert run(command, DEMO_SCENARIOS / "independent_betas.json",
                       "--out", str(tmp_path / command)) == 0
    finally:
        os.umask(old)
    modes = {f.name: f.stat().st_mode & 0o777 for f in tmp_path.glob("*/*")}
    assert len(modes) == 5 and set(modes.values()) == {mode}, modes


@pytest.mark.usefixtures("declared_scripts_on_path")
def test_installed_entry_point(tmp_path):
    scn = write_scenario(tmp_path, {
        "population": {"form": "point_mass", "vk": 2.0, "vm": 1.0},
        "sample": {"n": 5}})
    proc = subprocess.run(
        ["demandlab", "sample", "--scenario", str(scn),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "samples.csv").exists()
