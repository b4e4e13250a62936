"""Seeded inputs for the benchmark workloads.

Every workload draws its population parameters and sampling seeds from
``random.Random(seed)``, inside fixed ranges that keep each family
feasible and keep the cost of one round the same from seed to seed.  A
held-out seed therefore gives inputs of the same shape.

This module imports only the standard library and ``demandlab``, so the
set-up probe (``bench_setup.py``) pays for nothing the program does not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from demandlab import identification, marginals, populations, scenario

WORKLOADS = ("identify_conditional", "identify_smooth", "market_sim",
             "cli_demos")

# Twin ratio_conditional pair on a uniform ratio on [1, 2].  The offsets
# sit well inside the family bounds (low <= 1, high < 0.059).  At a low
# offset of 0.45 one price column finds a second crossing root, which
# costs a second bisection pass, so the range starts above it.
RATIO_LO, RATIO_HI, RATIO_VM_HI = 1.0, 2.0, 100.0
DELTA_LOW = (0.46, 0.55)
DELTA_HIGH = (0.035, 0.045)
# Beta shapes are integers drawn from these sets.  At non-integer shapes
# scipy's betainc and betaincinv cost 2.5-5x more and vary with the shape,
# so one seed's round would not cost what another's does; and
# verify_recovery loses accuracy at non-integer money-value shapes (4e-5 at
# Beta(2.1, 2), MonotonicityViolation at Beta(2.5, 2.5); see README.md).
VK_ALPHA = (2, 3)
VK_BETA = (3, 4)
VM_SHAPE = (2, 3)

IDENTIFICATION = dict(price_lo=0.5, price_hi=1.5, n_prices=9, max_order=4,
                      n_quality=4096)
# Largest max_rel_error accepted per population: the worst case measured
# over the parameter sets above at n_quality=4096 (see README.md), times
# a margin of 20 to 30.
RECOVERY_BOUND = {"low": 1e-6, "high": 3e-5, "independent": 2e-9,
                  "product": 2e-7, "mixture": 2e-7}

N_DRAWS = 10 ** 6
N_PRICES = 20_000
MC_DRAWS = 200_000
# Failure probability of each Dvoretzky-Kiefer-Wolfowitz band used to size
# the Monte Carlo tolerance of the twin demo.
MC_ALPHA = 1e-9

SCENARIO_DIR = Path("demos") / "scenarios"
POPULATION_SCENARIOS = ("high_regime", "independent_betas",
                        "product_uniform")
CLI_PAIRS = tuple((cmd, name) for name in POPULATION_SCENARIOS
                  for cmd in ("demand", "classify", "sample")) + (
    ("nonid", "twin_markets"), ("identify", "independent_betas"))


@dataclass
class Inputs:
    """Populations and settings for one workload and seed.

    ``params`` records the drawn parameters, which the run prints.
    """

    pops: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    sample_seeds: dict = field(default_factory=dict)
    config: identification.IdentificationConfig | None = None
    ratio: populations.RatioMarginalSpec | None = None
    cli_seed: int = 0


def _twins(rng: random.Random, inputs: Inputs):
    ratio = populations.RatioMarginalSpec.uniform(RATIO_LO, RATIO_HI,
                                                  RATIO_VM_HI)
    d_low = rng.uniform(*DELTA_LOW)
    d_high = rng.uniform(*DELTA_HIGH)
    inputs.ratio = ratio
    inputs.params.update(delta_low=d_low, delta_high=d_high)
    return (populations.make_low_population(ratio, d_low),
            populations.make_high_population(ratio, d_high))


def _smooth(rng: random.Random, inputs: Inputs):
    vk = (rng.choice(VK_ALPHA), rng.choice(VK_BETA))
    vm_ind = (rng.choice(VM_SHAPE), rng.choice(VM_SHAPE))
    vm_prod = (rng.choice(VM_SHAPE), rng.choice(VM_SHAPE))
    inputs.params.update(vk_shape=vk, vm_shape_independent=vm_ind,
                         vm_shape_product=vm_prod)
    ind = populations.IndependentPopulation(
        marginals.MarginalSpec.scaled_beta(*vk, 0.0, 1.0),
        marginals.MarginalSpec.scaled_beta(*vm_ind, 0.5, 1.5))
    prod = populations.ProductPopulation(
        populations.RatioMarginalSpec.uniform(RATIO_LO, RATIO_HI),
        marginals.MarginalSpec.scaled_beta(*vm_prod, 0.5, 1.5))
    return ind, prod


def _warm(pop) -> None:
    """Fill the population's cached tables, as set-up does for users."""
    pop.support
    populations.ratio_marginal(pop)


def build(workload: str, seed: int, root: Path) -> Inputs:
    """Populations and settings of ``workload`` for ``seed``, caches warm."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    inputs = Inputs()
    if workload == "identify_conditional":
        low, high = _twins(rng, inputs)
        inputs.pops = {"low": low, "high": high}
    elif workload == "identify_smooth":
        ind, prod = _smooth(rng, inputs)
        mix = populations.MixturePopulation(((0.5, ind), (0.5, prod)))
        inputs.pops = {"independent": ind, "product": prod,
                       "mixture": mix}
    elif workload == "market_sim":
        ind, prod = _smooth(rng, inputs)
        low, _ = _twins(rng, inputs)
        inputs.pops = {"independent": ind, "product": prod,
                       "conditional": low}
        inputs.sample_seeds = {name: rng.randrange(2 ** 32)
                               for name in (*inputs.pops, "nonid")}
    else:
        inputs.cli_seed = rng.randrange(2 ** 31)
        inputs.params["cli_seed"] = inputs.cli_seed
        for name in (*POPULATION_SCENARIOS, "twin_markets"):
            scen, _ = scenario.load_scenario(
                str(root / SCENARIO_DIR / f"{name}.json"))
            if scen.population is not None:
                inputs.pops[name] = scen.population
    if workload.startswith("identify"):
        inputs.config = identification.IdentificationConfig(
            **IDENTIFICATION)
    for pop in inputs.pops.values():
        _warm(pop)
    return inputs
