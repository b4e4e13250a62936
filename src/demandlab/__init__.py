"""demandlab: joint value distributions, demand surfaces, and recovery.

The package builds populations of (good value, money value) pairs,
derives their demand curves and quality-augmented demand surfaces,
classifies same-side inequality from the boundary conditional mean,
demonstrates that identical demand curves can hide opposite
classifications, and recovers cross-moments of the joint law from
quality-demand slices.
"""

from .demand import (DemandCurve, QualityDemandSurface, RatioCdfTable,
                     default_price_grid, demand_at, demand_curve,
                     invert_demand, purchase_decision, quality_demand,
                     quality_demand_mc, quality_demand_surface)
from .errors import (BoundaryMassZero, BoundViolation, DegenerateRatio,
                     DemandLabError, DemoFailure, IllConditioned,
                     InsufficientPrices, MonotonicityViolation, NoDensity,
                     NonFiniteMoment, QuadratureFailure, ScenarioError,
                     SpecialFunctionFailure, TailMassExceeded)
from .identification import (IdentificationConfig, RecoveryReport,
                             SliceDistribution, build_surface,
                             chebyshev_prices, default_quality_grid, pava,
                             recover_cross_moments,
                             recover_from_slice_moments, slice_from_surface,
                             slice_moment_rows, slice_moments,
                             surface_slices, verify_recovery)
from .inequality import (BoundaryMean, DeltaBoundCheck, InequalityReport,
                         NonIdDemo, boundary_conditional_mean,
                         build_nonid_demo, check_delta_bounds, classify,
                         mean_vm)
from .marginals import MarginalSpec, PwLinearTable
from .populations import (ConditionalSpec, IndependentPopulation,
                          MixturePopulation, MomentTable,
                          PointMassPopulation, Population, ProductPopulation,
                          RatioConditionalPopulation, RatioMarginalSpec,
                          Support, density, make_high_population,
                          make_low_population, moments, ratio_marginal,
                          sample)
from .scenario import Scenario, load_scenario, population_from_dict

__version__ = "0.1.0"

__all__ = [
    "BoundViolation", "BoundaryMassZero", "BoundaryMean",
    "ConditionalSpec", "DegenerateRatio", "DeltaBoundCheck",
    "DemandCurve", "DemandLabError", "DemoFailure",
    "IdentificationConfig", "IllConditioned", "IndependentPopulation",
    "InequalityReport", "InsufficientPrices", "MarginalSpec",
    "MixturePopulation", "MomentTable", "MonotonicityViolation",
    "NoDensity", "NonFiniteMoment", "NonIdDemo", "PointMassPopulation",
    "Population", "ProductPopulation", "PwLinearTable", "QuadratureFailure",
    "QualityDemandSurface", "RatioCdfTable", "RatioConditionalPopulation",
    "RatioMarginalSpec", "RecoveryReport", "Scenario", "ScenarioError",
    "SliceDistribution", "SpecialFunctionFailure", "Support",
    "TailMassExceeded",
    "boundary_conditional_mean", "build_nonid_demo", "build_surface",
    "chebyshev_prices", "check_delta_bounds", "classify",
    "default_price_grid", "default_quality_grid", "demand_at",
    "demand_curve", "density", "invert_demand", "load_scenario",
    "make_high_population", "make_low_population", "mean_vm", "moments",
    "pava", "population_from_dict", "purchase_decision", "quality_demand",
    "quality_demand_mc", "quality_demand_surface", "ratio_marginal",
    "recover_cross_moments", "recover_from_slice_moments", "sample",
    "slice_from_surface", "slice_moment_rows", "slice_moments",
    "surface_slices", "verify_recovery",
]
