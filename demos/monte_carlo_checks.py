"""
Cross-check every analytic quantity against seeded simulation.

Draw a million consumers, let each apply the buy rule at a few prices,
and compare the empirical purchase share with the analytic demand
curve. Then bin the draws by ratio and compare the average money value
inside each bin with the conditional profile the population was built
from. Agreement should sit inside a few standard errors; the exact
seeds make reruns reproducible.
"""

import math

import numpy as np

import demandlab as dl
from demandlab import populations as pops

N = 1_000_000


def check_demand(pop, label):
    draws = pops.sample(pop, N, seed=7)
    r = draws[:, 0] / draws[:, 1]
    sup = pop.support
    print(f"\n{label}: empirical vs analytic demand")
    for frac in (0.25, 0.5, 0.75):
        p = sup.r_lo + frac * (sup.r_hi - sup.r_lo)
        want = dl.demand_at(pop, p)
        got = float(np.mean(r >= p))
        se = math.sqrt(want * (1 - want) / N)
        print(f"  p={p:.3f}  analytic {want:.5f}  empirical {got:.5f}  "
              f"({abs(got - want) / se:.2f} se)")


def check_conditional_means(pop, label):
    draws = pops.sample(pop, N, seed=11)
    vm = draws[:, 1]
    r = draws[:, 0] / vm
    edges = np.linspace(1.0, 2.0, 9)
    idx = np.clip(np.digitize(r, edges) - 1, 0, 7)
    r_lo = pop.support.r_lo
    print(f"\n{label}: money value by ratio bin")
    print("  bin            expected   sampled")
    for b in range(8):
        sel = vm[idx == b]
        # exact bin average of the conditional profile: integral of h
        # over the bin divided by the ratio mass in the bin
        mass = pop.ratio.cdf(edges[b + 1]) - pop.ratio.cdf(edges[b])
        want = pop.cond.h_integral(r_lo, edges[b], edges[b + 1]) / mass
        print(f"  [{edges[b]:.3f},{edges[b + 1]:.3f})   "
              f"{want:8.4f}   {float(np.mean(sel)):8.4f}")


def main():
    seed = pops.RatioMarginalSpec.uniform(1.0, 2.0, vm_hi=100.0)
    low = pops.make_low_population(seed, delta=0.5)
    high = pops.make_high_population(seed, delta=0.04)

    check_demand(low, "low-regime population")
    check_demand(high, "high-regime population")
    check_conditional_means(low, "low-regime population")
    check_conditional_means(high, "high-regime population")

    print("\nnote how the sampled money values fall toward the cheap "
          "margin in one family and rise in the other, while the demand "
          "columns match to simulation noise in both.")


if __name__ == "__main__":
    main()
