"""
Tabulate demand curves and read the willingness-to-pay law back off them.

Every consumer here buys one unit or nothing. A consumer with good value
vk and money value vm buys at price p exactly when vk >= vm * p, so the
demand curve is the survival function of the ratio vk / vm and carries
no information beyond it. This script builds three populations whose
ratio laws are known in closed form, tabulates each demand curve, then
inverts the curve and checks that we get the ratio CDF back to machine
precision.

Run it directly:

    python3 demos/demand_curves.py
"""

import numpy as np

import demandlab as dl
from demandlab import populations as pops
from demandlab.marginals import MarginalSpec


def main():
    money = MarginalSpec.scaled_beta(2.0, 2.0, lo=0.5, hi=1.5)
    candidates = {
        "uniform ratio on [1, 2]": pops.ProductPopulation(
            pops.RatioMarginalSpec.uniform(1.0, 2.0, vm_hi=3.0), money),
        "triangular ratio on [0.8, 2.2]": pops.ProductPopulation(
            pops.RatioMarginalSpec.triangular(0.8, 2.2, vm_hi=3.0), money),
        "single consumer type (vk=2, vm=1)": pops.PointMassPopulation(
            2.0, 1.0),
    }

    for label, pop in candidates.items():
        curve = dl.demand_curve(pop)
        print(f"\n{label}")
        print(f"  grid: {curve.prices.size} prices on "
              f"[{curve.prices[0]:.4f}, {curve.prices[-1]:.4f}]")
        for q in (0.25, 0.5, 0.75):
            idx = int(np.argmin(np.abs(curve.values - q)))
            print(f"  demand {curve.values[idx]:.4f} at price "
                  f"{curve.prices[idx]:.4f}")

        table = dl.invert_demand(curve)
        want = pops.ratio_marginal(pop).cdf(table.r)
        err = float(np.max(np.abs(table.G - want)))
        print(f"  round trip |implied CDF - true CDF| = {err:.3e}")

    # the same curve again at a handful of hand-picked prices
    pop = candidates["uniform ratio on [1, 2]"]
    print("\nspot checks, uniform ratio: D(1.25) =",
          dl.demand_at(pop, 1.25), " D(1.5) =", dl.demand_at(pop, 1.5))


if __name__ == "__main__":
    main()
