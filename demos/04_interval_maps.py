#!/usr/bin/env python3
"""Random expanding interval maps through their transfer operators.

Exact transfer images of piecewise-affine functions, the variation
inequality, the contraction-coefficient sandwich with its separated
half-indicator family, and random invariant densities from the bin-transition
cocycle.
"""

import numpy as np

from oseledets import DrivingSystem
from oseledets.interval import (
    BVFunction,
    RandomIntervalSystem,
    affine_map,
    chi_estimate,
    chi_exact,
    doubling_map,
    essrad_sandwich_check,
    ly_inequality_check,
    random_acim,
    single_slope_map,
    transfer_apply,
    tripling_map,
)

print("=== exact transfer images ===")
f = BVFunction.indicator(0.0, 0.5)
image = transfer_apply(doubling_map(), f)
print(f"doubling map on 1_[0,1/2): constant {image.evaluate(0.3)} "
      f"(integral preserved: {image.integral()} = {f.integral()})")

print()
print("=== the variation inequality var(Lf) <= a var(f) + D sum |int_J f| ===")
rng = np.random.default_rng(4)
samples = [BVFunction.random(rng) for _ in range(200)]
rep = ly_inequality_check(doubling_map(), samples)
print(f"a = 3/essinf|T'| = {rep.a}, smallest feasible D over 200 samples: "
      f"{rep.feasible_d}, min slack {min(rep.slacks):.4f}")

print()
print("=== contraction-coefficient sandwich for the 2-step doubling map ===")
driving = DrivingSystem.iid([1.0], seed=1)
sys = RandomIntervalSystem((doubling_map(),), driving)
sand = essrad_sandwich_check(sys, driving.sample_window(0, 4), 2)
print(f"a_2 = {sand.a_n} exactly; separated family pairwise distance "
      f"{sand.min_pairwise_distance} >= 2*0.9*a_2 = {2 * 0.9 * sand.a_n}")
print(f"covering lower bound {sand.ic_lower} <= finite-rank upper bound "
      f"{sand.fr_upper} (measured remainder {sand.fr_measured:.4f})")

print()
print("=== expansion on average ===")
mixed = RandomIntervalSystem(
    (tripling_map(), single_slope_map(0.75)), DrivingSystem.iid([0.5, 0.5], seed=7))
est = chi_estimate(mixed, n=100_000, samples=8)
print(f"slopes 3 and 3/4 mixed fairly: chi = {est.chi:.6f} "
      f"(closed form {chi_exact(mixed):.6f} = 2/3), "
      f"log-rate {est.kappa_star:.6f}")

print()
print("=== random invariant densities from the bin cocycle ===")
skew = affine_map([[0.0, 0.5, 1.4, 0.3], [0.5, 1.0, 2.0, -1.0]])
sys2 = RandomIntervalSystem((doubling_map(), skew),
                            DrivingSystem.iid([0.5, 0.5], seed=6))
acim = random_acim(sys2, k=64, n_past=250)
dens = acim.densities[0]
print(f"top exponent {acim.lambda1:.2e} (stochastic structure forces 0), "
      f"d1 = {acim.d1}")
print(f"density: min {dens.min():.4f}, max {dens.max():.4f}, "
      f"integral {np.mean(dens):.6f}")
print("first bins:", " ".join(f"{v:.3f}" for v in dens[:8]))
