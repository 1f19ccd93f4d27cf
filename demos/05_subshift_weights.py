#!/usr/bin/env python3
"""Weighted transfer operators on subshifts of finite type.

The depth-n cylinder calculus is exact, so transfer matrices, bounded
distortion, the smoothing inequality, the projection bounds, and the
norm/covering sandwich can all be checked with no discretization error.  The
antisymmetric weight family ends the tour: a cocycle whose second exponent is
a driving average in closed form.
"""

import numpy as np

from oseledets import DrivingSystem
from oseledets.sft import (
    CylinderFunction,
    Sft,
    antisymmetric_example,
    antisymmetric_weight_pair,
    cylinder_projection,
    distortion_check,
    lipschitz_ly_check,
    norm_and_ic_bounds,
    rn,
    transfer_matrix,
)

shift = Sft.full(2, 0.5)
h = CylinderFunction(shift, 1, np.array([-0.4, 0.4]))
weight = antisymmetric_weight_pair(shift, h)
weights = [weight] * 10

print("=== the weight and its transfer matrix ===")
print("weight on 2-cylinders:", dict(zip(shift.legal_words(2), weight.array.round(3).tolist())))
mat, basis = transfer_matrix(shift, weight)
print(f"matrix on {basis}: {mat.tolist()}  eigenvalues "
      f"{sorted(np.linalg.eigvals(mat).round(12))}")
print(f"sup image growth R_n: {[rn(shift, weights, n) for n in (1, 3, 5)]} "
      f"(row sums are exactly one)")

print()
print("=== projection onto depth-3 cylinders ===")
f = CylinderFunction.from_callable(
    shift, 10, lambda w: sum(0.5 ** i * w[i] for i in range(10)))
resid = f - cylinder_projection(shift, f, 3).with_depth(10)
print(f"|f|_theta = {f.lip_theta():.6f}; residual sup {resid.sup_norm():.6f} "
      f"<= theta^3 |f|_theta = {0.125 * f.lip_theta():.6f}")

print()
print("=== bounded distortion and the smoothing inequality ===")
h2 = CylinderFunction(shift, 2, np.array([-0.2, -0.05, 0.05, 0.2]))
deep = [antisymmetric_weight_pair(shift, h2)] * 8
dist = distortion_check(shift, deep, k_max=6, depth=8)
print(f"distortion constants per word length: "
      f"{[round(x, 4) for x in dist.per_k]} (a-priori bound {dist.proof_bound:.1f})")
rng = np.random.default_rng(6)
samples = []
for _ in range(50):
    depth = int(rng.integers(1, 7))
    samples.append(CylinderFunction(
        shift, depth, rng.uniform(-1, 1, size=len(shift.codes(depth)))))
smooth = lipschitz_ly_check(shift, weights, 3, samples)
print(f"smoothing inequality over 50 samples: min slack {min(smooth.slacks):.4f} "
      f"(K = {smooth.k_constant})")

print()
print("=== norm and covering-number sandwich ===")
for n in (2, 4, 6):
    rep = norm_and_ic_bounds(shift, weights, n)
    print(f"n = {n}: R_n = {rep.r_n}, operator norm in "
          f"[{rep.op_norm_est:.3f}, {rep.op_norm_upper:.3f}], covering radius in "
          f"[{rep.ic_lower_certified:.5f}, {rep.ic_upper_bound:.5f}]")

print()
print("=== the antisymmetric family's computable spectrum ===")
driving = DrivingSystem.iid([0.5, 0.5], seed=9)
example = antisymmetric_example([0.6, 0.9], driving, n=100_000)
target = 0.5 * (np.log(0.6) + np.log(0.9))
print(f"amplitudes 0.6 / 0.9 mixed fairly: lambda_1 = {example.lambda1:.2e}, "
      f"lambda_2 = {example.lambda2:.6f} (driving average {target:.6f})")
print(f"pointwise identity residual at the all-ones point: "
      f"{example.identity_residual}")
