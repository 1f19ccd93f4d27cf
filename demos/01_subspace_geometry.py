#!/usr/bin/env python3
"""Subspace geometry walkthrough.

Oblique projections, the chart-style local norm, the gap metric, and bases
adapted to non-euclidean ambient norms.  Everything downstream (filtrations,
splittings, the uniqueness diagnostic) is assembled from these pieces.
"""

import numpy as np

from oseledets import Subspace, conditioned_basis, gap, local_norm, project_along
from oseledets.grassmann import ambient_norm

rng = np.random.default_rng(0)

print("=== projections along complements ===")
kernel = Subspace.span([1.0, 1.0])
target = Subspace.span([0.0, 1.0])
p = project_along(kernel=kernel, range=target)
x = np.array([2.0, 5.0])
print(f"x = {x}, kernel = span(1,1), range = span(0,1)")
print(f"P x = {p @ x}   (the unique decomposition drops 2*(1,1))")
print(f"idempotence residual: {np.max(np.abs(p @ p - p)):.2e} "
      f"(||P||_2 = {np.linalg.norm(p, 2):.4f})")
print("P is one c×c solve (grassmann.project_off, c = dim kernel) applied to the identity;")
print("the splitting, the uniqueness diagnostic and the local norm use the same helper")

print()
print("=== local norm of a tilted line ===")
e0 = Subspace.span([1.0, 0.0])
f0 = Subspace.span([0.0, 1.0])
for t in (0.1, 0.5, 2.0):
    e = Subspace.from_spanning(np.array([[1.0], [t]]))
    print(f"t = {t:4}: local norm = {local_norm(e, e0, f0):.6f}  (equals |t|)")

print()
print("=== gap metric = sine of the largest principal angle ===")
for phi in (0.1, 0.7854, 1.4):
    line = Subspace.span([np.cos(phi), np.sin(phi)])
    print(f"phi = {phi:.4f}: gap to the x-axis = {gap(e0, line):.6f} "
          f"(sin phi = {np.sin(phi):.6f})")

print()
print("=== norm-adapted bases: ||a||_2 <= ||sum a_i e_i|| <= 4 sqrt(d) ||a||_2 ===")
sub = Subspace.from_spanning(rng.standard_normal((4, 2)))
for norm in ("euclidean", "sup", "one"):
    basis = conditioned_basis(sub, norm=norm, seed=1)
    b = np.stack(basis, axis=1)
    coeffs = rng.standard_normal((2, 20_000))
    coeffs /= np.linalg.norm(coeffs, axis=0)
    vals = ambient_norm(b @ coeffs, norm)
    print(f"{norm:>9}: sampled range [{vals.min():.4f}, {vals.max():.4f}] "
          f"inside [1, {4 * np.sqrt(2):.4f}]")
