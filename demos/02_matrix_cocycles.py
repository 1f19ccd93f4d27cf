#!/usr/bin/env python3
"""Matrix cocycles end to end.

Estimate a Lyapunov spectrum by QR accumulation, compute the splitting by
pushing far-past singular directions into the forward filtration, and then
stress it with the three quantitative diagnostics: uniform growth on a block,
backward decay along a full orbit, and the uniqueness decay series.
"""

import numpy as np

from oseledets import (
    DrivingSystem,
    Generator,
    Subspace,
    backward_decay_check,
    gap,
    lyapunov_exponents,
    oseledets_splitting,
    uniform_growth_check,
    uniqueness_diagnostic,
)

print("=== a random positive 2x2 cocycle over i.i.d. driving ===")
rng = np.random.default_rng(7)
gen = Generator.from_list([rng.uniform(0.5, 2.0, size=(2, 2)) for _ in range(3)])
driving = DrivingSystem.iid([1 / 3, 1 / 3, 1 / 3], seed=11)

exps = lyapunov_exponents(gen, driving, n=50_000)
print("exponents (rate, multiplicity):", [(round(l, 6), d) for l, d in exps])

window = driving.sample_window(2300, 120)
report = oseledets_splitting(gen, None, window, n_past=250, n_future=60)
print("splitting exponents:", [round(x, 6) for x in report.exponents])
print("equivariance residuals:", [f"{r:.2e}" for r in report.equivariance])
print("Cauchy gaps vs half past:", [f"{r:.2e}" for r in report.cauchy_gap])

print()
print("=== uniform growth on the top space ===")
lo, hi = uniform_growth_check(gen, window, report.splitting[0], 100)
print(f"min/max growth over the unit sphere of E_1: {lo:.6f} / {hi:.6f} "
      f"(top exponent {report.exponents[0]:.6f})")

print()
print("=== backward decay along a full orbit in E_1 ===")
rate = backward_decay_check(gen, window, report, 1, 2000)
print(f"fitted (1/n) log ||v_-n|| = {rate:.6f}, expected "
      f"{-report.exponents[0]:.6f}")

print()
print("=== the uniqueness decay series ===")
own = uniqueness_diagnostic(gen, window, report.splitting[0], report, 1, 20)
print(f"candidate = the splitting's own block: max g = {own.max():.2e}")
tilted = Subspace.from_spanning(
    report.splitting[0].frame + 0.3 * report.splitting[1].frame)
series = uniqueness_diagnostic(gen, window, tilted, report, 1, 20)
mask = series > 1e-14
slope = np.polyfit(np.arange(21)[mask], np.log(series[mask]), 1)[0]
print(f"perturbed candidate: fitted decay slope {slope:.4f}, "
      f"exponent difference {-(report.exponents[0] - report.exponents[1]):.4f}")
print("g(k):", " ".join(f"{v:.1e}" for v in series[:8]), "...")
