"""Seeded randomized property corpus: the quantitative facts every other
computation relies on, run as one suite with measured constants.

Each check returns (pass, measured) and the suite assembles a flat record.
The corpus is fully determined by the seed.
"""

from __future__ import annotations

import sys

import numpy as np

from .. import grassmann as gr
from .. import sft as sf


def _random_subspace(rng, m, d) -> gr.Subspace:
    return gr.Subspace.from_spanning(rng.standard_normal((m, d)))


def _random_direct_pair(rng, m, d):
    while True:
        v = _random_subspace(rng, m, d)
        w = _random_subspace(rng, m, m - d)
        if gr.direct_sum_min_sv(v.frame, gr.complement(w.frame)) > 0.05:
            return v, w


def _perturb(rng, sub: gr.Subspace, eps: float) -> gr.Subspace:
    noise = rng.standard_normal(sub.frame.shape)
    noise -= sub.frame @ (sub.frame.T @ noise)
    noise /= max(np.linalg.norm(noise, 2), 1e-300)
    return gr.Subspace.from_spanning(sub.frame + eps * noise)


def check_projection_idempotence(seed: int) -> tuple[bool, float]:
    rng = np.random.default_rng([seed, 1])
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 9))
        d = int(rng.integers(1, m))
        v, w = _random_direct_pair(rng, m, d)
        p = gr.project_along(kernel=w, range=v)
        worst = max(worst, float(np.max(np.abs(p @ p - p))))
    return worst <= 1e-10, worst


def check_decomposition(seed: int) -> tuple[bool, float]:
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 9))
        d = int(rng.integers(1, m))
        v, w = _random_direct_pair(rng, m, d)
        p = gr.project_along(kernel=w, range=v)
        x = rng.standard_normal(m)
        px, qx = p @ x, x - p @ x
        worst = max(worst, float(np.linalg.norm(x - px - qx)))
        worst = max(worst, float(np.linalg.norm(px - v.frame @ (v.frame.T @ px))))
        worst = max(worst, float(np.linalg.norm(qx - w.frame @ (w.frame.T @ qx))))
    return worst <= 1e-10, worst


def check_gap_metric(seed: int) -> tuple[bool, float]:
    rng = np.random.default_rng([seed, 3])
    worst_violation = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 7))
        d = int(rng.integers(1, m + 1))
        a, b, c = (_random_subspace(rng, m, d) for _ in range(3))
        gab, gba = gr.gap(a, b), gr.gap(b, a)
        if gab != gba:
            return False, abs(gab - gba)
        tri = gr.gap(a, c) - (gab + gr.gap(b, c))
        worst_violation = max(worst_violation, tri)
        if gr.gap(a, a) != 0.0:
            return False, gr.gap(a, a)
    return worst_violation <= 1e-10, worst_violation


def check_projection_continuity(seed: int) -> tuple[bool, float]:
    """Perturbing one leg of a direct pair moves the projection by at most a
    bounded multiple of the gap; the ratio must stay bounded as the
    perturbation shrinks."""
    rng = np.random.default_rng([seed, 4])
    worst_ratio = 0.0
    for _ in range(12):
        m = int(rng.integers(3, 8))
        d = int(rng.integers(1, m))
        v, w = _random_direct_pair(rng, m, d)
        p0 = gr.project_along(kernel=w, range=v)
        base = np.linalg.norm(p0, 2)
        for eps in (1e-4, 1e-5, 1e-6):
            v_eps = _perturb(rng, v, eps)
            moved = gr.gap(v, v_eps)
            if moved == 0.0:
                continue
            p1 = gr.project_along(kernel=w, range=v_eps)
            ratio = np.linalg.norm(p1 - p0, 2) / moved
            worst_ratio = max(worst_ratio, float(ratio / max(base, 1.0)))
    return worst_ratio <= 100.0, worst_ratio


def check_restricted_norm_continuity(seed: int) -> tuple[bool, float]:
    rng = np.random.default_rng([seed, 5])
    worst_ratio = 0.0
    for _ in range(12):
        m = int(rng.integers(3, 8))
        d = int(rng.integers(1, m))
        v, w = _random_direct_pair(rng, m, d)
        e = _random_subspace(rng, m, max(1, d // 2 + 1))
        p = gr.project_along(kernel=w, range=v)
        n0 = np.linalg.norm(p @ e.frame, 2)
        for eps in (1e-4, 1e-5, 1e-6):
            e_eps = _perturb(rng, e, eps)
            moved = gr.gap(e, e_eps)
            if moved == 0.0:
                continue
            n1 = np.linalg.norm(p @ e_eps.frame, 2)
            ratio = abs(n1 - n0) / moved
            worst_ratio = max(worst_ratio, float(ratio / max(np.linalg.norm(p, 2), 1.0)))
    return worst_ratio <= 100.0, worst_ratio


def check_basis_sandwich(seed: int) -> tuple[bool, float]:
    """Norm-adapted bases: ||a||_2 <= ||sum a_i e_i|| <= 4 sqrt(d) ||a||_2 on
    fresh sampled coefficients, for all three ambient norms."""
    rng = np.random.default_rng([seed, 6])
    worst_margin = np.inf
    for _ in range(6):
        m = int(rng.integers(2, 7))
        d = int(rng.integers(1, min(m, 4) + 1))
        sub = _random_subspace(rng, m, d)
        for norm in ("euclidean", "sup", "one"):
            basis = gr.conditioned_basis(sub, norm=norm,
                                         seed=int(rng.integers(2 ** 32)))
            b = np.stack(basis, axis=1)
            coeffs = rng.standard_normal((d, 10_000))
            coeffs /= np.linalg.norm(coeffs, axis=0)
            vals = gr.ambient_norm(b @ coeffs, norm)
            lower = float(np.min(vals))
            upper = float(np.max(vals)) / (4.0 * np.sqrt(d))
            if lower < 1.0 or upper > 1.0:
                return False, min(lower, 1.0 / max(upper, 1e-300))
            worst_margin = min(worst_margin, lower, 1.0 / upper)
    return True, float(worst_margin)


def check_cylinder_projection_bounds(seed: int) -> tuple[bool, float]:
    rng = np.random.default_rng([seed, 7])
    worst = -np.inf
    shifts = [sf.Sft.full(2, 0.5), sf.Sft.full(3, 0.4), sf.Sft.golden_mean(0.6)]
    for _ in range(20):
        shift = shifts[int(rng.integers(len(shifts)))]
        depth = int(rng.integers(2, 7))
        n = int(rng.integers(1, depth))
        f = sf.CylinderFunction(shift, depth,
                                rng.uniform(-1, 1, size=len(shift.codes(depth))))
        proj = sf.cylinder_projection(shift, f, n)
        resid = f - proj.with_depth(depth)
        lip = f.lip_theta()
        sup_excess = resid.sup_norm() - shift.theta ** n * lip
        lip_excess = resid.lip_theta() - max(2 * shift.theta, 1.0) * lip
        worst = max(worst, float(sup_excess), float(lip_excess))
    return worst <= 1e-12, worst


def check_distortion_uniformity(seed: int) -> tuple[bool, float]:
    """The distortion constant stays bounded as the word length grows."""
    shift = sf.Sft.full(2, 0.5)
    h_vals = np.array([-0.2, -0.05, 0.05, 0.2])
    h = sf.CylinderFunction(shift, 2, h_vals)
    weight = sf.antisymmetric_weight_pair(shift, h)
    report = sf.distortion_check(shift, [weight] * 8, k_max=6, depth=6)
    increasing = max(report.per_k[1:]) > report.per_k[0] + 1e-9 \
        if report.per_k[0] > 0 else max(report.per_k) > report.per_k[-1] + 1e-9
    ok = (report.feasible_d <= report.proof_bound) and not increasing
    return ok, report.feasible_d


def check_lipschitz_smoothing(seed: int) -> tuple[bool, float]:
    shift = sf.Sft.full(2, 0.5)
    rng = np.random.default_rng([seed, 9])
    h = sf.CylinderFunction(shift, 1, np.array([-0.4, 0.4]))
    weight = sf.antisymmetric_weight_pair(shift, h)
    samples = []
    for _ in range(100):
        depth = int(rng.integers(1, 7))
        samples.append(sf.CylinderFunction(
            shift, depth, rng.uniform(-1, 1, size=len(shift.codes(depth)))))
    report = sf.lipschitz_ly_check(shift, [weight] * 4, 3, samples)
    return min(report.slacks) >= 0.0, float(min(report.slacks))


ALL_CHECKS = {
    "projection_idempotence": check_projection_idempotence,
    "projection_decomposition": check_decomposition,
    "gap_metric": check_gap_metric,
    "projection_continuity": check_projection_continuity,
    "restricted_norm_continuity": check_restricted_norm_continuity,
    "basis_sandwich": check_basis_sandwich,
    "cylinder_projection_bounds": check_cylinder_projection_bounds,
    "distortion_uniformity": check_distortion_uniformity,
    "lipschitz_smoothing": check_lipschitz_smoothing,
}


def run_lemma_suite(seed: int, verbose: bool = False) -> dict:
    record = {"kind": "lemma-suite", "seed": seed}
    all_ok = True
    for name, check in ALL_CHECKS.items():
        ok, measured = check(seed)
        record[f"{name}_pass"] = bool(ok)
        record[f"{name}_measured"] = float(measured)
        all_ok = all_ok and ok
        if verbose:
            print(f"[lemma-suite] {name}: {'PASS' if ok else 'FAIL'} "
                  f"(measured {measured:.3e})", file=sys.stderr)
    record["status"] = "ok" if all_ok else "fail"
    record["error"] = "" if all_ok else "LemmaFailure"
    return record
