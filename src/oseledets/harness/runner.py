"""Experiment orchestration: dispatch one configuration to the computational
modules and flatten the outcome into a result record."""

from __future__ import annotations

import itertools
import time

import numpy as np

from .. import cocycle as cc
from .. import grassmann as _grassmann
from .. import interval as iv
from .. import sft as sf
from ..errors import ConfigError, NumericalFailure
from . import lemmas
from .config import RunConfig, build_driving, parse_matrices, parse_matrix, parse_vector

MAP_PRESETS = {
    "doubling": iv.doubling_map,
    "tripling": iv.tripling_map,
    "tent": iv.tent_map,
    "identity": iv.identity_map,
}


def _build_maps(cfg: RunConfig) -> list[iv.PiecewiseMap]:
    maps = []
    if "maps" in cfg.system:
        for name in cfg.system["maps"].replace(",", " ").split():
            name = name.strip()
            if name.startswith("slope:"):
                maps.append(iv.single_slope_map(float(name.split(":", 1)[1])))
            elif name in MAP_PRESETS:
                maps.append(MAP_PRESETS[name]())
            else:
                raise ConfigError(f"unknown map preset {name!r}")
    idx = 0
    while f"map.{idx}" in cfg.system:
        rows = [row for row in
                (parse_vector(part) for part in cfg.system[f"map.{idx}"].split(";")
                 if part.strip())]
        maps.append(iv.affine_map(rows))
        idx += 1
    if not maps:
        raise ConfigError("interval run needs system.maps or system.map.N entries")
    return maps


def run_cocycle(cfg: RunConfig) -> dict:
    if "matrices" not in cfg.system:
        raise ConfigError("cocycle run needs system.matrices")
    mats = parse_matrices(cfg.system["matrices"])
    gen = cc.Generator.from_list([np.asarray(m) for m in mats])
    driving = build_driving(cfg, size_hint=len(mats))
    n_past = cfg.numeric("n_past", 200, int)
    n_future = cfg.numeric("n_future", 50, int)
    n = cfg.numeric("n", 10_000, int)
    g_len = cfg.numeric("g_len", 20, int)
    gap_tol = cfg.numeric("gap_tolerance", cc.GAP_TOLERANCE)
    conv_tol = cfg.numeric("convergence_tolerance", cc.CONVERGENCE_TOLERANCE)
    window = driving.sample_window(n_past, n_future + g_len)
    report = cc.oseledets_splitting(
        gen, None, window, n_past=n_past, n_future=n_future,
        gap_tolerance=gap_tol, convergence_tolerance=conv_tol)
    exps = cc.lyapunov_exponents(gen, driving, n=n, gap_tolerance=gap_tol)
    g_decay = _g_decay_series(gen, window, report, g_len)
    return {
        "kind": "cocycle",
        "m": gen.dim,
        "n": n,
        "n_past": n_past,
        "n_future": n_future,
        "exponents": [lam for lam, _ in exps],
        "multiplicities": [d for _, d in exps],
        "lambda1": exps[0][0],
        "splitting_exponents": list(report.exponents),
        "equivariance_residuals": list(report.residuals["equivariance"]),
        "cauchy_gaps": list(report.residuals["cauchy_gap"]),
        "uniqueness_g0": list(report.residuals["uniqueness_g0"]),
        "g_decay": g_decay,
        "direct_sum_min_sv": report.residuals["direct_sum_min_sv"][0],
    }


def _g_decay_series(gen, window, report, g_len) -> list[float]:
    """Decay series of the uniqueness diagnostic for a canonically perturbed
    top-block candidate (empty when there is no second block to lean on)."""
    if report.p < 2 or g_len < 1:
        return []
    e1 = report.splitting[0]
    v2 = report.filtration[0]
    frame = np.array(e1.frame, copy=True)
    frame[:, 0] = frame[:, 0] + 0.25 * v2.frame[:, 0]
    try:
        candidate = _grassmann.Subspace.from_spanning(frame)
        series = cc.uniqueness_diagnostic(gen, None, window, candidate,
                                          report, 1, g_len)
    except NumericalFailure:
        return []
    return [float(v) for v in series]


def run_interval(cfg: RunConfig) -> dict:
    maps = _build_maps(cfg)
    driving = build_driving(cfg, size_hint=len(maps))
    sys = iv.RandomIntervalSystem(tuple(maps), driving)
    k = cfg.numeric("k", 64, int)
    n_past = cfg.numeric("n_past", 200, int)
    n_future = cfg.numeric("n_future", 50, int)
    acim = iv.random_acim(sys, None, k=k, n_past=n_past, n_future=n_future)
    density = acim.densities[0]
    # refinement diagnostic: L1 distance against half the bin count
    cauchy_density = float("nan")
    if k % 2 == 0 and k >= 2:
        coarse = iv.random_acim(sys, None, k=k // 2, n_past=n_past,
                                n_future=n_future)
        fine_on_coarse = 0.5 * (density[0::2] + density[1::2])
        cauchy_density = float(np.mean(np.abs(fine_on_coarse - coarse.densities[0])))
    record = {
        "kind": "interval",
        "k": k,
        "n_past": n_past,
        "lambda1": acim.lambda1,
        "d1": acim.d1,
        "chi": acim.chi,
        "kappa_star": acim.kappa_star,
        "expanding": acim.chi < 1.0,
        "density": [float(x) for x in density],
        "density_flatness": float(np.max(np.abs(density - 1.0))),
        "density_min": float(np.min(density)),
        "cauchy_gap_density": cauchy_density,
    }
    return record


def run_sft(cfg: RunConfig) -> dict:
    theta = float(cfg.system.get("theta", 0.5))
    if "amplitudes" not in cfg.system:
        raise ConfigError("sft run needs system.amplitudes")
    amps = parse_vector(cfg.system["amplitudes"])
    driving = build_driving(cfg, size_hint=len(amps))
    n = cfg.numeric("n", 100_000, int)
    example = sf.antisymmetric_example(amps, driving, theta=theta, n=n)
    n_ic = cfg.numeric("n_ic", 3, int)
    m_proj = cfg.numeric("m_proj", n_ic, int)
    word = driving.sample_window(0, n_ic, stream=0).future
    weights = [example.weights[s] for s in word]
    sandwich = sf.norm_and_ic_bounds(example.sft, weights, n_ic, m_proj,
                                     n_samples=cfg.numeric("ic_samples", 100, int),
                                     seed=cfg.seed)
    rng = np.random.default_rng([cfg.seed, 7])
    samples = []
    for _ in range(cfg.numeric("ly_samples", 25, int)):
        depth = int(rng.integers(1, 6))
        samples.append(sf.CylinderFunction(
            example.sft, depth,
            rng.uniform(-1.0, 1.0, size=len(example.sft.legal_words(depth)))))
    smoothing = sf.lipschitz_ly_check(example.sft, weights, n_ic, samples,
                                      k_constant=sandwich.k_constant)
    return {
        "kind": "sft",
        "theta": theta,
        "n": n,
        "amplitudes": amps,
        "lambda1": example.lambda1,
        "lambda2": example.lambda2,
        "identity_residual": example.identity_residual,
        "r_n": sandwich.r_n,
        "op_norm_est": sandwich.op_norm_est,
        "op_norm_upper": sandwich.op_norm_upper,
        "ic_lower_formula": sandwich.ic_lower_formula,
        "ic_lower_certified": sandwich.ic_lower_certified,
        "ic_upper_sampled": sandwich.ic_upper_sampled,
        "distortion_k": sandwich.k_constant,
        "ly_slacks": list(smoothing.slacks),
        "ly_min_slack": min(smoothing.slacks),
    }


def run_counterexample(cfg: RunConfig) -> dict:
    a0 = np.asarray(parse_matrix(cfg.system["a0"]))
    a1 = np.asarray(parse_matrix(cfg.system["a1"]))
    driving = build_driving(cfg, size_hint=2)
    n_pairs = cfg.numeric("n_pairs", 50, int)
    past_length = cfg.numeric("past_length", 100, int)
    future_length = cfg.numeric("future_length", 20, int)
    windows = driving.sample_past_variants(n_pairs, past_length, future_length)
    demo = cc.noncommuting_base_demo(a0, a1, windows,
                                     gap_tolerance=cfg.numeric(
                                         "gap_tolerance", cc.GAP_TOLERANCE))
    return {
        "kind": "counterexample",
        "n_pairs": n_pairs,
        "past_length": past_length,
        "max_gap": demo.max_gap,
        "gaps": [g for _, g in demo.gaps],
        "commutator_norm": demo.commutator_norm,
        "exponent_gap_estimate": demo.exponent_gap_estimate,
    }


RUNNERS = {
    "cocycle": run_cocycle,
    "interval": run_interval,
    "sft": run_sft,
    "counterexample": run_counterexample,
}


def run(cfg: RunConfig) -> dict:
    """Dispatch one run; numerical failures are recorded, not raised."""
    started = time.monotonic()
    base = {"kind": cfg.kind, "seed": cfg.seed, "config_digest": cfg.digest()}
    try:
        if cfg.kind == "lemma-suite":
            record = lemmas.run_lemma_suite(cfg.seed)
            record.update(base)
            record.setdefault("status", "ok")
            record.setdefault("error", "")
        else:
            record = RUNNERS[cfg.kind](cfg)
            record.update(base)
            record["status"] = "ok"
            record["error"] = ""
    except NumericalFailure as exc:
        record = dict(base)
        record["status"] = "error"
        record["error"] = type(exc).__name__
        record["error_detail"] = str(exc)
    record["wall_time_s"] = time.monotonic() - started
    return record


def parse_grid(specs: list[str]) -> list[tuple[str, list[str]]]:
    grid = []
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"grid spec {spec!r} must look like KEY=V1,V2,...")
        key, values = spec.split("=", 1)
        vals = [v for v in values.split(",") if v != ""]
        if not vals:
            raise ConfigError(f"grid spec {spec!r} has no values")
        grid.append((key.strip(), vals))
    return grid


def _apply_point(cfg: RunConfig, point: dict[str, str], index: int) -> RunConfig:
    import copy

    out = copy.deepcopy(cfg)
    out.seed = cfg.seed ^ index
    for key, value in point.items():
        section, _, name = key.partition(".")
        if not name:
            out.numerics[section] = value
        elif section == "numerics":
            out.numerics[name] = value
        elif section == "system":
            out.system[name] = value
        elif section == "driving":
            out.driving[name] = value
        else:
            raise ConfigError(f"unknown grid section {section!r}")
    return out


def sweep(cfg: RunConfig, grid: list[tuple[str, list[str]]]) -> list[dict]:
    """One record per grid point, run serially in grid order; per-point seeds
    are base_seed XOR point_index.  Failed points carry error tags."""
    if not grid:
        return []
    keys = [k for k, _ in grid]
    points = [dict(zip(keys, combo))
              for combo in itertools.product(*[vals for _, vals in grid])]
    records = []
    for i, point in enumerate(points):
        record = run(_apply_point(cfg, point, i))
        record["sweep_index"] = i
        for key, value in point.items():
            record[f"grid_{key.replace('.', '_')}"] = value
        records.append(record)
    return records
