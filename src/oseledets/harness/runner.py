"""Experiment orchestration: dispatch one configuration to the computational
modules and flatten the outcome into a result record."""

from __future__ import annotations

import dataclasses
import itertools
import time

import numpy as np

from .. import cocycle as cc
from .. import grassmann as _grassmann
from .. import interval as iv
from .. import sft as sf
from ..errors import ConfigError, NumericalFailure
from . import lemmas
from .config import RunConfig, validate_config


def run_cocycle(cfg: RunConfig) -> dict:
    num, (gen, driving) = cfg.built
    n_past, n_future, g_len = num["n_past"], num["n_future"], num["g_len"]
    gap_tol = num["gap_tolerance"]
    window = driving.sample_window(n_past, n_future + g_len)
    report = cc.oseledets_splitting(
        gen, None, window, n_past=n_past, n_future=n_future,
        gap_tolerance=gap_tol, convergence_tolerance=num["convergence_tolerance"])
    exps = cc.lyapunov_exponents(gen, driving, n=num["n"], gap_tolerance=gap_tol)
    g_decay = _g_decay_series(gen, window, report, g_len)
    return {
        "kind": "cocycle",
        "m": gen.dim,
        "n": num["n"],
        "n_past": n_past,
        "n_future": n_future,
        "exponents": [lam for lam, _ in exps],
        "multiplicities": [d for _, d in exps],
        "lambda1": exps[0][0],
        "splitting_exponents": list(report.exponents),
        "equivariance_residuals": list(report.equivariance),
        "cauchy_gaps": list(report.cauchy_gap),
        "uniqueness_g0": list(report.uniqueness_g0),
        "g_decay": g_decay,
        "direct_sum_min_sv": report.direct_sum_min_sv,
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
        series = cc.uniqueness_diagnostic(gen, window, candidate, report, 1, g_len)
    except NumericalFailure:
        return []
    return [float(v) for v in series]


def run_interval(cfg: RunConfig) -> dict:
    num, (maps, driving) = cfg.built
    sys = iv.RandomIntervalSystem(tuple(maps), driving)
    k, n_past, n_future = num["k"], num["n_past"], num["n_future"]
    window = sys.driving.sample_window(n_past, n_future)
    acim = iv.random_acim(sys, window, k=k, n_past=n_past, n_future=n_future)
    density = acim.densities[0]
    # refinement diagnostic: L1 distance against half the bin count, on the same window
    cauchy_density = float("nan")
    if k % 2 == 0 and k >= 2:
        coarse = iv.random_acim(sys, window, k=k // 2, n_past=n_past,
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
    num, (amps, theta, driving) = cfg.built
    example = sf.antisymmetric_example(amps, driving, theta=theta, n=num["n"])
    n_ic = num["n_ic"]
    word = driving.sample_window(0, n_ic, stream=0).future
    weights = [example.weights[s] for s in word]
    sandwich = sf.norm_and_ic_bounds(example.sft, weights, n_ic, num["m_proj"],
                                     n_samples=num["ic_samples"], seed=cfg.seed)
    rng = np.random.default_rng([cfg.seed, 7])
    samples = []
    for _ in range(num["ly_samples"]):
        depth = int(rng.integers(1, 6))
        samples.append(sf.CylinderFunction(
            example.sft, depth,
            rng.uniform(-1.0, 1.0, size=len(example.sft.codes(depth)))))
    smoothing = sf.lipschitz_ly_check(example.sft, weights, n_ic, samples,
                                      k_constant=sandwich.k_constant,
                                      r_n=sandwich.r_n)
    return {
        "kind": "sft",
        "theta": theta,
        "n": num["n"],
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
    num, (gen, driving) = cfg.built
    windows = driving.sample_past_variants(num["n_pairs"], num["past_length"],
                                           num["future_length"])
    demo = cc.noncommuting_base_demo(*gen.matrices, windows,
                                     gap_tolerance=num["gap_tolerance"])
    return {
        "kind": "counterexample",
        "n_pairs": num["n_pairs"],
        "past_length": num["past_length"],
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
    """Dispatch one run of a config from `load_config` (or a sweep point),
    whose system is built; numerical failures are recorded, not raised."""
    started = time.monotonic()
    base = {"kind": cfg.kind, "seed": cfg.seed, "config_digest": cfg.digest()}
    try:
        if cfg.kind == "lemma-suite":
            record = lemmas.run_lemma_suite(cfg.seed)
        else:
            record = RUNNERS[cfg.kind](cfg)
            record["status"] = "ok"
            record["error"] = ""
        record.update(base)
    except NumericalFailure as exc:
        record = dict(base)
        record["status"] = "error"
        record["error"] = type(exc).__name__
        record["error_detail"] = str(exc)
    record["wall_time_s"] = time.monotonic() - started
    return record


def _grid_target(key: str) -> tuple[str, str]:
    """The (section, name) a grid key sets: `section.name`, or a bare
    numerics name."""
    section, dot, name = key.partition(".")
    return (section, name) if dot else ("numerics", section)


def parse_grid(specs: list[str]) -> list[tuple[str, list[str]]]:
    """(key, values) per `KEY=V1,V2,...` spec, in order.  ConfigError for a
    spec without values, with an empty section or name, or with a key that
    sets the same field as an earlier one (`k` and `numerics.k` alike)."""
    grid, targets = [], set()
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"grid spec {spec!r} must look like KEY=V1,V2,...")
        key, values = spec.split("=", 1)
        key = key.strip()
        vals = [v for v in values.split(",") if v != ""]
        if not vals:
            raise ConfigError(f"grid spec {spec!r} has no values")
        target = _grid_target(key)
        if not all(target):
            raise ConfigError(f"grid spec {spec!r} has an empty section or name")
        if target in targets:
            raise ConfigError(f"grid spec {spec!r} repeats the key of an earlier spec")
        targets.add(target)
        grid.append((key, vals))
    return grid


def _apply_point(cfg: RunConfig, point: dict[str, str], index: int) -> RunConfig:
    sections = {name: dict(getattr(cfg, name)) for name in ("system", "driving", "numerics")}
    for key, value in point.items():
        section, name = _grid_target(key)
        if section not in sections:
            raise ConfigError(f"unknown grid section {section!r}")
        sections[section][name] = value
    out = dataclasses.replace(cfg, seed=cfg.seed ^ index, **sections)
    out.built = validate_config(out)
    return out


def sweep(cfg: RunConfig, grid: list[tuple[str, list[str]]]) -> list[dict]:
    """One record per grid point, run serially in grid order; per-point seeds
    are base_seed XOR point_index.  Every point's config, system and driving
    law are checked before any point runs.  Failed points carry error tags."""
    if not grid:
        return []
    keys = [k for k, _ in grid]
    points = [dict(zip(keys, combo))
              for combo in itertools.product(*[vals for _, vals in grid])]
    configs = [_apply_point(cfg, point, i) for i, point in enumerate(points)]
    records = []
    for i, (point, point_cfg) in enumerate(zip(points, configs)):
        record = run(point_cfg)
        record["sweep_index"] = i
        for key, value in point.items():
            record[f"grid_{key.replace('.', '_')}"] = value
        records.append(record)
    return records
