"""The three benchmark workloads: the config each one hands to the CLI, the
CLI arguments, and the exact oracle every `ok` record must pass.

A workload is built from the benchmark seed alone, so the same seed gives the
same config file and the same CLI arguments.  The oracles need `oseledets`
on `sys.path` (the benchmark puts the checkout's `src` there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

GAP_TOLERANCE = 1e-3             # the library default, used by every workload
DET_SUM_TOL = 1e-10              # exact identity up to round-off (7e-15 today)

ORBIT_TRANSITION = ((0.6, 0.3, 0.1), (0.2, 0.6, 0.2), (0.1, 0.3, 0.6))
ORBIT_SCALES = (2.5, 1.0, 0.4)   # keeps the three exponents ~0.9 apart
ORBIT_N = 50_000

# The interval sweep keeps the config seed of its definition.  Whether a
# point's splitting fails depends on its seed (about one point in four over
# seeds 0..11), so a seed-driven sweep would move ok_frac and wall_s with the
# seed instead of the code.  Pinned, the known BlockDegeneracy at point 5
# (k=128, point seed 1 ^ 5 = 4) shows on every run.
SWEEP_SEED = 1
SWEEP_GRID = ("k=32,64,128", "n_past=150,200")

SFT_AMPLITUDES = (0.6, 0.9)


def _matrix(rows) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(repr(float(x)) for x in row) + "]" for row in rows) + "]"


def orbit_matrices(seed: int) -> list[np.ndarray]:
    """Three generic invertible, pairwise non-commuting 3x3 matrices: a fixed
    diagonal spread times a seeded perturbation of the identity."""
    rng = np.random.default_rng([seed, 31])
    return [np.diag(ORBIT_SCALES) @ (np.eye(3) + 0.3 * rng.standard_normal((3, 3)))
            for _ in range(3)]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # "run" or "sweep"
    records: int                  # records one CLI call writes
    config: Callable[[int], str]
    check: Callable[[dict, int], list[str]]
    grid: tuple[str, ...] = ()

    def argv(self, config_path: str, out_path: str) -> list[str]:
        args = [self.command, "--config", config_path, "--out", out_path]
        for spec in self.grid:
            args += ["--grid", spec]
        return args


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

def orbit_config(seed: int) -> str:
    mats = " ; ".join(_matrix(a) for a in orbit_matrices(seed))
    return (f"[run]\nkind = cocycle\nseed = {seed}\n\n"
            f"[driving]\nlaw = markov\ntransition = {_matrix(ORBIT_TRANSITION)}\n\n"
            f"[system]\nmatrices = {mats}\n\n"
            f"[numerics]\nn = {ORBIT_N}\nn_past = 200\nn_future = 50\n")


def sweep_config(seed: int) -> str:
    return (f"[run]\nkind = interval\nseed = {SWEEP_SEED}\n\n"
            f"[system]\nmaps = tripling, slope:0.75\n")


def sft_config(seed: int) -> str:
    amps = ", ".join(repr(a) for a in SFT_AMPLITUDES)
    return (f"[run]\nkind = sft\nseed = {seed}\n\n"
            f"[system]\ntheta = 0.5\namplitudes = {amps}\n\n"
            f"[numerics]\nn = 20000\nn_ic = 10\n")


# ---------------------------------------------------------------------------
# oracles: each returns the names (with measured values) of failed checks
# ---------------------------------------------------------------------------

def check_orbit(record: dict, seed: int) -> list[str]:
    """Sum of multiplicity-weighted exponents == mean log|det A| over the
    post-burn-in symbols of the exponent pass (QR preserves |det|)."""
    from oseledets.cocycle import DrivingSystem

    symbols = np.asarray(
        DrivingSystem.markov(ORBIT_TRANSITION, seed=seed).sample_window(0, ORBIT_N).future)
    burn = min(100, ORBIT_N // 10)
    logdet = np.array([math.log(abs(np.linalg.det(a))) for a in orbit_matrices(seed)])
    expected = float(np.mean(logdet[symbols[burn:]]))
    got = math.fsum(lam * d for lam, d in zip(record["exponents"], record["multiplicities"]))
    if not abs(got - expected) <= DET_SUM_TOL:
        return [f"det_sum: |{got!r} - {expected!r}| > {DET_SUM_TOL}"]
    return []


def check_sweep(record: dict, seed: int) -> list[str]:
    """chi = exp(mean(-log essinf|T'|)) = (1/3 * 4/3) ** 0.5 = 2/3 exactly for
    uniform i.i.d. driving; the density integrates to one and is nonnegative;
    the top exponent of a transfer cocycle is zero."""
    failed = []
    density = np.asarray(record["density"], dtype=float)
    if not abs(record["chi"] - 2.0 / 3.0) <= 4e-16:
        failed.append(f"chi: {record['chi']!r} != 2/3")
    if len(density) != record["k"] or not abs(np.mean(density) - 1.0) <= 1e-12:
        failed.append(f"density_mean: {np.mean(density)!r} over {len(density)} bins")
    if not record["density_min"] >= -1e-12:
        failed.append(f"density_min: {record['density_min']!r} < 0")
    if not abs(record["lambda1"]) <= GAP_TOLERANCE:
        failed.append(f"lambda1: |{record['lambda1']!r}| > {GAP_TOLERANCE}")
    return failed


def check_sft(record: dict, seed: int) -> list[str]:
    """The antisymmetric family: lambda1 = 0 exactly, lambda2 = the driving
    average of log a (uniform i.i.d. over the amplitudes)."""
    failed = []
    mean_log_a = float(np.mean(np.log(SFT_AMPLITUDES)))
    if not abs(record["lambda1"]) <= 1e-12:
        failed.append(f"lambda1: |{record['lambda1']!r}| > 1e-12")
    if not abs(record["lambda2"] - mean_log_a) <= 1e-2:
        failed.append(f"lambda2: |{record['lambda2']!r} - {mean_log_a!r}| > 1e-2")
    if record["identity_residual"] != 0:
        failed.append(f"identity_residual: {record['identity_residual']!r} != 0")
    if not record["ic_lower_certified"] >= record["ic_lower_formula"]:
        failed.append(f"ic_lower: certified {record['ic_lower_certified']!r} < "
                      f"formula {record['ic_lower_formula']!r}")
    if not record["ly_min_slack"] >= 0:
        failed.append(f"ly_min_slack: {record['ly_min_slack']!r} < 0")
    return failed


WORKLOADS = {w.name: w for w in (
    Workload("orbit-markov", "run", 1, orbit_config, check_orbit),
    Workload("interval-sweep", "sweep", 6, sweep_config, check_sweep, SWEEP_GRID),
    Workload("sft-certificates", "run", 1, sft_config, check_sft),
)}
