"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with `pytest tests/test_acceptance.py -s`).
"""

import time

import numpy as np
import pytest

from oseledets import cocycle as cc
from oseledets import interval as iv
from oseledets import sft as sf
from oseledets.grassmann import Subspace, gap
from oseledets.harness import records as rec
from oseledets.harness import runner
from oseledets.harness.config import load_config
from oseledets.harness.lemmas import run_lemma_suite

LOG2 = np.log(2.0)


def _report(num: int, description: str, ok: bool) -> None:
    print(f"[acceptance {num:2d}] {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {description}"


# -- 1: closed-form exponents ---------------------------------------------------

def test_criterion_1_closed_form_exponents():
    started = time.monotonic()
    diag = cc.Generator.from_list([np.diag([2.0, 0.5])])
    exps = cc.lyapunov_exponents(diag, cc.DrivingSystem.iid([1.0], seed=1), n=2000)
    exact = (abs(exps[0][0] - LOG2) <= 1e-12 and
             abs(exps[1][0] + LOG2) <= 1e-12 and
             exps[0][1] == 1 and exps[1][1] == 1)

    n = 100_000
    gen = cc.Generator.from_list([np.diag([3.0, 1 / 3]), np.diag([2.0, 0.5])])
    drv = cc.DrivingSystem.iid([0.5, 0.5], seed=3)
    window = drv.sample_window(0, n)
    mix = cc.lyapunov_exponents(gen, None, n=n, window=window)
    logs = np.array([np.log([3.0, 1 / 3]), np.log([2.0, 0.5])])
    birkhoff = logs[np.asarray(window.future)].mean(axis=0)
    close = (abs(mix[0][0] - birkhoff[0]) <= 1e-2 and
             abs(mix[1][0] - birkhoff[1]) <= 1e-2)
    elapsed = time.monotonic() - started
    _report(1, f"closed-form exponents (exact diag, mix vs Birkhoff, {elapsed:.1f}s)",
            exact and close and elapsed < 5.0)


# -- 2: splitting on solvable cases ----------------------------------------------

def test_criterion_2_splitting_solvable():
    gen = cc.Generator.from_list([np.array([[2.0, 1.0], [0.0, 0.5]])])
    window = cc.OmegaWindow(np.zeros(250, dtype=int), 200)
    rep = cc.oseledets_splitting(gen, None, window, n_past=200, n_future=50)
    ok = (gap(rep.splitting[0], Subspace.span([1.0, 0.0])) <= 1e-8 and
          gap(rep.splitting[1], Subspace.span([2.0, -3.0])) <= 1e-8 and
          max(rep.equivariance) <= 1e-6)
    _report(2, "splitting matches eigen-solvable case with equivariance <= 1e-6", ok)


# -- 3: uniqueness diagnostic ------------------------------------------------------

def test_criterion_3_uniqueness_diagnostic():
    gen = cc.Generator.from_list([np.diag([2.0, 0.5])])
    window = cc.OmegaWindow(np.zeros(420, dtype=int), 300)
    rep = cc.oseledets_splitting(gen, None, window, n_past=200, n_future=50)
    own = cc.uniqueness_diagnostic(gen, window, rep.splitting[0], rep, 1, 25)
    tilted = Subspace.span([1.0, 0.4])
    series = cc.uniqueness_diagnostic(gen, window, tilted, rep, 1, 25)
    mask = series > 1e-13
    slope = np.polyfit(np.arange(26)[mask], np.log(series[mask]), 1)[0]
    expected = -(rep.exponents[0] - rep.exponents[1])
    ok = (np.max(own) <= 1e-8 and
          abs(slope - expected) <= 0.10 * abs(expected))
    _report(3, f"uniqueness decay slope {slope:.4f} vs {expected:.4f}, own-block <= 1e-8", ok)


# -- 4: backward rates ---------------------------------------------------------------

def test_criterion_4_backward_rates():
    gen = cc.Generator.from_list([np.diag([3.0, 1 / 3]), np.diag([2.0, 0.5])])
    drv = cc.DrivingSystem.iid([0.5, 0.5], seed=20)
    n = 10_000
    window = drv.sample_window(n + 300, 60)
    rep = cc.oseledets_splitting(gen, None, window, n_past=250, n_future=50)
    rate1 = cc.backward_decay_check(gen, window, rep, 1, n)
    rate2 = cc.backward_decay_check(gen, window, rep, 2, n)
    ok = (abs(rate1 + rep.exponents[0]) <= 5e-2 and
          abs(rate2 + rep.exponents[1]) <= 5e-2)
    _report(4, f"backward rates {rate1:.4f}, {rate2:.4f} within 5e-2 of -exponents", ok)


# -- 5: the non-invertible-base counterexample -------------------------------------------

def test_criterion_5_counterexample():
    started = time.monotonic()
    drv = cc.DrivingSystem.iid([0.5, 0.5], seed=42)
    pasts = drv.sample_past_variants(10, 100, 20)
    commuting = cc.noncommuting_base_demo(np.diag([2.0, 0.5]),
                                          np.diag([3.0, 1 / 3]), pasts)
    pasts50 = drv.sample_past_variants(50, 100, 20)
    noncommuting = cc.noncommuting_base_demo(
        np.diag([3.0, 1 / 3]), np.array([[0.0, 1 / 3], [3.0, 0.0]]), pasts50)
    elapsed = time.monotonic() - started
    # threshold 0.1 frozen from the calibration run (realized max gap 1.0)
    ok = (commuting.max_gap <= 1e-8 and
          noncommuting.max_gap > 0.1 and
          elapsed < 10.0)
    _report(5, f"commuting gaps <= 1e-8, non-commuting max gap "
               f"{noncommuting.max_gap:.3f} > 0.1 ({elapsed:.1f}s)", ok)


# -- 6: interval application ----------------------------------------------------------

def test_criterion_6_interval_application():
    drv = cc.DrivingSystem.iid([1.0], seed=1)
    sys_doubling = iv.RandomIntervalSystem((iv.doubling_map(),), drv)
    acim = iv.random_acim(sys_doubling, k=64, n_past=200)
    flat = (abs(acim.lambda1) <= 1e-10 and
            np.max(np.abs(acim.densities[0] - 1.0)) <= 1e-8)

    drv2 = cc.DrivingSystem.iid([0.5, 0.5], seed=7)
    mixed = iv.RandomIntervalSystem(
        (iv.tripling_map(), iv.single_slope_map(0.75)), drv2)
    est = iv.chi_estimate(mixed, n=100_000, samples=8)
    chi_ok = (abs(est.chi - 2 / 3) <= 1e-3 and
              abs(est.kappa_star - np.log(2 / 3)) <= 1e-3)

    rng = np.random.default_rng(4)
    calibration = iv.ly_inequality_check(
        iv.doubling_map(), [iv.BVFunction.random(rng) for _ in range(100)])
    frozen_d = calibration.feasible_d  # realized 0.0 for the doubling map
    fresh = [iv.BVFunction.random(rng) for _ in range(100)]
    check = iv.ly_inequality_check(iv.doubling_map(), fresh, frozen_d=frozen_d)
    ly_ok = (check.a == 1.5 and min(check.slacks) >= 0.0)
    _report(6, f"flat density + chi {est.chi:.5f} + variation inequality "
               f"(min slack {min(check.slacks):.3f})", flat and chi_ok and ly_ok)


# -- 7: contraction-coefficient sandwich ----------------------------------------------

def test_criterion_7_contraction_sandwich():
    drv = cc.DrivingSystem.iid([1.0], seed=1)
    sys = iv.RandomIntervalSystem((iv.doubling_map(),), drv)
    window = drv.sample_window(0, 4)
    rep = iv.essrad_sandwich_check(sys, window, 2)
    ok = (rep.a_n == 0.25 and
          rep.min_pairwise_distance >= 2 * 0.9 * 0.25)
    _report(7, f"a_2 = {rep.a_n} exactly, pairwise distances "
               f">= {rep.min_pairwise_distance:.3f}", ok)


# -- 8: subshift application -----------------------------------------------------------

def test_criterion_8_sft_application():
    drv = cc.DrivingSystem.iid([1.0], seed=3)
    ex = sf.antisymmetric_example([0.8], drv, n=100_000)
    const_ok = (abs(ex.lambda1) <= 1e-15 and
                abs(ex.lambda2 - np.log(0.8)) <= 1e-12 and
                ex.identity_residual == 0.0)

    drv2 = cc.DrivingSystem.iid([0.5, 0.5], seed=9)
    ex2 = sf.antisymmetric_example([0.6, 0.9], drv2, n=100_000)
    target = (np.log(0.6) + np.log(0.9)) / 2
    random_ok = abs(ex2.lambda2 - target) <= 1e-2
    _report(8, f"antisymmetric family: lambda2 errors "
               f"{abs(ex.lambda2 - np.log(0.8)):.1e}, "
               f"{abs(ex2.lambda2 - target):.1e}; identity exact",
            const_ok and random_ok)


# -- 9: operator-norm sandwich -----------------------------------------------------------

def test_criterion_9_norm_sandwich():
    shift = sf.Sft.full(2, 0.5)
    h = sf.CylinderFunction(shift, 1, np.array([-0.4, 0.4]))
    weights = [sf.antisymmetric_weight_pair(shift, h)] * 8
    ok = True
    for n in range(1, 7):
        rep = sf.norm_and_ic_bounds(shift, weights, n, n, n_samples=40)
        ok &= rep.min_pairwise_distance >= 0.5 * shift.theta ** n * rep.r_n
        ok &= rep.r_n <= rep.op_norm_est + 1e-12
        ok &= rep.op_norm_est <= (rep.k_constant + 1.0) * rep.r_n + 1e-9
    _report(9, "certificate families separated and norm ordering holds, n <= 6", ok)


# -- 10: lemma suites ------------------------------------------------------------------

def test_criterion_10_lemma_suites():
    started = time.monotonic()
    record = run_lemma_suite(seed=11, verbose=True)
    elapsed = time.monotonic() - started
    ok = record["status"] == "ok" and elapsed < 120.0
    _report(10, f"lemma suite over seeded corpora ({elapsed:.1f}s)", ok)


# -- 11: reproducibility ---------------------------------------------------------------

def test_criterion_11_reproducibility(tmp_path):
    text = """
[run]
kind = counterexample
seed = 42

[system]
a0 = [[3, 0], [0, 0.3333333333333333]]
a1 = [[0, 0.3333333333333333], [3, 0]]

[numerics]
n_pairs = 20
past_length = 80
"""
    path = tmp_path / "counter.cfg"
    path.write_text(text)
    cfg = load_config(str(path))
    first = rec.dumps(rec.strip_volatile(runner.run(cfg)))
    second = rec.dumps(rec.strip_volatile(runner.run(cfg)))
    interval_text = """
[run]
kind = interval
seed = 7

[system]
maps = doubling

[numerics]
k = 32
n_past = 150
"""
    path2 = tmp_path / "interval.cfg"
    path2.write_text(interval_text)
    cfg2 = load_config(str(path2))
    third = rec.dumps(rec.strip_volatile(runner.run(cfg2)))
    fourth = rec.dumps(rec.strip_volatile(runner.run(cfg2)))
    ok = (first == second) and (third == fourth)
    _report(11, "byte-identical records for identical config and seed", ok)
