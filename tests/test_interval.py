import numpy as np
import pytest

from oseledets import cocycle as cc
from oseledets.errors import (
    ExpansionTooWeak,
    NonAffineBranch,
    PreconditionANotLessThan1,
    QuadratureFailure,
)
from oseledets.grassmann import Subspace, gap
from oseledets.interval import (
    BVFunction,
    Branch,
    PiecewiseMap,
    RandomIntervalSystem,
    affine_map,
    branch_partition,
    chi_estimate,
    chi_exact,
    compose_maps,
    compose_word,
    conditional_expectation,
    density_generator,
    doubling_map,
    essrad_sandwich_check,
    identity_map,
    ly_inequality_check,
    random_acim,
    single_slope_map,
    tent_map,
    transfer_apply,
    tripling_map,
    ulam_matrix,
)


# -- variation and BV calculus --------------------------------------------------

def test_variation_indicator():
    assert BVFunction.indicator(0.0, 0.5).variation() == pytest.approx(1.0)


def test_variation_identity():
    assert BVFunction.identity().variation() == pytest.approx(1.0)


def test_variation_hat():
    assert BVFunction.hat().variation() == pytest.approx(2.0)


def test_variation_additivity_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = BVFunction.random(rng)
        g = BVFunction.random(rng)
        assert (f + g).variation() <= f.variation() + g.variation() + 1e-12
        bp = np.union1d(f.breakpoints, g.breakpoints)
        assert np.array_equal((f + g).breakpoints, bp)
        xs = rng.uniform(0.0, 1.0, size=50)
        xs = xs[np.min(np.abs(xs[:, None] - bp), axis=1) >= 1e-9]
        for x in xs:
            assert abs((f + g).evaluate(x) - (f.evaluate(x) + g.evaluate(x))) <= 1e-14
            assert abs((f - g).evaluate(x) - (f.evaluate(x) - g.evaluate(x))) <= 1e-14


def test_integral_linear():
    f = BVFunction.identity()
    assert f.integral() == pytest.approx(0.5)
    assert (f * 3.0).integral() == pytest.approx(1.5)
    assert f.l1_norm() == pytest.approx(0.5)
    g = f + BVFunction.constant(-0.5)
    assert g.l1_norm() == pytest.approx(0.25)


# -- transfer operator -----------------------------------------------------------

def test_transfer_preserves_lebesgue():
    img = transfer_apply(doubling_map(), BVFunction.constant(1.0))
    assert np.allclose(img.left_values, 1.0) and np.allclose(img.right_values, 1.0)


def test_transfer_indicator_matches_preimage_oracle():
    # oracle: (L f)(x) = (1/2)(f(x/2) + f((x+1)/2)) pointwise
    f = BVFunction.indicator(0.0, 0.5)
    img = transfer_apply(doubling_map(), f)
    for x in np.linspace(0.01, 0.99, 37):
        oracle = 0.5 * (f.evaluate(x / 2) + f.evaluate((x + 1) / 2))
        assert img.evaluate(x) == pytest.approx(oracle, abs=1e-12)


def test_transfer_positivity():
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = BVFunction.random(rng)
        f = f + BVFunction.constant(-f.min_value())  # now nonnegative
        img = transfer_apply(tent_map(), f)
        assert img.min_value() >= -1e-12


def test_transfer_integral_preservation_exact():
    rng = np.random.default_rng(2)
    maps = [doubling_map(), tent_map(), tripling_map(),
            affine_map([[0.0, 0.4, 2.5, 0.0], [0.4, 1.0, -5 / 3, 5 / 3]])]
    for t in maps:
        for _ in range(10):
            f = BVFunction.random(rng)
            assert transfer_apply(t, f).integral() == pytest.approx(
                f.integral(), abs=1e-12)


def test_transfer_requires_affine():
    smooth = PiecewiseMap((Branch(a=0.0, b=1.0, fn=lambda x: x ** 2 / 2 + x / 2,
                                  dfn=lambda x: x + 0.5),))
    with pytest.raises(NonAffineBranch):
        transfer_apply(smooth, BVFunction.constant(1.0))


def test_transfer_composition_consistency():
    rng = np.random.default_rng(3)
    t1, t2 = doubling_map(), tent_map()
    comp = compose_maps(t2, t1)
    for _ in range(5):
        f = BVFunction.random(rng)
        via_steps = transfer_apply(t2, transfer_apply(t1, f))
        direct = transfer_apply(comp, f)
        for x in np.linspace(0.013, 0.987, 101):
            assert via_steps.evaluate(x) == pytest.approx(direct.evaluate(x),
                                                          abs=1e-12)
        assert via_steps.variation() == pytest.approx(direct.variation(), abs=1e-10)


# -- bin-transition matrices ------------------------------------------------------

def test_ulam_identity():
    assert np.allclose(ulam_matrix(identity_map(), 5), np.eye(5))


def test_ulam_doubling_matches_measure_oracle():
    # oracle: m(B_i ∩ T^{-1} B_j) by direct interval arithmetic
    k = 2
    t = doubling_map()
    oracle = np.zeros((k, k))
    for i in range(k):
        lo, hi = i / k, (i + 1) / k
        for j in range(k):
            jlo, jhi = j / k, (j + 1) / k
            # preimages of [jlo, jhi) under each branch
            for a, b, s, c in [(0.0, 0.5, 2.0, 0.0), (0.5, 1.0, 2.0, -1.0)]:
                plo, phi = (jlo - c) / s, (jhi - c) / s
                oracle[i, j] += max(0.0, min(hi, min(b, phi)) - max(lo, max(a, plo)))
        oracle[i] /= (hi - lo)
    assert np.allclose(ulam_matrix(t, k), oracle, atol=1e-14)
    assert np.allclose(oracle, [[0.5, 0.5], [0.5, 0.5]])


def test_ulam_tent():
    assert np.allclose(ulam_matrix(tent_map(), 2), [[0.5, 0.5], [0.5, 0.5]])


def test_ulam_rows_stochastic():
    for t in (doubling_map(), tripling_map(), tent_map()):
        for k in (3, 16, 64):
            mat = ulam_matrix(t, k)
            assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-12


def test_ulam_smooth_branch_matches_affine():
    smooth = PiecewiseMap((
        Branch(a=0.0, b=0.5, fn=lambda x: 2.0 * x, dfn=lambda x: 2.0 + 0 * x),
        Branch(a=0.5, b=1.0, fn=lambda x: 2.0 * x - 1.0, dfn=lambda x: 2.0 + 0 * x),
    ))
    assert np.allclose(ulam_matrix(smooth, 8), ulam_matrix(doubling_map(), 8),
                       atol=1e-10)


def loop_ulam_matrix(t, k):
    """Reference: the bin-by-bin loop that walks each bin's image edges in
    turn, inverting affine branches in closed form (smooth ones by `brentq`
    on the bin)."""
    from scipy.optimize import brentq

    edges = np.linspace(0.0, 1.0, k + 1)
    mat = np.zeros((k, k))
    for br in t.branches:
        for i in range(int(np.floor(br.a * k)), min(int(np.ceil(br.b * k)), k)):
            xa, xb = max(br.a, edges[i]), min(br.b, edges[i + 1])
            if xb - xa <= 1e-14:
                continue
            ya, yb = br(xa), br(xb)
            increasing = yb >= ya
            ylo, yhi = (ya, yb) if increasing else (yb, ya)
            prev_x = xa if increasing else xb
            for j in range(max(int(np.floor(ylo * k)), 0), min(int(np.ceil(yhi * k)), k)):
                y_edge = edges[j + 1]
                last = y_edge >= yhi - 1e-15
                if last:
                    next_x = xb if increasing else xa
                elif br.is_affine:
                    next_x = br.inverse(y_edge)
                else:
                    next_x = brentq(lambda x: br.fn(x) - y_edge, xa, xb, xtol=1e-14)
                if abs(next_x - prev_x) > 0:
                    mat[i, j] += abs(next_x - prev_x)
                prev_x = next_x
                if last:
                    break
    return mat * k


def leaking_halves_map(n, j):
    """L_{n,j}: each half of [0, 1] cut into n full branches of slope n onto
    a half; in each half the last j branches map onto the other half."""
    rows = []
    for r in range(2 * n):
        a, half = r / (2 * n), r // n
        onto = half if r % n < n - j else 1 - half
        rows.append([a, (r + 1) / (2 * n), float(n), onto / 2 - n * a])
    return affine_map(rows)


@pytest.mark.parametrize("t", [tripling_map(), single_slope_map(0.75)],
                         ids=["tripling", "slope-0.75"])
def test_ulam_matches_bin_loop_bit_for_bit(t):
    for i in range(12):
        assert np.array_equal(ulam_matrix(t, 2 ** i), loop_ulam_matrix(t, 2 ** i)), 2 ** i


@pytest.mark.parametrize("t", [
    doubling_map(), tent_map(),
    affine_map([[0.0, 0.4, 2.5, 0.0], [0.4, 1.0, -5 / 3, 5 / 3]]),
    leaking_halves_map(4, 1),
], ids=["doubling", "tent", "skew", "leaking-halves-4-1"])
def test_ulam_matches_bin_loop_off_powers_of_two(t):
    # the loop gives sub-ulp slivers at image edges next to a cut's value
    # to the neighbouring bin; the merge drops them
    for k in range(1, 71):
        assert np.max(np.abs(ulam_matrix(t, k) - loop_ulam_matrix(t, k))) <= 1e-13, k


def test_ulam_smooth_branch_matches_closed_form_preimage():
    # T(x) = x²/2 + x/2 maps [0, 1] onto itself with T⁻¹(y) = -1/2 + √(1/4 + 2y);
    # 1 - T is its decreasing twin.  m(B_i ∩ T⁻¹B_j) is a difference of
    # preimages, so k·(brentq's xtol) bounds the normalised entries.
    def preimage(y):
        return -0.5 + np.sqrt(0.25 + 2.0 * y)

    for sign in (1.0, -1.0):
        t = PiecewiseMap((Branch(a=0.0, b=1.0,
                                 fn=lambda x, s=sign: (1 - s) / 2 + s * (x ** 2 / 2 + x / 2),
                                 dfn=lambda x, s=sign: s * (x + 0.5)),))
        for k in (1, 2, 5, 16, 37, 64):
            edges = np.linspace(0.0, 1.0, k + 1)
            pre = preimage(edges if sign > 0 else 1.0 - edges)
            lo, hi = np.minimum(pre[:-1], pre[1:]), np.maximum(pre[:-1], pre[1:])
            oracle = k * np.clip(np.minimum(edges[1:, None], hi[None, :])
                                 - np.maximum(edges[:-1, None], lo[None, :]), 0.0, None)
            assert np.max(np.abs(ulam_matrix(t, k) - oracle)) <= 4e-14 * k, (sign, k)


def test_ulam_quadrature_failure_on_pathological_branch():
    # root finding cannot bracket through a non-finite stretch
    def horrid(x):
        x = np.asarray(x, dtype=float)
        return np.where((x > 0.3) & (x < 0.7), np.nan, 0.9 * x)

    bogus = PiecewiseMap((Branch(a=0.0, b=1.0, fn=horrid,
                                 dfn=lambda x: 0.9 + 0.0 * np.asarray(x)),))
    with pytest.raises(QuadratureFailure):
        ulam_matrix(bogus, 8)


# -- expansion index ---------------------------------------------------------------

def test_chi_single_slope():
    drv = cc.DrivingSystem.iid([1.0], seed=1)
    sys = RandomIntervalSystem((tripling_map(),), drv)
    assert chi_exact(sys) == pytest.approx(1 / 3)
    rep = chi_estimate(sys, n=100, samples=2)
    assert rep.chi == pytest.approx(1 / 3, abs=1e-12)


def test_chi_mixed_slopes_closed_form():
    drv = cc.DrivingSystem.iid([0.5, 0.5], seed=7)
    sys = RandomIntervalSystem((tripling_map(), single_slope_map(0.75)), drv)
    assert chi_exact(sys) == pytest.approx(2 / 3)
    rep = chi_estimate(sys, n=20_000, samples=8)
    assert rep.chi == pytest.approx(2 / 3, abs=5e-3)
    assert rep.kappa_star == pytest.approx(np.log(2 / 3), abs=1e-2)


def test_chi_exact_markov_is_stationary_average():
    # (tripling, slope 3/4) under the transition [[0.3, 0.7], [0.6, 0.4]]:
    # π = (6/13, 7/13), so chi = 3^(-6/13) (3/4)^(-7/13)
    drv = cc.DrivingSystem.markov([[0.3, 0.7], [0.6, 0.4]], seed=1)
    sys = RandomIntervalSystem((tripling_map(), single_slope_map(0.75)), drv)
    chi = chi_exact(sys)
    assert chi == pytest.approx(3 ** (-6 / 13) * 0.75 ** (-7 / 13), rel=1e-14)
    rep = chi_estimate(sys, n=20_000, samples=8)
    assert rep.chi == pytest.approx(chi, abs=5e-3)
    acim = random_acim(sys, drv.sample_window(200, 50), k=16)
    assert acim.chi == chi and acim.kappa_star == np.log(chi)


def test_chi_flags_weak_expansion():
    drv = cc.DrivingSystem.iid([1.0], seed=1)
    sys = RandomIntervalSystem((single_slope_map(0.5),), drv)
    rep = chi_estimate(sys, n=50, samples=1)
    assert rep.chi == pytest.approx(2.0)
    assert not rep.expanding_on_average


# -- the variation inequality -------------------------------------------------------

def test_ly_inequality_constant_function():
    rep = ly_inequality_check(doubling_map(), [BVFunction.constant(2.0)])
    assert rep.a == pytest.approx(1.5)
    assert min(rep.slacks) >= 0.0


def test_ly_inequality_indicator_derived():
    f = BVFunction.indicator(0.0, 0.5)
    img = transfer_apply(doubling_map(), f)
    assert img.variation() == pytest.approx(0.0, abs=1e-14)  # L f is constant 1/2
    rep = ly_inequality_check(doubling_map(), [f], frozen_d=0.0)
    assert min(rep.slacks) >= 0.0


def test_ly_inequality_composition_coefficient():
    for n in (1, 2, 3):
        comp = compose_word([doubling_map()], [0] * n)
        rep = ly_inequality_check(comp, [BVFunction.constant(1.0)])
        assert rep.a == pytest.approx(3.0 / 2 ** n)


def test_ly_inequality_random_sample_frozen_d():
    rng = np.random.default_rng(4)
    samples = [BVFunction.random(rng) for _ in range(100)]
    calibration = ly_inequality_check(doubling_map(), samples)
    frozen = calibration.feasible_d
    fresh = [BVFunction.random(rng) for _ in range(100)]
    rep = ly_inequality_check(doubling_map(), fresh, frozen_d=frozen)
    assert min(rep.slacks) >= 0.0


@pytest.mark.parametrize("t", [
    doubling_map(), tent_map(), tripling_map(),
    affine_map([[0.0, 0.5, 1.4, 0.3], [0.5, 1.0, 2.0, -1.0]]),  # demo 04's skew map
    affine_map([[0.0, 0.25, 4.0, 0.0], [0.25, 0.75, 2.0, -0.5], [0.75, 1.0, -3.0, 3.0]]),
], ids=["doubling", "tent", "tripling", "skew", "three-branch"])
def test_ly_inequality_proven_d(t):
    # D = 2/(λ min|J|), the constant the docstring proves with a = 3/λ, leaves
    # every slack nonnegative on random BV functions and narrow indicators
    # (smallest slacks 0.08 to 0.15 over these maps)
    rng = np.random.default_rng(8)
    samples = [BVFunction.random(rng) for _ in range(400)]
    for lo, width in zip(rng.uniform(0.0, 0.99, 100), 10.0 ** rng.uniform(-4, -2, 100)):
        samples.append(BVFunction.indicator(lo, min(lo + width, 1.0)))
    lam = t.essinf_derivative()
    d = 2.0 / (lam * min(hi - lo for lo, hi in branch_partition(t)))
    rep = ly_inequality_check(t, samples, frozen_d=d)
    assert rep.a == 3.0 / lam
    assert min(rep.slacks) >= 0.0


def test_ly_inequality_needs_expansion():
    with pytest.raises(ExpansionTooWeak):
        ly_inequality_check(single_slope_map(0.75), [BVFunction.constant(1.0)])


# -- the contraction-coefficient sandwich ---------------------------------------------

def test_essrad_sandwich_doubling_n2():
    drv = cc.DrivingSystem.iid([1.0], seed=1)
    sys = RandomIntervalSystem((doubling_map(),), drv)
    w = drv.sample_window(0, 4)
    rep = essrad_sandwich_check(sys, w, 2)
    assert rep.a_n == pytest.approx(0.25)
    assert rep.min_pairwise_distance >= 2 * 0.9 * rep.a_n
    assert rep.ic_lower <= rep.fr_upper
    assert rep.fr_measured <= rep.fr_upper + 1e-12


def test_essrad_sandwich_slope3_factor():
    drv = cc.DrivingSystem.iid([1.0], seed=1)
    sys = RandomIntervalSystem((tripling_map(),), drv)
    w = drv.sample_window(0, 2)
    rep = essrad_sandwich_check(sys, w, 1)
    assert rep.a_n == pytest.approx(1 / 3)
    assert rep.fr_upper == pytest.approx(1.0)
    assert rep.ic_lower <= rep.fr_upper


def test_essrad_requires_contraction():
    drv = cc.DrivingSystem.iid([1.0], seed=1)
    sys = RandomIntervalSystem((affine_map([[0.0, 1.0, 1.0, 0.0]]),), drv)
    w = drv.sample_window(0, 3)
    with pytest.raises(PreconditionANotLessThan1):
        essrad_sandwich_check(sys, w, 1)


def test_conditional_expectation_averages():
    f = BVFunction.identity()
    cells = branch_partition(doubling_map())
    e = conditional_expectation(f, cells)
    assert e.evaluate(0.25) == pytest.approx(0.25)
    assert e.evaluate(0.75) == pytest.approx(0.75)
    assert abs((f - e).integral()) <= 1e-12


def test_conditional_expectation_closes_gaps_between_composed_branches():
    # compose_maps leaves some adjacent branch ends 1.1e-16 apart; the cell
    # averages must not put a zero piece into such a gap
    cells = branch_partition(compose_word((tripling_map(),), [0, 0, 0]))
    assert any(b[0] != a[1] for a, b in zip(cells, cells[1:]))
    e = conditional_expectation(BVFunction.constant(1.0), cells)
    assert len(e.left_values) == len(cells)
    assert e.variation() <= 1e-12


# -- random invariant densities -----------------------------------------------------

def test_acim_single_doubling_flat():
    drv = cc.DrivingSystem.iid([1.0], seed=1)
    sys = RandomIntervalSystem((doubling_map(),), drv)
    rep = random_acim(sys, k=32, n_past=150)
    assert abs(rep.lambda1) <= 1e-10
    assert rep.d1 == 1
    assert np.max(np.abs(rep.densities[0] - 1.0)) <= 1e-8


def test_acim_doubling_tripling_mix():
    drv = cc.DrivingSystem.iid([0.5, 0.5], seed=5)
    sys = RandomIntervalSystem((doubling_map(), tripling_map()), drv)
    rep = random_acim(sys, k=64, n_past=200)
    assert abs(rep.lambda1) <= 1e-10
    assert rep.d1 == 1
    dens = rep.densities[0]
    assert np.min(dens) >= -1e-8
    assert np.mean(dens) == pytest.approx(1.0, abs=1e-8)  # integral one


def test_acim_nontrivial_density_nonnegative():
    drv = cc.DrivingSystem.iid([0.5, 0.5], seed=6)
    # second branch pair is not measure preserving: preimage weights vary
    skew = affine_map([[0.0, 0.5, 1.4, 0.3], [0.5, 1.0, 2.0, -1.0]])
    sys = RandomIntervalSystem((doubling_map(), skew), drv)
    rep = random_acim(sys, k=64, n_past=250)
    assert abs(rep.lambda1) <= 1e-8
    dens = rep.densities[0]
    assert np.min(dens) >= -1e-8
    assert np.mean(dens) == pytest.approx(1.0, abs=1e-8)
    # genuinely non-flat
    assert np.max(np.abs(dens - 1.0)) > 1e-2


def test_acim_splitting_certified_by_uniqueness_diagnostic():
    drv = cc.DrivingSystem.iid([0.5, 0.5], seed=6)
    skew = affine_map([[0.0, 0.5, 1.4, 0.3], [0.5, 1.0, 2.0, -1.0]])
    sys = RandomIntervalSystem((doubling_map(), skew), drv)
    rep = random_acim(sys, k=16, n_past=200)
    assert rep.chi < 1.0
    assert rep.kappa_star == pytest.approx(np.log(rep.chi)) and rep.kappa_star < 0
    # the splitting converged and its own blocks sit in the projection kernel
    assert max(rep.report.cauchy_gap) <= 1e-6
    assert max(rep.report.uniqueness_g0) <= 1e-8
    assert max(rep.report.equivariance) <= 1e-6


def test_acim_requires_expansion():
    drv = cc.DrivingSystem.iid([1.0], seed=1)
    sys = RandomIntervalSystem((single_slope_map(0.5),), drv)
    with pytest.raises(ExpansionTooWeak):
        random_acim(sys, k=16, n_past=50)


# t1 has two expanding branches onto [0, 1] and one contracting branch onto
# [0, 1/4]; q(x) = 4x mod 1.  Both send each cell of {[0,1/4], [1/4,1/2],
# [1/2,1]} onto a union of cells, so Ulam's method is exact on functions
# constant on those cells, and every grid of k = 4 * 2^i bins refines them.
T1 = affine_map([[0.0, 0.25, 4.0, 0.0], [0.25, 0.5, 4.0, -1.0], [0.5, 1.0, 0.5, -0.25]])
QUADRUPLING = affine_map([[i / 4, (i + 1) / 4, 4.0, -float(i)] for i in range(4)])


def markov_system_density(window, k):
    """The exact random invariant density of (T1, QUADRUPLING) at coordinate
    0 on k bins: L_{t1}^j 1, where j counts the t1 symbols since the last q
    (L_q maps every function constant on the quarters to its integral)."""
    j = window.seq[:window.n_past][::-1].tolist().index(1)
    quarters = np.ones(4)
    for _ in range(j):
        inflow = (quarters[0] + quarters[1]) / 4
        quarters = np.array([inflow + 2 * quarters[2], inflow, inflow, inflow])
    return np.repeat(quarters, k // 4)


@pytest.mark.parametrize("law", ["iid", "markov"])
@pytest.mark.parametrize("k", [4, 8, 16, 32, 64, 128, 256])
def test_acim_matches_piecewise_affine_markov_closed_form(k, law):
    for seed in range(12):
        drv = (cc.DrivingSystem.iid([0.5, 0.5], seed=seed) if law == "iid" else
               cc.DrivingSystem.markov([[0.7, 0.3], [0.4, 0.6]], seed=seed))
        sys = RandomIntervalSystem((T1, QUADRUPLING), drv)
        window = drv.sample_window(200, 50)
        # the expansion index only places the threshold, far below 0
        rep = random_acim(sys, window, k=k)
        assert rep.d1 == 1 and rep.report.p == 1
        exact = markov_system_density(window, k)
        assert np.max(np.abs(rep.densities[0] - exact)) <= 1e-12, (seed, law, k)


@pytest.mark.parametrize("k,seed", [(64, 0), (64, 4), (64, 7), (32, 4), (128, 0), (128, 4),
                                    (256, 3)])
def test_acim_ignores_spurious_ulam_blocks(k, seed, monkeypatch):
    # (tripling, slope 0.75): each window failed a check on an Ulam block near
    # the expansion index (NonConvergence; BlockDegeneracy at k = 128, seed 4)
    # while every block was computed.  The density needs block 1 alone.
    drv = cc.DrivingSystem.iid([0.5, 0.5], seed=seed)
    sys = RandomIntervalSystem((tripling_map(), single_slope_map(0.75)), drv)
    propagate, widths = cc._propagate, []

    def spy(mats, symbols, q=None, **kwargs):
        widths.append(q.shape[1])
        return propagate(mats, symbols, q, **kwargs)

    monkeypatch.setattr(cc, "_propagate", spy)
    rep = random_acim(sys, k=k)
    assert max(widths) == 2  # c_1 + 1 columns
    assert rep.d1 == 1 and rep.report.p == 1
    assert max(rep.report.cauchy_gap) <= 1e-13
    assert abs(rep.lambda1) <= 1e-3
    dens = rep.densities[0]
    assert np.mean(dens) == pytest.approx(1.0, abs=1e-12) and np.min(dens) >= -1e-12


# No invariant density charges the first bins of these maps.  LEAKY triples
# [0, 1/3] onto [0, 1/2] and [1/3, 1] onto [1/2, 1], so the left half is
# transient (it keeps 2/3 of its mass per step) and the density is 2 on the
# right half.  HALVES doubles each half onto itself: two invariant densities.
LEAKY = affine_map([[0, 1 / 6, 3, 0], [1 / 6, 1 / 3, 3, -0.5], [1 / 3, 1 / 2, 3, -0.5],
                    [1 / 2, 2 / 3, 3, -1], [2 / 3, 5 / 6, 3, -1.5], [5 / 6, 1, 3, -2]])
HALVES = affine_map([[0, 0.25, 2, 0], [0.25, 0.5, 2, -0.5], [0.5, 0.75, 2, -0.5],
                     [0.75, 1, 2, -1]])


def acim_and_full_width(t, k):
    drv = cc.DrivingSystem.iid([1.0], seed=0)
    sys = RandomIntervalSystem((t,), drv)
    window = drv.sample_window(200, 50)
    rep = random_acim(sys, window, k=k)
    full = cc.oseledets_splitting(density_generator(sys, k), None, window, n_past=200,
                                  n_future=50, kappa_estimate=rep.kappa_star)
    return rep, full


@pytest.mark.parametrize("k", [12, 24])
def test_acim_density_vanishing_on_first_bins(k):
    rep, full = acim_and_full_width(LEAKY, k)
    assert full.multiplicities[:2] == (1, 1)
    assert full.exponents[1] == pytest.approx(np.log(2 / 3), abs=1e-12)
    assert rep.d1 == 1 and rep.report.p == 1
    assert abs(rep.lambda1) <= 1e-12 and abs(full.exponents[0]) <= 1e-12
    assert gap(rep.report.splitting[0], full.splitting[0]) <= 1e-12
    assert np.max(np.abs(rep.densities[0] - np.repeat([0.0, 2.0], k // 2))) <= 1e-12


@pytest.mark.parametrize("k", [8, 32, 128])
def test_acim_two_invariant_halves(k):
    rep, full = acim_and_full_width(HALVES, k)
    halves = Subspace(np.kron(np.eye(2), np.ones((k // 2, 1))) / np.sqrt(k / 2))
    assert rep.d1 == full.multiplicities[0] == 2 and len(rep.densities) == 2
    assert abs(rep.lambda1) <= 1e-12 and abs(full.exponents[0]) <= 1e-12
    assert gap(rep.report.splitting[0], halves) <= 1e-12
    assert gap(full.splitting[0], halves) <= 1e-12


def test_ulam_cocycle_top_exponent_zero():
    drv = cc.DrivingSystem.iid([0.5, 0.5], seed=8)
    sys = RandomIntervalSystem((doubling_map(), tent_map()), drv)
    gen = density_generator(sys, 32)
    exps = cc.lyapunov_exponents(gen, drv, n=4000)
    assert abs(exps[0][0]) <= 1e-10


def test_doubling_ulam_second_exponent_bound():
    drv = cc.DrivingSystem.iid([1.0], seed=1)
    sys = RandomIntervalSystem((doubling_map(),), drv)
    gen = density_generator(sys, 64)
    exps = cc.lyapunov_exponents(gen, drv, n=2000)
    assert exps[0][0] == pytest.approx(0.0, abs=1e-10)
    assert exps[1][0] <= np.log(0.5) + 0.1


# -- map plumbing ------------------------------------------------------------------

def test_compose_word_order():
    t = compose_word([doubling_map(), tripling_map()], [0, 1])
    # T_1 ∘ T_0: doubling first, then tripling: slopes multiply to 6
    assert all(abs(b.slope) == pytest.approx(6.0) for b in t.branches)
    assert t.essinf_derivative() == pytest.approx(6.0)


def test_piecewise_map_validation():
    with pytest.raises(ValueError):
        affine_map([[0.0, 0.5, 2.0, 0.0]])  # does not cover [0, 1]
    with pytest.raises(ValueError):
        affine_map([[0.0, 0.6, 2.0, 0.0], [0.5, 1.0, 2.0, -1.0]])  # overlap
    with pytest.raises(ValueError):
        affine_map([[0.0, 1.0, 2.0, 0.0]])  # image leaves [0, 1]
    with pytest.raises(ValueError, match="domain leaves"):
        affine_map([[-0.25, 0.25, 2.0, 0.5], [0.25, 0.75, 2.0, -0.5]])
    # the same 1e-9 slack as the image check
    affine_map([[-1e-10, 0.5, 2.0, 0.0], [0.5, 1.0, 2.0, -1.0]])
