import numpy as np
import pytest

from oseledets import cocycle as cc
from oseledets.errors import (
    AmplitudeTooLarge,
    IllegalWord,
    NotAntisymmetric,
    NotIrreducible,
    NotMonotone,
)
from oseledets.grassmann import Subspace
from oseledets.sft import (
    CylinderFunction,
    Point,
    Sft,
    Weight,
    antisymmetric_example,
    antisymmetric_weight_pair,
    cylinder_projection,
    d_theta,
    distortion_check,
    is_antisymmetric,
    is_monotone,
    lipschitz_ly_check,
    norm_and_ic_bounds,
    rn,
    transfer_apply,
    transfer_apply_word,
    transfer_matrix,
    weight_generator,
)

FULL = Sft.full(2, 0.5)


def stochastic_weight(a: float, sft=FULL) -> Weight:
    h = CylinderFunction(sft, 1, {(0,): -a / 2, (1,): a / 2})
    return antisymmetric_weight_pair(sft, h)


def random_cylinder(rng, sft=FULL, max_depth=6) -> CylinderFunction:
    depth = int(rng.integers(1, max_depth + 1))
    return CylinderFunction(sft, depth,
                            rng.uniform(-1.0, 1.0,
                                        size=len(sft.legal_words(depth))))


# -- metric -----------------------------------------------------------------

def test_d_theta_identical():
    x = FULL.representative((1, 0))
    assert d_theta(x, x) == 0.0


def test_d_theta_disagree_at_zero():
    assert d_theta(Point(FULL, (), (0,)), Point(FULL, (), (1,))) == 1.0


def test_d_theta_three_agreements():
    x = Point(FULL, (1, 1, 1, 1), (1,))
    y = Point(FULL, (1, 1, 1, 0), (1,))
    assert d_theta(x, y) == 0.125


def test_d_theta_periodic_equality():
    # different representations of the same sequence
    x = Point(FULL, (), (0, 1))
    y = Point(FULL, (0, 1), (0, 1))
    assert d_theta(x, y) == 0.0


def test_illegal_word_rejected():
    gm = Sft.golden_mean(0.5)
    with pytest.raises(IllegalWord):
        gm.check_word((1, 1))
    with pytest.raises(IllegalWord):
        CylinderFunction.indicator(gm, (1, 1, 0))


# -- transfer operator ---------------------------------------------------------

def test_transfer_half_weight_fixes_one():
    g = stochastic_weight(0.0)
    img = transfer_apply(FULL, g, CylinderFunction.constant(FULL, 1.0))
    assert np.all(img.array == 1.0)


def test_transfer_antisymmetric_weight_fixes_one_exactly():
    for a in (0.8, 0.6, 0.9, 0.3, 0.123):
        img = transfer_apply(FULL, stochastic_weight(a),
                             CylinderFunction.constant(FULL, 1.0))
        assert np.all(img.array == 1.0)


def test_transfer_eigenfunction_derived():
    # oracle: P f(x) = g(1x) f(1x) + g(0x) f(0x) enumerated on 2-cylinders
    a = 0.8
    g = stochastic_weight(a)
    f = CylinderFunction(FULL, 1, {(0,): -1.0, (1,): 1.0})
    img = transfer_apply(FULL, g, f)
    for w in FULL.legal_words(1):
        oracle = sum(
            g.value((s,) + w) * f.value((s,))
            for s in (0, 1))
        assert img.value(w) == pytest.approx(oracle, abs=0.0)
        assert img.value(w) == pytest.approx(a * f.value(w), abs=1e-15)


def test_transfer_matches_matrix_exactly():
    rng = np.random.default_rng(0)
    for sft in (FULL, Sft.golden_mean(0.5)):
        for depth in (2, 3):
            vals = rng.uniform(0.1, 1.0, size=len(sft.legal_words(depth)))
            g = Weight(sft, depth, vals)
            mat, words = transfer_matrix(sft, g)
            f = CylinderFunction(sft, depth - 1,
                                 rng.uniform(-1, 1, size=len(words)))
            via_op = transfer_apply(sft, g, f)
            via_mat = mat @ f.array
            assert np.max(np.abs(via_op.array - via_mat)) <= 1e-12


def test_transfer_matrix_half_weight():
    mat, _ = transfer_matrix(FULL, stochastic_weight(0.0))
    assert np.allclose(mat, [[0.5, 0.5], [0.5, 0.5]])


def test_transfer_matrix_antisymmetric_eigenvalues():
    # oracle: eigenvalues of the 2x2 matrix
    a = 0.8
    mat, _ = transfer_matrix(FULL, stochastic_weight(a))
    assert np.allclose(mat, [[0.5 + a / 2, 0.5 - a / 2],
                             [0.5 - a / 2, 0.5 + a / 2]], atol=1e-15)
    eigs = sorted(np.linalg.eigvals(mat))
    assert eigs[0] == pytest.approx(a, abs=1e-14)
    assert eigs[1] == pytest.approx(1.0, abs=1e-14)


def test_transfer_matrix_golden_mean_spectral_radius():
    gm = Sft.golden_mean(0.5)
    mat, _ = transfer_matrix(gm, CylinderFunction.constant(gm, 1.0))
    rad = max(abs(np.linalg.eigvals(mat)))
    assert rad == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-12)


def test_operator_continuity_in_weight():
    # ||P_g - P_g'|| <= 2 N ||g - g'||_theta on sampled unit functions
    rng = np.random.default_rng(1)
    n_sym = FULL.n_symbols
    for _ in range(10):
        g1 = Weight(FULL, 2, rng.uniform(0.2, 1.0, size=4))
        g2 = Weight(FULL, 2, rng.uniform(0.2, 1.0, size=4))
        bound = 2 * n_sym * (g1 - g2).theta_norm()
        for _ in range(10):
            f = random_cylinder(rng)
            norm = f.theta_norm()
            if norm <= 0:
                continue
            diff = (transfer_apply(FULL, g1, f) - transfer_apply(FULL, g2, f))
            assert diff.theta_norm() <= bound * norm + 1e-12


def test_iterated_transfer_matches_matrix_cocycle():
    rng = np.random.default_rng(2)
    weights = [Weight(FULL, 2, rng.uniform(0.2, 1.0, size=4)) for _ in range(3)]
    gen = weight_generator(FULL, weights)
    w = cc.OmegaWindow(past=(), future=(0, 1, 2))
    f = CylinderFunction(FULL, 1, rng.uniform(-1, 1, size=2))
    via_ops = transfer_apply_word(FULL, weights, f, 3)
    via_mats = cc.compose(gen, w, 3) @ f.array
    assert np.max(np.abs(via_ops.array - via_mats)) <= 1e-12


# -- projections -----------------------------------------------------------------

def test_projection_constant_unchanged():
    f = CylinderFunction.constant(FULL, 2.5)
    assert cylinder_projection(FULL, f, 4) is f


def test_projection_shallow_function_exact():
    rng = np.random.default_rng(3)
    f = CylinderFunction(FULL, 2, rng.uniform(-1, 1, size=4))
    proj = cylinder_projection(FULL, f, 5)
    assert proj is f


def test_projection_bounds_weighted_sum_derived():
    # oracle: exhaustive enumeration of depth-10 words
    theta = 0.5
    f = CylinderFunction.from_callable(
        FULL, 10, lambda w: sum(theta ** i * w[i] for i in range(10)))
    lip = f.lip_theta()
    assert lip == pytest.approx(2 * (1 - theta ** 10), abs=1e-12)
    proj = cylinder_projection(FULL, f, 3)
    resid = f - proj.with_depth(10)
    words = FULL.legal_words(10)
    sup_oracle = max(
        abs(f.value(w) - f.value(FULL.representative(w[:3]).head(10)))
        for w in words)
    assert resid.sup_norm() == pytest.approx(sup_oracle, abs=1e-15)
    assert resid.sup_norm() <= theta ** 3 * lip
    assert resid.lip_theta() <= max(2 * theta, 1.0) * lip


def test_projection_bounds_random():
    rng = np.random.default_rng(4)
    for sft in (FULL, Sft.full(3, 0.4), Sft.golden_mean(0.6)):
        for _ in range(10):
            depth = int(rng.integers(2, 7))
            f = CylinderFunction(sft, depth,
                                 rng.uniform(-1, 1, size=len(sft.legal_words(depth))))
            n = int(rng.integers(1, depth))
            resid = f - cylinder_projection(sft, f, n).with_depth(depth)
            lip = f.lip_theta()
            assert resid.sup_norm() <= sft.theta ** n * lip + 1e-12
            assert resid.lip_theta() <= max(2 * sft.theta, 1.0) * lip + 1e-12


def test_projection_gather_matches_point_evaluation():
    greedy = 0
    for sft in (FULL, Sft.full(3, 0.4), Sft.golden_mean(0.6)):
        rng = np.random.default_rng(5)
        for depth in range(2, 8):
            f = CylinderFunction(sft, depth,
                                 rng.uniform(-1, 1, size=len(sft.legal_words(depth))))
            for n in range(1, depth):
                reps = [sft.representative(w) for w in sft.legal_words(n)]
                greedy += sum(bool(x.prefix) for x in reps)
                proj = cylinder_projection(sft, f, n)
                assert proj.depth == n
                assert proj.array.tolist() == [f.evaluate(x) for x in reps]
    assert greedy > 0  # the golden mean's non-periodic representatives ran


# -- growth sequence ----------------------------------------------------------------

def test_rn_stochastic_weights():
    ws = [stochastic_weight(0.8)] * 5
    for n in (1, 3, 5):
        assert rn(FULL, ws, n) == 1.0


def test_rn_constant_weight_full_shift():
    c = 0.7
    ws = [Weight(FULL, 1, np.array([c, c]))] * 5
    for n in (1, 2, 4):
        assert rn(FULL, ws, n) == pytest.approx((2 * c) ** n, rel=1e-14)


def test_rn_rate_cauchy():
    rng = np.random.default_rng(13)
    ws = [Weight(FULL, 2, rng.uniform(0.3, 1.2, size=4)) for _ in range(32)]
    rates = {n: rn(FULL, ws, n) ** (1 / n) for n in (4, 8, 16, 32)}
    d1 = abs(rates[8] - rates[4])
    d2 = abs(rates[16] - rates[8])
    d3 = abs(rates[32] - rates[16])
    assert d2 <= d1 and d3 <= d2


# -- distortion ---------------------------------------------------------------------

def test_distortion_constant_weight_zero():
    ws = [Weight(FULL, 1, np.array([0.5, 0.5]))] * 6
    rep = distortion_check(FULL, ws, 4, 4)
    assert rep.feasible_d == 0.0


def test_distortion_depth2_profile_bounded():
    h = CylinderFunction(FULL, 2, np.array([-0.2, -0.05, 0.05, 0.2]))
    assert is_antisymmetric(h) and is_monotone(h)
    weight = antisymmetric_weight_pair(FULL, h)
    rep = distortion_check(FULL, [weight] * 8, 6, 8)
    assert rep.feasible_d > 0.0
    assert rep.feasible_d <= rep.proof_bound
    # uniformity: no growth across composition lengths
    assert max(rep.per_k) <= rep.per_k[0] + 1e-9


def test_distortion_example_depth8():
    ws = [stochastic_weight(0.8)] * 8
    rep = distortion_check(FULL, ws, 6, 8)
    assert max(rep.per_k) <= rep.per_k[0] + 1e-12
    assert rep.feasible_d <= rep.proof_bound


# -- the smoothing inequality ----------------------------------------------------------

def test_smoothing_constant_function():
    ws = [stochastic_weight(0.8)] * 3
    rep = lipschitz_ly_check(FULL, ws, 3, [CylinderFunction.constant(FULL, 1.0)])
    assert rep.slacks[0] >= 0.0
    image = transfer_apply_word(FULL, ws, CylinderFunction.constant(FULL, 1.0), 3)
    assert image.lip_theta() == 0.0


def test_smoothing_eigenfunction_example():
    a = 0.8
    ws = [stochastic_weight(a)]
    f = CylinderFunction(FULL, 1, {(0,): -1.0, (1,): 1.0})
    rep = lipschitz_ly_check(FULL, ws, 1, [f])
    # |P f|_theta = 2a; the bound is R_1 (theta |f|_theta + K ||f||_inf)
    assert rep.r_n == 1.0
    assert rep.slacks[0] == pytest.approx((2 * 0.5 + rep.k_constant) - 2 * a)
    assert rep.slacks[0] >= 0.0


def test_smoothing_random_sample():
    rng = np.random.default_rng(6)
    ws = [stochastic_weight(0.8)] * 4
    samples = [random_cylinder(rng) for _ in range(100)]
    rep = lipschitz_ly_check(FULL, ws, 3, samples)
    assert min(rep.slacks) >= 0.0


def test_smoothing_default_k_is_sandwich_k():
    ws = [stochastic_weight(0.8), stochastic_weight(0.3)] * 3
    for n in (2, 4):
        sandwich = norm_and_ic_bounds(FULL, ws, n, n, n_samples=5)
        default = lipschitz_ly_check(FULL, ws, n, [CylinderFunction.constant(FULL, 1.0)])
        assert default.k_constant == sandwich.k_constant
        assert default.r_n == sandwich.r_n


# -- norm and covering-number sandwich --------------------------------------------------

def test_sandwich_ordering_and_certificates():
    ws = [stochastic_weight(0.8)] * 8
    for n in (2, 3, 4):
        rep = norm_and_ic_bounds(FULL, ws, n, n, n_samples=50)
        assert rep.r_n <= rep.op_norm_est + 1e-12
        assert rep.op_norm_est <= rep.op_norm_upper + 1e-9
        assert rep.ic_lower_certified <= rep.ic_upper_sampled + rep.op_norm_upper
        assert rep.min_pairwise_distance >= 0.5 * 0.5 ** n * rep.r_n - 1e-15
        assert rep.ic_lower_certified >= rep.ic_lower_formula - 1e-15


def test_sandwich_stochastic_n3_values():
    ws = [stochastic_weight(0.8)] * 8
    rep = norm_and_ic_bounds(FULL, ws, 3, 3, n_samples=50)
    assert rep.r_n == 1.0
    assert rep.ic_lower_formula == pytest.approx(1 / 32)
    assert rep.min_pairwise_distance >= 1 / 16


def test_sandwich_kappa_fit():
    ws = [stochastic_weight(0.8)] * 10
    fits = []
    for n in (4, 6, 8):
        rep = norm_and_ic_bounds(FULL, ws, n, n, n_samples=40)
        fits.append(np.log(rep.ic_upper_sampled) / n)
    target = np.log(0.5)  # log theta + log R*, R* = 1
    for fit in fits:
        assert fit == pytest.approx(target, abs=0.1)


def test_sandwich_needs_irreducible():
    reducible = Sft(2, np.array([[1, 0], [0, 1]], dtype=np.int8), 0.5)
    ws = [Weight(reducible, 1, np.array([0.5, 0.5]))] * 3
    with pytest.raises(NotIrreducible):
        norm_and_ic_bounds(reducible, ws, 2, 2, n_samples=5)


# -- the antisymmetric family -----------------------------------------------------------

def test_antisymmetric_example_constant_amplitude():
    drv = cc.DrivingSystem.iid([1.0], seed=3)
    ex = antisymmetric_example([0.8], drv, n=2000)
    assert abs(ex.lambda1) <= 1e-14
    assert ex.lambda2 == pytest.approx(np.log(0.8), abs=1e-12)
    assert ex.identity_residual == 0.0


def test_antisymmetric_example_zero_amplitude_drops_block():
    drv = cc.DrivingSystem.iid([1.0], seed=3)
    ex = antisymmetric_example([0.0], drv, n=400)
    assert abs(ex.lambda1) <= 1e-14
    assert ex.lambda2 == float("-inf")


def test_antisymmetric_example_random_amplitudes():
    drv = cc.DrivingSystem.iid([0.5, 0.5], seed=9)
    ex = antisymmetric_example([0.6, 0.9], drv, n=20_000)
    assert abs(ex.lambda1) <= 1e-12
    assert ex.lambda2 == pytest.approx((np.log(0.6) + np.log(0.9)) / 2, abs=3e-2)


def test_antisymmetric_example_validations():
    drv = cc.DrivingSystem.iid([1.0], seed=3)
    with pytest.raises(AmplitudeTooLarge):
        antisymmetric_example([1.0], drv, n=100)
    bad_anti = CylinderFunction(FULL, 1, {(0,): 0.1, (1,): 0.2})
    with pytest.raises(NotAntisymmetric):
        antisymmetric_example([bad_anti], drv, n=100)
    bad_mono = CylinderFunction(FULL, 1, {(0,): 0.2, (1,): -0.2})
    with pytest.raises(NotMonotone):
        antisymmetric_example([bad_mono], drv, n=100)


def test_transfer_preserves_antisymmetry_and_monotonicity():
    rng = np.random.default_rng(7)
    g = stochastic_weight(0.8)
    # antisymmetric monotone input of depth 3
    base = CylinderFunction.from_callable(
        FULL, 3, lambda w: 0.4 * (w[0] - 0.5) + 0.2 * (w[1] - 0.5) + 0.1 * (w[2] - 0.5))
    assert is_antisymmetric(base, tol=1e-15) and is_monotone(base, tol=1e-15)
    image = base
    for _ in range(3):
        image = transfer_apply(FULL, g, image)
        assert is_antisymmetric(image, tol=1e-12)
        assert is_monotone(image, tol=1e-12)


def test_row_sums_exactly_one():
    for a in (0.8, 0.6, 0.9, 0.37):
        mat, _ = transfer_matrix(FULL, stochastic_weight(a))
        assert np.all(mat.sum(axis=1) == 1.0)


def test_uniqueness_diagnostic_on_second_block():
    # the slow space family of the 2x2 transfer cocycle decays at the
    # exponent difference when perturbed
    a = 0.8
    drv = cc.DrivingSystem.iid([1.0], seed=10)
    gen = weight_generator(FULL, [stochastic_weight(a)])
    w = drv.sample_window(300, 140)
    rep = cc.oseledets_splitting(gen, None, w, n_past=200, n_future=60,
                                 burn_in=130)
    assert rep.exponents[0] == pytest.approx(0.0, abs=1e-12)
    assert rep.exponents[1] == pytest.approx(np.log(a), abs=1e-12)
    tilted = Subspace.from_spanning(np.array([[1.0], [-3.0]]) / np.sqrt(10))
    series = cc.uniqueness_diagnostic(gen, None, w, tilted, rep, 1, 30)
    mask = series > 1e-12
    slope = np.polyfit(np.arange(31)[mask], np.log(series[mask]), 1)[0]
    expected = -(rep.exponents[0] - rep.exponents[1])
    assert slope == pytest.approx(expected, rel=0.15)
