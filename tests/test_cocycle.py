import warnings

import numpy as np
import pytest

import oseledets.cocycle as cc
from oseledets.cocycle import (
    DrivingSystem,
    Generator,
    OmegaWindow,
    backward_decay_check,
    compose,
    directional_exponent,
    forward_filtration,
    lyapunov_exponents,
    noncommuting_base_demo,
    oseledets_splitting,
    sweep_reports,
    uniform_growth_check,
    uniqueness_diagnostic,
)
from oseledets.errors import (
    BlockDegeneracy,
    EqualExponents,
    NonConvergence,
    NotComplementary,
    RestrictedSingular,
    WindowTooShort,
)
from oseledets.grassmann import Subspace, gap

LOG2 = np.log(2.0)

DIAG = Generator.from_list([np.diag([2.0, 0.5])])
TRIANGULAR = Generator.from_list([np.array([[2.0, 1.0], [0.0, 0.5]])])
CONST_DRIVING = DrivingSystem.iid([1.0], seed=1)


def const_window(n_past, n_future):
    return OmegaWindow(past=(0,) * n_past, future=(0,) * n_future)


# -- composition ------------------------------------------------------------

def test_compose_powers():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    gen = Generator.from_list([a])
    w = const_window(0, 3)
    assert np.allclose(compose(gen, w, 3), a @ a @ a)


def test_compose_empty_product_is_identity():
    w = const_window(0, 3)
    assert np.array_equal(compose(DIAG, w, 0), np.eye(2))


def test_compose_order():
    a0 = np.array([[1.0, 1.0], [0.0, 1.0]])
    a1 = np.array([[1.0, 0.0], [2.0, 1.0]])
    gen = Generator.from_list([a0, a1])
    w = OmegaWindow(past=(), future=(0, 1))
    assert np.allclose(compose(gen, w, 2), a1 @ a0)


def test_compose_window_too_short():
    with pytest.raises(WindowTooShort):
        compose(DIAG, const_window(0, 2), 5)


def test_cocycle_law():
    rng = np.random.default_rng(0)
    gen = Generator.from_list([rng.normal(size=(3, 3)) for _ in range(2)])
    drv = DrivingSystem.iid([0.5, 0.5], seed=2)
    w = drv.sample_window(0, 30)
    for n, k in [(3, 4), (0, 7), (5, 0), (10, 10)]:
        lhs = compose(gen, w, n + k)
        rhs = compose(gen, w.shift(n), k) @ compose(gen, w, n)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(lhs)))


# -- exponents ----------------------------------------------------------------

def test_exponents_constant_diagonal_exact():
    exps = lyapunov_exponents(DIAG, CONST_DRIVING, n=400)
    assert len(exps) == 2
    assert exps[0] == (pytest.approx(LOG2, abs=1e-12), 1)
    assert exps[1] == (pytest.approx(-LOG2, abs=1e-12), 1)


def test_exponents_iid_mix_matches_birkhoff_oracle():
    gen = Generator.from_list([np.diag([3.0, 1 / 3]), np.diag([2.0, 0.5])])
    drv = DrivingSystem.iid([0.5, 0.5], seed=3)
    n = 20_000
    w = drv.sample_window(0, n)
    exps = lyapunov_exponents(gen, None, n=n, window=w)
    # oracle: average of per-step log diagonals along the same word
    logs = np.array([np.log([3.0, 1 / 3]), np.log([2.0, 0.5])])
    birkhoff = logs[np.asarray(w.future)].mean(axis=0)
    assert exps[0][0] == pytest.approx(birkhoff[0], abs=1e-2)
    assert exps[1][0] == pytest.approx(birkhoff[1], abs=1e-2)


def test_exponents_shear_merges_block():
    shear = Generator.from_list([np.array([[1.0, 1.0], [0.0, 1.0]])])
    exps = lyapunov_exponents(shear, CONST_DRIVING, n=100_000)
    assert exps == [(pytest.approx(0.0, abs=1e-3), 2)]


def test_exponents_rank_deficient_block_dropped():
    gen = Generator.from_list([np.array([[2.0, 0.0], [0.0, 0.0]])])
    exps = lyapunov_exponents(gen, CONST_DRIVING, n=200)
    assert len(exps) == 1
    assert exps[0] == (pytest.approx(LOG2, abs=1e-12), 1)


def test_group_blocks_minus_inf_rates():
    rates = np.array([1.0, -np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cc._group_blocks(rates, 1e-3) == [(1.0, 1), (-np.inf, 2)]
        with pytest.raises(BlockDegeneracy):
            cc._check_block_boundaries(rates, [2, 3], 1e-3, 10)
        gen = Generator.from_list([np.diag([2.0, 0.0, 0.0])])
        exps = lyapunov_exponents(gen, DrivingSystem.iid((1.0,), 0), n=50)
    assert exps == [(pytest.approx(LOG2, abs=1e-12), 1)]


def test_exponent_of_zero_vector():
    assert directional_exponent(DIAG, const_window(0, 50), 50,
                                np.zeros(2)) == float("-inf")


def test_generator_rejects_bad_symbols():
    with pytest.raises(ValueError):
        DIAG.matrix(-1)
    with pytest.raises(ValueError):
        DIAG.matrix(1)


def test_exponent_scale_invariance():
    w = const_window(0, 64)
    v = np.array([0.3, 0.7])
    assert directional_exponent(DIAG, w, 64, v) == directional_exponent(
        DIAG, w, 64, 5.0 * v)
    assert directional_exponent(DIAG, w, 64, v) == directional_exponent(
        DIAG, w, 64, -2.0 * v)


def test_exponent_sum_rule():
    n = 10_000
    w = const_window(0, n)
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    lam_u = directional_exponent(DIAG, w, n, u)
    lam_v = directional_exponent(DIAG, w, n, v)
    lam_sum = directional_exponent(DIAG, w, n, u + v)
    assert lam_sum <= max(lam_u, lam_v) + 1e-9
    assert abs(lam_u - lam_v) > 1e-3  # distinct estimates force equality
    # equality at the estimator's own O(log(norm constants)/n) resolution
    assert lam_sum == pytest.approx(max(lam_u, lam_v), abs=2 * LOG2 / n)


def test_exponent_shift_identity():
    # the (n-1)-step tail of an n-step product is an algebraic identity
    rng = np.random.default_rng(5)
    gen = Generator.from_list([rng.uniform(0.5, 2.0, size=(2, 2)) for _ in range(2)])
    drv = DrivingSystem.iid([0.5, 0.5], seed=6)
    w = drv.sample_window(0, 33)
    v = np.array([0.6, -0.2])
    n = 32
    full = compose(gen, w, n) @ v
    tail = compose(gen, w.shift(1), n - 1) @ (gen.matrix(w.symbol(0)) @ v)
    assert np.allclose(full, tail, rtol=1e-12)


def test_directional_exponent_matches_norm_loop():
    # reference: renormalize by the vector norm each step; the QR kernel's
    # |R| is the same norm up to rounding, so only the last bits may differ
    rng = np.random.default_rng(45)
    gen = Generator.from_list([rng.normal(size=(3, 3)) for _ in range(2)])
    w = DrivingSystem.iid([0.5, 0.5], seed=46).sample_window(0, 500)
    v = rng.standard_normal(3)
    total, u = 0.0, v / np.linalg.norm(v)
    for j in range(500):
        u = gen.matrix(w.symbol(j)) @ u
        total += np.log(np.linalg.norm(u))
        u = u / np.linalg.norm(u)
    assert directional_exponent(gen, w, 500, v) == pytest.approx(total / 500, abs=1e-12)


def test_sup_over_directions_matches_norm_rate():
    rng = np.random.default_rng(7)
    gen = Generator.from_list([rng.uniform(0.5, 1.5, size=(3, 3)) for _ in range(2)])
    drv = DrivingSystem.iid([0.5, 0.5], seed=8)
    n = 300
    w = drv.sample_window(0, n + 1)
    prod = compose(gen, w, n)
    norm_rate = np.log(np.linalg.norm(prod, 2)) / n
    # sampled directions plus the top right-singular direction
    _, _, vt = np.linalg.svd(prod)
    dirs = [vt[0]] + [rng.standard_normal(3) for _ in range(20)]
    best = max(directional_exponent(gen, w, n, v) for v in dirs)
    assert best == pytest.approx(norm_rate, abs=1e-6)


# -- filtration ----------------------------------------------------------------

def test_filtration_constant_diagonal():
    w = const_window(0, 60)
    spectrum = [(LOG2, 1), (-LOG2, 1)]
    filt = forward_filtration(DIAG, w, 60, spectrum)
    assert len(filt) == 1
    assert gap(filt[0], Subspace.span([0.0, 1.0])) <= 1e-10


def test_filtration_triangular_matches_eigen_oracle():
    # oracle: eigendecomposition of the constant matrix
    mat = np.array([[2.0, 1.0], [0.0, 0.5]])
    evals, evecs = np.linalg.eig(mat)
    slow = Subspace.from_spanning(evecs[:, [int(np.argmin(evals))]])
    w = const_window(0, 60)
    filt = forward_filtration(TRIANGULAR, w, 60,
                              [(np.log(2), 1), (np.log(0.5), 1)])
    assert gap(filt[0], slow) <= 1e-8
    assert gap(filt[0], Subspace.span([2.0, -3.0])) <= 1e-8


def test_filtration_nesting():
    rng = np.random.default_rng(9)
    gen = Generator.from_list([np.diag([4.0, 1.0, 0.25])])
    w = const_window(0, 80)
    spectrum = lyapunov_exponents(gen, None, n=80, window=w)
    filt = forward_filtration(gen, w, 80, spectrum)
    assert [f.d for f in filt] == [2, 1]
    # nesting: the smaller space sits inside the larger one
    for col in range(filt[1].d):
        assert filt[0].contains(filt[1].frame[:, col], tol=1e-10)


def test_filtration_block_degeneracy():
    # the product cannot resolve a boundary between nearly equal rates
    close = Generator.from_list([np.diag([2.0, 2.0 * (1 + 1e-9)])])
    with pytest.raises(BlockDegeneracy):
        forward_filtration(close, const_window(0, 40), 40,
                           [(LOG2 + 1e-9, 1), (LOG2, 1)], gap_tolerance=1e-3)


# -- splitting ----------------------------------------------------------------

def test_splitting_constant_diagonal():
    w = const_window(200, 50)
    rep = oseledets_splitting(DIAG, None, w, n_past=200, n_future=50)
    assert rep.multiplicities == (1, 1)
    assert gap(rep.splitting[0], Subspace.span([1.0, 0.0])) <= 1e-12
    assert gap(rep.splitting[1], Subspace.span([0.0, 1.0])) <= 1e-12


def test_splitting_triangular_matches_eigen_oracle():
    mat = np.array([[2.0, 1.0], [0.0, 0.5]])
    evals, evecs = np.linalg.eig(mat)
    fast = Subspace.from_spanning(evecs[:, [int(np.argmax(evals))]])
    slow = Subspace.from_spanning(evecs[:, [int(np.argmin(evals))]])
    w = const_window(200, 50)
    rep = oseledets_splitting(TRIANGULAR, None, w, n_past=200, n_future=50)
    assert gap(rep.splitting[0], fast) <= 1e-8
    assert gap(rep.splitting[1], slow) <= 1e-8
    assert max(rep.residuals["equivariance"]) <= 1e-6


def test_splitting_random_positive_cocycle():
    rng = np.random.default_rng(10)
    gen = Generator.from_list([rng.uniform(0.5, 2.0, size=(2, 2)) for _ in range(3)])
    drv = DrivingSystem.iid([1 / 3, 1 / 3, 1 / 3], seed=11)
    rep = oseledets_splitting(gen, drv, n_past=200, n_future=50)
    assert max(rep.residuals["equivariance"]) <= 1e-6
    assert rep.residuals["direct_sum_min_sv"][0] > 1e-6


def test_splitting_direct_sum_invariant():
    rng = np.random.default_rng(12)
    gen = Generator.from_list([np.diag(rng.uniform(0.5, 4.0, size=4))
                               for _ in range(2)])
    drv = DrivingSystem.iid([0.5, 0.5], seed=13)
    rep = oseledets_splitting(gen, drv, n_past=150, n_future=40)
    frames = [e.frame for e in rep.splitting]
    if rep.filtration:
        frames.append(rep.filtration[-1].frame)
    sv = np.linalg.svd(np.hstack(frames), compute_uv=False)
    assert sv[-1] > 1e-6


def test_splitting_window_too_short():
    with pytest.raises(WindowTooShort):
        oseledets_splitting(DIAG, None, const_window(10, 10), n_past=50, n_future=5)


def test_splitting_nonconvergence_detected():
    # nearly equal exponents cannot converge at a tiny tolerance
    gen = Generator.from_list([np.array([[1.001, 1.0], [0.0, 1.0]])])
    with pytest.raises((NonConvergence, BlockDegeneracy)):
        oseledets_splitting(gen, None, const_window(40, 20), n_past=40,
                            n_future=20, gap_tolerance=1e-5,
                            convergence_tolerance=1e-12)


def test_splitting_reproducible_bit_for_bit():
    rng = np.random.default_rng(14)
    gen = Generator.from_list([rng.uniform(0.5, 2.0, size=(2, 2)) for _ in range(2)])
    drv = DrivingSystem.iid([0.5, 0.5], seed=15)
    rep1 = oseledets_splitting(gen, drv, n_past=100, n_future=30)
    rep2 = oseledets_splitting(gen, drv, n_past=100, n_future=30)
    assert rep1.exponents == rep2.exponents
    for e1, e2 in zip(rep1.splitting, rep2.splitting):
        assert np.array_equal(e1.frame, e2.frame)


def test_sweep_deterministic_ordered():
    # the sweep is the splitting of sampled window i at position i, bit for bit
    rng = np.random.default_rng(16)
    gen = Generator.from_list([rng.uniform(0.5, 2.0, size=(2, 2)) for _ in range(2)])
    drv = DrivingSystem.iid([0.5, 0.5], seed=17)
    reps = sweep_reports(gen, drv, 6, n_past=80, n_future=25)
    windows = drv.sample_windows(6, 80, 25)
    assert len(reps) == len(windows)
    for rep, w in zip(reps, windows):
        ref = oseledets_splitting(gen, None, w, n_past=80, n_future=25)
        assert rep.exponents == ref.exponents
        assert rep.residuals == ref.residuals
        for e, e_ref in zip(rep.splitting, ref.splitting):
            assert np.array_equal(e.frame, e_ref.frame)
        for f, f_ref in zip(rep.filtration, ref.filtration):
            assert np.array_equal(f.frame, f_ref.frame)
    # distinct streams give distinct windows, so the order is observable
    assert len({w.past + w.future for w in windows}) == len(windows)


# -- the propagation kernel ---------------------------------------------------

def test_splitting_qr_work_count(monkeypatch):
    # one reverse pass (250 steps) and two forward pushes (201 + 100 steps)
    rng = np.random.default_rng(40)
    gen = Generator.from_list([rng.uniform(0.5, 2.0, size=(2, 2)) for _ in range(2)])
    window = DrivingSystem.iid([0.5, 0.5], seed=41).sample_window(200, 50)
    calls = []
    qr = np.linalg.qr

    def counting(*args, **kwargs):
        calls.append(1)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    oseledets_splitting(gen, None, window, n_past=200, n_future=50)
    assert len(calls) <= 560


def test_splitting_recorded_frames_match_svd(monkeypatch):
    # The reverse pass of the splitting records frames at coordinates 0, 1 and
    # -n_past/2.  The frame at coordinate c must carry the right-singular
    # directions of the exact product over [c, n_future): fast first.  A
    # strongly hyperbolic pair makes that exact to round-off within 9 steps.
    rot = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    gen = Generator.from_list([np.diag([8.0, 0.25]), rot @ np.diag([6.0, 0.5])])
    n_past, n_future = 20, 10
    window = DrivingSystem.iid([0.5, 0.5], seed=42).sample_window(n_past, n_future)
    reverse_calls = []
    propagate = cc._propagate

    def spy(*args, **kwargs):
        out = propagate(*args, **kwargs)
        if kwargs.get("reverse"):
            reverse_calls.append(out)
        return out

    monkeypatch.setattr(cc, "_propagate", spy)
    oseledets_splitting(gen, None, window, n_past=n_past, n_future=n_future)
    assert len(reverse_calls) == 1
    recorded = reverse_calls[0][2]
    for c in (0, 1, -(n_past // 2)):
        frame = recorded[n_future - c]
        _, _, vt = np.linalg.svd(compose(gen, window.shift(c), n_future - c))
        for col in range(2):
            assert gap(Subspace(frame[:, [col]]), Subspace(vt[[col]].T)) <= 1e-10


def test_kernel_modes_match_exact_products():
    # forward and reverse passes against the QR factors of the exact
    # product; rotations times mild scalings keep that product well conditioned
    rng = np.random.default_rng(44)
    gen = Generator.from_list([np.linalg.qr(rng.normal(size=(3, 3)))[0]
                               @ np.diag([1.3, 1.0, 0.8]) for _ in range(2)])
    window = DrivingSystem.iid([0.5, 0.5], seed=43).sample_window(0, 12)
    symbols = window.symbols(0, 12)
    prod = compose(gen, window, 12)
    q, steps, recorded, rs = cc._propagate(gen.stack, symbols, record={0, 12},
                                           keep_r=True)
    q_ref, r_ref = cc._qr_pos(prod)
    assert np.allclose(q, q_ref, atol=1e-10)
    assert np.allclose(steps.sum(axis=0), np.log(np.diag(r_ref)), atol=1e-10)
    r_total = np.linalg.multi_dot(rs[::-1])
    assert np.allclose(r_total, r_ref, atol=1e-10)
    assert np.array_equal(recorded[0], np.eye(3)) and recorded[12] is q
    q_rev, steps_rev, _, _ = cc._propagate(gen.stack, symbols, reverse=True)
    q_ref, r_ref = cc._qr_pos(prod.T)
    assert np.allclose(q_rev, q_ref, atol=1e-10)
    assert np.allclose(steps_rev.sum(axis=0), np.log(np.diag(r_ref)), atol=1e-10)


def test_window_symbols_match_coordinates():
    w = OmegaWindow(past=(1, 2, 0), future=(2, 1))
    assert w.symbols(-3, 2).tolist() == [w.symbol(i) for i in range(-3, 2)]
    assert w.symbols(-2, 0).tolist() == [2, 1]
    assert w.symbols(1, 2).tolist() == [1]
    assert w.symbols(0, 0).tolist() == []
    with pytest.raises(WindowTooShort):
        w.symbols(-4, 0)
    with pytest.raises(WindowTooShort):
        w.symbols(0, 3)


# -- growth and decay diagnostics ---------------------------------------------

def test_uniform_growth_one_dimensional():
    w = const_window(0, 100)
    lo, hi = uniform_growth_check(TRIANGULAR, None, w, Subspace.span([1.0, 0.0]), 100)
    assert lo == hi


def test_uniform_growth_conformal_block_exact():
    gen = Generator.from_list([np.diag([2.0, 2.0, 0.5])])
    w = const_window(0, 100)
    lo, hi = uniform_growth_check(gen, None, w,
                                  Subspace.span([1.0, 0, 0], [0, 1.0, 0]), 100)
    assert lo == pytest.approx(LOG2, abs=1e-12)
    assert hi == pytest.approx(LOG2, abs=1e-12)


def test_uniform_growth_random_conformal_cocycle():
    # scaled rotations on the top block keep both extreme rates equal
    rng = np.random.default_rng(18)
    mats = []
    for _ in range(2):
        c = rng.uniform(1.2, 2.0)
        phi = rng.uniform(0, 2 * np.pi)
        rot = c * np.array([[np.cos(phi), -np.sin(phi)],
                            [np.sin(phi), np.cos(phi)]])
        mats.append(np.block([[rot, np.zeros((2, 1))],
                              [np.zeros((1, 2)), np.array([[0.3]])]]))
    gen = Generator.from_list(mats)
    drv = DrivingSystem.iid([0.5, 0.5], seed=19)
    w = drv.sample_window(0, 10_000)
    lo, hi = uniform_growth_check(gen, None, w,
                                  Subspace.span([1.0, 0, 0], [0, 1.0, 0]), 10_000)
    assert hi - lo <= 5e-2


def test_backward_decay_constant_diagonal():
    w = const_window(1100, 60)
    rep = oseledets_splitting(DIAG, None, w, n_past=200, n_future=50)
    rate1 = backward_decay_check(DIAG, None, w, rep, 1, 1000)
    rate2 = backward_decay_check(DIAG, None, w, rep, 2, 1000)
    assert rate1 == pytest.approx(-LOG2, abs=1e-10)
    assert rate2 == pytest.approx(LOG2, abs=1e-10)


def test_backward_decay_random_mix():
    gen = Generator.from_list([np.diag([3.0, 1 / 3]), np.diag([2.0, 0.5])])
    drv = DrivingSystem.iid([0.5, 0.5], seed=20)
    w = drv.sample_window(2300, 60)
    rep = oseledets_splitting(gen, None, w, n_past=250, n_future=50)
    rate = backward_decay_check(gen, None, w, rep, 1, 2000)
    assert rate == pytest.approx(-rep.exponents[0], abs=5e-2)


def test_backward_decay_restricted_singular():
    # a merged block whose one-step restrictions have huge condition number
    gen = Generator.from_list([np.diag([1e7, 1e-7]), np.diag([1e-7, 1e7])])
    drv = DrivingSystem.iid([0.5, 0.5], seed=33)
    w = drv.sample_window(600, 60)
    rep = oseledets_splitting(gen, None, w, n_past=200, n_future=50,
                              gap_tolerance=1.0, check_convergence=False)
    assert rep.multiplicities == (2,)
    with pytest.raises(RestrictedSingular):
        backward_decay_check(gen, None, w, rep, 1, 300)


def test_uniqueness_diagnostic_rejects_non_complementary():
    w = const_window(300, 120)
    rep = oseledets_splitting(DIAG, None, w, n_past=200, n_future=50)
    inside_slow = Subspace.span([0.0, 1.0])  # lies in the slow filtration space
    with pytest.raises(NotComplementary):
        uniqueness_diagnostic(DIAG, None, w, inside_slow, rep, 1, 10)


def test_splitting_blocks_transverse_to_filtration():
    rng = np.random.default_rng(26)
    gen = Generator.from_list([np.diag(rng.uniform(0.5, 4.0, size=4))
                               for _ in range(2)])
    drv = DrivingSystem.iid([0.5, 0.5], seed=27)
    rep = oseledets_splitting(gen, drv, n_past=150, n_future=40)
    # each block meets the next filtration space only at zero
    for i, e in enumerate(rep.splitting):
        if i < len(rep.filtration):
            concat = np.hstack([e.frame, rep.filtration[i].frame])
            sv = np.linalg.svd(concat, compute_uv=False)
            if concat.shape[1] <= concat.shape[0]:
                assert sv[-1] > 1e-6


def test_uniqueness_diagnostic_own_block_is_zero():
    w = const_window(300, 120)
    rep = oseledets_splitting(DIAG, None, w, n_past=200, n_future=50)
    series = uniqueness_diagnostic(DIAG, None, w, rep.splitting[0], rep, 1, 25)
    assert np.all(series >= 0.0)
    assert np.max(series) <= 1e-8


def test_uniqueness_diagnostic_tilted_candidate_decay_rate():
    w = const_window(300, 120)
    rep = oseledets_splitting(DIAG, None, w, n_past=200, n_future=50)
    tilted = Subspace.span([1.0, 0.4])
    series = uniqueness_diagnostic(DIAG, None, w, tilted, rep, 1, 25)
    mask = series > 1e-13
    slope = np.polyfit(np.arange(26)[mask], np.log(series[mask]), 1)[0]
    expected = -(rep.exponents[0] - rep.exponents[1])
    assert slope == pytest.approx(expected, rel=0.10)


# -- the non-invertible-base demonstration -------------------------------------

def test_demo_commuting_pair_constant_top_space():
    drv = DrivingSystem.iid([0.5, 0.5], seed=21)
    pasts = drv.sample_past_variants(10, 100, 20)
    demo = noncommuting_base_demo(np.diag([2.0, 0.5]), np.diag([3.0, 1 / 3]), pasts)
    assert demo.max_gap <= 1e-8


def test_demo_noncommuting_pair_depends_on_past():
    drv = DrivingSystem.iid([0.5, 0.5], seed=22)
    pasts = drv.sample_past_variants(50, 100, 20)
    a0 = np.diag([3.0, 1 / 3])
    a1 = np.array([[0.0, 1 / 3], [3.0, 0.0]])
    demo = noncommuting_base_demo(a0, a1, pasts)
    assert demo.commutator_norm > 1e-8
    assert demo.max_gap > 0.1


def test_demo_past_length_convergence_for_separated_pair():
    # a non-commuting pair with genuinely distinct exponents: the top-space
    # estimate is Cauchy in the past length
    a0 = np.diag([3.0, 1 / 3])
    a1 = np.array([[3.0, 1.0], [0.0, 1 / 3]])
    gen = Generator.from_list([a0, a1])
    drv = DrivingSystem.iid([0.5, 0.5], seed=23)
    w = drv.sample_window(220, 30)
    short = oseledets_splitting(gen, None, w, n_past=100, n_future=30)
    long = oseledets_splitting(gen, None, w, n_past=200, n_future=30)
    assert gap(short.splitting[0], long.splitting[0]) <= 1e-6


def test_demo_equal_exponents_raises():
    drv = DrivingSystem.iid([0.5, 0.5], seed=24)
    pasts = drv.sample_past_variants(5, 50, 10)
    with pytest.raises(EqualExponents):
        noncommuting_base_demo(np.eye(2), 2.0 * np.eye(2) @ np.eye(2), pasts)


# -- driving -----------------------------------------------------------------

def test_markov_driving_stationary_validated():
    drv = DrivingSystem.markov([[0.9, 0.1], [0.2, 0.8]], seed=25)
    pi = np.asarray(drv.probs)
    t = np.asarray(drv.transition)
    assert np.max(np.abs(pi @ t - pi)) <= 1e-10
    w = drv.sample_window(5, 5)
    assert w.n_past == 5 and w.n_future == 5


def test_bad_driving_rejected():
    with pytest.raises(ValueError):
        DrivingSystem.iid([0.5, 0.6], seed=1)
    with pytest.raises(ValueError):
        DrivingSystem(alphabet_size=2, law="markov", probs=(0.9, 0.1),
                      transition=((0.5, 0.5), (0.5, 0.5)), seed=1)


def _choice_path(drv, length, rng):
    """Reference sampler: one Generator.choice call per step."""
    path = np.empty(length, dtype=np.int64)
    for j in range(length):
        p = drv.probs if j == 0 or drv.law == "iid" else drv.transition[path[j - 1]]
        path[j] = rng.choice(drv.alphabet_size, p=np.asarray(p))
    return path


@pytest.mark.parametrize("drv", [
    DrivingSystem.iid([0.1, 0.2, 0.3, 0.4], seed=26),
    DrivingSystem.markov([[0.6, 0.3, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]], seed=27),
], ids=["iid", "markov"])
def test_sampler_matches_per_step_choice(drv):
    for length in (0, 1, 7, 5000):
        for stream in (0, 3):
            want = _choice_path(drv, length, drv.rng(stream)).tolist()
            assert drv.sample_window(0, length, stream).future == tuple(want)
            split = drv.sample_window(length // 2, length - length // 2, stream)
            assert split.past[::-1] + split.future == tuple(want)
