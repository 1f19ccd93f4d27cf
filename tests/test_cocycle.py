import bisect
import warnings
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    uniform_growth_check,
    uniqueness_diagnostic,
)
from oseledets.errors import (
    BlockDegeneracy,
    DegenerateSum,
    DimensionMismatch,
    EqualExponents,
    NonConvergence,
    NotComplementary,
    RestrictedSingular,
    WindowTooShort,
)
from oseledets.grassmann import Subspace, gap, project_off
from oseledets.interval import RandomIntervalSystem, affine_map, chi_exact, density_generator

LOG2 = np.log(2.0)

DIAG = Generator.from_list([np.diag([2.0, 0.5])])
TRIANGULAR = Generator.from_list([np.array([[2.0, 1.0], [0.0, 0.5]])])
CONST_DRIVING = DrivingSystem.iid([1.0], seed=1)


def const_window(n_past, n_future):
    return OmegaWindow(np.zeros(n_past + n_future, dtype=int), n_past)


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
    w = OmegaWindow((0, 1), 0)
    assert np.allclose(compose(gen, w, 2), a1 @ a0)


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


def test_exponents_need_a_step():
    # (1/0) log ||v|| is undefined, and n is checked before a window is drawn
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be at least 1"):
            directional_exponent(DIAG, const_window(0, 50), n, np.ones(2))
        with pytest.raises(ValueError, match="n must be at least 1"):
            lyapunov_exponents(DIAG, CONST_DRIVING, n=n)
    # the diagnostics refuse a count they cannot use before any pass
    w = const_window(300, 120)
    rep = oseledets_splitting(DIAG, None, w, n_past=200, n_future=50)
    for n in (0, -2):
        with pytest.raises(ValueError, match="n must be at least 1"):
            uniform_growth_check(DIAG, w, rep.splitting[0], n)
        with pytest.raises(ValueError, match="n must be at least 1"):
            forward_filtration(DIAG, w, n, [(LOG2, 1), (-LOG2, 1)])
    for n_past in (1, 0, -3):  # the slope fit needs two points
        with pytest.raises(ValueError, match="n_past must be at least 2"):
            backward_decay_check(DIAG, w, rep, 1, n_past)
    with pytest.raises(ValueError, match="n must be at least 0"):
        uniqueness_diagnostic(DIAG, w, rep.splitting[0], rep, 1, -1)
    assert len(uniqueness_diagnostic(DIAG, w, rep.splitting[0], rep, 1, 0)) == 1


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


def test_directional_exponent_takes_m_from_the_generator():
    # a direction of the generator's dimension runs at that dimension (m = 5
    # is the numpy Gram-Schmidt step); any other shape is refused, not padded
    # or reshaped into matrices of another size
    five = Generator.from_list([2.0 * np.eye(5)])
    e0 = np.eye(5)[0]
    assert directional_exponent(five, const_window(0, 10), 10, e0) == pytest.approx(LOG2, abs=1e-15)
    three = Generator.from_list([2.0 * np.eye(3)])
    for gen, v in [(five, [1.0, 0.0]), (three, [1.0, 0.0]), (three, [[1.0], [0.0], [0.0]]),
                   (DIAG, [1.0, 0.0, 0.0]), (DIAG, 1.0)]:
        with pytest.raises(DimensionMismatch):
            directional_exponent(gen, const_window(0, 10), 10, np.array(v))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_directional_exponent_rejects_non_finite_directions(bad):
    with pytest.raises(ValueError, match="non-finite"):
        directional_exponent(DIAG, const_window(0, 10), 10, np.array([1.0, bad]))


def test_propagate_rejects_a_frame_of_another_dimension():
    for m, q in [(5, np.eye(2, 1)), (3, np.eye(2, 1)), (2, np.eye(3, 2)), (4, np.ones(4)),
                 (64, np.eye(63, 2))]:
        with pytest.raises(DimensionMismatch):
            cc._propagate(np.eye(m)[None], np.zeros(4, dtype=int), q)


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
    assert max(rep.equivariance) <= 1e-6


@pytest.mark.parametrize("lam", [(4.0, 2.0, 2.0, 0.5), (3.0, 3.0, 1.0, 0.25, 0.25)])
def test_splitting_conjugated_diagonal_matches_eigen_oracle(lam):
    # oracle: for A = S diag(lam) S^-1, E_i is spanned by the columns of S of
    # the i-th largest eigenvalue; the repeated ones give 2-dimensional blocks,
    # one of them below a faster block
    rng = np.random.default_rng(2)
    s = np.eye(len(lam)) + 0.4 * rng.standard_normal((len(lam), len(lam)))
    gen = Generator.from_list([s @ np.diag(lam) @ np.linalg.inv(s)])
    rep = oseledets_splitting(gen, None, const_window(200, 50), n_past=200, n_future=50)
    distinct = sorted(set(lam), reverse=True)
    assert rep.multiplicities == tuple(lam.count(x) for x in distinct)
    for e, x in zip(rep.splitting, distinct):
        cols = [j for j, y in enumerate(lam) if y == x]
        assert gap(e, Subspace.from_spanning(s[:, cols])) <= 1e-10


def test_splitting_random_positive_cocycle():
    rng = np.random.default_rng(10)
    gen = Generator.from_list([rng.uniform(0.5, 2.0, size=(2, 2)) for _ in range(3)])
    drv = DrivingSystem.iid([1 / 3, 1 / 3, 1 / 3], seed=11)
    rep = oseledets_splitting(gen, drv, n_past=200, n_future=50)
    assert max(rep.equivariance) <= 1e-6
    assert rep.direct_sum_min_sv > 1e-6


def separated_cocycle(rng, m, top2):
    """Three generators O B_s O^T, O orthogonal, with exponents about 0.8
    apart.  With `top2`, B_s maps the first coordinate plane to itself by 2
    times a rotation: an exactly conformal top block of multiplicity 2."""
    o = np.linalg.qr(rng.normal(size=(m, m)))[0]
    mats = []
    for _ in range(3):
        b = np.diag(np.exp(-0.8 * np.arange(m))) @ (np.eye(m) + 0.1 * rng.normal(size=(m, m)))
        if top2:
            a = rng.uniform(0.0, 2 * np.pi)
            b[:, :2] = 0.0
            b[:2, :2] = 2.0 * np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        mats.append(o @ b @ o.T)
    return Generator.from_list(mats)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=8),
       st.booleans(), st.booleans())
@settings(max_examples=15, deadline=None)
def test_top_block_splitting_matches_full_width(seed, m, top2, markov):
    rng = np.random.default_rng(seed)
    gen = separated_cocycle(rng, m, top2)
    if markov:
        t = rng.uniform(0.2, 1.0, size=(3, 3))
        drv = DrivingSystem.markov(t / t.sum(axis=1, keepdims=True), seed=seed)
    else:
        drv = DrivingSystem.iid([1 / 3] * 3, seed=seed)
    window = drv.sample_window(200, 50)
    # blocks=m is a full-width pass from the same (square) start frame, whose
    # columns nest those of every narrower pass; the default pass starts from
    # the coordinate axes, so it agrees only up to the start-frame transient
    # of the rate and splitting estimates (measured over 300 such cocycles:
    # 2.4e-8 in the exponents and 1.6e-10 in the subspaces)
    default = oseledets_splitting(gen, None, window, n_past=200, n_future=50)
    full = oseledets_splitting(gen, None, window, n_past=200, n_future=50, blocks=m)
    assert full.multiplicities == default.multiplicities
    assert full.multiplicities[0] == (2 if top2 else 1)
    assert np.max(np.abs(np.subtract(full.exponents, default.exponents))) <= 1e-6
    assert max(gap(a, b) for a, b in zip(full.splitting, default.splitting)) <= 1e-8
    for p in range(1, full.p + 1):
        top = oseledets_splitting(gen, None, window, n_past=200, n_future=50, blocks=p)
        c_p = full.block_ends[p - 1]
        assert top.multiplicities == full.multiplicities[:p]
        assert np.max(np.abs(np.subtract(top.exponents, full.exponents[:p]))) <= 1e-12
        assert max(gap(a, b) for a, b in zip(top.splitting, full.splitting)) <= 1e-10
        # V_2, ..., V_{p+1}; V_{p+1} is built from the complement of the fast columns
        assert len(top.filtration) == p - (c_p == m)
        assert all(gap(a, b) <= 1e-10 for a, b in zip(top.filtration, full.filtration))
        for name in ("equivariance", "uniqueness_g0", "cauchy_gap"):
            assert np.allclose(getattr(top, name), getattr(full, name)[:p], rtol=0, atol=1e-10)
        frames = [e.frame for e in full.splitting[:p]] + [v.frame for v in full.filtration[p - 1:p]]
        min_sv = np.linalg.svd(np.hstack(frames), compute_uv=False)[-1]
        assert top.direct_sum_min_sv == pytest.approx(min_sv, abs=1e-10)


def test_truncated_passes_find_a_fast_direction_off_the_first_axes():
    # the fastest direction is the last coordinate axis, which a pass started
    # from the first coordinate axes would never see
    gen = Generator.from_list([np.diag([0.5, 1.0, 0.25, 3.0])])
    window = CONST_DRIVING.sample_window(200, 50)
    top = oseledets_splitting(gen, None, window, n_past=200, n_future=50, blocks=1)
    assert top.exponents[0] == pytest.approx(np.log(3.0), abs=1e-12)
    assert gap(top.splitting[0], Subspace(np.eye(4)[:, 3:])) <= 1e-12


def test_top_block_splitting_widens_past_a_multiple_block(monkeypatch):
    # the top block has multiplicity 2, so the first p + 1 tracked columns
    # cannot close it (p = 1), nor block 2 behind it (p = 2)
    gen = separated_cocycle(np.random.default_rng(3), 6, top2=True)
    window = DrivingSystem.iid([1 / 3] * 3, seed=4).sample_window(200, 50)
    full = oseledets_splitting(gen, None, window, n_past=200, n_future=50)
    propagate, widths = cc._propagate, []

    def spy(mats, symbols, q=None, **kwargs):
        if kwargs.get("reverse"):
            widths.append(q.shape[1])
        return propagate(mats, symbols, q, **kwargs)

    monkeypatch.setattr(cc, "_propagate", spy)
    for p, expected in ((1, [2, 4]), (2, [3, 6])):
        widths.clear()
        top = oseledets_splitting(gen, None, window, n_past=200, n_future=50, blocks=p)
        assert widths == expected
        assert top.multiplicities == full.multiplicities[:p] and top.multiplicities[0] == 2
        assert max(gap(a, b) for a, b in zip(top.splitting, full.splitting)) <= 1e-10
    with pytest.raises(ValueError):
        oseledets_splitting(gen, None, window, n_past=200, n_future=50, blocks=0)


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


# each entry point on a window one symbol short; `rep` is a splitting of DIAG
# with n_past = 20 and n_used = 5
SHORT_WINDOW_CALLS = {
    "compose": lambda rep: compose(DIAG, const_window(0, 4), 5),
    "lyapunov_exponents": lambda rep: lyapunov_exponents(DIAG, n=5, window=const_window(0, 4)),
    "forward_filtration": lambda rep: forward_filtration(
        DIAG, const_window(0, 4), 5, [(LOG2, 1), (-LOG2, 1)]),
    "oseledets_splitting-past": lambda rep: oseledets_splitting(
        DIAG, None, const_window(49, 5), n_past=50, n_future=5),
    "oseledets_splitting-future": lambda rep: oseledets_splitting(
        DIAG, None, const_window(50, 4), n_past=50, n_future=5),
    "uniform_growth_check": lambda rep: uniform_growth_check(
        DIAG, const_window(0, 4), Subspace(np.eye(2)[:, :1]), 5),
    # needs n_past + 50 past symbols
    "backward_decay_check": lambda rep: backward_decay_check(
        DIAG, const_window(69, 5), rep, 1, 20),
    # needs n + n_used future symbols
    "uniqueness_diagnostic": lambda rep: uniqueness_diagnostic(
        DIAG, const_window(20, 9), rep.splitting[0], rep, 1, 5),
}


@pytest.mark.parametrize("call", SHORT_WINDOW_CALLS.values(), ids=SHORT_WINDOW_CALLS.keys())
def test_splitting_window_too_short(call):
    rep = oseledets_splitting(DIAG, None, const_window(20, 10), n_past=20, n_future=5)
    with pytest.raises(WindowTooShort):
        call(rep)


def test_splitting_rejects_a_past_too_short_for_the_cauchy_check():
    # the Cauchy gaps compare against half the past, so every report needs
    # n_past >= 2 and carries one gap per block
    with pytest.raises(ValueError, match="n_past"):
        oseledets_splitting(DIAG, None, const_window(10, 10), n_past=1, n_future=5)
    rep = oseledets_splitting(DIAG, None, const_window(10, 10), n_past=2, n_future=5)
    assert len(rep.cauchy_gap) == rep.p


def test_splitting_rejects_start_without_blocks():
    # the default pass starts from the coordinate axes, so a start frame
    # would be ignored
    with pytest.raises(ValueError, match="start"):
        oseledets_splitting(DIAG, None, const_window(20, 10), n_past=20, n_future=5,
                            start=np.ones((2, 1)))


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
    q, steps, recorded = cc._propagate(gen.stack, symbols, record=range(13))
    q_ref, r_ref = cc._qr_pos(prod)
    assert np.allclose(q, q_ref, atol=1e-10)
    assert np.allclose(steps.sum(axis=0), np.log(np.diag(r_ref)), atol=1e-10)
    r_total = np.linalg.multi_dot(list(cc._step_factors(gen.stack, symbols, np.eye(3))[1])[::-1])
    assert np.allclose(r_total, r_ref, atol=1e-10)
    assert np.array_equal(recorded[0], np.eye(3)) and recorded[12] is q
    q_rev, steps_rev, _ = cc._propagate(gen.stack, symbols, reverse=True)
    q_ref, r_ref = cc._qr_pos(prod.T)
    assert np.allclose(q_rev, q_ref, atol=1e-10)
    assert np.allclose(steps_rev.sum(axis=0), np.log(np.diag(r_ref)), atol=1e-10)


def reference_propagate(mats, symbols, q, reverse=False, qr_pos=cc._qr_pos):
    """The numpy QR loop, one `_qr_pos` call per step; records every step."""
    if reverse:
        mats, symbols = mats.transpose(0, 2, 1), symbols[::-1]
    steps, recorded, rs = [], {0: q}, []
    for t, s in enumerate(symbols.tolist(), 1):
        q, r = qr_pos(mats[s] @ q)
        with np.errstate(divide="ignore"):
            steps.append(np.log(np.abs(np.diag(r))))
        recorded[t] = q
        rs.append(r)
    return q, np.reshape(steps, (len(symbols), q.shape[1])), recorded, rs


def assert_matches_reference(mats, symbols, q0, reverse, qr_pos=cc._qr_pos):
    n = len(symbols)
    record = {0, n // 3, n}
    q, steps, recorded = cc._propagate(mats, symbols, q0, reverse=reverse, record=record)
    q_ref, steps_ref, rec_ref, rs_ref = reference_propagate(mats, symbols, q0, reverse, qr_pos)
    assert steps.shape == steps_ref.shape and q.shape == q_ref.shape
    assert np.array_equal(np.isneginf(steps), np.isneginf(steps_ref))
    finite = np.isfinite(steps_ref)
    assert np.max(np.abs(steps[finite] - steps_ref[finite]), initial=0.0) <= 1e-13
    assert set(recorded) == record and recorded[n] is q and recorded[0] is q0
    for t in record:
        assert np.max(np.abs(recorded[t] - rec_ref[t]), initial=0.0) <= 1e-13
    # the R factors rebuilt from the frames of every step: upper triangular
    # with a positive diagonal where the reference's is positive, each within
    # round-off of the reference, and with the same running product
    # (a reverse pass is the forward pass of the transposed factors in
    # reverse symbol order)
    if reverse:
        mats, symbols = mats.transpose(0, 2, 1), symbols[::-1]
    q_last, rs = cc._step_factors(mats, symbols, q0)
    assert np.array_equal(q_last, q)
    assert len(rs) == n
    prod, prod_ref = np.eye(q0.shape[1]), np.eye(q0.shape[1])
    for r, r_ref in zip(rs, rs_ref):
        assert np.array_equal(np.tril(r, -1), np.zeros_like(r))
        assert np.array_equal(np.diag(r) > 0, np.diag(r_ref) > 0)
        assert np.max(np.abs(r - r_ref), initial=0.0) <= 1e-13 * max(1.0, np.abs(r_ref).max())
        prod, prod_ref = r @ prod, r_ref @ prod_ref
        scale = max(1.0, np.abs(prod_ref).max())
        assert np.max(np.abs(prod - prod_ref), initial=0.0) <= 1e-12 * scale
        prod, prod_ref = prod / scale, prod_ref / scale


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
@pytest.mark.parametrize("m, k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
                                  (4, 1), (4, 3), (8, 2), (64, 1), (64, 2), (64, 3),
                                  (4, 4), (5, 4), (9, 9), (17, 8)])
@pytest.mark.parametrize("reverse", [False, True])
def test_scalar_kernel_matches_numpy_loop(m, k, reverse, seed):
    # random cocycles on m <= 3 (the Python-float path), on frames of at most
    # 3 columns for m > 3 (the numpy Gram-Schmidt path) and on wider frames
    # (the QR step) against the loop:
    # rotations times scalings in [0.5, 2], so each step has condition number
    # at most 4 and one step agrees with the loop to round-off.  Each step
    # starts from the loop's own frame: two 40-step trajectories drift apart
    # by up to 8e-13, past the 1e-13 bound, while single steps agree to 1.6e-15
    rng = np.random.default_rng(seed)
    mats = np.stack([np.linalg.qr(rng.normal(size=(m, m)))[0] * rng.uniform(0.5, 2.0, size=m)
                     for _ in range(3)])
    symbols = rng.integers(0, 3, size=40)
    q0 = np.linalg.qr(rng.normal(size=(m, m)))[0][:, :k]
    _, steps_ref, rec_ref, _ = reference_propagate(mats, symbols, q0, reverse)
    order = symbols[::-1] if reverse else symbols
    for t in range(1, len(symbols) + 1):
        q, steps, _ = cc._propagate(mats, order[t - 1:t], rec_ref[t - 1], reverse=reverse)
        assert np.max(np.abs(steps[0] - steps_ref[t - 1])) <= 1e-13
        assert np.max(np.abs(q - rec_ref[t])) <= 1e-13


@pytest.mark.parametrize("diags", [
    [(2.0, 0.0, 0.5), (0.0, 3.0, 1.0), (1.5, 0.25, 0.0)],
    [(2.0, 0.0), (0.0, 0.5)],
    [(0.0,), (2.0,)],
])
@pytest.mark.parametrize("reverse", [False, True])
def test_scalar_kernel_keeps_exact_zero_pivots(diags, reverse):
    # diagonal generators with exact zeros give -inf steps exactly where the
    # numpy loop does, for full and truncated frames
    mats = np.stack([np.diag(d) for d in diags])
    symbols = DrivingSystem.iid([1 / len(diags)] * len(diags), seed=9).sample_window(0, 30).future
    m = mats.shape[1]
    assert np.isneginf(cc._propagate(mats, symbols, reverse=reverse)[1]).any()
    for k in range(1, m + 1):
        assert_matches_reference(mats, symbols, np.eye(m, k), reverse)


def count_qr_pos_calls(monkeypatch):
    qr_pos, calls = cc._qr_pos, []

    def counting(y):
        calls.append(1)
        return qr_pos(y)

    monkeypatch.setattr(cc, "_qr_pos", counting)
    return calls


@pytest.mark.parametrize("reverse", [False, True])
def test_scalar_kernel_falls_back_on_zero_pivot(monkeypatch, reverse):
    # a rank-deficient, non-diagonal 3x3 generator: its third column is
    # exactly zero, so each of its steps has an exact zero pivot and is redone
    # by `_qr_pos`; the other generator's steps stay on the scalar path
    qr_pos = cc._qr_pos
    calls = count_qr_pos_calls(monkeypatch)
    singular = np.array([[1.0, 2.0, 0.0], [-0.5, 1.5, 0.0], [0.0, 0.0, 0.0]])
    regular = np.array([[0.5, -1.0, 0.0], [2.0, 0.3, 0.0], [0.0, 0.0, 2.0]])
    mats = np.stack([singular, regular])
    symbols = DrivingSystem.iid([0.5, 0.5], seed=12).sample_window(0, 40).future
    _, steps, _ = cc._propagate(mats, symbols, reverse=reverse)
    assert len(calls) == np.count_nonzero(symbols == 0) > 0
    assert np.array_equal(np.isneginf(steps[:, 2]), (symbols[::-1] if reverse else symbols) == 0)
    assert_matches_reference(mats, symbols, np.eye(3), reverse, qr_pos)


def test_scalar_kernel_falls_back_on_cancelled_column(monkeypatch):
    # a conjugated singular generator whose determinant rounds to -1.4e-15:
    # the full frame carries two columns and closes the third by the
    # determinant, so no column cancels and no step is redone; the third rate
    # is round-off and the frames stay orthonormal
    s = np.eye(3) + 0.4 * np.random.default_rng(0).normal(size=(3, 3))
    mats = (s @ np.diag([3.0, 1.0, 0.0]) @ np.linalg.inv(s))[None]
    calls = count_qr_pos_calls(monkeypatch)
    q, steps, _ = cc._propagate(mats, np.zeros(30, dtype=int))
    assert len(calls) == 0
    assert np.max(np.abs(q.T @ q - np.eye(3))) <= 1e-14
    assert np.all(steps[:, 2] < np.log(1e-10) + steps[:, 0])


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("reverse", [False, True])
def test_scalar_kernel_full_frame_rows_sum_to_log_det(m, reverse):
    # a full frame closes its last rate by the determinant, so each step's
    # rates add up to log|det A_s|: on generic generators, and on block
    # generators diag(B_s, d_s) with d = 0 for one of them, where the rows
    # hold -inf exactly where det A_s = 0 (the frames keep e_m invariant, so
    # `_qr_pos` meets an exact zero pivot)
    rng = np.random.default_rng(m)
    generic = rng.normal(size=(3, m, m))
    blocks = np.zeros((3, m, m))
    blocks[:, :-1, :-1] = rng.normal(size=(3, m - 1, m - 1))
    blocks[:, -1, -1] = [1.5, -0.7, 0.0]
    q_block = np.eye(m)
    q_block[:-1, :-1] = np.linalg.qr(rng.normal(size=(m - 1, m - 1)))[0]
    symbols = rng.integers(0, 3, size=60)
    for mats, q0 in [(generic, np.linalg.qr(rng.normal(size=(m, m)))[0]), (blocks, q_block)]:
        _, steps, _ = cc._propagate(mats, symbols, q0, reverse=reverse)
        with np.errstate(divide="ignore"):
            want = np.log(np.abs(np.linalg.det(mats)))[symbols[::-1] if reverse else symbols]
        assert np.array_equal(np.isneginf(steps).any(axis=1), np.isneginf(want))
        finite = np.isfinite(want)
        assert np.max(np.abs(steps[finite].sum(axis=1) - want[finite])) <= 1e-13
        assert_matches_reference(mats, symbols, q0, reverse)
    assert not finite.all()


@pytest.mark.parametrize("reverse", [False, True])
def test_scalar_kernel_redoes_rank_one_steps(monkeypatch, reverse):
    # a rank-one 3x3 generator: the carried second column cancels on every
    # step, so every step is redone by `_qr_pos` on the whole frame, and rates
    # and frames equal the reference loop's bit for bit.  (R factors rebuilt
    # from the frames, as `assert_matches_reference` checks them, carry
    # round-off diagonals of either sign on rank-deficient steps.)
    calls = count_qr_pos_calls(monkeypatch)
    rng = np.random.default_rng(5)
    mats = np.outer(rng.normal(size=3), rng.normal(size=3))[None]
    symbols = np.zeros(30, dtype=int)
    q0 = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    q, steps, recorded = cc._propagate(mats, symbols, q0, reverse=reverse, record=range(31))
    assert len(calls) == 30
    q_ref, steps_ref, rec_ref, _ = reference_propagate(mats, symbols, q0, reverse)
    assert np.array_equal(steps, steps_ref) and np.array_equal(q, q_ref)
    assert all(np.array_equal(recorded[t], rec_ref[t]) for t in range(31))
    assert np.all(steps[:, 1:] < np.log(1e-10) + steps[:, :1])


def test_scalar_kernel_orthonormal_on_ill_conditioned_steps():
    # two columns of the generator are 1e-7 apart, so Gram-Schmidt cancels
    # one of them to 1e-7 of its length (above the fallback threshold); the
    # second pass keeps the frames orthonormal to round-off (one pass: 5e-9)
    rng = np.random.default_rng(1)
    for _ in range(10):
        rot, turn = (np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2))
        near = rot @ np.array([[1.0, 1.0, 0.0], [0.0, 1e-7, 0.0], [0.0, 0.0, 1.0]]) @ rot.T
        symbols = rng.integers(0, 2, size=30)
        for k in (2, 3):
            q = cc._propagate(np.stack([near, turn]), symbols, np.eye(3, k))[0]
            assert np.max(np.abs(q.T @ q - np.eye(k))) <= 1e-15


@pytest.mark.parametrize("reverse", [False, True])
def test_narrow_kernel_falls_back_on_zero_pivot(monkeypatch, reverse):
    # the generators of `test_scalar_kernel_falls_back_on_zero_pivot` next to
    # a full 2x2 block at m = 5: on span(e0, e1, e2) the singular generator's
    # third column is exactly zero, so each of its steps with that 3-column
    # frame has an exact zero pivot and is redone by `_qr_pos`
    qr_pos = cc._qr_pos
    calls = count_qr_pos_calls(monkeypatch)
    lower = np.array([[0.7, -1.2], [0.4, 1.1]])
    singular = np.zeros((5, 5))
    singular[:3, :3] = [[1.0, 2.0, 0.0], [-0.5, 1.5, 0.0], [0.0, 0.0, 0.0]]
    regular = np.zeros((5, 5))
    regular[:3, :3] = [[0.5, -1.0, 0.0], [2.0, 0.3, 0.0], [0.0, 0.0, 2.0]]
    singular[3:, 3:] = regular[3:, 3:] = lower
    mats = np.stack([singular, regular])
    symbols = DrivingSystem.iid([0.5, 0.5], seed=12).sample_window(0, 40).future
    _, steps, _ = cc._propagate(mats, symbols, np.eye(5, 3), reverse=reverse)
    assert len(calls) == np.count_nonzero(symbols == 0) > 0
    assert np.array_equal(np.isneginf(steps[:, 2]), (symbols[::-1] if reverse else symbols) == 0)
    # frames of 4 and 5 columns take the QR step on every step
    for q0 in (np.eye(5, 3), np.eye(5)[:, [2]], np.eye(5)[:, [2, 3]], np.eye(5, 4), np.eye(5)):
        assert_matches_reference(mats, symbols, q0, reverse, qr_pos)


def test_narrow_kernel_falls_back_on_cancelled_column(monkeypatch):
    # conjugated singular generators at m = 5 on 3-column frames.  S diag(5,
    # 2, 0, 0, 0.3) S^-1 has rank 3: after one step the frame spans its range
    # and no column cancels.  S diag(5, 2, 0, 0, 0) S^-1 has rank 2:
    # Gram-Schmidt cancels the third column of every step to round-off, so
    # every step is redone by `_qr_pos`.  The frames stay orthonormal.
    s = np.eye(5) + 0.4 * np.random.default_rng(0).normal(size=(5, 5))
    calls = count_qr_pos_calls(monkeypatch)
    for last, redone in [(0.3, 0), (0.0, 30)]:
        calls.clear()
        mats = (s @ np.diag([5.0, 2.0, 0.0, 0.0, last]) @ np.linalg.inv(s))[None]
        q, steps, _ = cc._propagate(mats, np.zeros(30, dtype=int), np.eye(5, 3))
        assert len(calls) == redone
        assert np.max(np.abs(q.T @ q - np.eye(3))) <= 1e-14
    # the rank-2 generator's third rate is round-off
    assert np.all(steps[:, 2] < np.log(1e-10) + steps[:, 0])


@pytest.mark.parametrize("m", [6, 64])
def test_narrow_kernel_orthonormal_on_ill_conditioned_steps(monkeypatch, m):
    # every column of the generator is within 1e-7 of one direction, so
    # Gram-Schmidt cancels the second and third columns of its steps to 5e-8
    # to 2e-5 of their length (above the fallback threshold, so no step is
    # redone); the second pass keeps the frames orthonormal to round-off
    rng = np.random.default_rng(1)
    calls = count_qr_pos_calls(monkeypatch)
    for _ in range(10):
        rot, turn = (np.linalg.qr(rng.normal(size=(m, m)))[0] for _ in range(2))
        near = rot @ (np.outer(np.eye(m)[0], np.ones(m)) + 1e-7 * np.eye(m)) @ rot.T
        symbols = rng.integers(0, 2, size=30)
        for k in (2, 3):
            q = cc._propagate(np.stack([near, turn]), symbols, np.eye(m, k))[0]
            assert np.max(np.abs(q.T @ q - np.eye(k))) <= 1e-15
    assert not calls


def test_mean_rates_blocks_keep_the_step_order_sum():
    # the blocked sum equals the one-pass step-order sum bit for bit, across
    # block boundaries, -inf rates and burn-ins beyond the steps
    rng = np.random.default_rng(3)
    for n in (0, 1, cc.CHUNK - 1, cc.CHUNK, cc.CHUNK + 1, 2 * cc.CHUNK + 100):
        steps = 10 * rng.normal(size=(n, 3))
        steps[n // 2:n // 2 + 1, 2] = -np.inf
        for burn in (0, 1, 100, n, n + 5):
            kept = steps[burn:]
            want = np.cumsum(kept, axis=0)[-1] / len(kept) if len(kept) else np.zeros(3)
            assert np.array_equal(cc._mean_rates(steps, burn), want)


def test_scalar_kernel_without_steps():
    # no symbols: the start frame comes back with an empty (0, k) step log
    q0 = np.eye(3, 2)
    mats, symbols = np.eye(3)[None], np.zeros(0, dtype=int)
    q, steps, recorded = cc._propagate(mats, symbols, q0, record={0})
    assert q is q0 and list(recorded) == [0] and recorded[0] is q0
    assert steps.shape == (0, 2) and cc._step_factors(mats, symbols, q0)[1].shape == (0, 2, 2)


def test_splitting_propagation_step_count(monkeypatch):
    # the deterministic work count of a 200/50 splitting: one reverse pass
    # (250 steps), the push from the far past (201) and the half-past push (100)
    rng = np.random.default_rng(40)
    gen = Generator.from_list([rng.uniform(0.5, 2.0, size=(2, 2)) for _ in range(2)])
    window = DrivingSystem.iid([0.5, 0.5], seed=41).sample_window(200, 50)
    propagate, steps = cc._propagate, []

    def counting(mats, symbols, *args, **kwargs):
        steps.append(len(symbols))
        return propagate(mats, symbols, *args, **kwargs)

    monkeypatch.setattr(cc, "_propagate", counting)
    oseledets_splitting(gen, None, window, n_past=200, n_future=50)
    assert sorted(steps) == [100, 201, 250]


def test_window_symbols_match_coordinates():
    w = OmegaWindow((0, 2, 1, 2, 1), 3)   # coordinates -3..1
    assert w.symbols(-3, 2).tolist() == [w.symbol(i) for i in range(-3, 2)]
    assert w.future.tolist() == [2, 1] and (w.n_past, w.n_future) == (3, 2)
    assert w.symbols(-2, 0).tolist() == [2, 1]
    assert w.symbols(1, 2).tolist() == [1]
    assert w.symbols(0, 0).tolist() == []
    with pytest.raises(WindowTooShort):
        w.symbols(-4, 0)
    with pytest.raises(WindowTooShort):
        w.symbols(0, 3)
    # symbols are read-only views, and a shift reuses the same array
    assert not w.symbols(-3, 2).flags.writeable
    for k in range(-3, 3):
        shifted = w.shift(k)
        assert np.shares_memory(shifted.seq, w.seq)
        assert [shifted.symbol(i) for i in range(-3 - k, 2 - k)] == w.symbols(-3, 2).tolist()
    with pytest.raises(WindowTooShort):
        w.shift(3)
    with pytest.raises(WindowTooShort):
        w.shift(-4)


# -- growth and decay diagnostics ---------------------------------------------

def test_uniform_growth_one_dimensional():
    w = const_window(0, 100)
    lo, hi = uniform_growth_check(TRIANGULAR, w, Subspace.span([1.0, 0.0]), 100)
    assert lo == hi


def test_uniform_growth_conformal_block_exact():
    gen = Generator.from_list([np.diag([2.0, 2.0, 0.5])])
    w = const_window(0, 100)
    lo, hi = uniform_growth_check(gen, w,
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
    lo, hi = uniform_growth_check(gen, w,
                                  Subspace.span([1.0, 0, 0], [0, 1.0, 0]), 10_000)
    assert hi - lo <= 5e-2


def test_uniform_growth_separated_rates_not_conformal():
    # positive generators: two distinct rates on span(e1, e2).  Rounding
    # below the diagonal of the one-step factors, carried through 10 000
    # steps, would bring the smallest rate up to the largest (lo = 1.2990
    # against hi = 1.3069)
    rng = np.random.default_rng(1)
    gen = Generator.from_list([rng.uniform(0.5, 2.0, size=(3, 3)) for _ in range(2)])
    w = DrivingSystem.iid([0.5, 0.5], seed=21).sample_window(0, 10_000)
    lo, hi = uniform_growth_check(gen, w, Subspace.span([1.0, 0, 0], [0, 1.0, 0]), 10_000)
    assert lo < hi - 1
    # the smallest singular value of the restricted product does not
    # underflow: lo is the second exponent of the cocycle on this window
    exps = lyapunov_exponents(gen, window=w, n=10_000)
    assert lo == pytest.approx(exps[1][0], abs=1e-2)


def test_backward_decay_constant_diagonal():
    w = const_window(1100, 60)
    rep = oseledets_splitting(DIAG, None, w, n_past=200, n_future=50)
    rate1 = backward_decay_check(DIAG, w, rep, 1, 1000)
    rate2 = backward_decay_check(DIAG, w, rep, 2, 1000)
    assert rate1 == pytest.approx(-LOG2, abs=1e-10)
    assert rate2 == pytest.approx(LOG2, abs=1e-10)


def test_backward_decay_random_mix():
    gen = Generator.from_list([np.diag([3.0, 1 / 3]), np.diag([2.0, 0.5])])
    drv = DrivingSystem.iid([0.5, 0.5], seed=20)
    w = drv.sample_window(2300, 60)
    rep = oseledets_splitting(gen, None, w, n_past=250, n_future=50)
    rate = backward_decay_check(gen, w, rep, 1, 2000)
    assert rate == pytest.approx(-rep.exponents[0], abs=5e-2)


def test_backward_decay_restricted_singular():
    # a merged block whose one-step restrictions have huge condition number
    gen = Generator.from_list([np.diag([1e7, 1e-7]), np.diag([1e-7, 1e7])])
    drv = DrivingSystem.iid([0.5, 0.5], seed=33)
    w = drv.sample_window(600, 60)
    rep = oseledets_splitting(gen, None, w, n_past=200, n_future=50,
                              gap_tolerance=1.0)
    assert rep.multiplicities == (2,)
    with pytest.raises(RestrictedSingular):
        backward_decay_check(gen, w, rep, 1, 300)


def test_uniqueness_diagnostic_rejects_non_complementary():
    w = const_window(300, 120)
    rep = oseledets_splitting(DIAG, None, w, n_past=200, n_future=50)
    inside_slow = Subspace.span([0.0, 1.0])  # lies in the slow filtration space
    with pytest.raises(NotComplementary):
        uniqueness_diagnostic(DIAG, w, inside_slow, rep, 1, 10)


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
    series = uniqueness_diagnostic(DIAG, w, rep.splitting[0], rep, 1, 25)
    assert np.all(series >= 0.0)
    assert np.max(series) <= 1e-8


@pytest.mark.parametrize("i", [1, 2])
def test_uniqueness_diagnostic_pushes_only_the_columns_it_reads(monkeypatch, i):
    # the report's fast sum goes forward at width c_i, not m, and no pass
    # reads a symbol before coordinate 0: the reverse pass covers the
    # n + n_used symbols of the filtration, each push the n steps
    gen = Generator.from_list([np.diag([4.0, 2.0, 1.0, 0.5])])
    w = const_window(300, 120)
    rep = oseledets_splitting(gen, None, w, n_past=200, n_future=50)
    tilted = Subspace.span(np.eye(4)[i - 1] + 0.4 * np.eye(4)[i])
    passes, propagate = [], cc._propagate

    def spy(mats, symbols, q=None, **kwargs):
        passes.append((kwargs.get("reverse", False), len(mats[0]) if q is None else q.shape[1],
                       len(symbols)))
        return propagate(mats, symbols, q, **kwargs)

    monkeypatch.setattr(cc, "_propagate", spy)
    series = uniqueness_diagnostic(gen, w, tilted, rep, i, 25)
    assert passes == [(True, 4, 25 + 50), (False, rep.block_ends[i - 1], 25), (False, 1, 25)]
    assert series[0] > 0.1 and series[-1] < 1e-5


def test_uniqueness_diagnostic_reads_no_past():
    # a window with its past cut off gives the full window's series bit for bit
    drv = DrivingSystem.iid([0.5, 0.5], seed=13)
    rng = np.random.default_rng(12)
    gen = Generator.from_list([np.diag(rng.uniform(0.5, 4.0, size=4)) for _ in range(2)])
    w = drv.sample_window(150, 80)
    rep = oseledets_splitting(gen, None, w, n_past=150, n_future=40)
    tilted = np.array(rep.splitting[0].frame, copy=True)
    tilted[:, 0] += 0.25 * rep.filtration[0].frame[:, 0]
    for cand in (rep.splitting[0], Subspace.from_spanning(tilted)):
        series = uniqueness_diagnostic(gen, w, cand, rep, 1, 30)
        cut = uniqueness_diagnostic(gen, OmegaWindow(w.future, 0), cand, rep, 1, 30)
        assert np.array_equal(series, cut)


def test_uniqueness_diagnostic_tilted_candidate_decay_rate():
    w = const_window(300, 120)
    rep = oseledets_splitting(DIAG, None, w, n_past=200, n_future=50)
    tilted = Subspace.span([1.0, 0.4])
    series = uniqueness_diagnostic(DIAG, w, tilted, rep, 1, 25)
    mask = series > 1e-13
    slope = np.polyfit(np.arange(26)[mask], np.log(series[mask]), 1)[0]
    expected = -(rep.exponents[0] - rep.exponents[1])
    assert slope == pytest.approx(expected, rel=0.10)
    # closed form: L^k (1, a) = (2^k, a 2^-k), projected onto span(e_2) along
    # span(e_1), over the norm of the pushed unit candidate
    k, a = np.arange(26), 0.4
    assert series == pytest.approx(a * 4.0 ** -k / np.sqrt(1 + a * a * 16.0 ** -k), rel=1e-12)


# -- the m×m assembly, kept as the exact reference ----------------------------

def mm_project_along(kernel, range):
    """The m×m projection onto `range` along `kernel` by one solve against the
    concatenated frames [range, kernel], with the checks of `project_off`:
    DegenerateSum when those frames have smallest singular value below 1e-10,
    or when the result leaves `range` by more than 1e-10."""
    concat = np.hstack([range.frame, kernel.frame])
    if np.linalg.svd(concat, compute_uv=False)[-1] < 1e-10:
        raise DegenerateSum("sum is not direct (smallest singular value < 1e-10)")
    p = range.frame @ np.linalg.solve(concat, np.eye(range.m))[:range.d]
    off = np.linalg.qr(range.frame, mode="complete")[0][:, range.d:]
    if np.max(np.abs(off.T @ p)) > 1e-10:
        raise DegenerateSum("projection leaves its range by more than 1e-10")
    return p


def mm_splitting(gen, window, n_past, n_future, blocks=None, kappa_estimate=None):
    """The filtration frames, uniqueness values and direct-sum minimum of
    `oseledets_splitting` by the m×m route: `slow`, the tail of one complete
    QR of the fast columns W_{:c_p}, V_{i+1} = span(W_{c_i:c_p}, slow),
    `mm_project_along` per block and one SVD of [E_1 ... E_p, slow].  The passes
    and checks are those of `oseledets_splitting` (equivariance left out), so
    a window fails here with the exception the m×m route raised."""
    m, mats, gap_tolerance = gen.dim, gen.stack, cc.GAP_TOLERANCE
    n_total, half = n_past + n_future, n_past // 2
    t_half = n_future + half
    width = m if blocks is None else min(blocks + 1, m)
    while True:
        _, steps, rev = cc._propagate(
            mats, window.symbols(-n_past, n_future),
            None if blocks is None else cc._start_frame(m, width), reverse=True,
            record={n_total, t_half, n_future})
        u_far, rates = cc._sorted_columns(rev[n_total], steps, cc._default_burn(n_total))
        grouped = cc._group_blocks(rates, gap_tolerance)
        closed = grouped if width == m else grouped[:-1]
        found = cc._resolvable(closed, kappa_estimate, gap_tolerance)
        if width == m or len(found) >= blocks or len(found) < len(closed):
            break
        width = min(2 * width, m)
    found = found[:blocks]
    if not found:
        raise BlockDegeneracy("no resolvable exponent blocks above the threshold")
    ends = list(accumulate(d for _, d in found))
    c_p = ends[-1]
    w0, r0rates = cc._sorted_columns(rev[n_future], steps[:n_future])
    cc._check_block_boundaries(r0rates, ends + [m], gap_tolerance, n_future)
    slow = np.linalg.qr(w0[:, :c_p], mode="complete")[0][:, c_p:]

    def slow_from(c):
        return np.hstack([w0[:, c:c_p], slow])

    def blockwise(qf):
        spaces = []
        for c_prev, c_i in zip([0, *ends[:-1]], ends):
            vt = np.linalg.svd(w0[:, :c_prev].T @ qf[:, :c_i])[2]
            spaces.append(Subspace(qf[:, :c_i] @ vt[c_prev:].T))
        return spaces

    q0 = cc._propagate(mats, window.symbols(-n_past, 0), u_far[:, :c_p])[0]
    splitting = blockwise(q0)
    g0 = []
    for c_i, e in zip(ends, splitting):
        if c_i < m:
            proj = mm_project_along(Subspace(q0[:, :c_i]), Subspace(slow_from(c_i)))
            g0.append(float(np.linalg.norm(proj @ e.frame, 2)))
        else:
            g0.append(0.0)
    u_half, _ = cc._sorted_columns(rev[t_half], steps[:t_half], cc._default_burn(t_half))
    q_half = cc._propagate(mats, window.symbols(-half, 0), u_half[:, :c_p])[0]
    if max(gap(a, b) for a, b in zip(splitting, blockwise(q_half))) > cc.CONVERGENCE_TOLERANCE:
        raise NonConvergence("splitting Cauchy gap exceeds the tolerance")
    frames = [e.frame for e in splitting] + ([slow] if c_p < m else [])
    min_sv = float(np.linalg.svd(np.hstack(frames), compute_uv=False)[-1])
    filtration = [Subspace(slow_from(c)).frame for c in ends if c < m]
    return filtration, g0, min_sv


def mm_uniqueness_series(gen, window, candidate, report, i, n, n_past):
    """`uniqueness_diagnostic` with an m×m `mm_project_along` at every step,
    its fast sums pushed forward from the far past, n_past steps back."""
    c_i = report.block_ends[i - 1]
    c_prev = 0 if i == 1 else report.block_ends[i - 2]
    m, mats = gen.dim, gen.stack
    tail = report.n_used
    n_total = n_past + n + tail
    _, steps, rev = cc._propagate(mats, window.symbols(-n_past, n + tail), reverse=True,
                                  record={n_total, *range(tail, n + tail + 1)})
    u_far, _ = cc._sorted_columns(rev[n_total], steps, cc._default_burn(n_total))
    fw = cc._propagate(mats, window.symbols(-n_past, n), u_far,
                       record=range(n_past, n_past + n + 1))[2]
    _, cand_steps, cands = cc._propagate(mats, window.symbols(0, n), candidate.frame,
                                         record=range(n + 1))
    collapsed = (cand_steps.min(axis=1)
                 <= np.log(1e-12) + np.maximum(cand_steps.max(axis=1), 0.0))
    out = np.empty(n + 1)
    for k in range(n + 1):
        qk, t = fw[n_past + k], n + tail - k
        wk = cc._sorted_columns(rev[t], steps[:t])[0]
        check = np.hstack([qk[:, :c_prev], cands[k], wk[:, c_i:]])
        if check.shape[1] != m or np.linalg.svd(check, compute_uv=False)[-1] < 1e-10:
            raise NotComplementary(f"candidate at step {k} fails the direct-sum precondition")
        proj = mm_project_along(Subspace(qk[:, :c_i]), Subspace(wk[:, c_i:]))
        out[k] = np.linalg.norm(proj @ cands[k], 2)
        if k < n and collapsed[k]:
            raise NotComplementary(f"candidate collapses under the step at coordinate {k}")
    return out


def outcome(call):
    try:
        return call()
    except Exception as exc:  # the class is what both routes must share
        return exc


def assert_failed_alike(got, want):
    """Both routes failed with one exception class.  They share their checks
    (σ_min of the direct sum and the result's distance from the range, both
    against 1e-10), so no window is excused.  No check bounds P² - P
    absolutely: that rounding grows like eps·||P||² and refused
    well-conditioned sums."""
    assert type(got) is type(want)


def assert_matches_mm_route(gen, window, n_past, n_future, blocks=None, kappa_estimate=None,
                            g_len=0):
    """The splitting (and, with g_len, the uniqueness series of its own and of
    a tilted top block) agrees with the m×m route, or both fail alike."""
    got = outcome(lambda: oseledets_splitting(
        gen, None, window, n_past=n_past, n_future=n_future, blocks=blocks,
        kappa_estimate=kappa_estimate))
    want = outcome(lambda: mm_splitting(gen, window, n_past, n_future, blocks, kappa_estimate))
    if isinstance(got, Exception) or isinstance(want, Exception):
        assert_failed_alike(got, want)
        return got
    filtration, g0, min_sv = want
    assert len(got.filtration) == len(filtration)
    assert all(np.array_equal(v.frame, f) for v, f in zip(got.filtration, filtration))
    assert np.max(np.abs(np.subtract(got.uniqueness_g0, g0))) <= 1e-12
    assert abs(got.direct_sum_min_sv - min_sv) <= 1e-12
    if g_len and got.p >= 2:
        tilted = np.array(got.splitting[0].frame, copy=True)
        tilted[:, 0] += 0.25 * got.filtration[0].frame[:, 0]
        for cand in (got.splitting[0], Subspace.from_spanning(tilted)):
            series = outcome(lambda: uniqueness_diagnostic(gen, window, cand, got, 1, g_len))
            ref = outcome(lambda: mm_uniqueness_series(gen, window, cand, got, 1, g_len, n_past))
            if isinstance(series, Exception) or isinstance(ref, Exception):
                assert_failed_alike(series, ref)
            else:
                assert np.max(np.abs(series - ref)) <= 1e-12
    return got


def test_splitting_matches_mm_route_on_test_cases():
    rng = np.random.default_rng(12)
    diag4 = Generator.from_list([np.diag(rng.uniform(0.5, 4.0, size=4)) for _ in range(2)])
    rng = np.random.default_rng(10)
    positive = Generator.from_list([rng.uniform(0.5, 2.0, size=(2, 2)) for _ in range(3)])
    cases = [
        (DIAG, const_window(300, 120), 200, 50),
        (TRIANGULAR, const_window(300, 120), 200, 50),
        (diag4, DrivingSystem.iid([0.5, 0.5], seed=13).sample_window(150, 60), 150, 40),
        (positive, DrivingSystem.iid([1 / 3] * 3, seed=11).sample_window(200, 70), 200, 50),
        (separated_cocycle(np.random.default_rng(3), 6, top2=True),
         DrivingSystem.iid([1 / 3] * 3, seed=4).sample_window(200, 70), 200, 50),
    ]
    for gen, window, n_past, n_future in cases:
        rep = assert_matches_mm_route(gen, window, n_past, n_future, g_len=20)
        assert isinstance(rep, cc.SpectrumReport)
        for p in range(1, rep.p + 1):
            assert isinstance(assert_matches_mm_route(gen, window, n_past, n_future, blocks=p),
                              cc.SpectrumReport)


@pytest.mark.parametrize("law", ["iid", "markov"])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_splitting_matches_mm_route_on_random_cocycles(m, law):
    outcomes = []
    for seed in range(4):
        rng = np.random.default_rng([m, seed])
        gen = Generator.from_list([rng.normal(size=(m, m)) for _ in range(3)])
        if law == "iid":
            drv = DrivingSystem.iid([1 / 3] * 3, seed=seed)
        else:
            t = rng.uniform(0.2, 1.0, size=(3, 3))
            drv = DrivingSystem.markov(t / t.sum(axis=1, keepdims=True), seed=seed)
        window = drv.sample_window(200, 70)
        for blocks in (None, 1, 2, m):
            outcomes.append(assert_matches_mm_route(gen, window, 200, 50, blocks,
                                                    g_len=20 * (blocks is None)))
    assert any(isinstance(o, cc.SpectrumReport) for o in outcomes)


def test_leaky_full_width_fails_like_mm_route():
    # the full-width Ulam splitting of LEAKY (tests/test_interval.py) at k = 48
    # has a degenerate direct sum on a spurious lower block
    leaky = affine_map([[0, 1 / 6, 3, 0], [1 / 6, 1 / 3, 3, -0.5], [1 / 3, 1 / 2, 3, -0.5],
                        [1 / 2, 2 / 3, 3, -1], [2 / 3, 5 / 6, 3, -1.5], [5 / 6, 1, 3, -2]])
    drv = DrivingSystem.iid([1.0], seed=0)
    sys = RandomIntervalSystem((leaky,), drv)
    window, kappa = drv.sample_window(200, 50), float(np.log(chi_exact(sys)))
    assert isinstance(assert_matches_mm_route(density_generator(sys, 48), window, 200, 50,
                                              kappa_estimate=kappa), DegenerateSum)
    assert isinstance(assert_matches_mm_route(density_generator(sys, 24), window, 200, 50,
                                              kappa_estimate=kappa), cc.SpectrumReport)


def mm_projection(f, w):
    """The m×m projection onto span(w)^⊥ along span(f) by `mm_project_along`."""
    slow = np.linalg.qr(w, mode="complete")[0][:, w.shape[1]:]
    return mm_project_along(Subspace(f), Subspace(slow))


@pytest.mark.parametrize("m", range(2, 9))
def test_project_off_matches_project_along(m):
    # the two routes round differently by up to 2.3·eps·||P||₂²·max|x| over
    # 11 200 random pairs at m = 2..8 (an error linear in ||P|| reached
    # 5.7e3·eps·||P||₂), so the bound is quadratic in ||P||
    rng = np.random.default_rng(m)
    for c in range(1, m):
        for _ in range(5):
            f = np.linalg.qr(rng.normal(size=(m, c)))[0]
            w = np.linalg.qr(rng.normal(size=(m, c)))[0]
            x = rng.normal(size=(m, 2))
            y = project_off(f, w, x)
            p = mm_projection(f, w)
            tol = 1e-14 * max(1.0, np.linalg.norm(p, 2)) ** 2 * np.max(np.abs(x))
            assert np.max(np.abs(y - p @ x)) <= tol


@pytest.mark.parametrize("sigma,not_direct", [(0.5e-10, True), (2e-10, False)])
def test_project_off_degenerate_threshold_matches_project_along(sigma, not_direct):
    # f = (s e_1 + sqrt(1 - s²) e_3, e_2) against w = (e_1, e_2) in R^5, turned
    # by a random rotation: σ_min(wᵀf) = s, and the frames of span(w)^⊥ and
    # span(f) have smallest singular value sigma when s = sigma sqrt(2 - sigma²).
    # Both routes raise on both pairs: below 1e-10 on the direct-sum check, and
    # above it on the check of their result, whose rounding grows like 1/sigma.
    s = sigma * np.sqrt(2.0 - sigma ** 2)
    e = np.eye(5)
    rot = np.linalg.qr(np.random.default_rng(0).normal(size=(5, 5)))[0]
    f = rot @ np.column_stack([s * e[0] + np.sqrt(1.0 - s * s) * e[2], e[1]])
    w = rot @ e[:, :2]
    x = np.ones((5, 1))
    for exc in (outcome(lambda: project_off(f, w, x)), outcome(lambda: mm_projection(f, w))):
        assert isinstance(exc, DegenerateSum)
        assert ("not direct" in str(exc)) is not_direct


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


def test_non_finite_driving_rejected():
    with pytest.raises(ValueError):
        DrivingSystem.iid([np.nan, 1.0], 0)
    with pytest.raises(ValueError):
        DrivingSystem.markov([[np.nan, 1.0], [0.5, 0.5]], 0)


def _dfs_single_closed_class(transition) -> bool:
    """Reference: one closed class when exactly one set of states is the
    reach of a recurrent state (one that every state it reaches reaches back),
    each reach found by a depth-first search."""
    succ = [[j for j, p in enumerate(row) if p > 0] for row in transition]
    reach = []
    for i in range(len(succ)):  # the states reachable from i, i included
        seen, todo = {i}, [i]
        while todo:
            new = set(succ[todo.pop()]) - seen
            seen |= new
            todo += new
        reach.append(seen)
    classes = {frozenset(r) for i, r in enumerate(reach) if all(i in reach[j] for j in r)}
    return len(classes) == 1


def test_single_closed_class_matches_search_on_every_small_pattern():
    # every 0/1 pattern with n <= 4 states and no empty row
    count = 0
    for n in range(1, 5):
        rows = [row for row in product((0, 1), repeat=n) if any(row)]
        for pattern in product(rows, repeat=n):
            assert cc.single_closed_class(pattern) == _dfs_single_closed_class(pattern), pattern
            count += 1
    assert count == 50_978


@pytest.mark.parametrize("transition", [
    [[1.0, 0.0], [0.0, 1.0]],
    [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    [[0.2, 0.8, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]],
    [[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
])
def test_markov_with_several_closed_classes_rejected(transition):
    # several closed communicating classes: several stationary vectors
    with pytest.raises(ValueError, match="closed classes"):
        DrivingSystem.markov(transition, seed=1)


@pytest.mark.parametrize("transition, probs", [
    # one closed class {0} and a transient state
    ([[1.0, 0.0], [0.5, 0.5]], [1.0, 0.0]),
    # periodic but irreducible
    ([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5]),
    # one closed class {0, 1} reached from the transient state 2
    ([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]], [0.5, 0.5, 0.0]),
])
def test_markov_with_one_closed_class_accepted(transition, probs):
    assert np.allclose(DrivingSystem.markov(transition, seed=1).probs, probs, atol=1e-15)


def _bisect_path(drv, length, stream):
    """Reference sampler: one bisection of one uniform per step through the
    cumulative law of that step."""
    rows = drv.transition if drv.law == "markov" else (drv.probs,) * drv.alphabet_size
    cdf = np.cumsum([drv.probs, *rows], axis=1)
    cdf = (cdf / cdf[:, -1:]).tolist()
    path, row = np.empty(length, dtype=np.intp), cdf[0]
    for j, u in enumerate(drv.rng(stream).random(length)):
        path[j] = s = bisect.bisect_right(row, u)
        row = cdf[1 + s]
    return path


@pytest.mark.parametrize("law", ["iid", "markov"])
def test_sampler_matches_bisect_loop(law):
    # the vectorised sampler gives the symbols of the per-step bisection loop,
    # across Markov chunk boundaries too
    for seed in range(12):
        drv = (DrivingSystem.iid([0.1, 0.2, 0.3, 0.4], seed=seed) if law == "iid" else
               DrivingSystem.markov([[0.6, 0.3, 0.1], [0.2, 0.6, 0.2], [0.0, 0.3, 0.7]], seed=seed))
        for length in (0, 1, 2, cc.CHUNK, cc.CHUNK + 1, 3 * cc.CHUNK + 7):
            for stream in (0, 5):
                assert np.array_equal(drv.sample_window(0, length, stream).seq,
                                      _bisect_path(drv, length, stream))


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
            assert drv.sample_window(0, length, stream).future.tolist() == want
            split = drv.sample_window(length // 2, length - length // 2, stream)
            assert split.n_past == length // 2 and split.seq.tolist() == want
