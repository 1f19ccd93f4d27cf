import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oseledets.errors import ConditioningFailure, DegenerateSum, DimensionMismatch
from oseledets.grassmann import (
    Subspace,
    ambient_norm,
    complement,
    conditioned_basis,
    direct_sum_min_sv,
    gap,
    local_norm,
    project_along,
    project_off,
)

IDEMPOTENCE_TOL = 1e-10


def random_subspace(rng, m, d):
    return Subspace.from_spanning(rng.standard_normal((m, d)))


def test_subspace_frame_orthonormal():
    rng = np.random.default_rng(0)
    s = random_subspace(rng, 5, 2)
    assert np.max(np.abs(s.frame.T @ s.frame - np.eye(2))) <= 1e-12


def test_subspace_rejects_bad_frame():
    with pytest.raises(DimensionMismatch):
        Subspace(np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_from_spanning_needs_columns_of_one_matrix():
    # a 1-d array is not m×d (np.atleast_2d would read it as one row, R^1)
    with pytest.raises(DimensionMismatch):
        Subspace.from_spanning(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DimensionMismatch):
        Subspace.from_spanning(np.ones((2, 2, 2)))
    # three vectors in R^2 (one of them zero) span at most R^2: rank deficient
    with pytest.raises(DimensionMismatch, match="rank deficient"):
        Subspace.from_spanning(np.eye(2, 3))
    with pytest.raises(DimensionMismatch, match="rank deficient"):
        Subspace.from_spanning(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    assert Subspace.from_spanning(np.array([[1.0], [2.0], [3.0]])).d == 1


def test_projection_coordinate_example():
    p = project_along(kernel=Subspace.span([1.0, 0.0]),
                      range=Subspace.span([0.0, 1.0]))
    assert np.allclose(p @ np.array([3.0, 4.0]), [0.0, 4.0], atol=1e-14)


def test_projection_oblique_example():
    # (2,5) = 2*(1,1) + 3*(0,1): the kernel component is dropped
    p = project_along(kernel=Subspace.span([1.0, 1.0]),
                      range=Subspace.span([0.0, 1.0]))
    assert np.allclose(p @ np.array([2.0, 5.0]), [0.0, 3.0], atol=1e-14)


def test_projection_idempotent_randomized():
    rng = np.random.default_rng(1)
    for _ in range(40):
        m = int(rng.integers(2, 10))
        d = int(rng.integers(1, m))
        v = random_subspace(rng, m, d)
        w = random_subspace(rng, m, m - d)
        if np.linalg.svd(np.hstack([v.frame, w.frame]), compute_uv=False)[-1] < 0.05:
            continue
        p = project_along(kernel=w, range=v)
        assert np.max(np.abs(p @ p - p)) <= IDEMPOTENCE_TOL


def test_projection_decomposition_randomized():
    rng = np.random.default_rng(2)
    for _ in range(40):
        m = int(rng.integers(2, 10))
        d = int(rng.integers(1, m))
        v = random_subspace(rng, m, d)
        w = random_subspace(rng, m, m - d)
        if np.linalg.svd(np.hstack([v.frame, w.frame]), compute_uv=False)[-1] < 0.05:
            continue
        p = project_along(kernel=w, range=v)
        x = rng.standard_normal(m)
        px = p @ x
        qx = x - px
        assert np.linalg.norm(x - (px + qx)) <= 1e-12
        assert v.contains(px, tol=1e-10) or np.linalg.norm(px) < 1e-12
        assert w.contains(qx, tol=1e-10) or np.linalg.norm(qx) < 1e-12


def test_degenerate_sum_raises():
    near = Subspace.from_spanning(np.array([[1.0], [1e-12]]))
    with pytest.raises(DegenerateSum):
        project_along(kernel=Subspace.span([1.0, 0.0]), range=near)


def test_projection_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        project_along(kernel=Subspace.span([1.0, 0.0, 0.0]),
                      range=Subspace.span([0.0, 1.0, 0.0]))


@pytest.mark.parametrize("m", range(2, 9))
def test_direct_sum_min_sv_matches_mm_svd(m):
    # the direct-sum test against the SVD of the m×m matrix [F, complement(w)]
    # on random pairs: orthonormal f, block frames [E_1, E_2] of two
    # orthonormal frames (not orthonormal together), and f with a column in
    # span(w)^⊥, whose sum is not direct.  The routes differ by at most
    # 1.4e-15 over 8400 such pairs
    rng = np.random.default_rng(m)
    worst = 0.0
    for c in range(1, m):
        for _ in range(5):
            w = np.linalg.qr(rng.normal(size=(m, c)))[0]
            v = complement(w)
            d = int(rng.integers(1, c + 1))
            blocks = [np.linalg.qr(rng.normal(size=(m, c)))[0],
                      np.hstack([np.linalg.qr(rng.normal(size=(m, d)))[0],
                                 np.linalg.qr(rng.normal(size=(m, c - d)))[0]]),
                      np.hstack([v[:, :1], np.linalg.qr(rng.normal(size=(m, c - 1)))[0]])]
            for f in blocks:
                want = np.linalg.svd(np.hstack([f, v]), compute_uv=False)[-1]
                worst = max(worst, abs(direct_sum_min_sv(f, w) - want))
            assert direct_sum_min_sv(blocks[2], w) <= 1e-14
    assert worst <= 1e-14


def test_local_norm_zero_at_anchor():
    e0 = Subspace.span([1.0, 0.0])
    f0 = Subspace.span([0.0, 1.0])
    assert local_norm(e0, e0, f0) <= 1e-14


@pytest.mark.parametrize("t", [0.3, -0.3, 1.7, -2.5])
def test_local_norm_tilted_line(t):
    # oracle: solve (1,0) = alpha (1,t) + beta (0,1) directly
    alpha_beta = np.linalg.solve(np.array([[1.0, 0.0], [t, 1.0]]),
                                 np.array([1.0, 0.0]))
    expected = abs(alpha_beta[1])
    e = Subspace.from_spanning(np.array([[1.0], [t]]))
    got = local_norm(e, Subspace.span([1.0, 0.0]), Subspace.span([0.0, 1.0]))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(abs(t), abs=1e-12)


def test_gap_identical():
    rng = np.random.default_rng(3)
    s = random_subspace(rng, 4, 2)
    assert gap(s, s) == 0.0


def test_gap_orthogonal_lines():
    assert gap(Subspace.span([1.0, 0.0]), Subspace.span([0.0, 1.0])) == pytest.approx(1.0)


@pytest.mark.parametrize("phi", [0.1, 0.5, 1.0, 1.5])
def test_gap_rotated_line(phi):
    # oracle: principal angle of two lines from the inner product
    u = np.array([1.0, 0.0])
    v = np.array([np.cos(phi), np.sin(phi)])
    expected = np.sqrt(1.0 - np.dot(u, v) ** 2)
    got = gap(Subspace.span(u), Subspace.span(v))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(abs(np.sin(phi)), abs=1e-12)


def test_gap_metric_properties():
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        d = int(rng.integers(1, m + 1))
        a, b, c = (random_subspace(rng, m, d) for _ in range(3))
        assert gap(a, b) == gap(b, a)
        assert gap(a, c) <= gap(a, b) + gap(b, c) + 1e-10


def test_gap_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        gap(Subspace.span([1.0, 0.0]), Subspace.span([1.0, 0.0], [0.0, 1.0]))


def assert_idempotent(v, w):
    # the rounding of P² - P grows like eps·||P||² (Kato, ch. I): over the
    # 10 001 seeds of the property test it stays below 1.4·eps·max(1, ||P||₂)²
    p = project_along(kernel=w, range=v)
    assert np.max(np.abs(p @ p - p)) <= 1e-13 * max(1.0, np.linalg.norm(p, 2)) ** 2


@given(st.integers(min_value=0, max_value=10_000))
# ||P||₂ is 1.5e3 to 2.2e4 on these seeds; an absolute 1e-10 bound on P² - P
# refused them as degenerate
@example(1162)
@example(1685)
@example(2121)
@example(2725)
@example(2815)
@example(5353)
@example(6507)
@example(9497)
@settings(max_examples=25, deadline=None)
def test_projection_idempotent_property(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    d = int(rng.integers(1, m))
    v = random_subspace(rng, m, d)
    w = random_subspace(rng, m, m - d)
    concat = np.hstack([v.frame, w.frame])
    if np.linalg.svd(concat, compute_uv=False)[-1] < 1e-6:
        return
    assert_idempotent(v, w)


def test_projection_accepts_random_pair_with_small_angle():
    # the fifth pair at c = 6 of the m = 8 frame pairs drawn with seed 8:
    # σ_min(wᵀf) = 1.1e-4, ||P||₂ = 9.4e3
    rng = np.random.default_rng(8)
    for c in range(1, 7):
        for _ in range(5):
            f = np.linalg.qr(rng.normal(size=(8, c)))[0]
            w = np.linalg.qr(rng.normal(size=(8, c)))[0]
            rng.normal(size=(8, 2))
    assert np.linalg.svd(w.T @ f, compute_uv=False)[-1] == pytest.approx(1.06e-4, rel=1e-2)
    slow = np.linalg.qr(w, mode="complete")[0][:, c:]
    assert_idempotent(Subspace(slow), Subspace(f))


@pytest.mark.parametrize("s", [1e-5, 1e-8])
def test_project_off_verdict_does_not_depend_on_the_scale_of_x(s):
    # f = (s e_1 + sqrt(1 - s²) e_3, e_2) against w = (e_1, e_2) in R^5, turned
    # by a random rotation.  The result check used to be absolute in x: at
    # s = 1e-5 it returned for x = ones and raised for 1e3 and 1e6 times ones
    e = np.eye(5)
    rot = np.linalg.qr(np.random.default_rng(0).normal(size=(5, 5)))[0]
    f = rot @ np.column_stack([s * e[0] + np.sqrt(1.0 - s * s) * e[2], e[1]])
    w = rot @ e[:, :2]
    verdicts = []
    for c in (1.0, 1e3, 1e6):
        try:
            y = project_off(f, w, c * np.ones((5, 1)))
            assert np.max(np.abs(w.T @ y)) <= 1e-10 * c * np.sqrt(5.0)
            verdicts.append("returned")
        except DegenerateSum as exc:
            assert "not direct" not in str(exc)
            verdicts.append("raised")
    assert verdicts == ["returned"] * 3 if s == 1e-5 else ["raised"] * 3


def test_conditioned_basis_full_space_euclidean():
    basis = conditioned_basis(Subspace.full(3), norm="euclidean", seed=5)
    b = np.stack(basis, axis=1)
    gram = b.T @ b
    # scaled orthogonal: columns orthogonal, common scale within the sandwich
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) <= 1e-8
    scale = np.sqrt(np.diag(gram))
    assert np.all(scale >= 1.0) and np.all(scale <= 4.0 * np.sqrt(3))


@pytest.mark.parametrize("norm", ["euclidean", "sup", "one"])
def test_conditioned_basis_sandwich_sampled(norm):
    # oracle: dense sampling over the coefficient sphere
    rng = np.random.default_rng(6)
    sub = random_subspace(rng, 3, 2)
    basis = conditioned_basis(sub, norm=norm, seed=7)
    b = np.stack(basis, axis=1)
    coeffs = rng.standard_normal((2, 10_000))
    coeffs /= np.linalg.norm(coeffs, axis=0)
    vals = ambient_norm(b @ coeffs, norm)
    upper = 4.0 * np.sqrt(2)  # 4 sqrt(d) with d = 2
    assert np.min(vals) >= 1.0
    assert np.max(vals) <= upper
    # the basis spans the subspace
    for vec in basis:
        assert sub.contains(vec, tol=1e-10)


def test_conditioned_basis_failure_budget():
    sub = Subspace.span([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    with pytest.raises(ConditioningFailure):
        conditioned_basis(sub, norm="sup", max_rounds=0)


def test_projection_continuity_ratio_bounded():
    rng = np.random.default_rng(8)
    v = random_subspace(rng, 5, 2)
    w = random_subspace(rng, 5, 3)
    p0 = project_along(kernel=w, range=v)
    ratios = []
    for eps in (1e-4, 1e-5, 1e-6):
        noise = rng.standard_normal(v.frame.shape)
        noise -= v.frame @ (v.frame.T @ noise)
        noise /= np.linalg.norm(noise, 2)
        v_eps = Subspace.from_spanning(v.frame + eps * noise)
        moved = gap(v, v_eps)
        p1 = project_along(kernel=w, range=v_eps)
        ratios.append(np.linalg.norm(p1 - p0, 2) / moved)
    assert max(ratios) <= 100.0 * max(np.linalg.norm(p0, 2), 1.0)
    assert max(ratios) / min(ratios) <= 10.0
