"""Finite-dimensional subspace geometry.

Subspaces of R^m are carried as orthonormal frames.  This module provides the
operations every splitting computation is built from: oblique projections
(onto a subspace along a complement), the local norm of a subspace relative to
a reference pair, well-conditioned bases adapted to a chosen ambient norm, and
the gap metric (sine of the largest principal angle).

Every oblique projection in the package (the splitting, the uniqueness
diagnostic, :func:`local_norm`, the lemma suite, :func:`project_along`) is one
c×c solve of :func:`project_off`, every direct-sum test one
:func:`direct_sum_min_sv` and every orthogonal complement one :func:`complement`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import ConditioningFailure, DegenerateSum, DimensionMismatch

ORTHONORMAL_TOL = 1e-12
IDEMPOTENCE_TOL = 1e-10
DIRECT_SUM_MIN_SV = 1e-10

NormTag = Literal["euclidean", "sup", "one"]


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Subspace:
    """A d-dimensional subspace of R^m, stored as an m-by-d orthonormal frame.

    The frame is unique only up to right rotation, so subspaces are compared
    through :func:`gap`.
    """

    frame: np.ndarray

    def __post_init__(self):
        frame = _as_readonly(np.atleast_2d(self.frame))
        object.__setattr__(self, "frame", frame)
        m, d = frame.shape
        if not (1 <= d <= m):
            raise DimensionMismatch(f"need 1 <= d <= m, got frame shape {frame.shape}")
        gram = frame.T @ frame
        if np.max(np.abs(gram - np.eye(d))) > ORTHONORMAL_TOL:
            raise DimensionMismatch("frame columns are not orthonormal to 1e-12")

    @property
    def m(self) -> int:
        return self.frame.shape[0]

    @property
    def d(self) -> int:
        return self.frame.shape[1]

    @classmethod
    def from_spanning(cls, vectors: np.ndarray) -> "Subspace":
        """Orthonormalize the columns of `vectors` (must have full column rank)."""
        a = np.asarray(vectors, dtype=float)
        if a.ndim != 2 or a.shape[1] < 1:
            raise DimensionMismatch("expected a 2-d array of column vectors")
        q, r = np.linalg.qr(a)
        pivots = np.abs(np.diag(r))  # one per vector only when d <= m
        if len(pivots) < a.shape[1] or np.min(pivots) <= 1e-12 * max(1.0, np.max(np.abs(r))):
            raise DimensionMismatch("spanning set is numerically rank deficient")
        return cls(q)

    @classmethod
    def span(cls, *vectors: Sequence[float]) -> "Subspace":
        """Convenience constructor from row-listed spanning vectors."""
        return cls.from_spanning(np.array(vectors, dtype=float).T)

    @classmethod
    def full(cls, m: int) -> "Subspace":
        return cls(np.eye(m))

    def contains(self, v: np.ndarray, tol: float = 1e-10) -> bool:
        v = np.asarray(v, dtype=float)
        nv = np.linalg.norm(v)
        if nv == 0:
            return True
        resid = v - self.frame @ (self.frame.T @ v)
        return float(np.linalg.norm(resid)) <= tol * nv


def complement(frame: np.ndarray) -> np.ndarray:
    """Orthonormal frame of the orthogonal complement of the span of the
    orthonormal m×d `frame`: the trailing columns of one complete QR."""
    return np.linalg.qr(frame, mode="complete")[0][:, frame.shape[1]:]


def direct_sum_min_sv(f: np.ndarray, w: np.ndarray) -> float:
    """σ_min of [F, V] for m×c frames f (F, unit columns) and w, V an
    orthonormal basis of span(w)^⊥, without an m×m matrix: in the basis [W, V]
    it is [[WᵀF, 0], [VᵀF, I]], with the singular values of [[WᵀF, 0], [R, I]],
    RᵀR = Fᵀ(I - WWᵀ)F, plus ones."""
    c, wf = w.shape[1], w.T @ f
    small = np.eye(2 * c)
    small[:c, :c], small[c:, :c] = wf, np.linalg.qr(f - w @ wf, mode="r")
    return float(np.linalg.svd(small, compute_uv=False)[-1])


def project_off(f: np.ndarray, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x projected onto V = span(w)^⊥ along span(f), for orthonormal m×c
    frames f and w: x - f (wᵀf)⁻¹ wᵀx.  DegenerateSum when [f, V] has
    smallest singular value (:func:`direct_sum_min_sv`) below 1e-10, or when
    the result leaves V by more than 1e-10 times the largest column 2-norm of
    x, so the verdict does not depend on the scale of x."""
    if direct_sum_min_sv(f, w) < DIRECT_SUM_MIN_SV:
        raise DegenerateSum("sum is not direct (smallest singular value < 1e-10)")
    y = x - f @ np.linalg.solve(w.T @ f, w.T @ x)
    if np.max(np.abs(w.T @ y)) > IDEMPOTENCE_TOL * np.max(np.linalg.norm(x, axis=0)):
        raise DegenerateSum("projection leaves span(w)^⊥ by more than 1e-10 |x|")
    return y


def project_along(kernel: Subspace, range: Subspace) -> np.ndarray:
    """The m×m projection onto `range` along `kernel` (the unique idempotent
    with the given range and kernel), built by :func:`project_off` from the
    identity.

    Raises
    ------
    DegenerateSum
        If the two subspaces do not span the ambient space as a direct sum
        (see :func:`project_off`).
    DimensionMismatch
        If the dimensions do not add up to the ambient dimension.
    """
    if kernel.m != range.m:
        raise DimensionMismatch("ambient dimensions differ")
    m = kernel.m
    if kernel.d + range.d != m:
        raise DimensionMismatch(
            f"kernel.d + range.d = {kernel.d + range.d} != ambient dimension {m}")
    return project_off(kernel.frame, complement(range.frame), np.eye(m))


def local_norm(e: Subspace, e0: Subspace, f0: Subspace) -> float:
    """Operator norm of the projection onto `f0` along `e`, restricted to `e0`.

    This is the size of `e` in the chart anchored at the reference pair
    (`e0`, `f0`); it vanishes exactly when `e == e0`.
    """
    if not (e.m == e0.m == f0.m):
        raise DimensionMismatch("ambient dimensions differ")
    m = e.m
    if e0.d + f0.d != m or e.d + f0.d != m:
        raise DimensionMismatch("reference pair does not decompose the ambient space")
    w = complement(f0.frame)  # span(w)^⊥ = f0
    if direct_sum_min_sv(e0.frame, w) < DIRECT_SUM_MIN_SV:
        raise DegenerateSum("e0 + f0 is not a direct sum")
    # raises DegenerateSum if e + f0 is not direct
    return float(np.linalg.norm(project_off(e.frame, w, e0.frame), 2))


def gap(a: Subspace, b: Subspace) -> float:
    """Sine of the largest principal angle between equal-dimensional subspaces.

    Symmetric by construction, zero iff the subspaces coincide, and a metric
    on the fixed-dimension collection.  Values are clipped to [0, 1].
    """
    if a.m != b.m:
        raise DimensionMismatch("ambient dimensions differ")
    if a.d != b.d:
        raise DimensionMismatch(f"subspace dimensions differ: {a.d} != {b.d}")
    if a.frame is b.frame or np.array_equal(a.frame, b.frame):
        return 0.0
    ra = a.frame - b.frame @ (b.frame.T @ a.frame)
    rb = b.frame - a.frame @ (a.frame.T @ b.frame)
    s = max(np.linalg.norm(ra, 2), np.linalg.norm(rb, 2))
    return float(min(1.0, max(0.0, s)))


# -- norm-adapted bases --------------------------------------------------------

def ambient_norm(x: np.ndarray, norm: NormTag) -> np.ndarray:
    """Column-wise ambient norm of the vectors in `x`."""
    if norm == "euclidean":
        return np.linalg.norm(x, axis=0)
    if norm == "sup":
        return np.max(np.abs(x), axis=0)
    if norm == "one":
        return np.sum(np.abs(x), axis=0)
    raise ValueError(f"unknown norm tag {norm!r}")


def _unit_coefficients(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((d, n))
    a /= np.linalg.norm(a, axis=0)
    return a


def _fit_quadratic_form(coeffs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Least-squares fit of an SPD form H with a' H a ~ values^2."""
    d, n = coeffs.shape
    cols = []
    idx = []
    for i in range(d):
        cols.append(coeffs[i] ** 2)
        idx.append((i, i))
    for i in range(d):
        for j in range(i + 1, d):
            cols.append(2.0 * coeffs[i] * coeffs[j])
            idx.append((i, j))
    design = np.stack(cols, axis=1)
    sol, *_ = np.linalg.lstsq(design, values ** 2, rcond=None)
    h = np.zeros((d, d))
    for (i, j), v in zip(idx, sol):
        h[i, j] = v
        h[j, i] = v
    # Clamp to SPD; the fit may dip for very anisotropic samples.
    w, v = np.linalg.eigh(h)
    w = np.maximum(w, 1e-12 * max(np.max(w), 1e-300))
    return (v * w) @ v.T


def conditioned_basis(
    e: Subspace,
    norm: NormTag = "euclidean",
    max_rounds: int = 8,
    seed: int = 0,
) -> list[np.ndarray]:
    """Basis e_1..e_d of `e` with ||a||_2 <= ||sum a_i e_i|| <= 4 sqrt(d) ||a||_2.

    The ambient norm is selected by `norm`.  Construction fits an ellipsoid to
    the restricted norm on sampled coefficient spheres of 10 000 points
    (John-ellipsoid style), changes basis to round the norm, and rescales so
    the sampled lower bound clears 1.  The sandwich is then re-verified on a
    fresh sample of the same size.

    Raises
    ------
    ConditioningFailure
        If the sampled sandwich is still violated after `max_rounds`
        refinement rounds.
    """
    rng = np.random.default_rng(seed)
    d = e.d
    basis = np.array(e.frame, copy=True)
    upper = 4.0 * np.sqrt(d)
    for _ in range(max_rounds):
        coeffs = _unit_coefficients(d, 10_000, rng)
        vals = ambient_norm(basis @ coeffs, norm)
        lo, hi = float(np.min(vals)), float(np.max(vals))
        if lo <= 0.0:
            raise ConditioningFailure("restricted norm vanished on a sample")
        # Rescale so sampled values sit in [1.05, ...]; the margin guards
        # fresh-sample dips below the sampled minimum and costs little of the
        # 4 sqrt(d) budget after the ellipsoid rounding.
        scale = 1.05 / lo
        if hi * scale <= upper:
            candidate = basis * scale
            check = ambient_norm(candidate @ _unit_coefficients(d, 10_000, rng), norm)
            if np.min(check) >= 1.0 and np.max(check) <= upper:
                return [candidate[:, i] for i in range(d)]
        h = _fit_quadratic_form(coeffs, vals)
        w, v = np.linalg.eigh(h)
        basis = basis @ (v / np.sqrt(w)) @ v.T
    raise ConditioningFailure(
        f"no basis met the sandwich after {max_rounds} refinement rounds")
