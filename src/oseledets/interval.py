"""Random piecewise monotone expanding interval maps and their transfer
operators on functions of bounded variation.

Maps are lists of monotone branches; for affine branches everything here is
exact: transfer-operator images of piecewise-affine functions, total
variation, integrals, bin-transition (Ulam) matrices, and map composition.
An Ulam matrix takes one vectorised pass per branch: its cuts at the bin
edges and the preimages of the bin edges, sorted together, split it into
segments that each lie in one domain bin and one image bin.  Smooth
branches get those preimages from `Branch.inverse`, the only root-finder.
The quantitative checks cover the variation inequality for a single map, the
contraction-coefficient sandwich realized by separated indicator families,
the expansion index of random compositions, and the random invariant
densities obtained by feeding Ulam cocycles to the splitting machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import cocycle as _cocycle
from .errors import (
    ExpansionTooWeak,
    NonAffineBranch,
    PreconditionANotLessThan1,
    QuadratureFailure,
)

_MERGE_TOL = 1e-14


# ---------------------------------------------------------------------------
# piecewise maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Branch:
    """One monotone branch on [a, b]; affine (slope, intercept) or smooth
    (callable plus derivative callable)."""

    a: float
    b: float
    slope: float | None = None
    intercept: float | None = None
    fn: Callable[[float], float] | None = None
    dfn: Callable[[float], float] | None = None

    def __post_init__(self):
        affine = (self.slope, self.intercept) if self.is_affine else ()
        if not all(map(math.isfinite, (self.a, self.b, *affine))):
            raise ValueError("branch endpoints, slope and intercept must be finite")
        if not self.b > self.a:
            raise ValueError("branch domain must have positive length")
        if self.is_affine:
            if self.slope == 0:
                raise ValueError("affine branch must have nonzero slope")
        elif self.fn is None or self.dfn is None:
            raise ValueError("smooth branch needs fn and dfn")

    @property
    def is_affine(self) -> bool:
        return self.slope is not None

    def __call__(self, x):
        if self.is_affine:
            return self.slope * np.asarray(x) + self.intercept
        return self.fn(x)

    def image(self) -> tuple[float, float]:
        lo, hi = self(self.a), self(self.b)
        return (lo, hi) if lo <= hi else (hi, lo)

    def inverse(self, y):
        """The preimage in [a, b] of a point or an array of points of the
        image: closed form for an affine branch, one `brentq` root per point
        (xtol 1e-14) for a smooth one."""
        if self.is_affine:
            return (y - self.intercept) / self.slope
        ys = np.asarray(y, dtype=float)
        lo, hi = self.image()
        if np.any((ys < lo - 1e-12) | (ys > hi + 1e-12)):
            raise ValueError("point not in branch image")
        # imported here: scipy.optimize dominates the package's import time,
        # and only non-affine branches need it
        from scipy.optimize import brentq

        xs = [brentq(lambda x: self.fn(x) - v, self.a, self.b, xtol=1e-14)
              for v in ys.ravel()]
        return np.reshape(xs, ys.shape)[()]

    def min_abs_derivative(self) -> float:
        """|slope|, or for a smooth branch the sampled minimum of |T'| on a
        10 000-point grid, refined on a second grid about the smallest."""
        if self.is_affine:
            return abs(self.slope)
        xs = np.linspace(self.a, self.b, 10_000)
        vals = np.abs(np.asarray(self.dfn(xs), dtype=float))
        k = int(np.argmin(vals))
        lo = xs[max(0, k - 1)]
        hi = xs[min(len(xs) - 1, k + 1)]
        fine = np.linspace(lo, hi, 10_000)
        return float(min(vals.min(), np.min(np.abs(np.asarray(self.dfn(fine))))))


@dataclass(frozen=True)
class PiecewiseMap:
    """An interval map given by branches with disjoint interiors covering
    [0, 1] up to measure zero.  The transfer-operator weight is 1/|T'|."""

    branches: tuple[Branch, ...]

    def __post_init__(self):
        br = tuple(sorted(self.branches, key=lambda x: x.a))
        object.__setattr__(self, "branches", br)
        total = 0.0
        prev_end = None
        for b in br:
            if prev_end is not None and b.a < prev_end - _MERGE_TOL:
                raise ValueError("branch domains overlap")
            prev_end = b.b
            total += b.b - b.a
            if b.a < -1e-9 or b.b > 1 + 1e-9:
                raise ValueError("branch domain leaves [0, 1]")
            lo, hi = b.image()
            if lo < -1e-9 or hi > 1 + 1e-9:
                raise ValueError("branch image leaves [0, 1]")
        if abs(total - 1.0) > 1e-9:
            raise ValueError("branch domains must cover [0, 1] up to measure zero")

    @property
    def is_affine(self) -> bool:
        return all(b.is_affine for b in self.branches)

    def essinf_derivative(self) -> float:
        return min(b.min_abs_derivative() for b in self.branches)

    def __call__(self, x: float) -> float:
        for b in self.branches:
            if b.a <= x <= b.b:
                return float(b(x))
        raise ValueError("point outside all branch domains")


def affine_map(rows: Sequence[Sequence[float]]) -> PiecewiseMap:
    """Branches from rows [a, b, slope, intercept]."""
    return PiecewiseMap(tuple(Branch(a=r[0], b=r[1], slope=r[2], intercept=r[3])
                              for r in rows))


def doubling_map() -> PiecewiseMap:
    return affine_map([[0.0, 0.5, 2.0, 0.0], [0.5, 1.0, 2.0, -1.0]])


def tripling_map() -> PiecewiseMap:
    return affine_map([[0, 1 / 3, 3.0, 0.0], [1 / 3, 2 / 3, 3.0, -1.0],
                       [2 / 3, 1.0, 3.0, -2.0]])


def tent_map() -> PiecewiseMap:
    return affine_map([[0.0, 0.5, 2.0, 0.0], [0.5, 1.0, -2.0, 2.0]])


def identity_map() -> PiecewiseMap:
    return affine_map([[0.0, 1.0, 1.0, 0.0]])


def single_slope_map(slope: float) -> PiecewiseMap:
    """One affine branch T(x) = slope * x (image must stay inside [0, 1])."""
    return affine_map([[0.0, 1.0, slope, 0.0]])


def compose_maps(outer: PiecewiseMap, inner: PiecewiseMap) -> PiecewiseMap:
    """The composition outer ∘ inner, exact for affine branches."""
    rows = []
    for b1 in inner.branches:
        if not b1.is_affine:
            raise NonAffineBranch("map composition is exact for affine branches only")
        lo1, hi1 = b1.image()
        for b2 in outer.branches:
            if not b2.is_affine:
                raise NonAffineBranch("map composition is exact for affine branches only")
            lo = max(lo1, b2.a)
            hi = min(hi1, b2.b)
            if hi - lo <= _MERGE_TOL:
                continue
            xa = b1.inverse(lo)
            xb = b1.inverse(hi)
            if xa > xb:
                xa, xb = xb, xa
            xa = max(xa, b1.a)
            xb = min(xb, b1.b)
            if xb - xa <= _MERGE_TOL:
                continue
            slope = b2.slope * b1.slope
            intercept = b2.slope * b1.intercept + b2.intercept
            rows.append(Branch(a=xa, b=xb, slope=slope, intercept=intercept))
    return PiecewiseMap(tuple(rows))


def compose_word(maps: Sequence[PiecewiseMap], word: Sequence[int]) -> PiecewiseMap:
    """T_{w_{n-1}} ∘ ... ∘ T_{w_0}, the n-step composition along a word."""
    out = maps[word[0]]
    for s in word[1:]:
        out = compose_maps(maps[s], out)
    return out


@dataclass(frozen=True)
class RandomIntervalSystem:
    maps: tuple[PiecewiseMap, ...]
    driving: _cocycle.DrivingSystem

    def __post_init__(self):
        if len(self.maps) != self.driving.alphabet_size:
            raise ValueError("one map per driving symbol is required")


# ---------------------------------------------------------------------------
# piecewise-affine BV functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BVFunction:
    """A piecewise-affine function on [0, 1].

    Pieces live on the open intervals between consecutive breakpoints;
    `left_values[j]` / `right_values[j]` are the one-sided limits at the ends
    of piece j.  Values at breakpoints follow the minimal-variation
    normalization (any value between the one-sided limits), so the variation
    is the sum of within-piece slopes' travel plus interior jumps.
    """

    breakpoints: np.ndarray
    left_values: np.ndarray
    right_values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        lv = np.asarray(self.left_values, dtype=float)
        rv = np.asarray(self.right_values, dtype=float)
        if bp.ndim != 1 or len(bp) < 2 or len(lv) != len(bp) - 1 or len(rv) != len(lv):
            raise ValueError("inconsistent piece data")
        if abs(bp[0]) > 1e-12 or abs(bp[-1] - 1.0) > 1e-12:
            raise ValueError("breakpoints must span [0, 1]")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        for arr in (bp, lv, rv):
            arr.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "left_values", lv)
        object.__setattr__(self, "right_values", rv)

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c: float) -> "BVFunction":
        return cls(np.array([0.0, 1.0]), np.array([float(c)]), np.array([float(c)]))

    @classmethod
    def identity(cls) -> "BVFunction":
        return cls(np.array([0.0, 1.0]), np.array([0.0]), np.array([1.0]))

    @classmethod
    def indicator(cls, a: float, b: float) -> "BVFunction":
        bp = sorted({0.0, 1.0, float(a), float(b)})
        bp = np.array(bp)
        lv, rv = [], []
        for lo, hi in zip(bp[:-1], bp[1:]):
            inside = 1.0 if (lo >= a - 1e-15 and hi <= b + 1e-15) else 0.0
            lv.append(inside)
            rv.append(inside)
        return cls(bp, np.array(lv), np.array(rv))

    @classmethod
    def hat(cls) -> "BVFunction":
        return cls(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0]),
                   np.array([1.0, 0.0]))

    @classmethod
    def random(cls, rng: np.random.Generator, max_pieces: int = 8,
               scale: float = 1.0) -> "BVFunction":
        k = int(rng.integers(1, max_pieces + 1))
        interior = np.sort(rng.uniform(0.05, 0.95, size=k - 1)) if k > 1 else []
        bp = np.concatenate([[0.0], interior, [1.0]])
        lv = rng.uniform(-scale, scale, size=k)
        rv = rng.uniform(-scale, scale, size=k)
        return cls(bp, lv, rv)

    # -- calculus -----------------------------------------------------------

    def piece_at(self, j: int) -> tuple[float, float, float, float]:
        return (self.breakpoints[j], self.breakpoints[j + 1],
                self.left_values[j], self.right_values[j])

    def _limits_at(self, x: float, side: str) -> float:
        bp = self.breakpoints
        j = int(np.searchsorted(bp, x, side="right" if side == "+" else "left")) - 1
        j = min(max(j, 0), len(bp) - 2)
        lo, hi, lv, rv = self.piece_at(j)
        t = (x - lo) / (hi - lo)
        return lv + (rv - lv) * t

    def evaluate(self, x: float) -> float:
        """Pointwise value; at interior breakpoints the midpoint of the
        one-sided limits (a minimal-variation version)."""
        bp = self.breakpoints
        if x <= bp[0]:
            return float(self.left_values[0])
        if x >= bp[-1]:
            return float(self.right_values[-1])
        hit = np.nonzero(np.abs(bp[1:-1] - x) <= 1e-15)[0]
        if len(hit):
            j = hit[0]
            return float(0.5 * (self.right_values[j] + self.left_values[j + 1]))
        j = int(np.searchsorted(bp, x) - 1)
        lo, hi, lv, rv = self.piece_at(j)
        return float(lv + (rv - lv) * (x - lo) / (hi - lo))

    def variation(self) -> float:
        within = float(np.sum(np.abs(self.right_values - self.left_values)))
        jumps = float(np.sum(np.abs(self.left_values[1:] - self.right_values[:-1])))
        return within + jumps

    def integral(self) -> float:
        lens = np.diff(self.breakpoints)
        return float(np.sum(0.5 * (self.left_values + self.right_values) * lens))

    def l1_norm(self) -> float:
        total = 0.0
        for j in range(len(self.left_values)):
            lo, hi, lv, rv = self.piece_at(j)
            ln = hi - lo
            if lv * rv >= 0:
                total += 0.5 * abs(lv + rv) * ln
            else:
                t = lv / (lv - rv)  # sign change
                total += 0.5 * abs(lv) * t * ln + 0.5 * abs(rv) * (1 - t) * ln
        return total

    def bv_norm(self) -> float:
        return max(self.l1_norm(), self.variation())

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "BVFunction") -> "BVFunction":
        return _from_pieces([f.piece_at(j) for f in (self, other)
                             for j in range(len(f.left_values))])

    def __mul__(self, c: float) -> "BVFunction":
        return BVFunction(self.breakpoints, self.left_values * c,
                          self.right_values * c)

    __rmul__ = __mul__

    def __sub__(self, other: "BVFunction") -> "BVFunction":
        return self + (other * -1.0)

    def min_value(self) -> float:
        return float(min(np.min(self.left_values), np.min(self.right_values)))


# ---------------------------------------------------------------------------
# transfer operator
# ---------------------------------------------------------------------------

def transfer_apply(t: PiecewiseMap, f: BVFunction) -> BVFunction:
    """Exact transfer-operator image sum over preimages of (1/|T'|) f.

    Requires every branch affine; use :func:`ulam_matrix` for smooth maps.
    The output preserves integrals exactly and maps nonnegative functions to
    nonnegative functions.
    """
    if not t.is_affine:
        raise NonAffineBranch("exact transfer images need affine branches")
    pieces: list[tuple[float, float, float, float]] = []
    for br in t.branches:
        w = 1.0 / abs(br.slope)
        cuts = [br.a, br.b]
        for p in f.breakpoints:
            if br.a + _MERGE_TOL < p < br.b - _MERGE_TOL:
                cuts.append(float(p))
        cuts = sorted(set(cuts))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi - lo <= _MERGE_TOL:
                continue
            flo = f._limits_at(lo, "+")
            fhi = f._limits_at(hi, "-")
            ylo, yhi = br(lo), br(hi)
            if br.slope > 0:
                pieces.append((ylo, yhi, w * flo, w * fhi))
            else:
                pieces.append((yhi, ylo, w * fhi, w * flo))
    return _from_pieces(pieces)


def _from_pieces(pieces: Sequence[tuple[float, float, float, float]]) -> BVFunction:
    """The sum of affine pieces (lo, hi, value at lo, value at hi), each zero
    outside [lo, hi], on the grid of all piece ends merged within _MERGE_TOL."""
    grid = sorted({0.0, 1.0, *(x for lo, hi, _, _ in pieces for x in (lo, hi))})
    merged = [grid[0]]
    for x in grid[1:]:
        if x - merged[-1] > _MERGE_TOL:
            merged.append(x)
    merged[-1] = 1.0
    bp = np.asarray(merged)
    lv = np.zeros(len(bp) - 1)
    rv = np.zeros(len(bp) - 1)
    mid = 0.5 * (bp[:-1] + bp[1:])
    for lo, hi, vlo, vhi in pieces:
        # the cells whose midpoints lie strictly inside (lo, hi)
        cells = slice(np.searchsorted(mid, lo, side="right"),
                      np.searchsorted(mid, hi, side="left"))
        span = hi - lo
        lv[cells] += vlo + (vhi - vlo) * ((bp[:-1][cells] - lo) / span)
        rv[cells] += vlo + (vhi - vlo) * ((bp[1:][cells] - lo) / span)
    return BVFunction(bp, lv, rv)


def ulam_matrix(t: PiecewiseMap, k: int) -> np.ndarray:
    """Row-stochastic bin-transition matrix: entry (i, j) is the fraction of
    bin i mapped into bin j.

    Per branch, the cuts (its ends and the bin edges inside it) and the
    preimages of the bin edges inside its image (skipping those within
    1e-15 of a cut's value) are sorted together.  Each segment between
    neighbours lies in one domain bin and one image bin, found from its
    midpoint.  Exact for affine branches; smooth ones get their preimages
    from `Branch.inverse`.
    """
    if k < 1:
        raise ValueError("need at least one bin")
    edges = np.linspace(0.0, 1.0, k + 1)
    mat = np.zeros((k, k))
    for br in t.branches:
        cuts = np.concatenate(([br.a], edges[(edges > br.a) & (edges < br.b)], [br.b]))
        vals = np.sort(br(cuts))
        if not np.all(np.isfinite(vals)):
            raise QuadratureFailure(f"branch value not finite on [{br.a}, {br.b}]")
        ys = edges[(edges > vals[0]) & (edges < vals[-1])]
        at = np.searchsorted(vals, ys)
        ys = ys[np.minimum(ys - vals[at - 1], vals[at] - ys) > 1e-15]
        xs = np.sort(np.concatenate((cuts, np.clip(br.inverse(ys), br.a, br.b))))
        lengths = np.diff(xs)
        keep = lengths > 0
        mid = 0.5 * (xs[:-1] + xs[1:])[keep]
        i = np.searchsorted(edges, mid, side="right") - 1
        j = np.searchsorted(edges, br(mid), side="right") - 1
        np.add.at(mat, (np.clip(i, 0, k - 1), np.clip(j, 0, k - 1)), lengths[keep])
    rows = mat.sum(axis=1) * k
    if np.max(np.abs(rows - 1.0)) > 1e-12:
        raise QuadratureFailure(
            f"bin transition rows sum to 1 within {np.max(np.abs(rows - 1.0)):.2e} only")
    return mat * k  # normalize by m(B_i) = 1/k


def density_generator(sys: RandomIntervalSystem, k: int) -> _cocycle.Generator:
    """Matrices acting on bin-density values (transposed bin-transition
    matrices), one per driving symbol."""
    return _cocycle.Generator.from_list(
        [ulam_matrix(t, k).T for t in sys.maps])


# ---------------------------------------------------------------------------
# expansion index and inequality checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChiReport:
    chi: float
    kappa_star: float
    expanding_on_average: bool
    per_sample: tuple[float, ...]


def chi_estimate(sys: RandomIntervalSystem, n: int, samples: int = 8) -> ChiReport:
    """Expansion index: exp of the averaged per-step log of 1/essinf|T'|
    along sampled words (streams 1000, 1001, ... of the driving), plus the
    matching log-rate estimate.

    Exact branch minima are composed along each word, which is the exact
    essential infimum for full-branch affine maps and a certified lower bound
    otherwise.
    """
    log_a = np.array([-np.log(t.essinf_derivative()) for t in sys.maps])
    vals = []
    for s in range(samples):
        word = sys.driving.sample_window(0, n, stream=1000 + s).future
        vals.append(float(np.mean(log_a[word])))
    mean = float(np.mean(vals))
    chi = float(np.exp(mean))
    return ChiReport(chi=chi, kappa_star=mean, expanding_on_average=chi < 1.0,
                     per_sample=tuple(vals))


def chi_exact(sys: RandomIntervalSystem) -> float:
    """Closed-form expansion index exp(π·log a), a_s = 1/essinf|T_s'|, with π
    the driving's `probs`: the i.i.d. law, or the stationary vector of a
    Markov law (unique, since `DrivingSystem` admits one closed class).  By
    Birkhoff's theorem this is the limit of :func:`chi_estimate`."""
    log_a = np.array([-np.log(t.essinf_derivative()) for t in sys.maps])
    return float(np.exp(np.dot(sys.driving.probs, log_a)))


def branch_partition(t: PiecewiseMap) -> list[tuple[float, float]]:
    """The branch-domain partition."""
    return [(br.a, br.b) for br in t.branches]


def conditional_expectation(f: BVFunction, cells: Sequence[tuple[float, float]]) -> BVFunction:
    """Piecewise-constant cell averages of f."""
    pieces = []
    for lo, hi in cells:
        avg = _integral_on(f, lo, hi) / (hi - lo)
        pieces.append((lo, hi, avg, avg))
    return _from_pieces(pieces)


def _integral_on(f: BVFunction, lo: float, hi: float) -> float:
    total = 0.0
    for j in range(len(f.left_values)):
        a, b, lv, rv = f.piece_at(j)
        aa, bb = max(a, lo), min(b, hi)
        if bb - aa <= 0:
            continue
        va = lv + (rv - lv) * (aa - a) / (b - a)
        vb = lv + (rv - lv) * (bb - a) / (b - a)
        total += 0.5 * (va + vb) * (bb - aa)
    return total


@dataclass(frozen=True)
class VariationInequalityReport:
    a: float
    feasible_d: float
    slacks: tuple[float, ...]
    frozen_d: float | None


def ly_inequality_check(
    t: PiecewiseMap,
    f_samples: Sequence[BVFunction],
    *,
    frozen_d: float | None = None,
) -> VariationInequalityReport:
    """Check var(L f) <= a var(f) + D * sum_J |∫_J f| with a = 3/essinf|T'|.

    The partition is the branch partition.  When
    `frozen_d` is given, slacks are reported against it; otherwise the
    smallest feasible D over the sample is determined and slacks use that.

    For affine branches with |slope| >= λ = essinf|T'| it holds with a = 3/λ
    and D = 2/(λ min_J |J|).  On a branch J = (p, r), L(f 1_J) is
    f∘T_J⁻¹/|slope| on T(J) and 0 elsewhere, so var(L(f 1_J)) <= (var_J f +
    |f(p+)| + |f(r-)|)/λ, and |f(x)| <= var_J f + |∫_J f|/|J| on J; sum over
    J, as var(L f) <= Σ_J var(L(f 1_J)) and Σ_J var_J f <= var f.  The
    classical a = 2/λ holds with the same D: |f(p+) - μ| + |f(r-) - μ| <=
    var_J f for the mean μ of f on J, so |f(p+)| + |f(r-)| <= var_J f +
    2|∫_J f|/|J|.  The check keeps a = 3/λ.

    Raises ExpansionTooWeak unless essinf |T'| > 1.
    """
    essinf = t.essinf_derivative()
    if essinf <= 1.0:
        raise ExpansionTooWeak(f"essinf |T'| = {essinf} <= 1")
    a = 3.0 / essinf
    cells = branch_partition(t)
    rows = []
    for f in f_samples:
        var_lf = transfer_apply(t, f).variation()
        var_f = f.variation()
        sums = sum(abs(_integral_on(f, lo, hi)) for lo, hi in cells)
        rows.append((var_lf, var_f, sums))
    feasible = 0.0
    for var_lf, var_f, sums in rows:
        excess = var_lf - a * var_f
        if excess > 1e-12:
            if sums <= 1e-15:
                feasible = float("inf")
            else:
                feasible = max(feasible, excess / sums)
    d_used = feasible if frozen_d is None else frozen_d
    slacks = tuple(a * var_f + d_used * sums - var_lf
                   for var_lf, var_f, sums in rows)
    return VariationInequalityReport(a=a, feasible_d=feasible, slacks=slacks,
                                     frozen_d=frozen_d)


@dataclass(frozen=True)
class ContractionSandwich:
    a_n: float
    ic_lower: float
    fr_upper: float
    min_pairwise_distance: float
    fr_measured: float


def essrad_sandwich_check(
    sys: RandomIntervalSystem,
    window: _cocycle.OmegaWindow,
    n: int,
) -> ContractionSandwich:
    """Sandwich for the n-step contraction coefficient a_n = 1/essinf|T^(n)'|.

    fr_upper = 3 a_n bounds the measured variation of n-step images of
    mean-zero unit functions; fr_measured is the largest such image over 40
    random BV functions drawn from stream 2000 of the driving seed.  The
    lower side is realized by a family of 5 half-indicators supported in the
    least-expanding branch of the composition, whose images are pairwise at
    least 2(1 - 0.1) a_n apart in BV norm, certifying index-of-compactness
    >= (pairwise distance)/2.

    Raises PreconditionANotLessThan1 unless a_n < 1.
    """
    n_family, eps = 5, 0.1
    word = window.symbols(0, n).tolist()
    comp = compose_word(sys.maps, word)
    a_n = 1.0 / comp.essinf_derivative()
    if not a_n < 1.0:
        raise PreconditionANotLessThan1(f"a_n = {a_n} >= 1")
    # finite-rank route: measure sup over mean-zero unit samples
    cells = branch_partition(comp)
    rng = np.random.default_rng([sys.driving.seed, 2000])
    fr_measured = 0.0
    for _ in range(40):
        f = BVFunction.random(rng)
        norm = f.bv_norm()
        if norm <= 1e-12:
            continue
        f = f * (1.0 / norm)
        g = f - conditional_expectation(f, cells)
        image = transfer_apply(comp, g)
        fr_measured = max(fr_measured, image.bv_norm())
    fr_upper = 3.0 * a_n
    # separated family inside the least-expanding branch
    best = min(comp.branches, key=lambda b: b.min_abs_derivative())
    if 1.0 / best.min_abs_derivative() <= (1 - eps) * a_n:
        raise PreconditionANotLessThan1("no branch attains the contraction bound")
    lo, hi = best.a, best.b
    width = (hi - lo) / (2 * n_family + 1)
    family = []
    for r in range(n_family):
        s = lo + (2 * r + 1) * width
        family.append(BVFunction.indicator(s, s + width) * 0.5)
    images = [transfer_apply(comp, f) for f in family]
    dmin = np.inf
    for ia in range(len(images)):
        for ib in range(ia + 1, len(images)):
            dmin = min(dmin, (images[ia] - images[ib]).bv_norm())
    return ContractionSandwich(
        a_n=float(a_n),
        ic_lower=float(dmin / 2.0),
        fr_upper=float(fr_upper),
        min_pairwise_distance=float(dmin),
        fr_measured=float(fr_measured),
    )


# ---------------------------------------------------------------------------
# random invariant densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AcimReport:
    densities: tuple[np.ndarray, ...]
    d1: int
    lambda1: float
    chi: float
    kappa_star: float
    report: _cocycle.SpectrumReport


def random_acim(
    sys: RandomIntervalSystem,
    window: _cocycle.OmegaWindow | None = None,
    k: int = 64,
    n_past: int = 200,
    *,
    n_future: int = 50,
) -> AcimReport:
    """Random invariant densities from the k-bin transfer cocycle.

    The top splitting space E_1 of the Ulam cocycle carries the invariant
    densities; when it is one-dimensional the density is normalized to
    integral one.  Only E_1 is computed (`blocks=1` in the splitting), so the
    passes track d_1 + 1 columns rather than all k, and the Ulam blocks
    nearer the expansion index, spurious or not, are neither computed nor
    checked.  The reverse pass starts from the constant vector, which every
    transposed Ulam matrix fixes and which pairs positively with every
    density, so the top rate carries no start-up transient and no density
    is missed, wherever it lives.  The closed-form expansion index
    (:func:`chi_exact`) feeds the splitting as the threshold below which
    blocks are not exceptional.

    Raises ExpansionTooWeak when the system is not expanding on average.
    """
    chi = chi_exact(sys)
    if not chi < 1.0:
        raise ExpansionTooWeak(f"chi = {chi} >= 1: not expanding on average")
    kappa = float(np.log(chi))
    gen = density_generator(sys, k)
    if window is None:
        window = sys.driving.sample_window(n_past, n_future)
    report = _cocycle.oseledets_splitting(
        gen, None, window, n_past=n_past, n_future=n_future,
        kappa_estimate=kappa, blocks=1, start=np.ones((k, 1)))
    d1 = report.multiplicities[0]
    e1 = report.splitting[0]
    densities = []
    for col in range(e1.d):
        v = e1.frame[:, col].copy()
        total = np.mean(v)
        if d1 == 1:
            if total < 0:
                v = -v
                total = -total
            if abs(total) < 1e-300:
                raise ExpansionTooWeak("top space has zero integral")
            v = v / total  # integral = mean(values) for k equal bins
        densities.append(v)
    return AcimReport(
        densities=tuple(densities),
        d1=int(d1),
        lambda1=float(report.exponents[0]),
        chi=chi,
        kappa_star=kappa,
        report=report,
    )
