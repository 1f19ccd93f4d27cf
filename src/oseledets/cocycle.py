"""Matrix cocycles over shift driving.

A driving system samples two-sided symbol windows; a generator assigns one
matrix per symbol.  On top of the raw products this module computes Lyapunov
spectra (QR-accumulated to avoid overflow), forward filtrations, and
semi-invertible splittings by pushing fast singular subspaces forward from the
far past and intersecting them with the forward filtration.  The remaining
operations are quantitative diagnostics: uniform growth rates on invariant
subspaces, backward decay rates along full orbits, a decay-series uniqueness
diagnostic for candidate equivariant families, and a demonstration that the
top space genuinely depends on the past when the generators do not commute.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BlockDegeneracy,
    DimensionMismatch,
    EqualExponents,
    NonConvergence,
    NotComplementary,
    RestrictedSingular,
    WindowTooShort,
)
from .grassmann import Subspace, gap, project_along

GAP_TOLERANCE = 1e-3
CONVERGENCE_TOLERANCE = 1e-6
INTERSECTION_TOL = 1e-8
RESOLVABLE_FLOOR = -690.0  # per-step rates below exp underflow are unresolvable


# ---------------------------------------------------------------------------
# driving and windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DrivingSystem:
    """Two-sided shift driving over a finite alphabet with an i.i.d. or
    stationary Markov law.  All randomness flows through (seed, stream)."""

    alphabet_size: int
    law: str                      # "iid" | "markov"
    probs: tuple[float, ...]      # i.i.d. law, or the stationary vector
    transition: tuple[tuple[float, ...], ...] | None
    seed: int

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if len(p) != self.alphabet_size:
            raise ValueError("law size does not match alphabet size")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        if self.law == "markov":
            t = np.asarray(self.transition, dtype=float)
            if t.shape != (self.alphabet_size, self.alphabet_size):
                raise ValueError("transition matrix has wrong shape")
            if np.any(t < 0) or np.max(np.abs(t.sum(axis=1) - 1.0)) > 1e-12:
                raise ValueError("transition matrix must be row stochastic")
            if np.max(np.abs(p @ t - p)) > 1e-10:
                raise ValueError("stationary vector is not a fixed left eigenvector")
        elif self.law != "iid":
            raise ValueError(f"unknown law {self.law!r}")

    @classmethod
    def iid(cls, probs: Sequence[float], seed: int) -> "DrivingSystem":
        probs = tuple(float(x) for x in probs)
        return cls(alphabet_size=len(probs), law="iid", probs=probs,
                   transition=None, seed=int(seed))

    @classmethod
    def markov(cls, transition: Sequence[Sequence[float]], seed: int) -> "DrivingSystem":
        t = np.asarray(transition, dtype=float)
        evals, evecs = np.linalg.eig(t.T)
        k = int(np.argmin(np.abs(evals - 1.0)))
        pi = np.real(evecs[:, k])
        pi = pi / pi.sum()
        return cls(alphabet_size=t.shape[0], law="markov",
                   probs=tuple(float(x) for x in pi),
                   transition=tuple(tuple(float(x) for x in row) for row in t),
                   seed=int(seed))

    def rng(self, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def sample_window(self, n_past: int, n_future: int, stream: int = 0) -> "OmegaWindow":
        """n_past + n_future consecutive symbols of stream `stream`, split at
        coordinate 0.  Each symbol inverts one uniform through the cumulative
        law of its step: `probs`, then the previous symbol's transition row
        (`probs` under i.i.d.), as a per-step `Generator.choice` would."""
        rows = self.transition if self.law == "markov" else (self.probs,) * self.alphabet_size
        cdf = np.cumsum([self.probs, *rows], axis=1)
        cdf = (cdf / cdf[:, -1:]).tolist()
        path, row = [], cdf[0]
        for u in self.rng(stream).random(n_past + n_future):
            path.append(bisect_right(row, u))
            row = cdf[1 + path[-1]]
        # past[0] is coordinate -1
        return OmegaWindow(past=tuple(path[:n_past][::-1]), future=tuple(path[n_past:]))

    def sample_windows(self, count: int, n_past: int, n_future: int,
                       start_stream: int = 0) -> list["OmegaWindow"]:
        return [self.sample_window(n_past, n_future, stream=start_stream + i)
                for i in range(count)]

    def sample_past_variants(self, count: int, n_past: int, n_future: int,
                             future_stream: int = 0) -> list["OmegaWindow"]:
        """Windows sharing one sampled future but with independent pasts."""
        future = self.sample_window(0, n_future, stream=future_stream).future
        out = []
        for i in range(count):
            w = self.sample_window(n_past, 0, stream=future_stream + 1 + i)
            out.append(OmegaWindow(past=w.past, future=future))
        return out


@dataclass(frozen=True)
class OmegaWindow:
    """A finite window of a two-sided symbol sequence.

    Coordinate 0 is future[0]; coordinate -k (k >= 1) is past[k-1].
    """

    past: tuple[int, ...]
    future: tuple[int, ...]

    @property
    def n_past(self) -> int:
        return len(self.past)

    @property
    def n_future(self) -> int:
        return len(self.future)

    def symbol(self, i: int) -> int:
        if i >= 0:
            if i >= len(self.future):
                raise WindowTooShort(f"coordinate {i} beyond future length {len(self.future)}")
            return self.future[i]
        if -i > len(self.past):
            raise WindowTooShort(f"coordinate {i} beyond past length {len(self.past)}")
        return self.past[-i - 1]

    def symbols(self, start: int, stop: int) -> np.ndarray:
        """The symbols at coordinates start, ..., stop - 1 as an int array."""
        if stop > start:
            self.symbol(start)
            self.symbol(stop - 1)
        past = self.past[max(-stop, 0):max(-start, 0)][::-1]
        future = self.future[max(start, 0):max(stop, 0)]
        return np.array(past + future, dtype=np.intp)

    def shift(self, k: int = 1) -> "OmegaWindow":
        """The window of the shifted sequence: coordinate i reads old i + k."""
        if k == 0:
            return self
        if k > 0:
            if k > len(self.future):
                raise WindowTooShort("cannot shift past the end of the future")
            moved = self.future[:k]
            return OmegaWindow(past=tuple(reversed(moved)) + self.past,
                               future=self.future[k:])
        k = -k
        if k > len(self.past):
            raise WindowTooShort("cannot shift before the start of the past")
        moved = tuple(reversed(self.past[:k]))
        return OmegaWindow(past=self.past[k:], future=moved + self.future)


@dataclass(frozen=True)
class Generator:
    """One matrix per driving symbol."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = []
        dim = None
        for a in self.matrices:
            a = np.array(a, dtype=float, copy=True)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise DimensionMismatch("generator matrices must be square")
            if not np.all(np.isfinite(a)):
                raise ValueError("generator matrices must have finite entries")
            if dim is None:
                dim = a.shape[0]
            elif a.shape[0] != dim:
                raise DimensionMismatch("generator matrices must share one dimension")
            a.setflags(write=False)
            mats.append(a)
        object.__setattr__(self, "matrices", tuple(mats))

    @classmethod
    def from_list(cls, matrices: Sequence[np.ndarray]) -> "Generator":
        return cls(tuple(np.asarray(a, dtype=float) for a in matrices))

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def alphabet_size(self) -> int:
        return len(self.matrices)

    @property
    def stack(self) -> np.ndarray:
        """The matrices as one (alphabet_size, dim, dim) array."""
        return np.stack(self.matrices)

    def matrix(self, symbol: int) -> np.ndarray:
        if not 0 <= symbol < len(self.matrices):
            raise ValueError(f"symbol {symbol} outside the generator alphabet")
        return self.matrices[symbol]


@dataclass(frozen=True)
class SpectrumReport:
    """Estimated exceptional spectrum with filtration and splitting frames.

    exponents/multiplicities describe the resolved blocks in decreasing order.
    `filtration` holds the proper filtration spaces V_2, V_3, ... (V_1 is the
    whole space); `splitting` holds E_1, ..., E_p.  `residuals` carries the
    per-block equivariance gaps, convergence (Cauchy) gaps, the self-applied
    uniqueness values, and the smallest singular value of the concatenated
    splitting frames.
    """

    exponents: tuple[float, ...]
    multiplicities: tuple[int, ...]
    filtration: tuple[Subspace, ...]
    splitting: tuple[Subspace, ...]
    residuals: Mapping[str, tuple]
    n_used: int
    n_past_used: int
    gap_tolerance: float = GAP_TOLERANCE

    def __post_init__(self):
        lam = self.exponents
        for a, b in zip(lam, lam[1:]):
            if not a - b > self.gap_tolerance:
                raise BlockDegeneracy("reported exponents are not block separated")
        if self.splitting:
            m = self.splitting[0].m
            if sum(self.multiplicities) > m:
                raise DimensionMismatch("multiplicities exceed the ambient dimension")
            for e, d in zip(self.splitting, self.multiplicities):
                if e.d != d:
                    raise DimensionMismatch("splitting frame dimension mismatch")

    @property
    def p(self) -> int:
        return len(self.exponents)

    @property
    def block_ends(self) -> tuple[int, ...]:
        out, c = [], 0
        for d in self.multiplicities:
            c += d
            out.append(c)
        return tuple(out)


# ---------------------------------------------------------------------------
# products and QR passes
# ---------------------------------------------------------------------------

def _qr_pos(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q, r = np.linalg.qr(y)
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0
    return q * s, r * s[:, None]


def compose(gen: Generator, window: OmegaWindow, n: int) -> np.ndarray:
    """The n-step product along the window starting at coordinate 0.

    n = 0 returns the identity (empty product convention); the factor for
    coordinate j is applied first for j = 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > window.n_future:
        raise WindowTooShort(f"need {n} future symbols, window has {window.n_future}")
    out = np.eye(gen.dim)
    for j in range(n):
        out = gen.matrix(window.symbol(j)) @ out
    return out


def _default_burn(n: int) -> int:
    return min(100, n // 10)


def _propagate(mats, symbols, q=None, *, reverse=False, record=(), keep_r=False):
    """The QR propagation loop: Q <- qr(A_s Q) for s in `symbols`, R > 0 on
    the diagonal.

    `mats` is the (alphabet, m, m) stack of generator matrices and `q` the
    start frame (default: the identity).  With reverse=True the transposed
    factors are applied in reverse symbol order, so after t steps Q is the
    frame of the transposed product over the last t symbols.  Returns the
    final Q, the per-step log|diag R| as a (steps, columns) array, {t: Q after
    t steps} for t in `record`, and the list of R factors when `keep_r`
    (else None).
    """
    if len(symbols) and not 0 <= symbols.min() <= symbols.max() < len(mats):
        raise ValueError("window symbol outside the generator alphabet")
    if reverse:
        mats, symbols = mats.transpose(0, 2, 1), symbols[::-1]
    q = np.eye(mats.shape[1]) if q is None else q
    steps = np.empty((len(symbols), q.shape[1]))
    recorded = {0: q} if 0 in record else {}
    rs = [] if keep_r else None
    with np.errstate(divide="ignore"):
        for t, s in enumerate(symbols.tolist(), 1):
            q, r = _qr_pos(mats[s] @ q)
            steps[t - 1] = np.log(np.abs(np.diag(r)))
            if t in record:
                recorded[t] = q
            if keep_r:
                rs.append(r)
    return q, steps, recorded, rs


def _mean_rates(steps: np.ndarray, burn: int = 0) -> np.ndarray:
    """Per-direction mean of the step log rates after the first `burn` steps.

    The sum runs in step order (np.sum's pairwise order would change the last
    bits of every reported rate); no kept steps give zero rates.
    """
    kept = steps[burn:]
    if not len(kept):
        return np.zeros(steps.shape[1])
    return np.cumsum(kept, axis=0)[-1] / len(kept)


def _rate_order(rates: np.ndarray) -> np.ndarray:
    """Stable descending order of per-direction rates.

    QR passes order columns asymptotically for mixing cocycles, but exactly
    reducible generators (block diagonal) never rotate columns, so the
    accumulated rates must be sorted before block grouping and slicing.
    """
    return np.argsort(-rates, kind="stable")


def _rate_gap(hi: float, lo: float) -> float:
    """hi - lo for descending rates; equal rates, -inf included, have gap 0."""
    return 0.0 if hi == lo else hi - lo


def _group_blocks(rates: np.ndarray, gap_tolerance: float) -> list[tuple[float, int]]:
    """Group consecutive per-direction rates into blocks separated by more
    than `gap_tolerance`; closer values merge into one multiplicity block."""
    blocks = []
    start = 0
    for j in range(1, len(rates) + 1):
        if j == len(rates) or _rate_gap(rates[j - 1], rates[j]) > gap_tolerance:
            chunk = rates[start:j]
            blocks.append((float(np.mean(chunk)), j - start))
            start = j
    return blocks


def _resolvable(blocks, kappa_estimate, gap_tolerance):
    out = []
    for lam, d in blocks:
        if not np.isfinite(lam) or lam < RESOLVABLE_FLOOR:
            break
        if kappa_estimate is not None and lam <= kappa_estimate + gap_tolerance:
            break
        out.append((lam, d))
    return out


def lyapunov_exponents(
    gen: Generator,
    driving: DrivingSystem | None = None,
    n: int = 1000,
    m_trunc: int | None = None,
    *,
    window: OmegaWindow | None = None,
    burn_in: int | None = None,
    gap_tolerance: float = GAP_TOLERANCE,
    kappa_estimate: float | None = None,
) -> list[tuple[float, int]]:
    """Estimated Lyapunov exponents with multiplicities, in decreasing order.

    Long products are never formed: the QR-accumulated mean of log diagonal
    growth over steps (burn_in, n] estimates the log singular value rates of
    the n-step product.  Rates closer than `gap_tolerance` merge into one
    multiplicity block; blocks at or below `kappa_estimate` (when supplied)
    or below the floating-point floor are dropped.

    Parameters
    ----------
    gen, driving : the cocycle; `driving` may be omitted when `window` is given.
    n : number of steps (requires n future symbols).
    m_trunc : track only the leading `m_trunc` directions (default: all).
    burn_in : steps discarded before accumulation; default min(100, n // 10).
    """
    if window is None:
        if driving is None:
            raise ValueError("need a driving system or an explicit window")
        window = driving.sample_window(0, n)
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > window.n_future:
        raise WindowTooShort(f"need {n} future symbols, window has {window.n_future}")
    k = gen.dim if m_trunc is None else int(m_trunc)
    burn = _default_burn(n) if burn_in is None else int(burn_in)
    _, steps, _, _ = _propagate(gen.stack, window.symbols(0, n), np.eye(gen.dim, k))
    rates = _mean_rates(steps, burn)
    blocks = _group_blocks(rates[_rate_order(rates)], gap_tolerance)
    return _resolvable(blocks, kappa_estimate, gap_tolerance)


def directional_exponent(gen: Generator, window: OmegaWindow, n: int,
                         v: np.ndarray) -> float:
    """(1/n) log ||L^(n) v||, accumulated with per-step renormalization."""
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    if nv == 0:
        return float("-inf")
    _, steps, _, _ = _propagate(gen.stack, window.symbols(0, n), (v / nv)[:, None])
    return float(_mean_rates(steps)[0])


# ---------------------------------------------------------------------------
# filtration and splitting
# ---------------------------------------------------------------------------

def _check_block_boundaries(rates, block_ends, gap_tolerance, n_scale):
    for c in block_ends[:-1]:
        if c < len(rates) and not (g := _rate_gap(rates[c - 1], rates[c])) > gap_tolerance:
            raise BlockDegeneracy(f"rate gap at block boundary {c} is {g:.3e} < "
                                  f"{gap_tolerance:.3e} (n={n_scale})")


def forward_filtration(
    gen: Generator,
    window: OmegaWindow,
    n: int,
    spectrum: Sequence[tuple[float, int]],
    *,
    gap_tolerance: float = GAP_TOLERANCE,
    burn_in: int | None = None,
) -> list[Subspace]:
    """Nested slow subspaces V_2 ⊃ V_3 ⊃ ... of the window at coordinate 0.

    V_{i+1} is spanned by the right-singular directions of the n-step forward
    product whose growth rates fall at or below the (i+1)-th spectrum block.
    The trailing space (below the last block) is included when nontrivial.
    """
    if n > window.n_future:
        raise WindowTooShort(f"need {n} future symbols, window has {window.n_future}")
    burn = _default_burn(n) if burn_in is None else int(burn_in)
    w, steps, _, _ = _propagate(gen.stack, window.symbols(0, n), reverse=True)
    rates = _mean_rates(steps, burn)
    order = _rate_order(rates)
    w, rates = w[:, order], rates[order]
    m = gen.dim
    ends = []
    c = 0
    for _, d in spectrum:
        c += d
        ends.append(c)
    if c > m:
        raise DimensionMismatch("spectrum multiplicities exceed dimension")
    _check_block_boundaries(rates, ends + [m], gap_tolerance, n)
    out = []
    for c in ends:
        if c < m:
            out.append(Subspace(w[:, c:]))
    return out


def subspace_intersection(a: Subspace, b: Subspace, *, expected_dim: int | None = None,
                          tol: float = INTERSECTION_TOL) -> Subspace:
    """Intersection of two subspaces via null vectors of the concatenated frames."""
    if a.m != b.m:
        raise DimensionMismatch("ambient dimensions differ")
    concat = np.hstack([a.frame, b.frame])
    _, s, vt = np.linalg.svd(concat)
    null = np.where(s < tol)[0] if len(s) == concat.shape[1] else np.array([], dtype=int)
    k = concat.shape[1] - a.m
    if k > 0:
        # dimensions force at least k null directions
        null = np.union1d(null, np.arange(len(s), concat.shape[1]))
    if expected_dim is not None:
        if len(null) < expected_dim:
            # fall back to the smallest singular directions, but only if they
            # are separated from the rest
            order = np.arange(concat.shape[1] - expected_dim, concat.shape[1])
            upper = s[order[0] - 1] if order[0] >= 1 else np.inf
            lower = s[order[0]] if order[0] < len(s) else 0.0
            if not (lower < tol and upper >= tol):
                raise NonConvergence(
                    f"intersection dimension not resolved: expected {expected_dim}, "
                    f"singular values {s}")
            null = order
        else:
            null = np.arange(concat.shape[1] - expected_dim, concat.shape[1])
    if len(null) == 0:
        raise NonConvergence("subspaces intersect trivially at tolerance")
    coeff = vt[null, : a.d].T
    vecs = a.frame @ coeff
    return Subspace.from_spanning(vecs)


def _orthonormal_image(matrix: np.ndarray, sub: Subspace) -> Subspace | None:
    y = matrix @ sub.frame
    q, r = _qr_pos(y)
    dig = np.abs(np.diag(r))
    if np.min(dig) <= 1e-12 * max(1.0, np.max(dig)):
        return None
    return Subspace(q)


def oseledets_splitting(
    gen: Generator,
    driving: DrivingSystem | None = None,
    window: OmegaWindow | None = None,
    n_past: int = 200,
    n_future: int = 50,
    *,
    gap_tolerance: float = GAP_TOLERANCE,
    convergence_tolerance: float = CONVERGENCE_TOLERANCE,
    kappa_estimate: float | None = None,
    burn_in: int | None = None,
    check_convergence: bool = True,
) -> SpectrumReport:
    """Equivariant splitting at the window origin with diagnostics.

    Each E_i is the intersection of (a) the forward push of the dominant
    singular directions of the product started n_past steps in the past with
    (b) the forward filtration space V_i at the origin.  The report carries,
    per block, the equivariance residual gap(L E_i(ω), E_i(σω)), the Cauchy
    gap against the same construction at half the past length, and the
    self-applied uniqueness value (norm of the projection onto V_{i+1} along
    the fast sum, restricted to E_i).

    Raises NonConvergence when the Cauchy gap exceeds `convergence_tolerance`
    (disable with check_convergence=False), and BlockDegeneracy when a block
    boundary is not resolved.
    """
    if window is None:
        if driving is None:
            raise ValueError("need a driving system or an explicit window")
        window = driving.sample_window(n_past, n_future)
    if window.n_past < n_past:
        raise WindowTooShort(f"need {n_past} past symbols, window has {window.n_past}")
    if window.n_future < n_future:
        raise WindowTooShort(f"need {n_future} future symbols, window has {window.n_future}")
    m = gen.dim
    n_total = n_past + n_future
    burn = _default_burn(n_total) if burn_in is None else int(burn_in)
    half = n_past // 2
    mats = gen.stack

    # One reverse pass over [-n_past, n_future) gives the spectrum, and its
    # frame after t steps is that of the product over [n_future - t,
    # n_future): recorded at coordinates -n_past (pushed forward), -n_past/2
    # (pushed forward for the Cauchy check), 0 and 1 (the filtrations).
    _, steps, rev, _ = _propagate(
        mats, window.symbols(-n_past, n_future), reverse=True,
        record={n_total, n_future + half, n_future, max(n_future - 1, 0)})

    def sorted_frame(t, burn_t=0):
        # the frame after t steps, columns sorted by their mean rates
        rates_t = _mean_rates(steps[:t], burn_t)
        order = _rate_order(rates_t)
        return rev[t][:, order], rates_t[order]

    # spectrum from the full-window product
    rates = _mean_rates(steps, burn)
    rates = rates[_rate_order(rates)]
    blocks = _group_blocks(rates, gap_tolerance)
    blocks = _resolvable(blocks, kappa_estimate, gap_tolerance)
    if not blocks:
        raise BlockDegeneracy("no resolvable exponent blocks above the threshold")
    exponents = tuple(b[0] for b in blocks)
    mults = tuple(b[1] for b in blocks)
    ends = list(np.cumsum(mults))
    p = len(blocks)

    # filtration frames at coordinates 0 and 1
    w0, r0rates = sorted_frame(n_future)
    w1, _ = sorted_frame(max(n_future - 1, 0))
    _check_block_boundaries(r0rates, ends + [m], gap_tolerance, n_future)

    # fast frames at coordinates 0 and 1 (push-forward of far-past directions)
    u_far, _ = sorted_frame(n_total, _default_burn(n_total))
    _, _, fw, _ = _propagate(mats, window.symbols(-n_past, 1), u_far,
                             record={n_past, n_past + 1})
    q0, q1 = fw[n_past], fw[n_past + 1]

    def blockwise(qf, wf):
        spaces = []
        for i in range(p):
            c_i, c_prev = ends[i], (0 if i == 0 else ends[i - 1])
            fast = Subspace(qf[:, :c_i])
            if c_prev == 0:
                spaces.append(Subspace(qf[:, :c_i]))
            else:
                v_i = Subspace(wf[:, c_prev:])
                spaces.append(subspace_intersection(fast, v_i,
                                                    expected_dim=mults[i]))
        return spaces

    splitting = blockwise(q0, w0)
    splitting_next = blockwise(q1, w1)

    filtration = tuple(Subspace(w0[:, c:]) for c in ends if c < m)

    # equivariance residuals
    a0 = gen.matrix(window.symbol(0))
    equiv = []
    for e_now, e_next in zip(splitting, splitting_next):
        image = _orthonormal_image(a0, e_now)
        equiv.append(1.0 if image is None else gap(image, e_next))

    # uniqueness values for the report's own blocks
    g0 = []
    for i in range(p):
        c_i = ends[i]
        if c_i < m:
            proj = project_along(kernel=Subspace(q0[:, :c_i]),
                                 range=Subspace(w0[:, c_i:]))
            g0.append(float(np.linalg.norm(proj.matrix @ splitting[i].frame, 2)))
        else:
            g0.append(0.0)

    # convergence (Cauchy) gaps against half the past length
    cauchy = []
    if check_convergence and n_past >= 2:
        u_half, _ = sorted_frame(n_future + half, _default_burn(n_future + half))
        q_half = _propagate(mats, window.symbols(-half, 0), u_half)[0]
        for e_full, e_half in zip(splitting, blockwise(q_half, w0)):
            cauchy.append(gap(e_full, e_half))
        worst = max(cauchy)
        if worst > convergence_tolerance:
            raise NonConvergence(
                f"splitting Cauchy gap {worst:.3e} exceeds {convergence_tolerance:.3e}")

    frames = [e.frame for e in splitting]
    if ends[-1] < m:
        frames.append(w0[:, ends[-1]:])
    min_sv = float(np.linalg.svd(np.hstack(frames), compute_uv=False)[-1])

    residuals = {
        "equivariance": tuple(equiv),
        "uniqueness_g0": tuple(g0),
        "cauchy_gap": tuple(cauchy),
        "direct_sum_min_sv": (min_sv,),
    }
    return SpectrumReport(
        exponents=exponents,
        multiplicities=mults,
        filtration=filtration,
        splitting=tuple(splitting),
        residuals=residuals,
        n_used=n_future,
        n_past_used=n_past,
        gap_tolerance=gap_tolerance,
    )


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def uniform_growth_check(
    gen: Generator,
    driving: DrivingSystem | None,
    window: OmegaWindow,
    e: Subspace,
    n: int,
) -> tuple[float, float]:
    """Extreme growth rates over the unit sphere of `e` under n steps.

    Returns (rate_inf, rate_sup): (1/n) log of the smallest and largest
    singular values of the product restricted to `e`, computed exactly from
    accumulated QR factors with overflow-safe rescaling.  For an invariant
    family with a single exponent both rates approach that exponent.
    """
    if n > window.n_future:
        raise WindowTooShort(f"need {n} future symbols, window has {window.n_future}")
    _, _, _, rs = _propagate(gen.stack, window.symbols(0, n), e.frame, keep_r=True)
    acc = np.eye(e.d)
    log_scale = 0.0
    for r in rs:
        acc = r @ acc
        s = np.max(np.abs(acc))
        if s > 1e100 or (0 < s < 1e-100):
            acc /= s
            log_scale += np.log(s)
    svals = np.linalg.svd(acc, compute_uv=False)
    with np.errstate(divide="ignore"):
        logs = np.log(svals) + log_scale
    return float(logs[-1] / n), float(logs[0] / n)


def backward_decay_check(
    gen: Generator,
    driving: DrivingSystem | None,
    window: OmegaWindow,
    report: SpectrumReport,
    i: int,
    n_past: int,
    *,
    burn: int = 50,
    v0: np.ndarray | None = None,
    fit_fraction: float = 0.2,
    cond_limit: float = 1e12,
    return_series: bool = False,
):
    """Fitted backward growth rate (1/n) log ||v_{-n}|| of the full orbit
    through v_0 in E_i; the contract is convergence to minus the block's
    exponent.

    The orbit is produced by inverting the one-step maps restricted to the
    fast sum E_1 ⊕ ... ⊕ E_i, within which the backward iteration is
    self-correcting toward E_i.  Raises RestrictedSingular when a restricted
    one-step factor has condition number above `cond_limit`.
    """
    if i < 1 or i > report.p:
        raise ValueError(f"block index {i} out of range 1..{report.p}")
    c_i = report.block_ends[i - 1]
    if window.n_past < n_past + burn:
        raise WindowTooShort(f"need {n_past + burn} past symbols, window has {window.n_past}")
    start = -(n_past + burn)
    # dominant directions at the far past, pushed forward while the upper
    # triangular one-step factors on the fast sum are recorded
    mats, symbols = gen.stack, window.symbols(start, 0)
    u_far, steps, _, _ = _propagate(mats, symbols, reverse=True)
    q = u_far[:, _rate_order(_mean_rates(steps, min(burn, len(symbols) // 2)))][:, :c_i]
    q, _, _, r_blocks = _propagate(mats, symbols, q, keep_r=True)
    r_blocks = r_blocks[burn:]
    # q now spans the fast sum at coordinate 0
    e_i = report.splitting[i - 1]
    v = e_i.frame[:, 0] if v0 is None else np.asarray(v0, dtype=float)
    a = q.T @ v
    resid = np.linalg.norm(v - q @ a)
    if resid > 1e-6 * np.linalg.norm(v):
        raise NonConvergence("v0 is not contained in the pushed fast sum")
    norms = np.empty(n_past + 1)
    norms[0] = 0.0
    log_norm = np.log(np.linalg.norm(a))
    a = a / np.linalg.norm(a)
    base = log_norm
    from scipy.linalg import solve_triangular

    for k in range(1, n_past + 1):
        r = r_blocks[-k]
        cond = np.linalg.cond(r)
        if not np.isfinite(cond) or cond > cond_limit:
            raise RestrictedSingular(
                f"restricted step at -{k} has condition number {cond:.3e}")
        a = solve_triangular(r, a, lower=False)
        na = np.linalg.norm(a)
        log_norm += np.log(na)
        a = a / na
        norms[k] = log_norm - base
    ks = np.arange(n_past + 1)
    skip = max(1, int(fit_fraction * n_past))
    slope = np.polyfit(ks[skip:], norms[skip:], 1)[0]
    if return_series:
        return float(slope), norms
    return float(slope)


def uniqueness_diagnostic(
    gen: Generator,
    driving: DrivingSystem | None,
    window: OmegaWindow,
    candidate: Subspace,
    report: SpectrumReport,
    i: int,
    n: int,
    *,
    tail: int | None = None,
) -> np.ndarray:
    """Decay series g(σ^k ω), k = 0..n, for a candidate equivariant family.

    g is the norm of the projection onto V_{i+1} along E_i ⊕ (faster blocks),
    restricted to the pushed-forward candidate.  For the report's own E_i the
    series stays at numerical zero; for a genuinely different equivariant
    candidate it decays geometrically at about the rate difference between
    blocks i and i+1.
    """
    if i < 1 or i > report.p:
        raise ValueError(f"block index {i} out of range 1..{report.p}")
    c_i = report.block_ends[i - 1]
    c_prev = 0 if i == 1 else report.block_ends[i - 2]
    m = gen.dim
    if c_i >= m:
        raise ValueError("the last block has no complementary filtration space")
    if candidate.d != report.multiplicities[i - 1]:
        raise NotComplementary("candidate dimension does not match the block")
    tail = report.n_used if tail is None else int(tail)
    if window.n_future < n + tail:
        raise WindowTooShort(f"need {n + tail} future symbols, window has {window.n_future}")
    n_past = report.n_past_used
    n_total = n_past + n + tail
    mats = gen.stack

    # one reverse pass: the far-past frame to push forward, and the
    # filtration frames at coordinates k = 0..n (after n + tail - k steps)
    _, steps, rev, _ = _propagate(mats, window.symbols(-n_past, n + tail), reverse=True,
                                  record={n_total, *range(tail, n + tail + 1)})
    u_far = rev[n_total][:, _rate_order(_mean_rates(steps, _default_burn(n_total)))]
    _, _, fw, _ = _propagate(mats, window.symbols(-n_past, n), u_far,
                             record=range(n_past, n_past + n + 1))
    # the candidate's pushes; a step collapses it when its smallest
    # |diag R| is below 1e-12 * max(1, largest |diag R|)
    _, cand_steps, cands, _ = _propagate(mats, window.symbols(0, n), candidate.frame,
                                         record=range(n + 1))
    collapsed = (cand_steps.min(axis=1)
                 <= np.log(1e-12) + np.maximum(cand_steps.max(axis=1), 0.0))

    out = np.empty(n + 1)
    for k in range(n + 1):
        qk = fw[n_past + k]
        t = n + tail - k
        wk = rev[t][:, _rate_order(_mean_rates(steps[:t]))]
        cand = cands[k]
        fast = Subspace(qk[:, :c_i])
        slow = Subspace(wk[:, c_i:])
        # the candidate must complement V_{i+1} within V_i: together with the
        # faster blocks it has to span the whole space
        check = np.hstack([qk[:, :c_prev], cand, wk[:, c_i:]])
        sv = np.linalg.svd(check, compute_uv=False)
        if check.shape[1] != m or sv[-1] < 1e-10:
            raise NotComplementary(
                f"candidate at step {k} fails the direct-sum precondition")
        proj = project_along(kernel=fast, range=slow)
        out[k] = np.linalg.norm(proj.matrix @ cand, 2)
        if k < n and collapsed[k]:
            raise NotComplementary(f"candidate collapses under the step at coordinate {k}")
    return out


@dataclass(frozen=True)
class PastDependenceReport:
    """Pairwise gaps between top-space estimates across windows sharing one
    future; a max gap bounded away from zero shows the top space is not a
    function of the future alone."""

    gaps: tuple[tuple[tuple[int, int], float], ...]
    max_gap: float
    commutator_norm: float
    exponent_gap_estimate: float
    top_spaces: tuple[Subspace, ...] = field(repr=False, default=())


def noncommuting_base_demo(
    a0: np.ndarray,
    a1: np.ndarray,
    pasts: Sequence[OmegaWindow],
    *,
    gap_tolerance: float = GAP_TOLERANCE,
) -> PastDependenceReport:
    """Estimate the top splitting space for each window (common future,
    different pasts) and report all pairwise gaps.

    Raises EqualExponents when the estimated top two exponents are not
    separated by `gap_tolerance` on some window, since then a one-dimensional
    top space is not resolved.
    """
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    if a0.shape != (2, 2) or a1.shape != (2, 2):
        raise DimensionMismatch("the demonstration is for 2x2 generators")
    for a in (a0, a1):
        if abs(np.linalg.det(a)) < 1e-12:
            raise ValueError("generators must be invertible")
    gen = Generator.from_list([a0, a1])
    commutator = float(np.linalg.norm(a0 @ a1 - a1 @ a0))
    futures = {w.future for w in pasts}
    if len(futures) != 1:
        raise ValueError("windows must share a common future")

    mats = gen.stack
    spaces = []
    per_window_gaps = []
    for w in pasts:
        n_p, n_f = w.n_past, w.n_future
        u_far, steps, _, _ = _propagate(mats, w.symbols(-n_p, n_f), reverse=True)
        rates = _mean_rates(steps, min(20, (n_p + n_f) // 5))
        per_window_gaps.append(abs(rates[0] - rates[1]))
        top = int(np.argmax(rates))
        spaces.append(Subspace(_propagate(mats, w.symbols(-n_p, 0), u_far[:, [top]])[0]))
    # One system-level separation estimate: the mean over sampled windows.
    gap_est = float(np.mean(per_window_gaps))
    if gap_est < gap_tolerance:
        raise EqualExponents(
            f"estimated exponent separation {gap_est:.3e} below {gap_tolerance}")

    gaps = []
    for ia in range(len(spaces)):
        for ib in range(ia + 1, len(spaces)):
            gaps.append(((ia, ib), gap(spaces[ia], spaces[ib])))
    max_gap = max(g for _, g in gaps) if gaps else 0.0
    return PastDependenceReport(
        gaps=tuple(gaps),
        max_gap=float(max_gap),
        commutator_norm=commutator,
        exponent_gap_estimate=gap_est,
        top_spaces=tuple(spaces),
    )


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep_reports(
    gen: Generator,
    driving: DrivingSystem,
    count: int,
    n_past: int = 200,
    n_future: int = 50,
    **kwargs,
) -> list[SpectrumReport]:
    """Splitting reports over `count` independently sampled windows.

    Window i uses the seed-derived stream i and windows run serially in
    index order, so the output is deterministic for a fixed (seed, count,
    parameters).
    """
    return [oseledets_splitting(gen, None, w, n_past, n_future, **kwargs)
            for w in driving.sample_windows(count, n_past, n_future)]
