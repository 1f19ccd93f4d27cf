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

from array import array
from dataclasses import dataclass, field
from itertools import accumulate, combinations
from math import copysign, isfinite, sqrt
from typing import Sequence

import numpy as np

from .errors import (
    BlockDegeneracy,
    DegenerateSum,
    DimensionMismatch,
    EqualExponents,
    NonConvergence,
    NotComplementary,
    RestrictedSingular,
    WindowTooShort,
)
from .grassmann import (DIRECT_SUM_MIN_SV, Subspace, complement, direct_sum_min_sv, gap,
                        project_off)

GAP_TOLERANCE = 1e-3
CONVERGENCE_TOLERANCE = 1e-6
RESOLVABLE_FLOOR = -690.0  # per-step rates below exp underflow are unresolvable
# A Gram-Schmidt step of `_propagate` keeps a column when its squared norm
# after orthogonalisation exceeds GS_CANCEL2 times the one before (the column
# keeps more than 1e-10 of its length) and lies inside GS_NORM2_RANGE;
# otherwise `_qr_pos` redoes the step.
GS_CANCEL2 = 1e-20
GS_NORM2_RANGE = (1e-290, 1e290)
CHUNK = 4096  # uniforms or steps per block where one pass would need n-long temporaries


# ---------------------------------------------------------------------------
# driving and windows
# ---------------------------------------------------------------------------

def reachability(pattern) -> np.ndarray:
    """reach[i, j]: state j is reachable from state i (i included) along the
    positive entries of the square `pattern`, the closure (I + (pattern > 0))
    squared until it stops changing."""
    reach = np.eye(len(pattern), dtype=bool) | (np.asarray(pattern) > 0)
    while not np.array_equal(reach, closer := reach @ reach):
        reach = closer
    return reach


def single_closed_class(transition) -> bool:
    """Whether a square transition matrix's zero pattern has one closed class
    (one stationary law): as every state reaches a closed class and closed
    classes are disjoint, exactly when some state is reachable from every state."""
    return bool(reachability(transition).all(axis=0).any())


def _check_transition(t: np.ndarray) -> None:
    """ValueError unless `t` is square and row stochastic (finite,
    nonnegative, each row summing to 1 within 1e-12) with one closed class."""
    if not (t.ndim == 2 and t.shape[0] == t.shape[1] and np.all(t >= 0)
            and np.all(np.abs(t.sum(axis=1) - 1.0) <= 1e-12)):
        raise ValueError("transition matrix must be square, finite and row stochastic")
    if not single_closed_class(t):
        raise ValueError("transition matrix has several closed classes, "
                         "so its stationary law is not unique")


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
        if self.law == "markov":
            t = np.asarray(self.transition, dtype=float)
            _check_transition(t)
            if len(t) != self.alphabet_size:
                raise ValueError("transition matrix has wrong shape")
        elif self.law != "iid":
            raise ValueError(f"unknown law {self.law!r}")
        p = np.asarray(self.probs, dtype=float)
        if len(p) != self.alphabet_size:
            raise ValueError("law size does not match alphabet size")
        if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-12):
            raise ValueError("probabilities must be finite and nonnegative and sum to 1")
        if self.law == "markov" and np.max(np.abs(p @ t - p)) > 1e-10:
            raise ValueError("stationary vector is not a fixed left eigenvector")

    @classmethod
    def iid(cls, probs: Sequence[float], seed: int) -> "DrivingSystem":
        probs = tuple(float(x) for x in probs)
        return cls(alphabet_size=len(probs), law="iid", probs=probs,
                   transition=None, seed=int(seed))

    @classmethod
    def markov(cls, transition: Sequence[Sequence[float]], seed: int) -> "DrivingSystem":
        t = np.asarray(transition, dtype=float)
        _check_transition(t)
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
        (`probs` under i.i.d.), as a per-step `Generator.choice` would.  A
        Markov window inverts each chunk of uniforms through every row at
        once, then follows the chain through those candidates."""
        cdf = np.cumsum([self.probs, *(self.transition or ())], axis=1)
        cdf /= cdf[:, -1:]
        u = self.rng(stream).random(n_past + n_future)
        if self.law == "iid":
            seq = np.searchsorted(cdf[0], u, side="right")
        else:
            seq = np.empty(len(u), dtype=np.intp)
            seq[:1] = np.searchsorted(cdf[0], u[:1], side="right")
            for lo in range(1, len(u), CHUNK):
                s = int(seq[lo - 1])
                cands = zip(*(np.searchsorted(row, u[lo:lo + CHUNK], side="right").tolist()
                              for row in cdf[1:]))
                seq[lo:lo + CHUNK] = [s := c[s] for c in cands]
        seq.setflags(write=False)
        return OmegaWindow(seq, n_past)

    def sample_windows(self, count: int, n_past: int, n_future: int) -> list["OmegaWindow"]:
        """Window i is `sample_window(n_past, n_future, stream=i)`."""
        return [self.sample_window(n_past, n_future, stream=i) for i in range(count)]

    def sample_past_variants(self, count: int, n_past: int,
                             n_future: int) -> list["OmegaWindow"]:
        """Windows sharing the future of stream 0, with the past of stream
        1 + i in window i."""
        future = self.sample_window(0, n_future).seq
        pasts = (self.sample_window(n_past, 0, stream=1 + i).seq for i in range(count))
        return [OmegaWindow(np.concatenate([past, future]), n_past) for past in pasts]


@dataclass(frozen=True, eq=False)
class OmegaWindow:
    """A finite window of a two-sided symbol sequence.

    `seq` is a read-only int array of the symbols at coordinates -n_past,
    ..., n_future - 1 in order, so coordinate i is seq[n_past + i].
    """

    seq: np.ndarray
    n_past: int

    def __post_init__(self):
        seq = np.asarray(self.seq, dtype=np.intp)
        if seq.flags.writeable:
            seq = seq.copy()
            seq.setflags(write=False)
        if seq.ndim != 1 or not 0 <= self.n_past <= len(seq):
            raise ValueError("need a 1-d symbol array and 0 <= n_past <= its length")
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "n_past", int(self.n_past))

    @property
    def n_future(self) -> int:
        return len(self.seq) - self.n_past

    @property
    def future(self) -> np.ndarray:
        """The symbols at coordinates 0, ..., n_future - 1."""
        return self.seq[self.n_past:]

    def symbols(self, start: int, stop: int) -> np.ndarray:
        """The symbols at coordinates start, ..., stop - 1 as a read-only view;
        WindowTooShort when a coordinate lies outside the window."""
        if stop > start:
            if start < -self.n_past:
                raise WindowTooShort(f"coordinate {start} beyond past length {self.n_past}")
            if stop > self.n_future:
                raise WindowTooShort(
                    f"coordinate {stop - 1} beyond future length {self.n_future}")
            return self.seq[self.n_past + start:self.n_past + stop]
        return self.seq[:0]

    def symbol(self, i: int) -> int:
        return int(self.symbols(i, i + 1)[0])

    def shift(self, k: int = 1) -> "OmegaWindow":
        """The window of the shifted sequence: coordinate i reads old i + k."""
        if k > self.n_future:
            raise WindowTooShort("cannot shift past the end of the future")
        if -k > self.n_past:
            raise WindowTooShort("cannot shift before the start of the past")
        return OmegaWindow(self.seq, self.n_past + k)


@dataclass(frozen=True)
class Generator:
    """One matrix per driving symbol, kept as one read-only
    (alphabet_size, dim, dim) array `stack`; `matrices` are views of it."""

    matrices: tuple[np.ndarray, ...]
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mats = [np.array(a, dtype=float) for a in self.matrices]
        for a in mats:
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise DimensionMismatch("generator matrices must be square")
            if not np.all(np.isfinite(a)):
                raise ValueError("generator matrices must have finite entries")
            if a.shape != mats[0].shape:
                raise DimensionMismatch("generator matrices must share one dimension")
        stack = np.stack(mats)
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "matrices", tuple(stack))

    @classmethod
    def from_list(cls, matrices: Sequence[np.ndarray]) -> "Generator":
        return cls(tuple(matrices))

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    @property
    def alphabet_size(self) -> int:
        return len(self.stack)

    def matrix(self, symbol: int) -> np.ndarray:
        if not 0 <= symbol < len(self.stack):
            raise ValueError(f"symbol {symbol} outside the generator alphabet")
        return self.stack[symbol]


@dataclass(frozen=True)
class SpectrumReport:
    """Estimated exceptional spectrum with filtration and splitting frames.

    exponents/multiplicities describe the resolved blocks in decreasing order.
    `splitting` holds E_1, ..., E_p; the first c_i columns of the m×c_p frame
    `filtration_complement` span the orthogonal complement of V_{i+1}.  The
    residuals are, per block, the equivariance gaps, the self-applied
    uniqueness values and the convergence (Cauchy) gaps, plus the smallest
    singular value of [E_1, ..., E_p, V_{p+1}].  Every frame is at coordinate 0.
    """

    exponents: tuple[float, ...]
    multiplicities: tuple[int, ...]
    filtration_complement: np.ndarray = field(repr=False)
    splitting: tuple[Subspace, ...]
    equivariance: tuple[float, ...]
    uniqueness_g0: tuple[float, ...]
    cauchy_gap: tuple[float, ...]
    direct_sum_min_sv: float
    n_used: int
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
            if self.filtration_complement.shape != (m, sum(self.multiplicities)):
                raise DimensionMismatch("filtration complement frame is not m×c_p")

    @property
    def p(self) -> int:
        return len(self.exponents)

    @property
    def block_ends(self) -> tuple[int, ...]:
        return tuple(accumulate(self.multiplicities))

    @property
    def filtration(self) -> tuple[Subspace, ...]:
        """V_2, ..., V_{p+1} (V_{p+1} when nontrivial), built on read: V_{i+1}
        is spanned by W_{c_i:} and the complement of W."""
        w = self.filtration_complement
        slow = complement(w)
        return tuple(Subspace(np.hstack([w[:, c:], slow]))
                     for c in self.block_ends if c < len(w))


# ---------------------------------------------------------------------------
# products and QR passes
# ---------------------------------------------------------------------------

def _qr_pos(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q, r = np.linalg.qr(y)
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0
    return q * s, r * s[:, None]


def _closing_column(m: int, sig: float, *cols) -> tuple[float, float, float]:
    """The unit column, zero-padded to length 3, that completes the m - 1
    orthonormal columns `cols` (zero-padded 3-tuples) to an m×m frame of
    determinant `sig` = ±1."""
    if m == 1:
        return (sig, 0.0, 0.0)
    if m == 2:
        (x, y, _), = cols
        return (-sig * y, sig * x, 0.0)
    (x, y, z), (u, v, w) = cols
    return (sig * (y * w - z * v), sig * (z * u - x * w), sig * (x * v - y * u))


def _at_least(name: str, count: int, least: int) -> None:
    if count < least:
        raise ValueError(f"{name} must be at least {least}")


def compose(gen: Generator, window: OmegaWindow, n: int) -> np.ndarray:
    """The n-step product along the window starting at coordinate 0.

    n = 0 returns the identity (empty product convention); the factor for
    coordinate j is applied first for j = 0.
    """
    _at_least("n", n, 0)
    out = np.eye(gen.dim)
    for s in window.symbols(0, n):
        out = gen.matrix(s) @ out
    return out


def _default_burn(n: int) -> int:
    return min(100, n // 10)


def _propagate(mats, symbols, q=None, *, reverse=False, record=()):
    """The QR propagation loop: Q <- qr(A_s Q) for s in `symbols`, R > 0 on
    the diagonal.

    `mats` is the (alphabet, m, m) stack of generator matrices and `q` the
    m×k start frame (default: the identity).  With reverse=True the
    transposed factors are applied in reverse symbol order, so after t steps
    Q is the frame of the transposed product over the last t symbols.
    Returns the final Q, the per-step log|diag R| as a (steps, k) array and
    {t: Q after t steps} for t in `record`.

    There is one loop per number representation:
    - m <= 3: Gram-Schmidt, applied twice, on Python floats, with vectors
      zero-padded to length 3;
    - m > 3: numpy rows of Qᵀ, one per column.  A frame of at most 3 columns
      takes the same Gram-Schmidt with Python-float coefficients, a wider
      one the loop's QR step, one `_qr_pos` call.
    On m <= 3 a full frame (k = m, taken to be orthonormal) carries only its
    first m - 1 columns: |R_mm| = |det A_s| / (|R_11| ... |R_{m-1,m-1}|), with
    one `np.linalg.det` of the generator stack, and the last column is
    rebuilt from the others and det Q only where a frame is read.  A
    Gram-Schmidt step with a carried column that it cancels below 1e-10 of its
    length or whose squared norm leaves [1e-290, 1e290] (an exact zero pivot
    included), or a full frame's step with det A_s = 0 or not finite, is
    redone by `_qr_pos`, so singular generators keep exact -inf rates.  A
    near-singular last column of a full frame is not redone: its rate is the
    closed value.
    """
    if len(symbols) and not 0 <= symbols.min() <= symbols.max() < len(mats):
        raise ValueError("window symbol outside the generator alphabet")
    if reverse:
        mats, symbols = mats.transpose(0, 2, 1), symbols[::-1]
    m, n = mats.shape[1], len(symbols)
    q = np.eye(m) if q is None else q
    if q.ndim != 2 or q.shape[0] != m:
        raise DimensionMismatch(f"start frame of shape {q.shape} for {m}×{m} generators")
    k = q.shape[1]
    recorded = {0: q} if 0 in record else {}
    cancel, (lo, hi) = GS_CANCEL2, GS_NORM2_RANGE  # locals: read once per column
    diag = array("d")  # |R_jj| per step
    if m > 3:
        # Gram-Schmidt runs on contiguous rows; a wider frame keeps its rows a
        # view of the QR step's Q, as a copy changes how the next product rounds
        narrow = k <= 3
        rows = np.ascontiguousarray(q.T) if narrow else q.T
        for t, s in enumerate(symbols.tolist(), 1):
            y = rows @ mats[s].T if narrow else ()  # () goes to the QR step
            new = []
            for u in y:  # u is a view of one row of y, orthogonalised in place
                ny = nw = float(u.dot(u))
                if new:
                    for p in new + new:  # Gram-Schmidt twice
                        u -= float(p.dot(u)) * p
                    nw = float(u.dot(u))
                if not (cancel * ny < nw and lo < nw < hi):
                    break
                nrm = sqrt(nw)
                u /= nrm
                diag.append(nrm)
                new.append(u)
            if len(new) < k:  # the QR step; drops what Gram-Schmidt wrote
                del diag[(t - 1) * k:]
                qn, r = _qr_pos(mats[s] @ rows.T)
                y = np.ascontiguousarray(qn.T) if narrow else qn.T
                diag.extend(np.diag(r).tolist())
            rows = y
            if t in record:
                recorded[t] = rows.T
        q = rows.T
    else:
        # A full frame carries its first c = m - 1 columns and closes its last
        # by the determinant: |R_mm| = |det A_s| / (|R_11| ... |R_cc|).  Its
        # last column is `last` while the frame is whole (the start frame, or a
        # step redone by `_qr_pos`), else sig = det Q times the completion of
        # the others.  Per symbol, g is sign det A_s for a full frame (0 when
        # det A_s is 0 or not finite: the step is redone), else 1.
        full = k == m
        c = k - full
        dets = np.linalg.det(mats).tolist() if full else [1.0] * len(mats)
        padded = np.pad(mats, ((0, 0), (0, 3 - m), (0, 3 - m))).reshape(-1, 9).tolist()
        gens = [[*a, copysign(1.0, d) if d and isfinite(d) else 0.0, abs(d)]
                for a, d in zip(padded, dets)]

        def whole(qf):  # columns 1 and 2, the last column and sig of a whole frame
            cols = np.pad(qf.T, ((0, 0), (0, 3 - m))).tolist() + [[0.0] * 3] * 2
            return (*cols[0], *cols[1], cols[k - 1],
                    1.0 if not full or np.linalg.det(qf) > 0 else -1.0)

        def frame(e1, e2, last, sig):  # the columns as an (m, k) array
            cols = [e1, e2][:c]
            if full:
                cols.append(last or _closing_column(m, sig, *cols))
            return np.reshape(cols, (k, 3))[:, :m].T

        # the frame lives in fast locals: columns 1 and 2 as p0..p2, q0..q2
        p0, p1, p2, q0, q1, q2, last, sig = whole(q)
        put = diag.append
        for t, s in enumerate(symbols.tolist(), 1):
            a0, a1, a2, a3, a4, a5, a6, a7, a8, g, rm = gens[s]
            if c:  # column 1
                u, v, w = (a0 * p0 + a1 * p1 + a2 * p2, a3 * p0 + a4 * p1 + a5 * p2,
                           a6 * p0 + a7 * p1 + a8 * p2)
                nw = u * u + v * v + w * w
                if lo < nw < hi:
                    r1 = sqrt(nw)
                    u, v, w = u / r1, v / r1, w / r1
                else:
                    g = 0.0
            if c == 2 and g:  # column 2, Gram-Schmidt twice against column 1
                x, y, z = (a0 * q0 + a1 * q1 + a2 * q2, a3 * q0 + a4 * q1 + a5 * q2,
                           a6 * q0 + a7 * q1 + a8 * q2)
                ny = x * x + y * y + z * z
                d = u * x + v * y + w * z
                x, y, z = x - d * u, y - d * v, z - d * w
                d = u * x + v * y + w * z
                x, y, z = x - d * u, y - d * v, z - d * w
                nw = x * x + y * y + z * z
                if cancel * ny < nw and lo < nw < hi:
                    r2 = sqrt(nw)
                else:
                    g = 0.0
            if g:  # keep the step
                if c:
                    p0, p1, p2 = u, v, w
                    put(r1)
                    rm /= r1
                if c == 2:
                    q0, q1, q2 = x / r2, y / r2, z / r2
                    put(r2)
                    rm /= r2
                if full:
                    put(rm)
                    sig *= g
                    last = None
            else:  # redo the step with numpy
                qn, r = _qr_pos(mats[s] @ frame((p0, p1, p2), (q0, q1, q2), last, sig))
                diag.extend(np.diag(r).tolist())
                p0, p1, p2, q0, q1, q2, last, sig = whole(qn)
            if t in record:
                recorded[t] = frame((p0, p1, p2), (q0, q1, q2), last, sig)
        q = frame((p0, p1, p2), (q0, q1, q2), last, sig)
    steps = np.frombuffer(diag).reshape(n, k)
    with np.errstate(divide="ignore"):
        np.log(steps, out=steps)
    return recorded[n] if n in recorded else q, steps, recorded


def _mean_rates(steps: np.ndarray, burn: int = 0) -> np.ndarray:
    """Per-direction mean of the step log rates after the first `burn` steps.

    The sum runs in step order (np.sum's pairwise order would change the last
    bits of every reported rate), block by block so that no temporary is as
    long as `steps`; no kept steps give zero rates.
    """
    total = np.zeros(steps.shape[1])
    for i in range(burn, len(steps), CHUNK):
        total = np.cumsum(np.vstack([total, steps[i:i + CHUNK]]), axis=0)[-1]
    return total / max(len(steps) - burn, 1)


def _sorted_columns(q: np.ndarray, steps: np.ndarray,
                    burn: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The frame `q` with its columns in stable descending order of their mean
    step rates after `burn` steps, and those sorted rates.

    QR passes order columns asymptotically for mixing cocycles, but exactly
    reducible generators (block diagonal) never rotate columns, so the
    accumulated rates must be sorted before block grouping and slicing.
    """
    rates = _mean_rates(steps, burn)
    order = np.argsort(-rates, kind="stable")
    return q[:, order], rates[order]


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
    *,
    window: OmegaWindow | None = None,
    gap_tolerance: float = GAP_TOLERANCE,
    kappa_estimate: float | None = None,
) -> list[tuple[float, int]]:
    """Estimated Lyapunov exponents with multiplicities, in decreasing order.

    Long products are never formed: the QR-accumulated mean of log diagonal
    growth over steps (burn, n], burn = min(100, n // 10), estimates the log
    singular value rates of the n-step product.  Rates closer than
    `gap_tolerance` merge into one multiplicity block; blocks at or below
    `kappa_estimate` (when supplied) or below the floating-point floor are
    dropped.

    Parameters
    ----------
    gen, driving : the cocycle; `driving` may be omitted when `window` is given.
    n : number of steps (requires n future symbols).
    """
    _at_least("n", n, 1)
    if window is None:
        if driving is None:
            raise ValueError("need a driving system or an explicit window")
        window = driving.sample_window(0, n)
    q, steps, _ = _propagate(gen.stack, window.symbols(0, n))
    _, rates = _sorted_columns(q, steps, _default_burn(n))
    blocks = _group_blocks(rates, gap_tolerance)
    return _resolvable(blocks, kappa_estimate, gap_tolerance)


def directional_exponent(gen: Generator, window: OmegaWindow, n: int,
                         v: np.ndarray) -> float:
    """(1/n) log ||L^(n) v||, accumulated with per-step renormalization.

    `v` is a finite vector of length gen.dim: DimensionMismatch for another
    shape, ValueError for a non-finite entry.
    """
    _at_least("n", n, 1)
    v = np.asarray(v, dtype=float)
    if v.shape != (gen.dim,):
        raise DimensionMismatch(f"direction of shape {v.shape} for a {gen.dim}-dim generator")
    if not np.all(np.isfinite(v)):
        raise ValueError("direction has a non-finite entry")
    nv = np.linalg.norm(v)
    if nv == 0:
        return float("-inf")
    _, steps, _ = _propagate(gen.stack, window.symbols(0, n), (v / nv)[:, None])
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
) -> list[Subspace]:
    """Nested slow subspaces V_2 ⊃ V_3 ⊃ ... of the window at coordinate 0.

    V_{i+1} is spanned by the right-singular directions of the n-step forward
    product whose growth rates fall at or below the (i+1)-th spectrum block.
    The trailing space (below the last block) is included when nontrivial.
    """
    _at_least("n", n, 1)
    w, steps, _ = _propagate(gen.stack, window.symbols(0, n), reverse=True)
    w, rates = _sorted_columns(w, steps, _default_burn(n))
    m = gen.dim
    ends = list(accumulate(d for _, d in spectrum))
    if ends and ends[-1] > m:
        raise DimensionMismatch("spectrum multiplicities exceed dimension")
    _check_block_boundaries(rates, ends + [m], gap_tolerance, n)
    out = []
    for c in ends:
        if c < m:
            out.append(Subspace(w[:, c:]))
    return out


def _start_frame(m: int, width: int, lead: np.ndarray | None = None) -> np.ndarray:
    """The first `width` columns of one fixed orthonormal m-frame: the
    columns of `lead`, then a fixed-seed Gaussian draw, orthonormalised in
    that order.

    A random draw misses no direction except with probability zero, unlike
    coordinate axes (an invariant density can vanish on the first bins).
    Rows of the draw are filled in order, so frames of different widths are
    nested."""
    g = np.random.default_rng(0).standard_normal((width, m)).T
    if lead is not None:
        r = min(lead.shape[1], width)
        g[:, :r] = lead[:, :r]
    return _qr_pos(g)[0]


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
    blocks: int | None = None,
    start: np.ndarray | None = None,
) -> SpectrumReport:
    """Equivariant splitting at the window origin with diagnostics.

    Each E_i is the intersection of (a) the forward push of the dominant
    singular directions of the product started n_past steps in the past with
    (b) the forward filtration space V_i at the origin.  The report carries,
    per block, the equivariance residual gap(L E_i(ω), E_i(σω)), the Cauchy
    gap against the same construction at half the past length, and the
    self-applied uniqueness value (norm of the projection onto V_{i+1} along
    the fast sum, restricted to E_i).  V_{i+1} enters only through the c_i
    columns W_{:c_i} that span its orthogonal complement, so no m×m matrix is formed.

    `blocks` = p computes only the top p blocks (fewer when fewer are
    resolvable); the default computes every resolvable block.  With
    c_p = d_1 + ... + d_p, the reverse pass then tracks c_p + 1 columns (the
    last one resolves the gap below block p) and the forward pushes c_p.  It
    starts from p + 1 columns of one fixed random orthonormal frame, led by
    the columns of `start` when given, and doubles its width, up to m, while
    the tracked rates do not close block p.  A random frame misses a fast
    direction only with probability zero.  QR columns are nested, so blocks
    1..p agree up to rounding with those of blocks=m, which tracks all m
    columns of the same frame; the default pass starts from the coordinate
    axes instead, and agrees up to the start-frame transient of the rate
    estimates.  `start` should lead with directions known to reach the top
    block (the constant vector for a transfer operator's adjoint, which fixes
    it).  Only the checks of blocks 1..p run.

    Raises NonConvergence when a Cauchy gap exceeds `convergence_tolerance`,
    BlockDegeneracy when a block boundary is not resolved, and ValueError
    when n_past < 2 (the Cauchy check needs half the past) or `start` is
    given without `blocks`.
    """
    if blocks is not None and blocks < 1:
        raise ValueError("blocks must be at least 1")
    if start is not None and blocks is None:
        raise ValueError("start needs blocks: the default pass starts from the axes")
    _at_least("n_past", n_past, 2)
    if window is None:
        if driving is None:
            raise ValueError("need a driving system or an explicit window")
        window = driving.sample_window(n_past, n_future)
    m = gen.dim
    n_total = n_past + n_future
    burn = _default_burn(n_total) if burn_in is None else int(burn_in)
    half = n_past // 2
    t_half, t1 = n_future + half, max(n_future - 1, 0)
    mats = gen.stack

    # One reverse pass over [-n_past, n_future) gives the spectrum, and its
    # frame after t steps is that of the product over [n_future - t,
    # n_future): recorded at coordinates -n_past (pushed forward), -n_past/2
    # (pushed forward for the Cauchy check), 0 and 1 (the filtrations).  The
    # last block of a narrow pass may continue below its columns, so only
    # the blocks above it are closed; the pass is redone at twice the width
    # until p closed blocks are resolvable or a closed block is not.
    width = m if blocks is None else min(blocks + 1, m)
    while True:
        _, steps, rev = _propagate(
            mats, window.symbols(-n_past, n_future),
            None if blocks is None else _start_frame(m, width, start), reverse=True,
            record={n_total, t_half, n_future, t1})
        # spectrum from the full-window product, and its frame at -n_past
        u_far, rates = _sorted_columns(rev[n_total], steps, burn)
        grouped = _group_blocks(rates, gap_tolerance)
        closed = grouped if width == m else grouped[:-1]
        found = _resolvable(closed, kappa_estimate, gap_tolerance)
        if width == m or len(found) >= blocks or len(found) < len(closed):
            break
        width = min(2 * width, m)
    found = found[:blocks]
    if not found:
        raise BlockDegeneracy("no resolvable exponent blocks above the threshold")
    exponents = tuple(b[0] for b in found)
    mults = tuple(b[1] for b in found)
    ends = list(accumulate(mults))
    c_p = ends[-1]

    # filtration frames at coordinates 0 and 1 (W_{:c_i} spans V_{i+1}^⊥)
    w0, r0rates = _sorted_columns(rev[n_future], steps[:n_future])
    w1, _ = _sorted_columns(rev[t1], steps[:t1])
    _check_block_boundaries(r0rates, ends + [m], gap_tolerance, n_future)

    # fast frames at coordinates 0 and 1 (push-forward of the c_p far-past
    # directions the blocks use)
    _, _, fw = _propagate(mats, window.symbols(-n_past, 1), u_far[:, :c_p],
                          record={n_past, n_past + 1})
    q0, q1 = fw[n_past], fw[n_past + 1]

    def blockwise(qf, wf):
        # E_i = span(Q_{c_i}) ∩ V_i, where V_i is the orthogonal complement of
        # W_{:c_{i-1}}: Q_{c_i} times the last d_i right singular vectors of
        # W_{:c_{i-1}}^T Q_{c_i} (the identity when that matrix is empty, i = 1)
        spaces = []
        for c_prev, c_i in zip([0, *ends[:-1]], ends):
            vt = np.linalg.svd(wf[:, :c_prev].T @ qf[:, :c_i])[2]
            spaces.append(Subspace(qf[:, :c_i] @ vt[c_prev:].T))
        return spaces

    splitting = blockwise(q0, w0)
    splitting_next = blockwise(q1, w1)

    # equivariance residuals
    a0 = gen.matrix(window.symbol(0))
    equiv = []
    for e_now, e_next in zip(splitting, splitting_next):
        try:
            equiv.append(gap(Subspace.from_spanning(a0 @ e_now.frame), e_next))
        except DimensionMismatch:  # the step collapses E_i
            equiv.append(1.0)

    # uniqueness values for the report's own blocks
    g0 = [float(np.linalg.norm(project_off(q0[:, :c], w0[:, :c], e.frame), 2))
          if c < m else 0.0 for c, e in zip(ends, splitting)]

    # convergence (Cauchy) gaps against half the past length
    u_half, _ = _sorted_columns(rev[t_half], steps[:t_half], _default_burn(t_half))
    q_half = _propagate(mats, window.symbols(-half, 0), u_half[:, :c_p])[0]
    cauchy = [gap(e_full, e_half) for e_full, e_half in zip(splitting, blockwise(q_half, w0))]
    worst = max(cauchy)
    if worst > convergence_tolerance:
        raise NonConvergence(
            f"splitting Cauchy gap {worst:.3e} exceeds {convergence_tolerance:.3e}")

    f, w = np.hstack([e.frame for e in splitting]), w0[:, :c_p]
    return SpectrumReport(
        exponents=exponents,
        multiplicities=mults,
        filtration_complement=w,
        splitting=tuple(splitting),
        equivariance=tuple(equiv),
        uniqueness_g0=tuple(g0),
        cauchy_gap=tuple(cauchy),
        direct_sum_min_sv=direct_sum_min_sv(f, w),
        n_used=n_future,
        gap_tolerance=gap_tolerance,
    )


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def _step_factors(mats, symbols, q):
    """The final frame of the QR pass over `symbols` from the frame `q`, and
    the pass's R factors as one (steps, k, k) array.

    A_{s_t} Q_{t-1} = Q_t R_t makes R_t = Q_t^T A_{s_t} Q_{t-1}.  The product
    is cut to its upper triangle: the rounding below the diagonal, carried
    through a long product, mixes the directions of distinct rates and makes
    them look like one conformal block.
    """
    q, _, frames = _propagate(mats, symbols, q, record=range(len(symbols) + 1))
    qs = np.stack([frames[t] for t in range(len(symbols) + 1)])
    return q, np.triu(qs[1:].transpose(0, 2, 1) @ mats[symbols] @ qs[:-1])


def _log_top_sv(factors: np.ndarray) -> float:
    """log of the largest singular value of factors[-1] @ ... @ factors[0],
    accumulated with overflow-safe rescaling by the largest entry."""
    acc = np.eye(factors.shape[-1])
    log_scale = 0.0
    for r in factors:
        acc = r @ acc
        s = np.max(np.abs(acc))
        if s > 1e100 or (0 < s < 1e-100):
            acc /= s
            log_scale += np.log(s)
    with np.errstate(divide="ignore"):
        return float(np.log(np.linalg.svd(acc, compute_uv=False)[0]) + log_scale)


def uniform_growth_check(
    gen: Generator,
    window: OmegaWindow,
    e: Subspace,
    n: int,
) -> tuple[float, float]:
    """Extreme growth rates over the unit sphere of `e` under n steps.

    Returns (rate_inf, rate_sup): (1/n) log of the smallest and largest
    singular values of the product R_n ... R_1 of the QR factors of the
    product restricted to `e`.  The largest comes from that product, the
    smallest as the reciprocal of the largest of R_1^-1 ... R_n^-1, each
    accumulated with overflow-safe rescaling, so neither is lost below the
    rounding of the other.  rate_inf is -inf when a factor has an exact zero
    on its diagonal.  For an invariant family with a single exponent both
    rates approach that exponent.
    """
    _at_least("n", n, 1)
    factors = _step_factors(gen.stack, window.symbols(0, n), e.frame)[1]
    rate_sup = _log_top_sv(factors) / n
    if not np.all(np.diagonal(factors, axis1=1, axis2=2)):
        return float("-inf"), rate_sup
    # R_1^-1 ... R_n^-1 = inverses[0] @ ... @ inverses[-1]
    inverses = np.triu(np.linalg.inv(factors))
    return -_log_top_sv(inverses[::-1]) / n, rate_sup


def backward_decay_check(
    gen: Generator,
    window: OmegaWindow,
    report: SpectrumReport,
    i: int,
    n_past: int,
) -> float:
    """Fitted backward growth rate (1/n) log ||v_{-n}|| of the full orbit
    through v_0, the first frame column of E_i; the contract is convergence
    to minus the block's exponent.

    The orbit is produced by inverting the one-step maps restricted to the
    fast sum E_1 ⊕ ... ⊕ E_i, within which the backward iteration is
    self-correcting toward E_i.  The fast sum comes from a pass that starts
    50 steps before coordinate -n_past (so the window needs n_past + 50 past
    symbols); the rate is the least-squares slope of log ||v_{-k}|| over
    k = max(1, n_past // 5)..n_past, so n_past >= 2.  Raises RestrictedSingular
    when a restricted one-step factor has condition number above 1e12.
    """
    _at_least("n_past", n_past, 2)
    if i < 1 or i > report.p:
        raise ValueError(f"block index {i} out of range 1..{report.p}")
    c_i = report.block_ends[i - 1]
    burn = 50
    start = -(n_past + burn)
    # dominant directions at the far past, pushed forward with every frame
    # recorded for the upper triangular one-step factors on the fast sum
    mats, symbols = gen.stack, window.symbols(start, 0)
    u_far, steps, _ = _propagate(mats, symbols, reverse=True)
    q = _sorted_columns(u_far, steps, min(burn, len(symbols) // 2))[0][:, :c_i]
    q, r_blocks = _step_factors(mats, symbols, q)
    # q now spans the fast sum at coordinate 0
    v = report.splitting[i - 1].frame[:, 0]
    a = q.T @ v
    resid = np.linalg.norm(v - q @ a)
    if resid > 1e-6 * np.linalg.norm(v):
        raise NonConvergence("E_i is not contained in the pushed fast sum")
    norms = np.empty(n_past + 1)
    norms[0] = 0.0
    log_norm = np.log(np.linalg.norm(a))
    a = a / np.linalg.norm(a)
    base = log_norm
    for k in range(1, n_past + 1):
        r = r_blocks[-k]
        cond = np.linalg.cond(r)
        if not np.isfinite(cond) or cond > 1e12:
            raise RestrictedSingular(
                f"restricted step at -{k} has condition number {cond:.3e}")
        a = np.linalg.solve(r, a)
        na = np.linalg.norm(a)
        log_norm += np.log(na)
        a = a / na
        norms[k] = log_norm - base
    ks = np.arange(n_past + 1)
    skip = max(1, n_past // 5)
    return float(np.polyfit(ks[skip:], norms[skip:], 1)[0])


def uniqueness_diagnostic(
    gen: Generator,
    window: OmegaWindow,
    candidate: Subspace,
    report: SpectrumReport,
    i: int,
    n: int,
) -> np.ndarray:
    """Decay series g(σ^k ω), k = 0..n, for a candidate equivariant family.

    g is the norm of the projection onto V_{i+1} along E_i ⊕ (faster blocks),
    restricted to the pushed-forward candidate.  For the report's own E_i the
    series stays at numerical zero; for a genuinely different equivariant
    candidate it decays geometrically at about the rate difference between
    blocks i and i+1.  `report` must be this window's splitting: by
    equivariance the fast sum at k is the k-step push of its E_1 ⊕ ... ⊕ E_i
    (DimensionMismatch when rank deficient), and the filtration at k comes from
    the product over [k, n + n_used), so only coordinates 0..n + n_used - 1 are read.
    """
    _at_least("n", n, 0)
    if i < 1 or i > report.p:
        raise ValueError(f"block index {i} out of range 1..{report.p}")
    c_prev, c_i = (0, *report.block_ends)[i - 1:i + 1]
    if c_i >= gen.dim:
        raise ValueError("the last block has no complementary filtration space")
    if candidate.d != report.multiplicities[i - 1]:
        raise NotComplementary("candidate dimension does not match the block")
    tail, mats = report.n_used, gen.stack

    # the filtration frames at k = 0..n (after n + tail - k reverse steps), and
    # the pushed fast sum: QR columns are nested, so its first c_prev span the faster blocks
    _, steps, rev = _propagate(mats, window.symbols(0, n + tail), reverse=True,
                               record=range(tail, n + tail + 1))
    fast = Subspace.from_spanning(np.hstack([e.frame for e in report.splitting[:i]]))
    _, _, fw = _propagate(mats, window.symbols(0, n), fast.frame, record=range(n + 1))
    # the candidate's pushes; a step collapses it when its smallest
    # |diag R| is below 1e-12 * max(1, largest |diag R|)
    _, cand_steps, cands = _propagate(mats, window.symbols(0, n), candidate.frame,
                                      record=range(n + 1))
    collapsed = (cand_steps.min(axis=1)
                 <= np.log(1e-12) + np.maximum(cand_steps.max(axis=1), 0.0))

    out = np.empty(n + 1)
    for k in range(n + 1):
        qk, cand, t = fw[k], cands[k], n + tail - k
        wk = _sorted_columns(rev[t], steps[:t])[0][:, :c_i]
        # the candidate must complement V_{i+1} within V_i: together with the
        # faster blocks it has to span the whole space
        if direct_sum_min_sv(np.hstack([qk[:, :c_prev], cand]), wk) < DIRECT_SUM_MIN_SV:
            raise NotComplementary(f"candidate at step {k} fails the direct-sum precondition")
        out[k] = np.linalg.norm(project_off(qk, wk, cand), 2)
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


def counterexample_generator(a0, a1) -> Generator:
    """The demonstration's generator: two invertible 2×2 matrices.  Raises
    DimensionMismatch for another shape, ValueError for a singular matrix."""
    gen = Generator.from_list([a0, a1])
    if gen.dim != 2:
        raise DimensionMismatch("the demonstration is for 2x2 generators")
    if np.any(np.abs(np.linalg.det(gen.stack)) < 1e-12):
        raise ValueError("the demonstration's generators must be invertible")
    return gen


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
    gen = counterexample_generator(a0, a1)
    a0, a1 = gen.matrices
    commutator = float(np.linalg.norm(a0 @ a1 - a1 @ a0))
    if not pasts or any(not np.array_equal(w.future, pasts[0].future) for w in pasts):
        raise ValueError("windows must share a common future")

    mats, spaces, per_window_gaps = gen.stack, [], []
    for w in pasts:
        n_p, n_f = w.n_past, w.n_future
        u_far, steps, _ = _propagate(mats, w.symbols(-n_p, n_f), reverse=True)
        u_far, rates = _sorted_columns(u_far, steps, min(20, (n_p + n_f) // 5))
        per_window_gaps.append(rates[0] - rates[1])
        spaces.append(Subspace(_propagate(mats, w.symbols(-n_p, 0), u_far[:, :1])[0]))
    # One system-level separation estimate: the mean over sampled windows.
    gap_est = float(np.mean(per_window_gaps))
    if gap_est < gap_tolerance:
        raise EqualExponents(
            f"estimated exponent separation {gap_est:.3e} below {gap_tolerance}")

    gaps = tuple(((ia, ib), gap(a, b))
                 for (ia, a), (ib, b) in combinations(enumerate(spaces), 2))
    return PastDependenceReport(
        gaps=gaps,
        max_gap=max((g for _, g in gaps), default=0.0),
        commutator_norm=commutator,
        exponent_gap_estimate=gap_est,
        top_spaces=tuple(spaces),
    )
