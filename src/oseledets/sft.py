"""Weighted transfer operators on one-sided subshifts of finite type.

Functions constant on depth-n cylinders form an exact finite calculus for
these operators: applying a finite-depth weight to a cylinder function yields
another cylinder function with no approximation.  On top of that calculus
this module provides the metric d_theta, the projection onto cylinder depth n
with its contraction bounds, exact transfer matrices, the sup-image growth
sequence R_n, bounded-distortion and smoothing-inequality checks, operator
norm and covering-number sandwiches with constructed certificate families,
and the antisymmetric-weight family whose second exponent is computable in
closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.sparse.csgraph import connected_components
from scipy.sparse import csr_matrix

from . import cocycle as _cocycle
from .errors import (
    AmplitudeTooLarge,
    IllegalWord,
    NotAntisymmetric,
    NotIrreducible,
    NotMonotone,
)

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# shift spaces and points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sft:
    """One-step shift of finite type on n_symbols symbols with metric
    parameter theta in (0, 1); transitions[i, j] == 1 iff the word ij is legal."""

    n_symbols: int
    transitions: np.ndarray
    theta: float
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        t = np.asarray(self.transitions, dtype=np.int8)
        if t.shape != (self.n_symbols, self.n_symbols):
            raise ValueError("transition matrix shape mismatch")
        if not np.all((t == 0) | (t == 1)):
            raise ValueError("transitions must be 0/1")
        if np.any(t.sum(axis=0) == 0):
            raise ValueError("every symbol needs at least one predecessor")
        if np.any(t.sum(axis=1) == 0):
            raise ValueError("every symbol needs at least one successor")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        t.setflags(write=False)
        object.__setattr__(self, "transitions", t)

    @classmethod
    def full(cls, n_symbols: int, theta: float) -> "Sft":
        return cls(n_symbols, np.ones((n_symbols, n_symbols), dtype=np.int8), theta)

    @classmethod
    def golden_mean(cls, theta: float) -> "Sft":
        return cls(2, np.array([[1, 1], [1, 0]], dtype=np.int8), theta)

    @property
    def irreducible(self) -> bool:
        if "irreducible" not in self._cache:
            n, _ = connected_components(csr_matrix(self.transitions),
                                        directed=True, connection="strong")
            self._cache["irreducible"] = bool(n == 1)
        return self._cache["irreducible"]

    def legal(self, a: int, b: int) -> bool:
        return bool(self.transitions[a, b])

    def legal_words(self, depth: int) -> list[Word]:
        key = ("words", depth)
        if key in self._cache:
            return self._cache[key]
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if depth == 1:
            out = [(s,) for s in range(self.n_symbols)]
        else:
            prev = self.legal_words(depth - 1)
            out = [w + (s,) for w in prev for s in range(self.n_symbols)
                   if self.transitions[w[-1], s]]
        self._cache[key] = out
        return out

    def word_index(self, depth: int) -> dict[Word, int]:
        key = ("index", depth)
        if key not in self._cache:
            self._cache[key] = {w: i for i, w in enumerate(self.legal_words(depth))}
        return self._cache[key]

    def word_array(self, depth: int) -> np.ndarray:
        key = ("array", depth)
        if key not in self._cache:
            self._cache[key] = np.array(self.legal_words(depth), dtype=np.int64)
        return self._cache[key]

    def prefix_index(self, depth: int, d: int) -> np.ndarray:
        """Index at depth d of the d-prefix of every depth-`depth` word."""
        key = ("prefix", depth, d)
        if key not in self._cache:
            if not 1 <= d <= depth:
                raise ValueError("need 1 <= d <= depth")
            idx = self.word_index(d)
            self._cache[key] = np.array(
                [idx[w[:d]] for w in self.legal_words(depth)], dtype=np.int64)
        return self._cache[key]

    def extend_index(self, depth: int) -> np.ndarray:
        """Array (n_symbols, W_{depth-1}): index at `depth` of (s,) + w, or -1
        when the transition s -> w[0] is not legal."""
        key = ("extend", depth)
        if key not in self._cache:
            if depth < 2:
                raise ValueError("need depth >= 2")
            idx = self.word_index(depth)
            prev = self.legal_words(depth - 1)
            out = np.full((self.n_symbols, len(prev)), -1, dtype=np.int64)
            for j, w in enumerate(prev):
                for s in range(self.n_symbols):
                    if self.transitions[s, w[0]]:
                        out[s, j] = idx[(s,) + w]
            self._cache[key] = out
        return self._cache[key]

    def representative_index(self, n: int, depth: int) -> np.ndarray:
        """Index at `depth` of the representative point of every depth-n cylinder."""
        key = ("representative", n, depth)
        if key not in self._cache:
            idx = self.word_index(depth)
            self._cache[key] = np.array(
                [idx[self.representative(w).head(depth)] for w in self.legal_words(n)],
                dtype=np.int64)
        return self._cache[key]

    def check_word(self, word: Sequence[int]) -> Word:
        word = tuple(int(s) for s in word)
        if not word:
            raise IllegalWord("empty word")
        for s in word:
            if not 0 <= s < self.n_symbols:
                raise IllegalWord(f"symbol {s} outside alphabet")
        for a, b in zip(word, word[1:]):
            if not self.transitions[a, b]:
                raise IllegalWord(f"transition {a}{b} is not legal")
        return word

    def representative(self, word: Sequence[int]) -> "Point":
        """Deterministic point of the cylinder [word]: the periodic extension
        when legal, otherwise the greedy smallest-symbol legal continuation."""
        word = self.check_word(word)
        if self.transitions[word[-1], word[0]]:
            return Point(self, (), word)
        tail = [word[-1]]
        seen = {word[-1]: 0}
        while True:
            succ = np.nonzero(self.transitions[tail[-1]])[0]
            nxt = int(succ[0])
            if nxt in seen:
                k = seen[nxt]
                pre = word + tuple(tail[1:k + 1])
                cyc = tuple(tail[k + 1:]) + (nxt,)
                return Point(self, pre, cyc)
            tail.append(nxt)
            seen[nxt] = len(tail) - 1


@dataclass(frozen=True)
class Point:
    """An eventually periodic legal sequence: prefix then repeated cycle."""

    sft: Sft
    prefix: Word
    cycle: Word

    def __post_init__(self):
        if not self.cycle:
            raise IllegalWord("cycle must be nonempty")
        seq = self.prefix + self.cycle + (self.cycle[0],)
        self.sft.check_word(seq)

    def symbol(self, i: int) -> int:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def head(self, n: int) -> Word:
        return tuple(self.symbol(i) for i in range(n))

    def shift(self) -> "Point":
        if self.prefix:
            return Point(self.sft, self.prefix[1:], self.cycle)
        if len(self.cycle) == 1:
            return self
        return Point(self.sft, (), self.cycle[1:] + self.cycle[:1])


def d_theta(x: Point, y: Point) -> float:
    """theta^(first disagreement index); 0 when the sequences coincide."""
    if x.sft.theta != y.sft.theta:
        raise IllegalWord("points live on shifts with different metrics")
    horizon = (len(x.prefix) + len(y.prefix)
               + math.lcm(len(x.cycle), len(y.cycle)))
    limit = max(len(x.prefix), len(y.prefix)) + horizon
    for i in range(limit):
        if x.symbol(i) != y.symbol(i):
            return float(x.sft.theta ** i)
    return 0.0


# ---------------------------------------------------------------------------
# cylinder functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderFunction:
    """A function constant on depth-n cylinders.

    Values are stored as an array aligned with ``sft.legal_words(depth)``;
    the `values` property exposes the word -> value mapping.
    """

    sft: Sft
    depth: int
    array: np.ndarray
    _lip: float | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        words = self.sft.legal_words(self.depth)
        arr = self.array
        if isinstance(arr, Mapping):
            if set(arr) != set(words):
                raise IllegalWord("values must be given on exactly the legal words")
            arr = np.array([arr[w] for w in words], dtype=float)
        else:
            arr = np.asarray(arr, dtype=float).copy()
            if arr.shape != (len(words),):
                raise IllegalWord("value array does not match the legal words")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, sft: Sft, c: float, depth: int = 1) -> "CylinderFunction":
        return cls(sft, depth, np.full(len(sft.legal_words(depth)), float(c)))

    @classmethod
    def indicator(cls, sft: Sft, word: Sequence[int]) -> "CylinderFunction":
        word = sft.check_word(word)
        n = len(word)
        arr = np.zeros(len(sft.legal_words(n)))
        arr[sft.word_index(n)[word]] = 1.0
        return cls(sft, n, arr)

    @classmethod
    def from_callable(cls, sft: Sft, depth: int,
                      fn: Callable[[Word], float]) -> "CylinderFunction":
        return cls(sft, depth, np.array([fn(w) for w in sft.legal_words(depth)],
                                        dtype=float))

    # -- access ---------------------------------------------------------------

    @property
    def values(self) -> dict[Word, float]:
        return {w: float(v) for w, v in zip(self.sft.legal_words(self.depth),
                                            self.array)}

    def value(self, word: Sequence[int]) -> float:
        word = tuple(word)
        return float(self.array[self.sft.word_index(self.depth)[word]])

    def evaluate(self, x: Point) -> float:
        return self.value(x.head(self.depth))

    def with_depth(self, depth: int) -> "CylinderFunction":
        """Re-express at a greater or equal depth (exact)."""
        if depth < self.depth:
            raise ValueError("cannot reduce depth exactly")
        if depth == self.depth:
            return self
        return CylinderFunction(self.sft, depth,
                                self.array[self.sft.prefix_index(depth, self.depth)])

    # -- norms ------------------------------------------------------------------

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.array)))

    def lip_theta(self) -> float:
        """Exact theta-Lipschitz seminorm.

        Pairs realizing the sup share a prefix p and differ right after it;
        a bottom-up pass over the prefix tree carries subtree minima and
        maxima, so the cost is linear in the number of cylinders.
        """
        if self._lip is not None:
            return self._lip
        theta = self.sft.theta
        lo = self.array.copy()
        hi = self.array.copy()
        best = 0.0
        n_sym = self.sft.n_symbols
        for d in range(self.depth, 0, -1):
            if d == 1:
                parents = np.zeros(len(lo), dtype=np.int64)
                n_parents = 1
                child = self.sft.word_array(1)[:, 0]
            else:
                parents = self.sft.prefix_index(d, d - 1)
                n_parents = len(self.sft.legal_words(d - 1))
                child = self.sft.word_array(d)[:, -1]
            lo_s = np.full((n_sym, n_parents), np.inf)
            hi_s = np.full((n_sym, n_parents), -np.inf)
            for s in range(n_sym):
                sel = child == s
                lo_s[s, parents[sel]] = lo[sel]
                hi_s[s, parents[sel]] = hi[sel]
            scale = theta ** (d - 1)
            for a in range(n_sym):
                for b in range(n_sym):
                    if a == b:
                        continue
                    diff = hi_s[a] - lo_s[b]
                    finite = np.isfinite(diff)
                    if np.any(finite):
                        best = max(best, float(np.max(diff[finite])) / scale)
            lo = np.min(lo_s, axis=0)
            hi = np.max(hi_s, axis=0)
        object.__setattr__(self, "_lip", best)
        return best

    def theta_norm(self) -> float:
        return max(self.lip_theta(), self.sup_norm())

    # -- algebra ------------------------------------------------------------------

    def _zip(self, other, op) -> "CylinderFunction":
        depth = max(self.depth, other.depth)
        a, b = self.with_depth(depth), other.with_depth(depth)
        return CylinderFunction(self.sft, depth, op(a.array, b.array))

    def __add__(self, other):
        return self._zip(other, np.add)

    def __sub__(self, other):
        return self._zip(other, np.subtract)

    def __mul__(self, c: float):
        return CylinderFunction(self.sft, self.depth, self.array * float(c))

    __rmul__ = __mul__

    def isclose(self, other: "CylinderFunction", tol: float = 1e-12) -> bool:
        return (self - other).sup_norm() <= tol


class Weight(CylinderFunction):
    """A strictly positive cylinder function used as a transfer weight."""

    def __post_init__(self):
        super().__post_init__()
        if np.min(self.array) <= 0.0:
            raise ValueError("weights must be strictly positive")


# ---------------------------------------------------------------------------
# transfer operator, matrices, projections
# ---------------------------------------------------------------------------

def transfer_apply(sft: Sft, g: CylinderFunction, f: CylinderFunction) -> CylinderFunction:
    """Weighted preimage sum (P f)(x) = sum over one-step preimages y of
    f(y) g(y); exact, with output constant on cylinders of depth
    max(f.depth, g.depth) - 1 (at least 1)."""
    out_depth = max(1, max(f.depth, g.depth) - 1)
    full = out_depth + 1
    ext = sft.extend_index(full)
    pf = sft.prefix_index(full, f.depth)
    pg = sft.prefix_index(full, g.depth)
    out = np.zeros(len(sft.legal_words(out_depth)))
    for s in range(sft.n_symbols):
        idx = ext[s]
        legal = idx >= 0
        y = idx[legal]
        out[legal] += f.array[pf[y]] * g.array[pg[y]]
    return CylinderFunction(sft, out_depth, out)


def transfer_apply_word(sft: Sft, weights: Sequence[CylinderFunction],
                        f: CylinderFunction, n: int) -> CylinderFunction:
    """n-step iterated transfer image; weights[j] acts at step j."""
    out = f
    for j in range(n):
        out = transfer_apply(sft, weights[j], out)
    return out


def cylinder_projection(sft: Sft, f: CylinderFunction, n: int) -> CylinderFunction:
    """Projection onto depth-n cylinder functions by evaluation at the
    deterministic representative point of each depth-n cylinder (see
    `Sft.representative`); `f` is returned unchanged when its depth is at
    most n.  The evaluation is one gather through the cached
    `Sft.representative_index`.
    """
    if f.depth <= n:
        return f
    return CylinderFunction(sft, n, f.array[sft.representative_index(n, f.depth)])


def transfer_matrix(sft: Sft, g: CylinderFunction) -> tuple[np.ndarray, list[Word]]:
    """Exact matrix of the weighted transfer operator on depth-(k-1)
    cylinder functions, where k >= 2 is the weight depth (depth-1 weights are
    promoted to depth 2).  Returns (matrix, word basis); the operator action
    equals matrix @ value-vector exactly."""
    k = max(2, g.depth)
    g = g.with_depth(k)
    words = sft.legal_words(k - 1)
    index = sft.word_index(k - 1)
    mat = np.zeros((len(words), len(words)))
    for w in words:  # output word
        row = index[w]
        for s in range(sft.n_symbols):
            if not sft.transitions[s, w[0]]:
                continue
            u = ((s,) + w)[: k - 1]  # input word
            mat[row, index[u]] += g.value((s,) + w)
    return mat, words


def weight_generator(sft: Sft, weights: Sequence[CylinderFunction]) -> _cocycle.Generator:
    """Matrix cocycle generator from per-symbol weights (shared depth)."""
    depth = max(max(2, w.depth) for w in weights)
    mats = [transfer_matrix(sft, w.with_depth(depth))[0] for w in weights]
    return _cocycle.Generator.from_list(mats)


def rn(sft: Sft, weights: Sequence[CylinderFunction], n: int) -> float:
    """Sup norm of the n-step transfer image of the constant function 1."""
    return transfer_apply_word(sft, weights, CylinderFunction.constant(sft, 1.0), n).sup_norm()


# ---------------------------------------------------------------------------
# quantitative checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistortionReport:
    per_k: tuple[float, ...]
    feasible_d: float
    proof_bound: float


def distortion_check(sft: Sft, weights: Sequence[CylinderFunction], k_max: int,
                     depth: int) -> DistortionReport:
    """Max of |1 - g^(k)(vy)/g^(k)(vx)| / d(x, y) over same-first-symbol pairs
    at the given cylinder depth and all legal k-prefixes, for k = 1..k_max.

    For weights of finite depth at most `depth` + 1 the enumerated maximum is
    the true supremum.  Also reports the a-priori bound
    exp(C/(gamma (1-theta))) - 1 from the weight bounds (C = sup theta-norm,
    gamma = min value).
    """
    theta = sft.theta
    max_wdepth = max(w.depth for w in weights[:k_max])
    if depth + 1 < max_wdepth:
        raise ValueError("cylinder depth too shallow for the weight depth")
    c_bound = max(w.theta_norm() for w in weights[:k_max])
    gamma = min(float(np.min(w.array)) for w in weights[:k_max])
    r = c_bound / (gamma * (1.0 - theta))
    proof_bound = float(np.expm1(r))

    words = sft.legal_words(depth)
    arr = sft.word_array(depth)
    per_k = []
    for k in range(1, k_max + 1):
        need = k + depth
        # cumulative weight product as a depth-(need) cylinder function;
        # exact since every factor sees at most depth + 1 symbols
        acc = np.ones(len(sft.legal_words(need)))
        for j in range(k):
            wj = weights[j]
            idx = sft.word_index(wj.depth)
            shifted = np.array([idx[w[j: j + wj.depth]]
                                for w in sft.legal_words(need)], dtype=np.int64)
            acc *= wj.array[shifted]
        idx_need = sft.word_index(need)
        best = 0.0
        for v in sft.legal_words(k):
            xs = [i for i, w in enumerate(words) if sft.transitions[v[-1], w[0]]]
            if len(xs) < 2:
                continue
            vals = np.array([acc[idx_need[v + words[i]]] for i in xs])
            sub = arr[xs]
            for a in range(len(xs)):
                same_first = sub[:, 0] == sub[a, 0]
                distinct = (sub != sub[a]).any(axis=1)
                diff_pos = (sub != sub[a]).argmax(axis=1)
                sel = same_first & distinct
                if not np.any(sel):
                    continue
                ratios = np.abs(1.0 - vals[sel] / vals[a]) / theta ** diff_pos[sel]
                best = max(best, float(np.max(ratios)))
        per_k.append(best)
    return DistortionReport(per_k=tuple(per_k), feasible_d=float(max(per_k)),
                            proof_bound=proof_bound)


def _smoothing_constant(sft: Sft, weights: Sequence[CylinderFunction], n: int) -> float:
    """K = max(2, feasible distortion constant) of the n-step weight product:
    the distortion constant controls same-first-symbol pairs and the
    difference of two sup-bounded images controls the rest."""
    depth = max(max(w.depth for w in weights[:n]), 2)
    return max(2.0, distortion_check(sft, weights, n, depth).feasible_d)


@dataclass(frozen=True)
class SmoothingReport:
    r_n: float
    k_constant: float
    slacks: tuple[float, ...]


def lipschitz_ly_check(
    sft: Sft,
    weights: Sequence[CylinderFunction],
    n: int,
    f_samples: Sequence[CylinderFunction],
    *,
    k_constant: float | None = None,
) -> SmoothingReport:
    """Check |P^(n) f|_theta <= R_n (theta^n |f|_theta + K ||f||_inf).

    K defaults to max(2, feasible distortion constant), the `k_constant` of
    `norm_and_ic_bounds` for the same weights and n; pass that value to skip
    a second distortion pass.
    """
    theta = sft.theta
    r_n = rn(sft, weights, n)
    if k_constant is None:
        k_constant = _smoothing_constant(sft, weights, n)
    slacks = []
    for f in f_samples:
        image = transfer_apply_word(sft, weights, f, n)
        lhs = image.lip_theta()
        rhs = r_n * (theta ** n * f.lip_theta() + k_constant * f.sup_norm())
        slacks.append(float(rhs - lhs))
    return SmoothingReport(r_n=float(r_n), k_constant=float(k_constant),
                           slacks=tuple(slacks))


@dataclass(frozen=True)
class NormSandwich:
    r_n: float
    op_norm_est: float
    op_norm_upper: float
    ic_lower_formula: float
    ic_lower_certified: float
    min_pairwise_distance: float
    ic_upper_sampled: float
    k_constant: float
    sampled_caveat: str = ("ic_upper is a sampled lower bound of the "
                           "finite-rank upper bound")


def _proper_nested_depths(sft: Sft, u: Point, k0: int, count: int,
                          limit: int = 64) -> list[int]:
    """Depths k >= k0 at which the cylinder about u properly shrinks: some
    other legal symbol can follow u's (k-1)-prefix."""
    out = []
    k = max(k0, 1)
    while len(out) < count and k <= limit:
        if k == 1:
            branching = sft.n_symbols > 1
        else:
            succ = np.nonzero(sft.transitions[u.symbol(k - 2)])[0]
            branching = len(succ) > 1
        if branching:
            out.append(k)
        k += 1
    if len(out) < count:
        raise NotIrreducible("not enough proper nested cylinders about the point")
    return out


def norm_and_ic_bounds(
    sft: Sft,
    weights: Sequence[CylinderFunction],
    n: int,
    m_proj: int,
    *,
    n_samples: int = 200,
    sample_depth: int | None = None,
    family_size: int = 5,
    seed: int = 0,
) -> NormSandwich:
    """Operator-norm and covering-number bounds for the n-step operator.

    The certified side is exact: the family theta^(k_i + n - 1) 1_{C_k_i} ∘ S^n
    has unit theta-norm and pairwise image distances at least
    (1/2) theta^n R_n, so the covering radius is at least a quarter of
    theta^n R_n.  The upper bounds use the measured smoothing constant and a
    sampled sup over the finite-rank remainder (a lower bound of that upper
    bound; see `sampled_caveat`).
    """
    if not sft.irreducible:
        raise NotIrreducible("the certificate construction needs irreducibility")
    theta = sft.theta
    image1 = transfer_apply_word(sft, weights, CylinderFunction.constant(sft, 1.0), n)
    r_n = image1.sup_norm()
    k_constant = _smoothing_constant(sft, weights, n)
    op_upper = (k_constant + 1.0) * r_n

    # certified separated family about a maximizer of P^(n) 1
    best_word = sft.legal_words(image1.depth)[int(np.argmax(image1.array))]
    u = sft.representative(best_word)
    depths = _proper_nested_depths(sft, u, image1.depth, family_size)
    family = []
    for k in depths:
        head = u.head(k)
        total = k + n
        warr = sft.word_array(total)
        match = np.all(warr[:, n:] == np.array(head), axis=1)
        family.append(CylinderFunction(sft, total,
                                       np.where(match, theta ** (k + n - 1), 0.0)))
    for f in family:
        tn = f.theta_norm()
        if abs(tn - 1.0) > 1e-12:
            raise NotIrreducible(f"certificate function has theta-norm {tn} != 1")

    rng = np.random.default_rng(seed)
    sample_depth = (m_proj + 2) if sample_depth is None else sample_depth
    n_words = len(sft.legal_words(sample_depth))
    samples = [CylinderFunction.constant(sft, 1.0)] + list(family)
    for _ in range(n_samples):
        samples.append(CylinderFunction(sft, sample_depth,
                                        rng.uniform(-1.0, 1.0, size=n_words)))
    op_est = 0.0
    ic_upper = 0.0
    for f in samples:
        norm = f.theta_norm()
        if norm <= 0:
            continue
        f = f * (1.0 / norm)
        image = transfer_apply_word(sft, weights, f, n)
        op_est = max(op_est, image.theta_norm())
        resid = f - cylinder_projection(sft, f, m_proj)
        ic_upper = max(ic_upper,
                       transfer_apply_word(sft, weights, resid, n).theta_norm())

    images = [transfer_apply_word(sft, weights, f, n) for f in family]
    dmin = np.inf
    for ia in range(len(images)):
        for ib in range(ia + 1, len(images)):
            dmin = min(dmin, (images[ia] - images[ib]).theta_norm())
    return NormSandwich(
        r_n=float(r_n),
        op_norm_est=float(op_est),
        op_norm_upper=float(op_upper),
        ic_lower_formula=float(0.25 * theta ** n * r_n),
        ic_lower_certified=float(dmin / 2.0),
        min_pairwise_distance=float(dmin),
        ic_upper_sampled=float(ic_upper),
        k_constant=float(k_constant),
    )


# ---------------------------------------------------------------------------
# the antisymmetric-weight family
# ---------------------------------------------------------------------------

def _complement_word(w: Word) -> Word:
    return tuple(1 - s for s in w)


def is_antisymmetric(f: CylinderFunction, tol: float = 0.0) -> bool:
    if f.sft.n_symbols != 2:
        raise IllegalWord("antisymmetry is defined for two-symbol shifts")
    return all(abs(f.value(_complement_word(w)) + v) <= tol
               for w, v in f.values.items())


def is_monotone(f: CylinderFunction, tol: float = 0.0) -> bool:
    words = f.sft.legal_words(f.depth)
    for w, u in itertools.combinations(words, 2):
        if all(a <= b for a, b in zip(w, u)):
            if f.value(w) > f.value(u) + tol:
                return False
        elif all(a >= b for a, b in zip(w, u)):
            if f.value(u) > f.value(w) + tol:
                return False
    return True


def antisymmetric_weight_pair(sft: Sft, h: CylinderFunction) -> Weight:
    """Weight with g(1x) = 1/2 + h(x) and g(0x) = 1 - g(1x) (exactly)."""
    depth = h.depth + 1
    idx = sft.word_index(depth)
    arr = np.zeros(len(sft.legal_words(depth)))
    for w in sft.legal_words(depth):
        if w[0] == 1:
            arr[idx[w]] = 0.5 + h.value(w[1:][: h.depth])
    for w in sft.legal_words(depth):
        if w[0] == 0:
            arr[idx[w]] = 1.0 - arr[idx[(1,) + w[1:]]]
    return Weight(sft, depth, arr)


@dataclass(frozen=True)
class AntisymmetricExample:
    sft: Sft
    weights: tuple[Weight, ...]
    generator: _cocycle.Generator
    lambda1: float
    lambda2: float
    identity_residual: float
    amplitudes: tuple[float, ...]


def antisymmetric_example(
    a_profile: Sequence[float] | Sequence[CylinderFunction],
    driving: _cocycle.DrivingSystem,
    *,
    theta: float = 0.5,
    n: int = 100_000,
    gap_tolerance: float = _cocycle.GAP_TOLERANCE,
) -> AntisymmetricExample:
    """The two-symbol family g(1x) = 1/2 + h(x), g(0x) = 1/2 - h(x).

    `a_profile` gives one profile per driving symbol: either an amplitude a
    (h(x) = (a/2)(2 x_0 - 1), so the slot matrix has eigenvalues 1 and a) or
    an explicit cylinder function h.  Every profile must be antisymmetric,
    monotone, and bounded strictly below 1/2 in sup norm.  Row sums of every
    transfer matrix are exactly 1, the top exponent is 0, and the second
    exponent is the driving average of the log contraction factors.

    The identity residual reports |P f(111...) - (2 g(111...) - 1) f(111...)|
    for f = 1_[1] - 1_[0] under the first weight (an exact identity).
    """
    sft = Sft.full(2, theta)
    profiles: list[CylinderFunction] = []
    amplitudes = []
    for item in a_profile:
        if isinstance(item, CylinderFunction):
            profiles.append(item)
        else:
            a = float(item)
            profiles.append(CylinderFunction(sft, 1, {(0,): -a / 2, (1,): a / 2}))
        amplitudes.append(2.0 * profiles[-1].sup_norm())
    if len(profiles) != driving.alphabet_size:
        raise ValueError("one profile per driving symbol is required")
    for h in profiles:
        if 2.0 * h.sup_norm() >= 1.0:
            raise AmplitudeTooLarge("need sup |h| < 1/2")
        if not is_antisymmetric(h):
            raise NotAntisymmetric("profile is not antisymmetric")
        if not is_monotone(h):
            raise NotMonotone("profile is not monotone")
    weights = tuple(antisymmetric_weight_pair(sft, h) for h in profiles)
    one = CylinderFunction.constant(sft, 1.0)
    for g in weights:
        image = transfer_apply(sft, g, one)
        if np.any(image.array != 1.0):
            raise AmplitudeTooLarge("stochasticity failed: P 1 != 1 exactly")
    gen = weight_generator(sft, weights)
    # P 1 = 1 exactly, so the sup-image growth is 1 and the covering-number
    # rate is log(theta): blocks at or below it are not exceptional.
    exps = _cocycle.lyapunov_exponents(gen, driving, n=n,
                                       gap_tolerance=gap_tolerance,
                                       kappa_estimate=float(np.log(theta)))
    lambda1 = exps[0][0]
    lambda2 = exps[1][0] if len(exps) > 1 else float("-inf")
    # exact identity for f = 1_[1] - 1_[0] at the all-ones point
    f = CylinderFunction(sft, 1, {(0,): -1.0, (1,): 1.0})
    ones = Point(sft, (), (1,))
    g0 = weights[0]
    lhs = transfer_apply(sft, g0, f).evaluate(ones)
    rhs = (2.0 * g0.value(ones.head(g0.depth)) - 1.0) * f.evaluate(ones)
    return AntisymmetricExample(
        sft=sft,
        weights=weights,
        generator=gen,
        lambda1=float(lambda1),
        lambda2=float(lambda2),
        identity_residual=float(abs(lhs - rhs)),
        amplitudes=tuple(amplitudes),
    )
