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

The legal words of each depth are stored once, as the sorted array of their
base-A codes (`Sft.codes`); sorted codes are the lexicographic order of the
words, and every array aligned to words follows it.  In that order the words
that share a prefix are consecutive, and for a 1-step shift how many there are
depends only on the prefix's last symbol, so the maps between depths need no
search: a word ending in symbol a has N_j[a] legal j-symbol continuations
(`Sft.counts`), a greater depth is a run-length repeat by `Sft.runs`, and a
transfer step adds contiguous slices, one per run of legal transitions
s -> t, bounded by running sums of the counts (`Sft.slices`).  Codes are
int64, so a depth needs A^depth < 2^63.

The two cylinder kernels work on stacks of value rows, arrays of shape
(rows, W_depth) that hold one function of a common depth per row:
`_transfer_rows` applies a sequence of transfer steps to every row, and
`_prefix_tree_sup` returns one prefix-tree maximum per row, climbing the tree
only until no higher level can raise any row's maximum.  A single function
is the one-row case (`transfer_apply`, `transfer_apply_word`, `lip_theta`,
`distortion_check`), and `lipschitz_ly_check` sends its samples through them
in one stack per depth.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

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
        t = np.array(self.transitions, dtype=np.int8)  # a copy: frozen below
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
        """Every symbol reaches every other: the reachability closure of the
        transition graph is full."""
        return bool(_cocycle.reachability(self.transitions).all())

    def codes(self, depth: int) -> np.ndarray:
        """Sorted base-A codes sum_i w_i A^(depth-1-i) of the legal words of
        length `depth`; sorted codes list the words in lexicographic order."""
        key = ("codes", depth)
        if key not in self._cache:
            if depth < 1:
                raise ValueError("depth must be at least 1")
            if self.n_symbols ** depth >= 2 ** 63:
                raise ValueError(f"word codes need n_symbols^depth < 2^63; "
                                 f"{self.n_symbols}^{depth} is not")
            if depth == 1:
                out = np.arange(self.n_symbols, dtype=np.int64)
            else:
                prev = self.codes(depth - 1)
                # row-major order over (word, next symbol) keeps the codes sorted
                w, s = np.nonzero(self.transitions[prev % self.n_symbols])
                out = prev[w] * self.n_symbols + s
            self._cache[key] = out
        return self._cache[key]

    def digits(self, depth: int) -> np.ndarray:
        """Array (W_depth, depth): the symbols of every legal word, in code order."""
        powers = self.n_symbols ** np.arange(depth - 1, -1, -1, dtype=np.int64)
        return self.codes(depth)[:, None] // powers % self.n_symbols

    def legal_words(self, depth: int) -> list[Word]:
        return [tuple(w) for w in self.digits(depth).tolist()]

    def code(self, word: Sequence[int]) -> int:
        """Base-A code of a legal word."""
        return functools.reduce(lambda c, s: c * self.n_symbols + s, self.check_word(word), 0)

    def locate(self, depth: int, codes) -> np.ndarray:
        """Index in `codes(depth)` of every given code; IllegalWord when one is
        not the code of a legal depth-`depth` word."""
        table = self.codes(depth)
        pos = np.searchsorted(table, codes)
        if not np.all(np.take(table, pos, mode="clip") == codes):
            raise IllegalWord(f"not the code of a legal word of length {depth}")
        return pos

    def counts(self, j: int) -> np.ndarray:
        """N_j[a]: legal j-symbol continuations of a word ending in a; N_0 = 1, N_(j+1) = T N_j."""
        key = ("counts", j)
        if key not in self._cache:
            if j < 0:
                raise ValueError("need j >= 0")
            self._cache[key] = (np.ones(self.n_symbols, dtype=np.int64) if j == 0
                                else self.transitions.astype(np.int64) @ self.counts(j - 1))
        return self._cache[key]

    def runs(self, depth: int, d: int) -> np.ndarray:
        """Depth-`depth` words per d-word in code order: N_(depth-d)[a], a its last symbol."""
        if not 1 <= d <= depth:
            raise ValueError("need 1 <= d <= depth")
        return self.counts(depth - d)[self.codes(d) % self.n_symbols]

    def prefix_index(self, depth: int, d: int) -> np.ndarray:
        """Index at depth d of the d-prefix of every depth-`depth` word: each
        d-word repeated once per legal continuation."""
        runs = self.runs(depth, d)
        return np.repeat(np.arange(len(runs)), runs)

    def slices(self, depth: int) -> tuple[list[int], list[int]]:
        """(pair, block): the depth-(depth + 1) words s t ... start at code
        position pair[s A + t] and the depth-`depth` words t ... at block[t];
        running sums of the word counts N_(depth-1)[t] of each head."""
        key = ("slices", depth)
        if key not in self._cache:
            per_head = self.counts(depth - 1)
            pair = np.cumsum(self.transitions * per_head, axis=None)
            self._cache[key] = ([0] + pair.tolist(), [0] + np.cumsum(per_head).tolist())
        return self._cache[key]

    def representative_index(self, n: int, depth: int) -> np.ndarray:
        """Index at `depth` of the representative point of every depth-n cylinder."""
        key = ("representative", n, depth)
        if key not in self._cache:
            words = self.digits(n)
            # the greedy continuation depends only on the last symbol
            smallest_successor = np.argmax(self.transitions == 1, axis=1)
            tail = [words[:, -1]]
            for _ in range(depth - n):
                tail.append(smallest_successor[tail[-1]])
            greedy = np.column_stack([words] + tail[1:])[:, :depth]
            periodic = self.transitions[words[:, -1], words[:, 0]] == 1
            heads = np.where(periodic[:, None], words[:, np.arange(depth) % n], greedy)
            powers = self.n_symbols ** np.arange(depth - 1, -1, -1, dtype=np.int64)
            self._cache[key] = self.locate(depth, heads @ powers)
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
        while (nxt := int(np.argmax(self.transitions[tail[-1]]))) not in tail:
            tail.append(nxt)
        k = tail.index(nxt)
        return Point(self, word + tuple(tail[1:k + 1]), tuple(tail[k + 1:]) + (nxt,))


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

    Values are stored as an array aligned with ``sft.codes(depth)``, the
    sorted base-A codes of the legal words, which is their lexicographic
    order.  A mapping from word tuples is accepted on construction.
    """

    sft: Sft
    depth: int
    array: np.ndarray
    _lip: float | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        n_words = len(self.sft.codes(self.depth))
        arr = self.array
        if isinstance(arr, Mapping):
            if len(arr) != n_words:
                raise IllegalWord("values must be given on exactly the legal words")
            values = np.empty(n_words)
            values[[self._index(w) for w in arr]] = list(arr.values())
            arr = values
        else:
            arr = np.asarray(arr, dtype=float).copy()
            if arr.shape != (n_words,):
                raise IllegalWord("value array does not match the legal words")
        if not np.all(np.isfinite(arr)):
            raise ValueError("cylinder function values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, sft: Sft, c: float, depth: int = 1) -> "CylinderFunction":
        return cls(sft, depth, np.full(len(sft.codes(depth)), float(c)))

    @classmethod
    def indicator(cls, sft: Sft, word: Sequence[int]) -> "CylinderFunction":
        code, n = sft.code(word), len(word)
        arr = np.zeros(len(sft.codes(n)))
        arr[sft.locate(n, code)] = 1.0
        return cls(sft, n, arr)

    @classmethod
    def from_callable(cls, sft: Sft, depth: int,
                      fn: Callable[[Word], float]) -> "CylinderFunction":
        return cls(sft, depth, np.array([fn(w) for w in sft.legal_words(depth)],
                                        dtype=float))

    # -- access ---------------------------------------------------------------

    def _index(self, word: Sequence[int]) -> int:
        if len(word) != self.depth:
            raise IllegalWord(f"word {tuple(word)} is not of length {self.depth}")
        return int(self.sft.locate(self.depth, self.sft.code(word)))

    def value(self, word: Sequence[int]) -> float:
        return float(self.array[self._index(word)])

    def evaluate(self, x: Point) -> float:
        return self.value(x.head(self.depth))

    def with_depth(self, depth: int) -> "CylinderFunction":
        """Re-express at a greater or equal depth (exact)."""
        if depth < self.depth:
            raise ValueError("cannot reduce depth exactly")
        if depth == self.depth:
            return self
        return CylinderFunction(self.sft, depth,
                                np.repeat(self.array, self.sft.runs(depth, self.depth)))

    # -- norms ------------------------------------------------------------------

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.array)))

    def lip_theta(self) -> float:
        """Exact theta-Lipschitz seminorm.

        Pairs realizing the sup share a prefix p and differ right after it,
        so the sibling-subtree pass of `_prefix_tree_sup` finds it in time
        linear in the number of cylinders.
        """
        if self._lip is None:
            object.__setattr__(self, "_lip",
                               float(_lip_rows(self.sft, self.array[None], self.depth)[0]))
        return self._lip

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


def _prefix_tree_sup(sft: Sft, values: np.ndarray, depth: int, first: int,
                     offset: int, term: Callable[..., np.ndarray]) -> np.ndarray:
    """For every row of the stack `values` (rows, W_depth): the max over pairs
    of depth-`depth` words x, y that first differ at an index i >= `first` of
    term(...) / theta^(i - offset), and 0 if there is none.

    A pair first differing at index i lies in two sibling subtrees of the
    prefix tree at level i + 1.  The siblings of a level d are consecutive in
    code order, one run per (d-1)-word, as long as the successor count of
    that word's last symbol, so the ordered sibling pairs sit r = 1..A-1
    places apart inside a run.  `term(lo_a, hi_a, lo_b, hi_b)` gets the value
    extremes of the subtrees a and b of every ordered sibling pair and returns
    the largest pair term between them.  A bottom-up pass carries the
    extremes, a parent's being those of its run read at the offsets 0..A-1
    clamped to the run's end, so the cost is linear in the number of words.

    The pass stops early, with the same result: `term` must never exceed its
    value top = term(mn, mx, mn, mx) on the row's own min mn and max mx when
    both subtrees' extremes lie in [mn, mx].  The lip_theta form
    hi_a - lo_b <= mx - mn has this property, and so has the distortion
    form, whose ratios lie in [mn/mx, mx/mn] where |1 - ratio| peaks at an
    end; IEEE subtraction and division are monotone, so it holds after
    rounding too.  A level above d divides its pair terms by its scale
    theta^(level - 1 - offset), so none of them exceeds top over the
    smallest scale above d.  Once every row's maximum so far reaches that
    bound, no higher level can change it and the pass returns.  A row whose
    bound is not finite never stops the pass.
    """
    n_sym = sft.n_symbols
    levels = range(depth, first, -1)
    scales = [sft.theta ** (d - 1 - offset) for d in levels]
    # above[j]: the smallest scale of the levels after levels[j]
    above = list(itertools.accumulate(scales[:0:-1], min))[::-1]
    mn, mx = np.min(values, axis=1), np.max(values, axis=1)
    with np.errstate(all="ignore"):  # a bound that is not finite only keeps the pass going
        bounds = term(mn, mx, mn, mx) / np.array(above)[:, None]
    lo = hi = values
    best = np.zeros(len(values))
    for j, d in enumerate(levels):
        runs = sft.runs(d, d - 1) if d > 1 else np.array([n_sym])
        end = np.cumsum(runs) - 1
        start = end - runs + 1
        for r in range(1, n_sym):
            # the left member of each pair: offset q of every run longer than q + r
            i = np.concatenate([start[runs > q + r] + q for q in range(n_sym - r)])
            if len(i):
                lo_a, hi_a, lo_b, hi_b = lo[:, i], hi[:, i], lo[:, i + r], hi[:, i + r]
                pair_max = np.maximum(np.max(term(lo_a, hi_a, lo_b, hi_b), axis=1),
                                      np.max(term(lo_b, hi_b, lo_a, hi_a), axis=1))
                best = np.maximum(best, pair_max / scales[j])
        if j < len(bounds) and np.all(np.isfinite(bounds[j]) & (best >= bounds[j])):
            break
        lo_p, hi_p = lo[:, start], hi[:, start]
        for q in range(1, n_sym):
            child = np.minimum(start + q, end)
            lo_p = np.minimum(lo_p, lo[:, child])
            hi_p = np.maximum(hi_p, hi[:, child])
        lo, hi = lo_p, hi_p
    return best


def _lip_rows(sft: Sft, values: np.ndarray, depth: int) -> np.ndarray:
    """Exact theta-Lipschitz seminorm of every row of a depth-`depth` stack."""
    return _prefix_tree_sup(sft, values, depth, 0, 0,
                            lambda lo_a, hi_a, lo_b, hi_b: hi_a - lo_b)


class Weight(CylinderFunction):
    """A strictly positive cylinder function used as a transfer weight."""

    def __post_init__(self):
        super().__post_init__()
        if np.min(self.array) <= 0.0:
            raise ValueError("weights must be strictly positive")


# ---------------------------------------------------------------------------
# transfer operator, matrices, projections
# ---------------------------------------------------------------------------

def _transfer_rows(sft: Sft, weights: Sequence[CylinderFunction], values: np.ndarray,
                   depth: int) -> tuple[np.ndarray, int]:
    """Iterated transfer image of every row of the depth-`depth` stack `values`
    (rows, W_depth); weights[j] acts at step j.  Returns the image stack and
    its depth.  Each step is the weighted preimage sum of `transfer_apply`.

    At depth `full` = out_depth + 1 the words s t ... form one contiguous
    block, and so do the output words t ... ; for a legal s -> t the two are
    the same words in the same order.  So a step adds one slice per run
    t0..t1-1 of consecutive legal successors of s, in order of s, and every
    output value is a sum over its legal preimage symbols in order, starting
    at +0.0.  The slices come from `Sft.slices` and values and weights reach
    depth `full` by `Sft.runs`, so a step builds no index map and no search.
    """
    n_sym = sft.n_symbols
    # the runs of legal successors: the rises and falls of each transition row
    rows, ends = np.nonzero(np.diff(sft.transitions, axis=1, prepend=0, append=0))
    spans = list(zip(rows[::2].tolist(), ends[::2].tolist(), ends[1::2].tolist()))
    for g in weights:
        out_depth = max(1, max(depth, g.depth) - 1)
        full = out_depth + 1
        if depth < full:
            values = np.repeat(values, sft.runs(full, depth), axis=1)
        g_full = g.array if g.depth == full else np.repeat(g.array, sft.runs(full, g.depth))
        pair, block = sft.slices(out_depth)
        out = np.zeros((len(values), block[-1]))
        for s, t0, t1 in spans:
            src = slice(pair[s * n_sym + t0], pair[s * n_sym + t1])
            out[:, block[t0]:block[t1]] += values[:, src] * g_full[src]
        values, depth = out, out_depth
    return values, depth


def transfer_apply(sft: Sft, g: CylinderFunction, f: CylinderFunction) -> CylinderFunction:
    """Weighted preimage sum (P f)(x) = sum over one-step preimages y of
    f(y) g(y); exact, with output constant on cylinders of depth
    max(f.depth, g.depth) - 1 (at least 1)."""
    out, depth = _transfer_rows(sft, [g], f.array[None], f.depth)
    return CylinderFunction(sft, depth, out[0])


def _steps(weights: Sequence[CylinderFunction], n: int) -> Sequence[CylinderFunction]:
    """The weights of n transfer steps, weights[:n]; ValueError when n < 0 or
    there are fewer than n weights."""
    if n < 0:
        raise ValueError(f"the step count must be non-negative, got {n}")
    if len(weights) < n:
        raise ValueError(f"{n} steps need {n} weights, got {len(weights)}")
    return weights[:n]


def transfer_apply_word(sft: Sft, weights: Sequence[CylinderFunction],
                        f: CylinderFunction, n: int) -> CylinderFunction:
    """n-step iterated transfer image; weights[j] acts at step j."""
    out, depth = _transfer_rows(sft, _steps(weights, n), f.array[None], f.depth)
    return CylinderFunction(sft, depth, out[0])


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
    # column u is the image of the indicator of the (k-1)-word u
    image, _ = _transfer_rows(sft, [g], np.eye(len(sft.codes(k - 1))), k - 1)
    return image.T, sft.legal_words(k - 1)


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
    if len(weights) < k_max:
        raise ValueError(f"k_max = {k_max} needs {k_max} weights, got {len(weights)}")
    theta = sft.theta
    max_wdepth = max(w.depth for w in weights[:k_max])
    if depth + 1 < max_wdepth:
        raise ValueError("cylinder depth too shallow for the weight depth")
    c_bound = max(w.theta_norm() for w in weights[:k_max])
    gamma = min(float(np.min(w.array)) for w in weights[:k_max])
    r = c_bound / (gamma * (1.0 - theta))
    proof_bound = float(np.expm1(r))

    n_sym = sft.n_symbols
    per_k = []
    for k in range(1, k_max + 1):
        need = k + depth
        codes = sft.codes(need)
        # cumulative weight product as a depth-(need) cylinder function;
        # exact since every factor sees at most depth + 1 symbols: factor j
        # reads the window of length wj.depth starting at index j
        acc = np.ones(len(codes))
        for j, wj in enumerate(weights[:k]):
            window = codes // n_sym ** (need - j - wj.depth) % n_sym ** wj.depth
            acc *= wj.array[sft.locate(wj.depth, window)]
        # words vx, vy with |v| = k and x_0 = y_0 first differ at an index
        # i >= k + 1, where d(x, y) = theta^(i - k); the weights are positive,
        # so the subtree extremes give the largest |1 - g(vy)/g(vx)|
        per_k.append(float(_prefix_tree_sup(
            sft, acc[None], need, k + 1, k,
            lambda lo_a, hi_a, lo_b, hi_b: np.maximum(np.abs(1.0 - hi_b / lo_a),
                                                      np.abs(1.0 - lo_b / hi_a)))[0]))
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
    r_n: float | None = None,
) -> SmoothingReport:
    """Check |P^(n) f|_theta <= R_n (theta^n |f|_theta + K ||f||_inf).

    K defaults to max(2, feasible distortion constant) and R_n to `rn`: the
    `k_constant` and `r_n` of `norm_and_ic_bounds` for the same weights and
    n; pass those values to skip a second distortion pass and transfer.

    The samples go through the row kernels one stack per depth: one n-step
    `_transfer_rows` and two `_lip_rows` calls.  Both kernels work row by
    row, so every slack is the one a sample would get alone; the slacks keep
    the order of `f_samples`.
    """
    theta = sft.theta
    steps = _steps(weights, n)
    if r_n is None:
        r_n = rn(sft, weights, n)
    if k_constant is None:
        k_constant = _smoothing_constant(sft, weights, n)
    by_depth: dict[int, list[int]] = {}
    for j, f in enumerate(f_samples):
        by_depth.setdefault(f.depth, []).append(j)
    slacks = np.empty(len(f_samples))
    for depth, idx in by_depth.items():
        values = np.stack([f_samples[j].array for j in idx])
        lhs = _lip_rows(sft, *_transfer_rows(sft, steps, values, depth))
        rhs = r_n * (theta ** n * _lip_rows(sft, values, depth)
                     + k_constant * np.max(np.abs(values), axis=1))
        slacks[idx] = rhs - lhs
    return SmoothingReport(r_n=float(r_n), k_constant=float(k_constant),
                           slacks=tuple(slacks.tolist()))


@dataclass(frozen=True)
class NormSandwich:
    r_n: float
    op_norm_est: float
    op_norm_upper: float
    ic_lower_formula: float
    ic_lower_certified: float
    min_pairwise_distance: float
    ic_upper_bound: float
    k_constant: float


def _proper_nested_depths(sft: Sft, u: Point, k0: int, count: int) -> list[int]:
    """Depths 64 >= k >= k0 at which the cylinder about u properly shrinks:
    some other legal symbol can follow u's (k-1)-prefix."""
    out = []
    k = max(k0, 1)
    while len(out) < count and k <= 64:
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


def norm_and_ic_bounds(sft: Sft, weights: Sequence[CylinderFunction],
                       n: int) -> NormSandwich:
    """Operator-norm and index-of-compactness bounds for the n-step operator
    P^(n) in the norm ||f||_theta = max(|f|_theta, ||f||_inf).

    The certified lower side is exact: the family
    theta^(k_i + n - 1) 1_{C_k_i} o S^n, at the first 5 depths k_i where the
    cylinder about a maximizer of P^(n) 1 properly shrinks, has unit
    theta-norm and pairwise image distances at least (1/2) theta^n R_n, so
    the covering radius is at least a quarter of theta^n R_n.  `op_norm_est`
    is the largest ||P^(n) f||_theta / ||f||_theta over the constant 1 and
    that family, and `op_norm_upper` is (K + 1) R_n with the smoothing
    constant K = max(2, distortion) of `_smoothing_constant`.

    The upper side is proven: ic(P^(n)) <= R_n theta^n max(2 theta, 1).  Take
    ||f||_theta <= 1 and r = f - Pi_m f, where Pi_m is `cylinder_projection`
    onto depth m.  Every x shares its first m symbols with the representative
    point of its m-cylinder, so ||r||_inf <= theta^m.  Points x, y first
    differing at an index i >= m lie in one m-cylinder, where Pi_m f is
    constant, so |r(x) - r(y)| = |f(x) - f(y)| <= theta^i; for i < m,
    |r(x) - r(y)| <= 2 theta^m <= 2 theta theta^i.  So |r|_theta <=
    max(2 theta, 1).  The Lasota-Yorke inequality
    |P^(n) r|_theta <= R_n (theta^n |r|_theta + K ||r||_inf), which
    `lipschitz_ly_check` checks, holds with K = max(2, distortion), and the
    weights are positive, so ||P^(n) r||_inf <= R_n ||r||_inf.  P^(n) Pi_m
    has finite rank, so for every m
    ic(P^(n)) <= ||P^(n)(I - Pi_m)||_theta
             <= R_n max(theta^n max(2 theta, 1) + K theta^m, theta^m),
    and letting m -> infinity gives the bound, with no projection depth left
    in it.
    """
    if not sft.irreducible:
        raise NotIrreducible("the certificate construction needs irreducibility")
    theta = sft.theta
    one = CylinderFunction.constant(sft, 1.0)
    image1 = transfer_apply_word(sft, weights, one, n)
    r_n = image1.sup_norm()
    k_constant = _smoothing_constant(sft, weights, n)
    op_upper = (k_constant + 1.0) * r_n

    # certified separated family about a maximizer of P^(n) 1
    u = sft.representative(sft.digits(image1.depth)[int(np.argmax(image1.array))])
    depths = _proper_nested_depths(sft, u, image1.depth, 5)
    family = []
    for k in depths:
        # 1_{C_k} o S^n: the words whose last k symbols are u's k-prefix
        match = sft.codes(k + n) % sft.n_symbols ** k == sft.code(u.head(k))
        family.append(CylinderFunction(sft, k + n,
                                       np.where(match, theta ** (k + n - 1), 0.0)))
    for f in family:
        tn = f.theta_norm()
        if abs(tn - 1.0) > 1e-12:
            raise NotIrreducible(f"certificate function has theta-norm {tn} != 1")

    images = [transfer_apply_word(sft, weights, f, n) for f in family]
    op_est = max(image.theta_norm() / f.theta_norm()
                 for f, image in zip([one] + family, [image1] + images))
    dmin = min((a - b).theta_norm() for a, b in itertools.combinations(images, 2))
    return NormSandwich(
        r_n=float(r_n),
        op_norm_est=float(op_est),
        op_norm_upper=float(op_upper),
        ic_lower_formula=float(0.25 * theta ** n * r_n),
        ic_lower_certified=float(dmin / 2.0),
        min_pairwise_distance=float(dmin),
        ic_upper_bound=float(r_n * theta ** n * max(2.0 * theta, 1.0)),
        k_constant=float(k_constant),
    )


# ---------------------------------------------------------------------------
# the antisymmetric-weight family
# ---------------------------------------------------------------------------

def is_antisymmetric(f: CylinderFunction, tol: float = 0.0) -> bool:
    """f(complement of w) = -f(w) within tol; the complement swaps 0 and 1
    and must be legal."""
    if f.sft.n_symbols != 2:
        raise IllegalWord("antisymmetry is defined for two-symbol shifts")
    complement = f.sft.locate(f.depth, 2 ** f.depth - 1 - f.sft.codes(f.depth))
    return bool(np.all(np.abs(f.array[complement] + f.array) <= tol))


def is_monotone(f: CylinderFunction, tol: float = 0.0) -> bool:
    """f(w) <= f(u) + tol whenever w <= u symbol by symbol."""
    digits = f.sft.digits(f.depth)
    below = np.all(digits[:, None] <= digits[None], axis=2)
    return not np.any(below & (f.array[:, None] > f.array[None] + tol))


def antisymmetric_weight_pair(sft: Sft, h: CylinderFunction) -> Weight:
    """Weight with g(1x) = 1/2 + h(x) and g(0x) = 1 - g(1x) (exactly)."""
    if sft.n_symbols != 2:
        raise IllegalWord("antisymmetry is defined for two-symbol shifts")
    depth = h.depth + 1
    first, x = np.divmod(sft.codes(depth), 2 ** h.depth)
    sft.locate(depth, 2 ** h.depth + x)  # g(0x) needs the word 1x
    one_x = 0.5 + h.array[sft.locate(h.depth, x)]
    return Weight(sft, depth, np.where(first == 1, one_x, 1.0 - one_x))


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
            profiles.append(CylinderFunction(sft, 1, np.array([-a / 2, a / 2])))
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
                                       kappa_estimate=float(np.log(theta)))
    lambda1 = exps[0][0]
    lambda2 = exps[1][0] if len(exps) > 1 else float("-inf")
    # exact identity for f = 1_[1] - 1_[0] at the all-ones point
    f = CylinderFunction(sft, 1, np.array([-1.0, 1.0]))
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
