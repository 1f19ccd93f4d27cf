import itertools
from typing import Callable

import numpy as np
import pytest

from oseledets import cocycle as cc
from oseledets import sft as sf
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
    NormSandwich,
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


def test_sft_copies_transitions():
    t = np.array([[1, 1], [1, 0]], dtype=np.int8)
    gm = Sft(2, t, 0.5)
    assert t.flags.writeable and not gm.transitions.flags.writeable
    t[1, 1] = 1
    assert gm.transitions[1, 1] == 0


def test_value_rejects_words_not_legal_at_its_depth():
    gm = Sft.golden_mean(0.5)
    f = CylinderFunction(gm, 2, np.arange(3.0))
    assert [f.value(w) for w in gm.legal_words(2)] == [0.0, 1.0, 2.0]
    for word in ((1, 1), (0,), (5, 0), (0, 0, 0), ()):
        with pytest.raises(IllegalWord):
            f.value(word)
    with pytest.raises(IllegalWord):
        CylinderFunction(gm, 2, {(0, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0})


def test_fewer_weights_than_steps_rejected():
    ws = [stochastic_weight(0.8)] * 2
    with pytest.raises(ValueError, match="3 weights"):
        transfer_apply_word(FULL, ws, CylinderFunction.constant(FULL, 1.0), 3)
    with pytest.raises(ValueError, match="3 weights"):
        distortion_check(FULL, ws, 3, 2)
    # with R_n and K passed, no transfer_apply_word call sees the weights
    with pytest.raises(ValueError, match="3 weights"):
        lipschitz_ly_check(FULL, ws, 3, [CylinderFunction.constant(FULL, 1.0)],
                           r_n=1.0, k_constant=2.0)


# -- word codes against the tuple and dict reference ---------------------------------
# The reference functions below are the tuple-and-dict cylinder calculus the
# code arrays replaced; the tests require exact equality with them.

CODE_SHIFTS = {
    "full2": Sft.full(2, 0.5),
    "full3": Sft.full(3, 0.4),
    "golden": Sft.golden_mean(0.6),
    "sparse3": Sft(3, np.array([[0, 1, 1], [1, 0, 0], [0, 1, 0]]), 0.5),
}


def ref_words(sft, depth):
    if depth == 1:
        return [(s,) for s in range(sft.n_symbols)]
    return [w + (s,) for w in ref_words(sft, depth - 1)
            for s in range(sft.n_symbols) if sft.transitions[w[-1], s]]


def ref_index(sft, depth):
    return {w: i for i, w in enumerate(ref_words(sft, depth))}


def ref_prefix_index(sft, depth, d):
    idx = ref_index(sft, d)
    return np.array([idx[w[:d]] for w in ref_words(sft, depth)], dtype=np.int64)


def ref_extend_index(sft, depth):
    idx = ref_index(sft, depth)
    prev = ref_words(sft, depth - 1)
    out = np.full((sft.n_symbols, len(prev)), -1, dtype=np.int64)
    for j, w in enumerate(prev):
        for s in range(sft.n_symbols):
            if sft.transitions[s, w[0]]:
                out[s, j] = idx[(s,) + w]
    return out


def ref_representative_index(sft, n, depth):
    idx = ref_index(sft, depth)
    return np.array([idx[sft.representative(w).head(depth)] for w in ref_words(sft, n)],
                    dtype=np.int64)


def ref_distortion_per_k(sft, weights, k_max, depth):
    theta = sft.theta
    words = ref_words(sft, depth)
    arr = np.array(words, dtype=np.int64)
    per_k = []
    for k in range(1, k_max + 1):
        need = k + depth
        acc = np.ones(len(ref_words(sft, need)))
        for j in range(k):
            wj = weights[j]
            idx = ref_index(sft, wj.depth)
            acc *= wj.array[[idx[w[j: j + wj.depth]] for w in ref_words(sft, need)]]
        idx_need = ref_index(sft, need)
        best = 0.0
        for v in ref_words(sft, k):
            xs = [i for i, w in enumerate(words) if sft.transitions[v[-1], w[0]]]
            if len(xs) < 2:
                continue
            vals = np.array([acc[idx_need[v + words[i]]] for i in xs])
            sub = arr[xs]
            for a in range(len(xs)):
                sel = (sub[:, 0] == sub[a, 0]) & (sub != sub[a]).any(axis=1)
                if np.any(sel):
                    diff_pos = (sub != sub[a]).argmax(axis=1)
                    ratios = np.abs(1.0 - vals[sel] / vals[a]) / theta ** diff_pos[sel]
                    best = max(best, float(np.max(ratios)))
        per_k.append(best)
    return tuple(per_k)


def ref_prefix_tree_sup(sft: Sft, values: np.ndarray, depth: int, first: int,
                        offset: int, term: Callable[..., np.ndarray]) -> float:
    # the one-function prefix-tree pass the row pass replaced: per level, the
    # subtree extremes in (symbol, parent) tables padded with +-inf and the
    # ordered sibling pairs from a 3-D nonzero
    n_sym = sft.n_symbols
    off_diagonal = ~np.eye(n_sym, dtype=bool)[:, :, None]
    lo = hi = values
    best = 0.0
    for d in range(depth, first, -1):
        parents = sft.prefix_index(d, d - 1) if d > 1 else np.zeros(n_sym, dtype=np.int64)
        child = sft.codes(d) % n_sym
        lo_s = np.full((n_sym, parents[-1] + 1), np.inf)
        hi_s = np.full((n_sym, parents[-1] + 1), -np.inf)
        lo_s[child, parents] = lo
        hi_s[child, parents] = hi
        present = np.isfinite(lo_s)
        a, b, p = np.nonzero(present[:, None] & present[None] & off_diagonal)
        if len(p):
            best = max(best, float(np.max(term(lo_s[a, p], hi_s[a, p],
                                                lo_s[b, p], hi_s[b, p])))
                       / sft.theta ** (d - 1 - offset))
        lo = np.min(lo_s, axis=0)
        hi = np.max(hi_s, axis=0)
    return best


def ref_row_prefix_tree_sup(sft: Sft, values: np.ndarray, depth: int, first: int,
                            offset: int, term: Callable[..., np.ndarray]) -> np.ndarray:
    # the row pass before its early exit: every level up to `first` + 1, with
    # the sibling runs of `prefix_index(d, d - 1)`
    n_sym = sft.n_symbols
    lo = hi = values
    best = np.zeros(len(values))
    for d in range(depth, first, -1):
        parents = sft.prefix_index(d, d - 1) if d > 1 else np.zeros(n_sym, dtype=np.int64)
        scale = sft.theta ** (d - 1 - offset)
        for r in range(1, n_sym):
            i = np.flatnonzero(parents[r:] == parents[:-r])
            if len(i):
                lo_a, hi_a, lo_b, hi_b = lo[:, i], hi[:, i], lo[:, i + r], hi[:, i + r]
                pair_max = np.maximum(np.max(term(lo_a, hi_a, lo_b, hi_b), axis=1),
                                      np.max(term(lo_b, hi_b, lo_a, hi_a), axis=1))
                best = np.maximum(best, pair_max / scale)
        sizes = np.bincount(parents)
        end = np.cumsum(sizes) - 1
        start = end - sizes + 1
        lo_p, hi_p = lo[:, start], hi[:, start]
        for q in range(1, n_sym):
            child = np.minimum(start + q, end)
            lo_p = np.minimum(lo_p, lo[:, child])
            hi_p = np.maximum(hi_p, hi[:, child])
        lo, hi = lo_p, hi_p
    return best


def ref_transfer_apply(sft, g, f):
    # the one-function transfer step the row transfer replaced: a masked
    # accumulation over the legal preimages only
    out_depth = max(1, max(f.depth, g.depth) - 1)
    full = out_depth + 1
    ext = ref_extend_index(sft, full)
    pf = ref_prefix_index(sft, full, f.depth)
    pg = ref_prefix_index(sft, full, g.depth)
    out = np.zeros(len(sft.codes(out_depth)))
    for s in range(sft.n_symbols):
        idx = ext[s]
        legal = idx >= 0
        y = idx[legal]
        out[legal] += f.array[pf[y]] * g.array[pg[y]]
    return out


def ref_transfer_matrix(sft, g):
    # the per-symbol loop that built `transfer_matrix` before it became the
    # row transfer of the identity: entry (w, u) is g(y) for each legal
    # y = (s,) + w, where u is the (k-1)-prefix of y
    k = max(2, g.depth)
    gk = g.array[ref_prefix_index(sft, k, g.depth)]
    ext = ref_extend_index(sft, k)
    pf = ref_prefix_index(sft, k, k - 1)
    rows = np.arange(ext.shape[1])
    mat = np.zeros((ext.shape[1], ext.shape[1]))
    for s in range(sft.n_symbols):
        legal = ext[s] >= 0
        y = ext[s][legal]
        mat[rows[legal], pf[y]] += gk[y]
    return mat


def LIP_TERM(lo_a, hi_a, lo_b, hi_b):
    return hi_a - lo_b


def DISTORTION_TERM(lo_a, hi_a, lo_b, hi_b):
    return np.maximum(np.abs(1.0 - hi_b / lo_a), np.abs(1.0 - lo_b / hi_a))


@pytest.mark.parametrize("name", CODE_SHIFTS)
def test_codes_match_tuple_reference(name):
    sft = CODE_SHIFTS[name]
    for depth in range(1, 8):
        words = ref_words(sft, depth)
        assert sft.legal_words(depth) == words
        assert sft.digits(depth).tolist() == [list(w) for w in words]
        assert np.all(np.diff(sft.codes(depth)) > 0)
        assert [sft.code(w) for w in words] == sft.codes(depth).tolist()
        for d in range(1, depth + 1):
            assert np.array_equal(sft.prefix_index(depth, d), ref_prefix_index(sft, depth, d))
        for n in range(1, 6):
            assert np.array_equal(sft.representative_index(n, depth),
                                  ref_representative_index(sft, n, depth))


@pytest.mark.parametrize("name", CODE_SHIFTS)
def test_distortion_matches_pairwise_reference(name):
    sft = CODE_SHIFTS[name]
    rng = np.random.default_rng(sorted(CODE_SHIFTS).index(name))
    for _ in range(8):
        wdepth = int(rng.integers(1, 4))
        k_max = int(rng.integers(1, 4))
        weights = [Weight(sft, wdepth, rng.uniform(0.1, 1.0, size=len(sft.codes(wdepth))))
                   for _ in range(k_max)]
        depth = max(wdepth - 1, int(rng.integers(1, 4)))
        rep = distortion_check(sft, weights, k_max, depth)
        assert rep.per_k == ref_distortion_per_k(sft, weights, k_max, depth)


def test_lip_theta_matches_pairwise_reference():
    # sup over pairs of distinct words of |f(x) - f(y)| / theta^(first disagreement)
    rng = np.random.default_rng(11)
    for sft in CODE_SHIFTS.values():
        for depth in range(1, 6):
            f = CylinderFunction(sft, depth, rng.uniform(-1, 1, size=len(sft.codes(depth))))
            words = ref_words(sft, depth)
            oracle = max((abs(f.value(x) - f.value(y))
                          / sft.theta ** next(i for i in range(depth) if x[i] != y[i])
                          for x, y in itertools.combinations(words, 2)), default=0.0)
            assert f.lip_theta() == oracle


def _shaped_rows(sft, rng, depth, low, high):
    """Rows whose maximum settles at chosen levels: 3 random rows, a random
    j-prefix function at full depth for each j < depth (its pairs first
    differ before index j), a constant row, and a random row whose extreme
    values sit on two deepest-level siblings (it settles at the deepest
    level) when there are such siblings."""
    width = len(sft.codes(depth))
    rows = list(rng.uniform(low, high, size=(3, width)))
    rows += [CylinderFunction(sft, j, rng.uniform(low, high, size=len(sft.codes(j))))
             .with_depth(depth).array for j in range(1, depth)]
    rows.append(np.full(width, rng.uniform(low, high)))
    parents = sft.prefix_index(depth, depth - 1) if depth > 1 else np.zeros(width)
    siblings = np.flatnonzero(parents[1:] == parents[:-1])
    if len(siblings):
        deep = rng.uniform(low, high, size=width)
        deep[siblings[0]], deep[siblings[0] + 1] = low - abs(low) / 2, 2 * high
        rows.append(deep)
    return np.array(rows)


def test_prefix_tree_rows_match_one_function_reference():
    # every shift on 1..3 symbols (sibling groups of uneven size, as in the
    # golden mean) at depths 1..6: the lip_theta form (first = offset = 0) on
    # signed rows and the distortion_check forms (first = k + 1, offset = k)
    # on positive rows, bit for bit against the row pass without the early
    # exit and, on the 3 random rows, the one-function pass.  The rows
    # include ones whose maximum sits at a shallow level, and each goes
    # through as a stack of its own too, so the pass may stop at any level
    rng = np.random.default_rng(14)
    shifts = [t for t in _valid_shifts() if len(t) <= 3]
    assert len(shifts) == 273
    for t in shifts:
        sft = Sft(len(t), t, 0.6)
        for depth in range(1, 7):
            signed = _shaped_rows(sft, rng, depth, -1.0, 1.0)
            positive = _shaped_rows(sft, rng, depth, 0.1, 1.0)
            forms = [(signed, 0, 0, LIP_TERM)] + [
                (positive, k + 1, k, DISTORTION_TERM) for k in range(1, depth)]
            for values, first, offset, term in forms:
                got = sf._prefix_tree_sup(sft, values, depth, first, offset, term)
                assert got.shape == (len(values),)
                assert got.tobytes() == ref_row_prefix_tree_sup(
                    sft, values, depth, first, offset, term).tobytes(), (t, depth, first)
                assert got[:3].tolist() == [ref_prefix_tree_sup(sft, row, depth, first,
                                                                offset, term)
                                            for row in values[:3]], (t, depth, first)
                alone = [sf._prefix_tree_sup(sft, row[None], depth, first, offset, term)[0]
                         for row in values]
                assert alone == got.tolist(), (t, depth, first)
            assert CylinderFunction(sft, depth, signed[0]).lip_theta() == \
                ref_prefix_tree_sup(sft, signed[0], depth, 0, 0, LIP_TERM)


def test_row_transfer_matches_one_function_reference():
    # every shift on 1..3 symbols, signed values with exact zeros of both
    # signs: each row of the stack equals the masked one-function step, bit
    # for bit (zero signs included)
    rng = np.random.default_rng(15)
    for t in (t for t in _valid_shifts() if len(t) <= 3):
        sft = Sft(len(t), t, 0.5)
        for fdepth, gdepth in ((1, 1), (3, 2), (2, 4), (5, 3)):
            values = rng.uniform(-1.0, 1.0, size=(4, len(sft.codes(fdepth))))
            values[rng.random(values.shape) < 0.2] = 0.0
            values[rng.random(values.shape) < 0.2] = -0.0
            g = CylinderFunction(sft, gdepth, rng.uniform(-1.0, 1.0, size=len(sft.codes(gdepth))))
            got, depth = sf._transfer_rows(sft, [g], values, fdepth)
            assert depth == max(1, max(fdepth, gdepth) - 1)
            for row, out in zip(values, got):
                ref = ref_transfer_apply(sft, g, CylinderFunction(sft, fdepth, row))
                assert out.tobytes() == ref.tobytes(), (t, fdepth, gdepth)
            one = transfer_apply(sft, g, CylinderFunction(sft, fdepth, values[0]))
            assert one.array.tobytes() == got[0].tobytes()


def test_transfer_matrix_matches_symbol_loop_reference():
    # every shift on 1..3 symbols at weight depths 1..4, signed weights with
    # exact zeros of both signs: the identity rows through the row transfer
    # equal the per-symbol loop bit for bit
    rng = np.random.default_rng(16)
    for t in (t for t in _valid_shifts() if len(t) <= 3):
        sft = Sft(len(t), t, 0.5)
        for depth in range(1, 5):
            vals = rng.uniform(-1.0, 1.0, size=len(sft.codes(depth)))
            vals[rng.random(vals.shape) < 0.2] = 0.0
            vals[rng.random(vals.shape) < 0.2] = -0.0
            g = CylinderFunction(sft, depth, vals)
            mat, words = transfer_matrix(sft, g)
            assert words == ref_words(sft, max(1, depth - 1))
            assert mat.tobytes() == ref_transfer_matrix(sft, g).tobytes(), (t, depth)


def test_run_length_tables_match_gather_references():
    # every shift on 1..3 symbols at depths 1..8: the run-length repeats equal
    # the tuple-word prefix maps, the slice tables equal the searchsorted of
    # the heads s t 0 ... 0 and t 0 ... 0, and `with_depth` and the m_proj
    # projection rows equal their gathers bit for bit
    rng = np.random.default_rng(32)
    for t in (t for t in _valid_shifts() if len(t) <= 3):
        sft = Sft(len(t), t, 0.5)
        a = sft.n_symbols
        words = {d: ref_words(sft, d) for d in range(1, 9)}
        index = {d: {w: i for i, w in enumerate(words[d])} for d in words}
        for depth in range(1, 9):
            rows = rng.uniform(-1.0, 1.0, size=(2, len(words[depth])))
            for d in range(1, depth + 1):
                ref = np.array([index[d][w[:d]] for w in words[depth]], dtype=np.int64)
                runs = sft.runs(depth, d)
                assert np.array_equal(np.repeat(np.arange(len(words[d])), runs), ref)
                assert np.array_equal(sft.prefix_index(depth, d), ref)
                f = CylinderFunction(sft, d, rows[0, :len(words[d])])
                assert f.with_depth(depth).array.tobytes() == f.array[ref].tobytes()
                gather = rows[:, sft.representative_index(d, depth)[ref]]
                assert sf._projection_rows(sft, rows, depth, d).tobytes() == gather.tobytes()
            if depth < 8:
                heads = np.arange(a * a + 1) * a ** (depth - 1)
                pair, block = sft.slices(depth)
                assert pair == np.searchsorted(sft.codes(depth + 1), heads).tolist()
                assert block == np.searchsorted(sft.codes(depth), heads[:a + 1]).tolist()


def test_cache_keeps_no_index_maps():
    # the index maps are rebuilt on every call, so a sandwich leaves only
    # codes, representative gathers, the irreducibility flag and the O(A)
    # tables per depth behind: the counts N_j (A integers) and the slice
    # tables (A^2 + 1 and A + 1 integers).  No other entry may grow with the
    # word count.
    full2 = Sft.full(2, 0.5)
    cases = [(full2, [stochastic_weight(0.8, full2)] * 10)]
    for sft in (Sft.full(3, 0.5), Sft(3, CODE_SHIFTS["sparse3"].transitions, 0.5)):
        cases.append((sft, [Weight(sft, 2, np.full(len(sft.codes(2)), 1.0 / 3))] * 5))
    for sft, ws in cases:
        a = sft.n_symbols
        norm_and_ic_bounds(sft, ws, len(ws), 4, n_samples=3)
        names = {key: key[0] if isinstance(key, tuple) else key for key in sft._cache}
        assert set(names.values()) <= {"codes", "representative", "irreducible",
                                       "counts", "slices"}
        for key, entry in sft._cache.items():
            if names[key] not in ("codes", "representative"):
                parts = entry if isinstance(entry, tuple) else (entry,)
                assert sum(np.size(part) for part in parts) <= a * a + a + 2, key


def test_negative_step_count_rejected():
    # weights[:n] with n < 0 slices from the end: with three weights, n = -1
    # used to return the 2-step image, and rn(sft, ws, -2) returned R_1
    ws = [stochastic_weight(0.8)] * 3
    for n in (-1, -2):
        with pytest.raises(ValueError, match="non-negative"):
            transfer_apply_word(FULL, ws, CylinderFunction.constant(FULL, 1.0), n)
        with pytest.raises(ValueError, match="non-negative"):
            rn(FULL, ws, n)
        with pytest.raises(ValueError, match="non-negative"):
            lipschitz_ly_check(FULL, ws, n, [CylinderFunction.constant(FULL, 1.0)],
                               r_n=1.0, k_constant=2.0)
    assert rn(FULL, ws, 0) == 1.0


def test_cylinder_function_rejects_non_finite_values():
    # the tree pass used to read a NaN cylinder as absent: lip_theta of
    # [0, nan, 1, 2] on the full 2-shift returned 2.0
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            CylinderFunction(FULL, 2, np.array([0.0, bad, 1.0, 2.0]))
        with pytest.raises(ValueError, match="finite"):
            CylinderFunction(FULL, 1, {(0,): 0.0, (1,): bad})
        with pytest.raises(ValueError, match="finite"):
            Weight(FULL, 1, np.array([1.0, bad]))
    with pytest.raises(ValueError, match="finite"):
        CylinderFunction.constant(FULL, np.inf, 3)


def test_antisymmetric_helpers_match_word_loops():
    rng = np.random.default_rng(12)
    for depth in (1, 2, 3, 4):
        words = ref_words(FULL, depth)
        half = np.sort(rng.uniform(0.0, 0.2, size=len(words) // 2))
        h = CylinderFunction(FULL, depth, np.concatenate([-half[::-1], half]))
        g = antisymmetric_weight_pair(FULL, h)
        for w in ref_words(FULL, depth + 1):
            one = 0.5 + h.value(w[1:])
            assert g.value(w) == (one if w[0] == 1 else 1.0 - one)
        for f in (h, CylinderFunction(FULL, depth, rng.uniform(-1, 1, size=len(words)))):
            monotone = all(f.value(w) <= f.value(u) for w, u in itertools.permutations(words, 2)
                           if all(a <= b for a, b in zip(w, u)))
            assert is_monotone(f) == monotone
            assert is_antisymmetric(f) == all(
                f.value(tuple(1 - s for s in w)) == -f.value(w) for w in words)
    with pytest.raises(IllegalWord):
        is_antisymmetric(CylinderFunction.constant(Sft.golden_mean(0.5), 1.0, 2))


def test_code_depth_limit():
    # permutation shifts have A words at every depth, so the limit is reachable
    swap = Sft(2, np.array([[0, 1], [1, 0]]), 0.5)
    assert swap.codes(62).tolist() == [int("01" * 31, 2), int("10" * 31, 2)]
    cycle = Sft(3, np.roll(np.eye(3, dtype=np.int8), 1, axis=1), 0.5)
    assert len(cycle.codes(39)) == 3
    for sft, depth in ((swap, 63), (cycle, 40), (FULL, 100)):
        with pytest.raises(ValueError, match="2\\^63"):
            sft.codes(depth)
        with pytest.raises(ValueError, match="2\\^63"):
            CylinderFunction.constant(sft, 1.0, depth)


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
    w = cc.OmegaWindow((0, 1, 2), 0)
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
        passed = lipschitz_ly_check(FULL, ws, n, [CylinderFunction.constant(FULL, 1.0)],
                                    k_constant=sandwich.k_constant, r_n=sandwich.r_n)
        assert passed == default


def ref_lipschitz_slacks(sft, weights, n, samples, k_constant, r_n):
    # the per-sample loop the stacked check replaced: one n-step transfer and
    # two one-row tree passes per sample
    slacks = []
    for f in samples:
        image = transfer_apply_word(sft, weights, f, n)
        rhs = r_n * (sft.theta ** n * f.lip_theta() + k_constant * f.sup_norm())
        slacks.append(float(rhs - image.lip_theta()))
    return tuple(slacks)


@pytest.mark.parametrize("name", ["full2", "golden", "full3"])
def test_smoothing_stacks_match_per_sample_loop(name):
    # samples of depths 1..5 in shuffled order, a constant among them: the
    # slacks of the one-stack-per-depth check equal the loop's, in input
    # order and bit for bit
    sft = {"full2": FULL, "golden": GOLDEN, "full3": FULL3}[name]
    rng = np.random.default_rng(16)
    samples = [CylinderFunction(sft, depth, rng.uniform(-1.0, 1.0, size=len(sft.codes(depth))))
               for depth in range(1, 6) for _ in range(4)]
    samples.append(CylinderFunction.constant(sft, 0.7, 3))
    samples = [samples[j] for j in rng.permutation(len(samples))]
    weights = _random_weights(sft, 3)
    for n in (1, 2, 3):
        rep = lipschitz_ly_check(sft, weights, n, samples)
        assert rep.slacks == ref_lipschitz_slacks(sft, weights, n, samples,
                                                  rep.k_constant, rep.r_n), n
        passed = lipschitz_ly_check(sft, weights, n, samples, k_constant=2.5, r_n=1.25)
        assert passed.slacks == ref_lipschitz_slacks(sft, weights, n, samples, 2.5, 1.25), n
    assert lipschitz_ly_check(sft, weights, 2, []).slacks == ()


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


def test_sandwich_transfers_each_input_once(monkeypatch):
    # for theta = 1/2 the constant 1 and the certificate family have
    # theta-norm exactly 1, so the sandwich reuses their images: every input
    # row goes through the n-step row transfer kernel once
    seen = []
    transfer_rows = sf._transfer_rows

    def counting(sft, weights, values, depth):
        assert len(weights) == 3
        seen.extend((depth, row.tobytes()) for row in values)
        return transfer_rows(sft, weights, values, depth)

    monkeypatch.setattr(sf, "_transfer_rows", counting)
    ws = [stochastic_weight(0.8)] * 8
    norm_and_ic_bounds(FULL, ws, 3, 3, n_samples=7)
    # P^(n) 1, the 5 family images, the 7 sampled images, 13 residual images
    assert len(seen) == 1 + 5 + 7 + 13
    assert len(set(seen)) == len(seen)


def ref_norm_and_ic_bounds(sft, weights, n, m_proj, n_samples, seed) -> NormSandwich:
    # the single-function sandwich: one draw, one normalisation and two n-step
    # transfers per sample, through the public ops
    theta = sft.theta
    one = CylinderFunction.constant(sft, 1.0)
    image1 = transfer_apply_word(sft, weights, one, n)
    r_n = image1.sup_norm()
    wdepth = max(max(w.depth for w in weights[:n]), 2)
    k_constant = max(2.0, distortion_check(sft, weights, n, wdepth).feasible_d)
    u = sft.representative(sft.digits(image1.depth)[int(np.argmax(image1.array))])
    family = []
    for k in sf._proper_nested_depths(sft, u, image1.depth, 5):
        match = sft.codes(k + n) % sft.n_symbols ** k == sft.code(u.head(k))
        family.append(CylinderFunction(sft, k + n,
                                       np.where(match, theta ** (k + n - 1), 0.0)))
    images = [transfer_apply_word(sft, weights, f, n) for f in family]
    rng = np.random.default_rng(seed)
    n_words = len(sft.codes(m_proj + 2))
    samples = [one] + family + [
        CylinderFunction(sft, m_proj + 2, rng.uniform(-1.0, 1.0, size=n_words))
        for _ in range(n_samples)]
    known = [image1] + images
    op_est = ic_upper = 0.0
    for i, f in enumerate(samples):
        norm = f.theta_norm()
        if norm <= 0:
            continue
        if i < len(known) and norm == 1.0:
            image = known[i]
        else:
            f = f * (1.0 / norm)
            image = transfer_apply_word(sft, weights, f, n)
        op_est = max(op_est, image.theta_norm())
        resid = f - cylinder_projection(sft, f, m_proj)
        ic_upper = max(ic_upper, transfer_apply_word(sft, weights, resid, n).theta_norm())
    dmin = min((a - b).theta_norm() for a, b in itertools.combinations(images, 2))
    return NormSandwich(r_n=r_n, op_norm_est=op_est, op_norm_upper=(k_constant + 1.0) * r_n,
                        ic_lower_formula=0.25 * theta ** n * r_n,
                        ic_lower_certified=dmin / 2.0, min_pairwise_distance=dmin,
                        ic_upper_sampled=ic_upper, k_constant=k_constant)


GOLDEN = Sft.golden_mean(0.6)
FULL3 = Sft.full(3, 0.4)


def _random_weights(sft, seed, count=4):
    rng = np.random.default_rng(seed)
    return [Weight(sft, 2, rng.uniform(0.2, 1.0, size=len(sft.codes(2))))
            for _ in range(count)]


@pytest.mark.parametrize("sft, weights, n, m_proj, n_samples, chunk", [
    (FULL, [stochastic_weight(0.8), stochastic_weight(0.3)] * 2, 3, 3, 0, 1024),
    (FULL, [stochastic_weight(0.8), stochastic_weight(0.3)] * 2, 3, 3, 1, 1024),
    # 19 samples of 4096 values: stacks of 8, 8 and 3 rows
    (FULL, [stochastic_weight(0.6), stochastic_weight(0.9)], 2, 10, 19, 8),
    # 2^15 values per sample: every stack holds one row
    (FULL, [stochastic_weight(0.6), stochastic_weight(0.9)], 2, 13, 3, 1),
    (GOLDEN, _random_weights(GOLDEN, 1), 3, 4, 40, 1560),
    # 243 values per sample: stacks of 134, 134 and 32 rows
    (FULL3, _random_weights(FULL3, 2), 2, 3, 300, 134),
], ids=["no-samples", "one-sample", "partial-stack", "one-row-stacks", "golden", "full3"])
def test_sandwich_matches_single_function_reference(sft, weights, n, m_proj, n_samples,
                                                    chunk):
    assert sf.SAMPLE_CHUNK_ELEMENTS // len(sft.codes(m_proj + 2)) == chunk
    rep = norm_and_ic_bounds(sft, weights, n, m_proj, n_samples=n_samples, seed=5)
    assert rep == ref_norm_and_ic_bounds(sft, weights, n, m_proj, n_samples, seed=5)


def test_sandwich_needs_irreducible():
    reducible = Sft(2, np.array([[1, 0], [0, 1]], dtype=np.int8), 0.5)
    ws = [Weight(reducible, 1, np.array([0.5, 0.5]))] * 3
    with pytest.raises(NotIrreducible):
        norm_and_ic_bounds(reducible, ws, 2, 2, n_samples=5)


def _valid_shifts():
    # every 0/1 transition matrix on 1..3 symbols with no empty row or column
    for n in (1, 2, 3):
        for bits in itertools.product((0, 1), repeat=n * n):
            t = np.array(bits, dtype=np.int8).reshape(n, n)
            if t.sum(axis=0).all() and t.sum(axis=1).all():
                yield t
    # seeded random shifts on 4..8 symbols; the permutation keeps them valid
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(4, 9))
        t = rng.random((n, n)) < rng.uniform(0.05, 0.5)
        t[np.arange(n), rng.permutation(n)] = True
        yield t.astype(np.int8)


def test_irreducible_matches_strong_components():
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    shifts = list(_valid_shifts())
    assert len(shifts) == 273 + 300
    seen = set()
    for t in shifts:
        n_comp, _ = connected_components(csr_matrix(t), directed=True, connection="strong")
        got = Sft(len(t), t, 0.5).irreducible
        assert got == (n_comp == 1), t
        seen.add((len(t) > 3, got))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


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
    series = cc.uniqueness_diagnostic(gen, w, tilted, rep, 1, 30)
    mask = series > 1e-12
    slope = np.polyfit(np.arange(31)[mask], np.log(series[mask]), 1)[0]
    expected = -(rep.exponents[0] - rep.exponents[1])
    assert slope == pytest.approx(expected, rel=0.15)
