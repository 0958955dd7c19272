"""The two hot kernels: the beat-tracking dynamic program and the exact
nearest-neighbor search.

Both are pure NumPy with fixed, documented semantics, so their results are
the same bits on every machine, BLAS and query tiling:

* ``beat_dp`` scans predecessors nearest first and keeps the nearest on ties.
* ``nn_max_dot`` returns the dot products as a left-to-right float64 sum
  over the feature dimension (``acc = acc + q[k] * r[k]``, no fused
  multiply-add) and keeps the lowest reference index on ties. A float32
  BLAS product only chooses which pairs get that sum, inside a margin
  proven wide enough for the fixed-order winner and its ties.
"""

import numpy as np

BACKEND = "numpy"

_NN_CHUNK = 512  # queries per BLAS product
_RESCORE_PAIRS = 256  # (query, reference) pairs rescored at once


def beat_dp(score, penalty, gap_min, gap_max, start_threshold):
    """Forward pass of the beat-tracking DP.

    For frame ``i`` the predecessors are ``j`` in ``[i - gap_max,
    i - gap_min]``, scored ``cumscore[j] - penalty[i - j]``; the best one is
    added to ``score[i]`` and recorded in ``backlink[i]`` (-1 when there is
    none). Frames before the first one with ``score >= start_threshold``
    start no chain, so their backlink is -1. Requires
    ``1 <= gap_min <= gap_max``, finite ``score`` and finite
    ``penalty[gap_min:gap_max + 1]``. Returns (backlink, cumscore).

    Frames in ``[k, k + gap_min)`` read ``cumscore`` only below ``k``, so
    each such block is relaxed in one vectorized step. Candidates are laid
    out nearest first, and ``argmax`` keeps the first maximum, so ties keep
    the nearest predecessor.
    """
    score = np.asarray(score, dtype=np.float64)
    penalty = np.asarray(penalty, dtype=np.float64)
    n = score.size
    width = gap_max - gap_min + 1
    # cumscore behind gap_max frames of -inf, so that every frame has a
    # full window; the padding never wins while score and penalty are finite
    padded = np.empty(gap_max + n)
    padded[:gap_max] = -np.inf
    cumscore = padded[gap_max:]
    cumscore[:] = score
    # windows[i, t] = cumscore[i - gap_min - t]: frame i's candidates, nearest first
    windows = np.lib.stride_tricks.sliding_window_view(padded, width)[:, ::-1]
    near_penalty = penalty[gap_min : gap_max + 1]
    backlink = np.full(n, -1, dtype=np.int64)
    for k in range(gap_min, n, gap_min):
        block = slice(k, min(n, k + gap_min))
        cand = windows[block] - near_penalty
        t = np.argmax(cand, axis=1)
        cumscore[block] = score[block] + cand[np.arange(t.size), t]
        backlink[block] = np.arange(block.start, block.stop) - gap_min - t
    started = np.flatnonzero(~(score < start_threshold))
    backlink[: started[0] if started.size else n] = -1
    return backlink, cumscore


class ScaledQueries:
    """Query rows prepared once for ``nn_max_dot``: the float64 rows, their
    float32 copy scaled by the power of two ``2**-exp``, and the norms of the
    scaled rows. A search over many blocks of references passes one of these
    to every call in turn, so the queries are scaled once, not once per
    block, and the float32 copy of each block goes into one buffer kept
    here, not into a fresh allocation per block. A C-contiguous float64
    matrix, such as the stacked queries of eval's search, is held as it is,
    not copied: the float32 copy is the only one made."""

    def __init__(self, rows):
        self.rows = np.ascontiguousarray(rows, dtype=np.float64)
        self.f32, self.norms, self.exp = _scaled_float32(self.rows)
        self._refs32 = np.empty((0, self.rows.shape[1]), dtype=np.float32)

    @property
    def shape(self):
        return self.rows.shape

    def _refs_buffer(self, n_refs):
        if self._refs32.shape[0] < n_refs:
            self._refs32 = np.empty((n_refs, self.shape[1]), dtype=np.float32)
        return self._refs32[:n_refs]


def nn_max_dot(queries, refs):
    """Per-query maximum dot product over all reference rows.

    ``queries`` is a matrix or a ``ScaledQueries`` made from one. The result
    is that of the left-to-right float64 sum for every pair, with ties going
    to the lowest reference index, so it does not depend on the BLAS or on
    how callers tile the queries. Inputs must be finite, their dot products
    must not overflow (the gateway rejects non-finite vectors) and the
    dimension d must be in [1, 2**24). Returns (best, index); with no
    reference rows every best is -inf and every index -1.

    A float32 BLAS product shortlists, per query, every reference within a
    margin of the row maximum; only the shortlist is summed in fixed order.
    A row whose runner-up falls below that floor shortlists its argmax
    alone, so only rows with a runner-up inside the margin are compared in
    full. The queries and the references are each scaled by a power of two
    so that their largest magnitude is at most 1; that is exact, and keeps
    the float32 product from overflowing. In the scaled units, with u32 and
    u64 the unit roundoffs and gamma_d(u) = d u / (1 - d u), the float32
    value of a pair (q, r) differs from the exact dot product by at most
    (2 u32 + u32**2) |q| |r| for rounding q and r to float32, plus
    gamma_d(u32) (1 + u32)**2 |q| |r| for summing the rounded products in
    any order, with or without fused multiply-adds; the fixed-order float64
    sum differs from the exact one by at most gamma_d(u64) |q| |r| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1).
    So the float32 and the fixed-order values of a pair differ by at most E,
    the sum of these three taken at |q| max|r|. The fixed-order winner and
    its ties then lie within 2 E of the float32 row maximum: each is at
    least the fixed-order value of the float32 argmax, which is within E of
    that maximum. Doubling 2 E covers the rounding of the norms, of the
    margin and of the threshold, each far smaller. Underflow adds an
    absolute error the relative terms miss: below float32 ``tiny`` each of
    the d products loses at most 4 tiny (the two factors, the product and
    the sum, even where the BLAS flushes subnormals to zero), so 16 d tiny
    covers both pairs, doubled; the float64 sum loses at most d/2 of the
    smallest subnormal at the unscaled magnitude, and 4 d of it covers the
    same. The bound, not a test, is what tells this margin from half of it.
    """
    if not isinstance(queries, ScaledQueries):
        queries = ScaledQueries(queries)
    refs = np.ascontiguousarray(refs, dtype=np.float64)
    n, d = queries.shape
    best = np.full(n, -np.inf)
    idx = np.full(n, -1, dtype=np.int64)
    if n == 0 or refs.shape[0] == 0:
        return best, idx
    r32, ref_norm, r_exp = _scaled_float32(refs, queries._refs_buffer(refs.shape[0]))
    u32, u64 = np.finfo(np.float32).eps / 2, np.finfo(np.float64).eps / 2
    gamma32, gamma64 = d * u32 / (1 - d * u32), d * u64 / (1 - d * u64)
    relative = (2 * u32 + u32**2) + gamma32 * (1 + u32) ** 2 + gamma64
    # the float64 underflow bound, 2**-1074 at the unscaled magnitude; an
    # exponent past float64's range only widens the margin to everything
    underflow64 = 2.0 ** min(-1074 - queries.exp - r_exp, 1023)
    margin = (4 * relative * ref_norm.max()) * queries.norms + d * (
        16 * float(np.finfo(np.float32).tiny) + 4 * underflow64
    )
    buffer = np.empty((min(n, _NN_CHUNK), refs.shape[0]), dtype=np.float32)
    for lo in range(0, n, _NN_CHUNK):
        hi = min(n, lo + _NN_CHUNK)
        sims = np.matmul(queries.f32[lo:hi], r32.T, out=buffer[: hi - lo])
        tile = np.arange(hi - lo)
        top = sims.argmax(axis=1)
        peak = sims[tile, top]
        floor = peak - margin[lo:hi]
        # each row's runner-up: its maximum with the argmax knocked out
        sims[tile, top] = -np.inf
        near = np.flatnonzero(sims.max(axis=1) >= floor)
        sims[tile, top] = peak
        alone = np.ones(hi - lo, dtype=bool)
        alone[near] = False
        near_rows, near_cols = np.nonzero(sims[near] >= floor[near, None])
        rows = np.r_[tile[alone], near[near_rows]]
        cols = np.r_[top[alone], near_cols]
        exact = _fixed_order_dots(queries.rows, refs, rows + lo, cols)
        # each row's pairs keep their cols ascending, so a stable sort by row
        # and then by descending value puts first the row's maximum at its
        # lowest index; every row of the tile has at least its argmax
        order = np.lexsort((-exact, rows))
        first = order[np.r_[True, rows[order[1:]] != rows[order[:-1]]]]
        best[lo:hi] = exact[first]
        idx[lo:hi] = cols[first]
    return best, idx


def _scaled_float32(x, out=None):
    """``x * 2**-e`` rounded to float32 (into ``out``, when given), the
    float64 norms of the rows of ``x * 2**-e``, and ``e``: the power of two
    that brings the largest magnitude into [1/2, 1). Works through
    ``_NN_CHUNK`` rows at a time, so no full-size float64 copy is made."""
    e = int(np.frexp(max(x.max(initial=0.0), -x.min(initial=0.0)))[1])
    out = np.empty(x.shape, dtype=np.float32) if out is None else out
    norms = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], _NN_CHUNK):
        part = np.ldexp(x[lo : lo + _NN_CHUNK], -e)
        norms[lo : lo + _NN_CHUNK] = np.sqrt(np.vecdot(part, part))
        out[lo : lo + _NN_CHUNK] = part
    return out, norms, e


def _fixed_order_dots(queries, refs, rows, cols):
    """``queries[rows[p]] . refs[cols[p]]`` for every pair p, summed left to
    right over the feature dimension from 0.0, as ``acc = acc + q[k] * r[k]``.

    ``np.add.accumulate`` is a running sum, left to right with no fused
    multiply-add, so its last column is that sum; adding 0.0 to the first
    product makes it start from 0.0, which turns a -0.0 into 0.0 as the
    plain loop does.
    """
    out = np.empty(rows.size)
    for lo in range(0, rows.size, _RESCORE_PAIRS):
        pairs = slice(lo, lo + _RESCORE_PAIRS)
        prod = queries[rows[pairs]] * refs[cols[pairs]]
        prod[:, 0] += 0.0
        out[pairs] = np.add.accumulate(prod, axis=1)[:, -1]
    return out
