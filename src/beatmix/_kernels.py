"""The two hot kernels: the beat-tracking dynamic program and the exact
nearest-neighbor search.

Both are pure NumPy with fixed, documented semantics, so their results are
the same bits on every machine, BLAS and query tiling:

* ``beat_dp`` scans predecessors nearest first and keeps the nearest on ties.
* ``nn_max_dot`` returns the dot products as a left-to-right float64 sum
  over the feature dimension (``acc = acc + q[k] * r[k]``, no fused
  multiply-add) and keeps the lowest reference index on ties.
"""

import numpy as np

BACKEND = "numpy"

_NN_CHUNK = 256  # queries per BLAS product
_RESCORE_PAIRS = 2048  # (query, reference) pairs rescored at once


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


def nn_max_dot(queries, refs):
    """Per-query maximum dot product over all reference rows.

    The result is that of the left-to-right float64 sum for every pair,
    with ties going to the lowest reference index, so it does not depend on
    the BLAS or on how callers tile the queries. Inputs must be finite and
    their dot products must not overflow (the gateway rejects non-finite
    vectors). Returns (best, index); with no reference rows every best is
    -inf and every index -1.

    A BLAS product shortlists, per query, every reference within a rounding
    margin of the row maximum; only the shortlist is summed in fixed order.
    """
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    refs = np.ascontiguousarray(refs, dtype=np.float64)
    if queries.shape[1] != refs.shape[1]:
        raise ValueError("queries and refs disagree on dimensionality")
    n, d = queries.shape
    best = np.full(n, -np.inf)
    idx = np.full(n, -1, dtype=np.int64)
    if refs.shape[0] == 0:
        return best, idx
    # Any summation order of d products is within gamma_d * |q| * |r| of
    # the exact dot product (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., section 3.1), so the fixed-order winner and its
    # ties lie within 4 * gamma_d * |q| * max|r| of the BLAS row maximum.
    # Doubling that covers the rounding of the norms, of the margin and of
    # the threshold, each far smaller; the last term covers underflow.
    u = np.finfo(np.float64).eps / 2
    gamma = d * u / (1 - d * u)
    ref_norm = np.sqrt(np.einsum("ij,ij->i", refs, refs).max())
    query_norm = np.sqrt(np.einsum("ij,ij->i", queries, queries))
    margin = 8 * gamma * query_norm * ref_norm + 4 * d * np.finfo(np.float64).smallest_subnormal
    for lo in range(0, n, _NN_CHUNK):
        hi = min(n, lo + _NN_CHUNK)
        sims = queries[lo:hi] @ refs.T
        floor = sims.max(axis=1) - margin[lo:hi]
        rows, cols = np.divmod(np.flatnonzero(sims >= floor[:, None]), refs.shape[0])
        rows += lo
        exact = _fixed_order_dots(queries, refs, rows, cols)
        # pairs come row by row, cols ascending within a row; a stable sort
        # by descending value within each row puts first the row's maximum
        # at its lowest index
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        first = np.lexsort((-exact, rows))[starts]
        best[rows[first]] = exact[first]
        idx[rows[first]] = cols[first]
    return best, idx


def _fixed_order_dots(queries, refs, rows, cols):
    """``queries[rows[p]] . refs[cols[p]]`` for every pair p, summed left to
    right over the feature dimension."""
    out = np.empty(rows.size)
    for lo in range(0, rows.size, _RESCORE_PAIRS):
        pairs = slice(lo, lo + _RESCORE_PAIRS)
        q = queries[rows[pairs]].T.copy()
        r = refs[cols[pairs]].T.copy()
        acc = np.zeros(q.shape[1])
        prod = np.empty_like(acc)
        for k in range(q.shape[0]):
            np.multiply(q[k], r[k], out=prod)
            acc += prod
        out[pairs] = acc
    return out
