"""The kernels against plain-Python oracles written from their definitions,
bit for bit, including the tie-breaking rules."""

import numpy as np
import pytest

from beatmix import _kernels


def python_nn_oracle(queries, refs):
    """Brute force, left-to-right accumulation, first strict max. No numpy
    arithmetic, so this is an independent check of the kernel semantics."""
    best, idx = [], []
    for q in queries.tolist():
        b, bj = -float("inf"), -1
        for j, r in enumerate(refs.tolist()):
            acc = 0.0
            for qk, rk in zip(q, r):
                acc += qk * rk
            if acc > b:
                b, bj = acc, j
        best.append(b)
        idx.append(bj)
    return np.array(best), np.array(idx)


def python_dp_oracle(score, penalty, gap_min, gap_max, thresh):
    n = len(score)
    backlink = [0] * n
    cumscore = [0.0] * n
    first = True
    for i in range(n):
        best, best_j = -float("inf"), -1
        for j in range(i - gap_min, max(-1, i - gap_max - 1), -1):
            if j < 0:
                break
            cand = cumscore[j] - penalty[i - j]
            if cand > best:
                best, best_j = cand, j
        cumscore[i] = score[i] + best if best_j >= 0 else score[i]
        if first and score[i] < thresh:
            backlink[i] = -1
        else:
            backlink[i] = best_j
            first = False
    return np.array(backlink), np.array(cumscore)


def _dp_inputs(rng, n=400, period=50.0, gap_min=25, gap_max=100):
    score = rng.random(n)
    gaps = np.arange(gap_max + 1, dtype=float)
    gaps[0] = 1.0
    penalty = 100.0 * np.log(gaps / period) ** 2
    penalty[0] = np.inf
    return score, penalty, gap_min, gap_max, 0.01 * score.max()


def _assert_dp_matches_oracle(score, penalty, gmin, gmax, thresh):
    bl, cs = _kernels.beat_dp(score, penalty, gmin, gmax, thresh)
    obl, ocs = python_dp_oracle(score.tolist(), penalty.tolist(), gmin, gmax, thresh)
    assert np.array_equal(bl, obl)
    assert np.array_equal(cs, ocs)  # bitwise: same operations, same order


@pytest.mark.parametrize("gaps", [(25, 100), (1, 30), (40, 40), (7, 9)])
def test_beat_dp_matches_python_oracle(gaps, rng):
    for n in (1, 5, 400, 701):
        _assert_dp_matches_oracle(*_dp_inputs(rng, n=n, gap_min=gaps[0], gap_max=gaps[1]))


def test_beat_dp_tie_heavy_matches_python_oracle(rng):
    # quarter-step scores and no penalty: most frames have many equal
    # candidates, and a silent lead-in delays the start of the chain
    score = np.r_[np.zeros(60), np.floor(rng.random(1500) * 4) / 4]
    penalty = np.zeros(81)
    _assert_dp_matches_oracle(score, penalty, 20, 80, 0.5)
    bl, _ = _kernels.beat_dp(score, penalty, 20, 80, 0.5)
    assert (bl[:60] == -1).all()


def _unit_rows(rng, n, d):
    mat = rng.normal(size=(n, d))
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


@pytest.mark.parametrize("n,m,d", [(12, 80, 24), (5, 200, 512), (300, 40, 3)])
def test_nn_matches_python_oracle_bitwise(n, m, d, rng):
    q = _unit_rows(rng, n, d)
    q[1] = 0.0  # every reference ties at 0.0
    r = _unit_rows(rng, m, d)
    best, idx = _kernels.nn_max_dot(q, r)
    obest, oidx = python_nn_oracle(q, r)
    assert np.array_equal(idx, oidx)
    assert np.array_equal(best, obest)


def test_nn_duplicate_rows_tie_to_lowest_index(rng):
    r = _unit_rows(rng, 50, 16)
    r[[17, 30, 44]] = r[9]
    q = r[[9, 30, 44]] + 1e-3 * rng.normal(size=(3, 16))
    best, idx = _kernels.nn_max_dot(q, r)
    assert idx.tolist() == [9, 9, 9]
    assert np.array_equal(best, python_nn_oracle(q, r)[0])

    best, idx = _kernels.nn_max_dot(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.5]]))
    assert idx[0] == 0 and best[0] == 1.0


def test_nn_near_ties_one_ulp_apart(rng):
    # dyadic rows, so every partial sum is exact; raising the last component
    # of row j by j ulps of the total makes the fixed-order dot products climb
    # one ulp per row, far inside the shortlist margin
    d = 64
    q = np.ones((1, d))
    base = rng.integers(-512, 512, d) / 1024
    base[-1] = 0.375
    ulp = np.spacing(abs(base.sum()))
    r = np.tile(base, (8, 1))
    r[:, -1] += np.arange(8) * ulp
    r = np.vstack([_unit_rows(rng, 5, d), r, r[7]])  # a later duplicate of the winner
    values = [sum(row) for row in r[5:13].tolist()]
    assert np.diff(values).tolist() == [ulp] * 7
    best, idx = _kernels.nn_max_dot(q, r)
    assert idx[0] == 12 and best[0] == values[-1]
    assert np.array_equal(best, python_nn_oracle(q, r)[0])


def test_nn_near_ties_a_few_ulps_apart(rng):
    # copies of one row with a few components nudged by a few ulps: the
    # fixed-order dot products of most queries with them lie a few ulps
    # apart, where a BLAS summation order often ranks them differently
    d = 64
    q = _unit_rows(rng, 20, d)
    r = np.tile(_unit_rows(rng, 1, d), (60, 1))
    for row in r:
        k = rng.integers(d, size=4)
        row[k] += rng.integers(-4, 5, size=4) * np.spacing(row[k])
    best, idx = _kernels.nn_max_dot(q, r)
    obest, oidx = python_nn_oracle(q, r)
    assert np.array_equal(idx, oidx)
    assert np.array_equal(best, obest)


def test_nn_extreme_scales_match_python_oracle(rng):
    # the few-ulps near ties above at 2**100, in one matrix with rows at
    # 2**-100 and against queries at both scales: the shortlist margin must
    # be taken at the largest reference norm, not at a typical one
    d = 64
    near = np.tile(_unit_rows(rng, 1, d), (40, 1))
    for row in near:
        k = rng.integers(d, size=4)
        row[k] += rng.integers(-4, 5, size=4) * np.spacing(row[k])
    r = np.vstack([_unit_rows(rng, 10, d) * 2.0**-100, near * 2.0**100])
    q = np.vstack([_unit_rows(rng, 10, d) * 2.0**100, _unit_rows(rng, 10, d) * 2.0**-100])
    best, idx = _kernels.nn_max_dot(q, r)
    obest, oidx = python_nn_oracle(q, r)
    assert np.array_equal(idx, oidx)
    assert np.array_equal(best, obest)


def test_nn_independent_of_query_tiling(rng):
    q = _unit_rows(rng, 600, 32)
    r = _unit_rows(rng, 700, 32)
    r[5] = r[600]
    best, idx = _kernels.nn_max_dot(q, r)
    for k in (1, 255, 256, 300, 599):
        b_lo, i_lo = _kernels.nn_max_dot(q[:k], r)
        b_hi, i_hi = _kernels.nn_max_dot(q[k:], r)
        assert np.array_equal(np.r_[b_lo, b_hi], best)
        assert np.array_equal(np.r_[i_lo, i_hi], idx)


def test_nn_without_references():
    best, idx = _kernels.nn_max_dot(np.ones((2, 3)), np.zeros((0, 3)))
    assert np.array_equal(best, [-np.inf, -np.inf]) and idx.tolist() == [-1, -1]


def test_nn_dim_mismatch_raises():
    with pytest.raises(ValueError):
        _kernels.nn_max_dot(np.zeros((2, 3)), np.zeros((2, 4)))


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["low-first", "high-first"])
def test_nn_references_equal_in_float32_match_python_oracle(order, rng):
    # two references that round to the same float32 row but differ in their
    # float64 low bits: the float32 shortlist cannot tell them apart, only
    # the fixed-order rescore can
    d = 64
    low = _unit_rows(rng, 1, d)[0]
    high = low + 8 * np.spacing(low)
    assert np.array_equal(low.astype(np.float32), high.astype(np.float32))
    assert not np.array_equal(low, high)
    pair = np.stack([low, high])[list(order)]
    r = np.vstack([_unit_rows(rng, 6, d), pair, _unit_rows(rng, 6, d)])
    q = np.vstack([np.abs(low), -np.abs(low), _unit_rows(rng, 8, d)])
    best, idx = _kernels.nn_max_dot(q, r)
    obest, oidx = python_nn_oracle(q, r)
    assert np.array_equal(idx, oidx)
    assert np.array_equal(best, obest)


def test_nn_float32_ranking_differs_from_the_fixed_order_one(rng):
    # copies of one row nudged by about one float32 ulp per component: the
    # float32 product ranks them otherwise than the fixed-order float64 sum
    # for most queries, so the shortlist must reach past its own maximum
    d = 64
    base = _unit_rows(rng, 1, d)
    r = base + rng.normal(size=(30, d)) * 2.0**-24 * np.abs(base)
    q = _unit_rows(rng, 20, d)
    obest, oidx = python_nn_oracle(q, r)
    float32_idx = (q.astype(np.float32) @ r.astype(np.float32).T).argmax(axis=1)
    assert (float32_idx != oidx).sum() >= 10
    best, idx = _kernels.nn_max_dot(q, r)
    assert np.array_equal(idx, oidx)
    assert np.array_equal(best, obest)


def test_nn_without_queries():
    best, idx = _kernels.nn_max_dot(np.zeros((0, 3)), np.ones((4, 3)))
    assert best.shape == idx.shape == (0,)


def test_nn_shortlist_stays_small(rng, monkeypatch):
    # a guard on speed, not on correctness: with random unit rows the float32
    # margin lets through about one reference per query; a margin far wider
    # than the bound needs would rescore many
    rescored = []
    rescore = _kernels._fixed_order_dots
    monkeypatch.setattr(
        _kernels, "_fixed_order_dots",
        lambda q, r, rows, cols: rescored.append(rows.size) or rescore(q, r, rows, cols),
    )
    n = 2000
    _kernels.nn_max_dot(_unit_rows(rng, n, 512), _unit_rows(rng, 4096, 512))
    assert n <= sum(rescored) <= 1.05 * n


def python_dot(q, r):
    acc = 0.0
    for qk, rk in zip(q, r):
        acc += qk * rk
    return acc


@pytest.mark.parametrize("n_pairs", [1, 2047, 2048, 2049, 4097])
def test_fixed_order_dots_match_a_plain_loop_bitwise(n_pairs, rng):
    # every pair's sum against acc = 0.0; acc += q[k] * r[k], compared as
    # bytes, since array_equal counts -0.0 equal to 0.0; the first pair's
    # products all underflow to -0.0, and a sum from 0.0 makes them 0.0
    queries = rng.normal(size=(40, 3)) * 2.0 ** rng.integers(-30, 30, size=(40, 1))
    refs = rng.normal(size=(50, 3))
    queries[0] = [-1e-200, 1e-200, -1e-200]
    refs[0] = [1e-200, -1e-200, 1e-200]
    rows = np.r_[0, rng.integers(40, size=n_pairs - 1)]
    cols = np.r_[0, rng.integers(50, size=n_pairs - 1)]
    got = _kernels._fixed_order_dots(queries, refs, rows, cols)
    want = np.array([python_dot(queries[i].tolist(), refs[j].tolist()) for i, j in zip(rows, cols)])
    assert got.tobytes() == want.tobytes()
    products = queries[0] * refs[0]
    assert not products.any() and np.signbit(products).all() and not np.signbit(want[0])
