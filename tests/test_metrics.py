import json
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatmix import metrics as MT
from beatmix.errors import InputError
from beatmix.gateway import RecordSet


# each set's source is named after its id prefix, as a fault names it
def unit_set(rng, n, d, prefix):
    rows = rng.normal(size=(n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return RecordSet.from_records([f"{prefix}{i:04d}" for i in range(n)], rows, f"{prefix}.emb")


def unit_rows(rows, prefix="x"):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return RecordSet.from_records(
        [f"{prefix}{i:04d}" for i in range(len(rows))], rows, f"{prefix}.emb"
    )


def posterior_set(rows, prefix="p"):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return RecordSet.from_records(
        [f"{prefix}{i:04d}" for i in range(len(rows))], rows, f"{prefix}.post"
    )


def similarity(a, b):
    return MT.mean_text_audio_similarity(unit_rows(a), unit_rows(b))


# --- similarities ------------------------------------------------------------

def test_similarity_identical_is_one():
    assert similarity([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)


def test_similarity_orthogonal_is_zero():
    assert similarity([1, 0], [0, 1]) == pytest.approx(0.0)


def test_similarity_opposite_is_minus_one():
    assert similarity([0.3, -0.4, 0.5], [-0.3, 0.4, -0.5]) == pytest.approx(-1.0)


def test_similarity_dim_mismatch():
    with pytest.raises(InputError, match="x.emb and x.emb: text dim 2 vs audio dim 3"):
        similarity([1, 0], [1, 0, 0])


def test_mean_similarity_arithmetic():
    text = unit_rows([[1, 0], [1, 0]])
    audio = unit_rows([[0.2, np.sqrt(1 - 0.04)], [0.4, np.sqrt(1 - 0.16)], [0.9, 0.1]])
    # the third audio row has no text partner
    assert MT.mean_text_audio_similarity(text, audio) == pytest.approx(0.3)


def test_mean_similarity_empty():
    with pytest.raises(InputError, match="t.emb and a.emb: no ids shared between text and audio sets"):
        MT.mean_text_audio_similarity(unit_rows([1, 0], "t"), unit_rows([1, 0], "a"))


def test_reference_value_formatting():
    report = MT.MetricsReport(mean_text_audio_sim=0.3252)
    assert "0.325" in MT.render_table(report)


# --- retrieval max --------------------------------------------------------------

def retrieval_max(text, audio):
    return MT.build_report(text_emb=lambda: text, train_seg_emb=lambda: [audio]).retrieval_max


def test_retrieval_max_verbatim_texts(rng):
    audio = unit_set(rng, 30, 16, "a")
    texts = RecordSet.from_records([f"t{i:04d}" for i in range(30)], audio.rows)
    assert retrieval_max(texts, audio) == pytest.approx(1.0)


def test_retrieval_max_single_text_takes_max():
    text = unit_rows([1, 0, 0], "t")
    audio = unit_rows([[0.1, 1, 0], [0.9, 0.2, 0], [0.5, 0.5, 0.7]], "a")
    assert retrieval_max(text, audio) == pytest.approx(float((audio.rows @ text.rows[0]).max()))


def test_retrieval_max_matches_double_loop_oracle(rng):
    texts = unit_set(rng, 100, 32, "t")
    audio = unit_set(rng, 1000, 32, "a")
    best = [max(float(np.dot(t, a)) for a in audio.rows) for t in texts.rows]
    assert retrieval_max(texts, audio) == pytest.approx(float(np.mean(best)), abs=1e-6)


# --- nearest neighbor ratio -------------------------------------------------------

def sim_aa(gen, train, *thresholds):
    return MT.build_report(
        gen_emb={"g": lambda: gen}, train_seg_emb=lambda: [train], thresholds=thresholds
    )


def test_nn_ratio_self_match(rng):
    gen = unit_set(rng, 25, 12, "g")
    report = sim_aa(gen, gen, 0.90)
    assert report.sim_aa == {0.90: 1.0}
    assert all(r["similarity"] >= 1.0 - 1e-12 for r in report.nn_audit)
    assert all(r["gen_id"] == r["segment_id"] for r in report.nn_audit)


def test_nn_ratio_zero_when_unreachable(rng):
    gen = unit_set(rng, 10, 64, "g")
    train = unit_set(rng, 20, 64, "s")
    assert sim_aa(gen, train, 0.999).sim_aa == {0.999: 0.0}


def test_nn_ratio_monotone_in_threshold(rng):
    for _ in range(100):
        gen = unit_set(rng, 8, 6, "g")
        train = unit_set(rng, 30, 6, "s")
        ratios = sim_aa(gen, train, 0.90, 0.95).sim_aa
        assert ratios[0.95] <= ratios[0.90]


def test_nn_dim_mismatch(rng):
    with pytest.raises(InputError, match="g.emb and s.emb: query dim 8 vs segment dim 6"):
        sim_aa(unit_set(rng, 3, 8, "g"), unit_set(rng, 5, 6, "s"), 0.9)
    with pytest.raises(InputError, match="t.emb and s.emb: query dim 8 vs segment dim 6"):
        retrieval_max(unit_set(rng, 3, 8, "t"), unit_set(rng, 5, 6, "s"))


# --- frechet distance ---------------------------------------------------------------

def test_fd_self_is_zero(rng):
    a = rng.normal(size=(400, 16))
    assert MT.frechet_distance(a, a) < 1e-6


def test_fd_symmetric(rng):
    a = rng.normal(0, 1, size=(300, 8))
    b = rng.normal(0.5, 1.4, size=(280, 8))
    assert abs(MT.frechet_distance(a, b) - MT.frechet_distance(b, a)) < 1e-8


def test_fd_one_dimensional_monte_carlo():
    rng = np.random.default_rng(7)
    a = rng.normal(0.0, 1.0, size=(100_000, 1))
    b = rng.normal(1.0, 1.0, size=(100_000, 1))
    # closed form for N(0,1) vs N(1,1): (1-0)^2 + (1+1-2*1) = 1
    assert MT.frechet_distance(a, b) == pytest.approx(1.0, abs=0.05)


def _orthogonal_sign_matrix(n, d):
    # square-wave sign patterns: exactly orthogonal, exactly zero-mean
    cols = []
    for bit in range(1, d + 1):
        cols.append(np.tile(np.repeat([1.0, -1.0], 2 ** (bit - 1)), n)[:n])
    return np.stack(cols, axis=1)


def test_fd_matches_diagonal_closed_form():
    n, d = 256, 8
    base = _orthogonal_sign_matrix(n, d)
    sd_a = 1.0 + np.arange(d) * 0.25
    sd_b = 2.0 - np.arange(d) * 0.1
    mu_a = np.arange(d) * 0.5
    mu_b = np.arange(d) * 0.3 + 1.0
    a = base * sd_a + mu_a
    b = base * sd_b + mu_b
    va, vb = a.var(axis=0, ddof=1), b.var(axis=0, ddof=1)
    closed = float(np.sum((mu_a - mu_b) ** 2 + va + vb - 2 * np.sqrt(va * vb)))
    assert MT.frechet_distance(a, b) == pytest.approx(closed, abs=1e-4)


def test_fd_regularizes_small_sets(rng):
    a = rng.normal(size=(5, 16))  # fewer samples than dim+1
    b = rng.normal(size=(5, 16))
    fd = MT.frechet_distance(a, b)
    assert np.isfinite(fd) and fd >= 0


def test_fd_empty_raises():
    with pytest.raises(InputError, match="frechet distance needs two non-empty sets"):
        MT.frechet_distance(np.zeros((0, 4)), np.zeros((5, 4)))


def test_fd_dim_mismatch():
    with pytest.raises(InputError, match="dims differ: 3 vs 4"):
        MT.frechet_distance(np.zeros((5, 3)), np.zeros((5, 4)))


# --- inception score -------------------------------------------------------------------

def test_is_uniform_is_exactly_one():
    assert MT.inception_score(posterior_set(np.full((9, 7), 1 / 7))) == 1.0


def test_is_one_hot_equals_k():
    k = 10
    assert MT.inception_score(posterior_set(np.eye(k))) == pytest.approx(float(k), abs=1e-6)


def test_is_identical_posteriors_is_one(rng):
    p = rng.dirichlet(np.ones(6))
    assert MT.inception_score(posterior_set(np.tile(p, (11, 1)))) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 30), k=st.integers(2, 12))
def test_is_bounds(seed, n, k):
    rng = np.random.default_rng(seed)
    score = MT.inception_score(posterior_set(rng.dirichlet(np.ones(k), size=n)))
    assert 1.0 - 1e-9 <= score <= k + 1e-9


def test_is_empty_set():
    with pytest.raises(InputError, match="p.post: empty posterior set"):
        MT.inception_score(posterior_set(np.zeros((0, 4))))


def per_row_inception_score(posteriors):
    """inception_score's formula with one fsum per class and per row: the
    oracle."""
    probs = posteriors.rows
    n, k = probs.shape
    marginal = np.array([fsum(probs[:, j]) for j in range(k)]) / n
    kls = []
    for p in probs:
        mask = p > 0
        kls.append(fsum(p[mask] * (np.log(p[mask]) - np.log(marginal[mask]))))
    return float(np.exp(fsum(kls) / n))


@pytest.mark.parametrize(
    "n, k, alpha", [(1, 1, 1.0), (7, 3, 0.05), (200, 527, 0.3), (1000, 40, 2.0)]
)
def test_is_equals_the_per_row_fsum_formula_bitwise(rng, n, k, alpha):
    # small Dirichlet concentrations put many values near 0; exact zeros
    # (never a row's largest value), a class no row predicts and a repeated
    # row are added on top
    probs = rng.dirichlet(np.full(k, alpha), size=n)
    zeros = rng.random(probs.shape) < 0.2
    zeros[np.arange(n), probs.argmax(axis=1)] = False
    probs[zeros] = 0.0
    probs = np.hstack([np.zeros((n, 1)), probs / probs.sum(axis=1, keepdims=True)])
    probs[-1] = probs[0]
    posteriors = posterior_set(probs)
    assert MT.inception_score(posteriors).hex() == per_row_inception_score(posteriors).hex()


def _wide_rows(rng, n, width):
    """Signed values whose exponents spread over most of float64's range,
    with cancelling pairs, so each row sum needs many extraction passes."""
    rows = rng.normal(size=(n, width)) * 2.0 ** rng.integers(-1000, 1000, size=(n, width))
    flip = rng.random((n, width)) < 0.3
    rows[flip] = -np.roll(rows, 1, axis=1)[flip]
    return rows


def _cancelling_rows(values):
    """Rows that hold each value and its negation, so each sums to exactly 0."""
    return np.hstack([values, -values[:, ::-1]])


FSUM_CASES = {
    "wide exponents": lambda rng: _wide_rows(rng, 300, 37),
    "long rows": lambda rng: _wide_rows(rng, 5, 4000),
    "x and -x": lambda rng: _cancelling_rows(
        rng.normal(size=(50, 8)) * 2.0 ** rng.integers(-900, 900, size=(50, 8))
    ),
    "subnormals": lambda rng: rng.integers(-2**40, 2**40, size=(100, 64)) * 5e-324,
    "subnormals and normals": lambda rng: np.hstack(
        [rng.integers(-99, 99, size=(100, 9)) * 5e-324, rng.normal(size=(100, 3)) * 2.0**-1020]
    ),
    "zeros": lambda rng: np.array([[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, -0.0, 0.0]]),
    "zero width": lambda rng: np.zeros((4, 0)),
    "no rows": lambda rng: np.zeros((0, 5)),
    "near overflow": lambda rng: np.array(
        [[1.7e308, -1.7e308, 1e300, 3.0], [2.0**1012, 2.0**1012, 1.0, 0.0]]
    ),
    "not finite": lambda rng: np.array(
        [[np.inf, 1.0], [2.0, -np.inf], [np.nan, 1.0], [1.0, 2.0]]
    ),
}


@pytest.mark.parametrize("case", sorted(FSUM_CASES))
def test_fsums_match_fsum_as_bytes(rng, case):
    rows = FSUM_CASES[case](rng).astype(np.float64)
    want = np.array([fsum(row) for row in rows.tolist()]).reshape(rows.shape[0])
    got = MT._fsums(rows)
    assert got.tobytes() == want.tobytes()
    # the columns of a transposed view, as the marginal takes them
    want = np.array([fsum(col) for col in rows.T.tolist()]).reshape(rows.shape[1])
    assert MT._fsums(rows.T).tobytes() == want.tobytes()


# --- paired KL ---------------------------------------------------------------------------

def test_paired_kl_identical_is_zero(rng):
    p = rng.dirichlet(np.ones(8))
    assert MT.paired_kl(posterior_set(p), posterior_set(p.copy())) == pytest.approx(0.0, abs=1e-9)


def test_paired_kl_onehot_vs_uniform_is_ln2():
    gen = posterior_set([0.5, 0.5])
    gt = posterior_set([1.0, 0.0])
    assert MT.paired_kl(gen, gt) == pytest.approx(np.log(2), abs=1e-6)


def test_paired_kl_pairs_by_id(rng):
    gen = posterior_set(rng.dirichlet(np.ones(4), size=3))
    gt = posterior_set(rng.dirichlet(np.ones(4), size=5))
    kls = [MT.paired_kl(posterior_set(gen.rows[i]), posterior_set(gt.rows[i])) for i in range(3)]
    assert MT.paired_kl(gen, gt) == pytest.approx(float(np.mean(kls)), abs=1e-12)


def per_pair_kl(gen, gt):
    """paired_kl's formula one id pair at a time: the oracle."""
    kls = []
    for gen_id, q in zip(gen.ids, gen.rows):
        p = gt.rows[gt.ids.index(gen_id)]
        p = (p + MT.KL_EPS) / (p + MT.KL_EPS).sum()
        q = (q + MT.KL_EPS) / (q + MT.KL_EPS).sum()
        kls.append(float(np.sum(p * (np.log(p) - np.log(q)))))
    return float(np.mean(kls))


@pytest.mark.parametrize("n, k", [(1, 1), (3, 7), (40, 527), (257, 1100)])
def test_paired_kl_equals_the_per_pair_formula_bitwise(rng, n, k):
    gen_rows, gt_rows = rng.random((n, k)), rng.random((n + 4, k))
    gen_rows[rng.random(gen_rows.shape) < 0.3] = 0.0
    gt_rows[rng.random(gt_rows.shape) < 0.3] = 0.0
    ids = [f"p{i:04d}" for i in rng.permutation(n + 4)]
    gen = RecordSet.from_records(ids[:n], gen_rows)
    gt = RecordSet.from_records(ids, gt_rows)
    assert MT.paired_kl(gen, gt) == per_pair_kl(gen, gt)


def test_paired_kl_missing_partner():
    with pytest.raises(InputError, match=r"a.post and b.post: no groundtruth posterior for ids \['a0000'\]"):
        MT.paired_kl(posterior_set([0.5, 0.5], "a"), posterior_set([0.5, 0.5], "b"))


def test_paired_kl_inconsistent_k():
    with pytest.raises(InputError, match="p.post and p.post: generated K=4 vs groundtruth K=5"):
        MT.paired_kl(posterior_set(np.full(4, 0.25)), posterior_set(np.full(5, 0.2)))


# --- report -----------------------------------------------------------------------------

def test_report_to_json(rng):
    gen = unit_set(rng, 10, 8, "g")
    gt = unit_set(rng, 10, 8, "g")
    train = unit_set(rng, 30, 8, "s")
    posts = posterior_set(np.full((10, 5), 0.2), "g")
    report = MT.build_report(
        gen_emb={"pann": lambda: gen},
        gt_emb={"pann": lambda: gt},
        train_seg_emb=lambda: [train],
        text_emb=lambda: gen,
        gen_post=lambda: posts,
        gt_post=lambda: posts,
    )
    payload = json.loads(report.to_json())
    assert payload["sim_aa"].keys() == {"0.90", "0.95"}
    assert [r["gen_id"] for r in payload["nn_audit"]] == list(gen.ids)
    assert payload["provenance"]["text_gen_pairs"] == 10
    assert "nn_backend" not in payload["provenance"]


def test_report_searches_once_for_all_thresholds(rng, monkeypatch):
    gen = unit_set(rng, 40, 8, "g")
    train = unit_set(rng, 60, 8, "s")
    text = unit_set(rng, 30, 8, "g")  # captions of the first 30 generated items
    thresholds = (0.3, 0.5, 0.7, 0.9)
    gen_best, gen_idx = MT._kernels.nn_max_dot(gen.rows, train.rows)
    text_best, _ = MT._kernels.nn_max_dot(text.rows, train.rows)

    calls = []
    search = MT._kernels.nn_max_dot
    monkeypatch.setattr(MT._kernels, "nn_max_dot", lambda q, r: calls.append(1) or search(q, r))
    report = MT.build_report(
        gen_emb={"g": lambda: gen},
        train_seg_emb=lambda: [train],
        text_emb=lambda: text,
        thresholds=thresholds,
    )
    assert len(calls) == 1
    assert report.sim_aa == {t: float(np.mean(gen_best >= t)) for t in thresholds}
    assert report.retrieval_max == float(np.mean(text_best))
    assert report.nn_audit == [
        {"gen_id": g, "segment_id": train.ids[j], "similarity": float(b)}
        for g, j, b in zip(gen.ids, gen_idx, gen_best)
    ]


def test_report_default_thresholds(rng):
    gen = unit_set(rng, 5, 8, "g")
    report = MT.build_report(gen_emb={"g": lambda: gen}, train_seg_emb=lambda: [gen])
    assert set(report.sim_aa) == {0.90, 0.95}
    assert report.sim_aa[0.90] == 1.0 and report.sim_aa[0.95] == 1.0


def test_report_without_posteriors_omits_is_kl(rng):
    gen = unit_set(rng, 5, 8, "g")
    report = MT.build_report(gen_emb={"g": lambda: gen}, train_seg_emb=lambda: [gen])
    assert report.inception_score is None and report.paired_kl is None
    table = MT.render_table(report)
    assert "---" in table


def test_report_sim_monotone(rng):
    gen = unit_set(rng, 20, 8, "g")
    train = unit_set(rng, 60, 8, "s")
    report = MT.build_report(
        gen_emb={"g": lambda: gen}, train_seg_emb=lambda: [train], thresholds=(0.5, 0.7, 0.9)
    )
    ratios = [report.sim_aa[t] for t in sorted(report.sim_aa)]
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
