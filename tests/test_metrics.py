import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatmix import metrics as MT
from beatmix.errors import (
    DimMismatch,
    EmptySet,
    InconsistentK,
    MissingPartner,
)
from beatmix.gateway import ClassPosterior, Embedding


def unit_set(rng, n, d, prefix):
    out = {}
    for i in range(n):
        v = rng.normal(size=d)
        v /= np.linalg.norm(v)
        rec_id = f"{prefix}{i:04d}"
        out[rec_id] = Embedding(v, "audio", rec_id)
    return out


def unit(v, rec_id="x", modality="text"):
    v = np.asarray(v, dtype=float)
    return Embedding(v / np.linalg.norm(v), modality, rec_id)


# --- similarities ------------------------------------------------------------

def test_similarity_identical_is_one():
    e = unit([1.0, 2.0, 3.0])
    assert MT.text_audio_similarity(e, e) == pytest.approx(1.0)


def test_similarity_orthogonal_is_zero():
    assert MT.text_audio_similarity(unit([1, 0]), unit([0, 1])) == pytest.approx(0.0)


def test_similarity_opposite_is_minus_one():
    e = unit([0.3, -0.4, 0.5])
    neg = Embedding(-e.vector, "audio", "neg")
    assert MT.text_audio_similarity(e, neg) == pytest.approx(-1.0)


def test_similarity_dim_mismatch():
    with pytest.raises(DimMismatch):
        MT.text_audio_similarity(unit([1, 0]), unit([1, 0, 0]))


def test_mean_similarity_arithmetic():
    a = unit([1, 0])
    sims = [
        (a, unit([np.cos(np.arccos(0.2)), np.sin(np.arccos(0.2))])),
        (a, unit([np.cos(np.arccos(0.4)), np.sin(np.arccos(0.4))])),
    ]
    assert MT.mean_text_audio_similarity(sims) == pytest.approx(0.3)


def test_mean_similarity_empty():
    with pytest.raises(EmptySet):
        MT.mean_text_audio_similarity([])


def test_reference_value_formatting():
    report = MT.MetricsReport(mean_text_audio_sim=0.3252)
    assert "0.325" in MT.render_table(report)


# --- retrieval max --------------------------------------------------------------

def test_retrieval_max_verbatim_texts(rng):
    audio = unit_set(rng, 30, 16, "a")
    texts = {k: Embedding(v.vector.copy(), "text", k) for k, v in audio.items()}
    assert MT.retrieval_max(texts, audio) == pytest.approx(1.0)


def test_retrieval_max_single_text_takes_max():
    text = {"t": unit([1, 0, 0])}
    audio = {
        "a": unit([0.1, 1, 0], "a", "audio"),
        "b": unit([0.9, 0.2, 0], "b", "audio"),
        "c": unit([0.5, 0.5, 0.7], "c", "audio"),
    }
    sims = [float(np.dot(text["t"].vector, a.vector)) for a in audio.values()]
    assert MT.retrieval_max(text, audio) == pytest.approx(max(sims))


def test_retrieval_max_matches_double_loop_oracle(rng):
    texts = unit_set(rng, 100, 32, "t")
    audio = unit_set(rng, 1000, 32, "a")
    got = MT.retrieval_max(texts, audio)
    tm = np.array([texts[k].vector for k in sorted(texts)])
    am = np.array([audio[k].vector for k in sorted(audio)])
    best = [max(float(np.dot(t, a)) for a in am) for t in tm]
    assert got == pytest.approx(float(np.mean(best)), abs=1e-6)


# --- nearest neighbor ratio -------------------------------------------------------

def test_nn_ratio_self_match(rng):
    gen = unit_set(rng, 25, 12, "g")
    ratio, records = MT.nn_similarity_ratio(gen, gen, 0.90)
    assert ratio == 1.0
    assert all(r.similarity >= 1.0 - 1e-12 for r in records)
    assert all(r.gen_id == r.segment_id for r in records)


def test_nn_ratio_zero_when_unreachable(rng):
    gen = unit_set(rng, 10, 64, "g")
    train = unit_set(rng, 20, 64, "s")
    ratio, _ = MT.nn_similarity_ratio(gen, train, 0.999)
    assert ratio == 0.0


def test_nn_ratio_monotone_in_threshold(rng):
    for _ in range(100):
        gen = unit_set(rng, 8, 6, "g")
        train = unit_set(rng, 30, 6, "s")
        r90, _ = MT.nn_similarity_ratio(gen, train, 0.90)
        r95, _ = MT.nn_similarity_ratio(gen, train, 0.95)
        assert r95 <= r90


def test_nn_ratio_permutation_invariant(rng):
    gen = unit_set(rng, 12, 8, "g")
    train = unit_set(rng, 40, 8, "s")
    r1, rec1 = MT.nn_similarity_ratio(gen, train, 0.5)
    shuffled_gen = dict(reversed(list(gen.items())))
    shuffled_train = dict(reversed(list(train.items())))
    r2, rec2 = MT.nn_similarity_ratio(shuffled_gen, shuffled_train, 0.5)
    assert r1 == r2 and rec1 == rec2


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
    with pytest.raises(EmptySet):
        MT.frechet_distance(np.zeros((0, 4)), np.zeros((5, 4)))


def test_fd_dim_mismatch():
    with pytest.raises(DimMismatch):
        MT.frechet_distance(np.zeros((5, 3)), np.zeros((5, 4)))


# --- inception score -------------------------------------------------------------------

def test_is_uniform_is_exactly_one():
    posts = {f"u{i}": ClassPosterior(np.full(7, 1 / 7), f"u{i}") for i in range(9)}
    assert MT.inception_score(posts) == 1.0


def test_is_one_hot_equals_k():
    k = 10
    posts = {f"o{i}": ClassPosterior(np.eye(k)[i], f"o{i}") for i in range(k)}
    assert MT.inception_score(posts) == pytest.approx(float(k), abs=1e-6)


def test_is_identical_posteriors_is_one(rng):
    p = rng.dirichlet(np.ones(6))
    posts = {f"s{i}": ClassPosterior(p.copy(), f"s{i}") for i in range(11)}
    assert MT.inception_score(posts) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 30), k=st.integers(2, 12))
def test_is_bounds_and_permutation_invariance(seed, n, k):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(k), size=n)
    posts = {f"p{i}": ClassPosterior(probs[i], f"p{i}") for i in range(n)}
    score = MT.inception_score(posts)
    assert 1.0 - 1e-9 <= score <= k + 1e-9
    shuffled = dict(reversed(list(posts.items())))
    assert MT.inception_score(shuffled) == score


def test_is_inconsistent_k():
    posts = {
        "a": ClassPosterior(np.full(4, 0.25), "a"),
        "b": ClassPosterior(np.full(5, 0.2), "b"),
    }
    with pytest.raises(InconsistentK):
        MT.inception_score(posts)


# --- paired KL ---------------------------------------------------------------------------

def test_paired_kl_identical_is_zero(rng):
    p = rng.dirichlet(np.ones(8))
    gen = {"a": ClassPosterior(p.copy(), "a")}
    gt = {"a": ClassPosterior(p.copy(), "a")}
    assert MT.paired_kl(gen, gt) == pytest.approx(0.0, abs=1e-9)


def test_paired_kl_onehot_vs_uniform_is_ln2():
    gen = {"x": ClassPosterior(np.array([0.5, 0.5]), "x")}
    gt = {"x": ClassPosterior(np.array([1.0, 0.0]), "x")}
    assert MT.paired_kl(gen, gt) == pytest.approx(np.log(2), abs=1e-6)


def test_paired_kl_missing_partner():
    gen = {"a": ClassPosterior(np.array([0.5, 0.5]), "a")}
    with pytest.raises(MissingPartner):
        MT.paired_kl(gen, {})


# --- report -----------------------------------------------------------------------------

def test_report_to_json(rng):
    gen = unit_set(rng, 10, 8, "g")
    train = unit_set(rng, 30, 8, "s")
    text = {k: Embedding(v.vector, "text", k) for k, v in gen.items()}
    posts = {k: ClassPosterior(np.full(5, 0.2), k) for k in gen}
    report = MT.build_report(
        fd_sets={"pann": (gen, train)},
        gen_emb=gen,
        train_seg_emb=train,
        text_emb=text,
        gen_post=posts,
        gt_post=posts,
    )
    payload = json.loads(report.to_json())
    assert payload["sim_aa"].keys() == {"0.90", "0.95"}
    assert [r["gen_id"] for r in payload["nn_audit"]] == sorted(gen)
    assert "nn_backend" not in payload["provenance"]


def test_report_searches_once_for_all_thresholds(rng, monkeypatch):
    gen = unit_set(rng, 40, 8, "g")
    train = unit_set(rng, 60, 8, "s")
    thresholds = (0.3, 0.5, 0.7, 0.9)
    expected = {t: MT.nn_similarity_ratio(gen, train, t) for t in thresholds}

    calls = []
    search = MT._kernels.nn_max_dot
    monkeypatch.setattr(MT._kernels, "nn_max_dot", lambda q, r: calls.append(1) or search(q, r))
    report = MT.build_report(gen_emb=gen, train_seg_emb=train, thresholds=thresholds)
    assert len(calls) == 1
    assert report.sim_aa == {t: ratio for t, (ratio, _) in expected.items()}
    assert all(report.nn_audit == records for _, records in expected.values())
    with pytest.raises(ValueError):
        MT.build_report(gen_emb=gen, train_seg_emb=train, thresholds=(0.5, 1.5))


def test_report_default_thresholds(rng):
    gen = unit_set(rng, 5, 8, "g")
    report = MT.build_report(gen_emb=gen, train_seg_emb=gen)
    assert set(report.sim_aa) == {0.90, 0.95}
    assert report.sim_aa[0.90] == 1.0 and report.sim_aa[0.95] == 1.0


def test_report_without_posteriors_omits_is_kl(rng):
    gen = unit_set(rng, 5, 8, "g")
    report = MT.build_report(gen_emb=gen, train_seg_emb=gen)
    assert report.inception_score is None and report.paired_kl is None
    table = MT.render_table(report)
    assert "---" in table


def test_report_sim_monotone(rng):
    gen = unit_set(rng, 20, 8, "g")
    train = unit_set(rng, 60, 8, "s")
    report = MT.build_report(
        gen_emb=gen, train_seg_emb=train, thresholds=(0.5, 0.7, 0.9)
    )
    ratios = [report.sim_aa[t] for t in sorted(report.sim_aa)]
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
