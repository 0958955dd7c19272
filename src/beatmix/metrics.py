"""Objective evaluation of generated audio from embeddings and posteriors.

Quality side: Frechet distance between Gaussians fitted to two embedding
sets (per provider), inception score, and mean pairwise KL divergence.
Relevance/novelty side: mean text-audio cosine similarity, retrieval-max,
and the nearest-neighbor audio similarity ratio SIM_AA@tau (the fraction of
generated items whose closest training segment exceeds cosine tau).

Every metric is pure and order-invariant: inputs are sorted by id before any
floating-point reduction, and nearest-neighbor searches use the fixed-order
kernel, so results are reproducible to the bit.
"""

import json
from dataclasses import dataclass, field
from math import fsum

import numpy as np

from . import _kernels
from .errors import DimMismatch, EmptySet, InconsistentK, MissingPartner
from .gateway import ClassPosterior, Embedding

DEFAULT_THRESHOLDS = (0.90, 0.95)
KL_EPS = 1e-10
COV_REG = 1e-6


def text_audio_similarity(text_emb: Embedding, audio_emb: Embedding) -> float:
    """Cosine similarity of a text/audio pair (both must be unit-norm)."""
    if text_emb.vector.size != audio_emb.vector.size:
        raise DimMismatch(
            f"text dim {text_emb.vector.size} vs audio dim {audio_emb.vector.size}"
        )
    return float(np.dot(text_emb.vector, audio_emb.vector))


def mean_text_audio_similarity(pairs) -> float:
    sims = [text_audio_similarity(t, a) for t, a in pairs]
    if not sims:
        raise EmptySet("no text/audio pairs")
    return float(np.mean(sims))


def _stack(embeddings: dict[str, Embedding]) -> tuple[list[str], np.ndarray]:
    if not embeddings:
        raise EmptySet("empty embedding set")
    ids = sorted(embeddings)
    mat = np.ascontiguousarray([embeddings[i].vector for i in ids], dtype=np.float64)
    return ids, mat


def retrieval_max(
    text_set: dict[str, Embedding], train_audio_set: dict[str, Embedding]
) -> float:
    """For every text embedding, its best cosine over all training audio;
    averaged over texts."""
    _, texts = _stack(text_set)
    _, train = _stack(train_audio_set)
    if texts.shape[1] != train.shape[1]:
        raise DimMismatch(f"text dim {texts.shape[1]} vs audio dim {train.shape[1]}")
    best, _ = _kernels.nn_max_dot(texts, train)
    return float(np.mean(best))


@dataclass(frozen=True)
class NearestNeighbor:
    gen_id: str
    segment_id: str
    similarity: float


def nn_similarity_ratio(
    gen_set: dict[str, Embedding],
    train_segment_set: dict[str, Embedding],
    threshold: float,
) -> tuple[float, list[NearestNeighbor]]:
    """SIM_AA@threshold plus the per-item nearest-neighbor audit records."""
    _check_threshold(threshold)
    best, records = _nearest_segments(gen_set, train_segment_set)
    return float(np.mean(best >= threshold)), records


def _check_threshold(threshold: float) -> None:
    if not (0.0 <= threshold <= 1.0):
        raise ValueError("threshold must lie in [0, 1]")


def _nearest_segments(
    gen_set: dict[str, Embedding], train_segment_set: dict[str, Embedding]
) -> tuple[np.ndarray, list[NearestNeighbor]]:
    """Each generated item's best cosine over the training segments (in id
    order), plus the audit records; independent of any threshold."""
    gen_ids, gen = _stack(gen_set)
    seg_ids, segs = _stack(train_segment_set)
    if gen.shape[1] != segs.shape[1]:
        raise DimMismatch(f"gen dim {gen.shape[1]} vs segment dim {segs.shape[1]}")
    best, idx = _kernels.nn_max_dot(gen, segs)
    records = [
        NearestNeighbor(gen_ids[i], seg_ids[int(idx[i])], float(best[i]))
        for i in range(len(gen_ids))
    ]
    return best, records


def frechet_distance(set_a: np.ndarray, set_b: np.ndarray) -> float:
    """Frechet distance between Gaussians fitted to two sample sets.

    ``|mu_a - mu_b|^2 + tr(Sa + Sb - 2 (Sa Sb)^(1/2))`` with the matrix root
    taken through a symmetric eigendecomposition, negative eigenvalues
    clamped at zero. When a set has fewer samples than dim + 1, its
    covariance is regularized by ``COV_REG * I``.
    """
    a = np.atleast_2d(np.asarray(set_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(set_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise EmptySet("frechet distance needs two non-empty sets")
    if a.shape[1] != b.shape[1]:
        raise DimMismatch(f"dims differ: {a.shape[1]} vs {b.shape[1]}")
    dim = a.shape[1]

    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov_a = _covariance(a)
    cov_b = _covariance(b)
    if a.shape[0] < dim + 1:
        cov_a = cov_a + COV_REG * np.eye(dim)
    if b.shape[0] < dim + 1:
        cov_b = cov_b + COV_REG * np.eye(dim)

    root_a = _sqrtm_psd(cov_a)
    product = root_a @ cov_b @ root_a
    product = (product + product.T) / 2
    eigvals = np.linalg.eigvalsh(product)
    trace_root = float(np.sqrt(np.maximum(eigvals, 0.0)).sum())

    diff = mu_a - mu_b
    fd = float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * trace_root)
    return max(fd, 0.0)


def _covariance(x: np.ndarray) -> np.ndarray:
    if x.shape[0] < 2:
        return np.zeros((x.shape[1], x.shape[1]))
    centered = x - x.mean(axis=0)
    return centered.T @ centered / (x.shape[0] - 1)


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh((mat + mat.T) / 2)
    return (eigvecs * np.sqrt(np.maximum(eigvals, 0.0))) @ eigvecs.T


def _posterior_matrix(posteriors) -> tuple[list[str], np.ndarray]:
    if isinstance(posteriors, dict):
        items = sorted(posteriors.items())
    else:
        items = sorted((p.id, p) for p in posteriors)
    if not items:
        raise EmptySet("empty posterior set")
    k = items[0][1].probs.size
    for rec_id, post in items:
        if post.probs.size != k:
            raise InconsistentK(f"posterior {rec_id!r} has {post.probs.size} classes, not {k}")
    return [rec_id for rec_id, _ in items], np.array([p.probs for _, p in items])


def inception_score(posteriors) -> float:
    """exp of the mean KL between each posterior and the sample marginal.

    ``0 * log(0/q)`` counts as zero, so a uniform set scores exactly 1 and a
    full set of distinct one-hot posteriors over K classes scores K. The
    marginal and the KL average use exact summation (fsum), so identical
    posteriors yield a bitwise-zero KL.
    """
    _, probs = _posterior_matrix(posteriors)
    n, k = probs.shape
    marginal = np.array([fsum(probs[:, j]) for j in range(k)]) / n
    kls = []
    for p in probs:
        mask = p > 0
        kls.append(fsum(p[mask] * (np.log(p[mask]) - np.log(marginal[mask]))))
    return float(np.exp(fsum(kls) / n))


def paired_kl(
    gen_posteriors: dict[str, ClassPosterior],
    gt_posteriors: dict[str, ClassPosterior],
) -> float:
    """Mean KL(groundtruth || generated) over id-paired posteriors, with an
    epsilon floor so exact zeros stay finite."""
    gen_ids, gen = _posterior_matrix(gen_posteriors)
    gt_map = dict(gt_posteriors) if isinstance(gt_posteriors, dict) else {
        p.id: p for p in gt_posteriors
    }
    missing = [i for i in gen_ids if i not in gt_map]
    if missing:
        raise MissingPartner(f"no groundtruth posterior for ids {missing[:5]}")
    kls = []
    for i, gen_id in enumerate(gen_ids):
        q = gen[i]
        p = gt_map[gen_id].probs
        if p.size != q.size:
            raise InconsistentK(f"pair {gen_id!r} has K={p.size} vs K={q.size}")
        p = (p + KL_EPS) / (p + KL_EPS).sum()
        q = (q + KL_EPS) / (q + KL_EPS).sum()
        kls.append(float(np.sum(p * (np.log(p) - np.log(q)))))
    return float(np.mean(kls))


# --- report -----------------------------------------------------------------

@dataclass
class MetricsReport:
    fd: dict = field(default_factory=dict)  # provider -> value
    inception_score: float | None = None
    paired_kl: float | None = None
    mean_text_audio_sim: float | None = None
    test_set_text_audio_sim: float | None = None
    retrieval_max: float | None = None
    sim_aa: dict = field(default_factory=dict)  # threshold -> ratio
    nn_audit: list = field(default_factory=list)  # NearestNeighbor records
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "fd": {k: self.fd[k] for k in sorted(self.fd)},
            "inception_score": self.inception_score,
            "paired_kl": self.paired_kl,
            "mean_text_audio_sim": self.mean_text_audio_sim,
            "test_set_text_audio_sim": self.test_set_text_audio_sim,
            "retrieval_max": self.retrieval_max,
            "sim_aa": {f"{t:.2f}": self.sim_aa[t] for t in sorted(self.sim_aa)},
            "nn_audit": [
                {"gen_id": r.gen_id, "segment_id": r.segment_id, "similarity": r.similarity}
                for r in self.nn_audit
            ],
            "provenance": self.provenance,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def build_report(
    *,
    fd_sets: dict[str, tuple[dict, dict]] | None = None,
    gen_emb: dict[str, Embedding] | None = None,
    train_seg_emb: dict[str, Embedding] | None = None,
    text_emb: dict[str, Embedding] | None = None,
    gt_emb: dict[str, Embedding] | None = None,
    gen_post: dict[str, ClassPosterior] | None = None,
    gt_post: dict[str, ClassPosterior] | None = None,
    thresholds=DEFAULT_THRESHOLDS,
) -> MetricsReport:
    """Assemble whatever metrics the supplied inputs allow.

    ``fd_sets`` maps a provider name to (generated, groundtruth) embedding
    sets. Text-audio pairing matches ids between ``text_emb`` and
    ``gen_emb`` / ``gt_emb``. Missing inputs simply leave their fields None.
    """
    report = MetricsReport()
    report.provenance = {
        "kl_direction": "KL(groundtruth || generated)",
        "thresholds": [float(t) for t in thresholds],
        "cov_regularization": COV_REG,
    }

    if fd_sets:
        for provider in sorted(fd_sets):
            gen_set, gt_set = fd_sets[provider]
            _, gen_mat = _stack(gen_set)
            _, gt_mat = _stack(gt_set)
            report.fd[provider] = frechet_distance(gen_mat, gt_mat)
            report.provenance[f"fd_{provider}_sizes"] = [gen_mat.shape[0], gt_mat.shape[0]]

    if gen_post is not None:
        report.inception_score = inception_score(gen_post)
        if gt_post is not None:
            report.paired_kl = paired_kl(gen_post, gt_post)

    if text_emb and gen_emb:
        pairs = _paired(text_emb, gen_emb)
        report.mean_text_audio_sim = mean_text_audio_similarity(pairs)
        report.provenance["text_gen_pairs"] = len(pairs)
    if text_emb and gt_emb:
        pairs = _paired(text_emb, gt_emb)
        report.test_set_text_audio_sim = mean_text_audio_similarity(pairs)
    if text_emb and train_seg_emb:
        report.retrieval_max = retrieval_max(text_emb, train_seg_emb)

    if gen_emb and train_seg_emb:
        best, report.nn_audit = _nearest_segments(gen_emb, train_seg_emb)
        for tau in sorted(thresholds):
            _check_threshold(tau)
            report.sim_aa[float(tau)] = float(np.mean(best >= tau))
        report.provenance["sim_sizes"] = [len(gen_emb), len(train_seg_emb)]
    return report


def _paired(text_emb, audio_emb):
    common = sorted(set(text_emb) & set(audio_emb))
    if not common:
        raise EmptySet("no ids shared between text and audio sets")
    return [(text_emb[i], audio_emb[i]) for i in common]


def _fmt(value) -> str:
    return "---" if value is None else f"{value:.3f}"


def render_table(report: MetricsReport) -> str:
    """Aligned plain-text tables in the familiar two-block layout."""
    lines = []
    fd_cols = [(f"FD_{p} (down)", report.fd[p]) for p in sorted(report.fd)]
    quality = fd_cols + [
        ("Inception Score (up)", report.inception_score),
        ("KL Div. (down)", report.paired_kl),
    ]
    lines.append("Quality")
    lines.extend(_table_block(quality))
    lines.append("")
    relevance = [
        ("Text-Audio Similarity (up)", report.mean_text_audio_sim),
        ("Test Set (Ref.)", report.test_set_text_audio_sim),
        ("Retrieval Max (Ref.)", report.retrieval_max),
    ] + [(f"SIM_AA@{int(round(t * 100))} (down)", report.sim_aa[t]) for t in sorted(report.sim_aa)]
    lines.append("Relevance & novelty")
    lines.extend(_table_block(relevance))
    return "\n".join(lines) + "\n"


def _table_block(columns) -> list[str]:
    headers = [name for name, _ in columns]
    values = [_fmt(v) for _, v in columns]
    widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
    head = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    vals = "  ".join(v.ljust(w) for v, w in zip(values, widths))
    return [head.rstrip(), vals.rstrip()]
