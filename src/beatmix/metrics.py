"""Objective evaluation of generated audio from embeddings and posteriors.

Quality side: Frechet distance between Gaussians fitted to two embedding
sets (per provider), inception score, and mean pairwise KL divergence.
Relevance/novelty side: mean text-audio cosine similarity, retrieval-max,
and the nearest-neighbor audio similarity ratio SIM_AA@tau (the fraction of
generated items whose closest training segment exceeds cosine tau).

Every metric is pure and order-invariant: a set arrives as one matrix with
its rows in id order (``gateway.RecordSet``), whatever the record order in
its file, and the nearest-neighbor search uses the fixed-order kernel, so
results are reproducible to the bit.
"""

from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from math import fsum

import numpy as np

from . import _kernels
from .errors import DimMismatch, EmptySet, InconsistentK, MissingPartner
from .gateway import RecordSet
from .manifest import canonical_json

DEFAULT_THRESHOLDS = (0.90, 0.95)
KL_EPS = 1e-10
COV_REG = 1e-6


def mean_text_audio_similarity(text: RecordSet, audio: RecordSet) -> float:
    """Mean cosine similarity of the text/audio pairs that share an id (rows
    are unit-norm)."""
    if text.dim != audio.dim:
        raise DimMismatch(f"text dim {text.dim} vs audio dim {audio.dim}")
    audio_row = {rec_id: i for i, rec_id in enumerate(audio.ids)}
    # one dot product per pair keeps the bits a batched product would not
    sims = [
        float(text.rows[i] @ audio.rows[audio_row[rec_id]])
        for i, rec_id in enumerate(text.ids)
        if rec_id in audio_row
    ]
    if not sims:
        raise EmptySet("no ids shared between text and audio sets")
    return float(np.mean(sims))


@dataclass(frozen=True)
class NearestNeighbor:
    gen_id: str
    segment_id: str
    similarity: float


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


def inception_score(posteriors: RecordSet) -> float:
    """exp of the mean KL between each posterior and the sample marginal.

    ``0 * log(0/q)`` counts as zero, so a uniform set scores exactly 1 and a
    full set of distinct one-hot posteriors over K classes scores K. The
    marginal and the KL average use exact summation (fsum), so identical
    posteriors yield a bitwise-zero KL.
    """
    if not posteriors:
        raise EmptySet("empty posterior set")
    probs = posteriors.rows
    n, k = probs.shape
    marginal = np.array([fsum(probs[:, j]) for j in range(k)]) / n
    kls = []
    for p in probs:
        mask = p > 0
        kls.append(fsum(p[mask] * (np.log(p[mask]) - np.log(marginal[mask]))))
    return float(np.exp(fsum(kls) / n))


def paired_kl(gen_posteriors: RecordSet, gt_posteriors: RecordSet) -> float:
    """Mean KL(groundtruth || generated) over id-paired posteriors, with an
    epsilon floor so exact zeros stay finite."""
    if not gen_posteriors:
        raise EmptySet("empty posterior set")
    if gen_posteriors.dim != gt_posteriors.dim:
        raise InconsistentK(
            f"generated K={gen_posteriors.dim} vs groundtruth K={gt_posteriors.dim}"
        )
    gt_row = {rec_id: i for i, rec_id in enumerate(gt_posteriors.ids)}
    missing = [i for i in gen_posteriors.ids if i not in gt_row]
    if missing:
        raise MissingPartner(f"no groundtruth posterior for ids {missing[:5]}")
    # Row i of p is the groundtruth partner of generated row i. Each row sum
    # is the same pairwise sum as a 1-D sum of that row, so this is the
    # per-pair formula to the bit.
    p = gt_posteriors.rows[[gt_row[gen_id] for gen_id in gen_posteriors.ids]] + KL_EPS
    p /= p.sum(axis=1, keepdims=True)
    q = gen_posteriors.rows + KL_EPS
    q /= q.sum(axis=1, keepdims=True)
    return float(np.mean(np.sum(p * (np.log(p) - np.log(q)), axis=1)))


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

    def audit_records(self) -> list[dict]:
        """``nn_audit`` as the plain dicts that report.json and nn_audit.json hold."""
        return [asdict(r) for r in self.nn_audit]

    def to_json(self, audit: list[dict] | None = None) -> str:
        """report.json's text; ``audit`` is ``self.audit_records()``, if the
        caller has built it already."""
        payload = {
            "fd": {k: self.fd[k] for k in sorted(self.fd)},
            "inception_score": self.inception_score,
            "paired_kl": self.paired_kl,
            "mean_text_audio_sim": self.mean_text_audio_sim,
            "test_set_text_audio_sim": self.test_set_text_audio_sim,
            "retrieval_max": self.retrieval_max,
            "sim_aa": {f"{t:.2f}": self.sim_aa[t] for t in sorted(self.sim_aa)},
            "nn_audit": self.audit_records() if audit is None else audit,
            "provenance": self.provenance,
        }
        return canonical_json(payload)


def build_report(
    *,
    fd_sets: dict[str, tuple[RecordSet, RecordSet]] | None = None,
    gen_emb: RecordSet | None = None,
    train_seg_emb: Iterable[RecordSet] | None = None,
    text_emb: RecordSet | None = None,
    gt_emb: RecordSet | None = None,
    gen_post: RecordSet | None = None,
    gt_post: RecordSet | None = None,
    thresholds=DEFAULT_THRESHOLDS,
) -> MetricsReport:
    """Assemble whatever metrics the supplied inputs allow.

    ``fd_sets`` maps a provider name to (generated, groundtruth) embedding
    sets. Text-audio pairing matches ids between ``text_emb`` and
    ``gen_emb`` / ``gt_emb``. Retrieval-max (each text's best cosine over
    the training segments, averaged) and SIM_AA@tau (the fraction of
    generated items whose best cosine reaches tau) share one nearest-neighbor
    search. ``train_seg_emb`` is an iterable of RecordSet blocks (such as
    ``gateway.read_embedding_blocks``) that is searched block by block and
    read once, with the same result as the blocks joined. Missing
    inputs simply leave their fields None.
    """
    if not all(0.0 <= tau <= 1.0 for tau in thresholds):
        raise ValueError("thresholds must lie in [0, 1]")
    report = MetricsReport()
    report.provenance = {
        "kl_direction": "KL(groundtruth || generated)",
        "thresholds": [float(t) for t in thresholds],
        "cov_regularization": COV_REG,
    }

    if fd_sets:
        for provider in sorted(fd_sets):
            gen_set, gt_set = fd_sets[provider]
            report.fd[provider] = frechet_distance(gen_set.rows, gt_set.rows)
            report.provenance[f"fd_{provider}_sizes"] = [len(gen_set), len(gt_set)]

    if gen_post is not None:
        report.inception_score = inception_score(gen_post)
        if gt_post is not None:
            report.paired_kl = paired_kl(gen_post, gt_post)

    if text_emb and gen_emb:
        report.mean_text_audio_sim = mean_text_audio_similarity(text_emb, gen_emb)
        report.provenance["text_gen_pairs"] = len(set(text_emb.ids) & set(gen_emb.ids))
    if text_emb and gt_emb:
        report.test_set_text_audio_sim = mean_text_audio_similarity(text_emb, gt_emb)

    queries = {name: q for name, q in (("text", text_emb), ("gen", gen_emb)) if q}
    if train_seg_emb is not None:
        best, nearest, n_segments = _nearest_segments(queries, train_seg_emb)
        n_text = len(text_emb) if "text" in queries else 0
        if n_segments and "text" in queries:
            report.retrieval_max = float(np.mean(best[:n_text]))
        if n_segments and "gen" in queries:
            report.nn_audit = [
                NearestNeighbor(gen_id, seg_id, float(b))
                for gen_id, seg_id, b in zip(gen_emb.ids, nearest[n_text:], best[n_text:])
            ]
            for tau in sorted(thresholds):
                report.sim_aa[float(tau)] = float(np.mean(best[n_text:] >= tau))
            report.provenance["sim_sizes"] = [len(gen_emb), n_segments]
    return report


def _nearest_segments(queries, blocks):
    """Each query row's best cosine over every block of training segments,
    and the id of the segment that reaches it, for the rows of ``queries``
    stacked in order; also the number of segments. Every block is read,
    even with no queries, so that a fault anywhere in the set is raised.

    One search covers all queries per block: the kernel's result for a
    query does not depend on which other queries it is searched with.
    Within a block ties go to the lowest index, the smallest id; a later
    block wins on a greater value, or an equal one at a smaller id. So the
    result is that of one search over the whole set in id order.
    """
    rows = np.concatenate([q.rows for q in queries.values()]) if queries else None
    best = nearest = None
    n_segments = 0
    for block in blocks:
        n_segments += len(block)
        if not (block and queries):
            continue
        for name, query in queries.items():
            if query.dim != block.dim:
                raise DimMismatch(f"{name} dim {query.dim} vs segment dim {block.dim}")
        value, index = _kernels.nn_max_dot(rows, block.rows)
        seg_ids = np.array(block.ids, dtype=object)[index]
        if best is None:
            best, nearest = value, seg_ids
        else:
            won = (value > best) | ((value == best) & (seg_ids < nearest))
            best[won], nearest[won] = value[won], seg_ids[won]
    return best, nearest, n_segments


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
