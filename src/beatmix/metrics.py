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

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from math import fsum

import numpy as np

from . import _kernels
from .errors import InputError
from .gateway import RecordSet
from .manifest import canonical_json

DEFAULT_THRESHOLDS = (0.90, 0.95)
KL_EPS = 1e-10
COV_REG = 1e-6


def mean_text_audio_similarity(text: RecordSet, audio: RecordSet) -> float:
    """Mean cosine similarity of the text/audio pairs that share an id (rows
    are unit-norm). A fault names both sets' sources."""
    pair = f"{text.source} and {audio.source}"
    if text.dim != audio.dim:
        raise InputError(f"{pair}: text dim {text.dim} vs audio dim {audio.dim}")
    audio_row = {rec_id: i for i, rec_id in enumerate(audio.ids)}
    # one dot product per pair keeps the bits a batched product would not
    sims = [
        float(text.rows[i] @ audio.rows[audio_row[rec_id]])
        for i, rec_id in enumerate(text.ids)
        if rec_id in audio_row
    ]
    if not sims:
        raise InputError(f"{pair}: no ids shared between text and audio sets")
    return float(np.mean(sims))


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
        raise InputError("frechet distance needs two non-empty sets")
    if a.shape[1] != b.shape[1]:
        raise InputError(f"dims differ: {a.shape[1]} vs {b.shape[1]}")
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
    marginal, each KL and their average are exact sums rounded once, as
    ``fsum`` rounds them, so identical posteriors yield a bitwise-zero KL.
    """
    if not posteriors:
        raise InputError(f"{posteriors.source}: empty posterior set")
    probs = posteriors.rows
    n = probs.shape[0]
    marginal = _fsums(probs.T) / n
    seen = probs > 0
    # the logs of 0 are masked out of the terms; a marginal that underflows
    # to 0 under a positive p gives an infinite KL, as its log does
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = probs * (np.log(np.where(seen, probs, 1.0)) - np.log(marginal))
    kls = _fsums(np.where(seen, terms, 0.0))
    return float(np.exp(fsum(kls) / n))


def _fsums(x: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of the float64 matrix ``x``, to the bit.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I: faithful rounding", SIAM J. Sci. Comput. 31(1), 2008,
    ExtractVector): with ``sigma`` a power of two at least ``2**h`` times a
    row's largest magnitude, where ``2**h >= width + 2``, each value ``v``
    splits exactly into ``q = (sigma + v) - sigma``, a multiple of
    ``sigma * 2**-53``, and ``v - q``, at most ``sigma * 2**-53`` in
    magnitude. A row's ``q`` sum to less than ``sigma`` on that grid, so
    NumPy sums them exactly in any order. Extracting again from the
    remainders until they are all zero leaves a few exact partials per row
    whose sum is the row's exact sum; ``fsum`` of them rounds it once, as
    ``fsum`` of the row does. A row with a non-finite value, or too large
    for ``sigma`` to be finite, is summed by ``fsum`` itself.
    """
    headroom = (x.shape[1] + 1).bit_length()
    rest = np.array(x, dtype=np.float64, order="C")
    largest = np.maximum(rest.max(axis=1, initial=0.0), -rest.min(axis=1, initial=0.0))
    plain = ~(largest < 2.0 ** (1023 - headroom))
    rest[plain] = largest[plain] = 0.0
    q = np.empty_like(rest)
    parts = []
    while largest.any():
        sigma = np.ldexp(1.0, np.frexp(largest)[1] + headroom)[:, None]
        np.add(sigma, rest, out=q)
        q -= sigma
        rest -= q
        parts.append(q.sum(axis=1))
        largest = np.maximum(rest.max(axis=1), -rest.min(axis=1))
    partials = np.stack(parts, axis=1) if parts else np.zeros((x.shape[0], 0))
    return np.array([
        fsum(x[i]) if plain[i] else fsum(partial) for i, partial in enumerate(partials.tolist())
    ])


def paired_kl(gen_posteriors: RecordSet, gt_posteriors: RecordSet) -> float:
    """Mean KL(groundtruth || generated) over id-paired posteriors, with an
    epsilon floor so exact zeros stay finite. A fault names both sets'
    sources."""
    pair = f"{gen_posteriors.source} and {gt_posteriors.source}"
    if gen_posteriors.dim != gt_posteriors.dim:
        raise InputError(
            f"{pair}: generated K={gen_posteriors.dim} vs groundtruth K={gt_posteriors.dim}"
        )
    gt_row = {rec_id: i for i, rec_id in enumerate(gt_posteriors.ids)}
    missing = [i for i in gen_posteriors.ids if i not in gt_row]
    if missing:
        raise InputError(f"{pair}: no groundtruth posterior for ids {missing[:5]}")
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
    # per generated item, {"gen_id", "segment_id", "similarity"} of its
    # nearest training segment, as report.json and nn_audit.json hold it
    nn_audit: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """report.json's text."""
        payload = {
            "fd": {k: self.fd[k] for k in sorted(self.fd)},
            "inception_score": self.inception_score,
            "paired_kl": self.paired_kl,
            "mean_text_audio_sim": self.mean_text_audio_sim,
            "test_set_text_audio_sim": self.test_set_text_audio_sim,
            "retrieval_max": self.retrieval_max,
            "sim_aa": {f"{t:.2f}": self.sim_aa[t] for t in sorted(self.sim_aa)},
            "nn_audit": self.nn_audit,
            "provenance": self.provenance,
        }
        return canonical_json(payload)


def build_report(
    *,
    gen_emb: dict[str, Callable[[], RecordSet]] | None = None,
    gt_emb: dict[str, Callable[[], RecordSet]] | None = None,
    gen_post: Callable[[], RecordSet] | None = None,
    gt_post: Callable[[], RecordSet] | None = None,
    text_emb: Callable[[], RecordSet] | None = None,
    train_seg_emb: Callable[[], Iterable[RecordSet]] | None = None,
    thresholds=DEFAULT_THRESHOLDS,
) -> MetricsReport:
    """Assemble whatever metrics the supplied inputs allow, reading each
    input just before the first metric that uses it and releasing it after
    the last, so that the inputs are never all held at once.

    Each input is a loader, a function of no arguments that reads it.
    ``gen_emb`` and ``gt_emb`` map a provider name to the loader of its
    generated and groundtruth embedding set; the first of each is the
    primary set. ``train_seg_emb`` gives an iterable of RecordSet blocks
    (such as ``gateway.read_embedding_blocks``) that is searched block by
    block and read once, with the same result as the blocks joined. The
    metrics run in this order:

    1. FD per provider present in both maps, one provider at a time; every
       embedding set is read here, and all but the two primary sets are
       released after their provider's FD.
    2. The inception score and the paired KL, from the posteriors.
    3. The text-audio similarities of the text pairs in the primary
       generated and groundtruth sets (the latter released after it).
    4. Retrieval-max (each text's best cosine over the training segments,
       averaged) and SIM_AA@tau (the fraction of generated items whose best
       cosine reaches tau), from one nearest-neighbor search. The text rows
       and the primary generated rows are stacked once, and during the
       search only that matrix and the generated ids are held.

    So a fault in a later input is raised after the earlier metrics have
    run. Missing inputs simply leave their fields None.
    """
    gen_emb, gt_emb = gen_emb or {}, gt_emb or {}
    report = MetricsReport()
    report.provenance = {
        "kl_direction": "KL(groundtruth || generated)",
        "thresholds": [float(t) for t in thresholds],
        "cov_regularization": COV_REG,
        "gen_providers": sorted(gen_emb),
    }
    primary, gt_primary = next(iter(gen_emb), None), next(iter(gt_emb), None)
    gen = gt = None
    for provider in sorted(gen_emb.keys() | gt_emb.keys()):
        gen_set = gen_emb[provider]() if provider in gen_emb else None
        gt_set = gt_emb[provider]() if provider in gt_emb else None
        if gen_set is not None and gt_set is not None:
            try:
                report.fd[provider] = frechet_distance(gen_set.rows, gt_set.rows)
            except InputError as exc:  # an empty set, or two dims
                raise InputError(f"{gen_set.source} and {gt_set.source}: {exc}") from exc
            report.provenance[f"fd_{provider}_sizes"] = [len(gen_set), len(gt_set)]
        if provider == primary:
            gen = gen_set
        if provider == gt_primary:
            gt = gt_set
        del gen_set, gt_set

    posteriors = gen_post() if gen_post is not None else None
    if posteriors is not None:
        report.inception_score = inception_score(posteriors)
    truth = gt_post() if gt_post is not None else None  # read for its faults even alone
    if posteriors is not None and truth is not None:
        report.paired_kl = paired_kl(posteriors, truth)
    del posteriors, truth

    text = text_emb() if text_emb is not None else None
    if text and gen:
        report.mean_text_audio_sim = mean_text_audio_similarity(text, gen)
        report.provenance["text_gen_pairs"] = len(set(text.ids) & set(gen.ids))
    if text and gt:
        report.test_set_text_audio_sim = mean_text_audio_similarity(text, gt)
    del gt

    if train_seg_emb is not None:
        # text and generated rows have one dim: the similarity above checked it
        queries = [q for q in (text, gen) if q]
        n_text = len(text) if text else 0
        gen_ids = gen.ids if gen else ()
        rows = np.concatenate([q.rows for q in queries]) if queries else None
        sources = " and ".join(str(q.source) for q in queries)
        del text, gen, queries  # the stacked rows are the one copy held
        best, nearest, n_segments = _nearest_segments(rows, sources, train_seg_emb())
        if n_segments and n_text:
            report.retrieval_max = float(np.mean(best[:n_text]))
        if n_segments and gen_ids:
            report.nn_audit = [
                {"gen_id": gen_id, "segment_id": seg_id, "similarity": float(b)}
                for gen_id, seg_id, b in zip(gen_ids, nearest[n_text:], best[n_text:])
            ]
            for tau in sorted(thresholds):
                report.sim_aa[float(tau)] = float(np.mean(best[n_text:] >= tau))
            report.provenance["sim_sizes"] = [len(gen_ids), n_segments]
    return report


def _nearest_segments(rows, sources, blocks):
    """Each row of the query matrix ``rows`` (or None, for no queries): its
    best cosine over every block of training segments, and the id of the
    segment that reaches it; also the number of segments. Every block is
    read, even with no queries, so that a fault anywhere in the set is
    raised; a block whose dim is not the queries' names ``sources``, the
    queries' files, and its own.

    ``rows`` is scaled once for the whole search and held, not copied.
    Within a block ties go to the lowest index, the smallest id; a later
    block wins on a greater value, or an equal one at a smaller id. So the
    result is that of one search over the whole set in id order.
    """
    queries = None if rows is None else _kernels.ScaledQueries(rows)
    best = nearest = None
    n_segments = 0
    for block in blocks:
        n_segments += len(block)
        if block and queries is not None:
            if queries.shape[1] != block.dim:
                raise InputError(
                    f"{sources} and {block.source}: "
                    f"query dim {queries.shape[1]} vs segment dim {block.dim}"
                )
            value, index = _kernels.nn_max_dot(queries, block.rows)
            seg_ids = np.array(block.ids, dtype=object)[index]
            if best is None:
                best, nearest = value, seg_ids
            else:
                won = (value > best) | ((value == best) & (seg_ids < nearest))
                best[won], nearest[won] = value[won], seg_ids[won]
        del block  # so that the next block is not read while this one is held
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
