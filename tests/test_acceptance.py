"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criteria cover shape contracts, calibration against
synthetic ground truth, oracle equivalence for every metric, and bitwise
end-to-end reproducibility of the pipeline.
"""

import json
import os
import shutil
import sys
import time

import numpy as np

from beatmix import _kernels
from beatmix import beats as B
from beatmix import codec as C
from beatmix import metrics as MT
from beatmix import mixup as M
from beatmix.beats import BeatGrid
from beatmix.cli import main
from beatmix.dsp import SAMPLE_RATE as SR
from beatmix.dsp import mel_spectrogram
from beatmix.gateway import RecordSet, load_embedding_set, load_posterior_set
from beatmix.wavio import NORMALIZED_CACHE, load_wav, save_wav
from sets import save_embedding_set, save_posterior_set
from synth import click_track


def report(criterion: int, label: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {criterion}: {label}"
    if extra:
        line += f" ({extra})"
    print(line, file=sys.stderr)
    assert ok, line


# -- 1 -------------------------------------------------------------------------

def test_criterion_01_signal_shape_contract():
    rng = np.random.default_rng(0)
    clip = rng.uniform(-0.5, 0.5, 163840)
    fit_mels = [np.clip(rng.normal(-40, 10, (64, 128)), -70, -10) for _ in range(4)]
    codec = C.fit(fit_mels, n_components=16, patch_size=8)

    start = time.perf_counter()
    mel = mel_spectrogram(clip)
    latent = C.encode(codec, mel)
    elapsed = time.perf_counter() - start

    ok = mel.shape == (1024, 128) and latent.shape == (16, 128, 16)
    report(1, "10.24 s clip -> 1024x128 mel and (16,128,16) latent", ok and elapsed < 1.0,
           f"{elapsed * 1000:.0f} ms")


# -- 2 -------------------------------------------------------------------------

def test_criterion_02_beat_tracker_calibration():
    start = time.perf_counter()
    worst_tempo_err = 0.0
    worst_hit_rate = 1.0
    for bpm in (70, 90, 120, 150):
        for noise_db in (None, -20):
            x, clicks = click_track(bpm, 30.0, noise_db=noise_db, seed=3)
            grid = B.analyze_waveform(x, mel_spectrogram(x))
            worst_tempo_err = max(worst_tempo_err, abs(grid.tempo_bpm - bpm))
            core = grid.beat_times[1:-1]
            errs = np.array([np.abs(clicks - b).min() for b in core])
            worst_hit_rate = min(worst_hit_rate, float(np.mean(errs <= 0.020)))
    elapsed = time.perf_counter() - start
    ok = worst_tempo_err <= 2.0 and worst_hit_rate >= 0.9 and elapsed < 30.0
    report(2, "tempo within +/-2 BPM, >=90% beats within +/-20 ms",
           ok, f"worst tempo err {worst_tempo_err:.2f} BPM, worst hit rate "
               f"{worst_hit_rate:.3f}, {elapsed:.1f} s")


# -- 3 -------------------------------------------------------------------------

def test_criterion_03_mixup_algebra_and_batch_alignment():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        lam = M.sample_mix_ratio(rng)
        a = rng.uniform(-1, 1, 64)
        b = rng.uniform(-1, 1, 64)
        mixed = M.convex_mix(a, b, lam)
        swapped = M.convex_mix(b, a, 1.0 - lam)
        worst = max(worst, float(np.abs(mixed - swapped).max()))
        assert np.abs(mixed).max() <= max(np.abs(a).max(), np.abs(b).max()) + 1e-12
        ya, yb = rng.normal(size=(4, 4, 4)), rng.normal(size=(4, 4, 4))
        lm = M.convex_mix(ya, yb, lam)
        ls = M.convex_mix(yb, ya, 1.0 - lam)
        worst = max(worst, float(np.abs(lm - ls).max()))
    degenerate = M.convex_mix(np.ones(8), -np.ones(8), 1 - 1e-9)
    worst = max(worst, float(np.abs(degenerate - 1.0).max()))

    def make_grid(bpm):
        beats = np.arange(0.0, 30.0, 60.0 / bpm)
        return BeatGrid(bpm, beats, beats[::4])

    tracks = {
        f"t{i}": M.TrackView(f"t{i}", 30 * SR, make_grid(bpm), M.group_id_for(bpm))
        for i, bpm in enumerate([118, 119, 90, 91, 150, 151, 120, 121])
    }
    specs = M.plan_mixup_pass(tracks, "bam", 1.0, 500, 5)
    aligned = crossings = 0
    for spec in specs:
        if not spec.mixed:
            continue
        da = np.round(tracks[spec.track_a].grid.downbeat_times * SR)
        db = np.round(tracks[spec.track_b].grid.downbeat_times * SR)
        if np.abs(da - spec.offset_a).min() <= 1 and np.abs(db - spec.offset_b).min() <= 1:
            aligned += 1
        if tracks[spec.track_a].group_id != tracks[spec.track_b].group_id:
            crossings += 1
    mixed_count = sum(s.mixed for s in specs)
    ok = worst < 1e-6 and mixed_count == 500 and aligned == mixed_count and crossings == 0
    report(3, "mixup algebra to 1e-6; 500-spec batch downbeat-aligned, no group crossing",
           ok, f"worst algebra err {worst:.2e}, {aligned}/{mixed_count} aligned")


# -- 4 -------------------------------------------------------------------------

def test_criterion_04_beta_sampler_moments():
    rng = np.random.default_rng(77)
    draws = np.array([M.sample_mix_ratio(rng) for _ in range(10000)])
    mean, var = float(draws.mean()), float(draws.var())
    again = [M.sample_mix_ratio(np.random.default_rng(123)) for _ in range(50)]
    again2 = [M.sample_mix_ratio(np.random.default_rng(123)) for _ in range(50)]
    ok = abs(mean - 0.5) <= 0.02 and abs(var - 0.0227) <= 0.003 and again == again2
    report(4, "Beta(5,5): mean 0.50+/-0.02, var 0.0227+/-0.003, seed-deterministic",
           ok, f"mean {mean:.4f}, var {var:.5f}")


# -- 5 -------------------------------------------------------------------------

def test_criterion_05_mixup_rate():
    def make_grid(bpm):
        beats = np.arange(0.0, 30.0, 60.0 / bpm)
        return BeatGrid(bpm, beats, beats[::4])

    tracks = {
        f"t{i}": M.TrackView(f"t{i}", 30 * SR, make_grid(bpm), M.group_id_for(bpm))
        for i, bpm in enumerate([118, 119, 90, 91, 150, 151])
    }
    specs = M.plan_mixup_pass(tracks, "bam", 0.5, 10000, 9)
    frac = float(np.mean([s.mixed for s in specs]))
    ok = 0.48 <= frac <= 0.52
    report(5, "mixed fraction at p=0.5 over 10,000 slots in [0.48, 0.52]",
           ok, f"fraction {frac:.4f}")


# -- 6 -------------------------------------------------------------------------

def test_criterion_06_frechet_distance_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(21)
    set_a = rng.normal(size=(2000, 8))
    self_fd = MT.frechet_distance(set_a, set_a)

    n, d = 100_000, 8
    mu_a, sd_a = rng.uniform(-1, 1, d), rng.uniform(0.5, 2.0, d)
    mu_b, sd_b = rng.uniform(-1, 1, d), rng.uniform(0.5, 2.0, d)
    a = rng.normal(mu_a, sd_a, size=(n, d))
    b = rng.normal(mu_b, sd_b, size=(n, d))
    fd = MT.frechet_distance(a, b)
    va, vb = a.var(axis=0, ddof=1), b.var(axis=0, ddof=1)
    closed = float(
        np.sum((a.mean(0) - b.mean(0)) ** 2 + va + vb - 2 * np.sqrt(va * vb))
    )
    rel = abs(fd - closed) / max(abs(closed), 1e-12)
    sym = abs(MT.frechet_distance(a[:5000], b[:5000]) - MT.frechet_distance(b[:5000], a[:5000]))
    elapsed = time.perf_counter() - start
    ok = self_fd < 1e-6 and rel < 0.05 and sym < 1e-8 and elapsed < 60.0
    report(6, "FD: self 0, diagonal closed form within 5%, symmetric to 1e-8",
           ok, f"self {self_fd:.2e}, rel err {rel:.4f}, sym {sym:.2e}, {elapsed:.1f} s")


# -- 7 -------------------------------------------------------------------------

def test_criterion_07_inception_score_oracle():
    uniform = RecordSet.from_records([f"u{i}" for i in range(50)], np.full((50, 10), 0.1))
    is_uniform = MT.inception_score(uniform)
    onehot = RecordSet.from_records([f"o{i}" for i in range(10)], np.eye(10))
    is_onehot = MT.inception_score(onehot)
    ok = is_uniform == 1.0 and abs(is_onehot - 10.0) <= 1e-6
    report(7, "IS: uniform -> exactly 1.0, K=10 one-hot -> 10.0 +/- 1e-6",
           ok, f"uniform {is_uniform}, one-hot {is_onehot:.9f}")


# -- 8 -------------------------------------------------------------------------

def test_criterion_08_sim_aa_contract():
    rng = np.random.default_rng(33)

    def unit_set(n, d, prefix):
        mat = rng.normal(size=(n, d))
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        return RecordSet.from_records([f"{prefix}{i:05d}" for i in range(n)], mat)

    segs = unit_set(40, 16, "s")
    self_report = MT.build_report(gen_emb={"s": lambda: segs}, train_seg_emb=lambda: [segs])
    self_ok = self_report.sim_aa == {0.90: 1.0, 0.95: 1.0}

    monotone_ok = True
    for _ in range(100):
        gen = unit_set(6, 8, "g")
        train = unit_set(25, 8, "t")
        ratios = MT.build_report(gen_emb={"g": lambda: gen}, train_seg_emb=lambda: [train]).sim_aa
        monotone_ok &= ratios[0.95] <= ratios[0.90]

    def brute_force(q, r):
        """Every (i, j) dot product summed over k in order, 8 queries at a
        time; the first maximum of each row wins."""
        rt = np.ascontiguousarray(r.T)
        best = np.empty(q.shape[0])
        idx = np.empty(q.shape[0], np.int64)
        for lo in range(0, q.shape[0], 8):
            qc = q[lo : lo + 8]
            acc = np.zeros((qc.shape[0], r.shape[0]))
            for k in range(q.shape[1]):
                acc += qc[:, k : k + 1] * rt[k]
            idx[lo : lo + 8] = np.argmax(acc, axis=1)
            best[lo : lo + 8] = acc[np.arange(qc.shape[0]), idx[lo : lo + 8]]
        return best, idx

    exact_ok = True
    for n, m, d in ((20, 100, 32), (200, 1000, 64), (1000, 10_000, 512)):
        q = rng.normal(size=(n, d))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        r = rng.normal(size=(m, d))
        r /= np.linalg.norm(r, axis=1, keepdims=True)
        best_k, idx_k = _kernels.nn_max_dot(q, r)
        best_o, idx_o = brute_force(q, r)
        exact_ok &= np.array_equal(best_k, best_o) and np.array_equal(idx_k, idx_o)

    ok = self_ok and monotone_ok and exact_ok
    report(8, "SIM_AA: self-match 1.0, threshold-monotone, NN exactly equals "
              "brute force up to 1000x10,000", ok)


# -- 9 -------------------------------------------------------------------------

def test_criterion_09_codec_properties():
    rng = np.random.default_rng(4)
    mels = [np.clip(rng.normal(-40, 10, (64, 128)), -70, -10) for _ in range(6)]
    codec = C.fit(mels, n_components=16, patch_size=8)
    lat = C.encode(codec, mels[0])
    idem = float(
        np.abs(C.encode(codec, C.decode(codec, lat)) - lat).max()
    )

    full = C.fit(mels, n_components=64, patch_size=8)
    lossless = float(
        np.abs(C.decode(full, C.encode(full, mels[0])) - mels[0]).max()
    )

    errors = []
    for n_components in (4, 8, 16, 32):
        ck = C.fit(mels, n_components=n_components, patch_size=8)
        errors.append(
            float(
                np.mean(
                    [
                        np.linalg.norm(
                            C.decode(ck, C.encode(ck, m)) - m
                        )
                        for m in mels
                    ]
                )
            )
        )
    monotone = all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))

    lam = 0.37
    mixed = lam * mels[0] + (1 - lam) * mels[1]
    lin = float(
        np.abs(
            C.encode(codec, mixed)
            - (lam * C.encode(codec, mels[0]) + (1 - lam) * C.encode(codec, mels[1]))
        ).max()
    )

    ok = idem < 1e-5 and lossless < 1e-5 and monotone and lin < 1e-5
    report(9, "codec: idempotent, lossless at C=P^2, error monotone in C, linear",
           ok, f"idem {idem:.2e}, lossless {lossless:.2e}, lin {lin:.2e}")


# -- 10 ------------------------------------------------------------------------

def _write_acceptance_corpus(root):
    os.makedirs(root)
    bpms = [70, 71, 90, 91, 110, 111, 118, 119, 130, 131,
            150, 151, 165, 166, 98, 99, 122, 123, 142, 143]
    for i, bpm in enumerate(bpms):
        x, _ = click_track(bpm, 16.0, bass_phase=0, noise_db=-30, seed=100 + i)
        save_wav(os.path.join(root, f"track{i:02d}.wav"), x)
        with open(os.path.join(root, f"track{i:02d}.txt"), "w") as fh:
            fh.write(f"synthetic percussion loop at {bpm} beats per minute")


def _toy_audio_embedding(wave, dim=32):
    """Deterministic stand-in embedder: time-averaged mel band energies."""
    feats = mel_spectrogram(wave).mean(axis=0)
    v = feats[:dim] - feats[:dim].mean()
    norm = np.linalg.norm(v)
    if norm == 0:
        v = np.ones(dim)
        norm = np.sqrt(dim)
    return v / norm


def _toy_text_embedding(text, dim=32):
    seed = int.from_bytes(text.encode()[:8].ljust(8, b"\0"), "little") % (2**31)
    v = np.random.default_rng(seed).normal(size=dim)
    return v / np.linalg.norm(v)


def _run_pipeline(work, corpus_dir, seed=7):
    manifest = os.path.join(work, "manifest.json")
    mixes = os.path.join(work, "mixes")
    blm_out = os.path.join(work, "mixes_blm")
    segfile = os.path.join(work, "segments.json")
    codec_path = os.path.join(work, "codec.bin")
    assert main(["ingest", corpus_dir, "--manifest", manifest]) == 0
    assert main(["analyze", "--manifest", manifest]) == 0
    assert main(["group", "--manifest", manifest]) == 0
    assert main(["fit-codec", "--manifest", manifest, "--out", codec_path]) == 0
    assert main(["mix", "--manifest", manifest, "--strategy", "bam", "--count", "10",
                 "--seed", str(seed), "--out", mixes]) == 0
    assert main(["mix", "--manifest", manifest, "--strategy", "blm", "--count", "4",
                 "--seed", str(seed), "--out", blm_out]) == 0
    assert main(["segment", "--manifest", manifest, "--out", segfile]) == 0

    # deterministic toy embeddings for the produced clips and train segments
    gen = {}
    for name in sorted(os.listdir(mixes)):
        if name.endswith(".wav"):
            gen[name[:-4]] = _toy_audio_embedding(load_wav(os.path.join(mixes, name)))
    with open(segfile, encoding="utf-8") as fh:
        segments = json.load(fh)["segments"]
    seg_embs = {}
    track_cache = {}
    with open(manifest, encoding="utf-8") as fh:
        man = json.load(fh)
    paths = {e["id"]: os.path.join(man["root"], e["path"]) for e in man["entries"]}
    captions = {e["id"]: e["caption"] for e in man["entries"]}
    for seg in segments:
        tid = seg["track_id"]
        if tid not in track_cache:
            track_cache[tid] = load_wav(paths[tid])
        clip = track_cache[tid][seg["start_sample"]: seg["end_sample"]]
        seg_embs[seg["segment_id"]] = _toy_audio_embedding(clip)
    texts = {rec: _toy_text_embedding(captions.get(rec.split("_seg")[0], rec)) for rec in gen}
    emb_dir = os.path.join(work, "emb")
    os.makedirs(emb_dir, exist_ok=True)
    gen_path = os.path.join(emb_dir, "gen.emb")
    seg_path = os.path.join(emb_dir, "train_seg.emb")
    text_path = os.path.join(emb_dir, "text.emb")
    for path, vectors in ((gen_path, gen), (seg_path, seg_embs), (text_path, texts)):
        save_embedding_set(path, RecordSet.from_records(list(vectors), list(vectors.values())))
    report_dir = os.path.join(work, "report")
    assert main(["eval", "--gen-emb", f"toy={gen_path}", "--train-seg-emb", seg_path,
                 "--text-emb", text_path, "--out", report_dir]) == 0

    artifacts = {}
    for base in ("manifest.json", "segments.json", "report/report.json", "report/report.txt"):
        with open(os.path.join(work, base), "rb") as fh:
            artifacts[base] = fh.read()
    for sub in ("mixes", "mixes_blm"):
        for name in sorted(os.listdir(os.path.join(work, sub))):
            with open(os.path.join(work, sub, name), "rb") as fh:
                artifacts[f"{sub}/{name}"] = fh.read()
    return artifacts


def test_criterion_10_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    work = str(tmp_path / "run")
    corpus_dir = os.path.join(work, "corpus")
    os.makedirs(work)
    _write_acceptance_corpus(corpus_dir)

    first = _run_pipeline(work, corpus_dir, seed=7)
    # wipe every derived artifact, keep only the source corpus
    for name in ("manifest.json", "segments.json", "codec.bin"):
        os.unlink(os.path.join(work, name))
    for sub in ("mixes", "mixes_blm", "report", "emb", NORMALIZED_CACHE):
        shutil.rmtree(os.path.join(work, sub))
    for name in list(os.listdir(corpus_dir)):
        if name.endswith(".beats.json"):
            os.unlink(os.path.join(corpus_dir, name))

    second = _run_pipeline(work, corpus_dir, seed=7)
    elapsed = time.perf_counter() - start

    same_keys = set(first) == set(second)
    diffs = [k for k in first if same_keys and first[k] != second[k]]
    n_specs = sum(1 for k in first if k.endswith(".mixspec.json"))
    ok = same_keys and not diffs and n_specs == 14 and elapsed < 300.0
    report(10, "pipeline run twice -> byte-identical artifacts, under 5 minutes",
           ok, f"{len(first)} artifacts, {elapsed:.0f} s" + (f", diffs: {diffs[:3]}" if diffs else ""))


# -- 11 ------------------------------------------------------------------------

def test_criterion_11_gateway_round_trips(tmp_path):
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(16, 64))
    embs = RecordSet.from_records(
        [f"e{i:02d}" for i in range(16)], rows / np.linalg.norm(rows, axis=1, keepdims=True)
    )
    p1 = tmp_path / "a.emb"
    p2 = tmp_path / "b.emb"
    save_embedding_set(p1, embs)
    save_embedding_set(p2, load_embedding_set(p1))
    emb_exact = p1.read_bytes() == p2.read_bytes()

    posts = RecordSet.from_records(
        [f"p{i:02d}" for i in range(10)],
        [np.random.default_rng(i).dirichlet(np.ones(8)) for i in range(10)],
    )
    q1 = tmp_path / "a.post"
    q2 = tmp_path / "b.post"
    save_posterior_set(q1, posts)
    save_posterior_set(q2, load_posterior_set(q1))
    post_exact = q1.read_bytes() == q2.read_bytes()

    report(11, "binary formats bit-exact", emb_exact and post_exact)
