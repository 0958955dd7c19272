"""Input generator for the perfbench workloads.

Everything the program later reads is made here from ``--seed`` alone: the
same seed writes the same bytes. The generator has its own click-track
synthesizer and its own WAV and EMB1/POS1 writers, so neither the program
nor its test helpers can shift the inputs. Alongside the inputs it writes
``truth.json``: the tempo of every track and the planted near-duplicates,
which the correctness gate in ``run.py`` checks the outputs against.

Run as a script it generates one workload into a directory:

    python3 perfbench/synth.py --workload pipeline-16k --seed 1 --out DIR
"""

import argparse
import json
import os
import struct

import numpy as np

# Fixed shapes per workload; the seed only varies tempos, phases, noise and
# vector contents, so every seed asks the program for the same amount of work.
# A workload with "eval" also gets the embedding and posterior sets, under eval/.
PIPELINES = {
    "pipeline-16k": {"rate": 16000, "channels": 1, "tracks": 12, "seconds": 16.0, "groups": 4,
                     "eval": True},
    "pipeline-44k": {"rate": 44100, "channels": 2, "tracks": 10, "seconds": 20.0, "groups": 4,
                     "eval": False},
}
EVAL = {
    "items": 1000,          # generated (and paired groundtruth) items
    "segments": 20000,      # training segments searched by SIM_AA
    "dim": 512,             # primary provider, text and segment dim
    "dim_second": 128,      # second FD provider
    "classes": 527,         # AudioSet-sized posteriors
    "planted": 100,         # near-duplicates of training segments
    "sampled": 32,          # items whose neighbour the gate recomputes directly
}

BUCKET_WIDTH = 4.0  # the program's default tempo bucket
BUCKET_LO = 60.0


def click_track(rng, bpm, seconds, rate):
    """Metronome with a 1 kHz click on every beat and a 70 Hz pulse on every
    fourth one, over a -30 dB white-noise floor. Returns float samples."""
    n = int(round(seconds * rate))
    x = np.zeros(n)
    t = np.arange(int(round(0.02 * rate))) / rate
    click = 0.7 * np.sin(2 * np.pi * 1000.0 * t) * np.exp(-t / 0.005)
    t = np.arange(int(round(0.08 * rate))) / rate
    bass = 0.9 * np.sin(2 * np.pi * 70.0 * t) * np.exp(-t / 0.03)
    phase = int(rng.integers(4))
    t0 = float(rng.uniform(0.1, 0.4))
    for i, when in enumerate(np.arange(t0, seconds - 0.1, 60.0 / bpm)):
        s = int(round(when * rate))
        e = min(n, s + click.size)
        x[s:e] += click[: e - s]
        if i % 4 == phase:
            e = min(n, s + bass.size)
            x[s:e] += bass[: e - s]
    return x + 10.0 ** (-30.0 / 20.0) * rng.standard_normal(n)


def write_wav(path, frames, rate):
    """16-bit PCM WAV from a (samples, channels) float array."""
    pcm = np.clip(np.round(frames * 32767.0), -32768, 32767).astype("<i2")
    body = pcm.tobytes()
    channels = frames.shape[1]
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, rate,
                                       rate * 2 * channels, 2 * channels, 16))
        fh.write(b"data" + struct.pack("<I", len(body)))
        fh.write(body)


def make_pipeline(out, seed, spec):
    """A corpus of click tracks, several per tempo bucket so that mixing
    finds partners. Tempos sit within 0.5 BPM of a bucket centre."""
    rng = np.random.default_rng(seed)
    corpus = os.path.join(out, "corpus")
    os.makedirs(corpus, exist_ok=True)
    buckets = rng.choice(np.arange(5, 25), size=spec["groups"], replace=False)
    tracks = {}
    for i in range(spec["tracks"]):
        bucket = int(buckets[i % spec["groups"]])
        bpm = BUCKET_LO + (bucket + 0.5) * BUCKET_WIDTH + float(rng.uniform(-0.5, 0.5))
        mono = click_track(rng, bpm, spec["seconds"], spec["rate"])
        frames = np.stack([mono * (1.0 - 0.1 * c) for c in range(spec["channels"])], axis=1)
        track_id = f"track{i:02d}"
        write_wav(os.path.join(corpus, track_id + ".wav"), frames, spec["rate"])
        with open(os.path.join(corpus, track_id + ".txt"), "w", encoding="utf-8") as fh:
            fh.write(f"synthetic click track at {bpm:.1f} beats per minute\n")
        tracks[track_id] = bpm
    return {"tempo_bpm": tracks}


def write_records(path, magic, ids, vectors):
    """EMB1/POS1 file: header, then (u16 id length, id, dim x f32) records."""
    vectors = np.asarray(vectors, dtype="<f4")
    id_len = len(ids[0])
    rec = np.zeros(len(ids), dtype=[("n", "<u2"), ("id", f"S{id_len}"),
                                    ("v", "<f4", (vectors.shape[1],))])
    rec["n"] = id_len
    rec["id"] = [i.encode("ascii") for i in ids]
    rec["v"] = vectors
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<II", vectors.shape[1], len(ids)))
        fh.write(rec.tobytes())


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def make_eval(out, seed, spec):
    """Embedding and posterior sets for ``beatmix eval``. A known set of
    generated items are near-duplicates of training segments, half at a
    cosine just above 0.95 and half just above 0.90, so that SIM_AA at the
    default thresholds has two different known values and a threshold off by
    more than 5e-4 shows. Every other item is an independent random
    direction, whose best cosine against the segments stays near 0.2."""
    rng = np.random.default_rng(seed)
    n, m, d, d2, k = (spec[key] for key in ("items", "segments", "dim", "dim_second", "classes"))
    ids = [f"item_{i:05d}" for i in range(n)]
    seg_ids = [f"seg_{j:06d}" for j in range(m)]

    segs = unit_rows(rng.standard_normal((m, d)))
    gen = unit_rows(rng.standard_normal((n, d)))
    planted = np.sort(rng.choice(n, size=spec["planted"], replace=False))
    sources = rng.choice(m, size=planted.size, replace=False)
    cosine = np.where(np.arange(planted.size) % 2 == 0, 0.9505, 0.9005)[:, None]
    away = rng.standard_normal((planted.size, d))
    away = unit_rows(away - (away * segs[sources]).sum(axis=1, keepdims=True) * segs[sources])
    gen[planted] = cosine * segs[sources] + np.sqrt(1.0 - cosine**2) * away
    gt = unit_rows(rng.standard_normal((n, d)) + 0.05)
    gen2 = rng.standard_normal((n, d2)) * np.linspace(0.5, 1.5, d2)
    gt2 = rng.standard_normal((n, d2))
    text = unit_rows(rng.standard_normal((n, d)))

    def posteriors():
        logits = 3.0 * rng.standard_normal((n, k))
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        return p / p.sum(axis=1, keepdims=True)

    write_records(os.path.join(out, "segments.emb"), b"EMB1", seg_ids, segs)
    write_records(os.path.join(out, "gen_pann.emb"), b"EMB1", ids, gen)
    write_records(os.path.join(out, "gt_pann.emb"), b"EMB1", ids, gt)
    write_records(os.path.join(out, "gen_vggish.emb"), b"EMB1", ids, gen2)
    write_records(os.path.join(out, "gt_vggish.emb"), b"EMB1", ids, gt2)
    write_records(os.path.join(out, "text.emb"), b"EMB1", ids, text)
    write_records(os.path.join(out, "gen.post"), b"POS1", ids, posteriors())
    write_records(os.path.join(out, "gt.post"), b"POS1", ids, posteriors())
    # Expected neighbours of a sample of items, recomputed directly from the
    # float32 values the program will read.
    stored = unit_rows(segs.astype("<f4").astype(np.float64))
    sample = np.sort(rng.choice(n, size=spec["sampled"], replace=False))
    queries = unit_rows(gen[sample].astype("<f4").astype(np.float64))
    sims = queries @ stored.T
    best = np.argmax(sims, axis=1)
    return {
        "planted": {ids[i]: seg_ids[j] for i, j in zip(planted, sources)},
        "sim_aa": {"0.90": planted.size / n, "0.95": int((cosine > 0.95).sum()) / n},
        "sampled": {ids[i]: [seg_ids[j], float(sims[r, j])]
                    for r, (i, j) in enumerate(zip(sample, best))},
    }


def generate(workload, seed, out):
    if workload not in PIPELINES:
        raise SystemExit(f"unknown workload {workload!r}")
    os.makedirs(out, exist_ok=True)
    truth = make_pipeline(out, seed, PIPELINES[workload])
    if PIPELINES[workload]["eval"]:
        os.makedirs(os.path.join(out, "eval"))
        truth["eval"] = make_eval(os.path.join(out, "eval"), seed, EVAL)
    with open(os.path.join(out, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=1, sort_keys=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
