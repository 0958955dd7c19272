"""Tempo grouping, downbeat alignment, and the two mixing strategies.

Mixing always pairs tracks from the same tempo bucket and starts every clip
on a downbeat of its source, so the combined material stays rhythmically
coherent. The mixing ratio is drawn from Beta(5, 5), which concentrates
around an even blend. "bam" mixes the aligned waveforms directly;
"blm" mixes the latent-codec representations and renders the result back to
audio through the codec decoder and Fast Griffin-Lim.

Every clip is ``CLIP_SAMPLES`` long, the paper's 10.24 s, and blm renders
through ``dsp.GL_ITERATIONS`` iterations of phase retrieval. Spec planning is
a deterministic stream from one seeded generator: a run is fully
reproducible from (seed, corpus, mix arguments), and rendering a spec is a
pure function of the spec, so it can be parallelized freely.
"""

from dataclasses import dataclass

import numpy as np

from . import codec as codec_mod
from .beats import BeatGrid
from .dsp import GL_ITERATIONS, SAMPLE_RATE, invert_mel, mel_spectrogram
from .errors import LengthMismatch, NoEligibleDownbeat, ShapeMismatch

BUCKET_RANGE = (60.0, 180.0)
BUCKET_WIDTH = 4.0  # BPM; partners share a bucket
CLIP_SAMPLES = 163840  # 10.24 s at 16 kHz
LAMBDA_EPS = 1e-9
BETA_A = 5.0
BETA_B = 5.0

STRATEGIES = ("bam", "blm")


@dataclass(frozen=True)
class MixupSpec:
    """Everything needed to re-render one output clip."""

    out_id: str
    strategy: str  # "bam" | "blm"
    mixed: bool
    track_a: str
    offset_a: int  # start sample, lands on a downbeat of track_a
    seed: int  # the planner's seed
    track_b: str | None = None
    offset_b: int | None = None
    lam: float | None = None
    clip_samples: int = CLIP_SAMPLES


def group_id_for(bpm: float) -> int:
    """Deterministic ``BUCKET_WIDTH`` BPM bucket over [60, 180); tempos
    outside the range fall into the first or the last bucket."""
    lo, hi = BUCKET_RANGE
    n_buckets = int(np.ceil((hi - lo) / BUCKET_WIDTH))
    clamped = min(max(bpm, lo), np.nextafter(hi, lo))
    gid = int((clamped - lo) // BUCKET_WIDTH)
    return min(gid, n_buckets - 1)


def sample_mix_ratio(rng: np.random.Generator) -> float:
    """One Beta(5,5) draw, clamped into the open interval (0, 1)."""
    lam = float(rng.beta(BETA_A, BETA_B))
    return min(max(lam, LAMBDA_EPS), 1.0 - LAMBDA_EPS)


def eligible_downbeat_offsets(grid: BeatGrid, n_samples: int) -> np.ndarray:
    """Offsets, in samples, of the downbeats that leave a full clip of
    audio after them."""
    offsets = np.round(grid.downbeat_times * SAMPLE_RATE).astype(np.int64)
    return offsets[(offsets >= 0) & (offsets + CLIP_SAMPLES <= n_samples)]


def bam_mix(x1: np.ndarray, x2: np.ndarray, lam: float) -> np.ndarray:
    """Convex combination of two aligned clips: lam*x1 + (1-lam)*x2."""
    if x1.size != x2.size:
        raise LengthMismatch(f"{x1.size} vs {x2.size} samples")
    if not (0.0 < lam < 1.0):
        raise ValueError("lam must lie in (0, 1)")
    return lam * x1 + (1.0 - lam) * x2


def blm_mix(
    y1: codec_mod.LatentTensor, y2: codec_mod.LatentTensor, lam: float
) -> codec_mod.LatentTensor:
    """Convex combination of two latent tensors from the same codec."""
    if y1.values.shape != y2.values.shape:
        raise ShapeMismatch(f"{y1.values.shape} vs {y2.values.shape}")
    if y1.codec_id != y2.codec_id:
        raise ShapeMismatch("latents come from different codecs")
    if not (0.0 < lam < 1.0):
        raise ValueError("lam must lie in (0, 1)")
    return codec_mod.LatentTensor(
        lam * y1.values + (1.0 - lam) * y2.values, y1.codec_id
    )


@dataclass
class TrackView:
    """What the planner needs to know about one corpus track."""

    track_id: str
    n_samples: int
    grid: BeatGrid
    group_id: int  # tempo group; partners share it


def plan_mixup_pass(
    tracks: dict[str, TrackView],
    strategy: str,
    p: float,
    count: int,
    seed: int,
) -> list[MixupSpec]:
    """Plan ``count`` output clips without touching any audio, from one
    generator seeded with ``seed``; offsets are in samples.

    Each slot mixes with probability ``p`` when another usable track shares
    its base track's ``group_id``; otherwise the slot is an unmixed clip. Only
    tracks with at least one eligible downbeat participate at all, so every
    planned clip starts on a downbeat and is exactly ``CLIP_SAMPLES`` long.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")

    eligible = {
        tid: eligible_downbeat_offsets(v.grid, v.n_samples)
        for tid, v in tracks.items()
    }
    usable = sorted(tid for tid, offs in eligible.items() if offs.size > 0)
    if not usable:
        raise NoEligibleDownbeat("no track offers a downbeat with a full clip after it")
    partners = {
        tid: [
            other
            for other in usable
            if other != tid and tracks[other].group_id == tracks[tid].group_id
        ]
        for tid in usable
    }

    rng = np.random.default_rng(seed)
    specs = []
    for slot in range(count):
        base = usable[int(rng.integers(len(usable)))]
        mix_roll = float(rng.random())
        mates = partners[base]
        mixed = mix_roll < p and bool(mates)
        partner = mates[int(rng.integers(len(mates)))] if mixed else None
        off_a = int(eligible[base][rng.integers(eligible[base].size)])
        off_b = int(eligible[partner][rng.integers(eligible[partner].size)]) if mixed else None
        lam = sample_mix_ratio(rng) if mixed else None
        specs.append(
            MixupSpec(
                out_id=f"mix_{slot:05d}",
                strategy=strategy,
                mixed=mixed,
                track_a=base,
                offset_a=off_a,
                seed=seed,
                track_b=partner,
                offset_b=off_b,
                lam=lam,
            )
        )
    return specs


def render_spec(
    spec: MixupSpec, load_clip, codec: codec_mod.PcaCodec | None = None
) -> np.ndarray:
    """Produce the audio for one spec.

    ``load_clip(track_id, offset, n_samples)`` must return a float array of
    exactly ``n_samples`` samples. Rendering depends only on the spec, so any
    scheduling across specs yields identical output.
    """
    a = np.asarray(load_clip(spec.track_a, spec.offset_a, spec.clip_samples), dtype=np.float64)
    if not spec.mixed:
        return a
    b = np.asarray(load_clip(spec.track_b, spec.offset_b, spec.clip_samples), dtype=np.float64)
    if spec.strategy == "bam":
        return bam_mix(a, b, spec.lam)
    if codec is None:
        raise ValueError("blm rendering needs a fitted codec")
    lat_a = codec_mod.encode(codec, mel_spectrogram(a))
    lat_b = codec_mod.encode(codec, mel_spectrogram(b))
    mixed = blm_mix(lat_a, lat_b, spec.lam)
    return invert_mel(codec_mod.decode(codec, mixed), GL_ITERATIONS)
