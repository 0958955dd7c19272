"""Tempo, beat, and downbeat estimation from log-mel spectrograms.

The pipeline is the classical one: spectral-flux onset envelope, tempo by
prior-weighted autocorrelation, beat placement by an Ellis-style dynamic
program that trades onset strength against deviation from the estimated
period, and downbeat phase selection by low-band energy, assuming 4/4 meter.

Annotations can also be supplied externally: ``load_beat_annotation`` reads
the sidecar JSON written next to each track, so a stronger neural tracker
can be dropped in without touching anything downstream.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .dsp import MelSpectrogram, SignalConfig, Waveform, mel_spectrogram
from .errors import InvariantViolation, NoOnsets, SchemaError, TooFewBeats, TooShort
from .manifest import atomic_write

TEMPO_MIN = 60.0
TEMPO_MAX = 180.0
TEMPO_PRIOR_BPM = 120.0
TEMPO_PRIOR_OCTAVES = 1.0
DP_TIGHTNESS = 100.0

# The dB flux of a sharp attack peaks while the event is still entering the
# analysis window, a couple of frames before the event itself; beat times are
# shifted late by this fixed amount to compensate (calibrated on synthetic
# click tracks at the default 1024/160 framing).
ONSET_LAG_FRAMES = 2

DOWNBEAT_LOW_BINS = 16
METER = 4


@dataclass
class BeatGrid:
    """Per-track rhythm annotation: tempo plus beat and downbeat times (s)."""

    tempo_bpm: float
    beat_times: np.ndarray
    downbeat_times: np.ndarray
    source: str = "builtin"

    def __post_init__(self):
        self.beat_times = np.asarray(self.beat_times, dtype=np.float64)
        self.downbeat_times = np.asarray(self.downbeat_times, dtype=np.float64)


def validate_grid(grid: BeatGrid) -> None:
    """Raise InvariantViolation unless the grid satisfies its contract."""
    if not (30.0 <= grid.tempo_bpm <= 300.0):
        raise InvariantViolation(f"tempo {grid.tempo_bpm} outside [30, 300] BPM")
    for name, times in (("beat", grid.beat_times), ("downbeat", grid.downbeat_times)):
        if times.ndim != 1 or not np.all(np.isfinite(times)):
            raise InvariantViolation(f"{name} times must be a flat list of finite numbers")
    beats = grid.beat_times
    if beats.size and np.any(np.diff(beats) <= 0):
        raise InvariantViolation("beat times are not strictly ascending")
    for t in grid.downbeat_times:
        j = np.searchsorted(beats, t)
        near = [beats[k] for k in (j - 1, j) if 0 <= k < beats.size]
        if not near or min(abs(t - b) for b in near) > 1e-6:
            raise InvariantViolation(f"downbeat {t} is not one of the beat times")
    if beats.size >= 2:
        median_ibi = float(np.median(np.diff(beats)))
        expected = 60.0 / grid.tempo_bpm
        if abs(median_ibi - expected) > 0.1 * expected:
            raise InvariantViolation(
                f"median inter-beat interval {median_ibi:.4f}s deviates more than "
                f"10% from 60/tempo = {expected:.4f}s"
            )
    if grid.source not in ("builtin", "external"):
        raise InvariantViolation(f"unknown source {grid.source!r}")


def onset_envelope(mel: MelSpectrogram) -> np.ndarray:
    """Half-wave-rectified spectral flux of the log-mel, one value per frame,
    normalized so the strongest onset is 1."""
    if mel.n_frames < 2:
        raise TooShort("need at least 2 frames for a flux envelope")
    flux = np.maximum(np.diff(mel.frames, axis=0), 0.0).sum(axis=1)
    env = np.concatenate([[0.0], flux])
    peak = env.max()
    if peak > 0:
        env = env / peak
    return env


def _tempo_lag_range(config: SignalConfig) -> tuple[int, int]:
    fps = config.frames_per_second
    lag_min = max(1, int(round(60.0 * fps / TEMPO_MAX)))
    lag_max = int(round(60.0 * fps / TEMPO_MIN))
    return lag_min, lag_max


def estimate_tempo(env: np.ndarray, config: SignalConfig = SignalConfig()) -> float:
    """Tempo in BPM from the onset envelope.

    Autocorrelation over lags spanning 60-180 BPM, weighted by a log-Gaussian
    prior centered at 120 BPM with a one-octave spread; the winning lag is
    refined by parabolic interpolation.
    """
    env = np.asarray(env, dtype=np.float64)
    fps = config.frames_per_second
    if env.size < 4 * fps:
        raise TooShort("tempo estimation needs at least 4 seconds of frames")
    if env.max() <= 1e-12:
        raise NoOnsets("onset envelope is empty")

    n = env.size
    centered = env - env.mean()  # keeps a broadband noise floor from biasing short lags
    size = 1 << int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(centered, size)
    acorr = np.fft.irfft(spec * np.conj(spec), size)[:n].real

    lag_min, lag_max = _tempo_lag_range(config)
    lags = np.arange(lag_min, lag_max + 1)
    bpms = 60.0 * fps / lags
    prior = np.exp(-0.5 * (np.log2(bpms / TEMPO_PRIOR_BPM) / TEMPO_PRIOR_OCTAVES) ** 2)
    weighted = acorr[lag_min : lag_max + 1] * prior

    k = int(np.argmax(weighted))
    lag = float(lags[k])
    if 0 < k < weighted.size - 1:
        a, b, c = weighted[k - 1], weighted[k], weighted[k + 1]
        denom = a - 2 * b + c
        if denom < 0:
            lag += float(np.clip(0.5 * (a - c) / denom, -0.5, 0.5))
    return float(np.clip(60.0 * fps / lag, TEMPO_MIN, TEMPO_MAX))


def _local_maxima(x: np.ndarray) -> np.ndarray:
    left = np.concatenate([[-np.inf], x[:-1]])
    right = np.concatenate([x[1:], [-np.inf]])
    return (x > left) & (x >= right)


def track_beats(
    env: np.ndarray, tempo_bpm: float, config: SignalConfig = SignalConfig()
) -> np.ndarray:
    """Beat times (seconds) by dynamic programming against the onset envelope.

    The DP maximizes total onset strength at the beats minus
    ``DP_TIGHTNESS * log(gap / period)**2`` for each inter-beat gap, then the
    best chain is backtraced and weak leading/trailing beats are trimmed.
    """
    if not (30.0 <= tempo_bpm <= 300.0):
        raise ValueError(f"tempo {tempo_bpm} outside the supported [30, 300] BPM")
    env = np.asarray(env, dtype=np.float64)
    if env.max() <= 1e-12:
        raise NoOnsets("onset envelope is empty")

    fps = config.frames_per_second
    period = 60.0 * fps / tempo_bpm
    gap_min = max(1, int(round(period / 2)))
    gap_max = max(gap_min + 1, int(round(2 * period)))
    gaps = np.arange(gap_max + 1, dtype=np.float64)
    gaps[0] = 1.0
    penalty = DP_TIGHTNESS * np.log(gaps / period) ** 2
    penalty[0] = np.inf

    backlink, cumscore = _kernels.beat_dp(
        env, penalty, gap_min, gap_max, 0.01 * env.max()
    )

    maxima = _local_maxima(cumscore)
    median = np.median(cumscore[maxima])
    candidates = np.flatnonzero(maxima & (cumscore >= 0.5 * median))
    tail = int(candidates[-1]) if candidates.size else int(np.argmax(cumscore))

    frames = []
    idx = tail
    while idx >= 0:
        frames.append(idx)
        idx = int(backlink[idx])
    frames = np.array(frames[::-1], dtype=np.int64)
    if frames.size == 0:
        return np.zeros(0)

    # trim chain edges whose onset support is weak
    smooth = np.convolve(env[frames], np.hanning(5), mode="same")
    threshold = 0.5 * float(np.sqrt(np.mean(smooth**2)))
    keep = np.flatnonzero(smooth > threshold)
    if keep.size == 0:
        return np.zeros(0)
    frames = frames[keep[0] : keep[-1] + 1]

    times = (frames + ONSET_LAG_FRAMES) * config.hop / config.sample_rate
    duration = env.size * config.hop / config.sample_rate
    return times[(times >= 0) & (times < duration)]


def infer_downbeats(beat_times: np.ndarray, mel: MelSpectrogram) -> np.ndarray:
    """Downbeat times assuming 4/4: the beat phase with the most low-band
    energy wins, and every fourth beat from that phase is a downbeat."""
    beat_times = np.asarray(beat_times, dtype=np.float64)
    if beat_times.size < METER:
        raise TooFewBeats(f"need at least {METER} beats, got {beat_times.size}")
    fps = mel.config.frames_per_second
    frames = np.clip(np.round(beat_times * fps).astype(int), 0, mel.n_frames - 1)
    low = mel.frames[:, :DOWNBEAT_LOW_BINS].mean(axis=1)
    scores = [low[frames[phase::METER]].mean() for phase in range(METER)]
    best = int(np.argmax(scores))
    return beat_times[best::METER]


def analyze_waveform(wave: Waveform, config: SignalConfig = SignalConfig()) -> BeatGrid:
    """Full builtin analysis of one track: tempo, beats, and downbeats."""
    mel = mel_spectrogram(wave, config)
    env = onset_envelope(mel)
    tempo = estimate_tempo(env, config)
    beats = track_beats(env, tempo, config)
    beats = beats[beats < wave.duration_s]
    if beats.size < 2:
        raise NoOnsets("too few beats to form a grid")
    downbeats = infer_downbeats(beats, mel)
    grid = BeatGrid(tempo_bpm=tempo, beat_times=beats, downbeat_times=downbeats)
    validate_grid(grid)
    return grid


# --- sidecar annotations ----------------------------------------------------

def save_beat_annotation(grid: BeatGrid, path) -> None:
    payload = {
        "tempo_bpm": float(grid.tempo_bpm),
        "beat_times": [float(t) for t in grid.beat_times],
        "downbeat_times": [float(t) for t in grid.downbeat_times],
        "source": grid.source,
    }
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_beat_annotation(path) -> BeatGrid:
    """Read a sidecar annotation and validate every BeatGrid invariant."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    missing = {"tempo_bpm", "beat_times", "downbeat_times", "source"} - payload.keys()
    if missing:
        raise SchemaError(f"{path}: missing keys {sorted(missing)}")
    try:
        grid = BeatGrid(
            tempo_bpm=float(payload["tempo_bpm"]),
            beat_times=np.asarray(payload["beat_times"], dtype=np.float64),
            downbeat_times=np.asarray(payload["downbeat_times"], dtype=np.float64),
            source=str(payload["source"]),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed field ({exc})") from exc
    validate_grid(grid)
    return grid
