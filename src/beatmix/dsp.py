"""Mel-spectrogram analysis and Fast Griffin-Lim resynthesis.

Audio is a 1-D float64 NumPy array of samples in [-1, 1] at ``SAMPLE_RATE``,
the one rate the whole package works at: ``wavio`` converts every file to
it on reading, and nothing takes another rate.

All analysis uses one fixed convention: frames are centered on the sample
grid ``k * hop`` after reflect-padding by half a window, and the frame count
for ``n`` samples is ``1 + (n - 1) // hop`` (one frame per hop-grid point
inside the signal). A 10.24 s clip at hop 160 therefore yields exactly 1024
frames of 128 mel bins.

Mel magnitudes are stored in dB, ``20 * log10(amplitude)``, clamped at
``log_floor`` (default -80 dB, i.e. amplitudes below 1e-4 of full scale).
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import TooShort

SAMPLE_RATE = 16000  # Hz, of every audio array in the package

# Phase-retrieval iterations per inverted mel, unless a manifest stores
# another ``gl_iterations``: the fewest at which Fast Griffin-Lim matched the
# final consistency error of 32 plain Griffin-Lim iterations on every blm clip
# tried (CHANGES.md has the table).
GL_ITERATIONS = 14
# Fast Griffin-Lim momentum. At 0.99 the consistency error of a plain sine
# no longer falls monotonically; at 0.9 it does.
FGLA_MOMENTUM = 0.9


@dataclass(frozen=True)
class SignalConfig:
    """STFT / mel analysis parameters. Defaults match the pipeline contract."""

    hop: int = 160
    window: int = 1024
    fft_size: int = 1024
    n_mels: int = 128
    fmin: float = 0.0
    fmax: float = 8000.0
    log_floor: float = -80.0  # dB

    def __post_init__(self):
        if not (0 < self.hop <= self.window <= self.fft_size):
            raise ValueError("need 0 < hop <= window <= fft_size")
        if self.n_mels < 1:
            raise ValueError("n_mels must be >= 1")
        if not (0 <= self.fmin < self.fmax <= SAMPLE_RATE / 2):
            raise ValueError(f"need 0 <= fmin < fmax <= {SAMPLE_RATE // 2}")

    @property
    def amp_floor(self) -> float:
        """Amplitude corresponding to log_floor dB."""
        return 10.0 ** (self.log_floor / 20.0)

    @property
    def frames_per_second(self) -> float:
        return SAMPLE_RATE / self.hop

    def frame_count(self, n_samples: int) -> int:
        return 1 + (n_samples - 1) // self.hop


@dataclass
class MelSpectrogram:
    """T x F matrix of log-mel magnitudes in dB, with its analysis config."""

    frames: np.ndarray
    config: SignalConfig = field(default_factory=SignalConfig)

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise ValueError("mel frames must be a 2-D matrix")
        if self.frames.shape[1] != self.config.n_mels:
            raise ValueError(
                f"mel has {self.frames.shape[1]} bins, config says {self.config.n_mels}"
            )

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


# --- mel scale (Slaney variant: linear below 1 kHz, log above) -------------

_F_SP = 200.0 / 3.0
_MIN_LOG_HZ = 1000.0
_MIN_LOG_MEL = _MIN_LOG_HZ / _F_SP
_LOG_STEP = np.log(6.4) / 27.0


def hz_to_mel(freq_hz):
    f = np.asarray(freq_hz, dtype=np.float64)
    mel = f / _F_SP
    above = f >= _MIN_LOG_HZ
    if np.any(above):
        mel = np.where(above, _MIN_LOG_MEL + np.log(np.maximum(f, 1e-12) / _MIN_LOG_HZ) / _LOG_STEP, mel)
    return mel


def mel_to_hz(mel):
    m = np.asarray(mel, dtype=np.float64)
    f = m * _F_SP
    above = m >= _MIN_LOG_MEL
    if np.any(above):
        f = np.where(above, _MIN_LOG_HZ * np.exp(_LOG_STEP * (m - _MIN_LOG_MEL)), f)
    return f


def mel_band_edges(config: SignalConfig) -> np.ndarray:
    """n_mels + 2 band edge frequencies in Hz, uniformly spaced on the mel scale."""
    return mel_to_hz(np.linspace(hz_to_mel(config.fmin), hz_to_mel(config.fmax), config.n_mels + 2))


@functools.cache
def mel_filterbank(config: SignalConfig) -> np.ndarray:
    """Triangular, area-normalized filterbank, shape (n_mels, fft_size//2 + 1)."""
    n_bins = config.fft_size // 2 + 1
    freqs = np.linspace(0.0, SAMPLE_RATE / 2.0, n_bins)
    edges = mel_band_edges(config)
    fb = np.zeros((config.n_mels, n_bins))
    for m in range(config.n_mels):
        lo, ctr, hi = edges[m], edges[m + 1], edges[m + 2]
        rising = (freqs - lo) / max(ctr - lo, 1e-12)
        falling = (hi - freqs) / max(hi - ctr, 1e-12)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling)) * (2.0 / (hi - lo))
    return fb


@functools.cache
def _hann(window: int) -> np.ndarray:
    # periodic Hann, so analysis/synthesis overlap-add stays flat
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)


def _stft(padded: np.ndarray, n_frames: int, config: SignalConfig, frames=None) -> np.ndarray:
    """Complex spectra of the Hann-windowed frames ``padded[k*hop : k*hop + window]``;
    ``frames``, an (n_frames, window) float64 array, is filled with the
    windowed frames instead of a new one."""
    view = np.lib.stride_tricks.sliding_window_view(padded, config.window)
    view = view[: (n_frames - 1) * config.hop + 1 : config.hop]
    frames = np.multiply(view, _hann(config.window), out=frames)
    return np.fft.rfft(frames, n=config.fft_size, axis=1)


def mel_spectrogram(x: np.ndarray, config: SignalConfig = SignalConfig()) -> MelSpectrogram:
    """Log-mel magnitudes of the samples ``x``.

    Raises TooShort if the signal does not cover one analysis window.
    """
    if x.size < config.window:
        raise TooShort(f"{x.size} samples < one window of {config.window}")
    pad = config.window // 2
    padded = np.pad(x, pad, mode="reflect")
    n_frames = config.frame_count(x.size)
    mag = np.abs(_stft(padded, n_frames, config))
    mel_amp = mag @ mel_filterbank(config).T
    db = 20.0 * np.log10(np.maximum(mel_amp, config.amp_floor))
    return MelSpectrogram(frames=db, config=config)


@functools.cache
def _filterbank_pinv(config: SignalConfig) -> np.ndarray:
    return np.linalg.pinv(mel_filterbank(config))


def _overlap_add(frames: np.ndarray, config: SignalConfig) -> np.ndarray:
    """Sum frame k into samples ``[k*hop, k*hop + window)``, in frame order.

    The output is laid out as a grid of hop-long rows. Piece t of every
    frame, its samples ``[t*hop, (t+1)*hop)``, lands on the rows shifted by
    t, so each piece is one strided add over all frames. Pieces go from the
    last to the first, so each sample adds its frames in frame order, as a
    loop over the frames does.
    """
    n_frames, hop = frames.shape[0], config.hop
    pieces = -(-config.window // hop)
    grid = np.zeros((n_frames - 1 + pieces, hop))
    for t in reversed(range(pieces)):
        piece = frames[:, t * hop : (t + 1) * hop]
        grid[t : t + n_frames, : piece.shape[1]] += piece
    return grid.ravel()[: (n_frames - 1) * hop + config.window]


def _window_sum(n_frames: int, config: SignalConfig) -> np.ndarray:
    """The overlap-added squared synthesis window ``_istft`` divides by, kept
    away from zero; it depends only on the frame count, so build it once."""
    win = _hann(config.window)
    win_sq = np.broadcast_to(win * win, (n_frames, config.window))
    return np.maximum(_overlap_add(win_sq, config), 1e-10)


def _istft(spec: np.ndarray, config: SignalConfig, window_sum: np.ndarray) -> np.ndarray:
    """Overlap-add synthesis back to the padded-domain signal."""
    frames = np.fft.irfft(spec, n=config.fft_size, axis=1)[:, : config.window]
    frames *= _hann(config.window)
    out = _overlap_add(frames, config)
    out /= window_sum
    return out


def invert_mel(mel: MelSpectrogram, iterations: int = GL_ITERATIONS, callback=None) -> np.ndarray:
    """Reconstruct audio from a log-mel matrix.

    The mel magnitudes are mapped back to a linear spectrum through the
    clamped pseudo-inverse of the filterbank, then Fast Griffin-Lim phase
    retrieval (Perraudin, Balazs & Søndergaard, WASPAA 2013) runs for the
    given number of iterations. It starts from zero phase, so the result is
    deterministic. Each iteration projects onto the consistent spectra
    (ISTFT then STFT), restores the target magnitudes, and extrapolates
    along the last step with momentum ``FGLA_MOMENTUM``; the output is the
    ISTFT of the last magnitude-restored spectrum. When given,
    ``callback(iteration, error)`` is invoked each iteration with the
    relative spectral consistency error of that iteration's STFT(ISTFT(.)).

    The loop works in place where it can: one frame buffer for every STFT,
    one magnitude buffer, and the magnitude restore and the momentum step
    written over arrays that are no longer needed. It does the same
    operations in the same order as the plain formulas, so the output is the
    same bits.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    config = mel.config
    amp = 10.0 ** (mel.frames / 20.0)
    target = np.maximum(amp @ _filterbank_pinv(config).T, 0.0)
    target_norm = np.linalg.norm(target)

    n_frames = target.shape[0]
    window_sum = _window_sum(n_frames, config)
    frames = np.empty((n_frames, config.window))
    mag = np.empty_like(target)
    coeffs = target.astype(np.complex128)
    prev = None
    for it in range(iterations):
        spec = _stft(_istft(coeffs, config, window_sum), n_frames, config, frames)
        np.abs(spec, out=mag)
        if callback is not None:
            callback(it, np.linalg.norm(mag - target) / max(target_norm, 1e-16))
        # spec becomes the projection, spec * (target / max(|spec|, 1e-16))
        np.maximum(mag, 1e-16, out=mag)
        np.divide(target, mag, out=mag)
        spec *= mag
        if prev is None:
            coeffs = spec
        else:
            # proj + momentum * (proj - prev), the step written over prev
            step = np.subtract(spec, prev, out=prev)
            step *= FGLA_MOMENTUM
            coeffs = np.add(spec, step, out=step)
        prev = spec
    y = _istft(prev, config, window_sum)

    pad = config.window // 2
    out = y[pad : pad + n_frames * config.hop]
    return np.clip(out, -1.0, 1.0)
