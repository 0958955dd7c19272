"""Mel-spectrogram analysis and Fast Griffin-Lim resynthesis.

Audio is a 1-D float64 NumPy array of samples in [-1, 1] at ``SAMPLE_RATE``,
the one rate the whole package works at: ``wavio`` converts every file to
it on reading, and nothing takes another rate.

All analysis uses one fixed convention, the paper's: a 1024-sample Hann
window and FFT, a hop of 160 samples and 128 mel bands from 0 to 8 kHz.
Frames are centered on the sample grid ``k * HOP`` after reflect-padding by
half a window, and the frame count for ``n`` samples is
``1 + (n - 1) // HOP`` (one frame per hop-grid point inside the signal). A
10.24 s clip therefore yields exactly 1024 frames of 128 mel bins. A mel is
a plain (frames, N_MELS) float64 array.

Mel magnitudes are stored in dB, ``20 * log10(amplitude)``, clamped at
``LOG_FLOOR``, -80 dB (amplitudes below 1e-4 of full scale).
"""

import functools

import numpy as np

from .errors import TooShort

# The paper's analysis convention, the one the whole package works in.
SAMPLE_RATE = 16000  # Hz, of every audio array in the package
HOP = 160  # samples between frames
WINDOW = 1024  # samples per analysis frame
FFT_SIZE = 1024
N_MELS = 128
FMIN = 0.0  # Hz, the lowest mel band edge
FMAX = 8000.0  # Hz, the highest
LOG_FLOOR = -80.0  # dB, the clamp of every mel magnitude
AMP_FLOOR = 10.0 ** (LOG_FLOOR / 20.0)  # the amplitude LOG_FLOOR stands for
FRAMES_PER_SECOND = SAMPLE_RATE / HOP

# Phase-retrieval iterations per inverted mel: the fewest at which Fast
# Griffin-Lim matched the final consistency error of 32 plain Griffin-Lim
# iterations on every blm clip tried (CHANGES.md has the table).
GL_ITERATIONS = 14
# Fast Griffin-Lim momentum. At 0.99 the consistency error of a plain sine
# no longer falls monotonically; at 0.9 it does.
FGLA_MOMENTUM = 0.9


def frame_count(n_samples: int) -> int:
    """Frames ``mel_spectrogram`` gives for ``n_samples`` samples."""
    return 1 + (n_samples - 1) // HOP


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


def mel_band_edges() -> np.ndarray:
    """N_MELS + 2 band edge frequencies in Hz, uniformly spaced on the mel scale."""
    return mel_to_hz(np.linspace(hz_to_mel(FMIN), hz_to_mel(FMAX), N_MELS + 2))


@functools.cache
def mel_filterbank() -> np.ndarray:
    """Triangular, area-normalized filterbank, shape (N_MELS, FFT_SIZE//2 + 1)."""
    n_bins = FFT_SIZE // 2 + 1
    freqs = np.linspace(0.0, SAMPLE_RATE / 2.0, n_bins)
    edges = mel_band_edges()
    fb = np.zeros((N_MELS, n_bins))
    for m in range(N_MELS):
        lo, ctr, hi = edges[m], edges[m + 1], edges[m + 2]
        rising = (freqs - lo) / max(ctr - lo, 1e-12)
        falling = (hi - freqs) / max(hi - ctr, 1e-12)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling)) * (2.0 / (hi - lo))
    return fb


@functools.cache
def _hann() -> np.ndarray:
    # periodic Hann, so analysis/synthesis overlap-add stays flat
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW) / WINDOW)


def _stft(padded: np.ndarray, n_frames: int, frames=None) -> np.ndarray:
    """Complex spectra of the Hann-windowed frames ``padded[k*HOP : k*HOP + WINDOW]``;
    ``frames``, an (n_frames, WINDOW) float64 array, is filled with the
    windowed frames instead of a new one."""
    view = np.lib.stride_tricks.sliding_window_view(padded, WINDOW)
    view = view[: (n_frames - 1) * HOP + 1 : HOP]
    frames = np.multiply(view, _hann(), out=frames)
    return np.fft.rfft(frames, n=FFT_SIZE, axis=1)


def mel_spectrogram(x: np.ndarray) -> np.ndarray:
    """Log-mel magnitudes of the samples ``x``, a (frames, N_MELS) float64
    array in dB.

    Raises TooShort if the signal does not cover one analysis window.
    """
    if x.size < WINDOW:
        raise TooShort(f"{x.size} samples < one window of {WINDOW}")
    padded = np.pad(x, WINDOW // 2, mode="reflect")
    mag = np.abs(_stft(padded, frame_count(x.size)))
    mel_amp = mag @ mel_filterbank().T
    return 20.0 * np.log10(np.maximum(mel_amp, AMP_FLOOR))


@functools.cache
def _filterbank_pinv() -> np.ndarray:
    return np.linalg.pinv(mel_filterbank())


def _overlap_add(frames: np.ndarray) -> np.ndarray:
    """Sum frame k into samples ``[k*HOP, k*HOP + WINDOW)``, in frame order.

    The output is laid out as a grid of HOP-long rows. Piece t of every
    frame, its samples ``[t*HOP, (t+1)*HOP)``, lands on the rows shifted by
    t, so each piece is one strided add over all frames. Pieces go from the
    last to the first, so each sample adds its frames in frame order, as a
    loop over the frames does.
    """
    n_frames = frames.shape[0]
    pieces = -(-WINDOW // HOP)
    grid = np.zeros((n_frames - 1 + pieces, HOP))
    for t in reversed(range(pieces)):
        piece = frames[:, t * HOP : (t + 1) * HOP]
        grid[t : t + n_frames, : piece.shape[1]] += piece
    return grid.ravel()[: (n_frames - 1) * HOP + WINDOW]


def _window_sum(n_frames: int) -> np.ndarray:
    """The overlap-added squared synthesis window ``_istft`` divides by, kept
    away from zero; it depends only on the frame count, so build it once."""
    win = _hann()
    win_sq = np.broadcast_to(win * win, (n_frames, WINDOW))
    return np.maximum(_overlap_add(win_sq), 1e-10)


def _istft(spec: np.ndarray, window_sum: np.ndarray) -> np.ndarray:
    """Overlap-add synthesis back to the padded-domain signal."""
    frames = np.fft.irfft(spec, n=FFT_SIZE, axis=1)[:, :WINDOW]
    frames *= _hann()
    out = _overlap_add(frames)
    out /= window_sum
    return out


def invert_mel(mel: np.ndarray, iterations: int = GL_ITERATIONS, callback=None) -> np.ndarray:
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
    amp = 10.0 ** (mel / 20.0)
    target = np.maximum(amp @ _filterbank_pinv().T, 0.0)
    target_norm = np.linalg.norm(target)

    n_frames = target.shape[0]
    window_sum = _window_sum(n_frames)
    frames = np.empty((n_frames, WINDOW))
    mag = np.empty_like(target)
    coeffs = target.astype(np.complex128)
    prev = None
    for it in range(iterations):
        spec = _stft(_istft(coeffs, window_sum), n_frames, frames)
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
    y = _istft(prev, window_sum)

    pad = WINDOW // 2
    out = y[pad : pad + n_frames * HOP]
    return np.clip(out, -1.0, 1.0)
