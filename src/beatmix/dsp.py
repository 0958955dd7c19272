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

``mel_spectrogram`` frames, transforms and weights the signal
``TILE_FRAMES`` frames at a time, so its working set is the padded signal,
one tile's frames, spectrum and magnitudes, and the track's mel. Each row is
the same FFT of the same frame, and the same filterbank sum, as in one
whole-signal transform and product, so the tiles do not change a bit.
``invert_mel`` works through the same tiles: a render holds its clip's
spectra whole but its frames one tile at a time, about 30 MB for a 10.24 s
clip, so that ``mix`` can run one render per CPU.
"""

import functools
import mmap

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

# Frames per STFT tile in mel_spectrogram and invert_mel: a 1 MB frame
# buffer and a 1 MB spectrum, whatever the track's length. A whole 20 s
# track's frames and spectrum take 16 MB each, which the allocator returned
# to the system after every call and faulted in again on the next (800-1,300
# minor faults per call). With 128-frame tiles a 20 s mel took 5.3 ms
# instead of 7.6-8.3 ms, with no faults, on a 2-core AMD EPYC VM.
TILE_FRAMES = 128


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
    """Complex spectra of the Hann-windowed frames ``padded[k*HOP : k*HOP + WINDOW]``
    for k below ``n_frames``, one ``rfft`` per row; ``frames``, an
    (n_frames, WINDOW) float64 array, is filled with the windowed frames
    instead of a new one. ``mel_spectrogram`` and ``invert_mel`` transform a
    tile of frames at a time."""
    view = np.lib.stride_tricks.sliding_window_view(padded, WINDOW)
    view = view[: (n_frames - 1) * HOP + 1 : HOP]
    frames = np.multiply(view, _hann(), out=frames)
    return np.fft.rfft(frames, n=FFT_SIZE, axis=1)


def _mel_amplitudes(x: np.ndarray) -> np.ndarray:
    """The mel filterbank amplitudes of the frames of ``x``, reflect-padded
    by half a window: a (frame_count(x.size), N_MELS) array, filled
    ``TILE_FRAMES`` rows at a time from that tile's magnitude spectra."""
    padded = np.pad(x, WINDOW // 2, mode="reflect")
    n_frames = frame_count(x.size)
    out = np.empty((n_frames, N_MELS))
    frames = np.empty((min(TILE_FRAMES, n_frames), WINDOW))
    mag = np.empty((frames.shape[0], FFT_SIZE // 2 + 1))
    for start in range(0, n_frames, TILE_FRAMES):
        n = min(TILE_FRAMES, n_frames - start)
        spectra = _stft(padded[start * HOP :], n, frames[:n])
        _filterbank_product(np.abs(spectra, out=mag[:n]), out[start : start + n])
    return out


def mel_spectrogram(x: np.ndarray) -> np.ndarray:
    """Log-mel magnitudes of the samples ``x``, a (frames, N_MELS) float64
    array in dB.

    Raises TooShort if the signal does not cover one analysis window.
    """
    if x.size < WINDOW:
        raise TooShort(f"{x.size} samples < one window of {WINDOW}")
    return 20.0 * np.log10(np.maximum(_mel_amplitudes(x), AMP_FLOOR))


@functools.cache
def _filterbank_bands():
    """For the even mel bands, then the odd: each bin's weight in them and
    each band's first non-zero bin. The bands of one parity are pairwise
    disjoint, so each bin's weight is the one non-zero filterbank entry of
    its column, if any, exactly."""
    fb = mel_filterbank()
    return tuple((fb[p::2].sum(axis=0), np.argmax(fb[p::2] > 0, axis=1)) for p in (0, 1))


def _filterbank_product(mag: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``mag @ mel_filterbank().T``, written into ``out``, in an order that
    NumPy fixes and no BLAS can change.

    Per parity, each band sums the weighted bins from its first non-zero bin
    up to the next band's with one ``np.add.reduceat``; the zero-weight bins
    between bands add +0.0, which changes nothing.
    """
    for parity, (weights, starts) in enumerate(_filterbank_bands()):
        np.add.reduceat(mag * weights, starts, axis=1, out=out[:, parity::2])
    return out


@functools.cache
def _filterbank_pinv() -> np.ndarray:
    """The pseudo-inverse of the mel filterbank, transposed: ``(fb fbᵀ)⁻¹ fb``,
    shape (N_MELS, FFT_SIZE//2 + 1), computed with no BLAS or LAPACK call.

    Only adjacent bands share bins, so ``fb fbᵀ`` is exactly tridiagonal, and
    symmetric positive definite with a condition number of about 21; it is
    solved against ``fb`` by the Thomas algorithm, one band at a time. The
    result is within 3e-15, relative, of the SVD pseudo-inverse.
    """
    fb = mel_filterbank()
    diag = (fb * fb).sum(axis=1)
    off = (fb[:-1] * fb[1:]).sum(axis=1)  # band m with band m + 1
    x = np.empty_like(fb)
    ratio = np.empty(N_MELS - 1)
    pivot = diag[0]
    x[0] = fb[0] / pivot
    for m in range(1, N_MELS):
        ratio[m - 1] = off[m - 1] / pivot
        pivot = diag[m] - off[m - 1] * ratio[m - 1]
        x[m] = (fb[m] - off[m - 1] * x[m - 1]) / pivot
    for m in range(N_MELS - 2, -1, -1):
        x[m] -= ratio[m] * x[m + 1]
    return x


# HOP-long pieces per frame in an overlap-add
_PIECES = -(-WINDOW // HOP)


def _overlap_add(tiles, n_frames: int) -> np.ndarray:
    """Sum frame k into samples ``[k*HOP, k*HOP + WINDOW)``, in frame order;
    ``tiles`` yields the ``n_frames`` frames in order, a block of rows at a
    time.

    The output is laid out as a grid of HOP-long rows. Piece t of every
    frame, its samples ``[t*HOP, (t+1)*HOP)``, lands on the rows shifted by
    t, so each piece is one strided add over a block's frames. Blocks go in
    order and pieces from the last to the first, so each sample adds its
    frames in frame order, as a loop over the frames does.
    """
    grid = np.zeros((n_frames - 1 + _PIECES, HOP))
    first = 0
    for frames in tiles:
        n = frames.shape[0]
        for t in reversed(range(_PIECES)):
            piece = frames[:, t * HOP : (t + 1) * HOP]
            grid[first + t : first + t + n, : piece.shape[1]] += piece
        first += n
    return grid.ravel()[: (n_frames - 1) * HOP + WINDOW]


def _window_sum(n_frames: int) -> np.ndarray:
    """The overlap-added squared synthesis window ``_istft`` divides by, kept
    away from zero; it depends only on the frame count, so build it once."""
    win = _hann()
    win_sq = np.broadcast_to(win * win, (n_frames, WINDOW))
    return np.maximum(_overlap_add([win_sq], n_frames), 1e-10)


def _istft(spec: np.ndarray, window_sum: np.ndarray) -> np.ndarray:
    """Overlap-add synthesis back to the padded-domain signal, ``TILE_FRAMES``
    frames at a time through one frame buffer."""
    n_frames = spec.shape[0]
    buffer = np.empty((min(TILE_FRAMES, n_frames), FFT_SIZE))

    def tiles():
        for start in range(0, n_frames, TILE_FRAMES):
            frames = buffer[: min(TILE_FRAMES, n_frames - start), :WINDOW]
            np.fft.irfft(spec[start : start + TILE_FRAMES], n=FFT_SIZE, axis=1,
                         out=buffer[: frames.shape[0]])
            frames *= _hann()
            yield frames

    out = _overlap_add(tiles(), n_frames)
    out /= window_sum
    return out


def _own_mapping(shape, dtype) -> np.ndarray:
    """A zeroed array on an anonymous memory mapping of its own, unmapped
    when the array is freed.

    ``mix`` renders on a thread pool, and glibc serves a pool thread's
    allocations from that thread's own arena, whose freed memory stays mapped
    for that thread alone: on pipeline-16k seed 3 two render threads kept
    about 60 MB that eval, on the calling thread, then allocated anew, and
    the peak RSS went from 161 to 203 MiB. A render's whole-clip spectra,
    most of its memory, go on mappings of their own instead, so they return
    to the system when it ends (peak 162 MiB).
    """
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    pages = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    return np.frombuffer(pages, dtype, count).reshape(shape)


def invert_mel(mel: np.ndarray, iterations: int = GL_ITERATIONS) -> np.ndarray:
    """Reconstruct audio from a log-mel matrix.

    The mel magnitudes are mapped back to a linear spectrum through the
    clamped pseudo-inverse of the filterbank, then Fast Griffin-Lim phase
    retrieval (Perraudin, Balazs & Søndergaard, WASPAA 2013) runs for the
    given number of iterations. It starts from zero phase, so the result is
    deterministic. Each iteration projects onto the consistent spectra
    (ISTFT then STFT), restores the target magnitudes, and extrapolates
    along the last step with momentum ``FGLA_MOMENTUM``; the output is the
    ISTFT of the last magnitude-restored spectrum.

    Both transforms work ``TILE_FRAMES`` frames at a time: the ISTFT
    overlap-adds each tile into the signal in frame order, then each tile
    of the signal's STFT has its magnitudes restored and its momentum step
    taken at once. So the whole-clip arrays are the target, the current
    coefficients and the last projection, each on a mapping of its own
    (``_own_mapping``); the frames and the spectrum exist one tile at a
    time, in buffers reused from tile to tile. Every element goes through
    the same operations in the same order as in the plain whole-clip
    formulas, so the output is the same bits.
    """
    amp = 10.0 ** (mel / 20.0)
    pinv = _filterbank_pinv()
    # NumPy's own loop, not the BLAS, so that no BLAS build, kernel or thread
    # count can change the bits
    target = np.einsum("tm,mf->tf", amp, pinv, optimize=False,
                       out=_own_mapping((amp.shape[0], pinv.shape[1]), np.float64))
    np.maximum(target, 0.0, out=target)

    n_frames = target.shape[0]
    window_sum = _window_sum(n_frames)
    frames = np.empty((min(TILE_FRAMES, n_frames), WINDOW))
    scale = np.empty((frames.shape[0], target.shape[1]))
    coeffs = _own_mapping(target.shape, np.complex128)
    coeffs[...] = target
    prev = _own_mapping(target.shape, np.complex128)
    for it in range(iterations):
        padded = _istft(coeffs, window_sum)
        for start in range(0, n_frames, TILE_FRAMES):
            rows = slice(start, start + TILE_FRAMES)
            n = min(TILE_FRAMES, n_frames - start)
            spec = _stft(padded[start * HOP :], n, frames[:n])
            # spec becomes the projection, spec * (target / max(|spec|, 1e-16))
            ratio = np.maximum(np.abs(spec, out=scale[:n]), 1e-16, out=scale[:n])
            np.divide(target[rows], ratio, out=ratio)
            spec *= ratio
            if it == 0:
                coeffs[rows] = spec
            else:
                # proj + momentum * (proj - prev), the step written over coeffs
                step = np.subtract(spec, prev[rows], out=coeffs[rows])
                step *= FGLA_MOMENTUM
                np.add(spec, step, out=step)
            prev[rows] = spec
    y = _istft(prev, window_sum)

    pad = WINDOW // 2
    out = y[pad : pad + n_frames * HOP]
    return np.clip(out, -1.0, 1.0)
