"""WAV (RIFF) reading/writing and sample-rate conversion.

Reading accepts PCM 16/24/32-bit and 32-bit float, any channel count and
any sample rate from ``MIN_RATE`` (1 kHz) up, and returns the package's one
audio type, a 1-D float64 array at ``dsp.SAMPLE_RATE`` (16 kHz): everything
is downmixed to mono by arithmetic mean, ``DECODE_TILE_FRAMES`` frames at a time, straight into the
resampler's zero-padded input, so that no float64 copy of the whole
interleaved file is made, and resampled with a Kaiser-windowed
polyphase sinc interpolator that applies each filter branch as one
matrix-vector product. NumPy passes that product to BLAS when
the input stride allows (from 44.1 kHz it does), so the last bit of a sample
may depend on the BLAS build. ``load_normalized`` keeps that result in a
cache keyed by the file's content hash, so each distinct file is decoded
once, and ``load_mel`` keeps each track's log-mel the same way, so each is
computed once. Writing always emits mono 16-bit PCM at ``dsp.SAMPLE_RATE``.
"""

import functools
import io
import os
import struct
from math import gcd

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import N_MELS, SAMPLE_RATE, mel_spectrogram
from .errors import CorruptFile, UnsupportedFormat
from .manifest import atomic_open, atomic_write

# Name of the directory of cached ``load_wav`` output. Rename it whenever a
# change alters the samples ``load_wav`` returns, so no stale cache is read.
NORMALIZED_CACHE = "audio-16k-v3"
# Version of the mels ``dsp.mel_spectrogram`` returns. Bump it whenever a
# change alters those mels.
MEL_VERSION = 3
# Name of the directory of cached ``load_mel`` output. It changes with either
# version, so that neither other mel code nor other samples ever read it.
MEL_CACHE = f"mel-v{MEL_VERSION}-{NORMALIZED_CACHE}"

# Frames decoded and downmixed at a time by load_wav: a 256 KB float64 tile
# of 44.1 kHz stereo, where the whole file's interleaved float64 copy took
# 14 MB per 20 s and about 960 minor page faults per such track.
DECODE_TILE_FRAMES = 1 << 14

# Lowest sample rate read, in Hz: resampling to ``SAMPLE_RATE`` then grows a
# file's samples at most 16-fold, where a header's rate of 1 Hz would ask for
# 16,000 samples per frame.
MIN_RATE = 1000

_FMT_PCM = 0x0001
_FMT_FLOAT = 0x0003
_FMT_EXTENSIBLE = 0xFFFE


def _parse_chunks(data: bytes):
    if len(data) < 12:
        raise CorruptFile("file shorter than a RIFF header")
    if data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise UnsupportedFormat("not a RIFF/WAVE file")
    pos = 12
    chunks = {}
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body_start = pos + 8
        if body_start + size > len(data):
            raise CorruptFile(f"chunk {cid!r} claims {size} bytes past end of file")
        if cid not in chunks:  # first occurrence wins
            chunks[cid] = data[body_start : body_start + size]
        pos = body_start + size + (size & 1)  # chunks are word-aligned
    return chunks


def _decode_samples(body: bytes, fmt: int, bits: int, n_channels: int) -> np.ndarray:
    """The frames of ``body`` as float64, PCM scaled into [-1, 1), in an
    encoding that ``_wav_format`` accepted."""
    if fmt == _FMT_FLOAT:
        x = np.frombuffer(body, dtype="<f4").astype(np.float64)
    elif bits == 24:
        triples = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        vals = triples[:, 0] | (triples[:, 1] << 8) | (triples[:, 2] << 16)
        x = np.where(vals >= 1 << 23, vals - (1 << 24), vals).astype(np.float64)
    else:
        x = np.frombuffer(body, dtype=f"<i{bits // 8}").astype(np.float64)
    if fmt == _FMT_PCM:
        x /= float(1 << (bits - 1))  # in place: one float64 copy of the samples, not two
    return x.reshape(-1, n_channels)


def _wav_format(chunks):
    """Check the fmt and data chunks of a parsed WAV file and return its
    format tag, channel count, sample rate, bits per sample and frame count.
    The encoding must be one ``_decode_samples`` reads, so that a file this
    header check passes is one every stage can decode."""
    if b"fmt " not in chunks:
        raise CorruptFile("missing fmt chunk")
    if b"data" not in chunks:
        raise CorruptFile("missing data chunk")
    fmt_body = chunks[b"fmt "]
    if len(fmt_body) < 16:
        raise CorruptFile("fmt chunk too small")
    fmt, n_channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt_body, 0)
    if fmt == _FMT_EXTENSIBLE:
        if len(fmt_body) < 26:
            raise CorruptFile("extensible fmt chunk too small")
        (fmt,) = struct.unpack_from("<H", fmt_body, 24)  # SubFormat GUID leads with the tag
    if n_channels < 1:
        raise CorruptFile("channel count of zero")
    if rate < MIN_RATE:
        raise UnsupportedFormat(f"sample rate {rate} Hz is below {MIN_RATE} Hz")
    if fmt == _FMT_FLOAT and bits != 32:
        raise UnsupportedFormat(f"{bits}-bit float WAV not supported")
    if fmt == _FMT_PCM and bits not in (16, 24, 32):
        raise UnsupportedFormat(f"{bits}-bit PCM not supported")
    if fmt not in (_FMT_FLOAT, _FMT_PCM):
        raise UnsupportedFormat(f"WAV format tag 0x{fmt:04x} not supported")
    n_frames, partial = divmod(len(chunks[b"data"]), n_channels * bits // 8)
    if partial:
        raise CorruptFile("data chunk is not a whole number of frames")
    return fmt, n_channels, rate, bits, n_frames


def load_wav(path, data=None) -> np.ndarray:
    """Read a WAV file as mono float64 samples at ``SAMPLE_RATE``. ``data``
    is the file's bytes, if the caller has already read them.

    Raises UnsupportedFormat for non-WAV containers or codecs we do not
    decode, CorruptFile for truncated or inconsistent chunk structure.
    """
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    chunks = _parse_chunks(data)
    fmt, n_channels, rate, bits, n_frames = _wav_format(chunks)
    body = memoryview(chunks[b"data"])
    frame_bytes = n_channels * (bits // 8)
    # The downmix is written straight into the resampler's zero-padded input.
    padded, mono = _resample_buffer(n_frames)
    # One tile even for an empty data chunk, so that its format is checked.
    for start in range(0, max(n_frames, 1), DECODE_TILE_FRAMES):
        stop = start + DECODE_TILE_FRAMES
        frames = _decode_samples(body[start * frame_bytes : stop * frame_bytes], fmt, bits, n_channels)
        # The channels' mean, summed a column at a time, left to right, from
        # 0.0 (which turns -0.0 into 0.0). Below 8 channels these are the bits
        # of frames.mean(axis=1), whose per-row reduction is an order of
        # magnitude slower; from 8 float channels on, NumPy sums pairwise and
        # rounds differently.
        out = np.add(0.0, frames[:, 0], out=mono[start:stop])
        for channel in range(1, n_channels):
            out += frames[:, channel]
        out /= n_channels
    if rate != SAMPLE_RATE:
        mono = _resample_padded(padded, n_frames, rate, SAMPLE_RATE)
    return np.clip(mono, -1.0, 1.0, out=mono)


def _cached_array(path, valid, compute) -> np.ndarray:
    """The float64 array stored in ``path``, memory-mapped read-only, if the
    file loads as one and ``valid(array)`` holds; otherwise ``compute()``,
    written to ``path`` atomically, so concurrent callers never see a
    partial file."""
    try:
        array = np.load(path, mmap_mode="r", allow_pickle=False)
    except (OSError, ValueError, EOFError):
        array = None
    if isinstance(array, np.ndarray) and array.dtype == np.float64 and valid(array):
        return array
    array = compute()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with atomic_open(path) as fh:
        np.save(fh, array, allow_pickle=False)
    return array


def load_normalized(path, cache_dir, digest, data=None) -> np.ndarray:
    """``load_wav(path)``, through ``cache_dir/<digest>.npy``.

    ``digest`` is the file's current content hash and ``data`` its bytes,
    if the caller has them. A cache hit is a read-only ndarray view of the
    memory-mapped file; a miss, or a cache file that does not load as a 1-D
    float64 array, is decoded by ``load_wav`` and written atomically.
    """
    samples = _cached_array(
        os.path.join(cache_dir, f"{digest}.npy"),
        lambda array: array.ndim == 1,
        lambda: load_wav(path, data),
    )
    return np.asarray(samples)  # on a hit, a plain ndarray view of the np.memmap


def load_mel(cache_dir, digest, decode) -> np.ndarray:
    """``mel_spectrogram(decode())``, through ``cache_dir/<digest>.npy``.

    ``digest`` is the track's content hash, ``cache_dir`` a directory named
    ``MEL_CACHE``, and ``decode`` a function that gives the track's
    normalized samples; it is called only on a miss. A hit is a read-only
    ndarray view of the memory-mapped file; a miss, or a cache file that does
    not load as a 2-D float64 array of ``N_MELS`` columns, is computed and
    written atomically.
    """
    mel = _cached_array(
        os.path.join(cache_dir, f"{digest}.npy"),
        lambda array: array.ndim == 2 and array.shape[1] == N_MELS,
        lambda: mel_spectrogram(decode()),
    )
    return np.asarray(mel)  # on a hit, a plain ndarray view of the np.memmap


def normalized_length(data: bytes) -> int:
    """Sample count a WAV file's bytes give after normalization, from the
    header alone, without decoding the audio. An encoding that no stage
    decodes raises UnsupportedFormat here, as ``load_wav`` would."""
    _, _, rate, _, n_frames = _wav_format(_parse_chunks(data))
    g = gcd(rate, SAMPLE_RATE)
    return (n_frames * (SAMPLE_RATE // g)) // (rate // g)


def wav_bytes(x: np.ndarray) -> bytes:
    """Serialize samples as mono 16-bit PCM WAV bytes at ``SAMPLE_RATE``."""
    # scale by 32768 (the loader's divisor) and clip the one overflow code
    pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    body = pcm.tobytes()
    out = io.BytesIO()
    out.write(b"RIFF")
    out.write(struct.pack("<I", 36 + len(body)))
    out.write(b"WAVE")
    out.write(b"fmt ")
    out.write(struct.pack("<IHHIIHH", 16, _FMT_PCM, 1, SAMPLE_RATE, SAMPLE_RATE * 2, 2, 16))
    out.write(b"data")
    out.write(struct.pack("<I", len(body)))
    out.write(body)
    return out.getvalue()


def save_wav(path, x: np.ndarray) -> None:
    atomic_write(path, wav_bytes(x))


# --- resampling -----------------------------------------------------------

_KAISER_BETA = 8.6
_ROLLOFF = 0.9475
_TAPS = 64  # taps per polyphase branch

@functools.lru_cache(maxsize=4)
def _polyphase_table(up: int, down: int) -> np.ndarray:
    """Kaiser-windowed sinc filter table, shape (up, _TAPS)."""
    half = _TAPS // 2
    cutoff = _ROLLOFF * min(1.0, up / down)  # fraction of the input Nyquist
    j = np.arange(_TAPS)
    table = np.empty((up, _TAPS))
    for phase in range(up):
        frac = phase / up  # fractional input-sample position of this branch
        offsets = j - (half - 1) - frac
        u = offsets / half
        win = np.where(np.abs(u) < 1.0, np.i0(_KAISER_BETA * np.sqrt(np.maximum(0.0, 1.0 - u * u))), 0.0)
        win /= np.i0(_KAISER_BETA)
        h = cutoff * np.sinc(cutoff * offsets) * win
        table[phase] = h / h.sum()  # unity DC gain per branch
    return table


def _resample_buffer(n_in: int):
    """A zeroed input buffer for ``_resample_padded`` and the view of it that
    holds the ``n_in`` input samples, between the margins the filter reads.
    The last window ``_resample_padded`` reads ends at or before the right
    margin's end, so the buffer's size does not depend on the rates."""
    padded = np.zeros(_TAPS // 2 + n_in + _TAPS // 2)
    return padded, padded[_TAPS // 2 : _TAPS // 2 + n_in]


def _resample_padded(padded: np.ndarray, n_in: int, rate_in: int, rate_out: int) -> np.ndarray:
    """Rational-ratio resampling, by windowed-sinc polyphase interpolation,
    of the ``n_in`` samples held in a ``_resample_buffer``."""
    g = gcd(rate_in, rate_out)
    up, down = rate_out // g, rate_in // g
    n_out = (n_in * up) // down
    if n_out == 0:
        return np.zeros(0)

    table = _polyphase_table(up, down)
    half = _TAPS // 2
    windows = sliding_window_view(padded, _TAPS)  # row i is padded[i : i + _TAPS]
    out = np.empty(n_out)
    # Output n sits at input position n*down/up; outputs sharing n % up share
    # a filter branch and read the input on a stride-`down` grid.
    for r in range(min(up, n_out)):
        phase = (r * down) % up
        base = (r * down) // up
        count = 1 + (n_out - 1 - r) // up
        # tap j reads input sample (base - half + 1 + j); the left padding of
        # `half` zeros shifts that to padded index base + 1 + j, so window
        # row start + k*down holds the taps of output r + k*up
        start = base + 1
        out[r::up] = windows[start : start + count * down : down] @ table[phase]
    return out
