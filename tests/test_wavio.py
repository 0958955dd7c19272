import hashlib
import os
import struct
import tracemalloc

import numpy as np
import pytest

from beatmix import wavio
from beatmix.dsp import N_MELS, SAMPLE_RATE, mel_spectrogram
from beatmix.errors import CorruptFile, UnsupportedFormat
from beatmix.wavio import (
    _polyphase_table,
    load_mel,
    load_normalized,
    load_wav,
    save_wav,
    wav_bytes,
)


def sha256_of(path) -> str:
    """The content hash of a file, which names its cache files."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def probe_wav(path) -> int:
    """What ingest and analyze take from a WAV's bytes before any decode:
    its length after normalization."""
    with open(path, "rb") as fh:
        return wavio.normalized_length(fh.read())


def write_raw_wav(path, frames: np.ndarray, rate: int, fmt: str):
    """Hand-rolled writer covering the formats load_wav must accept."""
    n_channels = frames.shape[1]
    if fmt == "pcm16":
        body = (frames * 32767).astype("<i2").tobytes()
        tag, bits = 1, 16
    elif fmt == "pcm32":
        body = (frames * 2147483647).astype("<i4").tobytes()
        tag, bits = 1, 32
    elif fmt == "pcm24":
        ints = np.round(frames * (2**23 - 1)).astype(np.int32)
        raw = bytearray()
        for v in ints.reshape(-1):
            raw += int(v & 0xFFFFFF).to_bytes(3, "little")
        body = bytes(raw)
        tag, bits = 1, 24
    elif fmt == "float32":
        body = frames.astype("<f4").tobytes()
        tag, bits = 3, 32
    else:
        raise ValueError(fmt)
    block = n_channels * bits // 8
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, tag, n_channels, rate,
                                        rate * block, block, bits))
        fh.write(b"data" + struct.pack("<I", len(body)) + body)


def test_downmix_symmetry(tmp_path):
    rng = np.random.default_rng(0)
    v = rng.uniform(-0.5, 0.5, 8000)
    frames = np.stack([v, -v], axis=1)
    path = tmp_path / "sym.wav"
    write_raw_wav(path, frames, 16000, "float32")
    wave = load_wav(path)
    assert wave.dtype == np.float64 and wave.shape == (8000,)
    assert np.abs(wave).max() < 1e-7


def test_pcm16_scale(tmp_path):
    ints = np.array([-32768, -1, 0, 1, 16384, 32767], dtype="<i2")
    path = tmp_path / "scale.wav"
    with open(path, "wb") as fh:
        body = ints.tobytes()
        fh.write(b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16))
        fh.write(b"data" + struct.pack("<I", len(body)) + body)
    wave = load_wav(path)
    assert np.allclose(wave, ints.astype(float) / 32768.0)
    assert wave.size == 6


@pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "pcm32", "float32"])
def test_formats_round_trip_values(tmp_path, fmt):
    t = np.arange(16000) / 16000
    x = 0.4 * np.sin(2 * np.pi * 220 * t)
    path = tmp_path / f"{fmt}.wav"
    write_raw_wav(path, x[:, None], 16000, fmt)
    wave = load_wav(path)
    assert wave.size == 16000
    assert np.abs(wave - x).max() < 1e-3


def test_resample_sine_peak_matches_reference(tmp_path):
    # independent reference: linear-interpolation resampler
    sr_in = 44100
    t = np.arange(sr_in) / sr_in
    x = np.sin(2 * np.pi * 440 * t)
    path = tmp_path / "sine44.wav"
    write_raw_wav(path, x[:, None], sr_in, "pcm16")
    wave = load_wav(path)
    assert wave.size == 16000

    ref = np.interp(np.arange(16000) / 16000, t, x)
    peak = np.argmax(np.abs(np.fft.rfft(wave)))
    ref_peak = np.argmax(np.abs(np.fft.rfft(ref)))
    assert peak == ref_peak == round(440 * 16000 / 16000)


def test_resample_preserves_dc(tmp_path):
    path = tmp_path / "dc48.wav"
    write_raw_wav(path, np.full((5000, 1), 0.25), 48000, "float32")
    y = load_wav(path)
    assert np.abs(y[100:-100] - 0.25).max() < 1e-6


def test_resample_identity(tmp_path):
    x = np.linspace(-1, 1, 777).astype(np.float32).astype(np.float64)  # exact in the file
    path = tmp_path / "same16.wav"
    write_raw_wav(path, x[:, None], 16000, "float32")
    assert np.array_equal(load_wav(path), x)


def _resample(x, rate):
    """``x`` at ``rate`` resampled to ``SAMPLE_RATE`` the way load_wav does it."""
    if rate == SAMPLE_RATE:
        return x.copy()
    padded, samples = wavio._resample_buffer(x.size)
    samples[:] = x
    return wavio._resample_padded(padded, x.size, rate, SAMPLE_RATE)


def _resample_oracle(x, up, down):
    """Output n sits at input position n*down/up; its branch
    ``_polyphase_table(up, down)[(n*down) % up]`` puts tap j at offset
    ``j - (taps/2 - 1)`` input samples from that position's floor. Summed
    tap by tap, left to right, in Python floats."""
    table = _polyphase_table(up, down).tolist()
    taps = len(table[0])
    samples = x.tolist()
    out = []
    for n in range(len(samples) * up // down):
        coeffs = table[(n * down) % up]
        first = (n * down) // up - (taps // 2 - 1)
        acc = 0.0
        for j in range(taps):
            i = first + j
            if 0 <= i < len(samples):
                acc += coeffs[j] * samples[i]
        out.append(acc)
    return np.array(out, dtype=np.float64)


@pytest.mark.parametrize("rate", [8000, 11025, 22050, 32000, 44100, 48000, 96000])
def test_resample_matches_tap_by_tap_oracle(tmp_path, rate):
    g = np.gcd(rate, 16000)
    up, down = 16000 // g, rate // g
    rng = np.random.default_rng(rate)
    # empty, one sample, the longest input with fewer outputs than `up`
    # (down - 1 samples), and about 1 s with a partial last branch
    for n in sorted({0, 1, down - 1, rate + 7}):
        x = rng.uniform(-1.0, 1.0, n).astype(np.float32).astype(np.float64)  # exact in the file
        path = tmp_path / f"{n}.wav"
        write_raw_wav(path, x[:, None], rate, "float32")
        y = _resample(x, rate)
        assert y.dtype == np.float64
        assert y.size == (n * up) // down == probe_wav(path)
        assert np.abs(y - _resample_oracle(x, up, down)).max(initial=0.0) <= 1e-12
        assert _resample(x, rate).tobytes() == y.tobytes()
        # load_wav resamples the file's samples the same way, then clips
        assert load_wav(path).tobytes() == np.clip(y, -1.0, 1.0).tobytes()


def test_not_a_wav(tmp_path):
    path = tmp_path / "nope.wav"
    path.write_bytes(b"OggS" + b"\x00" * 64)
    with pytest.raises(UnsupportedFormat):
        load_wav(path)


def test_truncated_data_chunk(tmp_path):
    path = tmp_path / "trunc.wav"
    write_raw_wav(path, np.zeros((1000, 1)), 16000, "pcm16")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 500])  # cut into the data chunk
    with pytest.raises(CorruptFile):
        load_wav(path)


def add_stray_bytes(path, n):
    """Lengthen the data chunk, the last chunk of a WAV with a 16-byte fmt
    chunk, by ``n`` zero bytes, and both chunk sizes with it."""
    blob = bytearray(path.read_bytes() + bytes(n))
    struct.pack_into("<I", blob, 4, len(blob) - 8)
    struct.pack_into("<I", blob, 40, len(blob) - 44)
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("reader", [load_wav, probe_wav])
@pytest.mark.parametrize("fmt, n_channels, stray", [
    ("pcm16", 1, 1), ("pcm24", 1, 2), ("pcm24", 2, 3), ("float32", 2, 4),
])
def test_partial_frame_data_chunk_is_corrupt(tmp_path, reader, fmt, n_channels, stray):
    path = tmp_path / "partial.wav"
    write_raw_wav(path, np.zeros((100, n_channels)), 16000, fmt)
    add_stray_bytes(path, stray)
    with pytest.raises(CorruptFile, match="not a whole number of frames"):
        reader(path)


def test_unsupported_bit_depth(tmp_path):
    path = tmp_path / "u8.wav"
    body = bytes(100)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 16000, 1, 8))
        fh.write(b"data" + struct.pack("<I", len(body)) + body)
    with pytest.raises(UnsupportedFormat):
        load_wav(path)


def write_short_fmt_wav(path):
    """A WAV whose fmt chunk is 14 bytes, two short of the PCM minimum."""
    body = bytes(100)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 30 + len(body)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIH", 14, 1, 1, 16000, 32000, 2))
        fh.write(b"data" + struct.pack("<I", len(body)) + body)


@pytest.mark.parametrize("reader", [load_wav, probe_wav])
def test_short_fmt_chunk_is_corrupt(tmp_path, reader):
    path = tmp_path / "short_fmt.wav"
    write_short_fmt_wav(path)
    with pytest.raises(CorruptFile, match="fmt chunk too small"):
        reader(path)


def test_save_load_round_trip(tmp_path, rng):
    x = rng.uniform(-0.9, 0.9, 12345)
    path = tmp_path / "rt.wav"
    save_wav(path, x)
    back = load_wav(path)
    assert back.size == x.size
    assert np.abs(back - x).max() <= 0.5 / 32768 + 1e-9


def test_wav_bytes_parseable(rng):
    blob = wav_bytes(rng.uniform(-1, 1, 100))
    assert blob[:4] == b"RIFF" and blob[8:12] == b"WAVE"


def test_probe_matches_load(tmp_path):
    t = np.arange(22050) / 22050
    x = 0.1 * np.sin(2 * np.pi * 100 * t)
    path = tmp_path / "probe.wav"
    write_raw_wav(path, x[:, None], 22050, "pcm16")
    assert probe_wav(path) == load_wav(path).size


def _stereo_44k(path):
    t = np.arange(22050) / 44100
    x = 0.3 * np.sin(2 * np.pi * 330 * t)
    write_raw_wav(path, np.stack([x, 0.5 * x], axis=1), 44100, "pcm24")


def test_normalized_cache_matches_load_wav_bit_for_bit(tmp_path):
    path = tmp_path / "in.wav"
    _stereo_44k(path)
    cache = tmp_path / "cache"
    expect = load_wav(path)
    cold = load_normalized(path, cache, sha256_of(path))
    cached = cache / f"{sha256_of(path)}.npy"
    assert os.listdir(cache) == [cached.name]
    warm = load_normalized(path, cache, sha256_of(path))
    for samples in (cold, np.load(cached), warm):
        assert samples.dtype == np.float64 and samples.tobytes() == expect.tobytes()
    assert isinstance(warm.base, np.memmap)
    assert type(warm) is np.ndarray and warm.ndim == 1


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


@pytest.mark.parametrize("damage", [
    _truncate,
    lambda path: path.write_bytes(b""),
    lambda path: path.write_bytes(b"not an npy file"),
    lambda path: np.save(path, np.load(path).astype(np.float32)),
    lambda path: np.save(path, np.load(path).astype(">f8")),
    lambda path: np.save(path, np.load(path).reshape(-1, 2)),
], ids=["truncated", "empty", "not-npy", "float32", "big-endian", "2-d"])
def test_damaged_cache_file_is_rebuilt(tmp_path, damage):
    path = tmp_path / "in.wav"
    _stereo_44k(path)
    cache = tmp_path / "cache"
    load_normalized(path, cache, sha256_of(path))
    cached = cache / f"{sha256_of(path)}.npy"
    damage(cached)
    expect = load_wav(path).tobytes()
    assert load_normalized(path, cache, sha256_of(path)).tobytes() == expect
    assert np.load(cached).tobytes() == expect
    assert os.listdir(cache) == [cached.name]


def _wav_from_raw(raw: np.ndarray, tag: int, bits: int, rate: int = 16000) -> bytes:
    """WAV bytes holding ``raw`` (frames x channels), given in the file's own
    sample type (24-bit samples as int32 values)."""
    n_channels = raw.shape[1]
    if bits == 24:
        body = raw.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    else:
        body = raw.tobytes()
    block = n_channels * bits // 8
    return (
        b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, tag, n_channels, rate, rate * block, block, bits)
        + b"data" + struct.pack("<I", len(body)) + body
    )


def _raw_frames(fmt, n_channels, rng, n_frames=20000):
    """Random frames in ``fmt`` and their values as the loader scales them."""
    if fmt == "float32":
        # magnitudes over +-30 decades, each frame scaled so that its largest
        # magnitude is full scale and no mean is clipped; the first frames
        # are all -0.0, whose mean is 0.0
        x = rng.choice([-1.0, 1.0], (n_frames, n_channels)) * 10.0 ** rng.uniform(-30, 30, (n_frames, n_channels))
        x /= np.abs(x).max(axis=1, keepdims=True)
        x[rng.random(x.shape) < 0.05] = -0.0
        x[:100] = -0.0
        raw = x.astype("<f4")
        return raw, 3, 32, raw.astype(np.float64)
    bits = int(fmt[3:])
    raw = rng.integers(-(2 ** (bits - 1)), 2 ** (bits - 1), (n_frames, n_channels))
    raw = raw.astype("<i2" if bits == 16 else "<i4")
    return raw, 1, bits, raw.astype(np.float64) / float(2 ** (bits - 1))


@pytest.mark.parametrize("fmt, n_channels", [
    *((fmt, c) for fmt in ("pcm16", "pcm24", "pcm32") for c in range(1, 9)),
    *(("float32", c) for c in range(1, 8)),
])
def test_downmix_is_the_channel_mean_bit_for_bit(fmt, n_channels):
    rng = np.random.default_rng(n_channels)
    raw, tag, bits, values = _raw_frames(fmt, n_channels, rng)
    wave = load_wav("in-memory.wav", _wav_from_raw(raw, tag, bits))
    expect = np.clip(values.mean(axis=1), -1.0, 1.0)
    assert wave.tobytes() == expect.tobytes()


# each format's scaling as the division of a second float64 array
OUT_OF_PLACE = {
    "pcm16": lambda raw: raw.astype(np.float64) / 32768.0,
    "pcm24": lambda raw: raw.astype(np.float64) / 8388608.0,
    "pcm32": lambda raw: raw.astype(np.float64) / 2147483648.0,
    "float32": lambda raw: raw.astype(np.float64),
}


@pytest.mark.parametrize("fmt", sorted(OUT_OF_PLACE))
@pytest.mark.parametrize("n_channels", [1, 2])
def test_decode_equals_out_of_place_scaling_bit_for_bit(fmt, n_channels):
    rng = np.random.default_rng(7 + n_channels)
    raw, tag, bits, _ = _raw_frames(fmt, n_channels, rng)
    if fmt != "float32":  # both ends of the integer range
        raw[0], raw[1] = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    body = _wav_from_raw(raw, tag, bits)[44:]  # the data chunk's samples
    frames = wavio._decode_samples(body, tag, bits, n_channels)
    assert frames.shape == (raw.shape[0], n_channels)
    assert frames.tobytes() == OUT_OF_PLACE[fmt](raw).tobytes()


def whole_array_load(data: bytes) -> np.ndarray:
    """load_wav with the whole data chunk decoded at once: the tiles' reference."""
    chunks = wavio._parse_chunks(data)
    fmt, n_channels, rate, bits, _ = wavio._wav_format(chunks)
    frames = wavio._decode_samples(chunks[b"data"], fmt, bits, n_channels)
    mono = 0.0 + frames[:, 0]
    for channel in range(1, n_channels):
        mono += frames[:, channel]
    mono /= n_channels
    return np.clip(_resample(mono, rate), -1.0, 1.0)


def extensible(data: bytes, fmt_size: int = 40) -> bytes:
    """The bytes of a WAV with a 16-byte fmt chunk, the first chunk, written
    with a ``WAVE_FORMAT_EXTENSIBLE`` fmt chunk cut to ``fmt_size`` bytes
    instead (40 is the whole chunk): the SubFormat GUID at byte 24 leads
    with the plain format tag."""
    tag, n_channels, rate, byte_rate, block, bits = struct.unpack_from("<HHIIHH", data, 20)
    guid = struct.pack("<H", tag) + bytes.fromhex("000000001000800000aa00389b71")
    mask = (1 << n_channels) - 1  # the first n_channels speaker positions
    body = struct.pack("<HHIIHHHHI", 0xFFFE, n_channels, rate, byte_rate, block, bits,
                       22, bits, mask) + guid
    body = body[:fmt_size] + bytes(fmt_size & 1)  # chunks are word-aligned
    rest = b"WAVE" + b"fmt " + struct.pack("<I", fmt_size) + body + data[36:]
    return b"RIFF" + struct.pack("<I", len(rest)) + rest


def test_extensible_24_bit_stereo_decodes_as_plain_pcm():
    raw, tag, bits, _ = _raw_frames("pcm24", 2, np.random.default_rng(24), 5000)
    for rate in (16000, 44100):
        plain = _wav_from_raw(raw, tag, bits, rate)
        wave = load_wav("extensible.wav", extensible(plain))
        assert wave.size > 0 and wave.tobytes() == load_wav("plain.wav", plain).tobytes()


@pytest.mark.parametrize("rate", [2**31 - 1, 2**32 - 5])
def test_a_header_rate_sizes_no_allocation(rate):
    """16,000 frames at a rate that gives no sample at 16 kHz: the resampler
    holds the samples and the filter's margins, whatever the rate."""
    data = bytearray(_wav_from_raw(np.zeros((16000, 1), "<i2"), 1, 16))
    struct.pack_into("<I", data, 24, rate)
    data = bytes(data)
    tracemalloc.start()
    try:
        wave = load_wav("huge-rate.wav", data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert wave.size == 0
    assert peak < 8 * 16000 * 8  # eight float64 copies of the samples


def test_1_khz_is_the_lowest_rate_read():
    frames = np.zeros((100, 1), "<i2")
    assert load_wav("1k.wav", _wav_from_raw(frames, 1, 16, rate=1000)).size == 1600
    slow = _wav_from_raw(frames, 1, 16, rate=999)
    with pytest.raises(UnsupportedFormat, match="sample rate 999 Hz is below 1000 Hz"):
        load_wav("slow.wav", slow)
    with pytest.raises(UnsupportedFormat, match="sample rate 999 Hz is below 1000 Hz"):
        wavio.normalized_length(slow)  # what ingest reads


def test_the_polyphase_table_cache_holds_at_most_four_tables(tmp_path):
    """Five rates of five filter tables: the cache keeps four, and a rate
    whose table was evicted reads the same samples from a rebuilt one."""
    rates = [17000, 19000, 21000, 23000, 27000]
    x = np.sin(np.arange(2000) * 0.05)[:, None] * 0.5
    for rate in rates:
        write_raw_wav(tmp_path / f"{rate}.wav", x, rate, "float32")
    wavio._polyphase_table.cache_clear()
    first = {rate: load_wav(tmp_path / f"{rate}.wav").tobytes() for rate in rates}
    assert wavio._polyphase_table.cache_info().currsize <= 4
    for rate in rates:  # the first rate's table was evicted
        assert load_wav(tmp_path / f"{rate}.wav").tobytes() == first[rate]
    assert wavio._polyphase_table.cache_info().currsize <= 4


@pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "pcm32", "float32"])
@pytest.mark.parametrize("n_channels", [1, 2, 6])
def test_tiled_decode_equals_the_whole_array_decode_bitwise(fmt, n_channels):
    rng = np.random.default_rng(n_channels)
    tile = wavio.DECODE_TILE_FRAMES
    for n_frames in (0, 1, tile - 1, tile, tile + 1, 2 * tile + 3):
        raw, tag, bits, _ = _raw_frames(fmt, n_channels, rng, n_frames)
        for rate in (16000, 44100):
            data = _wav_from_raw(raw, tag, bits, rate)
            assert load_wav("in-memory.wav", data).tobytes() == whole_array_load(data).tobytes()


def test_load_wav_holds_less_than_a_whole_interleaved_copy():
    n_frames, n_channels = 60 * 44100, 2
    raw = np.random.default_rng(3).integers(-20000, 20000, (n_frames, n_channels)).astype("<i2")
    data = _wav_from_raw(raw, 1, 16, 44100)
    del raw
    tracemalloc.start()
    try:
        load_wav("in-memory.wav", data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_frames * n_channels * 8  # the file's samples as one float64 array


def _mel_setup(tmp_path):
    path = tmp_path / "in.wav"
    _stereo_44k(path)
    return path, tmp_path / wavio.MEL_CACHE, sha256_of(path)


def test_mel_cache_hit_equals_a_fresh_mel_bit_for_bit(tmp_path):
    path, mels, digest = _mel_setup(tmp_path)
    expect = mel_spectrogram(load_wav(path))
    decoded = []

    def decode():
        decoded.append(path)
        return load_wav(path)

    cold = load_mel(mels, digest, decode)
    warm = load_mel(mels, digest, decode)
    assert decoded == [path]  # the hit decodes nothing
    assert os.listdir(mels) == [f"{digest}.npy"]
    for frames in (cold, np.load(mels / f"{digest}.npy"), warm):
        assert frames.dtype == np.float64 and frames.shape == expect.shape
        assert frames.tobytes() == expect.tobytes()
    assert type(warm) is np.ndarray and isinstance(warm.base, np.memmap)
    assert expect.shape[1] == N_MELS


@pytest.mark.parametrize("damage", [
    _truncate,
    lambda path: path.write_bytes(b"not an npy file"),
    lambda path: np.save(path, np.load(path).astype(np.float32)),
    lambda path: np.save(path, np.load(path).ravel()),
    lambda path: np.save(path, np.load(path)[:, :64]),
], ids=["truncated", "not-npy", "float32", "1-d", "64-columns"])
def test_damaged_mel_cache_file_is_rebuilt(tmp_path, damage):
    path, mels, digest = _mel_setup(tmp_path)
    load_mel(mels, digest, lambda: load_wav(path))
    cached = mels / f"{digest}.npy"
    damage(cached)
    expect = mel_spectrogram(load_wav(path)).tobytes()
    assert load_mel(mels, digest, lambda: load_wav(path)).tobytes() == expect
    assert np.load(cached).tobytes() == expect
    assert os.listdir(mels) == [cached.name]


def test_mel_cache_name_follows_mel_code_and_sample_cache():
    # built from both versions, so bumping MEL_VERSION or renaming the sample
    # cache renames it; "mel-" keeps it under .gitignore's /mel-*/
    assert wavio.MEL_CACHE == f"mel-v{wavio.MEL_VERSION}-{wavio.NORMALIZED_CACHE}"
    gitignore = os.path.join(os.path.dirname(__file__), "..", ".gitignore")
    with open(gitignore, encoding="utf-8") as fh:
        assert "/mel-*/" in fh.read().split("\n")
