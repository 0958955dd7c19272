import os
import struct

import numpy as np
import pytest

from beatmix import wavio
from beatmix.dsp import SignalConfig, Waveform, mel_spectrogram
from beatmix.errors import CorruptFile, UnsupportedFormat
from beatmix.manifest import content_hash
from beatmix.wavio import (
    _polyphase_table,
    load_mel,
    load_normalized,
    load_wav,
    mel_cache_name,
    probe_wav,
    resample,
    save_wav,
    wav_bytes,
)


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
    assert wave.sample_rate == 16000
    assert np.abs(wave.samples).max() < 1e-7


def test_pcm16_scale(tmp_path):
    ints = np.array([-32768, -1, 0, 1, 16384, 32767], dtype="<i2")
    path = tmp_path / "scale.wav"
    with open(path, "wb") as fh:
        body = ints.tobytes()
        fh.write(b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16))
        fh.write(b"data" + struct.pack("<I", len(body)) + body)
    wave = load_wav(path)
    assert np.allclose(wave.samples, ints.astype(float) / 32768.0)
    assert wave.samples.size == 6


@pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "pcm32", "float32"])
def test_formats_round_trip_values(tmp_path, fmt):
    t = np.arange(16000) / 16000
    x = 0.4 * np.sin(2 * np.pi * 220 * t)
    path = tmp_path / f"{fmt}.wav"
    write_raw_wav(path, x[:, None], 16000, fmt)
    wave = load_wav(path)
    assert wave.samples.size == 16000
    assert np.abs(wave.samples - x).max() < 1e-3


def test_resample_sine_peak_matches_reference(tmp_path):
    # independent reference: linear-interpolation resampler
    sr_in = 44100
    t = np.arange(sr_in) / sr_in
    x = np.sin(2 * np.pi * 440 * t)
    path = tmp_path / "sine44.wav"
    write_raw_wav(path, x[:, None], sr_in, "pcm16")
    wave = load_wav(path)
    assert wave.samples.size == 16000

    ref = np.interp(np.arange(16000) / 16000, t, x)
    peak = np.argmax(np.abs(np.fft.rfft(wave.samples)))
    ref_peak = np.argmax(np.abs(np.fft.rfft(ref)))
    assert peak == ref_peak == round(440 * 16000 / 16000)


def test_resample_preserves_dc():
    x = np.full(5000, 0.25)
    y = resample(x, 48000, 16000)
    assert np.abs(y[100:-100] - 0.25).max() < 1e-6


def test_resample_identity():
    x = np.linspace(-1, 1, 777)
    assert np.array_equal(resample(x, 16000, 16000), x)


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
        x = rng.uniform(-1.0, 1.0, n)
        path = tmp_path / f"{n}.wav"
        write_raw_wav(path, x[:, None], rate, "float32")
        y = resample(x, rate, 16000)
        assert y.dtype == np.float64
        assert y.size == (n * up) // down == probe_wav(path)[0]
        assert np.abs(y - _resample_oracle(x, up, down)).max(initial=0.0) <= 1e-12
        assert resample(x, rate, 16000).tobytes() == y.tobytes()


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
    save_wav(path, Waveform(x, 16000))
    back = load_wav(path)
    assert back.samples.size == x.size
    assert np.abs(back.samples - x).max() <= 0.5 / 32768 + 1e-9


def test_wav_bytes_parseable(rng):
    blob = wav_bytes(Waveform(rng.uniform(-1, 1, 100), 16000))
    assert blob[:4] == b"RIFF" and blob[8:12] == b"WAVE"


def test_probe_matches_load(tmp_path):
    t = np.arange(22050) / 22050
    x = 0.1 * np.sin(2 * np.pi * 100 * t)
    path = tmp_path / "probe.wav"
    write_raw_wav(path, x[:, None], 22050, "pcm16")
    assert probe_wav(path) == (load_wav(path).samples.size, content_hash(path), path.read_bytes())


def _stereo_44k(path):
    t = np.arange(22050) / 44100
    x = 0.3 * np.sin(2 * np.pi * 330 * t)
    write_raw_wav(path, np.stack([x, 0.5 * x], axis=1), 44100, "pcm24")


def test_normalized_cache_matches_load_wav_bit_for_bit(tmp_path):
    path = tmp_path / "in.wav"
    _stereo_44k(path)
    cache = tmp_path / "cache"
    expect = load_wav(path).samples
    cold = load_normalized(path, cache, content_hash(path))
    cached = cache / f"{content_hash(path)}.npy"
    assert os.listdir(cache) == [cached.name]
    warm = load_normalized(path, cache, content_hash(path))
    for samples in (cold.samples, np.load(cached), warm.samples):
        assert samples.dtype == np.float64 and samples.tobytes() == expect.tobytes()
    assert isinstance(warm.samples.base, np.memmap)
    assert warm.sample_rate == 16000


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
    load_normalized(path, cache, content_hash(path))
    cached = cache / f"{content_hash(path)}.npy"
    damage(cached)
    expect = load_wav(path).samples.tobytes()
    assert load_normalized(path, cache, content_hash(path)).samples.tobytes() == expect
    assert np.load(cached).tobytes() == expect
    assert os.listdir(cache) == [cached.name]


def _wav_from_raw(raw: np.ndarray, tag: int, bits: int) -> bytes:
    """16 kHz WAV bytes holding ``raw`` (frames x channels), given in the
    file's own sample type (24-bit samples as int32 values)."""
    n_channels = raw.shape[1]
    if bits == 24:
        body = raw.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    else:
        body = raw.tobytes()
    block = n_channels * bits // 8
    return (
        b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, tag, n_channels, 16000, 16000 * block, block, bits)
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
    assert wave.samples.tobytes() == expect.tobytes()


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


def _mel_setup(tmp_path, config=SignalConfig()):
    path = tmp_path / "in.wav"
    _stereo_44k(path)
    return path, tmp_path / mel_cache_name(config), content_hash(path)


def test_mel_cache_hit_equals_a_fresh_mel_bit_for_bit(tmp_path):
    config = SignalConfig()
    path, mels, digest = _mel_setup(tmp_path, config)
    expect = mel_spectrogram(load_wav(path), config).frames
    decoded = []

    def decode():
        decoded.append(path)
        return load_wav(path)

    cold = load_mel(mels, digest, config, decode)
    warm = load_mel(mels, digest, config, decode)
    assert decoded == [path]  # the hit decodes nothing
    assert os.listdir(mels) == [f"{digest}.npy"]
    for frames in (cold.frames, np.load(mels / f"{digest}.npy"), warm.frames):
        assert frames.dtype == np.float64 and frames.shape == expect.shape
        assert frames.tobytes() == expect.tobytes()
    assert isinstance(warm.frames.base, np.memmap)
    assert warm.config == config


@pytest.mark.parametrize("damage", [
    _truncate,
    lambda path: path.write_bytes(b"not an npy file"),
    lambda path: np.save(path, np.load(path).astype(np.float32)),
    lambda path: np.save(path, np.load(path).ravel()),
    lambda path: np.save(path, np.load(path)[:, :64]),
], ids=["truncated", "not-npy", "float32", "1-d", "64-columns"])
def test_damaged_mel_cache_file_is_rebuilt(tmp_path, damage):
    config = SignalConfig()
    path, mels, digest = _mel_setup(tmp_path, config)
    load_mel(mels, digest, config, lambda: load_wav(path))
    cached = mels / f"{digest}.npy"
    damage(cached)
    expect = mel_spectrogram(load_wav(path), config).frames.tobytes()
    assert load_mel(mels, digest, config, lambda: load_wav(path)).frames.tobytes() == expect
    assert np.load(cached).tobytes() == expect
    assert os.listdir(mels) == [cached.name]


def test_mel_cache_name_follows_settings_mel_code_and_sample_cache(monkeypatch):
    default = mel_cache_name(SignalConfig())
    assert default.startswith("mel-") and default == mel_cache_name(SignalConfig())
    others = {mel_cache_name(SignalConfig(n_mels=64)), mel_cache_name(SignalConfig(hop=80)),
              mel_cache_name(SignalConfig(log_floor=-60.0))}
    assert len(others) == 3 and default not in others
    monkeypatch.setattr(wavio, "MEL_VERSION", wavio.MEL_VERSION + 1)
    assert mel_cache_name(SignalConfig()) != default
    monkeypatch.undo()
    monkeypatch.setattr(wavio, "NORMALIZED_CACHE", "audio-16k-other")
    assert mel_cache_name(SignalConfig()) != default
