import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatmix import codec as C
from beatmix import mixup as M
from beatmix.dsp import (
    MelSpectrogram,
    SignalConfig,
    _filterbank_pinv,
    _hann,
    _istft,
    _overlap_add,
    _stft,
    _window_sum,
    invert_mel,
    mel_band_edges,
    mel_spectrogram,
)
from beatmix.errors import TooShort
from synth import click_track, sine


def test_shape_contract_10s24_clip(config):
    wave = sine(440, 10.24)
    mel = mel_spectrogram(wave, config)
    assert mel.frames.shape == (1024, 128)


def test_silence_is_all_floor(config):
    mel = mel_spectrogram(np.zeros(32000), config)
    assert np.all(mel.frames == config.log_floor)


def test_sine_lands_in_nearest_mel_bin(config):
    # oracle: band centers computed straight from the mel-scale formula
    centers = mel_band_edges(config)[1:-1]
    for freq in (440.0, 1000.0, 3000.0):
        mel = mel_spectrogram(sine(freq, 2.0), config)
        got = int(np.argmax(mel.frames.mean(axis=0)))
        want = int(np.argmin(np.abs(centers - freq)))
        assert got == want


def test_determinism(config, rng):
    x = rng.normal(0, 0.1, 48000)
    a = mel_spectrogram(x, config)
    b = mel_spectrogram(x.copy(), config)
    assert np.array_equal(a.frames, b.frames)


def test_scaling_shifts_unclamped_entries(config):
    x = sine(440, 2.0, amp=0.8)
    base = mel_spectrogram(x, config)
    scaled = mel_spectrogram(0.25 * x, config)
    mask = (base.frames > config.log_floor + 1.0) & (scaled.frames > config.log_floor + 1.0)
    shift = scaled.frames[mask] - base.frames[mask]
    assert np.abs(shift - 20 * np.log10(0.25)).max() < 1e-6


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1024, max_value=60000))
def test_frame_count_formula(n):
    config = SignalConfig()
    mel = mel_spectrogram(np.zeros(n), config)
    assert mel.n_frames == 1 + (n - 1) // config.hop == config.frame_count(n)


def test_too_short_raises(config):
    with pytest.raises(TooShort):
        mel_spectrogram(np.zeros(config.window - 1), config)


def test_invert_round_trip_on_sine(config):
    mel = mel_spectrogram(sine(440, 3.0), config)
    rec = invert_mel(mel, 32)
    back = mel_spectrogram(rec, config)
    err = np.linalg.norm(back.frames - mel.frames) / np.linalg.norm(mel.frames)
    assert err < 0.1


def test_invert_all_floor_is_near_silent(config):
    mel = MelSpectrogram(np.full((200, 128), config.log_floor), config)
    rec = invert_mel(mel, 4)
    assert np.abs(rec).max() < 1e-3


def test_invert_error_non_increasing(config):
    mel = mel_spectrogram(sine(440, 2.0), config)
    errors = []
    invert_mel(mel, 32, callback=lambda it, err: errors.append(err))
    assert len(errors) == 32
    diffs = np.diff(errors)
    assert np.all(diffs <= 1e-12)


def test_invert_output_length(config):
    mel = mel_spectrogram(sine(440, 10.24), config)
    rec = invert_mel(mel, 1)
    assert rec.size == mel.n_frames * config.hop == 163840


def test_invert_validates_iterations(config):
    mel = mel_spectrogram(sine(440, 1.0), config)
    with pytest.raises(ValueError):
        invert_mel(mel, 0)


# --- Fast Griffin-Lim against plain Griffin-Lim ------------------------------

def plain_griffin_lim_errors(mel, iterations):
    """The consistency error of each iteration of plain Griffin-Lim from zero
    phase: the reference the default iteration count must match."""
    config = mel.config
    target = np.maximum(10.0 ** (mel.frames / 20.0) @ _filterbank_pinv(config).T, 0.0)
    n_frames = target.shape[0]
    window_sum = _window_sum(n_frames, config)
    angles = np.ones_like(target, dtype=np.complex128)
    errors = []
    for _ in range(iterations):
        spec = _stft(_istft(target * angles, config, window_sum), n_frames, config)
        errors.append(np.linalg.norm(np.abs(spec) - target) / np.linalg.norm(target))
        angles = spec / np.maximum(np.abs(spec), 1e-16)
    return errors


def blm_clip_mel(config):
    """A 10.24 s blm mix at lambda 0.5 of two click-plus-tone tracks 2 BPM
    apart, through the patch-PCA codec fitted on the pair."""
    seconds = 10.24
    mels = []
    for bpm, tone_hz, seed in ((120, 220.0, 0), (122, 330.0, 1)):
        clicks, _ = click_track(bpm, seconds, bass_phase=0, seed=seed)
        wave = np.clip(clicks + sine(tone_hz, seconds, amp=0.2), -1.0, 1.0)
        mels.append(mel_spectrogram(wave, config))
    codec = C.fit(mels, n_components=16, patch_size=8)
    mixed = M.blm_mix(C.encode(codec, mels[0]), C.encode(codec, mels[1]), 0.5)
    return C.decode(codec, mixed, config)


@pytest.mark.parametrize("sine_s", [2.0, 3.0, None], ids=["sine-2s", "sine-3s", "blm-clip"])
def test_default_iterations_match_plain_griffin_lim_at_32(config, sine_s):
    if sine_s is None:
        mel = blm_clip_mel(config)
    else:
        mel = mel_spectrogram(sine(440, sine_s), config)
    errors = []
    invert_mel(mel, callback=lambda it, err: errors.append(err))
    assert errors[-1] <= plain_griffin_lim_errors(mel, 32)[-1]


@pytest.mark.parametrize("iterations", [1, 3])
def test_invert_fft_count(config, monkeypatch, iterations):
    counts = {"rfft": 0, "irfft": 0}

    def counted(name):
        fn = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    mel = mel_spectrogram(sine(440, 1.0), config)
    for name in counts:
        monkeypatch.setattr(np.fft, name, counted(name))
    invert_mel(mel, iterations)
    assert counts == {"rfft": iterations, "irfft": iterations + 1}


# --- framing and overlap-add oracles: each step against a plain per-frame loop

WIDE = SignalConfig(hop=256, window=1500, fft_size=2048, n_mels=80, fmax=8000.0)


@pytest.mark.parametrize("config", [SignalConfig(), WIDE], ids=["default", "wide"])
def test_stft_equals_per_frame_rfft(config, rng):
    n_frames = 37
    padded = rng.normal(size=(n_frames - 1) * config.hop + config.window + 5)
    win = _hann(config.window)
    want = np.array([
        np.fft.rfft(padded[k * config.hop : k * config.hop + config.window] * win, n=config.fft_size)
        for k in range(n_frames)
    ])
    got = _stft(padded, n_frames, config)
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("config", [SignalConfig(), WIDE], ids=["default", "wide"])
def test_overlap_add_and_window_sum_equal_plain_loops(config, rng):
    n_frames = 23
    frames = rng.normal(size=(n_frames, config.window))
    size = (n_frames - 1) * config.hop + config.window
    want = np.zeros(size)
    norm = np.zeros(size)
    win_sq = _hann(config.window) ** 2
    for k in range(n_frames):
        want[k * config.hop : k * config.hop + config.window] += frames[k]
        norm[k * config.hop : k * config.hop + config.window] += win_sq
    assert np.array_equal(_overlap_add(frames, config), want)
    assert np.array_equal(_window_sum(n_frames, config), np.maximum(norm, 1e-10))


def plain_invert_mel(mel, iterations, callback):
    """``invert_mel`` written out with a new array for every step and a loop
    over the frames for each overlap-add: the arithmetic the in-place loop
    must reproduce bit for bit."""
    config = mel.config
    win = _hann(config.window)
    target = np.maximum(10.0 ** (mel.frames / 20.0) @ _filterbank_pinv(config).T, 0.0)
    target_norm = np.linalg.norm(target)
    n_frames = target.shape[0]
    size = (n_frames - 1) * config.hop + config.window

    def overlap_add(frames):
        out = np.zeros(size)
        for k, frame in enumerate(frames):
            out[k * config.hop : k * config.hop + config.window] += frame
        return out

    window_sum = np.maximum(overlap_add(np.broadcast_to(win * win, (n_frames, config.window))), 1e-10)

    def istft(spec):
        frames = np.fft.irfft(spec, n=config.fft_size, axis=1)[:, : config.window] * win
        return overlap_add(frames) / window_sum

    def stft(padded):
        view = np.lib.stride_tricks.sliding_window_view(padded, config.window)
        frames = view[: (n_frames - 1) * config.hop + 1 : config.hop] * win
        return np.fft.rfft(frames, n=config.fft_size, axis=1)

    coeffs = target.astype(np.complex128)
    prev = None
    for it in range(iterations):
        spec = stft(istft(coeffs))
        mag = np.abs(spec)
        callback(it, np.linalg.norm(mag - target) / max(target_norm, 1e-16))
        proj = spec * (target / np.maximum(mag, 1e-16))
        coeffs = proj if prev is None else proj + 0.9 * (proj - prev)
        prev = proj
    y = istft(prev)
    pad = config.window // 2
    return np.clip(y[pad : pad + n_frames * config.hop], -1.0, 1.0)


@pytest.mark.parametrize("iterations", [1, 2, 14])
@pytest.mark.parametrize("config", [SignalConfig(), WIDE], ids=["default", "wide"])
def test_invert_mel_equals_the_plain_loop_bitwise(config, iterations):
    clicks, _ = click_track(120, 2.0, bass_phase=0, seed=3)
    mel = mel_spectrogram(np.clip(clicks + sine(330.0, 2.0, amp=0.2), -1.0, 1.0), config)
    errors, plain_errors = [], []
    got = invert_mel(mel, iterations, callback=lambda it, err: errors.append((it, err)))
    want = plain_invert_mel(mel, iterations, lambda it, err: plain_errors.append((it, err)))
    assert got.tobytes() == want.tobytes()
    assert errors == plain_errors and len(errors) == iterations
