import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatmix.dsp import (
    MelSpectrogram,
    SignalConfig,
    Waveform,
    _hann,
    _overlap_add,
    _stft,
    _window_sum,
    invert_mel,
    mel_band_edges,
    mel_spectrogram,
)
from beatmix.errors import RateMismatch, TooShort
from synth import sine


def test_shape_contract_10s24_clip(config):
    wave = Waveform(sine(440, 10.24), 16000)
    mel = mel_spectrogram(wave, config)
    assert mel.frames.shape == (1024, 128)


def test_silence_is_all_floor(config):
    mel = mel_spectrogram(Waveform(np.zeros(32000), 16000), config)
    assert np.all(mel.frames == config.log_floor)


def test_sine_lands_in_nearest_mel_bin(config):
    # oracle: band centers computed straight from the mel-scale formula
    centers = mel_band_edges(config)[1:-1]
    for freq in (440.0, 1000.0, 3000.0):
        mel = mel_spectrogram(Waveform(sine(freq, 2.0), 16000), config)
        got = int(np.argmax(mel.frames.mean(axis=0)))
        want = int(np.argmin(np.abs(centers - freq)))
        assert got == want


def test_determinism(config, rng):
    x = rng.normal(0, 0.1, 48000)
    a = mel_spectrogram(Waveform(x, 16000), config)
    b = mel_spectrogram(Waveform(x.copy(), 16000), config)
    assert np.array_equal(a.frames, b.frames)


def test_scaling_shifts_unclamped_entries(config):
    x = sine(440, 2.0, amp=0.8)
    base = mel_spectrogram(Waveform(x, 16000), config)
    scaled = mel_spectrogram(Waveform(0.25 * x, 16000), config)
    mask = (base.frames > config.log_floor + 1.0) & (scaled.frames > config.log_floor + 1.0)
    shift = scaled.frames[mask] - base.frames[mask]
    assert np.abs(shift - 20 * np.log10(0.25)).max() < 1e-6


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1024, max_value=60000))
def test_frame_count_formula(n):
    config = SignalConfig()
    mel = mel_spectrogram(Waveform(np.zeros(n), 16000), config)
    assert mel.n_frames == 1 + (n - 1) // config.hop == config.frame_count(n)


def test_too_short_raises(config):
    with pytest.raises(TooShort):
        mel_spectrogram(Waveform(np.zeros(config.window - 1), 16000), config)


def test_rate_mismatch_raises(config):
    with pytest.raises(RateMismatch):
        mel_spectrogram(Waveform(np.zeros(20000), 22050), config)


def test_invert_round_trip_on_sine(config):
    mel = mel_spectrogram(Waveform(sine(440, 3.0), 16000), config)
    rec = invert_mel(mel, 32)
    back = mel_spectrogram(rec, config)
    err = np.linalg.norm(back.frames - mel.frames) / np.linalg.norm(mel.frames)
    assert err < 0.1


def test_invert_all_floor_is_near_silent(config):
    mel = MelSpectrogram(np.full((200, 128), config.log_floor), config)
    rec = invert_mel(mel, 4)
    assert np.abs(rec.samples).max() < 1e-3


def test_invert_error_non_increasing(config):
    mel = mel_spectrogram(Waveform(sine(440, 2.0), 16000), config)
    errors = []
    invert_mel(mel, 32, callback=lambda it, err: errors.append(err))
    assert len(errors) == 32
    diffs = np.diff(errors)
    assert np.all(diffs <= 1e-12)


def test_invert_output_length(config):
    mel = mel_spectrogram(Waveform(sine(440, 10.24), 16000), config)
    rec = invert_mel(mel, 1)
    assert rec.samples.size == mel.n_frames * config.hop == 163840


def test_invert_validates_iterations(config):
    mel = mel_spectrogram(Waveform(sine(440, 1.0), 16000), config)
    with pytest.raises(ValueError):
        invert_mel(mel, 0)


# --- framing and overlap-add oracles: each step against a plain per-frame loop

WIDE = SignalConfig(sample_rate=22050, hop=256, window=1500, fft_size=2048, n_mels=80, fmax=11025.0)


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
