import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatmix import codec as C
from beatmix import dsp
from beatmix import mixup as M
from beatmix.dsp import (
    AMP_FLOOR,
    FFT_SIZE,
    HOP,
    LOG_FLOOR,
    N_MELS,
    SAMPLE_RATE,
    TILE_FRAMES,
    WINDOW,
    _filterbank_pinv,
    _filterbank_product,
    _hann,
    _istft,
    _overlap_add,
    _stft,
    _window_sum,
    frame_count,
    invert_mel,
    mel_band_edges,
    mel_spectrogram,
)
from beatmix.errors import TooShort
from synth import click_track, sine


def test_shape_contract_10s24_clip():
    wave = sine(440, 10.24)
    mel = mel_spectrogram(wave)
    assert mel.shape == (1024, 128) and mel.dtype == np.float64


def test_silence_is_all_floor():
    mel = mel_spectrogram(np.zeros(32000))
    assert np.all(mel == LOG_FLOOR)


def test_sine_lands_in_nearest_mel_bin():
    # oracle: band centers computed straight from the mel-scale formula
    centers = mel_band_edges()[1:-1]
    for freq in (440.0, 1000.0, 3000.0):
        mel = mel_spectrogram(sine(freq, 2.0))
        got = int(np.argmax(mel.mean(axis=0)))
        want = int(np.argmin(np.abs(centers - freq)))
        assert got == want


def test_determinism(rng):
    x = rng.normal(0, 0.1, 48000)
    a = mel_spectrogram(x)
    b = mel_spectrogram(x.copy())
    assert np.array_equal(a, b)


def test_scaling_shifts_unclamped_entries():
    x = sine(440, 2.0, amp=0.8)
    base = mel_spectrogram(x)
    scaled = mel_spectrogram(0.25 * x)
    mask = (base > LOG_FLOOR + 1.0) & (scaled > LOG_FLOOR + 1.0)
    shift = scaled[mask] - base[mask]
    assert np.abs(shift - 20 * np.log10(0.25)).max() < 1e-6


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1024, max_value=60000))
def test_frame_count_formula(n):
    mel = mel_spectrogram(np.zeros(n))
    assert mel.shape == (1 + (n - 1) // HOP, N_MELS) and mel.shape[0] == frame_count(n)


def test_too_short_raises():
    with pytest.raises(TooShort):
        mel_spectrogram(np.zeros(WINDOW - 1))


def test_invert_round_trip_on_sine():
    mel = mel_spectrogram(sine(440, 3.0))
    rec = invert_mel(mel, 32)
    back = mel_spectrogram(rec)
    err = np.linalg.norm(back - mel) / np.linalg.norm(mel)
    assert err < 0.1


def test_invert_all_floor_is_near_silent():
    mel = np.full((200, 128), LOG_FLOOR)
    rec = invert_mel(mel, 4)
    assert np.abs(rec).max() < 1e-3


def test_invert_error_non_increasing():
    mel = mel_spectrogram(sine(440, 2.0))
    errors = []
    invert_mel(mel, 32, callback=lambda it, err: errors.append(err))
    assert len(errors) == 32
    diffs = np.diff(errors)
    assert np.all(diffs <= 1e-12)


def test_invert_output_length():
    mel = mel_spectrogram(sine(440, 10.24))
    rec = invert_mel(mel, 1)
    assert rec.size == mel.shape[0] * HOP == 163840


def test_invert_validates_iterations():
    mel = mel_spectrogram(sine(440, 1.0))
    with pytest.raises(ValueError):
        invert_mel(mel, 0)


# --- Fast Griffin-Lim against plain Griffin-Lim ------------------------------

def plain_griffin_lim_errors(mel, iterations):
    """The consistency error of each iteration of plain Griffin-Lim from zero
    phase: the reference the default iteration count must match."""
    target = np.maximum(10.0 ** (mel / 20.0) @ _filterbank_pinv().T, 0.0)
    n_frames = target.shape[0]
    window_sum = _window_sum(n_frames)
    angles = np.ones_like(target, dtype=np.complex128)
    errors = []
    for _ in range(iterations):
        spec = _stft(_istft(target * angles, window_sum), n_frames)
        errors.append(np.linalg.norm(np.abs(spec) - target) / np.linalg.norm(target))
        angles = spec / np.maximum(np.abs(spec), 1e-16)
    return errors


def blm_clip_mel():
    """A 10.24 s blm mix at lambda 0.5 of two click-plus-tone tracks 2 BPM
    apart, through the patch-PCA codec fitted on the pair."""
    seconds = 10.24
    mels = []
    for bpm, tone_hz, seed in ((120, 220.0, 0), (122, 330.0, 1)):
        clicks, _ = click_track(bpm, seconds, bass_phase=0, seed=seed)
        wave = np.clip(clicks + sine(tone_hz, seconds, amp=0.2), -1.0, 1.0)
        mels.append(mel_spectrogram(wave))
    codec = C.fit(mels, n_components=16, patch_size=8)
    mixed = M.blm_mix(C.encode(codec, mels[0]), C.encode(codec, mels[1]), 0.5)
    return C.decode(codec, mixed)


@pytest.mark.parametrize("sine_s", [2.0, 3.0, None], ids=["sine-2s", "sine-3s", "blm-clip"])
def test_default_iterations_match_plain_griffin_lim_at_32(sine_s):
    if sine_s is None:
        mel = blm_clip_mel()
    else:
        mel = mel_spectrogram(sine(440, sine_s))
    errors = []
    invert_mel(mel, callback=lambda it, err: errors.append(err))
    assert errors[-1] <= plain_griffin_lim_errors(mel, 32)[-1]


@pytest.mark.parametrize("iterations", [1, 3])
def test_invert_fft_count(monkeypatch, iterations):
    """Rows transformed, not calls: the transforms run a tile at a time."""
    rows = {"rfft": 0, "irfft": 0}

    def counted(name):
        fn = getattr(np.fft, name)

        def wrapper(a, *args, **kwargs):
            rows[name] += a.shape[0]
            return fn(a, *args, **kwargs)

        return wrapper

    mel = mel_spectrogram(sine(440, 3.0))
    assert mel.shape[0] > 2 * TILE_FRAMES
    for name in rows:
        monkeypatch.setattr(np.fft, name, counted(name))
    invert_mel(mel, iterations)
    n_frames = mel.shape[0]
    assert rows == {"rfft": iterations * n_frames, "irfft": (iterations + 1) * n_frames}


# --- framing and overlap-add oracles: each step against a plain per-frame loop

def test_stft_equals_per_frame_rfft(rng):
    n_frames = 37
    padded = rng.normal(size=(n_frames - 1) * HOP + WINDOW + 5)
    win = _hann()
    want = np.array([
        np.fft.rfft(padded[k * HOP : k * HOP + WINDOW] * win, n=FFT_SIZE)
        for k in range(n_frames)
    ])
    got = _stft(padded, n_frames)
    assert got.shape == want.shape and np.array_equal(got, want)


def untiled_mel(x):
    """mel_spectrogram as one whole-signal STFT: the tiles' reference."""
    padded = np.pad(x, WINDOW // 2, mode="reflect")
    mag = np.abs(_stft(padded, frame_count(x.size)))
    return 20.0 * np.log10(np.maximum(_filterbank_product(mag), AMP_FLOOR))


# 7 frames is the fewest a signal gives: one window of samples
@pytest.mark.parametrize("n_frames", [
    frame_count(WINDOW), TILE_FRAMES - 1, TILE_FRAMES, TILE_FRAMES + 1,
    2 * TILE_FRAMES + 1, frame_count(20 * SAMPLE_RATE),
])
def test_tiled_mel_equals_the_untiled_mel_bitwise(rng, n_frames):
    x = rng.uniform(-1.0, 1.0, max(WINDOW, (n_frames - 1) * HOP + 1 + int(rng.integers(HOP))))
    assert frame_count(x.size) == n_frames
    got = mel_spectrogram(x)
    assert got.shape == (n_frames, N_MELS)
    assert got.tobytes() == untiled_mel(x).tobytes()


def test_mel_holds_less_than_one_frame_matrix(rng):
    x = rng.uniform(-1.0, 1.0, 60 * SAMPLE_RATE)
    mel_spectrogram(x[:WINDOW])  # the filterbank and window are built once, not counted
    tracemalloc.start()
    try:
        mel_spectrogram(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < frame_count(x.size) * WINDOW * 8  # the whole track's float64 frames


def test_overlap_add_and_window_sum_equal_plain_loops(rng):
    n_frames = 23
    frames = rng.normal(size=(n_frames, WINDOW))
    size = (n_frames - 1) * HOP + WINDOW
    want = np.zeros(size)
    norm = np.zeros(size)
    win_sq = _hann() ** 2
    for k in range(n_frames):
        want[k * HOP : k * HOP + WINDOW] += frames[k]
        norm[k * HOP : k * HOP + WINDOW] += win_sq
    assert np.array_equal(_overlap_add([frames], n_frames), want)
    blocks = [frames[:1], frames[1:9], frames[9:]]  # tiles of any size, in order
    assert np.array_equal(_overlap_add(blocks, n_frames), want)
    assert np.array_equal(_window_sum(n_frames), np.maximum(norm, 1e-10))


def plain_invert_mel(mel, iterations, callback):
    """``invert_mel`` written out with a new array for every step and a loop
    over the frames for each overlap-add: the arithmetic the in-place loop
    must reproduce bit for bit."""
    win = _hann()
    target = np.maximum(10.0 ** (mel / 20.0) @ _filterbank_pinv().T, 0.0)
    target_norm = np.linalg.norm(target)
    n_frames = target.shape[0]
    size = (n_frames - 1) * HOP + WINDOW

    def overlap_add(frames):
        out = np.zeros(size)
        for k, frame in enumerate(frames):
            out[k * HOP : k * HOP + WINDOW] += frame
        return out

    window_sum = np.maximum(overlap_add(np.broadcast_to(win * win, (n_frames, WINDOW))), 1e-10)

    def istft(spec):
        frames = np.fft.irfft(spec, n=FFT_SIZE, axis=1)[:, :WINDOW] * win
        return overlap_add(frames) / window_sum

    def stft(padded):
        view = np.lib.stride_tricks.sliding_window_view(padded, WINDOW)
        frames = view[: (n_frames - 1) * HOP + 1 : HOP] * win
        return np.fft.rfft(frames, n=FFT_SIZE, axis=1)

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
    pad = WINDOW // 2
    return np.clip(y[pad : pad + n_frames * HOP], -1.0, 1.0)


@pytest.mark.parametrize("iterations, n_frames", [
    pytest.param(1, None, id="1"),  # None: a 2 s clip
    pytest.param(2, None, id="2"),
    pytest.param(14, None, id="14"),
    pytest.param(3, TILE_FRAMES - 1, id="3-tile-1"),
    pytest.param(3, TILE_FRAMES + 1, id="3-tile+1"),
    pytest.param(3, 2 * TILE_FRAMES + 1, id="3-2tile+1"),
])
def test_invert_mel_equals_the_plain_loop_bitwise(iterations, n_frames):
    seconds = 2.0 if n_frames is None else ((n_frames - 1) * HOP + 1) / SAMPLE_RATE
    clicks, _ = click_track(120, seconds, bass_phase=0, seed=3)
    mel = mel_spectrogram(np.clip(clicks + sine(330.0, seconds, amp=0.2), -1.0, 1.0))
    assert n_frames in (None, mel.shape[0])
    errors, plain_errors = [], []
    got = invert_mel(mel, iterations, callback=lambda it, err: errors.append((it, err)))
    want = plain_invert_mel(mel, iterations, lambda it, err: plain_errors.append((it, err)))
    assert got.tobytes() == want.tobytes()
    assert errors == plain_errors and len(errors) == iterations


def test_invert_mel_holds_less_than_the_untiled_loop(rng, monkeypatch):
    """The untiled loop held three whole-clip complex spectra (coefficients,
    last projection, new spectrum) and two frame matrices (the ISTFT's and
    the STFT's) at once: 45.9 MB on a 10.24 s clip. The tiled loop keeps
    two complex spectra and the target whole: 30 MB."""
    # on the heap, where tracemalloc sees them
    monkeypatch.setattr(dsp, "_own_mapping", lambda shape, dtype: np.zeros(shape, dtype))
    mel = mel_spectrogram(rng.uniform(-1.0, 1.0, M.CLIP_SAMPLES))
    invert_mel(mel[:8], 1)  # the window and the pseudo-inverse are built once, not counted
    n_frames = mel.shape[0]
    tracemalloc.start()
    try:
        invert_mel(mel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    spectrum = n_frames * (FFT_SIZE // 2 + 1) * 16
    frame_matrix = n_frames * WINDOW * 8
    assert peak < 3 * spectrum + 2 * frame_matrix


def test_own_mapping_is_a_zeroed_writable_array():
    for shape in [(3, 5), (0, 513)]:
        a = dsp._own_mapping(shape, np.complex128)
        assert a.shape == shape and a.dtype == np.complex128 and not a.any()
        a[...] = 1.0
        assert np.all(a == 1.0)
