import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatmix import beats as B
from beatmix.dsp import MelSpectrogram, Waveform, mel_spectrogram
from beatmix.errors import InvariantViolation, NoOnsets, SchemaError, TooFewBeats
from synth import click_track


def test_constant_mel_gives_zero_envelope(config):
    mel = MelSpectrogram(np.full((300, 128), -30.0), config)
    env = B.onset_envelope(mel)
    assert env.shape == (300,)
    assert np.all(env == 0.0)


def test_impulse_frame_is_envelope_argmax(config):
    frames = np.full((200, 128), config.log_floor)
    frames[57] = -10.0
    env = B.onset_envelope(MelSpectrogram(frames, config))
    assert int(np.argmax(env)) == 57
    assert env.max() == 1.0


def test_click_train_envelope_spacing(config):
    x, clicks = click_track(120, 12.0)
    env = B.onset_envelope(mel_spectrogram(Waveform(x, 16000), config))
    # peaks: local maxima above half height
    peaks = [
        i
        for i in range(1, env.size - 1)
        if env[i] >= env[i - 1] and env[i] > env[i + 1] and env[i] > 0.5
    ]
    spacing = np.diff(peaks) * config.hop / config.sample_rate
    assert np.abs(spacing - 0.5).max() <= config.hop / config.sample_rate + 1e-9


@pytest.mark.parametrize("bpm", [90.0, 120.0])
def test_estimate_tempo_on_clicks(config, bpm):
    x, _ = click_track(bpm, 20.0)
    env = B.onset_envelope(mel_spectrogram(Waveform(x, 16000), config))
    assert abs(B.estimate_tempo(env, config) - bpm) <= 2.0


def test_estimate_tempo_silence_raises(config):
    with pytest.raises(NoOnsets):
        B.estimate_tempo(np.zeros(2000), config)


def test_track_beats_on_click_train(config):
    x, clicks = click_track(120, 20.0)
    env = B.onset_envelope(mel_spectrogram(Waveform(x, 16000), config))
    beats = B.track_beats(env, 120.0, config)
    core = beats[1:-1]
    errs = np.array([np.abs(clicks - b).min() for b in core])
    assert np.all(np.diff(beats) > 0)
    assert np.mean(errs <= 0.020) >= 0.9


def test_track_beats_bridges_a_missing_click(config):
    x, clicks = click_track(120, 20.0)
    victim = clicks[len(clicks) // 2]
    s = int(round(victim * 16000))
    x = x.copy()
    x[s - 100 : s + 500] = 0.0  # silence one click
    env = B.onset_envelope(mel_spectrogram(Waveform(x, 16000), config))
    beats = B.track_beats(env, 120.0, config)
    # a beat is still emitted near the silenced click
    assert np.abs(beats - victim).min() <= 0.1


def test_track_beats_flat_noise_envelope_is_near_periodic(config, rng):
    env = rng.random(3000) * 0.05
    env /= env.max()
    beats = B.track_beats(env, 120.0, config)
    gaps = np.diff(beats)
    period = 0.5
    assert np.all(np.abs(gaps - period) <= 0.1 * period)


def test_track_beats_rejects_wild_tempo(config):
    with pytest.raises(ValueError):
        B.track_beats(np.ones(1000), 500.0, config)


def test_downbeat_phase_detection(config):
    for phase in (0, 2):
        x, clicks = click_track(120, 20.0, bass_phase=phase)
        grid = B.analyze_waveform(Waveform(x, 16000), config)
        idx = [int(np.argmin(np.abs(clicks - d))) for d in grid.downbeat_times]
        assert all(i % 4 == phase for i in idx)
        assert np.all(np.diff(idx) == 4)


def test_downbeats_need_four_beats(config):
    mel = MelSpectrogram(np.zeros((100, 128)), config)
    with pytest.raises(TooFewBeats):
        B.infer_downbeats(np.array([0.1, 0.6, 1.1]), mel)


def test_pipeline_determinism(config):
    x, _ = click_track(97, 15.0, noise_db=-25, seed=5)
    g1 = B.analyze_waveform(Waveform(x, 16000), config)
    g2 = B.analyze_waveform(Waveform(x.copy(), 16000), config)
    assert g1.tempo_bpm == g2.tempo_bpm
    assert np.array_equal(g1.beat_times, g2.beat_times)
    assert np.array_equal(g1.downbeat_times, g2.downbeat_times)


def test_beats_within_duration(config):
    x, _ = click_track(150, 11.0)
    wave = Waveform(x, 16000)
    grid = B.analyze_waveform(wave, config)
    assert np.all(grid.beat_times >= 0)
    assert np.all(grid.beat_times < wave.duration_s)


@settings(max_examples=25, deadline=None)
@given(
    bpm=st.floats(min_value=40.0, max_value=240.0),
    t0=st.floats(min_value=0.0, max_value=2.0),
    n_beats=st.integers(min_value=1, max_value=60),
    phase=st.integers(min_value=0, max_value=3),
)
def test_annotation_round_trip_identity(bpm, t0, n_beats, phase):
    import tempfile

    beats = t0 + np.arange(n_beats) * 60.0 / bpm
    grid = B.BeatGrid(
        tempo_bpm=bpm,
        beat_times=beats,
        downbeat_times=beats[min(phase, n_beats - 1) :: 4],
        source="external",
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/t.beats.json"
        B.save_beat_annotation(grid, path)
        back = B.load_beat_annotation(path)
    assert back.tempo_bpm == grid.tempo_bpm
    assert np.array_equal(back.beat_times, grid.beat_times)
    assert np.array_equal(back.downbeat_times, grid.downbeat_times)
    assert back.source == grid.source


def test_annotation_downbeat_not_in_beats(tmp_path):
    path = tmp_path / "bad.beats.json"
    path.write_text(
        '{"tempo_bpm": 120, "beat_times": [0.0, 0.5, 1.0, 1.5],'
        ' "downbeat_times": [0.25], "source": "external"}'
    )
    with pytest.raises(InvariantViolation):
        B.load_beat_annotation(path)


def test_annotation_tempo_out_of_range(tmp_path):
    path = tmp_path / "fast.beats.json"
    path.write_text(
        '{"tempo_bpm": 400, "beat_times": [0.0, 0.15, 0.3],'
        ' "downbeat_times": [], "source": "external"}'
    )
    with pytest.raises(InvariantViolation):
        B.load_beat_annotation(path)


def test_annotation_non_ascending(tmp_path):
    path = tmp_path / "desc.beats.json"
    path.write_text(
        '{"tempo_bpm": 120, "beat_times": [1.0, 0.5], "downbeat_times": [],'
        ' "source": "external"}'
    )
    with pytest.raises(InvariantViolation):
        B.load_beat_annotation(path)


def test_annotation_missing_key(tmp_path):
    path = tmp_path / "short.beats.json"
    path.write_text('{"tempo_bpm": 120}')
    with pytest.raises(SchemaError):
        B.load_beat_annotation(path)


def test_annotation_inconsistent_median_ibi(tmp_path):
    path = tmp_path / "drift.beats.json"
    path.write_text(
        '{"tempo_bpm": 120, "beat_times": [0.0, 1.0, 2.0, 3.0],'
        ' "downbeat_times": [0.0], "source": "external"}'
    )
    with pytest.raises(InvariantViolation):
        B.load_beat_annotation(path)


@pytest.mark.parametrize("beat_times, downbeat_times", [
    ("[NaN, NaN, NaN, NaN]", "[]"),
    ("[0.0, 0.5, 1.0, 1.5]", "[NaN]"),
    ("[[0.0, 0.5], [1.0, 1.5]]", "[]"),
], ids=["nan-beats", "nan-downbeat", "nested-beats"])
def test_annotation_times_must_be_flat_and_finite(tmp_path, beat_times, downbeat_times):
    path = tmp_path / "odd.beats.json"
    path.write_text(
        f'{{"tempo_bpm": 120, "beat_times": {beat_times},'
        f' "downbeat_times": {downbeat_times}, "source": "external"}}'
    )
    with pytest.raises(InvariantViolation, match="finite"):
        B.load_beat_annotation(path)
