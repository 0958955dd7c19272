"""Synthetic audio generators shared across the test suite."""

import numpy as np

from beatmix.dsp import SAMPLE_RATE as SR


def sine(freq_hz, duration_s, sr=SR, amp=0.5):
    t = np.arange(int(round(duration_s * sr))) / sr
    return amp * np.sin(2 * np.pi * freq_hz * t)


def _click_burst(sr, freq=1000.0, dur=0.02, decay=0.005):
    t = np.arange(int(round(dur * sr))) / sr
    return np.sin(2 * np.pi * freq * t) * np.exp(-t / decay)


def _bass_burst(sr, freq=70.0, dur=0.08, decay=0.03):
    t = np.arange(int(round(dur * sr))) / sr
    return np.sin(2 * np.pi * freq * t) * np.exp(-t / decay)


def click_track(
    bpm,
    duration_s,
    sr=SR,
    t0=0.25,
    click_amp=0.7,
    bass_phase=None,
    bass_amp=0.9,
    noise_db=None,
    seed=0,
):
    """A metronome track: sharp 1 kHz clicks on every beat.

    When ``bass_phase`` is given, beats whose index modulo 4 equals it also
    carry a low bass pulse (synthetic downbeats). ``noise_db`` adds white
    noise at that level relative to full scale. Returns (samples, click times).
    """
    n = int(round(duration_s * sr))
    x = np.zeros(n)
    period = 60.0 / bpm
    times = np.arange(t0, duration_s - 0.1, period)
    click = _click_burst(sr)
    bass = _bass_burst(sr)
    for i, t in enumerate(times):
        s = int(round(t * sr))
        e = min(n, s + click.size)
        x[s:e] += click_amp * click[: e - s]
        if bass_phase is not None and i % 4 == bass_phase:
            e = min(n, s + bass.size)
            x[s:e] += bass_amp * bass[: e - s]
    if noise_db is not None:
        rng = np.random.default_rng(seed)
        x = x + 10.0 ** (noise_db / 20.0) * rng.standard_normal(n)
    return np.clip(x, -1.0, 1.0), times


def beat_errors(beat_times, click_times):
    """Per-beat absolute error (s) against the nearest true click."""
    beat_times = np.asarray(beat_times)
    return np.array([np.abs(click_times - b).min() for b in beat_times])
