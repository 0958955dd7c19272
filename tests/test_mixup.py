import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatmix import codec as C
from beatmix import mixup as M
from beatmix.beats import BeatGrid
from beatmix.dsp import SAMPLE_RATE as SR
from beatmix.dsp import GL_ITERATIONS, HOP, LOG_FLOOR, N_MELS, mel_spectrogram
from beatmix.errors import InputError
from synth import click_track


def make_grid(bpm, duration_s=30.0, t0=0.0):
    beats = np.arange(t0, duration_s, 60.0 / bpm)
    return BeatGrid(bpm, beats, beats[::4])


# --- tempo groups -----------------------------------------------------------

def test_same_bucket():
    assert M.group_id_for(120) == M.group_id_for(121) == 15


def test_bucket_boundary():
    assert M.group_id_for(120) != M.group_id_for(125)
    assert M.group_id_for(np.nextafter(124.0, 0.0)) == 15
    assert M.group_id_for(124.0) == 16


def test_group_clamping():
    assert M.group_id_for(59.0) == 0
    assert M.group_id_for(500.0) == M.group_id_for(179.9)


# --- mixing ratio -----------------------------------------------------------

def test_beta_moments():
    rng = np.random.default_rng(99)
    draws = np.array([M.sample_mix_ratio(rng) for _ in range(10000)])
    assert 0.48 <= draws.mean() <= 0.52
    assert 0.020 <= draws.var() <= 0.026  # Beta(5,5) variance = 25/1100


def test_beta_determinism():
    a = [M.sample_mix_ratio(np.random.default_rng(5)) for _ in range(1)]
    r1, r2 = np.random.default_rng(5), np.random.default_rng(5)
    s1 = [M.sample_mix_ratio(r1) for _ in range(200)]
    s2 = [M.sample_mix_ratio(r2) for _ in range(200)]
    assert s1 == s2


def test_beta_stays_open_interval():
    rng = np.random.default_rng(0)
    draws = [M.sample_mix_ratio(rng) for _ in range(1000)]
    assert all(0.0 < d < 1.0 for d in draws)


# --- alignment --------------------------------------------------------------

def two_track_pass(grid, n_samples, seed):
    """A p=1 plan over two tracks that share ``grid``: every slot mixes them."""
    gid = M.group_id_for(grid.tempo_bpm)
    tracks = {tid: M.TrackView(tid, n_samples, grid, gid) for tid in ("a", "b")}
    return M.plan_mixup_pass(tracks, "bam", 1.0, 50, seed)


def test_align_downbeats_on_two_second_grid():
    grid = make_grid(120.0)  # downbeats every 2 s from 0
    n = 30 * SR
    offsets = M.eligible_downbeat_offsets(grid, n)
    assert offsets.size and np.all(offsets % 32000 == 0) and np.all(offsets + 163840 <= n)
    for spec in two_track_pass(grid, n, seed=0):
        for off in (spec.offset_a, spec.offset_b):
            assert off % 32000 == 0 and off + 163840 <= n


def test_align_too_short_track():
    grid = make_grid(120.0, duration_s=8.0)
    assert M.eligible_downbeat_offsets(grid, 8 * SR).size == 0
    with pytest.raises(InputError, match="no track offers a downbeat with a full clip after it"):
        two_track_pass(grid, 8 * SR, seed=0)


def test_align_single_candidate_is_deterministic():
    grid = BeatGrid(120.0, np.arange(0, 12, 0.5), np.array([0.0]))
    for seed in range(5):
        specs = two_track_pass(grid, 12 * SR, seed)
        assert all((s.offset_a, s.offset_b) == (0, 0) for s in specs)


# --- waveform / latent mixes -------------------------------------------------

def test_bam_degenerate_lambda_is_identity(rng):
    x1 = rng.uniform(-1, 1, 4000)
    x2 = rng.uniform(-1, 1, 4000)
    out = M.convex_mix(x1, x2, 1.0 - 1e-9)
    assert np.abs(out - x1).max() < 1e-6


def test_bam_impulse_linearity():
    x1 = np.zeros(8); x1[0] = 1.0
    x2 = np.zeros(8); x2[1] = 1.0
    out = M.convex_mix(x1, x2, 0.5)
    assert out[0] == 0.5 and out[1] == 0.5


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(min_value=1e-9, max_value=1 - 1e-9), seed=st.integers(0, 10_000))
def test_bam_amplitude_bound_and_swap_symmetry(lam, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, 256)
    b = rng.uniform(-1, 1, 256)
    out = M.convex_mix(a, b, lam)
    assert np.abs(out).max() <= max(np.abs(a).max(), np.abs(b).max()) + 1e-12
    swapped = M.convex_mix(b, a, 1.0 - lam)
    assert np.abs(out - swapped).max() < 1e-6


def test_blm_symmetry_zero(rng):
    y = rng.normal(size=(4, 8, 4))
    out = M.convex_mix(y, -y, 0.5)
    assert np.abs(out).max() == 0.0


def test_blm_degenerate_lambda(rng):
    y1 = rng.normal(size=(4, 8, 4))
    y2 = rng.normal(size=(4, 8, 4))
    out = M.convex_mix(y1, y2, 1.0 - 1e-9)
    assert np.abs(out - y1).max() < 1e-6


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(min_value=1e-9, max_value=1 - 1e-9), seed=st.integers(0, 10_000))
def test_blm_norm_triangle_inequality(lam, seed):
    rng = np.random.default_rng(seed)
    y1 = rng.normal(size=(4, 8, 4))
    y2 = rng.normal(size=(4, 8, 4))
    out = M.convex_mix(y1, y2, lam)
    bound = lam * np.linalg.norm(y1) + (1 - lam) * np.linalg.norm(y2)
    assert np.linalg.norm(out) <= bound + 1e-9


# --- blm render ---------------------------------------------------------------

@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(3)
    mels = [np.clip(rng.normal(-40, 12, (64, 128)), -80, 0) for _ in range(5)]
    return C.fit(mels, n_components=16, patch_size=8), mels


def patch_pca_reconstruction(codec, frames):
    """``frames`` projected onto the codec's patch basis and back, unclamped."""
    t, f = frames.shape
    p = codec.patch_size
    patches = frames.reshape(t // p, p, f // p, p).transpose(0, 2, 1, 3).reshape(-1, p * p)
    mean, basis = codec.mean.astype(np.float64), codec.basis.astype(np.float64)
    recon = (patches - mean) @ basis.T @ basis + mean
    return recon.reshape(t // p, f // p, p, p).transpose(0, 2, 1, 3).reshape(t, f)


def no_samples(track_id, offset, n_samples):
    raise AssertionError(f"{track_id}: a mixed blm render read samples")


def mel_rows(mels):
    """A ``render_spec`` mel loader over whole-track mels, recording each call."""
    calls = []

    def load_mel(track_id, first, n_frames):
        calls.append((track_id, first, n_frames))
        return mels[track_id][first : first + n_frames]

    return load_mel, calls


def test_blm_render_matches_codec_reconstruction(fitted, monkeypatch):
    codec, _ = fitted
    rng = np.random.default_rng(11)
    mels = {tid: np.clip(rng.normal(-40, 12, (80, N_MELS)), -80, 0) for tid in ("a", "b")}
    n = 64 * HOP  # 64 frames, whole patches
    # a on the hop grid at frame 3; b 81 samples past frame 5, nearest frame 6
    spec = M.MixupSpec("mix_00000", "blm", True, "a", 3 * HOP, seed=0, track_b="b",
                       offset_b=5 * HOP + 81, lam=0.3, clip_samples=n)
    handed = []
    out = np.zeros(n)

    def capture(mel, iterations):
        handed.append((mel, iterations))
        return out

    monkeypatch.setattr(M, "invert_mel", capture)
    load_mel, calls = mel_rows(mels)
    assert M.render_spec(spec, no_samples, load_mel, codec) is out
    assert calls == [("a", 3, 64), ("b", 6, 64)]
    [(mel, iterations)] = handed
    assert iterations == GL_ITERATIONS
    # the codec is affine before decode clamps at the log floor, so mixing the
    # latents mixes the reconstructions; the two sides differ only by the
    # rounding of reassociated float64 sums, far below 1e-9 dB at these magnitudes
    r_a = patch_pca_reconstruction(codec, mels["a"][3:67])
    r_b = patch_pca_reconstruction(codec, mels["b"][6:70])
    expect = np.maximum(0.3 * r_a + 0.7 * r_b, LOG_FLOOR)
    assert mel.shape == expect.shape == (64, N_MELS)
    np.testing.assert_allclose(mel, expect, rtol=0, atol=1e-9)


def test_blm_render_zero_latent_gives_patch_mean(fitted):
    codec, mels = fitted
    mel = C.decode(codec, np.zeros((16, 8, 16)))
    tiled = C._from_patches(
        np.tile(codec.mean.astype(np.float64), (8 * 16, 1)), 64, 128, 8
    )
    assert np.array_equal(mel, np.maximum(tiled, LOG_FLOOR))


def test_a_mixed_blm_latent_stays_in_reconstruction_envelope(fitted):
    codec, mels = fitted
    l1, l2 = C.encode(codec, mels[0]), C.encode(codec, mels[1])
    r1, r2 = C.decode(codec, l1), C.decode(codec, l2)
    mixed_mel = C.decode(codec, M.convex_mix(l1, l2, 0.3))
    lo = np.minimum(r1, r2) - 1e-9
    hi = np.maximum(r1, r2) + 1e-9
    assert np.all(mixed_mel >= lo) and np.all(mixed_mel <= hi)


# --- pass planning --------------------------------------------------------------

def corpus_views(bpms, duration_s=30.0):
    return {
        f"t{i}": M.TrackView(
            f"t{i}", int(duration_s * SR), make_grid(b, duration_s), M.group_id_for(b)
        )
        for i, b in enumerate(bpms)
    }


def test_plan_p_zero_yields_no_mixes():
    tracks = corpus_views([120, 121, 90, 91])
    specs = M.plan_mixup_pass(tracks, "bam", 0.0, 300, 0)
    assert len(specs) == 300
    assert not any(s.mixed for s in specs)


def test_plan_p_one_mixes_everything():
    tracks = corpus_views([120, 121])
    specs = M.plan_mixup_pass(tracks, "bam", 1.0, 300, 0)
    assert all(s.mixed for s in specs)


def test_plan_mixed_fraction_near_p():
    tracks = corpus_views([120, 121, 90, 91, 150, 151])
    specs = M.plan_mixup_pass(tracks, "bam", 0.5, 10000, 2)
    frac = np.mean([s.mixed for s in specs])
    assert 0.48 <= frac <= 0.52


def test_plan_never_crosses_groups():
    tracks = corpus_views([120, 121, 122, 90, 91, 150])
    specs = M.plan_mixup_pass(tracks, "bam", 1.0, 500, 3)
    for spec in specs:
        if spec.mixed:
            assert tracks[spec.track_a].group_id == tracks[spec.track_b].group_id
            assert spec.track_a != spec.track_b


def test_plan_loner_track_never_mixes():
    tracks = corpus_views([120, 150])  # two groups of one
    specs = M.plan_mixup_pass(tracks, "bam", 1.0, 100, 0)
    assert not any(s.mixed for s in specs)


def test_plan_reproducible():
    tracks = corpus_views([120, 121, 90, 91])
    a = M.plan_mixup_pass(tracks, "blm", 0.5, 400, 42)
    b = M.plan_mixup_pass(tracks, "blm", 0.5, 400, 42)
    assert a == b


def test_plan_offsets_are_downbeats():
    tracks = corpus_views([120, 121, 90, 91])
    specs = M.plan_mixup_pass(tracks, "bam", 1.0, 300, 7)
    for spec in specs:
        grid_a = tracks[spec.track_a].grid
        assert np.abs(np.round(grid_a.downbeat_times * SR) - spec.offset_a).min() <= 1
        if spec.mixed:
            grid_b = tracks[spec.track_b].grid
            assert np.abs(np.round(grid_b.downbeat_times * SR) - spec.offset_b).min() <= 1


def two_branch_plan(tracks, strategy, p, count, seed):
    """Reference planner: a mixed and an unmixed branch, each drawing its
    offsets and ratio in the order the planner's contract fixes."""
    rng = np.random.default_rng(seed)
    eligible = {
        tid: M.eligible_downbeat_offsets(v.grid, v.n_samples)
        for tid, v in tracks.items()
    }
    usable = sorted(tid for tid, offs in eligible.items() if offs.size > 0)
    specs = []
    for slot in range(count):
        base = usable[int(rng.integers(len(usable)))]
        mix_roll = float(rng.random())
        mates = [o for o in usable if o != base and tracks[o].group_id == tracks[base].group_id]
        if mix_roll < p and mates:
            partner = mates[int(rng.integers(len(mates)))]
            off_a = int(eligible[base][rng.integers(eligible[base].size)])
            off_b = int(eligible[partner][rng.integers(eligible[partner].size)])
            lam = M.sample_mix_ratio(rng)
            specs.append(M.MixupSpec(
                f"mix_{slot:05d}", strategy, True, base, off_a, seed, partner, off_b, lam
            ))
        else:
            off_a = int(eligible[base][rng.integers(eligible[base].size)])
            specs.append(M.MixupSpec(f"mix_{slot:05d}", strategy, False, base, off_a, seed))
    return specs


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_plan_equals_two_branch_reference(p, seed):
    # a loner group, and tracks with one, two and ten eligible downbeats
    tracks = corpus_views([120, 121, 122, 90, 91, 150])
    tracks["t1"] = M.TrackView("t1", 11 * SR, make_grid(121, 11.0), tracks["t1"].group_id)
    tracks["t3"] = M.TrackView("t3", 15 * SR, make_grid(90, 15.0), tracks["t3"].group_id)
    want = two_branch_plan(tracks, "blm", p, 200, seed)
    got = M.plan_mixup_pass(tracks, "blm", p, 200, seed)
    assert got == want
    assert {s.mixed for s in got} == ({False} if p == 0 else {True, False})


# --- rendering -------------------------------------------------------------------

def test_render_bam_spec_mixes_clips(rng):
    tracks = corpus_views([120, 121], duration_s=25.0)
    audio = {tid: rng.uniform(-0.5, 0.5, 25 * SR) for tid in tracks}

    def load_clip(tid, off, n):
        return audio[tid][off : off + n]

    specs = M.plan_mixup_pass(tracks, "bam", 1.0, 5, 1)
    for spec in specs:
        wave = M.render_spec(spec, load_clip)
        assert wave.size == spec.clip_samples
        expect = spec.lam * audio[spec.track_a][spec.offset_a : spec.offset_a + spec.clip_samples]
        expect = expect + (1 - spec.lam) * audio[spec.track_b][
            spec.offset_b : spec.offset_b + spec.clip_samples
        ]
        assert np.array_equal(wave, expect)


def test_render_unmixed_spec_is_source_clip(rng):
    tracks = corpus_views([120, 150], duration_s=25.0)
    audio = {tid: rng.uniform(-0.5, 0.5, 25 * SR) for tid in tracks}
    specs = M.plan_mixup_pass(tracks, "bam", 1.0, 3, 1)
    for spec in specs:
        assert not spec.mixed
        wave = M.render_spec(spec, lambda t, o, n: audio[t][o : o + n])
        assert np.array_equal(
            wave, audio[spec.track_a][spec.offset_a : spec.offset_a + spec.clip_samples]
        )


def test_render_blm_spec_end_to_end():
    tracks = corpus_views([120, 121], duration_s=14.0)
    audio = {}
    for i, tid in enumerate(sorted(tracks)):
        x, _ = click_track(120 + i, 14.0, seed=i)
        audio[tid] = x
    mels = {t: mel_spectrogram(audio[t]) for t in sorted(tracks)}
    codec = C.fit([mels[t][:1024] for t in sorted(tracks)], n_components=8, patch_size=8)
    specs = M.plan_mixup_pass(tracks, "blm", 1.0, 2, 0)
    load_mel, calls = mel_rows(mels)
    for spec in specs:
        assert spec.mixed and spec.clip_samples == 163840
        wave = M.render_spec(spec, no_samples, load_mel, codec)
        assert calls[-2:] == [(spec.track_a, (spec.offset_a + HOP // 2) // HOP, 1024),
                              (spec.track_b, (spec.offset_b + HOP // 2) // HOP, 1024)]
        assert wave.size == 163840
        assert np.all(np.abs(wave) <= 1.0)
