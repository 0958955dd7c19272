import argparse
import hashlib
import json
import os
import re
import shutil
import struct
import sys
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from beatmix import beats as beats_mod
from beatmix import codec as codec_mod
from beatmix import gateway as G
from beatmix import cli, manifest as manifest_mod, metrics, mixup, wavio
from beatmix.beats import BeatGrid, save_beat_annotation
from beatmix.cli import main
from beatmix.dsp import mel_spectrogram
from beatmix.errors import DimMismatch, DuplicateId, InputError, SchemaError, ZeroNorm
from beatmix.manifest import (
    Manifest,
    canonical_json,
    content_hash,
    fingerprint,
    load_fingerprints,
    load_manifest,
    save_manifest,
    trusted_hash,
)
from beatmix.gateway import (
    EMB_MAGIC,
    POS_MAGIC,
    RecordSet,
    save_embedding_set,
    save_posterior_set,
)
from beatmix.wavio import load_normalized, load_wav, save_wav, wav_bytes
from synth import click_track
from test_blas import blas, blas_threads  # noqa: F401 - blas is a fixture
from test_gateway import write_raw
from test_wavio import add_stray_bytes, write_raw_wav, write_short_fmt_wav


def write_corpus(root, bpms, duration_s=16.0, captions=True, bass_phase=0):
    os.makedirs(root, exist_ok=True)
    for i, bpm in enumerate(bpms):
        x, _ = click_track(bpm, duration_s, bass_phase=bass_phase, seed=i)
        save_wav(os.path.join(root, f"track{i:02d}.wav"), x)
        if captions:
            with open(os.path.join(root, f"track{i:02d}.txt"), "w") as fh:
                fh.write(f"click track at {bpm} BPM")


@pytest.fixture
def corpus(tmp_path):
    # BPM pairs sit safely inside one 4-BPM bucket each: [116,120) and [88,92)
    root = tmp_path / "corpus"
    write_corpus(root, [117, 118, 90, 91], duration_s=14.0)
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def test_ingest_counts_and_captions(corpus, capsys):
    manifest = corpus / "manifest.json"
    assert run(["ingest", corpus / "corpus", "--manifest", manifest]) == 0
    payload = json.loads(manifest.read_text())
    assert len(payload["entries"]) == 4
    assert all(e["caption"] for e in payload["entries"])
    assert all(e["content_hash"] for e in payload["entries"])


def test_ingest_missing_caption_warns(tmp_path, capsys):
    root = tmp_path / "corpus"
    write_corpus(root, [120, 121, 122], duration_s=12.0)
    os.unlink(root / "track02.txt")
    manifest = tmp_path / "manifest.json"
    assert run(["ingest", root, "--manifest", manifest]) == 0
    err = capsys.readouterr().err
    assert "1 tracks have no caption" in err
    payload = json.loads(manifest.read_text())
    assert sum(1 for e in payload["entries"] if not e["caption"]) == 1


def test_ingest_rerun_is_byte_identical(corpus):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    first = manifest.read_bytes()
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    assert manifest.read_bytes() == first


def test_ingest_reads_each_wav_once_and_stores_its_content_hash(corpus, monkeypatch):
    root = corpus / "corpus"
    x, _ = click_track(120, 7.0, seed=5)  # 44.1 kHz stereo 24-bit: 1.85 MB, over one hash block
    write_raw_wav(root / "wide.wav", np.stack([x, x], axis=1) * 0.5, 44100, "pcm24")
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if str(file).endswith(".wav"):
            opened.append(os.path.relpath(file, root))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    manifest = corpus / "manifest.json"
    assert run(["ingest", root, "--manifest", manifest]) == 0
    monkeypatch.undo()
    entries = json.loads(manifest.read_text())["entries"]
    assert sorted(opened) == sorted(e["path"] for e in entries) and len(entries) == 5
    for e in entries:
        path = root / e["path"]
        assert e["content_hash"] == content_hash(path)
        assert e["n_samples"] == load_wav(path).size


@pytest.mark.parametrize("caption", [5, ["a"], None])
def test_ingest_non_string_caption_exits_one(corpus, capsys, caption):
    captions = corpus / "captions.json"
    captions.write_text(json.dumps({"track00": "fine", "track01": caption}))
    manifest = corpus / "manifest.json"
    code = run(["ingest", corpus / "corpus", "--manifest", manifest, "--captions", captions])
    assert code == 1
    assert "captions.json: caption of 'track01' is not a string" in capsys.readouterr().err
    assert not manifest.exists()


def test_ingest_empty_corpus(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert run(["ingest", empty, "--manifest", tmp_path / "m.json"]) == 1


def test_ingest_short_fmt_chunk_exits_one(corpus, capsys):
    write_short_fmt_wav(corpus / "corpus" / "short_fmt.wav")
    manifest = corpus / "manifest.json"
    assert run(["ingest", corpus / "corpus", "--manifest", manifest]) == 1
    assert "error: short_fmt.wav: fmt chunk too small" in capsys.readouterr().err
    assert not manifest.exists()


def test_ingest_partial_frame_wav_exits_one(corpus, capsys):
    add_stray_bytes(corpus / "corpus" / "track01.wav", 1)
    manifest = corpus / "manifest.json"
    assert run(["ingest", corpus / "corpus", "--manifest", manifest]) == 1
    assert "error: track01.wav: data chunk is not a whole number of frames" in capsys.readouterr().err
    assert not manifest.exists()


def test_analyze_fails_only_a_track_edited_to_a_partial_frame(corpus, capsys):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    add_stray_bytes(corpus / "corpus" / "track01.wav", 1)
    assert run(["analyze", "--manifest", manifest]) == 0
    assert "3 analyzed, 0 cached, 1 failed" in capsys.readouterr().err
    by_id = load_manifest(manifest).by_id()
    assert by_id["track01"].analysis_error.startswith("CorruptFile")
    assert by_id["track00"].tempo_bpm is not None


def test_ingest_duplicate_basename(tmp_path):
    root = tmp_path / "corpus"
    (root / "sub").mkdir(parents=True)
    x, _ = click_track(120, 12.0)
    save_wav(root / "a.wav", x)
    save_wav(root / "sub" / "a.wav", x)
    assert run(["ingest", root, "--manifest", tmp_path / "m.json"]) == 1


def test_analyze_tempos_and_cache(corpus, capsys):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    assert run(["analyze", "--manifest", manifest]) == 0
    payload = json.loads(manifest.read_text())
    tempos = {e["id"]: e["tempo_bpm"] for e in payload["entries"]}
    for track_id, bpm in zip(sorted(tempos), [117, 118, 90, 91]):
        assert abs(tempos[track_id] - bpm) <= 2.0
    capsys.readouterr()
    assert run(["analyze", "--manifest", manifest]) == 0
    assert "4 cached" in capsys.readouterr().err


def test_analyze_silent_track_flagged_not_fatal(tmp_path, capsys):
    root = tmp_path / "corpus"
    write_corpus(root, [120, 122], duration_s=14.0)
    save_wav(root / "silence.wav", np.zeros(14 * 16000))
    manifest = tmp_path / "manifest.json"
    run(["ingest", root, "--manifest", manifest])
    assert run(["analyze", "--manifest", manifest]) == 0
    payload = json.loads(manifest.read_text())
    by_id = {e["id"]: e for e in payload["entries"]}
    assert "NoOnsets" in by_id["silence"]["analysis_error"]
    assert by_id["track00"]["analysis_error"] is None
    assert by_id["track00"]["tempo_bpm"] is not None


def test_analyze_external_sidecars(corpus):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    for i in range(4):
        beats = [round(0.25 + k * 0.5, 3) for k in range(20)]
        sidecar = {
            "tempo_bpm": 120.0,
            "beat_times": beats,
            "downbeat_times": beats[::4],
            "source": "external",
        }
        with open(corpus / "corpus" / f"track{i:02d}.beats.json", "w") as fh:
            json.dump(sidecar, fh)
    assert run(["analyze", "--manifest", manifest, "--external-beats"]) == 0
    payload = json.loads(manifest.read_text())
    assert all(e["tempo_bpm"] == 120.0 for e in payload["entries"])


def test_analyze_external_sidecar_with_nan_fails_that_track(corpus, capsys):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    beats = [round(0.25 + k * 0.5, 3) for k in range(20)]
    for i in range(4):
        sidecar = {
            "tempo_bpm": 120.0,
            "beat_times": beats,
            "downbeat_times": [float("nan")] if i == 2 else beats[::4],
            "source": "external",
        }
        with open(corpus / "corpus" / f"track{i:02d}.beats.json", "w") as fh:
            json.dump(sidecar, fh)
    assert run(["analyze", "--manifest", manifest, "--external-beats"]) == 0
    assert "3 analyzed, 0 cached, 1 failed" in capsys.readouterr().err
    by_id = {e["id"]: e for e in json.loads(manifest.read_text())["entries"]}
    assert by_id["track02"]["analysis_error"].startswith("InvariantViolation")
    assert by_id["track02"]["tempo_bpm"] is None
    assert by_id["track00"]["tempo_bpm"] == 120.0


def write_external_sidecars(wavs):
    """A valid external 120 BPM beat sidecar beside each of ``wavs``."""
    beats = [round(0.25 + k * 0.5, 3) for k in range(20)]
    sidecar = {"tempo_bpm": 120.0, "beat_times": beats, "downbeat_times": beats[::4],
               "source": "external"}
    for wav in wavs:
        wav.with_suffix(".beats.json").write_text(json.dumps(sidecar))


def test_analyze_external_non_utf8_sidecar_fails_that_track(corpus, capsys):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    write_external_sidecars((corpus / "corpus").glob("*.wav"))
    bad = corpus / "corpus" / "track02.beats.json"
    _latin1(bad, bad.read_text().replace("external", "café"))
    assert run(["analyze", "--manifest", manifest, "--external-beats"]) == 0
    assert "3 analyzed, 0 cached, 1 failed" in capsys.readouterr().err
    by_id = load_manifest(manifest).by_id()
    assert by_id["track02"].analysis_error.startswith(f"SchemaError: {bad}: ")
    assert by_id["track00"].tempo_bpm == 120.0


def test_analyze_external_sidecar_with_string_tempo_fails_that_track(corpus, capsys):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    write_external_sidecars((corpus / "corpus").glob("*.wav"))
    bad = corpus / "corpus" / "track02.beats.json"
    bad.write_text(bad.read_text().replace("120.0", '"120"'))
    assert run(["analyze", "--manifest", manifest, "--external-beats"]) == 0
    assert "3 analyzed, 0 cached, 1 failed" in capsys.readouterr().err
    by_id = load_manifest(manifest).by_id()
    assert by_id["track02"].analysis_error == (
        f"SchemaError: {bad}: tempo_bpm is '120', expected a number"
    )
    assert by_id["track02"].tempo_bpm is None and by_id["track00"].tempo_bpm == 120.0


def test_external_analyze_reads_sidecars_replaced_after_a_builtin_analyze(tmp_path, capsys):
    root = tmp_path / "corpus"
    write_corpus(root, [100, 118], duration_s=12.0)
    manifest = tmp_path / "manifest.json"
    run(["ingest", root, "--manifest", manifest])
    assert run(["analyze", "--manifest", manifest]) == 0
    assert run(["group", "--manifest", manifest]) == 0
    builtin = load_manifest(manifest).by_id()
    write_external_sidecars([root / "track00.wav"])
    capsys.readouterr()
    assert run(["analyze", "--manifest", manifest, "--external-beats"]) == 0
    assert "2 analyzed, 0 cached, 0 failed" in capsys.readouterr().err
    by_id = load_manifest(manifest).by_id()
    assert by_id["track00"].tempo_bpm == 120.0
    assert by_id["track01"].tempo_bpm == builtin["track01"].tempo_bpm
    assert run(["group", "--manifest", manifest]) == 0
    # 120 and 118 BPM: two tempo groups at the stored width 4
    assert "2 tracks in 2 tempo groups (width 4.0 BPM)" in capsys.readouterr().err


def test_analyze_workers_share_the_sample_cache(tmp_path):
    root = tmp_path / "corpus"
    write_corpus(root, [100 + 4 * i for i in range((os.cpu_count() or 1) + 3)], duration_s=12.0)
    shutil.copy(root / "track00.wav", root / "twin.wav")
    manifest = tmp_path / "manifest.json"
    assert run(["ingest", root, "--manifest", manifest]) == 0
    codes = []
    worker = threading.Thread(
        target=lambda: codes.append(run(["analyze", "--manifest", manifest, "--workers", "4"]))
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and codes == [0]
    entries = json.loads(manifest.read_text())["entries"]
    assert all(e["analysis_error"] is None and e["tempo_bpm"] for e in entries)
    hashes = {e["content_hash"] for e in entries}
    assert len(hashes) == len(entries) - 1
    assert sorted(os.listdir(tmp_path / wavio.NORMALIZED_CACHE)) == sorted(f"{h}.npy" for h in hashes)
    assert not [name for name in os.listdir(root) if name.startswith(".tmp-")]


def test_group_requires_analyze(corpus):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    assert run(["group", "--manifest", manifest]) == 1


def mixed_pairs(out):
    """The {track_a, track_b} pairs of the mixed specs written to ``out``."""
    specs = [json.loads(path.read_text()) for path in sorted(out.glob("*.mixspec.json"))]
    return [frozenset((s["track_a"], s["track_b"])) for s in specs if s["mixed"]]


def test_group_assigns_buckets(tmp_path, capsys):
    # 117 and 122 BPM fall in the 4-BPM buckets [116,120) and [120,124); 90 and 91 share one
    root, manifest = tmp_path / "corpus", tmp_path / "manifest.json"
    write_corpus(root, [117, 122, 90, 91], duration_s=14.0)
    run(["ingest", root, "--manifest", manifest])
    run(["analyze", "--manifest", manifest])
    capsys.readouterr()
    assert run(["group", "--manifest", manifest]) == 0
    assert "group: 4 tracks in 3 tempo groups (width 4.0 BPM)" in capsys.readouterr().err
    mix = ["mix", "--manifest", manifest, "--strategy", "bam", "--count", "20", "--p", "1"]
    assert run(mix + ["--out", tmp_path / "mixes"]) == 0
    assert set(mixed_pairs(tmp_path / "mixes")) == {frozenset(("track02", "track03"))}


def test_mix_blm_without_codec_fails(corpus):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    run(["analyze", "--manifest", manifest])
    run(["group", "--manifest", manifest])
    code = run([
        "mix", "--manifest", manifest, "--strategy", "blm",
        "--count", "2", "--out", corpus / "mixes",
    ])
    assert code == 1


def test_mix_blm_finds_the_codec_beside_the_manifest_or_through_codec(corpus, capsys):
    manifest, elsewhere = corpus / "manifest.json", corpus / "elsewhere.bin"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    run(["analyze", "--manifest", manifest])
    assert run(["fit-codec", "--manifest", manifest, "-C", "4", "--out", elsewhere]) == 0
    mix = ["mix", "--manifest", manifest, "--strategy", "blm", "--count", "1", "--p", "0",
           "--out", corpus / "mixes"]
    capsys.readouterr()
    assert run(mix) == 1
    err = capsys.readouterr().err
    assert str(corpus / "codec.bin") in err and "`beatmix fit-codec`" in err and "--codec" in err
    assert not (corpus / "mixes").exists()
    assert run(mix + ["--codec", elsewhere]) == 0
    shutil.copy(elsewhere, corpus / "codec.bin")
    assert run(mix) == 0


def test_manifest_is_left_alone_after_analyze(corpus):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    assert run(["analyze", "--manifest", manifest]) == 0
    before = (manifest.read_bytes(), os.stat(manifest).st_ino)
    mix = ["mix", "--manifest", manifest, "--count", "2", "--p", "1"]
    for stage in (
        ["group", "--manifest", manifest],
        ["fit-codec", "--manifest", manifest, "-C", "4"],  # codec.bin beside the manifest
        mix + ["--strategy", "bam", "--out", corpus / "bam"],
        mix + ["--strategy", "blm", "--out", corpus / "blm"],
        ["segment", "--manifest", manifest],
    ):
        assert run(stage) == 0
        assert (manifest.read_bytes(), os.stat(manifest).st_ino) == before, stage[0]


def test_version_1_manifest_exits_one_naming_ingest(
    grouped_manifest, tmp_path, monkeypatch, capsys
):
    # and so is a version-2 manifest
    monkeypatch.chdir(tmp_path)
    for version in (1, 2):
        payload = json.loads(grouped_manifest)
        payload["schema_version"] = version
        payload["config"] = {"bucket_width": 4.0}  # what both versions stored
        if version == 1:
            for entry in payload["entries"]:
                entry["group_id"] = 0  # what version 1 also stored
        text = json.dumps(payload)
        with open("manifest.json", "w") as fh:
            fh.write(text)
        for stage in (["analyze"], ["group"], ["fit-codec"], MIX, ["segment"]):
            assert run(stage + ["--manifest", "manifest.json"]) == 1
            err = capsys.readouterr().err
            assert f"manifest.json: schema version {version} unsupported" in err
            assert "`beatmix ingest`" in err
        assert os.listdir() == ["manifest.json"]
        with open("manifest.json") as fh:
            assert fh.read() == text


def _no_decoding(path):
    raise AssertionError(f"{path} decoded although its samples are cached")


def test_mix_seed_reproducibility(corpus, monkeypatch):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    run(["analyze", "--manifest", manifest])
    run(["group", "--manifest", manifest])
    shutil.rmtree(corpus / wavio.NORMALIZED_CACHE)  # the first mix fills the cache, the second reads it
    out1, out2 = corpus / "m1", corpus / "m2"

    def mix(out):
        return run([
            "mix", "--manifest", manifest, "--strategy", "bam",
            "--count", "5", "--seed", "7", "--p", "1.0", "--out", out,
        ])

    assert mix(out1) == 0
    monkeypatch.setattr(wavio, "load_wav", _no_decoding)
    assert mix(out2) == 0
    assert sorted(os.listdir(out1)) == sorted(os.listdir(out2))
    for name in sorted(os.listdir(out1)):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_fit_codec_cold_warm_and_rewritten_track(corpus):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    run(["analyze", "--manifest", manifest])
    analyzed = manifest.read_bytes()
    cache = corpus / wavio.NORMALIZED_CACHE

    def fit(name, cold):
        if cold:
            shutil.rmtree(cache)
        assert run(["fit-codec", "--manifest", manifest, "-C", "4", "--out", corpus / name]) == 0
        return (corpus / name).read_bytes()

    assert fit("cold.bin", cold=True) == fit("warm.bin", cold=False)
    assert manifest.read_bytes() == analyzed  # the codec is found by its path, not stored
    track = corpus / "corpus" / "track00.wav"
    x, _ = click_track(140, 14.0, seed=99)
    save_wav(track, x)  # rewritten after analyze
    fresh = fit("fresh.bin", cold=False)
    assert fresh != (corpus / "warm.bin").read_bytes()
    assert np.load(cache / f"{content_hash(track)}.npy").tobytes() == load_wav(track).tobytes()
    assert fresh == fit("fresh_cold.bin", cold=True)


# --- the mel cache: analyze writes each track's mel, fit-codec reads it ----------

def _mels_dir(tmp_path):
    return tmp_path / wavio.MEL_CACHE


def _count_mels(monkeypatch):
    """Count every ``mel_spectrogram`` call, through each module that binds it."""
    calls = []

    def counting(wave):
        calls.append(wave.size)
        return mel_spectrogram(wave)

    for name, module in list(sys.modules.items()):
        if name.startswith("beatmix") and getattr(module, "mel_spectrogram", None) is mel_spectrogram:
            monkeypatch.setattr(module, "mel_spectrogram", counting)
    return calls


def test_one_read_and_one_mel_per_track_across_analyze_and_fit_codec(corpus, monkeypatch):
    root, manifest = corpus / "corpus", corpus / "manifest.json"
    assert run(["ingest", root, "--manifest", manifest]) == 0
    mels = _count_mels(monkeypatch)
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if str(file).endswith(".wav"):
            opened.append(os.path.relpath(file, root))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert run(["analyze", "--manifest", manifest]) == 0
    monkeypatch.setattr("builtins.open", real_open)
    wavs = sorted(e["path"] for e in json.loads(manifest.read_text())["entries"])
    assert sorted(opened) == wavs and len(wavs) == 4
    assert len(mels) == 4
    assert run(["fit-codec", "--manifest", manifest, "-C", "4"]) == 0
    assert len(mels) == 4
    shutil.rmtree(_mels_dir(corpus))
    assert run(["fit-codec", "--manifest", manifest, "-C", "4"]) == 0
    assert len(mels) == 8


def test_fit_codec_without_either_cache_writes_the_same_codec(corpus):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    run(["analyze", "--manifest", manifest])

    def fit(name):
        assert run(["fit-codec", "--manifest", manifest, "-C", "4", "--out", corpus / name]) == 0
        return (corpus / name).read_bytes()

    warm = fit("warm.bin")
    shutil.rmtree(corpus / wavio.NORMALIZED_CACHE)
    shutil.rmtree(_mels_dir(corpus))
    assert fit("cold.bin") == warm
    assert len(os.listdir(_mels_dir(corpus))) == len(os.listdir(corpus / wavio.NORMALIZED_CACHE)) == 4


def test_analyze_workers_write_one_mel_per_distinct_track(tmp_path):
    root = tmp_path / "corpus"
    write_corpus(root, [100 + 4 * i for i in range(5)], duration_s=12.0)
    shutil.copy(root / "track00.wav", root / "twin.wav")
    manifest = tmp_path / "manifest.json"
    assert run(["ingest", root, "--manifest", manifest]) == 0
    assert run(["analyze", "--manifest", manifest, "--workers", "2"]) == 0
    hashes = {e["content_hash"] for e in json.loads(manifest.read_text())["entries"]}
    assert len(hashes) == 5
    mels = _mels_dir(tmp_path)
    assert sorted(os.listdir(mels)) == sorted(f"{h}.npy" for h in hashes)
    for h in hashes:
        frames = np.load(mels / f"{h}.npy")
        samples = np.load(tmp_path / wavio.NORMALIZED_CACHE / f"{h}.npy")
        assert frames.tobytes() == mel_spectrogram(samples).tobytes()


def test_an_edited_wav_gets_a_new_mel(corpus):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    assert run(["analyze", "--manifest", manifest]) == 0
    mels = _mels_dir(corpus)
    before = set(os.listdir(mels))
    track = corpus / "corpus" / "track00.wav"
    x, _ = click_track(140, 14.0, seed=99)
    save_wav(track, x)
    assert run(["analyze", "--manifest", manifest]) == 0
    assert set(os.listdir(mels)) - before == {f"{content_hash(track)}.npy"}
    expect = mel_spectrogram(load_wav(track))
    assert np.load(mels / f"{content_hash(track)}.npy").tobytes() == expect.tobytes()


# --- analyze re-reads an edited WAV ----------------------------------------------

def test_reanalyzing_a_shortened_track_updates_its_length(tmp_path, capsys):
    root = tmp_path / "corpus"
    write_corpus(root, [120, 121, 122], duration_s=30.0)
    manifest = tmp_path / "manifest.json"
    assert run(["ingest", root, "--manifest", manifest]) == 0
    assert run(["analyze", "--manifest", manifest]) == 0
    x, _ = click_track(120, 12.0, seed=0)
    save_wav(root / "track00.wav", x)
    assert run(["analyze", "--manifest", manifest]) == 0
    entry = load_manifest(manifest).by_id()["track00"]
    assert (entry.n_samples, entry.duration_s) == (192000, 12.0)
    assert run(["group", "--manifest", manifest]) == 0
    out = tmp_path / "mixes"
    assert run([
        "mix", "--manifest", manifest, "--strategy", "bam",
        "--count", "20", "--p", "1", "--seed", "0", "--out", out,
    ]) == 0
    specs = [json.loads(path.read_text()) for path in sorted(out.glob("*.mixspec.json"))]
    assert any(s["track_a"] == "track00" or s["track_b"] == "track00" for s in specs)
    seg_path = tmp_path / "segments.json"
    assert run(["segment", "--manifest", manifest, "--out", seg_path]) == 0
    ends = [s["end_sample"] for s in json.loads(seg_path.read_text())["segments"]
            if s["track_id"] == "track00"]
    assert ends == [160000]


def test_reingesting_the_sidecar_of_a_shortened_track_updates_its_length(corpus):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    beats = [round(0.25 + k * 0.5, 3) for k in range(20)]
    sidecar = {"tempo_bpm": 120.0, "beat_times": beats, "downbeat_times": beats[::4],
               "source": "external"}
    for i in range(4):
        (corpus / "corpus" / f"track{i:02d}.beats.json").write_text(json.dumps(sidecar))
    assert run(["analyze", "--manifest", manifest, "--external-beats"]) == 0
    x, _ = click_track(120, 12.0, seed=0)
    save_wav(corpus / "corpus" / "track00.wav", x)
    assert run(["analyze", "--manifest", manifest, "--external-beats"]) == 0
    entry = load_manifest(manifest).by_id()["track00"]
    assert (entry.n_samples, entry.duration_s) == (192000, 12.0)


def test_reanalyzing_a_retimed_track_regroups_it(corpus):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    run(["analyze", "--manifest", manifest])
    assert run(["group", "--manifest", manifest]) == 0
    x, _ = click_track(90, 14.0, seed=7)
    save_wav(corpus / "corpus" / "track00.wav", x)
    assert run(["analyze", "--manifest", manifest]) == 0
    entry = load_manifest(manifest).by_id()["track00"]
    assert abs(entry.tempo_bpm - 90) <= 2.0
    assert run(["analyze", "--manifest", manifest]) == 0
    assert run(["fit-codec", "--manifest", manifest, "-C", "4"]) == 0
    # no `group` since: mix groups track00 with the 90 and 91 BPM tracks, and
    # leaves the 118 BPM track without a partner
    out = corpus / "mixes"
    assert run(["mix", "--manifest", manifest, "--strategy", "bam", "--count", "20",
                "--p", "1", "--out", out]) == 0
    pairs = set(mixed_pairs(out))
    assert frozenset(("track00", "track02")) in pairs
    assert set().union(*pairs) == {"track00", "track02", "track03"}


def test_mix_pairs_only_equal_manifest_groups(corpus):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    run(["analyze", "--manifest", manifest])
    group_of = {
        e.id: mixup.group_id_for(e.tempo_bpm) for e in load_manifest(manifest).entries
    }
    assert len(set(group_of.values())) == 2
    out = corpus / "mixes"
    assert run([
        "mix", "--manifest", manifest, "--strategy", "bam",
        "--count", "20", "--p", "1", "--seed", "3", "--out", out,
    ]) == 0
    specs = [json.loads(path.read_text()) for path in sorted(out.glob("*.mixspec.json"))]
    assert len(specs) == 20 and all(s["mixed"] for s in specs)
    assert all(group_of[s["track_a"]] == group_of[s["track_b"]] for s in specs)
    assert {group_of[s["track_a"]] for s in specs} == set(group_of.values())


def test_mix_p_zero_all_unmixed(corpus):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    run(["analyze", "--manifest", manifest])
    run(["group", "--manifest", manifest])
    out = corpus / "unmixed"
    assert run([
        "mix", "--manifest", manifest, "--strategy", "bam",
        "--count", "4", "--p", "0", "--out", out,
    ]) == 0
    specs = [json.loads((out / n).read_text()) for n in sorted(os.listdir(out)) if n.endswith(".json")]
    assert len(specs) == 4
    assert not any(s["mixed"] for s in specs)
    assert all(s["caption_a"] for s in specs)


def test_mix_clip_lengths_and_wavs(corpus):
    from beatmix.wavio import load_wav

    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    run(["analyze", "--manifest", manifest])
    run(["group", "--manifest", manifest])
    out = corpus / "mixes"
    assert run([
        "mix", "--manifest", manifest, "--strategy", "bam",
        "--count", "3", "--p", "1.0", "--seed", "1", "--out", out,
    ]) == 0
    for name in os.listdir(out):
        if name.endswith(".wav"):
            assert load_wav(out / name).size == 163840


# --- thread pools: analyze --workers and the blm renders of mix ---------------

def _tree_bytes(directory):
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_analyze_writes_the_same_bytes_on_one_worker_and_on_three(tmp_path):
    # 44.1 kHz stereo, so that the resampler's BLAS products run in the pool too
    sources = tmp_path / "sources"
    sources.mkdir()
    for i, bpm in enumerate([100, 112, 124, 136]):
        x, _ = click_track(bpm, 12.0, sr=44100, bass_phase=0, seed=i)
        write_raw_wav(sources / f"track{i:02d}.wav", np.stack([x, 0.5 * x], axis=1), 44100, "pcm16")
    trees = []
    for workers in ("1", "3"):
        work = tmp_path / f"workers{workers}"
        shutil.copytree(sources, work / "corpus")
        manifest = work / "manifest.json"
        assert run(["ingest", work / "corpus", "--manifest", manifest]) == 0
        assert run(["analyze", "--manifest", manifest, "--workers", workers]) == 0
        trees.append(_tree_bytes(work))
    # the sidecars, the sample caches and the mel caches
    one, three = ({name: data for name, data in tree.items()
                   if name.endswith((".beats.json", ".npy"))} for tree in trees)
    assert len(one) == 12 and one == three


@pytest.fixture
def blm_ready(corpus):
    """The corpus fixture, ingested, analyzed, and with a codec beside the manifest."""
    manifest = corpus / "manifest.json"
    assert run(["ingest", corpus / "corpus", "--manifest", manifest]) == 0
    assert run(["analyze", "--manifest", manifest]) == 0
    assert run(["fit-codec", "--manifest", manifest, "-C", "4"]) == 0
    return manifest


def _mix_blm(manifest, out, count=5):
    return run(["mix", "--manifest", manifest, "--strategy", "blm", "--p", "1",
                "--count", count, "--seed", "2", "--out", out])


def test_mix_blm_writes_the_same_bytes_on_one_thread_and_on_three(blm_ready, monkeypatch):
    samples = blm_ready.parent / wavio.NORMALIZED_CACHE
    outs = {}
    for workers in (1, 3):  # 3: more threads than this machine may have cores
        shutil.rmtree(samples)  # so that threads decode and cache one track at once
        monkeypatch.setattr(cli, "_cpus", lambda: workers)
        outs[workers] = blm_ready.parent / f"blm{workers}"
        codes = []
        mixer = threading.Thread(target=lambda: codes.append(_mix_blm(blm_ready, outs[workers])))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            mixer.start()
            mixer.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not mixer.is_alive() and codes == [0]
    one, three = _tree_bytes(outs[1]), _tree_bytes(outs[3])
    assert len(one) == 10 and one == three  # 5 clips: more than the threads
    assert not [name for name in os.listdir(samples) if name.startswith(".tmp-")]


def test_main_leaves_the_blas_thread_count_as_it_found_it(blm_ready, blas, monkeypatch):
    get, _ = blas
    analyze, seen = beats_mod.analyze_waveform, []

    def recorded(*args):
        seen.append(get())
        return analyze(*args)

    monkeypatch.setattr(beats_mod, "analyze_waveform", recorded)
    for sidecar in (blm_ready.parent / "corpus").glob("*.beats.json"):
        sidecar.unlink()  # so that analyze runs again
    with blas_threads(blas, 2):
        assert run(["analyze", "--manifest", blm_ready, "--workers", "2"]) == 0
        assert get() == 2 and seen == [1] * 4  # each worker analyzed on one BLAS thread
        assert _mix_blm(blm_ready, blm_ready.parent / "blm", count=2) == 0
        assert get() == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_mix_blm_failing_spec_exits_one_and_writes_only_the_specs_before_it(
    blm_ready, monkeypatch, capsys, workers
):
    render = mixup.render_spec

    def failing(spec, load_clip, codec=None):
        if spec.out_id == "mix_00002":
            raise InputError(f"{spec.track_a}: clip at {spec.offset_a} runs past end of track")
        return render(spec, load_clip, codec)

    monkeypatch.setattr(cli, "_cpus", lambda: workers)
    monkeypatch.setattr(mixup, "render_spec", failing)
    out = blm_ready.parent / "blm"
    capsys.readouterr()
    assert _mix_blm(blm_ready, out) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: track\d\d: clip at \d+ runs past end of track\n", err)
    assert sorted(os.listdir(out)) == [
        f"mix_0000{k}.{ext}" for k in (0, 1) for ext in ("mixspec.json", "wav")
    ]


def test_mix_blm_holds_at_most_one_render_per_thread(blm_ready, monkeypatch, blas):
    get, _ = blas
    render, save = mixup.render_spec, wavio.save_wav
    lock = threading.Lock()
    held, most, threads = [0], [0], []

    def counted_render(spec, load_clip, codec=None):
        with lock:
            held[0] += 1
            most[0] = max(most[0], held[0])
            threads.append(get())
        return render(spec, load_clip, codec)

    def counted_save(path, x):
        save(path, x)
        with lock:
            held[0] -= 1

    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    monkeypatch.setattr(mixup, "render_spec", counted_render)
    monkeypatch.setattr(wavio, "save_wav", counted_save)
    with blas_threads(blas, 2):
        assert _mix_blm(blm_ready, blm_ready.parent / "blm") == 0
    assert held == [0] and most == [2]
    assert threads == [1] * 5  # every render ran with BLAS on one thread


def test_segment_counting(tmp_path, capsys):
    root = tmp_path / "corpus"
    write_corpus(root, [120], duration_s=35.0)
    write_corpus_short = os.path.join(root, "short.wav")
    x, _ = click_track(120, 9.0)
    save_wav(write_corpus_short, x)
    manifest = tmp_path / "manifest.json"
    run(["ingest", root, "--manifest", manifest])
    seg_path = tmp_path / "segments.json"
    assert run(["segment", "--manifest", manifest, "--out", seg_path]) == 0
    payload = json.loads(seg_path.read_text())
    by_track = {}
    for seg in payload["segments"]:
        by_track.setdefault(seg["track_id"], []).append(seg)
    assert len(by_track["track00"]) == 3  # floor(35 / 10)
    assert "short" not in by_track
    err = capsys.readouterr().err
    assert "short" in err
    for segs in by_track.values():
        for seg in segs:
            assert seg["start_sample"] % 160000 == 0
            assert seg["end_sample"] - seg["start_sample"] == 160000


def make_embedding_files(tmp_path, rng):
    def mkset(n, d, prefix):
        rows = rng.normal(size=(n, d))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        return RecordSet.from_records([f"{prefix}{i:03d}" for i in range(n)], rows)

    sets = {
        "gen": mkset(20, 32, "g"),
        "gt": mkset(20, 32, "g"),
        "train": mkset(50, 32, "s"),
        "text": mkset(20, 32, "g"),
        "gen_post": RecordSet.from_records([f"g{i:03d}" for i in range(20)], np.full((20, 6), 1 / 6)),
    }
    sets["gt_post"] = sets["gen_post"]
    files = {key: tmp_path / f"{key}.emb" for key in ("gen", "gt", "train", "text")}
    files.update(gen_post=tmp_path / "gen.post", gt_post=tmp_path / "gt.post")
    for key, records in sets.items():
        save = save_posterior_set if key.endswith("_post") else save_embedding_set
        save(files[key], records)
    return files, sets


def full_eval(files, out):
    return run([
        "eval",
        "--gen-emb", f"pann={files['gen']}",
        "--gt-emb", f"pann={files['gt']}",
        "--train-seg-emb", files["train"],
        "--text-emb", files["text"],
        "--gen-post", files["gen_post"],
        "--gt-post", files["gt_post"],
        "--out", out,
    ])


def test_eval_full_report(tmp_path, rng):
    files, _ = make_embedding_files(tmp_path, rng)
    out = tmp_path / "report"
    assert full_eval(files, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert "pann" in report["fd"]
    assert report["inception_score"] == pytest.approx(1.0)
    assert report["paired_kl"] == pytest.approx(0.0, abs=1e-9)
    assert set(report["sim_aa"]) == {"0.90", "0.95"}
    audit = json.loads((out / "nn_audit.json").read_text())
    assert len(audit) == 20
    assert (out / "report.txt").exists()


def test_eval_report_does_not_depend_on_record_order(tmp_path, rng):
    files, sets = make_embedding_files(tmp_path, rng)
    reversed_files = {}
    for key, records in sets.items():
        reversed_files[key] = tmp_path / f"reversed_{files[key].name}"
        magic = POS_MAGIC if key.endswith("_post") else EMB_MAGIC
        write_raw(reversed_files[key], magic, records.ids[::-1], records.rows[::-1])
    outputs = []
    for name, inputs in (("forward", files), ("reversed", reversed_files)):
        assert full_eval(inputs, tmp_path / name) == 0
        outputs.append({
            report: (tmp_path / name / report).read_bytes()
            for report in ("report.json", "report.txt", "nn_audit.json")
        })
    assert outputs[0] == outputs[1]


def test_eval_self_similarity_is_one(tmp_path, rng):
    files, gen = make_embedding_files(tmp_path, rng)
    out = tmp_path / "self"
    code = run([
        "eval", "--gen-emb", files["gen"], "--train-seg-emb", files["gen"], "--out", out,
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["sim_aa"]["0.90"] == 1.0 and report["sim_aa"]["0.95"] == 1.0


def test_eval_without_posteriors_omits_is(tmp_path, rng):
    files, _ = make_embedding_files(tmp_path, rng)
    out = tmp_path / "partial"
    code = run([
        "eval", "--gen-emb", files["gen"], "--train-seg-emb", files["train"], "--out", out,
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["inception_score"] is None


def test_eval_malformed_file_names_it(tmp_path, capsys):
    bad = tmp_path / "bad.emb"
    bad.write_bytes(b"EMB1" + b"\x00" * 4)
    code = run(["eval", "--gen-emb", bad, "--out", tmp_path / "r"])
    assert code == 1
    assert "bad.emb" in capsys.readouterr().err


def test_eval_non_utf8_id_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.emb"
    write_raw(bad, EMB_MAGIC, ["ok", "x"], np.eye(2))
    bad.write_bytes(bad.read_bytes().replace(b"\x01\x00x", b"\x01\x00\xff"))
    assert run(["eval", "--gen-emb", bad, "--out", tmp_path / "r"]) == 1
    assert "bad.emb: the id of record 1 is not UTF-8" in capsys.readouterr().err


SEGMENT_DIM = 32
SEGMENT_RECORD = 2 + 4 + 4 * SEGMENT_DIM  # bytes per record: every id is 4 bytes long


def write_shuffled_segments(path, rng, n=40, d=SEGMENT_DIM):
    """A training-segment file with its records out of id order, in which
    two pairs of ids share a row across a 7-row block boundary: in one pair
    the later block holds the smaller id, in the other the earlier block."""
    ids = [f"s{i:03d}" for i in rng.permutation(n)]
    rows = rng.normal(size=(n, d))
    for first, second in ((3, 12), (20, 30)):
        rows[second] = rows[first]
    # the smaller id of the first pair is in the later block
    lo, hi = sorted([ids[3], ids[12]])
    ids[3], ids[12] = hi, lo
    lo, hi = sorted([ids[20], ids[30]])
    ids[20], ids[30] = lo, hi
    write_raw(path, EMB_MAGIC, ids, rows)
    return ids, rows


def test_eval_streamed_blocks_match_the_whole_set(tmp_path, rng, monkeypatch):
    seg_path = tmp_path / "segments.emb"
    ids, rows = write_shuffled_segments(seg_path, rng)
    gen_rows = np.vstack([rows[[3, 20]], rng.normal(size=(10, SEGMENT_DIM))])
    gen = RecordSet.from_records([f"g{i:02d}" for i in range(12)], gen_rows)
    G._unit_rows(gen.ids, gen.rows, "gen")
    text = RecordSet.from_records([f"g{i:02d}" for i in range(5)], gen.rows[:5])
    whole = G.load_embedding_set(seg_path)
    monkeypatch.setattr(G, "BLOCK_ROWS", 7)
    calls = []
    search = metrics._kernels.nn_max_dot
    monkeypatch.setattr(metrics._kernels, "nn_max_dot",
                        lambda q, r: calls.append(len(r)) or search(q, r))
    streamed = metrics.build_report(
        gen_emb=gen, text_emb=text, train_seg_emb=G.read_embedding_blocks(seg_path)
    )
    assert calls == [7, 7, 7, 7, 7, 5]
    assert streamed == metrics.build_report(gen_emb=gen, text_emb=text, train_seg_emb=[whole])
    assert streamed.nn_audit[0].segment_id == min(ids[3], ids[12])
    assert streamed.nn_audit[1].segment_id == min(ids[20], ids[30])
    assert streamed.provenance["sim_sizes"] == [12, 40]


def _repeat_id_across_blocks(path):
    raw = bytearray(path.read_bytes())
    first, later = (12 + 2 + k * SEGMENT_RECORD for k in (1, 12))
    raw[later : later + 4] = raw[first : first + 4]
    path.write_bytes(bytes(raw))


def _zero_row_in_a_later_block(path):
    raw = bytearray(path.read_bytes())
    start = 12 + 15 * SEGMENT_RECORD + 6
    raw[start : start + 4 * SEGMENT_DIM] = bytes(4 * SEGMENT_DIM)
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("fault, error, message", [
    (_repeat_id_across_blocks, DuplicateId, "appears twice"),
    (_zero_row_in_a_later_block, ZeroNorm, "has no direction"),
    (lambda path: path.write_bytes(path.read_bytes()[:-4]), DimMismatch, "runs past end of file"),
    (lambda path: path.write_bytes(path.read_bytes() + b"xx"), SchemaError, "2 trailing bytes"),
])
def test_eval_streamed_fault_exits_one_and_writes_nothing(
    tmp_path, rng, monkeypatch, capsys, fault, error, message
):
    files, _ = make_embedding_files(tmp_path, rng)
    seg_path = tmp_path / "segments.emb"
    write_shuffled_segments(seg_path, rng)
    fault(seg_path)
    monkeypatch.setattr(G, "BLOCK_ROWS", 7)
    files["train"] = seg_path
    out = tmp_path / "report"
    assert full_eval(files, out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(error, match=message):
        list(G.read_embedding_blocks(seg_path))


def test_eval_holds_one_block_of_the_training_segments(tmp_path, rng, monkeypatch):
    n, d = 2048, 256
    seg_path = tmp_path / "segments.emb"
    ids = [f"s{i:05d}" for i in rng.permutation(n)]
    write_raw(seg_path, EMB_MAGIC, ids, rng.normal(size=(n, d)))
    gen = RecordSet.from_records([f"g{i:03d}" for i in range(50)], rng.normal(size=(50, d)))
    gen_path = tmp_path / "gen.emb"
    save_embedding_set(gen_path, gen)
    monkeypatch.setattr(G, "BLOCK_ROWS", 128)  # 16 blocks
    tracemalloc.start()
    try:
        code = run(["eval", "--gen-emb", gen_path, "--train-seg-emb", seg_path,
                    "--out", tmp_path / "report"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < (n * d * 8) / 2 + gen.rows.nbytes


def test_usage_error_exits_one():
    assert main(["mix", "--strategy", "nonsense"]) == 1


@pytest.mark.parametrize("argv, flag", [
    (["eval", "--gen-emb", "gen.emb", "--thresholds", "1.5"], "--thresholds"),
    (["eval", "--gen-emb", "gen.emb", "--thresholds", "0.9,abc"], "--thresholds"),
    (["mix", "--manifest", "m.json", "--strategy", "bam", "--count", "1", "--p", "1.5"], "--p"),
    # segment's length and group's width are constants: no flag sets them
    (["segment", "--manifest", "m.json", "--seconds", "0"], "--seconds"),
    (["fit-codec", "--manifest", "m.json", "-C", "0"], "--components"),
    (["fit-codec", "--manifest", "m.json", "-P", "0"], "--patch"),
    (["fit-codec", "--manifest", "m.json", "-C", "65"], "--components 65 exceeds"),
    (["group", "--manifest", "m.json", "--bucket-width", "nan"], "--bucket-width"),
    (["group", "--manifest", "m.json", "--bucket-width", "inf"], "--bucket-width"),
    (["mix", "--manifest", "m.json", "--strategy", "bam", "--count", "-3"], "--count"),
    (["mix", "--manifest", "m.json", "--strategy", "bam", "--count", "1", "--seed", "-1"],
     "--seed"),
    (["analyze", "--manifest", "m.json", "--workers", "0"], "--workers"),
    # no stage takes a settings file (ingest's case is the last one)
    *[
        (stage + ["--manifest", "m.json", "--config", "beatmix.cfg"],
         "unrecognized arguments: --config")
        for stage in (["analyze"], ["group"], ["fit-codec"], ["segment"],
                      ["mix", "--strategy", "bam", "--count", "1"])
    ],
    # report.json would key both as "0.00" and keep one result
    (["eval", "--gen-emb", "gen.emb", "--thresholds", "0.001,0.004"], "distinct to two decimals"),
    (["ingest", "corpus", "--config", "beatmix.cfg"], "unrecognized arguments: --config"),
])
def test_out_of_range_argument_exits_one_before_any_io(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)  # no file the arguments name exists
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert flag in err and "not found" not in err
    assert os.listdir(tmp_path) == []


def _latin1(path, text):
    """Write ``text`` to ``path`` in Latin-1, which is not UTF-8 once it holds an e-acute."""
    path.write_bytes(text.encode("latin-1"))


def _non_utf8_captions(tmp):
    bad = tmp / "captions.json"
    _latin1(bad, '{"track00": "café"}')
    return ["ingest", tmp / "corpus", "--manifest", tmp / "manifest.json", "--captions", bad], bad


def _non_utf8_caption_txt(tmp):
    bad = tmp / "corpus" / "track01.txt"
    _latin1(bad, "café")
    return ["ingest", tmp / "corpus", "--manifest", tmp / "manifest.json"], bad


def _non_utf8_manifest(tmp):
    bad = tmp / "manifest.json"
    run(["ingest", tmp / "corpus", "--manifest", bad])
    _latin1(bad, bad.read_text().replace("click track", "café"))
    return ["analyze", "--manifest", bad], bad


def _non_utf8_sidecar(tmp):
    manifest = tmp / "manifest.json"
    run(["ingest", tmp / "corpus", "--manifest", manifest])
    write_external_sidecars((tmp / "corpus").glob("*.wav"))
    run(["analyze", "--manifest", manifest, "--external-beats"])
    run(["group", "--manifest", manifest])
    bad = tmp / "corpus" / "track01.beats.json"
    _latin1(bad, bad.read_text().replace("external", "café"))
    return MIX + ["--manifest", manifest, "--out", tmp / "mixes"], bad


def _tree(root):
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


@pytest.mark.parametrize("setup", [
    _non_utf8_captions, _non_utf8_caption_txt, _non_utf8_manifest, _non_utf8_sidecar,
], ids=["captions", "caption-txt", "manifest", "sidecar"])
def test_non_utf8_text_input_exits_one_naming_it(corpus, capsys, setup):
    argv, bad = setup(corpus)
    before = _tree(corpus)
    capsys.readouterr()
    assert run(argv) == 1
    assert f"error: {bad}: " in capsys.readouterr().err
    assert _tree(corpus) == before


@pytest.fixture(scope="module")
def grouped_manifest(tmp_path_factory):
    """The manifest text of an ingested, analyzed and grouped corpus."""
    tmp = tmp_path_factory.mktemp("grouped")
    write_corpus(tmp / "corpus", [117, 118, 90, 91], duration_s=14.0)
    manifest = tmp / "manifest.json"
    for stage in (["ingest", tmp / "corpus"], ["analyze"], ["group"]):
        assert run(stage + ["--manifest", manifest]) == 0
    return manifest.read_text()


MIX = ["mix", "--strategy", "bam", "--count", "2"]
# every setting a manifest once stored: a stage that read it and a value out of its range
EDITS = {
    "bucket_width": (["group"], 0),
    "segment_seconds": (["segment"], 0),
    "mix_p": (MIX, 2),
    "hop": (["analyze"], 0),
    "window": (["analyze"], 0),
    "fft_size": (["analyze"], 512),
    "n_mels": (["analyze"], 0),
    "fmin": (["analyze"], -1),
    "fmax": (["analyze"], 9000),
    "log_floor": (["analyze"], float("nan")),
    "clip_samples": (MIX, 0),
    "gl_iterations": (MIX, 0),
}


@pytest.mark.parametrize("key, value", [
    *[(key, value) for key, (_, bad) in EDITS.items() for value in (bad, "abc")],
    ("hop", None), pytest.param("mix_p", 10**400, id="mix_p-1e400"),
    ("hop", 160.5), ("clip_samples", 163840.9), ("hop", True), ("mix_p", True),
])
def test_hand_edited_setting_exits_one_naming_manifest_and_key(
    grouped_manifest, tmp_path, monkeypatch, capsys, key, value
):
    # the settings are constants: one written into the manifest is refused, not ignored
    monkeypatch.chdir(tmp_path)  # where mix's default --out would go
    payload = json.loads(grouped_manifest)
    payload["config"] = {key: value}
    with open("manifest.json", "w") as fh:
        json.dump(payload, fh)
    assert run(EDITS[key][0] + ["--manifest", "manifest.json"]) == 1
    err = capsys.readouterr().err
    assert "error: manifest.json: bad key config = {" in err and repr(key) in err
    assert "a manifest stores no settings" in err
    assert os.listdir() == ["manifest.json"]
@pytest.mark.parametrize("stage, field, value", [
    (["segment"], "n_samples", "lots"),
    (["group"], "tempo_bpm", "fast"),
    (MIX, "beats_path", 7),
    (["segment"], "n_samples", 10.5),
])
def test_hand_edited_entry_field_exits_one_naming_manifest_track_and_field(
    grouped_manifest, tmp_path, monkeypatch, capsys, stage, field, value
):
    monkeypatch.chdir(tmp_path)
    payload = json.loads(grouped_manifest)
    payload["entries"][1][field] = value
    with open("manifest.json", "w") as fh:
        json.dump(payload, fh)
    assert run(stage + ["--manifest", "manifest.json"]) == 1
    err = capsys.readouterr().err
    assert f"error: manifest.json: track 'track01': field {field} is {value!r}, expected" in err
    assert os.listdir() == ["manifest.json"]


@pytest.mark.parametrize("key, value, message", [
    pytest.param("root", 7, "root must be a string", id="root-7"),
    pytest.param("config", 5, "bad key config = 5", id="config-5"),
    pytest.param("config", ["a"], "bad key config = ['a']", id="config-value2"),
])
def test_hand_edited_manifest_root_or_config_type_exits_one(
    grouped_manifest, tmp_path, monkeypatch, capsys, key, value, message
):
    monkeypatch.chdir(tmp_path)
    payload = json.loads(grouped_manifest)
    payload[key] = value
    with open("manifest.json", "w") as fh:
        json.dump(payload, fh)
    assert run(["analyze", "--manifest", "manifest.json"]) == 1
    assert f"error: manifest.json: {message}" in capsys.readouterr().err


def test_mix_without_eligible_downbeat_creates_no_out(tmp_path, capsys):
    root = tmp_path / "corpus"
    write_corpus(root, [117, 118], duration_s=9.0)  # shorter than one 10.24 s clip
    manifest, out = tmp_path / "manifest.json", tmp_path / "mixes"
    run(["ingest", root, "--manifest", manifest])
    assert run(["analyze", "--manifest", manifest]) == 0
    assert run(MIX + ["--manifest", manifest, "--out", out]) == 1
    assert "no track offers a downbeat" in capsys.readouterr().err
    assert not out.exists()


def test_mix_refuses_a_track_edited_since_analyze(corpus, capsys):
    manifest, out = corpus / "manifest.json", corpus / "mixes"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    assert run(["analyze", "--manifest", manifest]) == 0
    track = corpus / "corpus" / "track00.wav"
    x, _ = click_track(117, 14.0, t0=0.45, bass_phase=0, seed=0)  # same length, clicks 0.2 s later
    save_wav(track, x)
    mix = ["mix", "--manifest", manifest, "--strategy", "bam", "--count", "20", "--p", "1",
           "--out", out]
    assert run(mix) == 1
    err = capsys.readouterr().err
    assert "error: track00.wav changed since it was analyzed; run `beatmix analyze`" in err
    assert not out.exists()
    assert run(["analyze", "--manifest", manifest]) == 0
    assert run(mix) == 0


def test_fit_codec_decode_error_names_the_track(corpus, capsys):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    assert run(["analyze", "--manifest", manifest]) == 0
    add_stray_bytes(corpus / "corpus" / "track01.wav", 1)
    shutil.rmtree(corpus / wavio.NORMALIZED_CACHE)
    shutil.rmtree(_mels_dir(corpus))
    assert run(["fit-codec", "--manifest", manifest, "-C", "4"]) == 1
    err = capsys.readouterr().err
    assert "error: track01.wav: data chunk is not a whole number of frames" in err


# --- the fingerprint file: a WAV is hashed again unless its stat vouches for it ---

def _flip_bytes_in_place(path):
    """Change 4000 bytes of the data chunk with an r+b write: the file keeps
    its size and its inode."""
    offset = os.path.getsize(path) // 4 * 2
    with open(path, "r+b") as fh:
        fh.seek(offset)
        block = fh.read(4000)
        fh.seek(offset)
        fh.write(bytes(b ^ 1 for b in block))


def _edit_in_the_racy_window(track, fingerprints, monkeypatch):
    # An edit in the timestamp tick of the stat taken before hashing leaves the
    # stat as recorded: the record holds the old hash with the edited file's
    # stat, taken a moment after the edit.
    old = content_hash(track)
    _flip_bytes_in_place(track)
    known = load_fingerprints(fingerprints)
    known[str(track)].update(fingerprint(track))
    fingerprints.write_text(json.dumps(known))
    with monkeypatch.context() as m:
        m.setattr(manifest_mod, "RACY_NS", 0)
        assert trusted_hash(track, load_fingerprints(fingerprints)) == old  # the stat shows nothing


def _edit_and_set_mtime_back(track, fingerprints, monkeypatch):
    monkeypatch.setattr(manifest_mod, "RACY_NS", 0)
    before = os.stat(track)
    time.sleep(0.05)  # past the file system's timestamp tick
    _flip_bytes_in_place(track)
    os.utime(track, ns=(before.st_atime_ns, before.st_mtime_ns))  # touch -r
    after = os.stat(track)
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
        before.st_ino, before.st_size, before.st_mtime_ns)
    assert after.st_ctime_ns != before.st_ctime_ns


def _edit_advancing_mtime(track, fingerprints, monkeypatch):
    monkeypatch.setattr(manifest_mod, "RACY_NS", 0)
    before = os.stat(track)
    time.sleep(0.05)
    _flip_bytes_in_place(track)
    assert os.stat(track).st_mtime_ns > before.st_mtime_ns


@pytest.mark.parametrize("edit", [
    _edit_in_the_racy_window, _edit_and_set_mtime_back, _edit_advancing_mtime,
])
@pytest.mark.parametrize("stage", ["analyze", "mix"])
def test_an_edit_after_fingerprinting_is_seen(corpus, monkeypatch, capsys, edit, stage):
    manifest, fingerprints = corpus / "manifest.json", corpus / manifest_mod.FINGERPRINTS
    track = corpus / "corpus" / "track00.wav"
    assert run(["ingest", corpus / "corpus", "--manifest", manifest]) == 0
    with monkeypatch.context() as m:
        m.setattr(manifest_mod, "RACY_NS", 0)
        assert run(["analyze", "--manifest", manifest]) == 0  # now every record vouches
    assert trusted_hash(track, load_fingerprints(fingerprints)) is None  # written just now
    edit(track, fingerprints, monkeypatch)
    capsys.readouterr()
    if stage == "analyze":
        assert run(["analyze", "--manifest", manifest]) == 0
        assert "1 analyzed, 3 cached, 0 failed" in capsys.readouterr().err
        assert load_manifest(manifest).by_id()["track00"].content_hash == content_hash(track)
    else:
        out = corpus / "mixes"
        assert run(["mix", "--manifest", manifest, "--strategy", "bam", "--count", "20",
                    "--p", "1", "--out", out]) == 1
        err = capsys.readouterr().err
        assert "error: track00.wav changed since it was analyzed; run `beatmix analyze`" in err
        assert not out.exists()


def _count_hashing(monkeypatch):
    """Count the WAVs that the stages hash: every ``content_hash`` and
    ``probe_wav`` call, through the modules that call them."""
    hashed = []
    real_hash, real_probe = manifest_mod.content_hash, wavio.probe_wav

    def counting_hash(path):
        hashed.append(os.path.basename(path))
        return real_hash(path)

    def counting_probe(path):
        hashed.append(os.path.basename(path))
        return real_probe(path)

    monkeypatch.setattr(manifest_mod, "content_hash", counting_hash)
    monkeypatch.setattr(wavio, "probe_wav", counting_probe)
    return hashed


FIT = ["fit-codec", "-C", "4"]


@pytest.mark.parametrize("damage", [
    lambda text: text[: len(text) // 2],  # truncated
    lambda text: "not json",
    lambda text: "[]",
    lambda text: text.replace('"stat": [', '"stat": ["0", '),  # six values, one a string
    lambda text: re.sub(r'"sha256": "[0-9a-f]+"', '"sha256": "../x"', text, count=1),
    lambda text: None,  # deleted
], ids=["truncated", "not-json", "a-list", "bad-stat", "bad-hash", "deleted"])
def test_a_damaged_or_deleted_fingerprint_file_means_hashing_again(corpus, monkeypatch, damage):
    monkeypatch.setattr(manifest_mod, "RACY_NS", 0)
    manifest, fingerprints = corpus / "manifest.json", corpus / manifest_mod.FINGERPRINTS
    assert run(["ingest", corpus / "corpus", "--manifest", manifest]) == 0
    assert run(["analyze", "--manifest", manifest]) == 0
    intact = fingerprints.read_text()
    hashed = _count_hashing(monkeypatch)
    assert run(FIT + ["--manifest", manifest]) == 0
    assert hashed == []
    damaged = damage(intact)
    if damaged is None:
        fingerprints.unlink()
    else:
        fingerprints.write_text(damaged)
    assert run(FIT + ["--manifest", manifest]) == 0
    assert sorted(hashed) == [f"track{i:02d}.wav" for i in range(4)]
    rebuilt = load_fingerprints(fingerprints)
    assert sorted(rebuilt) == sorted(str(p) for p in (corpus / "corpus").glob("*.wav"))
    assert run(FIT + ["--manifest", manifest]) == 0
    assert len(hashed) == 4


def test_a_fingerprint_is_never_used_for_another_path(corpus, monkeypatch, capsys):
    monkeypatch.setattr(manifest_mod, "RACY_NS", 0)
    manifest, fingerprints = corpus / "manifest.json", corpus / manifest_mod.FINGERPRINTS
    root = corpus / "corpus"
    assert run(["ingest", root, "--manifest", manifest]) == 0
    assert run(["analyze", "--manifest", manifest]) == 0
    # track01's record moves to another path, and track00's record (another
    # hash) to track01's path: neither vouches for track01
    known = load_fingerprints(fingerprints)
    record = known.pop(str(root / "track01.wav"))
    known[str(root / "moved.wav")] = {**record, "sha256": "0" * 64}
    known[str(root / "track01.wav")] = known[str(root / "track00.wav")]
    fingerprints.write_text(json.dumps(known))
    hashed = _count_hashing(monkeypatch)
    assert run(["mix", "--manifest", manifest, "--strategy", "bam", "--count", "20", "--p", "1",
                "--out", corpus / "mixes"]) == 0
    assert hashed == ["track01.wav"]
    again = load_fingerprints(fingerprints)
    assert again[str(root / "track01.wav")]["sha256"] == content_hash(root / "track01.wav")


def test_a_fingerprint_file_that_cannot_be_written_fails_no_stage(corpus, monkeypatch):
    manifest = corpus / "manifest.json"
    assert run(["ingest", corpus / "corpus", "--manifest", manifest]) == 0
    assert run(["analyze", "--manifest", manifest]) == 0
    (corpus / manifest_mod.FINGERPRINTS).unlink()

    def read_only(path, data):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(manifest_mod, "atomic_write", read_only)
    assert run(FIT + ["--manifest", manifest]) == 0
    assert run(["mix", "--manifest", manifest, "--strategy", "bam", "--count", "2",
                "--out", corpus / "mixes"]) == 0
    assert not (corpus / manifest_mod.FINGERPRINTS).exists()


def test_each_wav_is_read_twice_and_hashed_once_across_the_pipeline(corpus, monkeypatch):
    # ingest reads and hashes each WAV; the first analyze reads it to decode
    # it; every later stage trusts its fingerprint and its cached samples.
    # More analyze threads than cores: no thread's record may be lost.
    monkeypatch.setattr(manifest_mod, "RACY_NS", 0)
    root, manifest = corpus / "corpus", corpus / "manifest.json"
    opened, digests = [], []
    real_open, real_sha256 = open, hashlib.sha256

    def counting_open(file, *args, **kwargs):
        if str(file).endswith(".wav") and os.path.dirname(os.path.abspath(file)) == str(root):
            opened.append(os.path.basename(file))
        return real_open(file, *args, **kwargs)

    class CountingSha256:
        def __init__(self, data=b""):
            self._h = real_sha256(data)

        def update(self, data):
            self._h.update(data)

        def digest(self):
            return self._h.digest()

        def hexdigest(self):
            digests.append(self._h.hexdigest())
            return digests[-1]

    monkeypatch.setattr("builtins.open", counting_open)
    monkeypatch.setattr(hashlib, "sha256", CountingSha256)
    for stage in (["ingest", root], ["analyze", "--workers", "3"], ["analyze"], FIT,
                  ["mix", "--strategy", "bam", "--count", "20", "--p", "1",
                   "--out", corpus / "mixes"]):
        assert run(stage + ["--manifest", manifest]) == 0
    monkeypatch.undo()
    wavs = sorted(os.listdir(root))
    wavs = [name for name in wavs if name.endswith(".wav")]
    assert len(wavs) == 4
    assert sorted(opened) == sorted(wavs * 2)
    counts = Counter(digests)
    assert [counts[content_hash(root / name)] for name in wavs] == [1] * 4


def write_codec_file(path, patch, components):
    """A codec file of this header whose stored hash matches its payload."""
    p2 = patch * patch
    payload = np.zeros(p2 + components * p2, "<f4").tobytes()  # the mean, then the basis
    digest = hashlib.sha256(struct.pack("<II", patch, components) + payload).digest()
    path.write_bytes(b"BMPC" + struct.pack("<III", 1, patch, components) + digest + payload)


@pytest.mark.parametrize("patch, components", [(1, 2), (0, 0), (2, 0)])
def test_codec_header_out_of_range_exits_one(
    grouped_manifest, tmp_path, monkeypatch, capsys, patch, components
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "manifest.json").write_text(grouped_manifest)
    write_codec_file(tmp_path / "bad.bin", patch, components)
    assert run(MIX + ["--strategy", "blm", "--p", "1", "--manifest", "manifest.json",
                      "--codec", "bad.bin", "--out", "mixes"]) == 1
    assert f"error: bad.bin: P={patch}, C={components} is no codec" in capsys.readouterr().err
    assert sorted(os.listdir()) == ["bad.bin", "manifest.json"]


@pytest.mark.parametrize("argv", [
    ["ingest", "{root}", "--manifest", "{out}"],
    ["fit-codec", "--manifest", "manifest.json", "-C", "4", "--out", "{out}"],
    ["segment", "--manifest", "manifest.json", "--out", "{out}"],
], ids=lambda argv: argv[0])
def test_output_in_a_missing_directory_exits_one_naming_it(
    grouped_manifest, tmp_path, monkeypatch, capsys, argv
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "manifest.json").write_text(grouped_manifest)
    out = tmp_path / "nodir" / "output"
    root = json.loads(grouped_manifest)["root"]
    assert run([arg.format(root=root, out=out) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert f"error: {out}: not found" in err and ".tmp-" not in err
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--manifest", "{dir}"],
    ["eval", "--gen-emb", "{dir}", "--out", "{dir}/report"],
], ids=["manifest", "gen-emb"])
def test_unreadable_input_path_exits_one(tmp_path, capsys, argv):
    unreadable = tmp_path / "a-directory"
    unreadable.mkdir()
    assert run([arg.format(dir=unreadable) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert f"error: {unreadable}: " in err and "Traceback" not in err


def test_unchanged_manifest_is_not_rewritten(tmp_path):
    path = tmp_path / "manifest.json"
    manifest = Manifest(root="corpus")
    save_manifest(manifest, path)
    before = os.stat(path)
    save_manifest(manifest, path)
    after = os.stat(path)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    manifest.root = "elsewhere"
    save_manifest(manifest, path)
    assert os.stat(path).st_ino != before.st_ino
    assert load_manifest(path).root == "elsewhere"


def _inodes_and_mtimes(directory):
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in directory.iterdir()}


def test_rerun_with_the_same_bytes_replaces_no_output(corpus, rng):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    assert run(["analyze", "--manifest", manifest]) == 0
    mixes = corpus / "mixes"
    mix = ["mix", "--manifest", manifest, "--strategy", "bam", "--count", "4", "--p", "1",
           "--out", mixes]
    assert run(mix) == 0
    first = _inodes_and_mtimes(mixes)
    assert len(first) == 8  # a WAV and a mixspec per clip
    for _ in range(2):
        assert run(mix) == 0
        assert _inodes_and_mtimes(mixes) == first

    files, _ = make_embedding_files(corpus, rng)
    report = corpus / "report"
    assert full_eval(files, report) == 0
    reports = _inodes_and_mtimes(report)
    assert full_eval(files, report) == 0
    assert _inodes_and_mtimes(report) == reports

    # changed bytes are still replaced
    old = {name: (mixes / name).read_bytes() for name in first}
    assert run(mix + ["--seed", "1"]) == 0
    changed = [name for name in first if (mixes / name).read_bytes() != old[name]]
    assert changed
    for name in changed:
        assert (mixes / name).stat().st_ino != first[name][0]
    assert run(["eval", "--gen-emb", files["gen"], "--train-seg-emb", files["gen"],
                "--out", report]) == 0
    assert (report / "report.json").stat().st_ino != reports["report.json"][0]


def test_readme_names_only_flags_the_cli_accepts():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    # the Benchmark section's flags are perfbench/run.py's
    before, _, rest = text.partition("\n## Benchmark\n")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", before + rest.partition("\n## ")[2]))
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        flag
        for command in subparsers.choices.values()
        for action in command._actions
        for flag in action.option_strings
    }
    assert "--p" in named and named - accepted == set()


# --- internal faults ---------------------------------------------------------------

@pytest.mark.parametrize("fault", [
    RuntimeError("boom"), KeyError("track00"), OSError("no file named"),
], ids=["runtime", "key", "oserror-without-filename"])
def test_internal_fault_exits_two_with_one_line(monkeypatch, capsys, fault):
    def failing(args):
        raise fault

    monkeypatch.setattr(cli, "cmd_segment", failing)
    assert run(["segment", "--manifest", "manifest.json"]) == 2
    err = capsys.readouterr().err
    assert err == f"internal error: {type(fault).__name__}: {fault}\n"


def test_keyboard_interrupt_is_not_caught(monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_segment", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(["segment", "--manifest", "manifest.json"])


# --- crash safety ------------------------------------------------------------------

def _codec(rng):
    return codec_mod.fit([rng.normal(size=(64, 64))], n_components=4, patch_size=8)


ARTIFACT_WRITERS = {
    "wav": lambda path, rng: save_wav(path, rng.uniform(-0.5, 0.5, 1600)),
    "codec": lambda path, rng: codec_mod.save(_codec(rng), path),
    "beats": lambda path, rng: save_beat_annotation(
        BeatGrid(120.0, np.arange(0.0, 8.0, 0.5), np.arange(0.0, 8.0, 2.0)), path
    ),
    "manifest": lambda path, rng: save_manifest(Manifest(root="."), path),
    # a cache miss writes the normalized samples into the artifact's directory
    "normalized": lambda path, rng: _normalize_source(path, rng),
    "embeddings": lambda path, rng: save_embedding_set(
        path, RecordSet.from_records(["a"], rng.normal(size=(1, 4)))
    ),
}


def _source_wav(directory, rng):
    path = directory / "source.wav"
    path.write_bytes(wav_bytes(rng.uniform(-0.5, 0.5, 1600)))
    return path


def _normalize_source(path, rng):
    source = _source_wav(path.parent.parent, rng)
    return load_normalized(source, path.parent, content_hash(source))


def _failing_rename(src, dst):
    raise OSError("rename failed")


@pytest.mark.parametrize("kind", sorted(ARTIFACT_WRITERS))
def test_failed_rename_leaves_no_file(tmp_path, rng, monkeypatch, kind):
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(os, "replace", _failing_rename)
    with pytest.raises(OSError, match="rename failed"):
        ARTIFACT_WRITERS[kind](out / "artifact", rng)
    assert os.listdir(out) == []


def test_eval_failed_rename_leaves_no_report(tmp_path, rng, monkeypatch, capsys):
    files, _ = make_embedding_files(tmp_path, rng)
    monkeypatch.setattr(os, "replace", _failing_rename)
    assert full_eval(files, tmp_path / "report") == 2  # an OSError naming no file
    assert "internal error: OSError: rename failed" in capsys.readouterr().err
    assert os.listdir(tmp_path / "report") == []


# --- artifact form ------------------------------------------------------------------

def test_every_json_artifact_is_canonical(tmp_path, rng):
    write_corpus(tmp_path / "corpus", [117, 118], duration_s=12.0)
    manifest = tmp_path / "manifest.json"
    for stage in (
        ["ingest", tmp_path / "corpus"], ["analyze"], ["group"], ["fit-codec"],
        MIX + ["--p", "1", "--out", tmp_path / "mixes"], ["segment"],
    ):
        assert run(stage + ["--manifest", manifest]) == 0
    files, _ = make_embedding_files(tmp_path, rng)
    assert full_eval(files, tmp_path / "report") == 0
    sidecars = sorted((tmp_path / "corpus").glob("*.beats.json"))
    mixspecs = sorted((tmp_path / "mixes").glob("*.mixspec.json"))
    assert len(sidecars) == len(mixspecs) == 2
    for path in [manifest, *sidecars, *mixspecs, tmp_path / "segments.json",
                 tmp_path / "report" / "report.json", tmp_path / "report" / "nn_audit.json"]:
        data = path.read_bytes()
        assert data == canonical_json(json.loads(data)).encode("utf-8"), path
