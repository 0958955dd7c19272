import json
import os
import shutil
import sys
import threading

import numpy as np
import pytest

from beatmix import codec as codec_mod
from beatmix import wavio
from beatmix.beats import BeatGrid, save_beat_annotation
from beatmix.cli import _SETTINGS, main
from beatmix.dsp import Waveform
from beatmix.manifest import Manifest, content_hash, save_manifest
from beatmix.gateway import (
    EMB_MAGIC,
    POS_MAGIC,
    RecordSet,
    save_embedding_set,
    save_posterior_set,
)
from beatmix.wavio import load_normalized, load_wav, save_wav, wav_bytes
from synth import click_track
from test_gateway import write_raw
from test_wavio import write_raw_wav, write_short_fmt_wav


def write_corpus(root, bpms, duration_s=16.0, captions=True, bass_phase=0):
    os.makedirs(root, exist_ok=True)
    for i, bpm in enumerate(bpms):
        x, _ = click_track(bpm, duration_s, bass_phase=bass_phase, seed=i)
        save_wav(os.path.join(root, f"track{i:02d}.wav"), Waveform(x, 16000))
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
        assert e["n_samples"] == load_wav(path).samples.size


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


def test_ingest_duplicate_basename(tmp_path):
    root = tmp_path / "corpus"
    (root / "sub").mkdir(parents=True)
    x, _ = click_track(120, 12.0)
    save_wav(root / "a.wav", Waveform(x, 16000))
    save_wav(root / "sub" / "a.wav", Waveform(x, 16000))
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
    save_wav(root / "silence.wav", Waveform(np.zeros(14 * 16000), 16000))
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


def test_group_assigns_buckets(corpus):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    run(["analyze", "--manifest", manifest])
    assert run(["group", "--manifest", manifest, "--bucket-width", "4"]) == 0
    payload = json.loads(manifest.read_text())
    groups = {e["id"]: e["group_id"] for e in payload["entries"]}
    assert groups["track00"] == groups["track01"]  # 117 and 118
    assert groups["track02"] == groups["track03"]  # 90 and 91
    assert groups["track00"] != groups["track02"]


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
    cache = corpus / wavio.NORMALIZED_CACHE

    def fit(name, cold):
        if cold:
            shutil.rmtree(cache)
        assert run(["fit-codec", "--manifest", manifest, "-C", "4", "--out", corpus / name]) == 0
        return (corpus / name).read_bytes()

    assert fit("cold.bin", cold=True) == fit("warm.bin", cold=False)
    assert set(json.loads(manifest.read_text())["config"]) == {"codec_path"}
    track = corpus / "corpus" / "track00.wav"
    x, _ = click_track(140, 14.0, seed=99)
    save_wav(track, Waveform(x, 16000))  # rewritten after analyze
    fresh = fit("fresh.bin", cold=False)
    assert fresh != (corpus / "warm.bin").read_bytes()
    assert np.load(cache / f"{content_hash(track)}.npy").tobytes() == load_wav(track).samples.tobytes()
    assert fresh == fit("fresh_cold.bin", cold=True)


def test_mix_pairs_only_equal_manifest_groups(corpus):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    run(["analyze", "--manifest", manifest])
    assert run(["group", "--manifest", manifest]) == 0
    group_of = {e["id"]: e["group_id"] for e in json.loads(manifest.read_text())["entries"]}
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
            assert load_wav(out / name).samples.size == 163840


def test_segment_counting(tmp_path, capsys):
    root = tmp_path / "corpus"
    write_corpus(root, [120], duration_s=35.0)
    write_corpus_short = os.path.join(root, "short.wav")
    x, _ = click_track(120, 9.0)
    save_wav(write_corpus_short, Waveform(x, 16000))
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


def test_usage_error_exits_one():
    assert main(["mix", "--strategy", "nonsense"]) == 1


@pytest.mark.parametrize("argv, flag", [
    (["eval", "--gen-emb", "gen.emb", "--thresholds", "1.5"], "--thresholds"),
    (["eval", "--gen-emb", "gen.emb", "--thresholds", "0.9,abc"], "--thresholds"),
    (["mix", "--manifest", "m.json", "--strategy", "bam", "--count", "1", "--p", "1.5"], "--p"),
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
    # settings are fixed at ingest; the later stages take no --config
    *[
        (stage + ["--manifest", "m.json", "--config", "beatmix.cfg"],
         "unrecognized arguments: --config")
        for stage in (["analyze"], ["group"], ["fit-codec"], ["segment"],
                      ["mix", "--strategy", "bam", "--count", "1"])
    ],
])
def test_out_of_range_argument_exits_one_before_any_io(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)  # no file the arguments name exists
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert flag in err and "not found" not in err
    assert os.listdir(tmp_path) == []


def test_segment_length_out_of_range_exits_one(corpus, capsys):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    out = corpus / "segments.json"
    # positive, but rounds to zero samples at 16 kHz
    assert run(["segment", "--manifest", manifest, "--seconds", "1e-5", "--out", out]) == 1
    assert "shorter than one sample" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", [
    "hop = 0", "window = 0", "fft_size = 512", "n_mels = 0", "sample_rate = 0", "fmin = -1",
    "clip_samples = 0", "gl_iterations = 0", "bucket_width = -1", "segment_seconds = 0",
    "mix_p = 2", "sample_rate = 22050", "log_floor = nan", "log_floor = inf",
])
def test_out_of_range_config_value_exits_one_at_ingest(corpus, capsys, line):
    cfg = corpus / "beatmix.cfg"
    cfg.write_text(line + "\n")
    manifest = corpus / "manifest.json"
    assert run(["ingest", corpus / "corpus", "--manifest", manifest, "--config", cfg]) == 1
    assert str(cfg) in capsys.readouterr().err
    assert not manifest.exists()


def test_hand_edited_signal_setting_exits_one(corpus, capsys):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    payload = json.loads(manifest.read_text())
    payload["config"]["hop"] = 0
    manifest.write_text(json.dumps(payload))
    assert run(["analyze", "--manifest", manifest]) == 1
    assert "need 0 < hop" in capsys.readouterr().err


def test_hand_edited_bucket_width_exits_one(corpus, capsys):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    payload = json.loads(manifest.read_text())
    payload["config"]["bucket_width"] = 0
    manifest.write_text(json.dumps(payload))
    assert run(["group", "--manifest", manifest]) == 1
    err = capsys.readouterr().err
    assert str(manifest) in err and "bad value for bucket_width" in err


@pytest.fixture(scope="module")
def grouped_manifest(tmp_path_factory):
    """The manifest text of an ingested, analyzed and grouped corpus."""
    tmp = tmp_path_factory.mktemp("grouped")
    write_corpus(tmp / "corpus", [117, 118, 90, 91], duration_s=14.0)
    manifest = tmp / "manifest.json"
    for stage in (["ingest", tmp / "corpus"], ["analyze"], ["group"]):
        assert run(stage + ["--manifest", manifest]) == 0
    return manifest.read_text()


def write_edited(manifest_text, key, value):
    """Write the manifest with ``config[key] = value`` to ./manifest.json."""
    payload = json.loads(manifest_text)
    payload["config"][key] = value
    with open("manifest.json", "w") as fh:
        json.dump(payload, fh)


MIX = ["mix", "--strategy", "bam", "--count", "2"]
# every stored setting: a stage that reads it and a value out of its range
HAND_EDITS = {
    "hop": (["analyze"], 0),
    "window": (["analyze"], 0),
    "fft_size": (["analyze"], 512),
    "n_mels": (["analyze"], 0),
    "fmin": (["analyze"], -1),
    "fmax": (["analyze"], 9000),
    "log_floor": (["analyze"], float("nan")),
    "bucket_width": (["group"], 0),
    "clip_samples": (MIX, 0),
    "gl_iterations": (MIX, 0),
    "segment_seconds": (["segment"], 0),
    "mix_p": (MIX, 2),
}


@pytest.mark.parametrize("key, value", [
    *[(key, value) for key, (_, bad) in HAND_EDITS.items() for value in (bad, "abc")],
    ("hop", None), pytest.param("mix_p", 10**400, id="mix_p-1e400"),
    # a JSON float is no integer setting, and a JSON boolean no setting at all
    ("hop", 160.5), ("clip_samples", 163840.9), ("hop", True), ("mix_p", True),
])
def test_hand_edited_setting_exits_one_naming_manifest_and_key(
    grouped_manifest, tmp_path, monkeypatch, capsys, key, value
):
    assert set(HAND_EDITS) == set(_SETTINGS)
    monkeypatch.chdir(tmp_path)  # where mix's default --out would go
    write_edited(grouped_manifest, key, value)
    assert run(HAND_EDITS[key][0] + ["--manifest", "manifest.json"]) == 1
    err = capsys.readouterr().err
    assert "manifest.json: bad" in err and key in err
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


@pytest.mark.parametrize("key, value", [("root", 7), ("config", 5), ("config", ["a"])])
def test_hand_edited_manifest_root_or_config_type_exits_one(
    grouped_manifest, tmp_path, monkeypatch, capsys, key, value
):
    monkeypatch.chdir(tmp_path)
    payload = json.loads(grouped_manifest)
    payload[key] = value
    with open("manifest.json", "w") as fh:
        json.dump(payload, fh)
    assert run(["analyze", "--manifest", "manifest.json"]) == 1
    assert "manifest.json: root must be a string and config an object" in capsys.readouterr().err


@pytest.mark.parametrize("stage", [["analyze"], ["fit-codec"], MIX])
def test_stored_groups_must_match_stored_width(
    grouped_manifest, tmp_path, monkeypatch, capsys, stage
):
    monkeypatch.chdir(tmp_path)
    # 117 BPM is in group 14 at the stored width 4, and in group 7 at width 8
    write_edited(grouped_manifest, "bucket_width", 8.0)
    assert run(stage + ["--manifest", "manifest.json"]) == 1
    assert "inconsistent with tempo" in capsys.readouterr().err
    assert os.listdir() == ["manifest.json"]


def test_mix_without_eligible_downbeat_creates_no_out(corpus, capsys):
    cfg = corpus / "beatmix.cfg"
    cfg.write_text("clip_samples = 10000000\n")  # 625 s clips from 14 s tracks
    manifest, out = corpus / "manifest.json", corpus / "mixes"
    run(["ingest", corpus / "corpus", "--manifest", manifest, "--config", cfg])
    run(["analyze", "--manifest", manifest])
    run(["group", "--manifest", manifest])
    assert run(MIX + ["--manifest", manifest, "--out", out]) == 1
    assert "no track offers a downbeat" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_with_stored_sample_rate_still_runs(corpus):
    # manifests from older versions store keys nothing reads any more: the only
    # sample rate that works, and fit-codec's C and P (codec.bin's header has them)
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    payload = json.loads(manifest.read_text())
    payload["config"].update(sample_rate=16000, codec_components=16, codec_patch=8)
    manifest.write_text(json.dumps(payload))
    for stage in (
        ["analyze"], ["group"], ["mix", "--strategy", "bam", "--count", "2", "--out", corpus / "m"],
        ["segment", "--out", corpus / "segments.json"],
    ):
        assert run(stage + ["--manifest", manifest]) == 0


def test_config_file_overrides(tmp_path, capsys):
    root = tmp_path / "corpus"
    write_corpus(root, [120, 121], duration_s=14.0)
    cfg = tmp_path / "beatmix.cfg"
    cfg.write_text("bucket_width = 8\n# comment\nsegment_seconds = 5\n")
    manifest = tmp_path / "manifest.json"
    run(["ingest", root, "--manifest", manifest, "--config", cfg])
    payload = json.loads(manifest.read_text())
    assert payload["config"]["bucket_width"] == 8
    seg_path = tmp_path / "segments.json"
    run(["segment", "--manifest", manifest, "--out", seg_path])
    segs = json.loads(seg_path.read_text())
    assert segs["seconds"] == 5


# --- crash safety ------------------------------------------------------------------

def _codec(rng):
    return codec_mod.fit([rng.normal(size=(64, 64))], n_components=4, patch_size=8)


ARTIFACT_WRITERS = {
    "wav": lambda path, rng: save_wav(path, Waveform(rng.uniform(-0.5, 0.5, 1600), 16000)),
    "codec": lambda path, rng: codec_mod.save(_codec(rng), path),
    "beats": lambda path, rng: save_beat_annotation(
        BeatGrid(120.0, np.arange(0.0, 8.0, 0.5), np.arange(0.0, 8.0, 2.0)), path
    ),
    "manifest": lambda path, rng: save_manifest(Manifest(root="."), path),
    # a cache miss writes the normalized samples into the artifact's directory
    "normalized": lambda path, rng: load_normalized(_source_wav(path.parent.parent, rng), path.parent),
    "embeddings": lambda path, rng: save_embedding_set(
        path, RecordSet.from_records(["a"], rng.normal(size=(1, 4)))
    ),
}


def _source_wav(directory, rng):
    path = directory / "source.wav"
    path.write_bytes(wav_bytes(Waveform(rng.uniform(-0.5, 0.5, 1600), 16000)))
    return path


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


def test_eval_failed_rename_leaves_no_report(tmp_path, rng, monkeypatch):
    files, _ = make_embedding_files(tmp_path, rng)
    monkeypatch.setattr(os, "replace", _failing_rename)
    with pytest.raises(OSError, match="rename failed"):
        full_eval(files, tmp_path / "report")
    assert os.listdir(tmp_path / "report") == []
