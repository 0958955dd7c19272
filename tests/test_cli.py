import json
import os

import numpy as np
import pytest

from beatmix import codec as codec_mod
from beatmix.beats import BeatGrid, save_beat_annotation
from beatmix.cli import main
from beatmix.dsp import Waveform
from beatmix.manifest import Manifest, save_manifest
from beatmix.gateway import (
    EMB_MAGIC,
    POS_MAGIC,
    RecordSet,
    save_embedding_set,
    save_posterior_set,
)
from beatmix.wavio import save_wav
from synth import click_track
from test_gateway import write_raw


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


def test_ingest_empty_corpus(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert run(["ingest", empty, "--manifest", tmp_path / "m.json"]) == 1


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


def test_mix_seed_reproducibility(corpus):
    manifest = corpus / "manifest.json"
    run(["ingest", corpus / "corpus", "--manifest", manifest])
    run(["analyze", "--manifest", manifest])
    run(["group", "--manifest", manifest])
    out1, out2 = corpus / "m1", corpus / "m2"
    for out in (out1, out2):
        assert run([
            "mix", "--manifest", manifest, "--strategy", "bam",
            "--count", "5", "--seed", "7", "--p", "1.0", "--out", out,
        ]) == 0
    for name in sorted(os.listdir(out1)):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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
    cfg = corpus / "beatmix.cfg"
    cfg.write_text("segment_seconds = 0\n")
    out = corpus / "segments.json"
    assert run(["segment", "--manifest", manifest, "--config", cfg, "--out", out]) == 1
    assert "bad value for segment_seconds" in capsys.readouterr().err
    # positive, but rounds to zero samples at 16 kHz
    assert run(["segment", "--manifest", manifest, "--seconds", "1e-5", "--out", out]) == 1
    assert "shorter than one sample" in capsys.readouterr().err
    assert not out.exists()


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
    "embeddings": lambda path, rng: save_embedding_set(
        path, RecordSet.from_records(["a"], rng.normal(size=(1, 4)))
    ),
}


def _failing_rename(src, dst):
    raise OSError("rename failed")


@pytest.mark.parametrize("kind", sorted(ARTIFACT_WRITERS))
def test_failed_rename_leaves_no_file(tmp_path, rng, monkeypatch, kind):
    monkeypatch.setattr(os, "replace", _failing_rename)
    with pytest.raises(OSError, match="rename failed"):
        ARTIFACT_WRITERS[kind](tmp_path / "artifact", rng)
    assert os.listdir(tmp_path) == []


def test_eval_failed_rename_leaves_no_report(tmp_path, rng, monkeypatch):
    files, _ = make_embedding_files(tmp_path, rng)
    monkeypatch.setattr(os, "replace", _failing_rename)
    with pytest.raises(OSError, match="rename failed"):
        full_eval(files, tmp_path / "report")
    assert os.listdir(tmp_path / "report") == []
