#!/usr/bin/env python3
"""Pipeline and eval benchmark for beatmix.

Drives the real CLI (``beatmix.cli.main``) in a closed loop from one
process: each stage starts when the previous one returns, and the whole
stage sequence repeats until ``--seconds`` are used up. Inputs are
synthesized from ``--seed`` by ``synth.py`` before the timed loop; every
repetition's outputs go through a correctness gate. The timed loop runs in a
child process of its own, so that set-up does not count in its peak memory.
Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-16k --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` interleaves
traced and untraced repetitions and reports the per-layer metrics, the
tracing overhead, and the two kernels on fixed inputs. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. Workload rationale and metric meanings are in README.md.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import synth  # noqa: E402
from tracer import Tracer, beat_dp_cost, nn_cost, self_times  # noqa: E402

SETUPS = 3               # set-ups per run; setup_s is the fastest
CLIP_SAMPLES = 163840    # the README's clip contract: 10.24 s at 16 kHz
TEMPO_TOLERANCE = 2.0    # the README's tempo contract, BPM
# The mix planner's seed is part of the workload, not of its inputs: with
# tempo-group membership also fixed by synth.py, every input seed gets the
# same plan, so the number of clip-cache misses (and so the mix cost) does
# not change from seed to seed.
MIX_SEED = "7"
# Self times under a stage must add up to the stage span's duration; the
# tolerance only absorbs floating-point rounding.
SELF_SUM_TOLERANCE = 1e-6  # s

# Stage sizes of each workload (whether it ends with eval is set in synth.py).
# Why each workload exists, and which layers it loads and bypasses, is
# written down in README.md. The threaded analyze runs on pipeline-16k, where
# eval sets the peak memory: on pipeline-44k the memory glibc's per-thread
# arenas keep varies by tens of MiB from process to process.
WORKLOADS = {
    "pipeline-16k": {"bam_clips": 100, "blm_clips": 2, "workers": 2},
    "pipeline-44k": {"bam_clips": 30, "blm_clips": 0, "workers": 1},
}

# Traced layers: short name -> module (the module objects are bound in main).
LAYERS = ("wavio", "manifest", "dsp", "beats", "kernels", "codec", "mixup", "gateway",
          "metrics", "cli")
STAGES = ("ingest", "analyze", "analyze_cached", "group", "fit_codec", "mix_bam",
          "mix_blm", "segment", "eval")

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "wavio.load_wav.calls": "count", "wavio.load_wav.self_s": "s", "wavio.load_wav.bytes": "B",
    "wavio.resample.calls": "count", "wavio.resample.s": "s",
    "wavio.save_wav.calls": "count", "wavio.save_wav.s": "s",
    "wavio.probe_wav.calls": "count", "wavio.probe_wav.s": "s", "wavio.probe_wav.bytes": "B",
    "manifest.content_hash.calls": "count", "manifest.content_hash.s": "s",
    "manifest.content_hash.bytes": "B",
    "manifest.save_manifest.s": "s", "manifest.load_manifest.s": "s",
    "dsp.mel_spectrogram.calls": "count", "dsp.mel_spectrogram.s": "s",
    "dsp.invert_mel.calls": "count", "dsp.invert_mel.s": "s", "dsp.invert_mel.iterations": "count",
    "beats.analyze_waveform.calls": "count", "beats.analyze_waveform.self_s": "s",
    "beats.estimate_tempo.s": "s", "beats.track_beats.self_s": "s",
    "kernels.beat_dp.calls": "count", "kernels.beat_dp.s": "s", "kernels.beat_dp.frames": "count",
    "kernels.nn_max_dot.calls": "count", "kernels.nn_max_dot.s": "s",
    "kernels.nn_max_dot.flops": "flop_computed", "kernels.nn_max_dot.bytes": "B_computed",
    "codec.fit.self_s": "s", "codec.encode.calls": "count", "codec.encode.s": "s",
    "codec.decode.calls": "count", "codec.decode.s": "s",
    "mixup.plan_mixup_pass.s": "s", "mixup.render_spec.calls": "count",
    "mixup.render_spec.p50_ms": "ms", "mixup.render_spec.p90_ms": "ms",
    "mixup.track_loads_per_track": "ratio", "mixup.mixed_ratio": "ratio",
    "gateway.load_embedding_set.calls": "count", "gateway.load_embedding_set.s": "s",
    "gateway.load_embedding_set.records": "count",
    "gateway.load_posterior_set.calls": "count", "gateway.load_posterior_set.s": "s",
    "gateway.load_posterior_set.records": "count",
    "metrics.frechet_distance.calls": "count", "metrics.frechet_distance.s": "s",
    "metrics.nn_similarity_ratio.calls": "count", "metrics.nn_similarity_ratio.s": "s",
    "metrics.retrieval_max.s": "s", "metrics.inception_score.s": "s", "metrics.paired_kl.s": "s",
    "metrics.build_report.self_s": "s",
    **{f"cli.{stage}.{stat}": "s" for stage in STAGES for stat in ("s", "self_s")},
    "cli.failed": "count",
    "kernels.fixed.beat_dp_36k.s": "s", "kernels.fixed.beat_dp_36k.ops": "ops_computed",
    "kernels.fixed.beat_dp_36k.bytes": "B_computed",
    "kernels.fixed.nn_1000x10000x512.s": "s",
    "kernels.fixed.nn_1000x10000x512.flops": "flop_computed",
    "kernels.fixed.nn_1000x10000x512.bytes": "B_computed",
    "trace.overhead_ratio": "ratio", "trace.spans": "count", "trace.self_sum_error": "s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- provenance -----------------------------------------------------------------

def blas_threads(nproc):
    """(library, threads) of the OpenBLAS that NumPy loaded; caps its thread
    count at nproc."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{info.get('name')} {info.get('version')}"
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            getter = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if getter is None:
                continue
            getter.restype = ctypes.c_int
            if getter() > nproc and setter is not None:
                setter(ctypes.c_int(nproc))
            return name, getter()
    return name, None


def git_sha():
    """HEAD of the checkout, or None outside a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    return None


def provenance(kernels):
    """Everything but the git sha, which the parent process adds; caps the
    BLAS threads at nproc."""
    import numpy as np

    nproc = len(os.sched_getaffinity(0))
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
    package = os.path.join(SRC, "beatmix")
    sources = [p for p in files_under(package) if p.endswith((".py", ".pyx"))]
    blas, threads = blas_threads(nproc)
    return {
        "src_sha256": tree_digest(package, sources),
        "nproc": nproc,
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "kernel_backend": kernels.BACKEND,
    }


# --- helpers ----------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    return sorted(values)[max(0, math.ceil(q / 100 * len(values)) - 1)]


def tree_digest(root, rel_paths):
    h = hashlib.sha256()
    for rel in rel_paths:
        h.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def files_under(root):
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        out.extend(os.path.relpath(os.path.join(dirpath, n), root) for n in sorted(filenames))
    return sorted(out)


def wav_header(path):
    """(format tag, channels, rate, bits, samples) read straight from the RIFF chunks."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        return None
    pos, fmt, n_bytes = 12, None, None
    while pos + 8 <= len(data):
        cid, size = data[pos:pos + 4], struct.unpack_from("<I", data, pos + 4)[0]
        if cid == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", data, pos + 8)
        elif cid == b"data":
            n_bytes = min(size, len(data) - pos - 8)
        pos += 8 + size + (size & 1)
    if fmt is None or n_bytes is None:
        return None
    tag, channels, rate, _, align, bits = fmt
    return tag, channels, rate, bits, n_bytes // max(align, 1)


class Gate:
    """Counts attempted and failed operations and keeps the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


# --- workloads ----------------------------------------------------------------------

class Pipeline:
    """ingest -> analyze -> analyze (cached) -> group -> fit-codec -> mix bam
    -> [mix blm at p=1] -> segment [-> eval], on a synthesized click-track
    corpus and, for eval, synthesized embedding and posterior sets."""

    def __init__(self, name, inputs, work):
        self.cfg = WORKLOADS[name]
        self.n_tracks = synth.PIPELINES[name]["tracks"]
        self.corpus = os.path.join(inputs, "corpus")
        with open(os.path.join(inputs, "truth.json"), encoding="utf-8") as fh:
            self.truth = json.load(fh)
        self.work = work
        self.eval = None
        if "eval" in self.truth:
            self.eval = Eval(os.path.join(inputs, "eval"), work, self.truth["eval"])

    def stages(self):
        w, m = self.work, os.path.join(self.work, "manifest.json")
        mix = ["mix", "--manifest", m, "--seed", MIX_SEED]
        out = [
            ("ingest", ["ingest", self.corpus, "--manifest", m]),
            ("analyze", ["analyze", "--manifest", m, "--workers", str(self.cfg["workers"])]),
            ("analyze_cached", ["analyze", "--manifest", m]),
            ("group", ["group", "--manifest", m]),
            ("fit_codec", ["fit-codec", "--manifest", m, "--out", os.path.join(w, "codec.bin")]),
            ("mix_bam", mix + ["--strategy", "bam", "--count", str(self.cfg["bam_clips"]),
                               "--out", os.path.join(w, "bam")]),
        ]
        if self.cfg["blm_clips"]:
            out.append(("mix_blm", mix + ["--strategy", "blm", "--p", "1", "--count",
                                          str(self.cfg["blm_clips"]),
                                          "--out", os.path.join(w, "blm")]))
        out.append(("segment", ["segment", "--manifest", m,
                                "--out", os.path.join(w, "segments.json")]))
        if self.eval:
            out.append(self.eval.stage())
        return out

    def reset(self):
        for name in os.listdir(self.corpus):
            if name.endswith(".beats.json"):
                os.remove(os.path.join(self.corpus, name))
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)

    def throughputs(self, stage_s):
        out = {
            "analyze_tracks_per_s": self.n_tracks / stage_s["analyze"],
            "fit_codec_tracks_per_s": self.n_tracks / stage_s["fit_codec"],
            "mix_bam_clips_per_s": self.cfg["bam_clips"] / stage_s["mix_bam"],
        }
        if self.cfg["blm_clips"]:
            out["mix_blm_clips_per_s"] = self.cfg["blm_clips"] / stage_s["mix_blm"]
        if self.eval:
            out["eval_s"] = stage_s["eval"]
        return out

    def check(self, gate):
        """Gate every per-track analysis and every clip; return the digest of
        the path-free artifacts and the mix facts the traced run reports."""
        entries = {}
        with contextlib.suppress(OSError, ValueError):
            with open(os.path.join(self.work, "manifest.json"), encoding="utf-8") as fh:
                entries = {e["id"]: e for e in json.load(fh)["entries"]}
        downbeats = {}
        for track_id, bpm in sorted(self.truth["tempo_bpm"].items()):
            entry = entries.get(track_id)
            ok = (entry is not None and entry["analysis_error"] is None
                  and entry["tempo_bpm"] is not None
                  and abs(entry["tempo_bpm"] - bpm) <= TEMPO_TOLERANCE)
            gate.check(ok, f"{track_id}: analysis {entry and entry['analysis_error']!r}, "
                           f"tempo {entry and entry['tempo_bpm']} vs {bpm:.2f}")
            if entry is not None and entry["beats_path"]:
                with open(os.path.join(self.corpus, entry["beats_path"]), encoding="utf-8") as fh:
                    downbeats[track_id] = {round(t * 16000) for t in json.load(fh)["downbeat_times"]}

        artifacts = ["codec.bin", "segments.json"]
        mix_facts = {"clips": 0, "mixed": 0, "tracks": 0}
        for out_dir, count in (("bam", self.cfg["bam_clips"]), ("blm", self.cfg["blm_clips"])):
            used = set()
            for slot in range(count):
                stem = os.path.join(out_dir, f"mix_{slot:05d}")
                wav, spec_path = stem + ".wav", stem + ".mixspec.json"
                full = os.path.join(self.work, wav)
                head = wav_header(full) if os.path.exists(full) else None
                spec = None
                with contextlib.suppress(OSError, ValueError):
                    with open(os.path.join(self.work, spec_path), encoding="utf-8") as fh:
                        spec = json.load(fh)
                ok = head == (1, 1, 16000, 16, CLIP_SAMPLES) and spec is not None
                if ok:
                    pairs = [(spec["track_a"], spec["offset_a"])]
                    if spec["mixed"]:
                        pairs.append((spec["track_b"], spec["offset_b"]))
                    ok = all(off in downbeats.get(tid, ()) for tid, off in pairs)
                    used.update(tid for tid, _ in pairs)
                    mix_facts["clips"] += 1
                    mix_facts["mixed"] += bool(spec["mixed"])
                gate.check(ok, f"{stem}: header {head}, spec {spec}")
                artifacts += [wav, spec_path]
            mix_facts["tracks"] += len(used)
        present = [a for a in artifacts if os.path.exists(os.path.join(self.work, a))]
        sidecars = sorted(n for n in os.listdir(self.corpus) if n.endswith(".beats.json"))
        parts = tree_digest(self.work, present) + tree_digest(self.corpus, sidecars)
        if self.eval:
            parts += self.eval.check(gate)
        return hashlib.sha256(parts.encode()).hexdigest(), mix_facts


class Eval:
    """The eval stage: beatmix eval over synthesized embedding and posterior
    files, with the report written under the pipeline's work directory."""

    def __init__(self, inputs, work, truth):
        self.inputs = inputs
        self.work = work
        self.truth = truth

    def stage(self):
        d = self.inputs
        return ("eval", [
            "eval",
            "--gen-emb", f"pann={d}/gen_pann.emb", "--gen-emb", f"vggish={d}/gen_vggish.emb",
            "--gt-emb", f"pann={d}/gt_pann.emb", "--gt-emb", f"vggish={d}/gt_vggish.emb",
            "--train-seg-emb", f"{d}/segments.emb", "--text-emb", f"{d}/text.emb",
            "--gen-post", f"{d}/gen.post", "--gt-post", f"{d}/gt.post",
            "--out", os.path.join(self.work, "report"),
        ])

    def check(self, gate):
        """Gate the report against the planted near-duplicates; return the
        digest of the report files."""
        report_dir = os.path.join(self.work, "report")
        try:
            with open(os.path.join(report_dir, "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            gate.check(False, f"report.json unreadable: {exc}")
            return ""
        planted = self.truth["planted"]
        for tau, expect in sorted(self.truth["sim_aa"].items()):
            got = report.get("sim_aa", {}).get(tau)
            gate.check(got == expect, f"SIM_AA@{tau} = {got}, planted fraction {expect}")
        audit = {r["gen_id"]: r for r in report.get("nn_audit", [])}
        for gen_id, seg_id in sorted(planted.items()):
            rec = audit.get(gen_id)
            gate.check(rec is not None and rec["segment_id"] == seg_id,
                       f"{gen_id}: audit {rec}, planted source {seg_id}")
        for gen_id, (seg_id, cos) in sorted(self.truth["sampled"].items()):
            rec = audit.get(gen_id)
            gate.check(rec is not None and rec["segment_id"] == seg_id
                       and abs(rec["similarity"] - cos) <= 1e-9,
                       f"{gen_id}: audit {rec}, direct argmax {seg_id} at {cos}")
        names = ["report.json", "report.txt", "nn_audit.json"]
        present = [n for n in names if os.path.exists(os.path.join(report_dir, n))]
        gate.check(present == names, f"report files present: {present}")
        return tree_digest(report_dir, present)


# --- per-layer aggregation -------------------------------------------------------

def layer_values(spans, mix_facts):
    """Per-layer metrics of one traced repetition from its spans."""
    own, excess = self_times(spans)
    values = {}

    def add(key, amount):
        values[key] = values.get(key, 0) + amount

    renders = []
    mix_loads = 0
    # self times under a stage add up to its wall time, once the overlap of
    # children that ran on several threads at once is taken out
    stage_self, stage_wall = {}, {}
    failed = 0
    for span_id, label, start, end, parent, stage, _, exc, extras in spans:
        dur = end - start
        stage_self[stage] = stage_self.get(stage, 0.0) + own[span_id] - excess[span_id]
        if label.startswith("stage."):
            values[f"cli.{stage}.s"] = stage_wall[stage] = dur
            add(f"cli.{stage}.self_s", own[span_id])
            continue
        add(f"{label}.calls", 1)
        add(f"{label}.s", dur)
        add(f"{label}.self_s", own[span_id])
        for key, amount in (extras or {}).items():
            add(f"{label}.{key}", amount)
        if label.startswith("cli."):
            add(f"cli.{stage}.self_s", own[span_id])
        if label == "mixup.render_spec":
            renders.append(dur * 1000.0)
        if label == "wavio.load_wav" and stage.startswith("mix_"):
            mix_loads += 1
        if exc is not None:
            failed += 1
            add(f"cli.{stage}.failed.{exc}", 1)
    values["cli.failed"] = failed
    values["mixup.render_spec.p50_ms"] = percentile(renders, 50)
    values["mixup.render_spec.p90_ms"] = percentile(renders, 90)
    if mix_facts and mix_facts["clips"]:
        values["mixup.track_loads_per_track"] = mix_loads / max(mix_facts["tracks"], 1)
        values["mixup.mixed_ratio"] = mix_facts["mixed"] / mix_facts["clips"]
    values["trace.spans"] = len(spans)
    values["trace.self_sum_error"] = max(
        (abs(stage_self[stage] - wall) for stage, wall in stage_wall.items()), default=0.0
    )
    return values


def fixed_kernels(kernels):
    """bench_kernels.py's two cases on fixed inputs, median of three."""
    import numpy as np

    rng = np.random.default_rng(0)
    env = rng.random(36_000)
    gaps = np.arange(101, dtype=float)
    gaps[0] = 1.0
    penalty = 100.0 * np.log(gaps / 50.0) ** 2
    penalty[0] = np.inf
    n, m, d = 1000, 10_000, 512
    q = rng.normal(size=(n, d))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    r = rng.normal(size=(m, d))
    r /= np.linalg.norm(r, axis=1, keepdims=True)

    def timed(fn):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return median(times)

    dp_s = timed(lambda: kernels.beat_dp(env, penalty, 25, 100, 0.01 * env.max()))
    nn_s = timed(lambda: kernels.nn_max_dot(q, r))
    out = {"kernels.fixed.beat_dp_36k.s": dp_s, "kernels.fixed.nn_1000x10000x512.s": nn_s}
    out.update({f"kernels.fixed.beat_dp_36k.{k}": v
                for k, v in beat_dp_cost(env.size, 100 - 25 + 1).items()})
    out.update({f"kernels.fixed.nn_1000x10000x512.{k}": v for k, v in nn_cost(n, m, d).items()})
    return out


# --- main -----------------------------------------------------------------------------

def set_up(workload, seed, inputs):
    """Set up SETUPS times: synthesize the inputs in a fresh interpreter, then
    start the program cold, as every CLI invocation does (a fresh interpreter
    that imports ``beatmix.cli``). Return the set-up times and the input
    digest of each."""
    cold_start = f"import sys; sys.path.insert(0, {SRC!r}); import beatmix.cli"
    times, digests = [], []
    for _ in range(SETUPS):
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "synth.py"), "--workload", workload,
                        "--seed", str(seed), "--out", inputs], check=True, timeout=120)
        subprocess.run([sys.executable, "-c", cold_start], check=True, timeout=60)
        times.append(time.perf_counter() - start)
        digests.append(tree_digest(inputs, files_under(inputs)))
    return times, digests


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set by the parent process for the child that runs the timed loop
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.inputs:
        return measure_child(args)
    if not os.path.isfile(os.path.join(SRC, "beatmix", "__init__.py")):
        log(f"error: no beatmix sources under {SRC}; run from the root of a checkout")
        return 2

    run_dir = os.path.join(STATE, f"run-{os.getpid()}")
    inputs, result_path = os.path.join(run_dir, "inputs"), os.path.join(run_dir, "result.json")
    try:
        setup_times, input_digests = set_up(args.workload, args.seed, inputs)
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--inputs", inputs, "--result", result_path],
            timeout=args.seconds + 120,
        )
        if child.returncode != 0:
            log(f"error: the timed loop exited with code {child.returncode}")
            return child.returncode
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    prov = {"git_sha": git_sha(), **result["provenance"]}

    digests = result["digests"]
    correct = (result["failed"] == 0 and len(set(digests)) == 1 and len(set(input_digests)) == 1
               and result["trace_ok"])
    # Other tenants of the host slow this process down for a minute or more
    # at a time, and slowing is all they can do; the fastest set-up and the
    # fastest repetition are the estimates they disturb least (README.md,
    # Sizing).
    e2e = {
        "setup_s": min(setup_times),
        "pipeline_s": min(result["pipeline_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    stage_metrics = {k: median(v) for k, v in result["throughputs"].items()}
    stage_units = {k: "tracks/s" if "tracks" in k else "clips/s" if "clips" in k else "s"
                   for k in stage_metrics}

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(result['pipeline_s'])} untraced + {result['traced_reps']} traced repetitions "
          f"in {result['elapsed']:.1f} s")
    rows = [(k, v, END_TO_END[k]) for k, v in e2e.items()]
    rows += [(k, v, stage_units[k]) for k, v in stage_metrics.items()]
    rows.append(("failed_ratio", result["failed"] / max(result["attempted"], 1), "ratio"))
    for name, value, unit in rows:
        print(f"  {name:<24} {value:>14.6g} {unit}")
    print(f"  artifacts_sha256 {digests[0] if digests else None}"
          f"{'' if len(set(digests)) <= 1 else ' (DIFFERS between repetitions)'}")
    print(f"  inputs_sha256    {input_digests[0]}")
    for reason in result["reasons"]:
        print(f"  FAILED: {reason}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    if args.trace:
        metrics_out = {k: {"value": result["layers"].get(k, 0), "unit": u}
                       for k, u in PER_LAYER.items()}
    else:
        metrics_out = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov,
        "setup_s_each": setup_times, "inputs_sha256": input_digests,
        "artifacts_sha256": digests, "stage_s": result["stage_s"],
        "end_to_end": e2e, "stages": stage_metrics, "layers": result["layers"],
        "failures": result["reasons"],
        "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics_out,
    }
    os.makedirs(os.path.join(STATE, "out"), exist_ok=True)
    with open(os.path.join(STATE, "out", f"{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics_out}))
    return 0


def measure_child(args):
    """The child process: run the timed loop on the inputs the parent set up
    and write the result to ``--result``."""
    sys.path.insert(0, SRC)
    import beatmix
    import beatmix._kernels as kernels
    from beatmix import cli  # imports every traced layer module

    if not os.path.abspath(beatmix.__file__).startswith(SRC + os.sep):
        log(f"error: imported beatmix from {beatmix.__file__}, not from {SRC}")
        return 2
    prov = provenance(kernels)
    bench = Pipeline(args.workload, args.inputs, os.path.join(os.path.dirname(args.inputs), "work"))
    result = measure(args, bench, kernels, cli)
    # This process's own peak plus the largest peak of any process it started
    # and waited for (RUSAGE_CHILDREN keeps the maximum, not a sum).
    result["peak_rss_mb"] = sum(resource.getrusage(who).ru_maxrss for who in
                                (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    result["provenance"] = prov
    spans = result.pop("spans")
    if args.trace:
        os.makedirs(os.path.join(STATE, "out"), exist_ok=True)
        path = os.path.join(STATE, "out", f"{args.workload}-trace1.spans.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for rep, rep_spans in enumerate(spans):
                for span in rep_spans:
                    fh.write(json.dumps([rep, *span]) + "\n")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def run_sequence(bench, cli, gate, tracer=None):
    """Run the stage sequence once, closed loop; return its wall time and
    the wall time of each stage."""
    bench.reset()
    stage_s = {}
    captured = io.StringIO()
    if tracer:
        tracer.spans = []
        tracer.install()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(captured):
            for stage, argv in bench.stages():
                t0 = time.perf_counter()
                try:
                    if tracer:
                        tracer.stage = stage
                        with tracer.span(f"stage.{stage}"):
                            rc = cli.main(argv)
                    else:
                        rc = cli.main(argv)
                except Exception as exc:  # noqa: BLE001 - a crash is a failed stage
                    rc = f"{type(exc).__name__}: {exc}"
                stage_s[stage] = time.perf_counter() - t0
                if not gate.check(rc == 0, f"stage {stage} returned {rc}"):
                    log(captured.getvalue())
    finally:
        if tracer:
            tracer.uninstall()
            tracer.stage = None
    return time.perf_counter() - start, stage_s


def measure(args, bench, kernels, cli):
    """Repeat the stage sequence until --seconds are used, the first time as
    an untimed warm-up. With --trace 1 the timed repetitions go untraced,
    traced, traced, untraced, ... so that drift falls on both sides of the
    overhead ratio."""
    gate = Gate()
    tracer = None
    layers = {}
    if args.trace:
        tracer = Tracer({short: kernels if short == "kernels" else sys.modules[f"beatmix.{short}"]
                         for short in LAYERS})

    # The first repetition in a process runs measurably slower (first-touch
    # page faults, lazily built tables), which a CLI user on a warm machine
    # does not see; it is checked but not timed.
    start = time.perf_counter()
    run_sequence(bench, cli, gate)
    digests = [bench.check(gate)[0]]
    if args.trace:
        layers.update(fixed_kernels(kernels))
    pipeline_s, traced_s, throughputs = [], [], {}
    stage_log, all_spans, per_rep_layers = [], [], []
    rep_times = []
    while True:
        rep_start = time.perf_counter()
        traced = bool(args.trace) and len(rep_times) % 4 in (1, 2)
        seq_s, stage_s = run_sequence(bench, cli, gate, tracer if traced else None)
        digest, mix_facts = bench.check(gate)
        digests.append(digest)
        stage_log.append({"traced": traced, **stage_s})
        if traced:
            traced_s.append(seq_s)
            all_spans.append(tracer.spans)
            per_rep_layers.append(layer_values(tracer.spans, mix_facts))
        else:
            pipeline_s.append(seq_s)
            for key, value in bench.throughputs(stage_s).items():
                throughputs.setdefault(key, []).append(value)
        rep_times.append(time.perf_counter() - rep_start)
        elapsed = time.perf_counter() - start
        need_more = args.trace and not (pipeline_s and traced_s)
        if not need_more and elapsed + median(rep_times) > args.seconds:
            break

    trace_ok = True
    if args.trace:
        for key in set().union(*per_rep_layers):
            value = median([v.get(key, 0) for v in per_rep_layers])
            layers[key] = int(value) if PER_LAYER.get(key) == "count" and value == int(value) else value
        layers["trace.self_sum_error"] = max(v["trace.self_sum_error"] for v in per_rep_layers)
        layers["trace.overhead_ratio"] = median(traced_s) / median(pipeline_s)
        trace_ok = layers["trace.self_sum_error"] < SELF_SUM_TOLERANCE
    return {
        "attempted": gate.attempted, "failed": gate.failed, "reasons": gate.reasons,
        "digests": digests, "pipeline_s": pipeline_s, "throughputs": throughputs,
        "stage_s": stage_log, "layers": layers, "spans": all_spans, "trace_ok": trace_ok,
        "traced_reps": len(traced_s), "elapsed": time.perf_counter() - start,
    }


if __name__ == "__main__":
    sys.exit(main())
