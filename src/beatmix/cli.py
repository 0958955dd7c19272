"""Command-line surface for the corpus pipeline.

Stages, in their natural order::

    beatmix ingest CORPUS_DIR          build the manifest
    beatmix analyze --manifest M       tempo/beat/downbeat annotations
    beatmix group --manifest M         report tempo groups, or set their width
    beatmix fit-codec --manifest M     fit the latent codec
    beatmix mix --manifest M ...       produce mixed clips
    beatmix segment --manifest M       10 s segment index for similarity audits
    beatmix eval ...                   metrics report from embedding files

Progress and warnings go to stderr; machine-readable output goes only to
files. Exit codes: 0 success, 1 input error, 2 internal error.
"""

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np

from . import beats as beats_mod
from . import codec as codec_mod
from . import gateway, metrics, mixup, wavio
from .dsp import GL_ITERATIONS, SignalConfig
from .errors import (
    BeatmixError,
    DuplicateBasename,
    EmptyCorpus,
    InputError,
    MissingPrerequisite,
    SchemaError,
)
from .manifest import (
    Manifest,
    TrackEntry,
    atomic_write,
    canonical_json,
    content_hash,
    load_manifest,
    read_json,
    save_manifest,
    validate_manifest,
)


def _checked(convert, ok, expect):
    """An argparse type and a setting converter: ``convert``, then require ``ok``.
    A boolean is never a setting, though Python counts it as a number."""

    def parse(value):
        try:
            converted = None if isinstance(value, bool) else convert(value)
        except (TypeError, ValueError, OverflowError):
            converted = None
        if converted is None or not ok(converted):
            raise argparse.ArgumentTypeError(f"{value!r} is not {expect}")
        return converted

    return parse


def _int(value):
    """``int``, except that a float, which it would truncate, gives None."""
    return None if isinstance(value, float) else int(value)


_fraction = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_finite_float = _checked(float, math.isfinite, "a finite number")
_positive_float = _checked(float, lambda v: 0.0 < v < math.inf, "a positive number")
_integer = _checked(_int, lambda v: True, "an integer")
_positive_int = _checked(_int, lambda v: v > 0, "a positive integer")
_nonnegative_int = _checked(_int, lambda v: v >= 0, "a non-negative integer")
_thresholds = _checked(
    lambda text: tuple(float(t) for t in text.split(",")),
    lambda values: all(0.0 <= t <= 1.0 for t in values),
    "a comma-separated list of numbers in [0, 1]",
)

# Corpus settings, key -> (converter, default): ingest's --config file and every
# stage's read of the stored values go through these. SignalConfig checks the
# ranges of the signal keys, which depend on each other.
_SETTINGS = {
    "hop": (_integer, SignalConfig.hop),
    "window": (_integer, SignalConfig.window),
    "fft_size": (_integer, SignalConfig.fft_size),
    "n_mels": (_integer, SignalConfig.n_mels),
    "fmin": (_finite_float, SignalConfig.fmin),
    "fmax": (_finite_float, SignalConfig.fmax),
    "log_floor": (_finite_float, SignalConfig.log_floor),
    "bucket_width": (_positive_float, 4.0),
    "clip_samples": (_positive_int, mixup.DEFAULT_CLIP_SAMPLES),
    "gl_iterations": (_positive_int, GL_ITERATIONS),
    "segment_seconds": (_positive_float, 10.0),
    "mix_p": (_fraction, 0.5),
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _setting(key, value, source):
    """``value`` through ``key``'s converter, or a SchemaError naming ``source``."""
    try:
        return _SETTINGS[key][0](value)
    except argparse.ArgumentTypeError as exc:
        raise SchemaError(f"{source}: bad value for {key} ({exc})") from exc


def _read_text(path) -> str:
    """The text of ``path``; a file that is not UTF-8 raises a SchemaError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc


def read_config_file(path) -> dict:
    """Plain key=value configuration; '#' starts a comment."""
    values = {}
    for line_no, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"{path}:{line_no}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SETTINGS:
            raise SchemaError(f"{path}:{line_no}: unknown key {key!r}")
        values[key] = _setting(key, value, f"{path}:{line_no}")
    _settings(values, path)  # the signal keys' ranges depend on each other
    return values


def _settings(stored: dict, source) -> tuple[dict, SignalConfig]:
    """Each ``_SETTINGS`` value in ``stored``, or its default, and the SignalConfig
    they give; other stored keys are ignored."""
    settings = {
        key: _setting(key, stored[key], source) if key in stored else default
        for key, (_, default) in _SETTINGS.items()
    }
    signal = {k: v for k, v in settings.items() if k in SignalConfig.__dataclass_fields__}
    try:
        return settings, SignalConfig(**signal)
    except ValueError as exc:
        raise SchemaError(f"{source}: bad signal settings ({exc})") from exc


def _load_checked(args):
    """The manifest, its stored settings and SignalConfig, for the stages that read
    audio: ids unique, files present."""
    manifest = load_manifest(args.manifest)
    settings, config = _settings(manifest.config, args.manifest)
    validate_manifest(manifest)
    return manifest, settings, config


def _beside_manifest(args, name) -> str:
    """Path of ``name`` in the manifest's directory, where derived artifacts
    go by default; the corpus may be read-only or shared."""
    return os.path.join(os.path.dirname(os.path.abspath(args.manifest)), name)


def _caches(args, config) -> tuple[str, str]:
    """The sample cache and the mel cache for ``config``, beside the manifest."""
    return (
        _beside_manifest(args, wavio.NORMALIZED_CACHE),
        _beside_manifest(args, wavio.mel_cache_name(config)),
    )


# --- ingest -----------------------------------------------------------------

def cmd_ingest(args) -> int:
    root = os.path.abspath(args.corpus_dir)
    if not os.path.isdir(root):
        raise InputError(f"{root} is not a directory")
    wavs = []
    for dirpath, _, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.lower().endswith(".wav"):
                wavs.append(os.path.relpath(os.path.join(dirpath, name), root))
    wavs.sort()
    if not wavs:
        raise EmptyCorpus(f"no .wav files under {root}")

    caption_map = {}
    if args.captions:
        caption_map = read_json(args.captions, "captions")
        if not isinstance(caption_map, dict):
            raise SchemaError(f"{args.captions}: expected an object of id -> caption")
        for track_id, caption in caption_map.items():
            if not isinstance(caption, str):
                raise SchemaError(f"{args.captions}: caption of {track_id!r} is not a string")

    settings = read_config_file(args.config) if args.config else {}
    entries = []
    seen = {}
    missing_captions = 0
    for rel in wavs:
        track_id = os.path.splitext(os.path.basename(rel))[0]
        if track_id in seen:
            raise DuplicateBasename(f"{rel} and {seen[track_id]} both map to id {track_id!r}")
        seen[track_id] = rel
        full = os.path.join(root, rel)
        try:
            n_samples, digest, _ = wavio.probe_wav(full)
        except InputError as exc:
            raise type(exc)(f"{rel}: {exc}") from exc
        caption = caption_map.get(track_id, "")
        if not caption:
            txt = os.path.splitext(full)[0] + ".txt"
            if os.path.exists(txt):
                caption = _read_text(txt).strip()
        if not caption:
            missing_captions += 1
        entries.append(
            TrackEntry(
                id=track_id,
                path=rel,
                n_samples=n_samples,
                duration_s=n_samples / wavio.TARGET_RATE,
                caption=caption,
                content_hash=digest,
            )
        )

    manifest = Manifest(root=root, entries=entries, config=settings)
    save_manifest(manifest, args.manifest)
    log(f"ingested {len(entries)} tracks -> {args.manifest}")
    if missing_captions:
        log(f"warning: {missing_captions} tracks have no caption")
    return 0


# --- analyze ----------------------------------------------------------------

def _analyze_one(manifest, entry, config, external, caches):
    path = manifest.track_path(entry)
    sidecar_rel = os.path.splitext(entry.path)[0] + ".beats.json"
    sidecar = os.path.join(manifest.root, sidecar_rel)
    # the one read: hash, length and, on a miss, samples
    n_samples, current_hash, data = wavio.probe_wav(path)
    if (
        not external  # an external sidecar may have been replaced: always read it
        and entry.tempo_bpm is not None
        and entry.content_hash == current_hash
        and entry.beats_path == sidecar_rel
        and os.path.exists(sidecar)
    ):
        return entry, "cached"
    # The file may have changed since ingest: take its length as ingest does.
    entry.n_samples = n_samples
    entry.duration_s = entry.n_samples / wavio.TARGET_RATE
    if external:
        if not os.path.exists(sidecar):
            raise InputError(f"{sidecar}: external annotation missing")
        grid = beats_mod.load_beat_annotation(sidecar)
    else:
        samples_dir, mels_dir = caches
        wave = wavio.load_normalized(path, samples_dir, current_hash, data)
        del data  # freed before the mel is computed: on 20 s stereo 44.1 kHz tracks, ~12 MiB less peak RSS
        mel = wavio.load_mel(mels_dir, current_hash, config, lambda: wave)
        grid = beats_mod.analyze_waveform(wave, mel)
        beats_mod.save_beat_annotation(grid, sidecar)
    entry.content_hash = current_hash
    entry.beats_path = sidecar_rel
    entry.tempo_bpm = float(grid.tempo_bpm)
    entry.analysis_error = None
    return entry, "analyzed"


def cmd_analyze(args) -> int:
    manifest, _, config = _load_checked(args)
    caches = _caches(args, config)

    outcomes = {"cached": 0, "analyzed": 0, "failed": 0}

    def work(entry):
        try:
            return _analyze_one(manifest, entry, config, args.external_beats, caches)
        except BeatmixError as exc:
            entry.analysis_error = f"{type(exc).__name__}: {exc}"
            entry.tempo_bpm = None
            return entry, "failed"

    if args.workers > 1:
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(work, manifest.entries))
    else:
        results = [work(e) for e in manifest.entries]

    for entry, outcome in results:
        outcomes[outcome] += 1
        if outcome == "failed":
            log(f"warning: {entry.id}: {entry.analysis_error}")

    save_manifest(manifest, args.manifest)
    log(
        f"analyze: {outcomes['analyzed']} analyzed, {outcomes['cached']} cached, "
        f"{outcomes['failed']} failed"
    )
    if manifest.entries and outcomes["failed"] == len(manifest.entries):
        raise InputError("analysis failed for every track")
    return 0


# --- group ------------------------------------------------------------------

def cmd_group(args) -> int:
    """Report the tempo groups that `mix` derives; store --bucket-width if given."""
    manifest = load_manifest(args.manifest)
    settings, _ = _settings(manifest.config, args.manifest)
    width = args.bucket_width if args.bucket_width is not None else settings["bucket_width"]
    tempos = [e.tempo_bpm for e in manifest.entries if e.tempo_bpm is not None]
    if not tempos:
        raise MissingPrerequisite("no analyzed tracks; run `beatmix analyze` first")
    if args.bucket_width is not None:
        manifest.config["bucket_width"] = width
        save_manifest(manifest, args.manifest)
    groups = {mixup.group_id_for(bpm, width) for bpm in tempos}
    log(f"group: {len(tempos)} tracks in {len(groups)} tempo groups (width {width} BPM)")
    return 0


# --- fit-codec ---------------------------------------------------------------

def cmd_fit_codec(args) -> int:
    if args.components > args.patch**2:
        raise InputError(f"--components {args.components} exceeds --patch squared")
    manifest, _, config = _load_checked(args)
    patch = args.patch
    usable = [e for e in manifest.entries if e.analysis_error is None]
    if not usable:
        raise MissingPrerequisite("no usable tracks to fit the codec on")
    samples_dir, mels_dir = _caches(args, config)

    def corpus_mels():
        for entry in usable:
            # re-hashed, so that an edited WAV is decoded afresh
            path = manifest.track_path(entry)
            digest = content_hash(path)
            frames = wavio.load_mel(
                mels_dir, digest, config,
                lambda: wavio.load_normalized(path, samples_dir, digest),
            ).frames
            t = (frames.shape[0] // patch) * patch  # crop to whole patches
            if t:
                yield frames[:t]

    codec = codec_mod.fit(corpus_mels(), n_components=args.components, patch_size=patch)
    out = args.out or _beside_manifest(args, "codec.bin")
    codec_mod.save(codec, out)
    log(
        f"fit-codec: {codec.fit_stats['n_patches']} patches, C={args.components}, "
        f"P={patch} -> {out}"
    )
    return 0


# --- mix ---------------------------------------------------------------------

def cmd_mix(args) -> int:
    manifest, settings, config = _load_checked(args)
    p = args.p if args.p is not None else settings["mix_p"]

    analyzed = [e for e in manifest.entries if e.tempo_bpm is not None and e.beats_path]
    if not analyzed:
        raise MissingPrerequisite("no analyzed tracks; run `beatmix analyze` first")

    codec = None
    if args.strategy == "blm":
        codec_path = args.codec or _beside_manifest(args, "codec.bin")
        if not os.path.exists(codec_path):
            raise MissingPrerequisite(
                f"blm mixing needs a fitted codec, and {codec_path} does not exist; "
                "run `beatmix fit-codec` or pass --codec"
            )
        codec = codec_mod.load(codec_path)

    tracks = {}
    captions = {}
    for entry in analyzed:
        grid = beats_mod.load_beat_annotation(
            os.path.join(manifest.root, entry.beats_path)
        )
        group = mixup.group_id_for(entry.tempo_bpm, settings["bucket_width"])
        tracks[entry.id] = mixup.TrackView(entry.id, entry.n_samples, grid, group)
        captions[entry.id] = entry.caption

    specs = mixup.plan_mixup_pass(
        tracks, args.strategy, p, args.count, args.seed, settings["clip_samples"]
    )
    os.makedirs(args.out, exist_ok=True)

    samples_dir, _ = _caches(args, config)
    by_id = manifest.by_id()
    digests: dict[str, str] = {}

    def load_clip(track_id, offset, n):
        path = manifest.track_path(by_id[track_id])
        if track_id not in digests:
            digests[track_id] = content_hash(path)
        samples = wavio.load_normalized(path, samples_dir, digests[track_id]).samples
        clip = samples[offset : offset + n]
        if clip.size != n:
            raise InputError(f"{track_id}: clip at {offset} runs past end of track")
        # a copy, so that the mapping of the whole track closes after each clip
        return np.array(clip)

    for spec in specs:
        wave = mixup.render_spec(spec, load_clip, codec, config, settings["gl_iterations"])
        wavio.save_wav(os.path.join(args.out, f"{spec.out_id}.wav"), wave)
        payload = asdict(spec)
        payload["caption_a"] = captions.get(spec.track_a, "")
        payload["caption_b"] = captions.get(spec.track_b, "") if spec.track_b else None
        spec_path = os.path.join(args.out, f"{spec.out_id}.mixspec.json")
        atomic_write(spec_path, canonical_json(payload))
    n_mixed = sum(spec.mixed for spec in specs)
    log(f"mix: wrote {args.count} clips ({n_mixed} mixed) -> {args.out}")
    return 0


# --- segment ------------------------------------------------------------------

def cmd_segment(args) -> int:
    manifest = load_manifest(args.manifest)
    settings, _ = _settings(manifest.config, args.manifest)
    seconds = args.seconds if args.seconds is not None else settings["segment_seconds"]
    seg_len = int(round(seconds * wavio.TARGET_RATE))
    if seg_len < 1:
        raise InputError(f"segments of {seconds:g} s are shorter than one sample")
    segments = []
    empty = 0
    for entry in manifest.entries:
        n_seg = entry.n_samples // seg_len
        if n_seg == 0:
            empty += 1
            log(f"warning: {entry.id}: shorter than one {seconds:g} s segment")
            continue
        for k in range(n_seg):
            segments.append(
                {
                    "track_id": entry.id,
                    "segment_id": f"{entry.id}_seg{k:03d}",
                    "start_sample": k * seg_len,
                    "end_sample": (k + 1) * seg_len,
                }
            )
    out = args.out or _beside_manifest(args, "segments.json")
    payload = {
        "schema_version": 1,
        "seconds": seconds,
        "sample_rate": wavio.TARGET_RATE,
        "segments": segments,
    }
    atomic_write(out, canonical_json(payload))
    log(f"segment: {len(segments)} segments from {len(manifest.entries) - empty} tracks -> {out}")
    return 0


# --- eval ----------------------------------------------------------------------

def _parse_named(values):
    """Parse repeatable NAME=PATH (or bare PATH) flags into an ordered dict."""
    out = {}
    for item in values or []:
        if "=" in item:
            name, path = item.split("=", 1)
        else:
            path = item
            name = os.path.splitext(os.path.basename(item))[0]
        if name in out:
            raise InputError(f"provider {name!r} given twice")
        out[name] = path
    return out


def cmd_eval(args) -> int:
    gen_named = _parse_named(args.gen_emb)
    gt_named = _parse_named(args.gt_emb)
    if not gen_named:
        raise InputError("at least one --gen-emb is required")
    gen_sets = {name: gateway.load_embedding_set(path) for name, path in gen_named.items()}
    gt_sets = {name: gateway.load_embedding_set(path) for name, path in gt_named.items()}

    fd_sets = {
        name: (gen_sets[name], gt_sets[name]) for name in gen_sets if name in gt_sets
    }
    primary = next(iter(gen_sets.values()))

    # read once, block by block, while the report is built
    train_seg = gateway.read_embedding_blocks(args.train_seg_emb) if args.train_seg_emb else None
    text = gateway.load_embedding_set(args.text_emb) if args.text_emb else None
    gen_post = gateway.load_posterior_set(args.gen_post) if args.gen_post else None
    gt_post = gateway.load_posterior_set(args.gt_post) if args.gt_post else None

    gt_primary = next(iter(gt_sets.values())) if gt_sets else None
    report = metrics.build_report(
        fd_sets=fd_sets or None,
        gen_emb=primary,
        train_seg_emb=train_seg,
        text_emb=text,
        gt_emb=gt_primary,
        gen_post=gen_post,
        gt_post=gt_post,
        thresholds=args.thresholds,
    )
    report.provenance["gen_providers"] = sorted(gen_sets)

    os.makedirs(args.out, exist_ok=True)
    report_json = os.path.join(args.out, "report.json")
    atomic_write(report_json, report.to_json())
    atomic_write(os.path.join(args.out, "report.txt"), metrics.render_table(report))
    if report.nn_audit:
        audit = canonical_json([asdict(r) for r in report.nn_audit])
        atomic_write(os.path.join(args.out, "nn_audit.json"), audit)
    log(f"eval: report -> {report_json}")
    return 0


# --- entry point -----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors (exit 1)
        self.print_usage(sys.stderr)
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="beatmix", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="scan a corpus directory into a manifest")
    p.add_argument("corpus_dir")
    p.add_argument("--manifest", default="manifest.json")
    p.add_argument("--captions", help="JSON file mapping track id -> caption")
    p.add_argument("--config", help="key=value settings file, stored in the manifest")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("analyze", help="compute or ingest beat annotations")
    p.add_argument("--manifest", required=True)
    p.add_argument("--external-beats", action="store_true",
                   help="ingest existing .beats.json sidecars instead of analyzing")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("group", help="report tempo groups; --bucket-width stores their width")
    p.add_argument("--manifest", required=True)
    p.add_argument("--bucket-width", type=_positive_float, default=None)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("fit-codec", help="fit the patch-PCA latent codec")
    p.add_argument("--manifest", required=True)
    p.add_argument("--components", "-C", type=_positive_int, default=16)
    p.add_argument("--patch", "-P", type=_positive_int, default=8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit_codec)

    p = sub.add_parser("mix", help="render mixed clips")
    p.add_argument("--manifest", required=True)
    p.add_argument("--strategy", choices=mixup.STRATEGIES, required=True)
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--p", type=_fraction, default=None, help="mixup rate (default: stored mix_p)")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", default="mixes")
    p.add_argument("--codec", help="codec file (default: codec.bin beside the manifest)")
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("segment", help="index non-overlapping segments per track")
    p.add_argument("--manifest", required=True)
    p.add_argument("--seconds", type=_positive_float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("eval", help="build a metrics report from embedding files")
    p.add_argument("--gen-emb", action="append",
                   help="generated-audio embeddings, NAME=PATH or PATH (repeatable)")
    p.add_argument("--gt-emb", action="append",
                   help="groundtruth-audio embeddings, NAME=PATH or PATH (repeatable)")
    p.add_argument("--train-seg-emb", help="training-segment embeddings")
    p.add_argument("--text-emb", help="caption text embeddings")
    p.add_argument("--gen-post", help="generated-audio classifier posteriors")
    p.add_argument("--gt-post", help="groundtruth classifier posteriors")
    p.add_argument("--thresholds", type=_thresholds, default=metrics.DEFAULT_THRESHOLDS)
    p.add_argument("--out", default="report")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        log(f"error: {exc}")
        return 1
    except FileNotFoundError as exc:
        log(f"error: {exc.filename}: not found")
        return 1
    except BeatmixError as exc:
        log(f"internal error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
