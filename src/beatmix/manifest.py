"""Corpus manifest: one JSON file tracking every track and pipeline stage.

The manifest is the pipeline's source of truth. Entries are keyed by track
id (the WAV basename), ordered and serialized canonically so re-running a
stage on unchanged inputs reproduces the file byte for byte. Caching is
keyed on content hashes, never on modification times.
"""

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field

from .errors import InvariantViolation, SchemaError

SCHEMA_VERSION = 1


@dataclass
class TrackEntry:
    id: str
    path: str  # relative to the corpus root
    n_samples: int  # length after ingest normalization to 16 kHz
    duration_s: float
    caption: str = ""
    content_hash: str = ""
    beats_path: str | None = None
    tempo_bpm: float | None = None
    group_id: int | None = None
    analysis_error: str | None = None


@dataclass
class Manifest:
    root: str
    entries: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def by_id(self) -> dict[str, TrackEntry]:
        return {e.id: e for e in self.entries}

    def track_path(self, entry: TrackEntry) -> str:
        return os.path.join(self.root, entry.path)


def content_hash(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def atomic_write(path, data: bytes | str) -> None:
    """Write ``data`` (a str as UTF-8) to a temp file beside ``path``, then
    rename it over ``path``, so that neither a reader nor a crash leaves a
    partial file. The file gets the permissions a plain ``open`` gives."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_manifest(manifest: Manifest, path) -> None:
    manifest.entries.sort(key=lambda e: e.id)
    payload = {
        "schema_version": manifest.schema_version,
        "root": manifest.root,
        "config": manifest.config,
        "entries": [asdict(e) for e in manifest.entries],
    }
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_manifest(path) -> Manifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: manifest is not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "entries" not in payload:
        raise SchemaError(f"{path}: not a manifest")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(
            f"{path}: schema version {payload.get('schema_version')} unsupported"
        )
    try:
        entries = [TrackEntry(**e) for e in payload["entries"]]
    except TypeError as exc:
        raise SchemaError(f"{path}: malformed entry ({exc})") from exc
    return Manifest(
        root=payload.get("root", "."),
        entries=entries,
        config=dict(payload.get("config", {})),
        schema_version=payload["schema_version"],
    )


def validate_manifest(manifest: Manifest, check_files: bool = True) -> None:
    seen = set()
    for entry in manifest.entries:
        if entry.id in seen:
            raise InvariantViolation(f"duplicate track id {entry.id!r}")
        seen.add(entry.id)
        if check_files and not os.path.exists(manifest.track_path(entry)):
            raise InvariantViolation(f"missing audio file {manifest.track_path(entry)}")
    width = manifest.config.get("bucket_width")
    if width:
        from .mixup import group_id_for

        for entry in manifest.entries:
            if entry.group_id is not None and entry.tempo_bpm is not None:
                expect = group_id_for(entry.tempo_bpm, float(width))
                if entry.group_id != expect:
                    raise InvariantViolation(
                        f"track {entry.id}: group {entry.group_id} inconsistent with "
                        f"tempo {entry.tempo_bpm} at bucket width {width}"
                    )
