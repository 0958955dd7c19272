"""Corpus manifest: one JSON file tracking every track and pipeline stage.

The manifest is the pipeline's source of truth. Entries are keyed by track
id (the WAV basename), ordered and serialized canonically so re-running a
stage on unchanged inputs reproduces the file byte for byte. Caching is
keyed on content hashes, never on modification times.
"""

import contextlib
import hashlib
import json
import os
import typing
from dataclasses import asdict, dataclass, field, fields

from .errors import InvariantViolation, SchemaError

SCHEMA_VERSION = 3


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
    analysis_error: str | None = None


@dataclass
class Manifest:
    root: str
    entries: list = field(default_factory=list)

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


@contextlib.contextmanager
def atomic_open(path):
    """Yield a new binary file beside ``path`` and rename it over ``path``
    when the block ends, so that neither a reader nor a crash sees a partial
    file; on any failure the temp file is removed. The file gets the
    permissions a plain ``open`` gives."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            exc.filename = path  # the error names the target, not the temp file
        raise


def atomic_write(path, data: bytes | str) -> None:
    """Write ``data`` (a str as UTF-8) to ``path`` through ``atomic_open``.
    A file that already holds exactly these bytes is left alone, inode and
    modification time included: a re-run that changes nothing replaces
    nothing."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        if os.path.getsize(path) == len(data):
            with open(path, "rb") as fh:
                if fh.read() == data:
                    return
    except OSError:
        pass  # no such file, or not one to compare: write as usual
    with atomic_open(path) as fh:
        fh.write(data)


def canonical_json(payload) -> str:
    """The text of every JSON artifact: sorted keys, a two-space indent and a
    final newline, so that equal payloads give equal bytes."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def read_json(path, what: str):
    """The JSON value in the file ``path``. A file that is not UTF-8 JSON
    raises a SchemaError naming it and ``what`` it should hold; a missing
    file raises FileNotFoundError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: {what} is not valid JSON ({exc})") from exc


def save_manifest(manifest: Manifest, path) -> None:
    """Write ``manifest`` canonically, through ``atomic_write``."""
    manifest.entries.sort(key=lambda e: e.id)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "root": manifest.root,
        "entries": [asdict(e) for e in manifest.entries],
    }
    atomic_write(path, canonical_json(payload))


def _has_type(value, kind) -> bool:
    """JSON typing of a manifest field: a float field also takes an integer,
    and no numeric field takes a boolean."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def load_manifest(path) -> Manifest:
    payload = read_json(path, "manifest")
    if not isinstance(payload, dict) or "entries" not in payload:
        raise SchemaError(f"{path}: not a manifest")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(
            f"{path}: schema version {payload.get('schema_version')} unsupported; "
            "run `beatmix ingest` to rebuild the manifest"
        )
    root = payload.get("root", ".")
    if not isinstance(root, str):
        raise SchemaError(f"{path}: root must be a string")
    for key in sorted(set(payload) - {"schema_version", "root", "entries"}):
        # a hand-added setting would otherwise be ignored without a word
        raise SchemaError(f"{path}: bad key {key} = {payload[key]!r}: a manifest stores no "
                          "settings, only its root and tracks")
    try:
        entries = [TrackEntry(**e) for e in payload["entries"]]
    except TypeError as exc:
        raise SchemaError(f"{path}: malformed entry ({exc})") from exc
    for entry in entries:
        for f in fields(TrackEntry):
            kinds = typing.get_args(f.type) or (f.type,)
            value = getattr(entry, f.name)
            if not any(_has_type(value, kind) for kind in kinds):
                expected = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
                raise SchemaError(
                    f"{path}: track {entry.id!r}: field {f.name} is {value!r}, expected {expected}"
                )
    return Manifest(root=root, entries=entries)


def validate_manifest(manifest: Manifest) -> None:
    seen = set()
    for entry in manifest.entries:
        if entry.id in seen:
            raise InvariantViolation(f"duplicate track id {entry.id!r}")
        seen.add(entry.id)
        if not os.path.exists(manifest.track_path(entry)):
            raise InvariantViolation(f"missing audio file {manifest.track_path(entry)}")
