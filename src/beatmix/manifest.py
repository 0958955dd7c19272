"""Corpus manifest: one JSON file tracking every track and pipeline stage.

The manifest is the pipeline's source of truth. Entries are keyed by track
id (the WAV basename), ordered and serialized canonically so re-running a
stage on unchanged inputs reproduces the file byte for byte. Caching is
keyed on content hashes. A stage learns a WAV's hash from the fingerprint
file beside the manifest when the file's stat shows it unchanged since it
was hashed, and reads and hashes it otherwise (``Fingerprints.current``).
"""

import contextlib
import hashlib
import json
import os
import re
import time
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


# Name of the fingerprint file beside the manifest: each WAV's content hash
# with the stat it had when it was hashed. It is a cache, safe to delete.
FINGERPRINTS = "wav-fingerprints.json"
# A fingerprint is trusted only if the file's last change is older than the
# moment it was taken by at least this much. An edit within one timestamp
# tick of the stat that preceded the hashing read leaves the stat unchanged;
# the margin must exceed the file system's timestamp granularity, which is a
# coarse kernel tick on local Linux file systems and 2 s on FAT.
RACY_NS = 2_000_000_000


def _stat(path) -> list:
    st = os.stat(path)
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def _is_record(record) -> bool:
    return (
        isinstance(record, dict)
        and set(record) == {"sha256", "stat", "taken_ns"}
        and isinstance(record["sha256"], str)
        and re.fullmatch("[0-9a-f]{64}", record["sha256"]) is not None  # it names cache files
        and isinstance(record["stat"], list)
        and len(record["stat"]) == 5
        and all(type(v) is int for v in record["stat"] + [record["taken_ns"]])
    )


class Fingerprints:
    """The fingerprint file ``path``: a record per WAV, keyed by its absolute
    path, of its content hash, its stat and the clock just before that stat.
    The one place where a WAV is read to be hashed."""

    def __init__(self, path):
        self.path = path
        self.records = {}  # a missing, unreadable or malformed file holds none
        try:
            records = read_json(path, "fingerprints")
        except (OSError, SchemaError):
            return
        if isinstance(records, dict) and all(map(_is_record, records.values())):
            self.records = records

    def trusted(self, path) -> str | None:
        """The content hash recorded for ``path``, if the file's stat is
        still the recorded one and its last change came ``RACY_NS`` or more
        before the record was taken; else None. ctime counts because no
        user-space call sets it back, so an edit followed by ``touch -r`` is
        seen."""
        record = self.records.get(os.path.abspath(path))
        if record is None:
            return None
        try:
            now = _stat(path)
        except OSError:
            return None  # reading it raises the error that names the file
        if now != record["stat"] or max(now[3], now[4]) + RACY_NS > record["taken_ns"]:
            return None
        return record["sha256"]

    def read(self, path) -> tuple[str, bytes]:
        """The content hash of ``path`` and its bytes, from one read, with
        the new record of that read stored. The clock and the stat are taken
        before the read: an edit made after that stat changes the file's
        ctime, or falls within ``RACY_NS`` of the clock reading, so the
        record never vouches for an edited file. The record goes in with one
        dict store, which is atomic in CPython, so threads may call this at
        once."""
        taken_ns = time.time_ns()
        stat = _stat(path)
        with open(path, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        self.records[os.path.abspath(path)] = {"sha256": digest, "stat": stat, "taken_ns": taken_ns}
        return digest, data

    def current(self, path) -> str:
        """The content hash of ``path``: the trusted one, or else read."""
        return self.trusted(path) or self.read(path)[0]

    def save(self) -> None:
        """Write the records canonically, through ``atomic_write``: when
        nothing new was recorded, the file is left as it is. A file that
        cannot be written is skipped: it only saves reading, and a stage
        whose other caches are warm needs no write access beside the
        manifest."""
        try:
            atomic_write(self.path, canonical_json(self.records))
        except OSError:
            pass


@contextlib.contextmanager
def atomic_open(path):
    """Yield a new binary file beside ``path`` and rename it over ``path``
    when the block ends, so that no reader sees a partial file and a process
    that dies mid-write leaves none; on any failure the temp file is removed.
    Nothing is ``fsync``ed, so a power loss is not covered. The file gets
    the permissions a plain ``open`` gives."""
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
    """The manifest in the file ``path``. One that breaks the schema, or
    repeats a track id, raises a SchemaError naming ``path``."""
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
    seen = set()
    for entry in entries:
        for f in fields(TrackEntry):
            kinds = typing.get_args(f.type) or (f.type,)
            value = getattr(entry, f.name)
            if not any(_has_type(value, kind) for kind in kinds):
                expected = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
                raise SchemaError(
                    f"{path}: track {entry.id!r}: field {f.name} is {value!r}, expected {expected}"
                )
        # every stage keys tracks by id, and segment names its segments by it
        if entry.id in seen:
            raise SchemaError(f"{path}: duplicate track id {entry.id!r}")
        seen.add(entry.id)
    return Manifest(root=root, entries=entries)


def validate_manifest(manifest: Manifest, path) -> None:
    """Raise an InvariantViolation naming ``path``, the manifest's file,
    unless every track's WAV exists."""
    for entry in manifest.entries:
        if not os.path.exists(manifest.track_path(entry)):
            raise InvariantViolation(f"{path}: missing audio file {manifest.track_path(entry)}")
