"""Embedding and classifier-posterior file transport.

Everything in ``metrics`` is pure given this module's outputs. A set read
from a file is one ``RecordSet``, a matrix with its rows in id order.
Embedding rows are L2-normalized at the boundary, by the same helper that
``client`` uses for vectors from a live service, so a dot product
downstream is always a cosine similarity.

Two on-disk formats are supported:

* binary (preferred, bit-exact): header ``magic, u32 dim, u32 count``, then
  per record ``u16 id_len, id bytes (UTF-8), dim x f32 little-endian``.
  Magic is ``EMB1`` for embeddings, ``POS1`` for posteriors.
* CSV fallback: one record per line, ``id, v1, ..., vD``.
"""

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, DuplicateId, NotAProbability, SchemaError, ZeroNorm
from .manifest import atomic_write

EMB_MAGIC = b"EMB1"
POS_MAGIC = b"POS1"


@dataclass(frozen=True, eq=False)
class RecordSet:
    """One embedding or posterior set as a matrix: ``rows[i]`` is the float64
    vector of ``ids[i]``, and the ids are sorted and unique. Build one from
    records in any order with ``RecordSet.from_records``."""

    ids: tuple
    rows: np.ndarray

    @classmethod
    def from_records(cls, ids, rows, source="record set") -> "RecordSet":
        """Put the records in id order; a repeated id raises DuplicateId."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] != len(ids):
            raise ValueError(f"{len(ids)} ids need an ({len(ids)}, dim) matrix, not {rows.shape}")
        order = sorted(range(len(ids)), key=ids.__getitem__)
        sorted_ids = tuple(ids[i] for i in order)
        for prev, rec_id in zip(sorted_ids, sorted_ids[1:]):
            if prev == rec_id:
                raise DuplicateId(f"{source}: id {rec_id!r} appears twice")
        if order != list(range(len(order))):
            rows = rows[order]
        return cls(sorted_ids, np.ascontiguousarray(rows))

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return len(self.ids)


# --- file transport ---------------------------------------------------------

def _write_records(path, magic: bytes, records: RecordSet) -> None:
    if not records:
        raise ValueError("refusing to write an empty set")
    parts = [magic, struct.pack("<II", records.dim, len(records))]
    for rec_id, row in zip(records.ids, records.rows.astype("<f4")):
        id_bytes = rec_id.encode("utf-8")
        if len(id_bytes) > 0xFFFF:
            raise ValueError(f"id too long: {rec_id!r}")
        parts += [struct.pack("<H", len(id_bytes)), id_bytes, row.tobytes()]
    atomic_write(path, b"".join(parts))


def _read_records(path, magic: bytes) -> tuple[list[str], np.ndarray]:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12:
        raise SchemaError(f"{path}: too small for a header")
    if data[:4] != magic:
        raise SchemaError(f"{path}: bad magic {data[:4]!r}, expected {magic!r}")
    dim, count = struct.unpack_from("<II", data, 4)
    if dim == 0:
        raise SchemaError(f"{path}: header declares dim 0")
    pos = 12
    ids, vectors = [], []
    for _ in range(count):
        if pos + 2 > len(data):
            raise SchemaError(f"{path}: truncated record header")
        (id_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        if pos + id_len + 4 * dim > len(data):
            raise DimMismatch(
                f"{path}: record for dim {dim} runs past end of file (truncated row?)"
            )
        ids.append(data[pos : pos + id_len].decode("utf-8"))
        pos += id_len
        vectors.append(np.frombuffer(data, dtype="<f4", count=dim, offset=pos))
        pos += 4 * dim
    if pos != len(data):
        raise SchemaError(f"{path}: {len(data) - pos} trailing bytes after last record")
    return ids, np.array(vectors, dtype=np.float64).reshape(count, dim)


def _read_csv(path) -> tuple[list[str], np.ndarray]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(enumerate(csv.reader(fh), start=1))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"{path}: neither a known binary set nor CSV ({exc})") from exc
    ids, vectors = [], []
    dim = None
    for line_no, row in rows:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        rec_id, *vals = row
        if dim is None:
            dim = len(vals)
            if dim == 0:
                raise SchemaError(f"{path}:{line_no}: row has no values")
        if len(vals) != dim:
            raise DimMismatch(
                f"{path}:{line_no}: row has {len(vals)} values, expected {dim}"
            )
        try:
            vectors.append([float(v) for v in vals])
        except ValueError as exc:
            raise SchemaError(f"{path}:{line_no}: non-numeric value ({exc})") from exc
        ids.append(rec_id.strip())
    if dim is None:
        raise SchemaError(f"{path}: no records")
    return ids, np.array(vectors, dtype=np.float64)


def _load(path, magic: bytes) -> RecordSet:
    ids, rows = _read_csv(path) if _is_csv(path) else _read_records(path, magic)
    return RecordSet.from_records(ids, rows, source=path)


def _is_csv(path) -> bool:
    if str(path).lower().endswith(".csv"):
        return True
    with open(path, "rb") as fh:
        head = fh.read(4)
    return head not in (EMB_MAGIC, POS_MAGIC)


def save_embedding_set(path, embeddings: RecordSet) -> None:
    _write_records(path, EMB_MAGIC, embeddings)


def _unit_rows(ids, rows: np.ndarray, source) -> np.ndarray:
    """Scale each row of ``rows`` to unit L2 norm, in place; a row with no
    direction raises ZeroNorm naming ``source`` and its id."""
    # one dot product per row: the same bits as v / np.sqrt(v @ v), which a
    # single vectorized reduction over the matrix does not give
    norms = np.sqrt([row @ row for row in rows])
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0.0)))
    if bad.size:
        raise ZeroNorm(f"{source}: embedding {ids[bad[0]]!r} has no direction")
    rows /= norms[:, None]
    return rows


def load_embedding_set(path) -> RecordSet:
    """Load a whole embedding set and scale its rows to unit L2 norm;
    duplicate ids and rows with no direction are rejected."""
    embeddings = _load(path, EMB_MAGIC)
    _unit_rows(embeddings.ids, embeddings.rows, path)
    return embeddings


def save_posterior_set(path, posteriors: RecordSet) -> None:
    _write_records(path, POS_MAGIC, posteriors)


def load_posterior_set(path) -> RecordSet:
    """Load classifier posteriors; rows must sum to 1 within 1%, and are
    renormalized to sum exactly 1."""
    posteriors = _load(path, POS_MAGIC)
    rows = posteriors.rows
    bad = np.flatnonzero((rows < 0).any(axis=1) | ~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise NotAProbability(
            f"{path}: row {posteriors.ids[bad[0]]!r} has negative or non-finite entries"
        )
    totals = rows.sum(axis=1)
    bad = np.flatnonzero((totals < 0.99) | (totals > 1.01))
    if bad.size:
        raise NotAProbability(
            f"{path}: row {posteriors.ids[bad[0]]!r} sums to {totals[bad[0]]:.4f}, not ~1"
        )
    rows /= totals[:, None]
    return posteriors
