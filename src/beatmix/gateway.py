"""Embedding and classifier-posterior file transport.

Everything in ``metrics`` is pure given this module's outputs. A set read
from a file is one ``RecordSet``, a matrix with its rows in id order; a set
too large to hold, such as the training segments, can instead be read once
as a sequence of ``RecordSet`` blocks of at most ``BLOCK_ROWS`` records
(``read_embedding_blocks``), holding one block and the set's ids at a
time. Embedding rows are L2-normalized at the boundary, by the same helper
that ``client`` uses for vectors from a live service, so a dot product
downstream is always a cosine similarity.

Two on-disk formats are supported:

* binary (preferred, bit-exact): header ``magic, u32 dim, u32 count``, then
  per record ``u16 id_len, id bytes (UTF-8), dim x f32 little-endian``.
  Magic is ``EMB1`` for embeddings, ``POS1`` for posteriors.
* CSV fallback: one record per line, ``id, v1, ..., vD``.
"""

import csv
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, DuplicateId, NotAProbability, SchemaError, ZeroNorm
from .manifest import atomic_write

EMB_MAGIC = b"EMB1"
POS_MAGIC = b"POS1"
BLOCK_ROWS = 4096  # records per block of a binary set read from a file


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
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[0] != len(ids):
            raise ValueError(f"{len(ids)} ids need an ({len(ids)}, dim) matrix, not {rows.shape}")
        order = sorted(range(len(ids)), key=ids.__getitem__)
        sorted_ids = tuple(ids[i] for i in order)
        _check_unique(sorted_ids, source)
        if order != list(range(len(order))):
            rows = rows[order]
        return cls(sorted_ids, np.ascontiguousarray(rows, dtype=np.float64))

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return len(self.ids)


def _check_unique(sorted_ids, source) -> None:
    for prev, rec_id in zip(sorted_ids, sorted_ids[1:]):
        if prev == rec_id:
            raise DuplicateId(f"{source}: id {rec_id!r} appears twice")


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


def _read_blocks(path, magic: bytes):
    """Yield the records of a binary set file, in file order, as RecordSets
    of at most ``BLOCK_ROWS`` records; the file is read once, straight into
    a float32 block buffer. A set with no records is one empty block."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12:
            raise SchemaError(f"{path}: too small for a header")
        if head[:4] != magic:
            raise SchemaError(f"{path}: bad magic {head[:4]!r}, expected {magic!r}")
        dim, count = struct.unpack_from("<II", head, 4)
        if dim == 0:
            raise SchemaError(f"{path}: header declares dim 0")
        # no more rows than the file can hold, so a bad header allocates nothing large
        fit = (size - 12) // (2 + 4 * dim)
        ids, rows = [], np.empty((min(count, BLOCK_ROWS, fit), dim), dtype="<f4")
        for record in range(count):
            id_len = fh.read(2)
            if len(id_len) < 2:
                raise SchemaError(f"{path}: truncated record header")
            id_len = int.from_bytes(id_len, "little")
            if fh.tell() + id_len + 4 * dim > size:
                raise DimMismatch(
                    f"{path}: record for dim {dim} runs past end of file (truncated row?)"
                )
            try:
                ids.append(fh.read(id_len).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise SchemaError(
                    f"{path}: the id of record {record} is not UTF-8 ({exc})"
                ) from exc
            fh.readinto(rows[len(ids) - 1])
            if len(ids) == len(rows):
                # the block is converted to float64, a copy, so the buffer is free again
                yield RecordSet.from_records(ids, rows, source=path)
                ids = []
        if fh.tell() != size:
            raise SchemaError(f"{path}: {size - fh.tell()} trailing bytes after last record")
        if ids or not count:
            yield RecordSet.from_records(ids, rows[: len(ids)], source=path)


def _read_csv(path) -> RecordSet:
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
    return RecordSet.from_records(ids, np.array(vectors, dtype=np.float64), source=path)


def _blocks(path, magic: bytes):
    """The records of a set file as RecordSet blocks; a CSV file is one block."""
    if _is_csv(path):
        yield _read_csv(path)
    else:
        yield from _read_blocks(path, magic)


def _joined(blocks, source) -> RecordSet:
    blocks = list(blocks)
    if len(blocks) == 1:
        return blocks[0]
    return RecordSet.from_records(
        [rec_id for block in blocks for rec_id in block.ids],
        np.concatenate([block.rows for block in blocks]),
        source=source,
    )


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
    # vecdot (NumPy 2.0) computes each row's norm as the dot product
    # row @ row does, so every row gets the same bits as v / np.sqrt(v @ v);
    # einsum does not
    norms = np.sqrt(np.vecdot(rows, rows))
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0.0)))
    if bad.size:
        raise ZeroNorm(f"{source}: embedding {ids[bad[0]]!r} has no direction")
    rows /= norms[:, None]
    return rows


def read_embedding_blocks(path):
    """Read an embedding set once, as RecordSet blocks of at most
    ``BLOCK_ROWS`` records in file order, each with its rows in id order and
    scaled to unit L2 norm. A row with no direction is rejected in its
    block; an id repeated in two blocks raises DuplicateId after the last
    block, so a caller that consumes every block has seen every fault. The
    reader holds one block at a time, plus every id read so far for that
    check: the ids are the one part that grows with the number of records."""
    ids = []
    for block in _blocks(path, EMB_MAGIC):
        _unit_rows(block.ids, block.rows, path)
        ids += block.ids
        yield block
    ids.sort()
    _check_unique(ids, path)


def load_embedding_set(path) -> RecordSet:
    """Load a whole embedding set and scale its rows to unit L2 norm;
    duplicate ids and rows with no direction are rejected."""
    return _joined(read_embedding_blocks(path), path)


def save_posterior_set(path, posteriors: RecordSet) -> None:
    _write_records(path, POS_MAGIC, posteriors)


def load_posterior_set(path) -> RecordSet:
    """Load classifier posteriors; rows must sum to 1 within 1%, and are
    renormalized to sum exactly 1."""
    posteriors = _joined(_blocks(path, POS_MAGIC), path)
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
