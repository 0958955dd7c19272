"""Writers of the binary embedding and posterior sets that ``eval`` reads.

beatmix only reads these files (``beatmix.gateway``); the embeddings come
from models outside it. The tests write their inputs here, through the
program's ``atomic_write``.
"""

import struct

import numpy as np

from beatmix.gateway import EMB_MAGIC, POS_MAGIC
from beatmix.manifest import atomic_write


def write_raw(path, magic, ids, rows):
    """A binary set with its records in exactly the given order."""
    parts = [magic, struct.pack("<II", np.shape(rows)[1], len(ids))]
    for rec_id, row in zip(ids, np.asarray(rows, dtype="<f4")):
        id_bytes = rec_id.encode("utf-8")
        parts += [struct.pack("<H", len(id_bytes)), id_bytes, row.tobytes()]
    atomic_write(path, b"".join(parts))


def save_embedding_set(path, embeddings):
    write_raw(path, EMB_MAGIC, embeddings.ids, embeddings.rows)


def save_posterior_set(path, posteriors):
    write_raw(path, POS_MAGIC, posteriors.ids, posteriors.rows)
