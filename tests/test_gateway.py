import struct

import numpy as np
import pytest

from beatmix import gateway as G
from beatmix.errors import (
    DimMismatch,
    DuplicateId,
    NotAProbability,
    SchemaError,
    ZeroNorm,
)


# --- normalize ----------------------------------------------------------------

def test_normalize_three_four():
    rows = G._unit_rows(["a"], np.array([[3.0, 4.0, 0.0]]), "src")
    assert np.allclose(rows, [[0.6, 0.8, 0.0]])


def test_normalize_unit_unchanged(rng):
    v = rng.normal(size=32)
    v /= np.linalg.norm(v)
    out = G._unit_rows(["x"], v[None, :].copy(), "src")
    assert np.abs(out[0] - v).max() < 1e-7


def test_normalize_zero_raises():
    with pytest.raises(ZeroNorm, match="src: embedding 'z' has no direction"):
        G._unit_rows(["z"], np.zeros((1, 8)), "src")


@pytest.mark.parametrize("d", [3, 128, 512, 527, 1000])
def test_normalize_matches_per_row_dot_bit_for_bit(d, rng):
    rows = rng.normal(size=(5000, d))
    expected = np.array([row / np.sqrt(row @ row) for row in rows])
    out = G._unit_rows([f"r{i}" for i in range(5000)], rows, "src")
    assert np.array_equal(out, expected)


# --- binary files ----------------------------------------------------------------

def unit_vectors(rng, n, d, prefix):
    rows = rng.normal(size=(n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return G.RecordSet.from_records([f"{prefix}{i:03d}" for i in range(n)], rows)


def write_raw(path, magic, ids, rows):
    """A binary set with its records in exactly the given order."""
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<II", rows.shape[1], len(ids)))
        for rec_id, row in zip(ids, rows):
            fh.write(struct.pack("<H", len(rec_id)) + rec_id.encode())
            fh.write(np.asarray(row, dtype="<f4").tobytes())


def test_embedding_round_trip(tmp_path, rng):
    embs = unit_vectors(rng, 3, 16, "t")
    path = tmp_path / "e.emb"
    G.save_embedding_set(path, embs)
    back = G.load_embedding_set(path)
    assert back.ids == embs.ids == ("t000", "t001", "t002")
    assert back.rows.shape == (3, 16) and back.rows.dtype == np.float64
    assert np.abs(back.rows - embs.rows).max() < 1e-7
    assert len(back) == 3


def test_embedding_round_trip_bit_exact_after_reload(tmp_path, rng):
    # f32 payload: a second save/load cycle reproduces the file byte for byte
    embs = unit_vectors(rng, 5, 32, "t")
    p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
    G.save_embedding_set(p1, embs)
    G.save_embedding_set(p2, G.load_embedding_set(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_rows_match_normalize_bit_for_bit(tmp_path, rng):
    rows = rng.normal(size=(200, 512)).astype("<f4")
    ids = [f"r{i:03d}" for i in range(200)]
    path = tmp_path / "raw.emb"
    write_raw(path, G.EMB_MAGIC, ids, rows)
    back = G.load_embedding_set(path)
    for i, row in enumerate(rows.astype(np.float64)):
        assert np.array_equal(back.rows[i], row / np.sqrt(row @ row))


def test_blocks_join_to_the_whole_set(tmp_path, rng, monkeypatch):
    path = tmp_path / "shuffled.emb"
    ids = [f"r{i:03d}" for i in rng.permutation(30)]
    write_raw(path, G.EMB_MAGIC, ids, rng.normal(size=(30, 8)))
    whole = G.load_embedding_set(path)
    monkeypatch.setattr(G, "BLOCK_ROWS", 7)
    blocks = list(G.read_embedding_blocks(path))
    assert [len(b) for b in blocks] == [7, 7, 7, 7, 2]
    assert [list(b.ids) for b in blocks] == [sorted(ids[k : k + 7]) for k in range(0, 30, 7)]
    joined = G.load_embedding_set(path)
    assert joined.ids == whole.ids == tuple(sorted(ids))
    assert np.array_equal(joined.rows, whole.rows)


def test_header_larger_than_file_allocates_no_buffer(tmp_path):
    path = tmp_path / "huge.emb"
    path.write_bytes(G.EMB_MAGIC + struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF) + b"\x01\x00a")
    with pytest.raises(DimMismatch):
        G.load_embedding_set(path)


def test_embedding_truncated_row(tmp_path):
    path = tmp_path / "short.emb"
    with open(path, "wb") as fh:
        fh.write(G.EMB_MAGIC + struct.pack("<II", 512, 1))
        fh.write(struct.pack("<H", 1) + b"a")
        fh.write(np.zeros(511, dtype="<f4").tobytes())  # one value short
    with pytest.raises(DimMismatch):
        G.load_embedding_set(path)


def test_embedding_duplicate_id(tmp_path):
    path = tmp_path / "dup.emb"
    write_raw(path, G.EMB_MAGIC, ["a", "b", "a"], np.ones((3, 4)))
    with pytest.raises(DuplicateId, match="dup.emb.*'a'"):
        G.load_embedding_set(path)


def test_embedding_zero_row_names_id_and_file(tmp_path):
    path = tmp_path / "zero.emb"
    rows = np.ones((3, 4))
    rows[1] = 0.0
    write_raw(path, G.EMB_MAGIC, ["a", "b", "c"], rows)
    with pytest.raises(ZeroNorm, match="zero.emb.*'b'"):
        G.load_embedding_set(path)


def test_embedding_bad_magic(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"NOPE" + bytes(8))
    with pytest.raises(SchemaError):
        G.load_embedding_set(path)


def test_embedding_trailing_garbage(tmp_path, rng):
    embs = unit_vectors(rng, 2, 8, "t")
    path = tmp_path / "trail.emb"
    G.save_embedding_set(path, embs)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(SchemaError):
        G.load_embedding_set(path)


def test_empty_binary_set_loads_as_empty_matrix(tmp_path):
    path = tmp_path / "empty.emb"
    write_raw(path, G.EMB_MAGIC, [], np.zeros((0, 6)))
    back = G.load_embedding_set(path)
    assert len(back) == 0 and back.rows.shape == (0, 6) and not back


def test_csv_fallback(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("b,0,5,0\na,3,4,0\n")
    back = G.load_embedding_set(path)
    assert back.ids == ("a", "b")
    assert np.allclose(back.rows, [[0.6, 0.8, 0.0], [0.0, 1.0, 0.0]])


def test_csv_dim_mismatch(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("a,1,2,3\nb,1,2\n")
    with pytest.raises(DimMismatch):
        G.load_embedding_set(path)


# --- posteriors --------------------------------------------------------------------

def posteriors(rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return G.RecordSet.from_records([f"p{i}" for i in range(len(rows))], rows)


def test_posterior_uniform_accepted(tmp_path):
    path = tmp_path / "p.post"
    G.save_posterior_set(path, posteriors(np.full((3, 10), 0.1)))
    back = G.load_posterior_set(path)
    assert back.ids == ("p0", "p1", "p2")
    assert np.allclose(back.rows, 0.1)
    assert np.abs(back.rows.sum(axis=1) - 1.0).max() < 1e-6


def test_posterior_half_sum_rejected(tmp_path):
    path = tmp_path / "p.post"
    G.save_posterior_set(path, posteriors([[0.5, 0.5], [0.25, 0.25]]))
    with pytest.raises(NotAProbability, match="p.post.*'p1' sums to 0.5000"):
        G.load_posterior_set(path)


def test_posterior_near_one_renormalized(tmp_path):
    path = tmp_path / "p.post"
    G.save_posterior_set(path, posteriors([0.502, 0.502]))  # sums to 1.004
    back = G.load_posterior_set(path)
    assert abs(back.rows[0].sum() - 1.0) < 1e-9


def test_posterior_negative_rejected(tmp_path):
    path = tmp_path / "p.post"
    G.save_posterior_set(path, posteriors([[0.5, 0.5], [1.2, -0.2]]))
    with pytest.raises(NotAProbability, match="p.post.*'p1' has negative"):
        G.load_posterior_set(path)
