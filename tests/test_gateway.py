import json
import struct
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from beatmix import gateway as G
from beatmix.dsp import Waveform
from beatmix.errors import (
    BadStatus,
    DimMismatch,
    DuplicateId,
    NotAProbability,
    SchemaError,
    Timeout,
    ZeroNorm,
)


# --- normalize ----------------------------------------------------------------

def test_normalize_three_four():
    emb = G.normalize(G.Embedding(np.array([3.0, 4.0, 0.0]), "text", "a"))
    assert np.allclose(emb.vector, [0.6, 0.8, 0.0])


def test_normalize_unit_unchanged(rng):
    v = rng.normal(size=32)
    v /= np.linalg.norm(v)
    out = G.normalize(G.Embedding(v.copy(), "audio", "x"))
    assert np.abs(out.vector - v).max() < 1e-7


def test_normalize_zero_raises():
    with pytest.raises(ZeroNorm):
        G.normalize(G.Embedding(np.zeros(8), "audio", "z"))


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
    for i, rec_id in enumerate(ids):
        assert np.array_equal(back.rows[i], G.normalize(G.Embedding(rows[i], "audio", rec_id)).vector)


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


# --- HTTP client ---------------------------------------------------------------------

class MockEmbedServer:
    """Tiny in-process embedding service with scriptable failures."""

    def __init__(self, dim=8, fail_first=0, hang=False):
        self.dim = dim
        self.fail_first = fail_first
        self.hang = hang
        self.requests_seen = 0
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                outer.requests_seen += 1
                try:
                    self.rfile.read(int(self.headers.get("Content-Length", 0)))
                    if outer.hang:
                        import time

                        time.sleep(2)
                    if outer.requests_seen <= outer.fail_first:
                        self.send_response(503)
                        self.end_headers()
                        return
                    vec = [float(i + 1) for i in range(outer.dim)]
                    body = json.dumps({"dim": outer.dim, "vector": vec}).encode()
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # client gave up (timeout scenarios)

            def log_message(self, *args):
                pass

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def endpoint(self):
        return f"http://127.0.0.1:{self.server.server_port}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def wave(rng):
    return Waveform(rng.uniform(-0.5, 0.5, 1600), 16000)


def test_fetch_success_normalized(wave):
    server = MockEmbedServer(dim=8)
    try:
        client = G.EmbeddingClient(server.endpoint, sleep=lambda s: None)
        emb = client.embed_audio(wave, "clip1")
        expect = np.arange(1.0, 9.0)
        expect /= np.linalg.norm(expect)
        assert np.abs(emb.vector - expect).max() < 1e-7
        assert emb.id == "clip1" and emb.modality == "audio"
        assert client.last_attempts == 1
    finally:
        server.close()


def test_fetch_text_route(wave):
    server = MockEmbedServer(dim=4)
    try:
        client = G.EmbeddingClient(server.endpoint, sleep=lambda s: None)
        emb = client.embed_text("a calm piano piece")
        assert emb.modality == "text"
        assert abs(np.linalg.norm(emb.vector) - 1.0) < 1e-9
    finally:
        server.close()


def test_fetch_retries_then_succeeds(wave):
    server = MockEmbedServer(dim=8, fail_first=2)
    try:
        client = G.EmbeddingClient(server.endpoint, retries=3, sleep=lambda s: None)
        emb = client.embed_audio(wave)
        assert client.last_attempts == 3  # two failures, then success
        assert abs(np.linalg.norm(emb.vector) - 1.0) < 1e-9
    finally:
        server.close()


def test_fetch_exhausted_retries_raise(wave):
    server = MockEmbedServer(dim=8, fail_first=99)
    try:
        client = G.EmbeddingClient(server.endpoint, retries=2, sleep=lambda s: None)
        with pytest.raises(BadStatus):
            client.embed_audio(wave)
        assert client.last_attempts == 3
    finally:
        server.close()


def test_fetch_dim_mismatch(wave):
    server = MockEmbedServer(dim=256)
    try:
        client = G.EmbeddingClient(server.endpoint, expected_dim=512, sleep=lambda s: None)
        with pytest.raises(DimMismatch):
            client.embed_audio(wave)
    finally:
        server.close()


def test_fetch_timeout(wave):
    server = MockEmbedServer(dim=8, hang=True)
    try:
        client = G.EmbeddingClient(
            server.endpoint, timeout=0.2, retries=1, sleep=lambda s: None
        )
        with pytest.raises(Timeout):
            client.embed_audio(wave)
        assert client.last_attempts == 2
    finally:
        server.close()


def test_fetch_unreachable_endpoint(wave):
    client = G.EmbeddingClient(
        "http://127.0.0.1:9", timeout=0.2, retries=1, sleep=lambda s: None
    )
    with pytest.raises(Timeout):
        client.embed_audio(wave)


def test_embed_many_bounded_parallel(wave):
    server = MockEmbedServer(dim=8)
    try:
        client = G.EmbeddingClient(server.endpoint, sleep=lambda s: None)
        items = {"a": wave, "b": "some caption", "c": wave}
        out = client.embed_many(items, max_inflight=2)
        assert set(out) == {"a", "b", "c"}
        assert out["b"].modality == "text" and out["a"].modality == "audio"
        assert server.requests_seen == 3
    finally:
        server.close()
