import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

import beatmix
from beatmix.client import EmbeddingClient
from beatmix.errors import BadStatus, DimMismatch, SchemaError, Timeout, ZeroNorm


class MockEmbedServer:
    """Tiny in-process embedding service with scriptable failures. Every
    answer carries ``vector`` (by default 1, 2, ..., dim)."""

    def __init__(self, dim=8, fail_first=0, hang=False, vector=None):
        self.vector = [float(i + 1) for i in range(dim)] if vector is None else list(vector)
        self.fail_first = fail_first
        self.hang = hang
        self.requests_seen = 0
        self.paths = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                outer.requests_seen += 1
                outer.paths.append(self.path)
                try:
                    self.rfile.read(int(self.headers.get("Content-Length", 0)))
                    if outer.hang:
                        import time

                        time.sleep(2)
                    if outer.requests_seen <= outer.fail_first:
                        self.send_response(503)
                        self.end_headers()
                        return
                    body = json.dumps({"dim": len(outer.vector), "vector": outer.vector}).encode()
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


def test_cli_import_leaves_requests_unloaded():
    src = os.path.dirname(os.path.dirname(beatmix.__file__))
    probe = "import sys, beatmix.cli; print('requests' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_embed_sequential_attempts_per_id(wave):
    server = MockEmbedServer(fail_first=2)
    try:
        client = EmbeddingClient(server.endpoint, retries=3, sleep=lambda s: None)
        records, attempts = client.embed({"c": wave, "a": wave, "b": "text"}, max_inflight=1)
        assert records.ids == ("a", "b", "c")
        assert attempts == {"a": 3, "b": 1, "c": 1}
    finally:
        server.close()


def test_embed_parallel_attempts_add_up_to_requests(wave):
    server = MockEmbedServer(fail_first=2)
    try:
        client = EmbeddingClient(server.endpoint, retries=3, sleep=lambda s: None)
        _, attempts = client.embed({"a": wave, "b": "text", "c": wave}, max_inflight=3)
        assert sorted(attempts) == ["a", "b", "c"]
        assert sum(attempts.values()) == server.requests_seen == 5
    finally:
        server.close()


def test_embed_rows_match_inline_normalization_bit_for_bit(rng, wave):
    v = rng.normal(size=512)
    server = MockEmbedServer(vector=v)
    try:
        client = EmbeddingClient(server.endpoint, sleep=lambda s: None)
        records, _ = client.embed({"a": wave, "b": "text"})
        assert records.rows.shape == (2, 512) and records.rows.dtype == np.float64
        for row in records.rows:
            assert np.array_equal(row, v / np.sqrt(v @ v))
    finally:
        server.close()


def test_embed_zero_vector_names_endpoint_and_id(wave):
    server = MockEmbedServer(vector=np.zeros(8))
    try:
        client = EmbeddingClient(server.endpoint, sleep=lambda s: None)
        with pytest.raises(ZeroNorm, match=f"{server.endpoint}: embedding 'a' has no direction"):
            client.embed({"a": wave})
    finally:
        server.close()


def test_embed_refuses_audio_that_is_not_one_dimensional(wave):
    server = MockEmbedServer()
    try:
        client = EmbeddingClient(server.endpoint, sleep=lambda s: None)
        with pytest.raises(ValueError, match="'b': audio samples must be one-dimensional"):
            client.embed({"a": wave, "b": wave.reshape(2, -1), "c": "text"})
        assert server.requests_seen == 0
    finally:
        server.close()


class _Answer:
    status_code = 200

    def __init__(self, payload):
        self.payload = payload

    def json(self):
        return self.payload


class _FakeSession:
    """Answers each request with the JSON payload ``answer(body)``."""

    def __init__(self, answer):
        self.answer = answer

    def post(self, url, data, headers, timeout):
        return _Answer(self.answer(data))


def test_embed_rows_of_different_lengths_name_url_and_id():
    # each text is answered with a vector as long as the text
    session = _FakeSession(lambda body: {"dim": len(body), "vector": [1.0] * len(body)})
    client = EmbeddingClient("http://127.0.0.1:9", session=session)
    with pytest.raises(DimMismatch, match=r"http://127.0.0.1:9/embed/text: 'b' has dim 5"):
        client.embed({"a": "four", "b": "five!"})


@pytest.mark.parametrize("vector", [["abc", 1.0], [[1.0], 2.0], [{}, 1.0]])
def test_embed_malformed_vector_is_schema_error(vector):
    session = _FakeSession(lambda body: {"dim": 2, "vector": vector})
    client = EmbeddingClient("http://127.0.0.1:9", session=session)
    with pytest.raises(SchemaError, match="127.0.0.1:9/embed/text: vector is not a list of numbers"):
        client.embed({"a": "text"})


@pytest.mark.parametrize("text", ["[null, 1.0]", "[NaN, 1.0]", "[1.0, Infinity]"])
def test_embed_non_finite_vector_is_schema_error(text):
    # json.loads is how the response body is decoded: null -> None, NaN -> nan
    session = _FakeSession(lambda body: {"dim": 2, "vector": json.loads(text)})
    client = EmbeddingClient("http://127.0.0.1:9", session=session)
    with pytest.raises(SchemaError, match="127.0.0.1:9/embed/text: vector holds a null"):
        client.embed({"a": "text"})


# --- routes, retries and timeouts ------------------------------------------------

def test_fetch_success_normalized(wave):
    server = MockEmbedServer(dim=8)
    try:
        client = EmbeddingClient(server.endpoint, sleep=lambda s: None)
        records, attempts = client.embed({"clip1": wave})
        expect = np.arange(1.0, 9.0)
        expect /= np.linalg.norm(expect)
        assert np.abs(records.rows[0] - expect).max() < 1e-7
        assert records.ids == ("clip1",) and server.paths == ["/embed/audio"]
        assert attempts == {"clip1": 1}
    finally:
        server.close()


def test_fetch_text_route(wave):
    server = MockEmbedServer(dim=4)
    try:
        client = EmbeddingClient(server.endpoint, sleep=lambda s: None)
        records, _ = client.embed({"t": "a calm piano piece"})
        assert server.paths == ["/embed/text"]
        assert abs(np.linalg.norm(records.rows[0]) - 1.0) < 1e-9
    finally:
        server.close()


def test_fetch_retries_then_succeeds(wave):
    server = MockEmbedServer(dim=8, fail_first=2)
    try:
        client = EmbeddingClient(server.endpoint, retries=3, sleep=lambda s: None)
        records, attempts = client.embed({"w": wave})
        assert attempts == {"w": 3}  # two failures, then success
        assert abs(np.linalg.norm(records.rows[0]) - 1.0) < 1e-9
    finally:
        server.close()


def test_fetch_exhausted_retries_raise(wave):
    server = MockEmbedServer(dim=8, fail_first=99)
    try:
        sleeps = []
        client = EmbeddingClient(server.endpoint, retries=2, sleep=sleeps.append)
        with pytest.raises(BadStatus):
            client.embed({"w": wave})
        assert server.requests_seen == 3 and sleeps == [0.25, 0.5]
    finally:
        server.close()


def test_fetch_dim_mismatch(wave):
    server = MockEmbedServer(dim=256)
    try:
        client = EmbeddingClient(server.endpoint, expected_dim=512, sleep=lambda s: None)
        with pytest.raises(DimMismatch):
            client.embed({"w": wave})
    finally:
        server.close()


def test_fetch_timeout(wave):
    server = MockEmbedServer(dim=8, hang=True)
    try:
        sleeps = []
        client = EmbeddingClient(server.endpoint, timeout=0.2, retries=1, sleep=sleeps.append)
        with pytest.raises(Timeout):
            client.embed({"w": wave})
        assert len(sleeps) == 1  # two attempts
    finally:
        server.close()


def test_fetch_unreachable_endpoint(wave):
    client = EmbeddingClient(
        "http://127.0.0.1:9", timeout=0.2, retries=1, sleep=lambda s: None
    )
    with pytest.raises(Timeout):
        client.embed({"w": wave})


def test_embed_mixed_items_bounded_parallel(wave):
    server = MockEmbedServer(dim=8)
    try:
        client = EmbeddingClient(server.endpoint, sleep=lambda s: None)
        items = {"a": wave, "b": "some caption", "c": wave}
        records, attempts = client.embed(items, max_inflight=2)
        assert records.ids == ("a", "b", "c") and records.rows.shape == (3, 8)
        assert attempts == {"a": 1, "b": 1, "c": 1}
        assert sorted(server.paths) == ["/embed/audio", "/embed/audio", "/embed/text"]
    finally:
        server.close()
