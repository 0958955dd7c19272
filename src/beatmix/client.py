"""HTTP client for a live embedding service.

POST ``<endpoint>/embed/audio`` with WAV bytes, or ``<endpoint>/embed/text``
with UTF-8 text; the response is JSON ``{"dim": D, "vector": [...]}``. One
``embed`` call returns a ``gateway.RecordSet`` of unit rows, normalized by
the same helper as a set loaded from a file, so ``gateway.save_embedding_set``
can write it as it is.

This is the only module that imports ``requests``; the command-line stages
do not import it.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import requests

from .errors import BadStatus, DimMismatch, SchemaError, Timeout
from .gateway import RecordSet, _unit_rows
from .wavio import wav_bytes


class EmbeddingClient:
    """Client for a remote embedding service with bounded retries.

    Retries cover timeouts, connection errors, and 5xx responses, with
    exponential backoff; 4xx responses fail immediately.
    """

    def __init__(
        self,
        endpoint: str,
        expected_dim: int | None = None,
        timeout: float = 10.0,
        retries: int = 3,
        backoff: float = 0.25,
        session=None,
        sleep=time.sleep,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.expected_dim = expected_dim
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.session = session or requests.Session()
        self._sleep = sleep

    def embed(self, items, max_inflight: int = 8) -> tuple[RecordSet, dict[str, int]]:
        """Embed ``{id: samples | str}`` with at most ``max_inflight``
        requests at once: a string goes to the text route, anything else,
        1-D samples in [-1, 1] at ``dsp.SAMPLE_RATE``, to the audio route.
        Returns the unit rows in id order, and the number of requests each
        id took."""
        if not items:
            raise ValueError("nothing to embed")
        for rec_id, payload in items.items():
            if not isinstance(payload, str) and np.ndim(payload) != 1:
                raise ValueError(f"{rec_id!r}: audio samples must be one-dimensional")

        def one(rec_id):
            payload = items[rec_id]
            if isinstance(payload, str):
                return self._post(
                    "/embed/text", payload.encode("utf-8"), "text/plain; charset=utf-8"
                )
            samples = np.asarray(payload, dtype=np.float64)
            return self._post("/embed/audio", wav_bytes(samples), "audio/wav")

        ids = sorted(items)
        with ThreadPoolExecutor(max_workers=max(1, max_inflight)) as pool:
            urls, vectors, attempts = zip(*pool.map(one, ids))
        for url, rec_id, vector in zip(urls, ids, vectors):
            if vector.size != vectors[0].size:
                raise DimMismatch(
                    f"{url}: {rec_id!r} has dim {vector.size}, the first row {vectors[0].size}"
                )
        rows = _unit_rows(ids, np.array(vectors), self.endpoint)
        return RecordSet(tuple(ids), rows), dict(zip(ids, attempts))

    def _post(self, route, body, content_type) -> tuple[str, np.ndarray, int]:
        """(url, response vector, requests made) for one item."""
        url = self.endpoint + route
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                self._sleep(self.backoff * 2 ** (attempt - 1))
            try:
                resp = self.session.post(
                    url, data=body, headers={"Content-Type": content_type},
                    timeout=self.timeout,
                )
            except requests.Timeout as exc:
                last_error = Timeout(f"{url}: no answer within {self.timeout}s")
                last_error.__cause__ = exc
                continue
            except requests.ConnectionError as exc:
                last_error = Timeout(f"{url}: connection failed ({exc})")
                continue
            if 500 <= resp.status_code < 600:
                last_error = BadStatus(f"{url}: HTTP {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise BadStatus(f"{url}: HTTP {resp.status_code}")
            return url, self._parse(resp, url), attempt + 1
        raise last_error if last_error is not None else Timeout(f"{url}: no attempts made")

    def _parse(self, resp, url) -> np.ndarray:
        try:
            payload = resp.json()
        except ValueError as exc:
            raise SchemaError(f"{url}: response is not JSON") from exc
        if not isinstance(payload, dict) or "dim" not in payload or "vector" not in payload:
            raise SchemaError(f"{url}: response must be an object with 'dim' and 'vector'")
        try:
            vector = np.asarray(payload["vector"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{url}: vector is not a list of numbers ({exc})") from exc
        if not np.isfinite(vector).all():  # JSON null converts to NaN
            raise SchemaError(f"{url}: vector holds a null or non-finite entry")
        if vector.ndim != 1 or vector.size != payload["dim"]:
            raise SchemaError(
                f"{url}: vector length {vector.size} disagrees with dim {payload['dim']}"
            )
        if self.expected_dim is not None and vector.size != self.expected_dim:
            raise DimMismatch(
                f"{url}: provider returned dim {vector.size}, expected {self.expected_dim}"
            )
        return vector
