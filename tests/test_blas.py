import contextlib
import ctypes
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import beatmix
from beatmix import _blas
from beatmix.dsp import invert_mel, mel_spectrogram
from beatmix.mixup import CLIP_SAMPLES

SRC = os.path.dirname(os.path.dirname(os.path.abspath(beatmix.__file__)))


@pytest.fixture
def blas():
    """NumPy's OpenBLAS thread count controls, (get, set)."""
    controls = _blas._controls()
    if controls is None:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        assert "openblas" not in name.lower(), f"{name} loaded but not found"
        pytest.skip(f"NumPy links {name}, not OpenBLAS")
    return controls


@contextlib.contextmanager
def blas_threads(blas, n):
    """The block on ``n`` BLAS threads, then the count as it was."""
    get, set_ = blas
    before = get()
    set_(n)
    try:
        yield
    finally:
        set_(before)


def test_serial_blas_runs_one_thread_and_restores_the_count(blas):
    get, _ = blas
    with blas_threads(blas, 2):
        with _blas.serial_blas():
            assert get() == 1
        assert get() == 2
        with pytest.raises(ZeroDivisionError):
            with _blas.serial_blas():
                1 / 0
        assert get() == 2


def test_serial_blas_without_openblas_runs_the_block_unchanged(monkeypatch):
    monkeypatch.setattr(_blas, "_controls", lambda: None)
    ran = []
    with _blas.serial_blas():
        ran.append(True)
    assert ran == [True]
    with pytest.raises(KeyError):
        with _blas.serial_blas():
            raise KeyError("raised in the block")


def _unloadable(lib):
    raise OSError(f"{lib}: cannot open shared object file")


_MAPS = "7f0000000000-7f0000001000 r-xp 00000000 00:00 0 /usr/lib/libopenblas.so.0\n"


@pytest.mark.parametrize("maps, cdll", [
    (None, None),
    (_MAPS, _unloadable),
    (_MAPS, lambda lib: object()),  # no thread-count symbols
], ids=["no-proc-maps", "unloadable-library", "no-thread-count-symbols"])
def test_serial_blas_without_controls_found_runs_the_block_unchanged(monkeypatch, maps, cdll):
    def fake_open(path, *args, **kwargs):
        if maps is None:
            raise FileNotFoundError(2, "No such file or directory", path)
        return io.StringIO(maps)

    monkeypatch.setattr(_blas, "open", fake_open, raising=False)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    _blas._controls.cache_clear()  # neither this case nor a later test sees a cached lookup
    try:
        assert _blas._controls() is None
        ran = []
        with _blas.serial_blas():
            ran.append(True)
        assert ran == [True]
    finally:
        _blas._controls.cache_clear()


def test_mel_and_inversion_bits_do_not_depend_on_the_blas_thread_count(blas, rng):
    x = rng.uniform(-1.0, 1.0, CLIP_SAMPLES)
    with blas_threads(blas, 2):
        mel = mel_spectrogram(x)
        audio = invert_mel(mel, 2)
        with _blas.serial_blas():
            assert mel_spectrogram(x).tobytes() == mel.tobytes()
            assert invert_mel(mel, 2).tobytes() == audio.tobytes()


# Run in a fresh interpreter: print, as a JSON object, the SHA-256 of the
# bits of each named result. Every result but "control" must have the same
# bits under every BLAS kernel and thread count; "control", a plain BLAS
# product, must not, or the runs show nothing.
_PROBE = """
import hashlib, json
import numpy as np
from beatmix.dsp import _mel_amplitudes, mel_filterbank, mel_spectrogram

x = np.random.default_rng(0).uniform(-1.0, 1.0, 12 * 16000)
mag = np.abs(np.random.default_rng(1).normal(size=(2001, mel_filterbank().shape[1])))
results = {
    "mel_amplitudes": _mel_amplitudes(x),
    "mel": mel_spectrogram(x),
    "control": mag @ mel_filterbank().T,
}
print(json.dumps({name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in results.items()}))
"""


def _probe(coretype, threads):
    """The probe's digests with OpenBLAS on ``threads`` threads and its
    ``coretype`` kernel (None: the one it picks for this CPU)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-4000:]
    return json.loads(done.stdout)


def test_mel_bits_do_not_depend_on_the_blas_kernel_or_thread_count():
    runs = {(kernel, threads): _probe(kernel, threads)
            for kernel in (None, "Haswell", "Prescott") for threads in (1, 2)}
    if runs["Haswell", 1]["control"] == runs["Prescott", 1]["control"]:
        pytest.skip("a plain product has the same bits under the Haswell and the Prescott "
                    "kernel: OpenBLAS ignores OPENBLAS_CORETYPE, or NumPy links another BLAS")
    for name in runs[None, 1]:
        if name != "control":
            assert len({digests[name] for digests in runs.values()}) == 1, name
