import contextlib

import numpy as np
import pytest

from beatmix import _blas
from beatmix.dsp import _filterbank_product, invert_mel, mel_filterbank, mel_spectrogram
from beatmix.mixup import CLIP_SAMPLES


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


def test_mel_and_inversion_bits_do_not_depend_on_the_blas_thread_count(blas, rng):
    x = rng.uniform(-1.0, 1.0, CLIP_SAMPLES)
    with blas_threads(blas, 2):
        mel = mel_spectrogram(x)
        audio = invert_mel(mel, 2)
        with _blas.serial_blas():
            assert mel_spectrogram(x).tobytes() == mel.tobytes()
            assert invert_mel(mel, 2).tobytes() == audio.tobytes()


def test_the_filterbank_product_has_the_bits_of_one_product_on_several_threads(blas, rng):
    mag = np.abs(rng.normal(size=(1001, mel_filterbank().shape[1])))
    with blas_threads(blas, 2):
        several = mag @ mel_filterbank().T
        with _blas.serial_blas():
            assert _filterbank_product(mag).tobytes() == several.tobytes()
