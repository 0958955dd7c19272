import contextlib
import sys

import numpy as np
import pytest

from beatmix import manifest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class InjectedCrash(Exception):
    """The failure ``crash_at`` injects: neither an InputError nor an
    OSError, so ``main`` reports it as an internal error (exit 2)."""


class _HalfWriter:
    """A file whose first write stores half of its bytes and then crashes."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        data = bytes(data)
        self._fh.write(data[: len(data) // 2])
        raise InjectedCrash(f"crashed writing {self._fh.name}")

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.fixture
def crash_at(monkeypatch):
    """``crash_at(k)`` makes the k-th call of ``manifest.atomic_open`` from
    then on crash halfway through its first write, as a process that dies
    mid-write would, in every beatmix module that binds ``atomic_open``;
    ``crash_at(0)`` only counts. Returns the list of the paths opened, one
    per call, which goes on growing after the crash, so that a later run is
    not crashed again."""
    real = manifest.atomic_open
    modules = [
        module for name, module in sys.modules.items()
        if name.partition(".")[0] == "beatmix" and getattr(module, "atomic_open", None) is real
    ]

    def install(k):
        opened = []

        @contextlib.contextmanager
        def atomic_open(path):
            opened.append(path)
            with real(path) as fh:
                yield _HalfWriter(fh) if len(opened) == k else fh

        for module in modules:
            monkeypatch.setattr(module, "atomic_open", atomic_open)
        return opened

    return install
