"""Seeded byte mutations of the binary files beatmix reads: every mutant
either loads or raises an ``InputError`` subclass, which the CLI reports as
exit 1, never an internal error."""

import random

import numpy as np
import pytest

from beatmix import codec, gateway
from beatmix.errors import InputError
from beatmix.gateway import RecordSet
from beatmix.wavio import load_wav
from sets import save_embedding_set, save_posterior_set
from test_wavio import probe_wav, write_raw_wav

MUTANTS = 300


def mutants(data, seed):
    """``MUTANTS`` copies of ``data``, each with bits flipped, truncated, a
    header byte set to an extreme value or bytes inserted."""
    rnd = random.Random(seed)
    for _ in range(MUTANTS):
        raw = bytearray(data)
        kind = rnd.randrange(4)
        if kind == 0:
            for _ in range(rnd.randint(1, 4)):
                raw[rnd.randrange(len(raw))] ^= 1 << rnd.randrange(8)
        elif kind == 1:
            del raw[rnd.randrange(len(raw)) :]
        elif kind == 2:
            raw[rnd.randrange(48)] = rnd.choice((0x00, 0x01, 0x7F, 0x80, 0xFF))
        else:
            at = rnd.randrange(len(raw) + 1)
            raw[at:at] = bytes(rnd.randrange(256) for _ in range(rnd.randint(1, 8)))
        yield bytes(raw)


def _records(n, d):
    rng = np.random.default_rng(5)
    return RecordSet.from_records([f"id{i}" for i in range(n)], rng.dirichlet(np.ones(d), size=n))


def _codec():
    rng = np.random.default_rng(6)
    return codec.fit([rng.normal(size=(16, 8)) for _ in range(4)], n_components=3, patch_size=4)


def _wav(path):
    # 256 frames, so that no mutated sample rate makes a load large
    frames = np.random.default_rng(7).uniform(-1.0, 1.0, (256, 2))
    write_raw_wav(path, frames, 44100, "pcm24")


FILES = {
    "EMB1": (lambda path: save_embedding_set(path, _records(6, 5)), gateway.load_embedding_set),
    "POS1": (lambda path: save_posterior_set(path, _records(6, 5)), gateway.load_posterior_set),
    "codec": (lambda path: codec.save(_codec(), path), codec.load),
    "load_wav": (_wav, load_wav),
    "probe_wav": (_wav, probe_wav),
}


@pytest.mark.parametrize("kind", sorted(FILES))
def test_every_mutant_loads_or_raises_an_input_error(tmp_path, kind):
    write, load = FILES[kind]
    path = tmp_path / "file"
    write(path)
    outcomes = set()
    for mutant in mutants(path.read_bytes(), kind):
        path.write_bytes(mutant)
        try:
            load(path)
            outcomes.add("loaded")
        except InputError as exc:
            outcomes.add(type(exc).__name__)
    # the mutants reach more than one check
    assert len(outcomes) >= 2, outcomes
