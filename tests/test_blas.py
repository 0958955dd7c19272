import functools
import json
import os
import subprocess
import sys

import pytest

import beatmix

SRC = os.path.dirname(os.path.dirname(os.path.abspath(beatmix.__file__)))


# Run in a fresh interpreter: print, as a JSON object, the SHA-256 of the
# bits of each named result. Every result but "control" must have the same
# bits under every BLAS kernel and thread count; "control", a plain BLAS
# product, must not, or the runs show nothing.
_PROBE = """
import hashlib, json
import numpy as np
from beatmix import codec, mixup
from beatmix.dsp import (GL_ITERATIONS, _filterbank_pinv, _mel_amplitudes, invert_mel,
                         mel_filterbank, mel_spectrogram)

x = np.random.default_rng(0).uniform(-1.0, 1.0, 12 * 16000)
mag = np.abs(np.random.default_rng(1).normal(size=(2001, mel_filterbank().shape[1])))
mel = mel_spectrogram(x)
# a codec from fixed arrays: fit's bits depend on the BLAS and LAPACK
fixed = np.random.default_rng(2)
pca = codec.PcaCodec(patch_size=8, n_components=4, mean=fixed.uniform(-60.0, -20.0, 64),
                     basis=fixed.normal(size=(4, 64)) / 8.0)
latents = [codec.encode(pca, mel[first : first + 1024]) for first in (0, 100)]
results = {
    "mel_amplitudes": _mel_amplitudes(x),
    "mel": mel,
    "pinv": _filterbank_pinv(),
    "invert_mel": invert_mel(mel, 2),
    "blm": invert_mel(codec.decode(pca, mixup.convex_mix(*latents, 0.3)), GL_ITERATIONS),
    "control": mag @ mel_filterbank().T,
}
print(json.dumps({name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in results.items()}))
"""


@functools.cache  # each run starts an interpreter; the tests share them
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


def test_mel_and_inversion_bits_do_not_depend_on_the_blas_thread_count():
    one, two = _probe(None, 1), _probe(None, 2)
    for name in ("mel", "invert_mel"):
        assert one[name] == two[name], name


def test_mel_bits_do_not_depend_on_the_blas_kernel_or_thread_count():
    runs = {(kernel, threads): _probe(kernel, threads)
            for kernel in (None, "Haswell", "Prescott") for threads in (1, 2)}
    if runs["Haswell", 1]["control"] == runs["Prescott", 1]["control"]:
        pytest.skip("a plain product has the same bits under the Haswell and the Prescott "
                    "kernel: OpenBLAS ignores OPENBLAS_CORETYPE, or NumPy links another BLAS")
    for name in runs[None, 1]:
        if name != "control":
            assert len({digests[name] for digests in runs.values()}) == 1, name
