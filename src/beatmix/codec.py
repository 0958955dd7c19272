"""Linear mel <-> latent codec: PCA over non-overlapping patches.

Each mel, a T x F array, is cut into P x P tiles, every tile is flattened,
centered on the corpus mean, and projected onto the top C principal
directions. A mel therefore maps to a plain (C, T/P, F/P) float64 array;
for a 10.24 s clip (T=1024, F=128) and the default P=8, C=16 that is
(16, 128, 16). ``decode`` takes such an array from the same codec and gives
back the mel, clamped at ``dsp.LOG_FLOOR``. P must divide ``dsp.N_MELS``
(128), and T must be a multiple of P: ``fit-codec`` checks its ``--patch``
and crops each mel to whole patches, ``load`` rejects a file whose P does
not divide 128, and a clip's 1024 rows are a multiple of any P that does.
``encode`` and ``decode`` make no BLAS call, so that a blm render's bits do
not depend on the BLAS; ``fit`` uses the BLAS and LAPACK.

Because encode and decode are affine, a convex combination of two latents
decodes to the same convex combination of the two reconstructions, which is
what makes latent-space mixing well defined here. The codec is three
functions (``fit``, ``encode``, ``decode``) over plain arrays, so a nonlinear
autoencoder could replace them without touching the mixer.
"""

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from .dsp import LOG_FLOOR, N_MELS
from .errors import InputError, SchemaError
from .manifest import atomic_write

_MAGIC = b"BMPC"
_VERSION = 1


@dataclass
class PcaCodec:
    patch_size: int
    n_components: int
    mean: np.ndarray  # (P*P,) float32
    basis: np.ndarray  # (C, P*P) float32, orthonormal rows
    fit_stats: dict = field(default_factory=dict)

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float32)
        self.basis = np.asarray(self.basis, dtype=np.float32)


def _payload_hash(codec: PcaCodec) -> bytes:
    h = hashlib.sha256()
    h.update(struct.pack("<II", codec.patch_size, codec.n_components))
    h.update(codec.mean.tobytes())
    h.update(codec.basis.tobytes())
    return h.digest()


def _to_patches(frames: np.ndarray, patch: int) -> np.ndarray:
    t, f = frames.shape
    tiles = frames.reshape(t // patch, patch, f // patch, patch)
    return tiles.transpose(0, 2, 1, 3).reshape(-1, patch * patch)


def _from_patches(patches: np.ndarray, t: int, f: int, patch: int) -> np.ndarray:
    tiles = patches.reshape(t // patch, f // patch, patch, patch)
    return tiles.transpose(0, 2, 1, 3).reshape(t, f)


def fit(mels, n_components: int, patch_size: int) -> PcaCodec:
    """Fit the patch-PCA codec on an iterable of T x F mel arrays.

    Covariance is accumulated in one streaming pass, so the corpus never has
    to fit in memory at once. Deterministic for a fixed corpus order; each
    eigenvector's sign is fixed by making its largest-magnitude entry
    positive. The (P*P, P*P) sum starts only once ``n_components`` patches
    are in, so a corpus too small for the fit never allocates it: at P=128
    it is 2 GiB.
    """
    p2 = patch_size * patch_size
    count = 0
    total = np.zeros(p2)
    outer = 0.0  # until the first product: 0.0 + it has the bits of an np.zeros + it
    held = []  # each mel's patches, until n_components patches are in
    for mel in mels:
        patches = _to_patches(np.asarray(mel, dtype=np.float64), patch_size)
        count += patches.shape[0]
        total += patches.sum(axis=0)
        held.append(patches)
        if count >= n_components:
            for patches in held:
                outer += patches.T @ patches
            held.clear()
    if count < n_components:
        # fit-codec's flags: a smaller patch cuts more patches from each mel
        raise InputError(
            f"{count} patches < {n_components} components: lower --components or --patch"
        )

    mean = total / count
    cov = outer / count - np.outer(mean, mean)
    cov = (cov + cov.T) / 2
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:n_components]
    basis = eigvecs[:, order].T.copy()
    for row in basis:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaCodec(
        patch_size=patch_size,
        n_components=n_components,
        mean=mean.astype(np.float32),
        basis=basis.astype(np.float32),
        fit_stats={"n_patches": count},
    )


def encode(codec: PcaCodec, mel: np.ndarray) -> np.ndarray:
    """Project a mel onto the codec basis; the result is a (C, T/P, F/P)
    float64 array."""
    t, f = mel.shape
    p = codec.patch_size
    patches = _to_patches(mel, p)
    coeffs = np.einsum("np,cp->nc", patches - codec.mean.astype(np.float64),
                       codec.basis.astype(np.float64), optimize=False)
    return coeffs.reshape(t // p, f // p, codec.n_components).transpose(2, 0, 1)


def decode(codec: PcaCodec, latent: np.ndarray) -> np.ndarray:
    """Reconstruct a mel from a (C, T/P, F/P) latent array of this codec,
    clamped at the log floor."""
    c, tp, fp = latent.shape
    p = codec.patch_size
    coeffs = latent.transpose(1, 2, 0).reshape(-1, c)
    patches = np.einsum("nc,cp->np", coeffs, codec.basis.astype(np.float64), optimize=False)
    patches += codec.mean.astype(np.float64)
    frames = _from_patches(patches, tp * p, fp * p, p)
    return np.maximum(frames, LOG_FLOOR)


def save(codec: PcaCodec, path) -> None:
    """Versioned binary file: header, content hash, mean, basis (all f32 LE)."""
    atomic_write(path, b"".join([
        _MAGIC,
        struct.pack("<III", _VERSION, codec.patch_size, codec.n_components),
        _payload_hash(codec),
        codec.mean.astype("<f4").tobytes(),
        codec.basis.astype("<f4").tobytes(),
    ]))


def load(path) -> PcaCodec:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4 + 12 + 32:
        raise SchemaError(f"{path}: file too small for a codec header")
    if data[:4] != _MAGIC:
        raise SchemaError(f"{path}: bad magic {data[:4]!r}")
    version, patch_size, n_components = struct.unpack_from("<III", data, 4)
    if version != _VERSION:
        raise SchemaError(f"{path}: unsupported codec version {version}")
    p2 = patch_size * patch_size
    if not (patch_size >= 1 and N_MELS % patch_size == 0 and 1 <= n_components <= p2):
        raise SchemaError(
            f"{path}: P={patch_size}, C={n_components} is no codec (fit needs P >= 1 "
            f"dividing {N_MELS} and 1 <= C <= P*P)"
        )
    stored_hash = data[16:48]
    expect = 48 + 4 * p2 + 4 * n_components * p2
    if len(data) != expect:
        raise SchemaError(f"{path}: expected {expect} bytes, found {len(data)}")
    mean = np.frombuffer(data, dtype="<f4", count=p2, offset=48).copy()
    basis = (
        np.frombuffer(data, dtype="<f4", count=n_components * p2, offset=48 + 4 * p2)
        .reshape(n_components, p2)
        .copy()
    )
    codec = PcaCodec(patch_size=patch_size, n_components=n_components, mean=mean, basis=basis)
    if _payload_hash(codec) != stored_hash:
        raise InputError(f"{path}: content hash mismatch (file corrupted or tampered)")
    return codec
