"""Linear mel <-> latent codec: PCA over non-overlapping patches.

Each mel, a T x F array, is cut into P x P tiles, every tile is flattened,
centered on the corpus mean, and projected onto the top C principal
directions. A mel therefore maps to a (C, T/P, F/P) latent tensor; for a
10.24 s clip (T=1024, F=128) and the default P=8, C=16 that is
(16, 128, 16). ``decode`` gives back a mel of ``dsp.N_MELS`` bins, clamped at
``dsp.LOG_FLOOR``.

Because encode and decode are affine, a convex combination of two latents
decodes to the same convex combination of the two reconstructions, which is
what makes latent-space mixing well defined here. The codec interface is
deliberately small so a nonlinear autoencoder can be substituted behind it.
"""

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from .dsp import LOG_FLOOR, N_MELS
from .errors import (
    CodecMismatch,
    HashMismatch,
    InsufficientData,
    NonDivisibleShape,
    SchemaError,
    ShapeMismatch,
)
from .manifest import atomic_write

_MAGIC = b"BMPC"
_VERSION = 1


@dataclass
class LatentTensor:
    """C x T/P x F/P coefficients plus the id of the codec that made them."""

    values: np.ndarray
    codec_id: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise ValueError("latent tensor must be 3-D (C, T/P, F/P)")


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
        p2 = self.patch_size * self.patch_size
        if self.mean.shape != (p2,) or self.basis.shape != (self.n_components, p2):
            raise ValueError("mean/basis shapes disagree with patch_size and n_components")
        if self.n_components > p2:
            raise ValueError("cannot keep more components than the patch dimensionality")

    @property
    def codec_id(self) -> str:
        return _payload_hash(self).hex()


def _payload_hash(codec: PcaCodec) -> bytes:
    h = hashlib.sha256()
    h.update(struct.pack("<II", codec.patch_size, codec.n_components))
    h.update(codec.mean.tobytes())
    h.update(codec.basis.tobytes())
    return h.digest()


def _to_patches(frames: np.ndarray, patch: int) -> np.ndarray:
    t, f = frames.shape
    if t % patch or f % patch:
        raise NonDivisibleShape(f"mel shape {t}x{f} not divisible by patch size {patch}")
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
    positive.
    """
    p2 = patch_size * patch_size
    if n_components < 1 or n_components > p2:
        raise ValueError(f"n_components must be in [1, {p2}]")
    count = 0
    total = np.zeros(p2)
    outer = np.zeros((p2, p2))
    for mel in mels:
        patches = _to_patches(np.asarray(mel, dtype=np.float64), patch_size)
        count += patches.shape[0]
        total += patches.sum(axis=0)
        outer += patches.T @ patches
    if count < n_components:
        raise InsufficientData(f"{count} patches < {n_components} components")

    mean = total / count
    cov = outer / count - np.outer(mean, mean)
    cov = (cov + cov.T) / 2
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:n_components]
    basis = eigvecs[:, order].T.copy()
    for row in basis:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0

    total_var = float(np.trace(cov))
    retained = float(np.sum(np.maximum(eigvals[order], 0.0)))
    stats = {
        "n_patches": count,
        "total_variance": total_var,
        "retained_variance": retained,
        "mean_residual_mse": max(total_var - retained, 0.0) / p2,
    }
    return PcaCodec(
        patch_size=patch_size,
        n_components=n_components,
        mean=mean.astype(np.float32),
        basis=basis.astype(np.float32),
        fit_stats=stats,
    )


def encode(codec: PcaCodec, mel: np.ndarray) -> LatentTensor:
    """Project a mel onto the codec basis; result is (C, T/P, F/P)."""
    t, f = mel.shape
    p = codec.patch_size
    try:
        patches = _to_patches(mel, p)
    except NonDivisibleShape as exc:
        raise ShapeMismatch(str(exc)) from exc
    coeffs = (patches - codec.mean.astype(np.float64)) @ codec.basis.T.astype(np.float64)
    values = coeffs.reshape(t // p, f // p, codec.n_components).transpose(2, 0, 1)
    return LatentTensor(values=values, codec_id=codec.codec_id)


def decode(codec: PcaCodec, latent: LatentTensor) -> np.ndarray:
    """Reconstruct a mel from a latent tensor (clamped at the log floor)."""
    if latent.codec_id != codec.codec_id:
        raise CodecMismatch(
            f"latent was encoded by codec {latent.codec_id[:12]}..., "
            f"this codec is {codec.codec_id[:12]}..."
        )
    c, tp, fp = latent.values.shape
    if c != codec.n_components:
        raise ShapeMismatch(f"latent has {c} channels, codec keeps {codec.n_components}")
    p = codec.patch_size
    if fp * p != N_MELS:
        raise ShapeMismatch(f"latent implies {fp * p} mel bins, a mel has {N_MELS}")
    coeffs = latent.values.transpose(1, 2, 0).reshape(-1, c)
    patches = coeffs @ codec.basis.astype(np.float64) + codec.mean.astype(np.float64)
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
    if not (patch_size >= 1 and 1 <= n_components <= patch_size * patch_size):
        raise SchemaError(
            f"{path}: P={patch_size}, C={n_components} is no codec (fit needs P >= 1 "
            "and 1 <= C <= P*P)"
        )
    stored_hash = data[16:48]
    p2 = patch_size * patch_size
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
        raise HashMismatch(f"{path}: content hash mismatch (file corrupted or tampered)")
    return codec
