import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatmix import codec as C
from beatmix.dsp import LOG_FLOOR
from beatmix.errors import (
    CodecMismatch,
    HashMismatch,
    InsufficientData,
    NonDivisibleShape,
    ShapeMismatch,
)


def random_mels(rng, count=6, t=64, f=128):
    # kept well inside (LOG_FLOOR, 0) so reconstructions stay off the clamp
    return [np.clip(rng.normal(-40, 10, (t, f)), -70, -10) for _ in range(count)]


def test_uniform_patch_corpus_reconstructs_exactly_with_one_component(rng):
    # every patch identical -> after mean removal all patches are the mean,
    # so a single component (with zero coefficients) already reconstructs it
    patch = np.clip(rng.normal(-40, 10, (8, 8)), -70, -10)
    frames = np.tile(patch, (8, 16))
    mels = [frames.copy() for _ in range(4)]
    codec = C.fit(mels, n_components=1, patch_size=8)
    rec = C.decode(codec, C.encode(codec, mels[0]))
    assert np.abs(rec - frames).max() < 1e-4


def test_complete_basis_is_lossless(rng):
    mels = random_mels(rng)
    codec = C.fit(mels, n_components=64, patch_size=8)
    rec = C.decode(codec, C.encode(codec, mels[0]))
    assert np.abs(rec - mels[0]).max() < 1e-5


def test_error_non_increasing_in_components(rng):
    mels = random_mels(rng)
    prev = None
    for n_components in (4, 8, 16, 32):
        codec = C.fit(mels, n_components=n_components, patch_size=8)
        err = float(
            np.mean(
                [
                    np.linalg.norm(C.decode(codec, C.encode(codec, m)) - m)
                    for m in mels
                ]
            )
        )
        if prev is not None:
            assert err <= prev + 1e-9
        prev = err


def test_latent_shape_contract(rng):
    mels = random_mels(rng, t=1024)
    codec = C.fit(mels[:3], n_components=16, patch_size=8)
    latent = C.encode(codec, mels[0])
    assert latent.values.shape == (16, 128, 16)


def test_mean_mel_encodes_to_zero(rng):
    mels = random_mels(rng)
    codec = C.fit(mels, n_components=8, patch_size=8)
    tiled = C._from_patches(np.tile(codec.mean.astype(np.float64), (8 * 16, 1)), 64, 128, 8)
    latent = C.encode(codec, tiled)
    assert np.abs(latent.values).max() < 1e-4


def test_zero_latent_decodes_to_mean(rng):
    mels = random_mels(rng)
    codec = C.fit(mels, n_components=8, patch_size=8)
    zero = C.LatentTensor(np.zeros((8, 8, 16)), codec.codec_id)
    rec = C.decode(codec, zero)
    tiled = C._from_patches(np.tile(codec.mean.astype(np.float64), (8 * 16, 1)), 64, 128, 8)
    assert np.array_equal(rec, np.maximum(tiled, LOG_FLOOR))


def test_projection_idempotence(rng):
    mels = random_mels(rng)
    codec = C.fit(mels, n_components=16, patch_size=8)
    lat = C.encode(codec, mels[0])
    again = C.encode(codec, C.decode(codec, lat))
    assert np.abs(lat.values - again.values).max() < 1e-5


@settings(max_examples=20, deadline=None)
@given(lam=st.floats(min_value=0.01, max_value=0.99), seed=st.integers(0, 1000))
def test_encode_linearity(lam, seed):
    rng = np.random.default_rng(seed)
    mels = random_mels(rng, count=3, t=16, f=16)
    codec = C.fit(mels, n_components=4, patch_size=4)
    m1, m2 = mels[0], mels[1]
    mixed = lam * m1 + (1 - lam) * m2
    lhs = C.encode(codec, mixed).values
    rhs = lam * C.encode(codec, m1).values + (1 - lam) * C.encode(codec, m2).values
    assert np.abs(lhs - rhs).max() < 1e-5


def test_decode_encode_contracts_centered_norm(rng):
    mels = random_mels(rng)
    codec = C.fit(mels, n_components=8, patch_size=8)
    mean_mel = C._from_patches(np.tile(codec.mean.astype(np.float64), (8 * 16, 1)), 64, 128, 8)
    for m in mels:
        rec = C.decode(codec, C.encode(codec, m))
        assert np.linalg.norm(rec - mean_mel) <= np.linalg.norm(m - mean_mel) + 1e-6


def test_basis_orthonormal(rng):
    mels = random_mels(rng)
    codec = C.fit(mels, n_components=16, patch_size=8)
    gram = codec.basis.astype(np.float64) @ codec.basis.astype(np.float64).T
    assert np.abs(gram - np.eye(16)).max() < 1e-6


def test_fit_determinism_and_sign_convention(rng):
    mels = random_mels(rng)
    c1 = C.fit(mels, n_components=8, patch_size=8)
    c2 = C.fit(list(mels), n_components=8, patch_size=8)
    assert np.array_equal(c1.basis, c2.basis)
    for row in c1.basis:
        assert row[np.argmax(np.abs(row))] > 0


def test_fit_insufficient_data():
    tiny = [np.zeros((8, 8))]  # 1 patch of 8x8
    with pytest.raises(InsufficientData):
        C.fit(tiny, n_components=4, patch_size=8)


def test_fit_non_divisible_shape(rng):
    bad = [np.zeros((16, 12))]
    with pytest.raises(NonDivisibleShape):
        C.fit(bad, n_components=4, patch_size=8)


def test_encode_shape_mismatch(rng):
    mels = random_mels(rng)
    codec = C.fit(mels, n_components=8, patch_size=8)
    odd = np.zeros((30, 128))
    with pytest.raises(ShapeMismatch):
        C.encode(codec, odd)


def test_decode_codec_mismatch(rng):
    mels = random_mels(rng)
    c1 = C.fit(mels[:3], n_components=8, patch_size=8)
    c2 = C.fit(mels[3:], n_components=8, patch_size=8)
    lat = C.encode(c1, mels[0])
    with pytest.raises(CodecMismatch):
        C.decode(c2, lat)


def test_decode_refuses_a_latent_of_other_than_n_mels_bins(rng):
    mels = random_mels(rng, count=3, t=16, f=16)
    codec = C.fit(mels, n_components=4, patch_size=4)
    with pytest.raises(ShapeMismatch, match="latent implies 16 mel bins, a mel has 128"):
        C.decode(codec, C.encode(codec, mels[0]))


def test_save_load_bit_exact(tmp_path, rng):
    mels = random_mels(rng)
    codec = C.fit(mels, n_components=16, patch_size=8)
    path = tmp_path / "codec.bin"
    C.save(codec, path)
    back = C.load(path)
    assert np.array_equal(codec.mean, back.mean)
    assert np.array_equal(codec.basis, back.basis)
    assert codec.codec_id == back.codec_id
    # encode after reload matches encode before save, bit for bit
    a = C.encode(codec, mels[0]).values
    b = C.encode(back, mels[0]).values
    assert np.array_equal(a, b)


def test_tampered_file_raises_hash_mismatch(tmp_path, rng):
    mels = random_mels(rng)
    codec = C.fit(mels, n_components=8, patch_size=8)
    path = tmp_path / "codec.bin"
    C.save(codec, path)
    raw = bytearray(path.read_bytes())
    raw[60] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(HashMismatch):
        C.load(path)


def test_orthonormality_survives_save_load(tmp_path, rng):
    mels = random_mels(rng)
    codec = C.fit(mels, n_components=16, patch_size=8)
    path = tmp_path / "codec.bin"
    C.save(codec, path)
    back = C.load(path)
    gram = back.basis.astype(np.float64) @ back.basis.astype(np.float64).T
    assert np.abs(gram - np.eye(16)).max() < 1e-6
