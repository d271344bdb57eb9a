"""Unit tests for encrypted tensors."""

import numpy as np
import pytest

from repro.crypto.tensor import EncryptedTensor
from repro.errors import EncodingError


def encrypt(values, keypair, rng, exponent=0):
    return EncryptedTensor.encrypt(np.asarray(values), keypair[0], rng,
                                   exponent)


class TestRoundTrip:
    def test_2d_signed(self, keypair, rng):
        values = np.array([[1, -2], [3, -4]])
        tensor = encrypt(values, keypair, rng)
        assert np.array_equal(tensor.decrypt(keypair[1]), values)

    def test_3d_shape_preserved(self, keypair, rng):
        values = np.arange(8).reshape(2, 2, 2)
        tensor = encrypt(values, keypair, rng)
        assert tensor.shape == (2, 2, 2)
        assert np.array_equal(tensor.decrypt(keypair[1]), values)

    def test_decrypt_float_rescales(self, keypair, rng):
        tensor = encrypt([150, -25], keypair, rng, exponent=2)
        result = tensor.decrypt_float(keypair[1])
        assert result == pytest.approx([1.5, -0.25])

    def test_float_input_rejected(self, keypair, rng):
        with pytest.raises(EncodingError):
            encrypt(np.array([1.5, 2.5]), keypair, rng)

    def test_shape_cell_mismatch(self, keypair, rng):
        tensor = encrypt([1, 2, 3], keypair, rng)
        with pytest.raises(EncodingError):
            EncryptedTensor(keypair[0], tensor.cells(), (2, 2))


class TestShapeOps:
    def test_reshape_and_flatten(self, keypair, rng):
        tensor = encrypt(np.arange(6).reshape(2, 3), keypair, rng)
        reshaped = tensor.reshape((3, 2))
        assert reshaped.shape == (3, 2)
        flat = tensor.flatten()
        assert flat.shape == (6,)
        assert np.array_equal(flat.decrypt(keypair[1]), np.arange(6))


class TestAffine:
    def test_matches_plaintext(self, keypair, rng):
        x = np.array([2, -1, 3])
        weights = np.array([[1, 0, 2], [0, -4, 1]])
        bias = np.array([5, -6])
        tensor = encrypt(x, keypair, rng)
        result = tensor.affine(weights, bias, rng).decrypt(keypair[1])
        expected = weights @ x + bias
        assert np.array_equal(result.astype(np.int64), expected)

    def test_exponent_accumulation(self, keypair, rng):
        tensor = encrypt([10], keypair, rng, exponent=1)
        out = tensor.affine(np.array([[3]]), np.array([0]), rng,
                            weight_exponent=2)
        assert out.exponent == 3

    def test_weight_shape_validation(self, keypair, rng):
        tensor = encrypt([1, 2], keypair, rng)
        with pytest.raises(EncodingError):
            tensor.affine(np.array([[1, 2, 3]]), np.array([0]), rng)

    def test_bias_shape_validation(self, keypair, rng):
        tensor = encrypt([1, 2], keypair, rng)
        with pytest.raises(EncodingError):
            tensor.affine(np.array([[1, 2]]), np.array([0, 1]), rng)

    def test_random_affine_vs_numpy(self, keypair_256, rng, np_rng):
        pub, priv = keypair_256
        x = np_rng.integers(-100, 100, size=6)
        weights = np_rng.integers(-50, 50, size=(4, 6))
        bias = np_rng.integers(-1000, 1000, size=4)
        tensor = EncryptedTensor.encrypt(x, pub, rng)
        result = tensor.affine(weights, bias, rng).decrypt(priv)
        assert np.array_equal(
            result.astype(np.int64), weights @ x + bias
        )
