"""Unit tests for key and tensor wire formats."""

import struct

import numpy as np
import pytest

from repro.crypto.paillier import generate_keypair
from repro.crypto.serialize import (
    ciphertext_bytes,
    private_key_from_json,
    private_key_to_json,
    public_key_from_json,
    public_key_to_json,
    tensor_frame_bytes,
    tensor_from_bytes,
    tensor_to_bytes,
)
from repro.crypto.tensor import EncryptedTensor
from repro.errors import EncodingError, KeyMismatchError


class TestKeySerialization:
    def test_public_round_trip(self, keypair):
        pub, _ = keypair
        restored = public_key_from_json(public_key_to_json(pub))
        assert restored.n == pub.n
        assert restored.key_size == pub.key_size

    def test_private_round_trip(self, keypair, rng):
        pub, priv = keypair
        restored = private_key_from_json(private_key_to_json(priv))
        cipher = pub.encrypt(12345, rng)
        assert restored.decrypt(cipher) == 12345

    def test_kind_checked(self, keypair):
        pub, priv = keypair
        with pytest.raises(EncodingError):
            public_key_from_json(private_key_to_json(priv))
        with pytest.raises(EncodingError):
            private_key_from_json(public_key_to_json(pub))

    def test_malformed_json(self):
        with pytest.raises(EncodingError):
            public_key_from_json("not json")


class TestTensorSerialization:
    def test_round_trip(self, keypair, rng):
        pub, priv = keypair
        values = np.array([[1, -2, 3], [4, 5, -6]])
        tensor = EncryptedTensor.encrypt(values, pub, rng, exponent=2)
        blob = tensor_to_bytes(tensor)
        restored = tensor_from_bytes(blob, pub)
        assert restored.shape == (2, 3)
        assert restored.exponent == 2
        assert np.array_equal(restored.decrypt(priv), values)

    def test_wire_size_is_deterministic(self, keypair, rng):
        pub, _ = keypair
        tensor = EncryptedTensor.encrypt(np.arange(5), pub, rng)
        blob = tensor_to_bytes(tensor)
        header = 15 + 4  # fixed v2 header + one dim
        assert len(blob) == header + 5 * ciphertext_bytes(pub.key_size)
        assert len(blob) == tensor_frame_bytes(pub.key_size, rank=1,
                                               size=5)

    def test_v1_frame_is_refused(self, keypair, rng):
        """Version 1 (no payload-kind byte) is no longer a frame."""
        pub, _ = keypair
        tensor = EncryptedTensor.encrypt(np.array([7, -8, 9]), pub, rng)
        blob = (struct.pack(">4sBIiBI", b"PPST", 1, pub.key_size, 0, 1, 3)
                + tensor_to_bytes(tensor)[19:])
        with pytest.raises(EncodingError, match="version 1"):
            tensor_from_bytes(blob, pub)

    def test_negative_exponent_not_produced_but_header_signed(
            self, keypair, rng):
        pub, _ = keypair
        tensor = EncryptedTensor.encrypt(np.arange(3), pub, rng,
                                         exponent=7)
        restored = tensor_from_bytes(tensor_to_bytes(tensor), pub)
        assert restored.exponent == 7

    def test_bad_magic(self, keypair, rng):
        pub, _ = keypair
        blob = tensor_to_bytes(
            EncryptedTensor.encrypt(np.arange(2), pub, rng)
        )
        with pytest.raises(EncodingError):
            tensor_from_bytes(b"XXXX" + blob[4:], pub)

    def test_truncated_body(self, keypair, rng):
        pub, _ = keypair
        blob = tensor_to_bytes(
            EncryptedTensor.encrypt(np.arange(2), pub, rng)
        )
        with pytest.raises(EncodingError):
            tensor_from_bytes(blob[:-3], pub)

    def test_trailing_bytes(self, keypair, rng):
        pub, _ = keypair
        blob = tensor_to_bytes(
            EncryptedTensor.encrypt(np.arange(2), pub, rng)
        )
        with pytest.raises(EncodingError):
            tensor_from_bytes(blob + b"\x00", pub)

    def test_key_size_mismatch(self, keypair, rng):
        pub, _ = keypair
        other_pub, _ = generate_keypair(256, seed=9)
        blob = tensor_to_bytes(
            EncryptedTensor.encrypt(np.arange(2), pub, rng)
        )
        with pytest.raises(KeyMismatchError):
            tensor_from_bytes(blob, other_pub)

    def test_short_blob(self, keypair):
        pub, _ = keypair
        with pytest.raises(EncodingError):
            tensor_from_bytes(b"PP", pub)

    def test_out_of_range_ciphertext_detected(self, keypair, rng):
        pub, _ = keypair
        tensor = EncryptedTensor.encrypt(np.arange(1), pub, rng)
        blob = bytearray(tensor_to_bytes(tensor))
        width = ciphertext_bytes(pub.key_size)
        # zero out the single ciphertext -> value 0, illegal
        blob[-width:] = b"\x00" * width
        with pytest.raises(EncodingError):
            tensor_from_bytes(bytes(blob), pub)
