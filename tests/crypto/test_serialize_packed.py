"""Wire-format tests for lane-packed tensor frames (serialize v2),
including a malformed-frame fuzz sweep."""

import random
import struct

import numpy as np
import pytest

from repro.crypto.encoding import LanePacker
from repro.crypto.paillier import generate_keypair
from repro.crypto.serialize import (
    KIND_PACKED,
    KIND_SCALAR,
    any_tensor_from_bytes,
    any_tensor_to_bytes,
    frame_kind,
    packed_tensor_from_bytes,
    packed_tensor_to_bytes,
    tensor_frame_bytes,
    tensor_from_bytes,
    tensor_to_bytes,
)
from repro.crypto.tensor import EncryptedTensor, PackedEncryptedTensor
from repro.errors import EncodingError, KeyMismatchError


@pytest.fixture()
def packed_tensor(keypair, rng):
    pub, _ = keypair
    packer = LanePacker(pub, lanes=4, mag_bits=16)
    values = np.array([[1, -2, 3], [40, 5, -6]])  # batch 2, 3 positions
    return PackedEncryptedTensor.encrypt_batch(values, packer, rng,
                                               exponent=1), values


class TestPackedRoundTrip:
    def test_round_trip_preserves_geometry_and_values(
            self, keypair, packed_tensor):
        pub, priv = keypair
        tensor, values = packed_tensor
        blob = packed_tensor_to_bytes(tensor)
        assert frame_kind(blob) == KIND_PACKED
        restored = packed_tensor_from_bytes(blob, pub)
        assert restored.batch == 2
        assert restored.shape == (3,)
        assert restored.exponent == 1
        assert restored.packer.lanes == 4
        assert restored.packer.mag_bits == 16
        assert restored.packer.guard_bits == tensor.packer.guard_bits
        assert np.array_equal(restored.decrypt(priv), values)

    def test_frame_size_matches_analytic(self, keypair, packed_tensor):
        pub, _ = keypair
        tensor, _ = packed_tensor
        blob = packed_tensor_to_bytes(tensor)
        assert len(blob) == tensor_frame_bytes(
            pub.key_size, rank=1, size=tensor.size, packed=True
        )
        # The lane-geometry extension costs exactly 8 bytes over the
        # scalar v2 frame.
        assert len(blob) == tensor_frame_bytes(
            pub.key_size, rank=1, size=tensor.size
        ) + 8

    def test_any_dispatch_both_kinds(self, keypair, rng,
                                     packed_tensor):
        pub, priv = keypair
        packed, values = packed_tensor
        scalar = EncryptedTensor.encrypt(np.arange(4), pub, rng)
        restored_scalar = any_tensor_from_bytes(
            any_tensor_to_bytes(scalar), pub
        )
        assert isinstance(restored_scalar, EncryptedTensor)
        assert np.array_equal(restored_scalar.decrypt(priv),
                              np.arange(4))
        restored_packed = any_tensor_from_bytes(
            any_tensor_to_bytes(packed), pub
        )
        assert isinstance(restored_packed, PackedEncryptedTensor)
        assert np.array_equal(restored_packed.decrypt(priv), values)

    def test_scalar_parser_rejects_packed_frame(self, keypair,
                                                packed_tensor):
        pub, _ = keypair
        tensor, _ = packed_tensor
        with pytest.raises(EncodingError):
            tensor_from_bytes(packed_tensor_to_bytes(tensor), pub)

    def test_packed_parser_rejects_scalar_frame(self, keypair, rng):
        pub, _ = keypair
        blob = tensor_to_bytes(
            EncryptedTensor.encrypt(np.arange(2), pub, rng)
        )
        with pytest.raises(EncodingError):
            packed_tensor_from_bytes(blob, pub)


class TestMalformedPackedFrames:
    def test_key_mismatch(self, keypair, packed_tensor):
        _, _ = keypair
        tensor, _ = packed_tensor
        other_pub, _ = generate_keypair(256, seed=9)
        with pytest.raises(KeyMismatchError):
            packed_tensor_from_bytes(packed_tensor_to_bytes(tensor),
                                     other_pub)

    def test_batch_out_of_range(self, keypair, packed_tensor):
        pub, _ = keypair
        tensor, _ = packed_tensor
        blob = bytearray(packed_tensor_to_bytes(tensor))
        # The lane-geometry extension sits right after the 15-byte v2
        # header: lanes, mag_bits, guard_bits, batch (>H each).
        struct.pack_into(">H", blob, 15 + 6, 9)  # batch 9 > 4 lanes
        with pytest.raises(EncodingError):
            packed_tensor_from_bytes(bytes(blob), pub)

    def test_zero_batch_rejected(self, keypair, packed_tensor):
        pub, _ = keypair
        tensor, _ = packed_tensor
        blob = bytearray(packed_tensor_to_bytes(tensor))
        struct.pack_into(">H", blob, 15 + 6, 0)
        with pytest.raises(EncodingError):
            packed_tensor_from_bytes(bytes(blob), pub)

    def test_geometry_too_big_for_key_rejected(self, keypair,
                                               packed_tensor):
        pub, _ = keypair
        tensor, _ = packed_tensor
        blob = bytearray(packed_tensor_to_bytes(tensor))
        # 1000 lanes cannot fit a 128-bit modulus: the rebuilt packer's
        # own capacity check must reject the frame.
        struct.pack_into(">H", blob, 15, 1000)
        with pytest.raises(EncodingError):
            packed_tensor_from_bytes(bytes(blob), pub)

    def test_truncated_lane_header(self, keypair, packed_tensor):
        pub, _ = keypair
        tensor, _ = packed_tensor
        blob = packed_tensor_to_bytes(tensor)
        with pytest.raises(EncodingError):
            packed_tensor_from_bytes(blob[:18], pub)

    def test_truncated_and_trailing_bodies(self, keypair,
                                           packed_tensor):
        pub, _ = keypair
        tensor, _ = packed_tensor
        blob = packed_tensor_to_bytes(tensor)
        with pytest.raises(EncodingError):
            packed_tensor_from_bytes(blob[:-1], pub)
        with pytest.raises(EncodingError):
            packed_tensor_from_bytes(blob + b"\x00", pub)

    def test_fuzz_corruption_never_garbage(self, keypair,
                                           packed_tensor):
        """Random byte flips / truncations either raise EncodingError /
        KeyMismatchError or still parse to a well-formed tensor object
        — never any other exception."""
        pub, _ = keypair
        tensor, _ = packed_tensor
        base = packed_tensor_to_bytes(tensor)
        fuzz_rng = random.Random(20260806)
        for _ in range(300):
            blob = bytearray(base)
            if fuzz_rng.randrange(2):
                blob[fuzz_rng.randrange(len(blob))] ^= \
                    1 << fuzz_rng.randrange(8)
            else:
                blob = blob[:fuzz_rng.randrange(len(blob))]
            try:
                restored = any_tensor_from_bytes(bytes(blob), pub)
            except (EncodingError, KeyMismatchError):
                continue
            assert isinstance(restored,
                              (EncryptedTensor, PackedEncryptedTensor))
            assert restored.size == int(np.prod(restored.shape))


class TestKindConstants:
    def test_kind_bytes_are_stable(self):
        # Wire constants: changing these breaks deployed peers.
        assert KIND_SCALAR == 0
        assert KIND_PACKED == 1
