"""Wire-format tests for the frames the output fold reads (serialize
v2, ``KIND_BOUNDED``): a linear stage's N output ciphertexts with the
stage's certified bound, which the key holder folds in lanes of that
width.  Exact analytic size, round trip, and a malformed-frame sweep in
which every corruption fails as :class:`EncodingError` (or
:class:`KeyMismatchError`) and never parses into a wrong tensor.  The
retired folded-cell kinds (2 and 3) are refused by every parser."""

import random
import struct

import numpy as np
import pytest

from repro.crypto.encoding import LanePacker
from repro.crypto.paillier import generate_keypair
from repro.crypto.serialize import (
    KIND_BOUNDED,
    KIND_SCALAR,
    any_tensor_from_bytes,
    any_tensor_to_bytes,
    ciphertext_bytes,
    frame_bytes,
    frame_kind,
    packed_tensor_from_bytes,
    tensor_frame_bytes,
    tensor_from_bytes,
    tensor_to_bytes,
)
from repro.crypto.tensor import EncryptedTensor, PackedEncryptedTensor
from repro.errors import EncodingError, KeyMismatchError

#: The 2-byte bound follows the 15-byte scalar header (the v2 prefix and
#: the rank byte); the dimension words come after it.
BOUND_OFFSET = 15
KIND_OFFSET = 5


@pytest.fixture()
def folded(keypair, rng):
    """A bounded rank-1 tensor: ten values certified to ±2^20."""
    pub, _ = keypair
    values = np.array([5, -7, 300, 0, 12, -40000, 9, 1, -1, 2])
    plain = EncryptedTensor.encrypt(values, pub, rng, exponent=3)
    tensor = EncryptedTensor(pub, plain.cells(), (10,), 3, bound_bits=20)
    return tensor, values


class TestFoldedRoundTrip:
    def test_round_trip(self, keypair, folded):
        pub, priv = keypair
        tensor, values = folded
        blob = tensor_to_bytes(tensor)
        assert frame_kind(blob) == KIND_BOUNDED == 4
        restored = any_tensor_from_bytes(blob, pub)
        assert isinstance(restored, EncryptedTensor)
        assert restored.shape == (10,)
        assert restored.bound_bits == 20
        assert restored.exponent == 3
        assert [c.ciphertext for c in restored.cells()] == \
            [c.ciphertext for c in tensor.cells()]
        assert np.array_equal(restored.decrypt(priv), values)
        assert any_tensor_to_bytes(restored) == blob
        # The bound survives reshaping; a tensor without one is a plain
        # scalar frame.
        assert restored.reshape((2, 5)).flatten().bound_bits == 20
        bare = EncryptedTensor(pub, tensor.cells(), (10,), 3)
        assert frame_kind(tensor_to_bytes(bare)) == KIND_SCALAR
        for bad in (0, -3):
            with pytest.raises(EncodingError):
                EncryptedTensor(pub, tensor.cells(), (10,), 3,
                                bound_bits=bad)

    def test_frame_size_is_exact(self, keypair, folded):
        pub, _ = keypair
        tensor, _ = folded
        blob = tensor_to_bytes(tensor)
        assert len(blob) == frame_bytes(tensor) == tensor_frame_bytes(
            pub.key_size, rank=1, size=10, bounded=True)
        # The bound adds two bytes to a rank-1 scalar frame.
        assert len(blob) == tensor_frame_bytes(pub.key_size, rank=1,
                                               size=10) + 2

    def test_frame_bytes_covers_every_kind(self, keypair, rng, folded):
        pub, _ = keypair
        scalar = EncryptedTensor.encrypt(np.arange(6).reshape(2, 3),
                                         pub, rng)
        packed = PackedEncryptedTensor.encrypt_batch(
            np.arange(6).reshape(2, 3),
            LanePacker(pub, lanes=2, mag_bits=8), rng)
        for tensor in (scalar, packed, folded[0]):
            assert frame_bytes(tensor) == len(any_tensor_to_bytes(tensor))

    def test_other_parsers_refuse_folded_frames(self, keypair, folded):
        """The packed parser refuses a bounded frame, and every parser
        refuses the retired folded-cell kinds."""
        pub, _ = keypair
        blob = tensor_to_bytes(folded[0])
        with pytest.raises(EncodingError):
            packed_tensor_from_bytes(blob, pub)
        for retired in (2, 3):
            old = bytearray(blob)
            old[KIND_OFFSET] = retired
            for parse in (tensor_from_bytes, packed_tensor_from_bytes,
                          any_tensor_from_bytes):
                with pytest.raises(EncodingError):
                    parse(bytes(old), pub)

    def test_frame_flags_are_exclusive(self, keypair):
        pub, _ = keypair
        with pytest.raises(EncodingError):
            tensor_frame_bytes(pub.key_size, rank=1, size=1,
                               packed=True, bounded=True)


class TestMalformedFoldedFrames:
    def test_length_inconsistent_with_cell_count(self, keypair, folded):
        pub, _ = keypair
        blob = bytearray(tensor_to_bytes(folded[0]))
        for length in (9, 11, 0):
            struct.pack_into(">I", blob, BOUND_OFFSET + 2, length)
            with pytest.raises(EncodingError):
                tensor_from_bytes(bytes(blob), pub)

    def test_no_cells(self, keypair, folded):
        pub, _ = keypair
        blob = tensor_to_bytes(folded[0])
        with pytest.raises(EncodingError):
            tensor_from_bytes(blob[:BOUND_OFFSET + 2 + 4], pub)

    @pytest.mark.parametrize("value", [0, 129, 0xFFFF])
    def test_bound_out_of_range(self, keypair, folded, value):
        """A bound of 0, or wider than the modulus, certifies nothing
        and is refused."""
        pub, _ = keypair
        blob = bytearray(tensor_to_bytes(folded[0]))
        struct.pack_into(">H", blob, BOUND_OFFSET, value)
        with pytest.raises(EncodingError):
            tensor_from_bytes(bytes(blob), pub)

    def test_narrowed_bound_is_caught_on_decryption(self, keypair,
                                                    folded):
        """A bound too narrow for the values parses, but decryption
        refuses the values outside it instead of returning them."""
        pub, priv = keypair
        blob = bytearray(tensor_to_bytes(folded[0]))
        struct.pack_into(">H", blob, BOUND_OFFSET, 10)
        narrowed = tensor_from_bytes(bytes(blob), pub)
        assert narrowed.bound_bits == 10
        with pytest.raises(EncodingError):
            narrowed.decrypt(priv)

    def test_truncated_lane_header(self, keypair, folded):
        pub, _ = keypair
        blob = tensor_to_bytes(folded[0])
        for cut in range(BOUND_OFFSET, BOUND_OFFSET + 2 + 4):
            with pytest.raises(EncodingError):
                any_tensor_from_bytes(blob[:cut], pub)

    def test_truncated_and_trailing_bodies(self, keypair, folded):
        pub, _ = keypair
        blob = tensor_to_bytes(folded[0])
        width = ciphertext_bytes(pub.key_size)
        # blob[:-width] is whole ciphertexts, one fewer than declared.
        for bad in (blob[:-1], blob + b"\x00", blob[:-width // 2],
                    blob[:-width]):
            with pytest.raises(EncodingError):
                tensor_from_bytes(bad, pub)

    def test_key_mismatch(self, folded):
        other, _ = generate_keypair(256, seed=9)
        with pytest.raises(KeyMismatchError):
            tensor_from_bytes(tensor_to_bytes(folded[0]), other)

    def test_fuzz_corruption_never_garbage(self, keypair, folded):
        """Random flips and truncations raise a controlled error or
        parse to a well-formed tensor — never another exception."""
        pub, priv = keypair
        base = tensor_to_bytes(folded[0])
        fuzz = random.Random(20261015)
        for _ in range(300):
            blob = bytearray(base)
            if fuzz.randrange(2):
                blob[fuzz.randrange(len(blob))] ^= 1 << fuzz.randrange(8)
            else:
                blob = blob[:fuzz.randrange(len(blob))]
            try:
                restored = any_tensor_from_bytes(bytes(blob), pub)
            except (EncodingError, KeyMismatchError):
                continue
            assert any_tensor_to_bytes(restored) == bytes(blob)
            if isinstance(restored, EncryptedTensor) \
                    and restored.bound_bits is not None:
                assert 1 <= restored.bound_bits <= pub.n.bit_length()
                try:
                    restored.decrypt(priv)
                except EncodingError:
                    pass
