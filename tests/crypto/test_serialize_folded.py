"""Wire-format tests for folded tensor frames (serialize v2,
``KIND_FOLDED``): exact analytic size, round trip, and a malformed-frame
sweep in which every corruption fails as :class:`EncodingError` (or
:class:`KeyMismatchError`) and never parses into a wrong tensor."""

import random
import struct

import numpy as np
import pytest

from repro.crypto.encoding import LanePacker
from repro.crypto.paillier import generate_keypair
from repro.crypto.serialize import (
    KIND_FOLDED,
    any_tensor_from_bytes,
    any_tensor_to_bytes,
    ciphertext_bytes,
    frame_bytes,
    frame_kind,
    folded_tensor_from_bytes,
    folded_tensor_to_bytes,
    tensor_frame_bytes,
    tensor_from_bytes,
)
from repro.crypto.tensor import (
    EncryptedTensor,
    FoldedTensor,
    PackedEncryptedTensor,
)
from repro.errors import EncodingError, KeyMismatchError

#: The folded lane header follows the 14-byte v2 prefix: lanes (B),
#: mag_bits (H), guard_bits (B), empty lanes of the last cell (B).
LANE_HEADER = 14


@pytest.fixture()
def folded(keypair, rng):
    pub, _ = keypair
    packer = LanePacker(pub, lanes=4, mag_bits=16, guard_bits=4)
    values = np.array([5, -7, 300, 0, 12, -40000, 9, 1, -1, 2])
    tensor = EncryptedTensor.encrypt(values, pub, rng, exponent=3)
    return FoldedTensor.fold(tensor, packer), values


class TestFoldedRoundTrip:
    def test_round_trip(self, keypair, folded):
        pub, priv = keypair
        tensor, values = folded
        blob = folded_tensor_to_bytes(tensor)
        assert frame_kind(blob) == KIND_FOLDED == 2
        restored = any_tensor_from_bytes(blob, pub)
        assert isinstance(restored, FoldedTensor)
        assert restored.size == 10
        assert restored.counts == (4, 4, 2)
        assert restored.exponent == 3
        assert restored.packer == tensor.packer
        assert [c.ciphertext for c in restored.cells()] == \
            [c.ciphertext for c in tensor.cells()]
        assert np.array_equal(restored.decrypt(priv), values)
        assert any_tensor_to_bytes(restored) == blob

    def test_frame_size_is_exact(self, keypair, folded):
        pub, _ = keypair
        tensor, _ = folded
        blob = folded_tensor_to_bytes(tensor)
        assert len(blob) == frame_bytes(tensor) == tensor_frame_bytes(
            pub.key_size, rank=1, size=3, folded=True)
        # The lane header replaces rank + dims: same overhead as a
        # rank-1 scalar frame.
        assert len(blob) == tensor_frame_bytes(pub.key_size, rank=1,
                                               size=3)

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
        pub, _ = keypair
        blob = folded_tensor_to_bytes(folded[0])
        with pytest.raises(EncodingError):
            tensor_from_bytes(blob, pub)
        with pytest.raises(EncodingError):
            folded_tensor_from_bytes(
                any_tensor_to_bytes(EncryptedTensor.encrypt(
                    np.arange(2), pub, random.Random(0))), pub)

    def test_views_do_not_serialize(self, folded):
        tensor, _ = folded
        with pytest.raises(EncodingError):
            folded_tensor_to_bytes(tensor.gather([5, 1]))
        # A cell-aligned prefix is still a contiguous fold.
        assert folded_tensor_to_bytes(tensor.gather(range(8)))

    def test_frame_flags_are_exclusive(self, keypair):
        pub, _ = keypair
        with pytest.raises(EncodingError):
            tensor_frame_bytes(pub.key_size, rank=1, size=1,
                               packed=True, folded=True)
        with pytest.raises(EncodingError):
            tensor_frame_bytes(pub.key_size, rank=1, size=1,
                               folded=True, version=1)


class TestMalformedFoldedFrames:
    def test_length_inconsistent_with_cell_count(self, keypair, folded):
        pub, _ = keypair
        blob = bytearray(folded_tensor_to_bytes(folded[0]))
        for empty in (4, 5, 255):   # the last cell would hold nothing
            struct.pack_into(">B", blob, LANE_HEADER + 4, empty)
            with pytest.raises(EncodingError):
                folded_tensor_from_bytes(bytes(blob), pub)

    def test_no_cells(self, keypair, folded):
        pub, _ = keypair
        blob = folded_tensor_to_bytes(folded[0])
        with pytest.raises(EncodingError):
            folded_tensor_from_bytes(blob[:LANE_HEADER + 5], pub)

    @pytest.mark.parametrize("field,fmt,value", [
        ("lanes", ">B", 200),      # 200 x 21-bit lanes > 127 bits
        ("lanes", ">B", 0),
        ("mag_bits", ">H", 1000),
        ("mag_bits", ">H", 0),
        ("guard_bits", ">B", 250),
    ])
    def test_geometry_over_capacity(self, keypair, folded, field, fmt,
                                    value):
        pub, _ = keypair
        offset = {"lanes": 0, "mag_bits": 1, "guard_bits": 3}[field]
        blob = bytearray(folded_tensor_to_bytes(folded[0]))
        struct.pack_into(fmt, blob, LANE_HEADER + offset, value)
        with pytest.raises(EncodingError):
            folded_tensor_from_bytes(bytes(blob), pub)

    def test_truncated_lane_header(self, keypair, folded):
        pub, _ = keypair
        blob = folded_tensor_to_bytes(folded[0])
        for cut in range(LANE_HEADER, LANE_HEADER + 5):
            with pytest.raises(EncodingError):
                any_tensor_from_bytes(blob[:cut], pub)

    def test_truncated_and_trailing_bodies(self, keypair, folded):
        pub, _ = keypair
        blob = folded_tensor_to_bytes(folded[0])
        width = ciphertext_bytes(pub.key_size)
        for bad in (blob[:-1], blob + b"\x00", blob[:-width // 2]):
            with pytest.raises(EncodingError):
                folded_tensor_from_bytes(bad, pub)

    def test_key_mismatch(self, folded):
        other, _ = generate_keypair(256, seed=9)
        with pytest.raises(KeyMismatchError):
            folded_tensor_from_bytes(folded_tensor_to_bytes(folded[0]),
                                     other)

    def test_fuzz_corruption_never_garbage(self, keypair, folded):
        """Random flips and truncations raise a controlled error or
        parse to a well-formed tensor — never another exception."""
        pub, _ = keypair
        base = folded_tensor_to_bytes(folded[0])
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
            if isinstance(restored, FoldedTensor):
                assert restored.size == sum(restored.counts)
                assert len(restored.cells()) == len(restored.counts)
