"""Fuzz properties for the crypto wire format.

The parser must be total: any mutation of a valid frame either parses
back to a valid tensor or raises a controlled error (`EncodingError` /
`KeyMismatchError`) — never an uncontrolled exception, never a tensor
that fails to decrypt.

Frames carry no checksum (their bytes are pinned: see
:class:`TestFoldedFramePinned`), so a flipped ciphertext bit is another
well-formed ciphertext.  What the parsers guarantee is structural: a
truncated frame always fails, a parsed frame re-serializes to exactly
its own bytes, and the folded-batch frame refuses any lane count,
empty-position count or batch that is not the folding geometry of its
batch.
"""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.encoding import LanePacker
from repro.crypto.paillier import generate_keypair
from repro.crypto.serialize import (
    KIND_FOLDED_BATCH,
    KIND_PACKED,
    any_tensor_from_bytes,
    any_tensor_to_bytes,
    frame_bytes,
    frame_kind,
    tensor_from_bytes,
    tensor_to_bytes,
)
from repro.crypto.tensor import (
    EncryptedTensor,
    FoldedTensor,
    PackedEncryptedTensor,
    batch_folder,
)
from repro.errors import EncodingError, KeyMismatchError

PUBLIC, PRIVATE = generate_keypair(128, seed=77)


def make_blob(values, exponent=0, seed=0):
    rng = random.Random(seed)
    tensor = EncryptedTensor.encrypt(
        np.asarray(values), PUBLIC, rng, exponent
    )
    return tensor_to_bytes(tensor)


class TestWireFuzz:
    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=-1000, max_value=1000),
                        min_size=1, max_size=8),
        exponent=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2 ** 20),
    )
    def test_round_trip_any_payload(self, values, exponent, seed):
        blob = make_blob(values, exponent, seed)
        tensor = tensor_from_bytes(blob, PUBLIC)
        assert tensor.exponent == exponent
        assert list(tensor.decrypt(PRIVATE)) == values

    @settings(max_examples=60, deadline=None)
    @given(
        flip_position=st.integers(min_value=0, max_value=10 ** 6),
        flip_bit=st.integers(min_value=0, max_value=7),
        seed=st.integers(min_value=0, max_value=2 ** 20),
    )
    def test_single_bitflip_is_controlled(self, flip_position,
                                          flip_bit, seed):
        """A one-bit corruption never escapes as an uncontrolled
        exception, and if it parses, decryption still works (the flip
        only changed ciphertext content, not framing)."""
        blob = bytearray(make_blob([1, -2, 3], seed=seed))
        position = flip_position % len(blob)
        blob[position] ^= 1 << flip_bit
        try:
            tensor = tensor_from_bytes(bytes(blob), PUBLIC)
        except (EncodingError, KeyMismatchError):
            return
        # parsed: must still be decryptable (possibly to other values)
        decrypted = tensor.decrypt(PRIVATE)
        assert decrypted.shape == tensor.shape

    @settings(max_examples=40, deadline=None)
    @given(
        truncate_to=st.integers(min_value=0, max_value=200),
        seed=st.integers(min_value=0, max_value=2 ** 20),
    )
    def test_truncation_is_controlled(self, truncate_to, seed):
        blob = make_blob([5, 6], seed=seed)
        cut = blob[:min(truncate_to, len(blob) - 1)]
        with pytest.raises((EncodingError, KeyMismatchError)):
            tensor_from_bytes(cut, PUBLIC)

    @settings(max_examples=30, deadline=None)
    @given(junk=st.binary(min_size=0, max_size=64))
    def test_random_bytes_rejected(self, junk):
        try:
            tensor_from_bytes(junk, PUBLIC)
        except (EncodingError, KeyMismatchError):
            return
        # astronomically unlikely: junk that parses must round-trip
        pytest.fail("random bytes parsed as a tensor")


CONTROLLED = (EncodingError, KeyMismatchError)

#: (batch, mag_bits, guard_bits) geometries whose batches fold at a
#: 128-bit key (two or more positions per ciphertext).
GEOMETRIES = [(2, 16, 4), (3, 12, 4), (2, 20, 2), (4, 10, 4)]


def packed_tensor(batch, mag_bits, guard_bits, positions, seed):
    packer = LanePacker(PUBLIC, lanes=batch, mag_bits=mag_bits,
                        guard_bits=guard_bits)
    values = np.random.default_rng(seed).integers(
        -(1 << mag_bits) + 1, 1 << mag_bits, (batch, positions))
    tensor = PackedEncryptedTensor.encrypt_batch(
        values, packer, random.Random(seed), exponent=seed % 5)
    return tensor, values


def folded_batch(batch, mag_bits, guard_bits, positions, seed):
    tensor, values = packed_tensor(batch, mag_bits, guard_bits,
                                   positions, seed)
    return FoldedTensor.fold(tensor, batch_folder(tensor.packer)), values


def reparse(blob):
    """Parse ``blob``; a frame that parses must re-serialize to exactly
    its own bytes and decrypt (or refuse to) in a controlled way."""
    tensor = any_tensor_from_bytes(blob, PUBLIC)
    assert any_tensor_to_bytes(tensor) == blob
    assert frame_bytes(tensor) == len(blob)
    try:
        tensor.decrypt(PRIVATE)
    except EncodingError:
        pass
    return tensor


frames = st.sampled_from(["packed", "folded-batch"])


class TestFoldedBatchFrame:
    @settings(max_examples=25, deadline=None)
    @given(geometry=st.sampled_from(GEOMETRIES),
           positions=st.integers(min_value=1, max_value=9),
           seed=st.integers(min_value=0, max_value=2 ** 20))
    def test_round_trip(self, geometry, positions, seed):
        folded, values = folded_batch(*geometry, positions, seed)
        blob = any_tensor_to_bytes(folded)
        assert frame_kind(blob) == KIND_FOLDED_BATCH
        assert len(blob) == frame_bytes(folded)
        restored = any_tensor_from_bytes(blob, PUBLIC)
        assert isinstance(restored, FoldedTensor)
        assert restored.batch == geometry[0]
        assert restored.packer == folded.packer
        assert restored.counts == folded.counts
        assert restored.exponent == folded.exponent
        assert np.array_equal(restored.decrypt(PRIVATE), values)

    def test_one_position_per_cell_does_not_fold(self):
        """Five 21-bit lanes fill a 128-bit key: nothing to fold."""
        packer = LanePacker(PUBLIC, lanes=5, mag_bits=16, guard_bits=4)
        assert batch_folder(packer) is None

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_lane_fields_are_checked(self, geometry):
        """Every single-bit flip of the lane count, the empty-position
        count or the batch is refused: the lanes and the batch must be
        the folding geometry of the batch (refused by the parser), and
        a last cell claiming other positions than it holds has lanes
        outside the certified range (refused by the strict unpack)."""
        folded, _values = folded_batch(*geometry, 7, 1)
        blob = any_tensor_to_bytes(folded)
        for byte in (14, 18, 19):      # lanes, empty, batch
            for bit in range(8):
                bad = bytearray(blob)
                bad[byte] ^= 1 << bit
                with pytest.raises(CONTROLLED):
                    any_tensor_from_bytes(bytes(bad), PUBLIC) \
                        .decrypt(PRIVATE)


class TestMutatedFrames:
    @settings(max_examples=40, deadline=None)
    @given(kind=frames, geometry=st.sampled_from(GEOMETRIES),
           truncate_to=st.integers(min_value=0, max_value=10 ** 6),
           seed=st.integers(min_value=0, max_value=2 ** 20))
    def test_truncation_always_fails(self, kind, geometry, truncate_to,
                                     seed):
        tensor, _values = (packed_tensor if kind == "packed"
                           else folded_batch)(*geometry, 5, seed)
        blob = any_tensor_to_bytes(tensor)
        cut = blob[:truncate_to % len(blob)]
        with pytest.raises(CONTROLLED):
            any_tensor_from_bytes(cut, PUBLIC)

    @settings(max_examples=60, deadline=None)
    @given(kind=frames, geometry=st.sampled_from(GEOMETRIES),
           flip_position=st.integers(min_value=0, max_value=10 ** 6),
           flip_bit=st.integers(min_value=0, max_value=7),
           seed=st.integers(min_value=0, max_value=2 ** 20))
    def test_single_bitflip_is_controlled(self, kind, geometry,
                                          flip_position, flip_bit, seed):
        tensor, _values = (packed_tensor if kind == "packed"
                           else folded_batch)(*geometry, 5, seed)
        blob = bytearray(any_tensor_to_bytes(tensor))
        blob[flip_position % len(blob)] ^= 1 << flip_bit
        try:
            restored = reparse(bytes(blob))
        except CONTROLLED:
            return
        assert type(restored) is type(tensor)

    def test_trailing_bytes_fail(self):
        for build in (packed_tensor, folded_batch):
            tensor, _values = build(2, 16, 4, 5, 3)
            blob = any_tensor_to_bytes(tensor)
            assert frame_kind(blob) in (KIND_PACKED, KIND_FOLDED_BATCH)
            with pytest.raises(CONTROLLED):
                any_tensor_from_bytes(blob + b"\x00", PUBLIC)


class TestFoldedFramePinned:
    def test_scalar_folded_frame_bytes(self):
        """A one-request ``KIND_FOLDED`` frame is byte-for-byte what
        it was before folded batches had a frame of their own: the
        19-byte header and the whole frame's digest are pinned."""
        tensor = EncryptedTensor.encrypt(
            np.array([5, -7, 300, 0, 12, -40000, 9, 1, -1, 2]), PUBLIC,
            random.Random(3), exponent=2)
        folded = FoldedTensor.fold(
            tensor, LanePacker(PUBLIC, lanes=4, mag_bits=16,
                               guard_bits=4))
        blob = any_tensor_to_bytes(folded)
        assert len(blob) == 115 == frame_bytes(folded)
        assert blob[:19].hex() == \
            "50505354020200000080000000020400100402"
        assert hashlib.sha256(blob).hexdigest() == (
            "04f7b13d2d2e3d286037c31e63363bebf814f4e61ccc76731797b8163de15ed2")
