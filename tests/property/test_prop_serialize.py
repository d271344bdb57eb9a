"""Fuzz properties for the crypto wire format.

The parser must be total: any mutation of a valid frame either parses
back to a valid tensor or raises a controlled error (`EncodingError` /
`KeyMismatchError`) — never an uncontrolled exception, never a tensor
that fails to decrypt.

Frames carry no checksum (their bytes are pinned: see
:class:`TestFoldedFramePinned`), so a flipped ciphertext bit is another
well-formed ciphertext.  What the parsers guarantee is structural: a
truncated frame always fails (every frame declares its dimensions), a
parsed frame re-serializes to exactly its own bytes, and a flipped
lane field of a packed batch — the frame the key holder folds a run of
positions of — is refused or decodes to exactly the samples it still
names.
"""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.encoding import LanePacker
from repro.crypto.paillier import generate_keypair
from repro.crypto.engine import PaillierEngine
from repro.crypto.serialize import (
    KIND_BOUNDED,
    KIND_PACKED,
    any_tensor_from_bytes,
    any_tensor_to_bytes,
    frame_bytes,
    frame_kind,
    tensor_from_bytes,
    tensor_to_bytes,
)
from repro.crypto.tensor import EncryptedTensor, PackedEncryptedTensor
from repro.errors import EncodingError, KeyMismatchError

PUBLIC, PRIVATE = generate_keypair(128, seed=77)
HOLDER = PaillierEngine(PUBLIC, private_key=PRIVATE, seed=77)


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

#: (batch, mag_bits, guard_bits) geometries whose batches the key
#: holder folds at a 128-bit key (two or more positions per
#: exponentiation under its 64-bit p).
GEOMETRIES = [(2, 8, 4), (3, 5, 3), (2, 10, 2), (4, 3, 3)]


def packed_tensor(batch, mag_bits, guard_bits, positions, seed):
    packer = LanePacker(PUBLIC, lanes=batch, mag_bits=mag_bits,
                        guard_bits=guard_bits)
    values = np.random.default_rng(seed).integers(
        -(1 << mag_bits) + 1, 1 << mag_bits, (batch, positions))
    tensor = PackedEncryptedTensor.encrypt_batch(
        values, packer, random.Random(seed), exponent=seed % 5)
    return tensor, values


def bounded_scalar(lanes, mag_bits, guard_bits, positions, seed):
    """``lanes * positions`` values certified to ``mag_bits +
    guard_bits`` bits: one flat ``KIND_BOUNDED`` tensor, as a linear
    stage hands it over."""
    bound = mag_bits + guard_bits
    values = np.random.default_rng(seed).integers(
        -(1 << mag_bits) + 1, 1 << mag_bits, lanes * positions)
    tensor = EncryptedTensor.encrypt(values, PUBLIC, random.Random(seed),
                                     exponent=seed % 5)
    return EncryptedTensor(PUBLIC, tensor.cells(), tensor.shape,
                           tensor.exponent, bound_bits=bound), values


BUILDERS = {"packed": packed_tensor, "bounded": bounded_scalar}


def reparse(blob):
    """Parse ``blob``; a frame that parses must re-serialize to exactly
    its own bytes and decrypt (or refuse to) in a controlled way."""
    tensor = any_tensor_from_bytes(blob, PUBLIC)
    assert any_tensor_to_bytes(tensor) == blob
    assert frame_bytes(tensor) == len(blob)
    try:
        tensor.decrypt(PRIVATE, engine=HOLDER)
    except EncodingError:
        pass
    return tensor


frames = st.sampled_from(sorted(BUILDERS))


class TestFoldedBatchFrame:
    """The frame of a full lane-packed batch, which the key holder
    folds a run of positions of per exponentiation."""

    @settings(max_examples=25, deadline=None)
    @given(geometry=st.sampled_from(GEOMETRIES),
           positions=st.integers(min_value=1, max_value=9),
           seed=st.integers(min_value=0, max_value=2 ** 20))
    def test_round_trip(self, geometry, positions, seed):
        packed, values = packed_tensor(*geometry, positions, seed)
        batch, mag_bits, guard_bits = geometry
        assert HOLDER.run_capacity(
            batch * (mag_bits + guard_bits + 1)) >= 2
        blob = any_tensor_to_bytes(packed)
        assert frame_kind(blob) == KIND_PACKED
        assert len(blob) == frame_bytes(packed)
        restored = any_tensor_from_bytes(blob, PUBLIC)
        assert isinstance(restored, PackedEncryptedTensor)
        assert restored.batch == batch
        assert restored.packer == packed.packer
        assert restored.exponent == packed.exponent
        assert np.array_equal(restored.decrypt(PRIVATE, engine=HOLDER),
                              values)

    def test_one_position_per_cell_does_not_fold(self):
        """Five 21-bit lanes fill a 128-bit key, and no cell fits under
        its 64-bit p: one CRT decryption per position."""
        packer = LanePacker(PUBLIC, lanes=5, mag_bits=16, guard_bits=4)
        assert HOLDER.run_capacity(packer.lanes * packer.lane_bits) == 0
        values = np.arange(10).reshape(5, 2) - 4
        tensor = PackedEncryptedTensor.encrypt_batch(
            values, packer, random.Random(1))
        assert np.array_equal(tensor.decrypt(PRIVATE, engine=HOLDER),
                              values)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_lane_fields_are_checked(self, geometry):
        """Every single-bit flip of the lane count or the batch is
        refused by the parser, or leaves the lane width alone and
        decodes to exactly the first samples the frame still names —
        never to other values."""
        packed, values = packed_tensor(*geometry, 7, 1)
        blob = any_tensor_to_bytes(packed)
        for byte in (15, 16, 21, 22):      # lanes, batch (16-bit each)
            for bit in range(8):
                bad = bytearray(blob)
                bad[byte] ^= 1 << bit
                try:
                    restored = any_tensor_from_bytes(bytes(bad), PUBLIC)
                    out = restored.decrypt(PRIVATE, engine=HOLDER)
                except CONTROLLED:
                    continue
                assert restored.packer.lane_bits \
                    == packed.packer.lane_bits
                assert np.array_equal(out, values[:restored.batch])


class TestMutatedFrames:
    @settings(max_examples=40, deadline=None)
    @given(kind=frames, geometry=st.sampled_from(GEOMETRIES),
           truncate_to=st.integers(min_value=0, max_value=10 ** 6),
           seed=st.integers(min_value=0, max_value=2 ** 20))
    def test_truncation_always_fails(self, kind, geometry, truncate_to,
                                     seed):
        tensor, _values = BUILDERS[kind](*geometry, 5, seed)
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
        tensor, _values = BUILDERS[kind](*geometry, 5, seed)
        blob = bytearray(any_tensor_to_bytes(tensor))
        blob[flip_position % len(blob)] ^= 1 << flip_bit
        try:
            restored = reparse(bytes(blob))
        except CONTROLLED:
            return
        assert type(restored) is type(tensor)

    def test_trailing_bytes_fail(self):
        for build in BUILDERS.values():
            tensor, _values = build(2, 16, 4, 5, 3)
            blob = any_tensor_to_bytes(tensor)
            assert frame_kind(blob) in (KIND_PACKED, KIND_BOUNDED)
            with pytest.raises(CONTROLLED):
                any_tensor_from_bytes(blob + b"\x00", PUBLIC)


#: The pinned bounded frame: magic, version 2, kind 4, a 128-bit key,
#: exponent 2, rank 1, a 20-bit bound, one dimension of 10.
PINNED_HEADER = "50505354020400000080000000020100140000000a"
PINNED_DIGEST = (
    "f0831f8fe39f55a8b052454bc072bd4214a532704e059c8ebcdce6812415f69e")


class TestFoldedFramePinned:
    def test_scalar_folded_frame_bytes(self):
        """The frame of a linear stage's output — the N cells the key
        holder folds — is pinned: its 21-byte header and the whole
        frame's digest.  Without its 2-byte bound (after the rank
        byte) and with the scalar kind it is a rank-1 scalar frame,
        digest for digest."""
        plain = EncryptedTensor.encrypt(
            np.array([5, -7, 300, 0, 12, -40000, 9, 1, -1, 2]), PUBLIC,
            random.Random(3), exponent=2)
        tensor = EncryptedTensor(PUBLIC, plain.cells(), (10,), 2,
                                 bound_bits=20)
        blob = any_tensor_to_bytes(tensor)
        assert len(blob) == 341 == frame_bytes(tensor)
        assert blob[:21].hex() == PINNED_HEADER
        assert hashlib.sha256(blob).hexdigest() == PINNED_DIGEST
        scalar = any_tensor_to_bytes(plain)
        assert blob[:5] + b"\x00" + blob[6:15] + blob[17:] == scalar
