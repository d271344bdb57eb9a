"""Unit tests for batch-axis lane packing.

Covers the :class:`LanePacker` encoding (round trips with negatives,
overflow and lane-carry detection, rebias algebra), the engine's packed
fast paths (``encrypt_many_packed`` / ``decrypt_many_packed`` /
``fc_matvec_packed`` and the ``add_plain_many`` rebias primitive), the
:class:`PackedEncryptedTensor` operations, and the matvec weight-dedup
satellite.
"""

import random

import numpy as np
import pytest

from repro.crypto.encoding import DEFAULT_GUARD_BITS, LanePacker
from repro.crypto.engine import PaillierEngine
from repro.crypto.paillier import EncryptedNumber
from repro.crypto.sparse import SparseMatvecPlan
from repro.crypto.tensor import EncryptedTensor, PackedEncryptedTensor
from repro.errors import CryptoError, EncodingError, KeyMismatchError
from repro.observability import Observability


@pytest.fixture()
def packer4(keypair):
    return LanePacker(keypair[0], lanes=4, mag_bits=16)


class TestLanePacker:
    def test_lane_geometry(self, keypair):
        pub, _ = keypair
        packer = LanePacker(pub, lanes=4, mag_bits=16)
        assert packer.lane_bits == 16 + DEFAULT_GUARD_BITS + 1
        assert packer.offset == 1 << (packer.lane_bits - 1)
        assert packer.max_magnitude == (1 << 16) - 1
        assert packer.capacity_bits == pub.n.bit_length() - 1

    def test_ones_mask_one_bit_per_lane(self, packer4):
        mask = packer4.ones_mask
        for lane in range(packer4.lanes):
            assert (mask >> (lane * packer4.lane_bits)) & 1 == 1
        assert bin(mask).count("1") == packer4.lanes

    def test_validation(self, keypair):
        pub, _ = keypair
        with pytest.raises(EncodingError):
            LanePacker(pub, lanes=0, mag_bits=8)
        with pytest.raises(EncodingError):
            LanePacker(pub, lanes=2, mag_bits=0)
        with pytest.raises(EncodingError):
            LanePacker(pub, lanes=2, mag_bits=8, guard_bits=-1)
        # lanes * lane_bits must fit below the modulus
        with pytest.raises(EncodingError):
            LanePacker(pub, lanes=pub.n.bit_length(), mag_bits=8)

    def test_capacity_matches_constructor(self, keypair):
        pub, _ = keypair
        cap = LanePacker.capacity(pub, mag_bits=16)
        LanePacker(pub, lanes=cap, mag_bits=16)  # fits exactly
        with pytest.raises(EncodingError):
            LanePacker(pub, lanes=cap + 1, mag_bits=16)

    def test_round_trip_with_negatives(self, packer4):
        values = [-(1 << 16) + 1, -1, 0, (1 << 16) - 1]
        assert packer4.unpack(packer4.pack(values)) == values

    def test_round_trip_partial_batch(self, packer4):
        values = [5, -7]
        residue = packer4.pack(values)
        assert packer4.unpack(residue, count=2) == values

    def test_overflow_rejected(self, packer4):
        with pytest.raises(EncodingError):
            packer4.pack([packer4.max_magnitude + 1])
        with pytest.raises(EncodingError):
            packer4.pack([-packer4.max_magnitude - 1])

    def test_too_many_values_rejected(self, packer4):
        with pytest.raises(EncodingError):
            packer4.pack([0] * (packer4.lanes + 1))

    def test_lane_carry_detected(self, packer4):
        """A residue with bits above the lane span means a lane
        overflowed into territory packing cannot account for."""
        residue = packer4.pack([1, 2, 3, 4])
        poisoned = residue | (1 << (packer4.lanes * packer4.lane_bits))
        with pytest.raises(EncodingError):
            packer4.unpack(poisoned)
        with pytest.raises(EncodingError):
            packer4.unpack(-1)

    def test_rebias_shifts_every_lane(self, packer4):
        """``ones_mask``-based shifts move all lanes in lockstep — the
        algebra the packed add/mul/matvec repairs are built on."""
        values = [3, -9, 0, 14]
        residue = packer4.pack(values)
        bumped = residue + 5 * packer4.ones_mask
        assert packer4.unpack(bumped) == [v + 5 for v in values]

    def test_rebias_residue_is_mask_times_delta_mod_n(self, packer4):
        n = packer4.public_key.n
        assert packer4.rebias_residue(-3) == \
            (-3 * packer4.ones_mask) % n

    def test_unpack_with_explicit_lane_offset(self, packer4):
        """A non-canonical (smaller) offset decodes when declared; the
        canonical default would misread the same residue."""
        values = [1, -2, 3, -4]
        half = packer4.offset // 2
        residue = packer4.pack(values) - half * packer4.ones_mask
        got = packer4.unpack(residue, lane_offset=half)
        assert got == values


class TestPackedEngine:
    def test_encrypt_decrypt_round_trip(self, keypair):
        pub, priv = keypair
        packer = LanePacker(pub, lanes=3, mag_bits=12)
        engine = PaillierEngine(pub, private_key=priv, seed=9)
        batches = [[1, -2, 3], [4000, 0, -4000], [-1, -1, -1]]
        cells = engine.encrypt_many_packed(batches, packer)
        assert engine.decrypt_many_packed(cells, packer) == batches

    def test_packed_matches_manual_pack(self, keypair):
        """encrypt_many_packed(values) == encrypt_many(pack(values))
        under the same rng — packing is an encoding, not a new cipher."""
        pub, priv = keypair
        packer = LanePacker(pub, lanes=2, mag_bits=10)
        engine = PaillierEngine(pub, private_key=priv, seed=9)
        batches = [[7, -8], [-512, 511]]
        packed = engine.encrypt_many_packed(
            batches, packer, rng=random.Random(5)
        )
        manual = engine.encrypt_many(
            [packer.pack(b) for b in batches], rng=random.Random(5)
        )
        assert [c.ciphertext for c in packed] == \
            [c.ciphertext for c in manual]

    def test_key_mismatch_rejected(self, keypair, keypair_256):
        pub, priv = keypair
        other_pub, _ = keypair_256
        packer = LanePacker(other_pub, lanes=2, mag_bits=8)
        engine = PaillierEngine(pub, private_key=priv, seed=1)
        with pytest.raises(KeyMismatchError):
            engine.encrypt_many_packed([[1, 2]], packer)

    def test_add_plain_many(self, keypair):
        pub, priv = keypair
        engine = PaillierEngine(pub, private_key=priv, seed=2)
        cells = engine.encrypt_many([10, 20, 30])
        raw = engine.add_plain_many(
            [c.ciphertext for c in cells], [1, pub.n - 2, 3]
        )
        got = [priv.decrypt(EncryptedNumber(pub, r)) for r in raw]
        assert got == [11, 18, 33]  # n-2 acts as -2 mod n

    def test_add_plain_many_length_mismatch(self, keypair):
        pub, priv = keypair
        engine = PaillierEngine(pub, private_key=priv, seed=2)
        with pytest.raises(CryptoError):
            engine.add_plain_many([1, 2], [1])

    def test_fc_matvec_packed_matches_reference(self, keypair):
        pub, priv = keypair
        lanes = 3
        in_dim, out_dim = 4, 2
        packer = LanePacker(pub, lanes=lanes, mag_bits=20)
        engine = PaillierEngine(pub, private_key=priv, seed=3)
        rng = random.Random(17)
        xs = np.array(
            [[rng.randrange(-50, 50) for _ in range(in_dim)]
             for _ in range(lanes)], dtype=np.int64,
        )
        weight = np.array(
            [[rng.randrange(-30, 30) for _ in range(in_dim)]
             for _ in range(out_dim)], dtype=np.int64,
        )
        bias = np.array([rng.randrange(-100, 100)
                         for _ in range(out_dim)], dtype=np.int64)
        cells = engine.encrypt_many_packed(xs.T.tolist(), packer)
        bias_cells = engine.encrypt_many_packed(
            np.tile(bias, (lanes, 1)).T.tolist(), packer
        )
        out = engine.fc_matvec_packed(
            [c.ciphertext for c in cells], weight,
            [c.ciphertext for c in bias_cells], packer,
        )
        wrapped = [EncryptedNumber(pub, c) for c in out]
        got = np.array(
            engine.decrypt_many_packed(wrapped, packer, count=lanes),
            dtype=object,
        ).T
        expect = xs @ weight.T + bias
        assert got.tolist() == expect.tolist()


class TestWeightDedup:
    def test_dedup_hits_counted(self, keypair, rng):
        """An im2col-style column (same weight at many output rows)
        forms its power once: four rows cost the schedule steps one
        row does, and every use is one multiply."""
        pub, priv = keypair
        cells = [pub.encrypt(v, rng).ciphertext for v in (3, 4)]
        rows = [[7, -9], [7, -9], [7, -9], [7, -9]]
        plan = SparseMatvecPlan.from_dense(rows)
        single = SparseMatvecPlan.from_dense(rows[:1])
        assert plan.distinct_pairs == 2
        assert plan.schedule_steps == single.schedule_steps
        assert plan.mult_counts()["scatter"] == 8
        engine = PaillierEngine(pub, seed=2, obs=Observability())
        out = engine.fc_matvec(cells, bias=[1] * 4, plan=plan)
        registry = engine.obs.registry
        assert registry.counter("paillier_matvec_mults",
                                part="schedule").value \
            == single.schedule_steps
        assert registry.counter("paillier_matvec_mults",
                                part="scatter").value == 8
        expected = pub.raw_add(pub.raw_scalar_mul(cells[0], 7),
                               pub.raw_scalar_mul(cells[1], -9))
        assert out == [expected] * 4

    def test_dedup_preserves_results(self, keypair):
        """A weight matrix with heavy repetition decodes identically to
        the plain per-entry reference."""
        pub, priv = keypair
        engine = PaillierEngine(pub, private_key=priv, seed=6)
        rng = random.Random(8)
        x = np.array([rng.randrange(-20, 20) for _ in range(6)],
                     dtype=np.int64)
        weight = np.array(
            [[5, -5, 5, -5, 5, -5] for _ in range(4)], dtype=np.int64
        )
        bias = np.array([1, 2, 3, 4], dtype=np.int64)
        tensor = EncryptedTensor.encrypt(x, pub, engine=engine)
        out = tensor.affine(weight, bias, engine=engine)
        assert out.decrypt(priv).tolist() == \
            (weight @ x + bias).tolist()


class TestPackedEncryptedTensor:
    def test_encrypt_batch_round_trip(self, keypair):
        pub, priv = keypair
        packer = LanePacker(pub, lanes=3, mag_bits=14)
        xs = np.array([[1, -2, 3, -4], [5, 6, -7, 8], [0, 0, 9, -9]],
                      dtype=np.int64)
        tensor = PackedEncryptedTensor.encrypt_batch(xs, packer)
        assert tensor.batch == 3
        assert tensor.shape == (4,)
        assert tensor.size == 4  # cells = positions, not samples
        assert tensor.decrypt(priv).tolist() == xs.tolist()

    def test_partial_batch(self, keypair):
        pub, priv = keypair
        packer = LanePacker(pub, lanes=4, mag_bits=10)
        xs = np.array([[1, 2], [3, 4]], dtype=np.int64)  # 2 < 4 lanes
        tensor = PackedEncryptedTensor.encrypt_batch(xs, packer)
        assert tensor.decrypt(priv).tolist() == xs.tolist()

    def test_affine_plaintext_bias(self, keypair):
        pub, priv = keypair
        packer = LanePacker(pub, lanes=2, mag_bits=18)
        xs = np.array([[2, -3, 4], [-5, 6, -7]], dtype=np.int64)
        weight = np.array([[1, -2, 3], [4, 5, -6]], dtype=np.int64)
        bias = np.array([10, -20], dtype=np.int64)
        tensor = PackedEncryptedTensor.encrypt_batch(xs, packer)
        out = tensor.affine(weight, bias)
        assert out.decrypt(priv).tolist() == \
            (xs @ weight.T + bias).tolist()

    def test_affine_encrypted_bias(self, keypair):
        pub, priv = keypair
        packer = LanePacker(pub, lanes=2, mag_bits=18)
        xs = np.array([[2, -3], [4, -5]], dtype=np.int64)
        weight = np.array([[1, -2], [3, 4]], dtype=np.int64)
        bias = np.array([7, -11], dtype=np.int64)
        tensor = PackedEncryptedTensor.encrypt_batch(xs, packer)
        packed_bias = PackedEncryptedTensor.encrypt_batch(
            np.tile(bias, (2, 1)), packer
        )
        out = tensor.affine(weight, packed_bias)
        assert out.decrypt(priv).tolist() == \
            (xs @ weight.T + bias).tolist()

    def test_reshape(self, keypair):
        pub, priv = keypair
        packer = LanePacker(pub, lanes=2, mag_bits=10)
        xs = np.arange(8, dtype=np.int64).reshape(2, 4)
        tensor = PackedEncryptedTensor.encrypt_batch(xs, packer)
        square = tensor.reshape((2, 2))
        assert square.decrypt(priv).tolist() == \
            xs.reshape(2, 2, 2).tolist()

    def test_batch_bounds_validated(self, keypair):
        pub, _ = keypair
        packer = LanePacker(pub, lanes=2, mag_bits=10)
        with pytest.raises(EncodingError):
            PackedEncryptedTensor.encrypt_batch(
                np.ones((3, 2), dtype=np.int64), packer
            )
