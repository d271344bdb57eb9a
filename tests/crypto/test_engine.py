"""Unit tests for the batched Paillier engine.

The engine's contract is exact agreement with the scalar reference
implementation: same seed, same ciphertext bits — across the blinding
pool, the key holder's half-width tables and the compiled-schedule
matvec.
"""

import random

import numpy as np
import pytest

from repro.crypto.backend import (
    PythonBackend,
    active_backend,
    set_active_backend,
)
from repro.crypto.engine import (
    BlindingPool,
    PaillierEngine,
    default_engine,
)
from repro.crypto.paillier import encrypt_many, generate_keypair
from repro.crypto.sparse import SparseMatvecPlan
from repro.crypto.tensor import EncryptedTensor
from repro.errors import (
    CryptoError,
    DecryptionError,
    EncryptionError,
    KeyMismatchError,
)
from repro.observability import Observability


def scalar_encrypt(public, values, seed):
    """The scalar reference: one rng, one encrypt per value, in order."""
    rng = random.Random(seed)
    return [public.encrypt(m, rng).ciphertext for m in values]


class TestEncryptMany:
    def test_rng_mode_bit_identical_to_scalar(self, keypair):
        pub, _ = keypair
        values = [0, 1, 42, 10 ** 9, pub.n - 1]
        engine = PaillierEngine(pub)
        got = [c.ciphertext
               for c in engine.encrypt_many(values, rng=random.Random(7))]
        assert got == scalar_encrypt(pub, values, 7)

    def test_pooled_mode_bit_identical_to_scalar_seed(self, keypair):
        """The pool draws r values in the same order the scalar path
        would, so pooled ciphertexts match the scalar reference."""
        pub, _ = keypair
        values = list(range(10))
        engine = PaillierEngine(pub, seed=5, pool_size=4)
        got = [c.ciphertext for c in engine.encrypt_many(values)]
        assert got == scalar_encrypt(pub, values, 5)

    def test_pooled_mode_deterministic_per_seed(self, keypair):
        pub, _ = keypair
        a = PaillierEngine(pub, seed=11).encrypt_many([1, 2, 3])
        b = PaillierEngine(pub, seed=11).encrypt_many([1, 2, 3])
        c = PaillierEngine(pub, seed=12).encrypt_many([1, 2, 3])
        assert [x.ciphertext for x in a] == [x.ciphertext for x in b]
        assert [x.ciphertext for x in a] != [x.ciphertext for x in c]

    def test_out_of_range_plaintext(self, keypair):
        pub, _ = keypair
        engine = PaillierEngine(pub, seed=1)
        with pytest.raises(EncryptionError):
            engine.encrypt_many([pub.n])
        with pytest.raises(EncryptionError):
            engine.encrypt_many([-1])

    def test_empty_batch(self, keypair):
        pub, _ = keypair
        assert PaillierEngine(pub, seed=1).encrypt_many([]) == []

    def test_module_encrypt_many_routes_through_engine(self, keypair):
        """Satellite: the legacy encrypt_many API keeps its exact
        output while running on the batched engine."""
        pub, priv = keypair
        values = [5, 9, 2, 1]
        got = encrypt_many(pub, values, random.Random(3))
        assert [c.ciphertext for c in got] == scalar_encrypt(pub, values, 3)
        # rng is now optional: pooled mode still decrypts correctly
        pooled = encrypt_many(pub, values)
        assert [priv.decrypt(c) for c in pooled] == values


class TestCrtAcceleration:
    def test_crt_blinding_bit_identical(self, keypair):
        """The key holder's half-width tables produce the exact same
        factors as the public table, and both are h_s^x for the seeded
        x stream."""
        pub, priv = keypair
        plain = PaillierEngine(pub, seed=5, pool_size=8)
        crt = PaillierEngine(pub, private_key=priv, seed=5, pool_size=8)
        plain.prefill()
        crt.prefill()
        rng = random.Random(5)
        blinding = pub.blinding
        expected = [pow(blinding.h_s, x, pub.n_squared)
                    for x in blinding.exponents(rng, 8)]
        assert list(plain.pool._factors) == expected
        assert list(crt.pool._factors) == expected
        assert [c.ciphertext for c in plain.encrypt_many(range(8))] == \
            [c.ciphertext for c in crt.encrypt_many(range(8))]

    def test_mismatched_private_key_rejected(self, keypair):
        pub, _ = keypair
        _, other_priv = generate_keypair(128, seed=99)
        with pytest.raises(KeyMismatchError):
            PaillierEngine(pub, private_key=other_priv)
        with pytest.raises(KeyMismatchError):
            BlindingPool(pub, random.Random(1), private_key=other_priv)

    def test_one_table_build_per_key(self, monkeypatch):
        """The scalar path, default_engine and every engine over a key
        object share its tables: one public build, one key-holder
        pair, however many engines a tenant or session constructs."""
        from repro.crypto import blinding

        builds = []

        class Counting(blinding.FixedBaseTable):
            def __init__(self, base, modulus, exponent_bits):
                builds.append(modulus)
                super().__init__(base, modulus, exponent_bits)

        monkeypatch.setattr(blinding, "FixedBaseTable", Counting)
        pub, priv = generate_keypair(128, seed=4242)
        pub.raw_encrypt(1, random.Random(1))
        pub.rerandomize(pub.raw_encrypt(2, random.Random(2)),
                        random.Random(3))
        default_engine(pub).encrypt_many([1, 2])
        for seed in range(3):
            PaillierEngine(pub, seed=seed).encrypt_many([3])
        assert builds == [pub.n_squared]
        for seed in range(3):
            PaillierEngine(pub, private_key=priv, seed=seed) \
                .encrypt_many([4])
        assert sorted(builds[1:]) == sorted([priv.p ** 2, priv.q ** 2])


class TestDecryptMany:
    def test_matches_scalar_decrypt(self, keypair):
        pub, priv = keypair
        engine = PaillierEngine(pub, private_key=priv, seed=2)
        ciphers = engine.encrypt_many(range(12))
        assert engine.decrypt_many(ciphers) == list(range(12))

    def test_requires_private_key(self, keypair):
        pub, _ = keypair
        engine = PaillierEngine(pub, seed=2)
        ciphers = engine.encrypt_many([1])
        with pytest.raises(CryptoError):
            engine.decrypt_many(ciphers)

    def test_wrong_key_rejected(self, keypair):
        pub, priv = keypair
        other_pub, _ = generate_keypair(128, seed=77)
        engine = PaillierEngine(pub, private_key=priv, seed=2)
        foreign = PaillierEngine(other_pub, seed=2).encrypt_many([1])
        with pytest.raises(KeyMismatchError):
            engine.decrypt_many(foreign)

    def test_out_of_range_ciphertext_rejected(self, keypair):
        pub, priv = keypair
        engine = PaillierEngine(pub, private_key=priv, seed=2)
        good = engine.raw_encrypt_many([5])[0]
        for bad in (0, -good, pub.n_squared, pub.n_squared + good):
            with pytest.raises(DecryptionError):
                engine.raw_decrypt_many([good, bad])

    def test_inline_path_runs_on_the_engine_backend(self, keypair):
        """The inline batch must use the engine's ``backend=``, not
        the process-global active backend."""
        pub, priv = keypair

        class Poisoned(PythonBackend):
            def powmod(self, base, exponent, modulus):
                raise AssertionError("inline decrypt used the "
                                     "process-global backend")

        engine = PaillierEngine(pub, private_key=priv, seed=2,
                                backend="python")
        ciphers = engine.raw_encrypt_many([3, 4, 5])
        previous = active_backend()
        set_active_backend(Poisoned())
        try:
            assert engine.raw_decrypt_many(ciphers) == [3, 4, 5]
        finally:
            set_active_backend(previous)


class TestBlindingPool:
    def test_exhaustion_refills_in_rng_order(self, keypair):
        """Draining past the pool size refills from the same rng
        stream: a tiny pool and a large pool yield identical factor
        sequences for the same seed."""
        pub, _ = keypair
        small = BlindingPool(pub, random.Random(4), target_size=3)
        large = BlindingPool(pub, random.Random(4), target_size=64)
        assert [small.draw() for _ in range(11)] == \
            [large.draw() for _ in range(11)]

    def test_draw_many_tops_up(self, keypair):
        pub, _ = keypair
        pool = BlindingPool(pub, random.Random(4), target_size=2)
        factors = pool.draw_many(9)
        assert len(factors) == 9
        assert len(set(factors)) == 9

    def test_prefill_then_online_draws_are_pops(self, keypair):
        pub, _ = keypair
        engine = PaillierEngine(pub, seed=6, pool_size=8)
        engine.prefill()
        assert len(engine.pool) == 8
        engine.encrypt_many([1, 2, 3])
        assert len(engine.pool) == 5


class TestMatvec:
    def test_bit_identical_to_scalar_affine(self, keypair):
        pub, priv = keypair
        rng = random.Random(9)
        x = np.array([3, -4, 5, 0, 7, 2], dtype=np.int64)
        weight = np.array(
            [[rng.randrange(-10 ** 6, 10 ** 6) for _ in range(6)]
             for _ in range(5)],
            dtype=np.int64,
        )
        weight[0, 2] = 0
        weight[3] = 0  # an all-zero row: output is just the bias
        bias = np.array([1, -2, 3, 0, 9], dtype=np.int64)
        tensor = EncryptedTensor.encrypt(x, pub, random.Random(11))
        scalar = tensor.affine(weight, bias, random.Random(13))
        engine = PaillierEngine(pub, seed=77)
        batched = tensor.affine(weight, bias, random.Random(13),
                                engine=engine)
        assert [c.ciphertext for c in scalar.cells()] == \
            [c.ciphertext for c in batched.cells()]
        expected = weight.astype(object) @ x.astype(object) \
            + bias.astype(object)
        assert list(batched.decrypt(priv)) == list(expected)

    def test_shape_mismatches_rejected(self, keypair):
        pub, _ = keypair
        engine = PaillierEngine(pub, seed=1)
        cells = [c.ciphertext for c in engine.encrypt_many([1, 2, 3])]
        bias = [c.ciphertext for c in engine.encrypt_many([0])]
        with pytest.raises(CryptoError):
            engine.matvec(cells, np.ones((1, 2), dtype=np.int64), bias)
        with pytest.raises(CryptoError):
            engine.matvec(cells, np.ones((2, 3), dtype=np.int64), bias)

    def test_ragged_rows_rejected(self, keypair):
        """A short row must not silently drop a column."""
        pub, _ = keypair
        engine = PaillierEngine(pub, seed=1)
        cells = engine.raw_encrypt_many([1, 2])
        bias = engine.raw_encrypt_many([0, 0])
        with pytest.raises(CryptoError):
            engine.matvec(cells, [[1, 2], [3]], bias)
        with pytest.raises(CryptoError):
            SparseMatvecPlan.from_dense([[1, 2], [3]])
        for rows in ([[1, 2], [3]], [[1, 2, 3], [4, 5, 6]]):
            with pytest.raises(CryptoError):
                engine.fc_matvec(cells, rows, bias)

    def test_same_base_in_two_columns_runs_each_schedule(self, keypair):
        """A ciphertext feeding two columns of one call runs both
        columns' schedules, and the engine keeps nothing between
        calls: a second call pays the plan's multiplies again."""
        pub, priv = keypair
        engine = PaillierEngine(pub, private_key=priv, seed=1,
                                obs=Observability(enabled=True))
        cell, other = engine.raw_encrypt_many([5, 6])
        bias = engine.raw_encrypt_many([0, 0])
        plan = SparseMatvecPlan.from_dense([[3, 5], [7, -9]])
        out = engine.fc_matvec([cell, cell], bias=bias, plan=plan)
        assert engine.raw_decrypt_many(out) == [40, pub.n - 10]
        assert engine.fc_matvec([cell, cell], bias=bias, plan=plan) \
            == out
        registry = engine.obs.registry
        for part, count in plan.mult_counts().items():
            assert registry.counter("paillier_matvec_mults",
                                    part=part).value == 2 * count
        out = engine.fc_matvec([other], [[3], [0]], bias)
        assert engine.raw_decrypt_many(out) == [18, 0]

class TestRerandomize:
    def test_preserves_plaintext_changes_bits(self, keypair):
        pub, priv = keypair
        engine = PaillierEngine(pub, seed=4)
        ciphers = engine.encrypt_many([7, 8])
        fresh = engine.rerandomize_many([c.ciphertext for c in ciphers])
        assert fresh != [c.ciphertext for c in ciphers]
        assert [priv.raw_decrypt(c) for c in fresh] == [7, 8]

    def test_rng_mode_matches_scalar_rerandomize(self, keypair):
        pub, _ = keypair
        engine = PaillierEngine(pub, seed=4)
        cipher = pub.encrypt(9, random.Random(1))
        scalar = pub.rerandomize(cipher.ciphertext, random.Random(2))
        batched = engine.rerandomize_many(
            [cipher.ciphertext], rng=random.Random(2)
        )
        assert batched == [scalar]


class TestDefaultEngine:
    def test_shared_per_key(self, keypair):
        pub, _ = keypair
        assert default_engine(pub) is default_engine(pub)

    def test_tensor_encrypt_routes_through_engine(self, keypair):
        """Satellite: EncryptedTensor.encrypt keeps its exact output
        while running on the engine."""
        pub, _ = keypair
        values = np.array([[1, -2], [3, 4]], dtype=np.int64)
        tensor = EncryptedTensor.encrypt(values, pub, random.Random(6))
        rng = random.Random(6)
        from repro.crypto.encoding import SignedEncoder

        encoder = SignedEncoder(pub)
        expected = [
            pub.encrypt(encoder.encode(int(v)), rng).ciphertext
            for v in values.reshape(-1)
        ]
        assert [c.ciphertext for c in tensor.cells()] == expected
