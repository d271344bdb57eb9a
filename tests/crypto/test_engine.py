"""Unit tests for the batched Paillier engine.

The engine's contract is exact agreement with the scalar reference
implementation: same seed, same ciphertext bits — across the blinding
pool, the key holder's half-width tables, the process pool, and the
windowed matvec.
"""

import os
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
    PowerTable,
    _matvec_partial,
    default_engine,
)
from repro.crypto.paillier import encrypt_many, generate_keypair
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


class TestPowerTable:
    def test_matches_builtin_pow(self, keypair):
        pub, _ = keypair
        rng = random.Random(8)
        modulus = pub.n_squared
        base = rng.randrange(2, modulus)
        table = PowerTable(base, modulus, max_bits=16)
        for exponent in (0, 1, 2, 7, 255, 256, 65535):
            assert table.pow(exponent) == pow(base, exponent, modulus)

    def test_lazy_extension_past_max_bits(self, keypair):
        pub, _ = keypair
        modulus = pub.n_squared
        table = PowerTable(12345, modulus, max_bits=4)
        big = 10 ** 9 + 7
        assert table.pow(big) == pow(12345, big, modulus)

    def test_negative_exponent_rejected(self, keypair):
        pub, _ = keypair
        with pytest.raises(CryptoError):
            PowerTable(3, pub.n_squared, 8).pow(-1)

    def test_digit_table_grows_only_as_far_as_asked(self, keypair):
        """Nothing is built up front; ``digits`` grows the table to
        the requested digit and keeps what it built."""
        pub, _ = keypair
        modulus = pub.n_squared
        table = PowerTable(12345, modulus, 0, window_bits=4)
        assert table.digits(1) == [1, 12345]
        short = table.digits(5)
        assert short == [pow(12345, d, modulus) for d in range(6)]
        full = table.digits(15)
        assert full == [pow(12345, d, modulus) for d in range(16)]
        # Growth publishes a new row; an earlier reader's row is intact.
        assert len(short) == 6
        assert table.digits(3) is full
        assert table.pow(0xABCDE) == pow(12345, 0xABCDE, modulus)


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
        for rows in ([[1, 2], [3]], [[1, 2, 3], [4, 5, 6]]):
            with pytest.raises(CryptoError):
                _matvec_partial(cells, rows, pub.n_squared, 4)

    def test_one_table_per_distinct_base(self, keypair):
        """A ciphertext feeding two columns of one call gets one
        table, kept in the cache; a single-use column's is not."""
        pub, priv = keypair
        engine = PaillierEngine(pub, private_key=priv, seed=1,
                                obs=Observability(enabled=True))
        cell, other = engine.raw_encrypt_many([5, 6])
        bias = engine.raw_encrypt_many([0, 0])
        out = engine.fc_matvec([cell, cell], [[3, 5], [7, -9]], bias)
        assert engine.raw_decrypt_many(out) == [40, pub.n - 10]
        built = engine.obs.registry.counter(
            "paillier_power_cache_tables_built")
        assert built.value == 1
        assert len(engine.power_cache) == 1
        engine.fc_matvec([other], [[3], [0]], bias)
        assert built.value == 2
        assert len(engine.power_cache) == 1

    def test_scalar_mul_many(self, keypair):
        pub, priv = keypair
        engine = PaillierEngine(pub, private_key=priv, seed=3)
        ciphers = engine.encrypt_many([4, 6, 9])
        raw = engine.scalar_mul_many(
            [c.ciphertext for c in ciphers], [3, 0, 2]
        )
        assert [priv.raw_decrypt(c) for c in raw] == [12, 0, 18]


class TestProcessPool:
    """The workers > 0 paths agree with the sequential engine.

    ``force_parallel`` pins the dispatch decision so the process path
    is exercised even on single-core CI boxes.
    """

    def test_parallel_encrypt_decrypt_matvec(self, keypair):
        pub, priv = keypair
        values = list(range(20))
        with PaillierEngine(pub, private_key=priv, workers=2,
                            force_parallel=True, seed=5) as parallel:
            sequential = PaillierEngine(pub, seed=5)
            par = [c.ciphertext for c in parallel.encrypt_many(values)]
            seq = [c.ciphertext for c in sequential.encrypt_many(values)]
            # parallel engine holds the private key, so its pool uses
            # the half-width tables; values still match the public pool
            assert par == seq
            ciphers = parallel.encrypt_many(
                values, rng=random.Random(1)
            )
            assert parallel.decrypt_many(ciphers) == values

            rng = random.Random(2)
            cells = [c.ciphertext for c in ciphers][:16]
            weight = np.array(
                [[rng.randrange(-999, 999) for _ in range(16)]
                 for _ in range(3)],
                dtype=np.int64,
            )
            bias = [c.ciphertext
                    for c in parallel.encrypt_many([1, 2, 3])]
            assert parallel.matvec(cells, weight, bias) == \
                sequential.matvec(cells, weight, bias)

    def test_effective_workers_capped_by_cores(self, keypair):
        pub, _ = keypair
        engine = PaillierEngine(pub, workers=64)
        assert engine.effective_workers == min(64, os.cpu_count() or 1)

    def test_negative_workers_rejected(self, keypair):
        pub, _ = keypair
        with pytest.raises(CryptoError):
            PaillierEngine(pub, workers=-1)


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


class TestAddMany:
    def test_scalar_path_matches_reference(self, keypair):
        pub, priv = keypair
        engine = PaillierEngine(pub, seed=2)
        lefts = engine.raw_encrypt_many([1, 2, 3])
        rights = engine.raw_encrypt_many([10, 20, 30])
        n_sq = pub.n_squared
        assert engine.add_many(lefts, rights) \
            == [a * b % n_sq for a, b in zip(lefts, rights)]

    def test_length_mismatch_rejected(self, keypair):
        pub, _ = keypair
        engine = PaillierEngine(pub, seed=2)
        with pytest.raises(CryptoError):
            engine.add_many([1, 2], [3])

    def test_dispatch_break_even_is_add_specific(self, keypair):
        """Adds are one modular multiply each, so the process-pool
        break-even sits ADD_DISPATCH_FACTOR above the pow-bound one."""
        from repro.crypto.engine import ADD_DISPATCH_FACTOR

        pub, _ = keypair
        engine = PaillierEngine(pub, seed=2, workers=2)
        try:
            # Single-core CI clamps effective_workers to 1; the
            # break-even rule is what's under test, so un-clamp it.
            engine.effective_workers = 2
            threshold = engine.dispatch_min_items * ADD_DISPATCH_FACTOR
            assert not engine.add_dispatch(threshold - 1)
            assert engine.add_dispatch(threshold)
        finally:
            engine.close()

    def test_sequential_engine_never_dispatches(self, keypair):
        pub, _ = keypair
        engine = PaillierEngine(pub, seed=2)
        assert not engine.add_dispatch(10 ** 9)

    def test_force_parallel_dispatches_any_batch(self, keypair):
        pub, _ = keypair
        engine = PaillierEngine(pub, seed=2, workers=2,
                                force_parallel=True)
        try:
            assert engine.add_dispatch(1)
        finally:
            engine.close()

    def test_pooled_path_bit_identical(self, keypair):
        pub, _ = keypair
        sequential = PaillierEngine(pub, seed=2)
        pooled = PaillierEngine(pub, seed=2, workers=2,
                                force_parallel=True)
        try:
            lefts = sequential.raw_encrypt_many(list(range(20)))
            rights = sequential.raw_encrypt_many(list(range(20, 40)))
            assert pooled.add_many(lefts, rights) \
                == sequential.add_many(lefts, rights)
        finally:
            pooled.close()
