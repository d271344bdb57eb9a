"""Property tests for the fixed-base short-exponent blinding.

A blinding factor is ``h_s^x mod n^2`` read off a digit table; nothing
on the way resembles ``pow``, so only results are compared: pooled
factors on the public engine and on the key holder's (half-width,
Garner-recombined) engine equal ``pow(h_s, x, n^2)`` for the same
seeded ``x`` stream, every factor is an encryption of zero, and the
base is a function of ``n`` alone.  When python-paillier (``phe``) is
importable it serves as an oracle the engine did not write itself.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.backend import HAVE_GMPY2, resolve_backend
from repro.crypto.blinding import (
    BLINDING_DIGIT_BITS,
    BLINDING_TABLE_BYTES,
    FixedBaseTable,
    ShortExponentBlinding,
    base_candidates,
    blinding_base,
)
from repro.crypto.engine import PaillierEngine
from repro.crypto.paillier import (
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)
from repro.errors import CryptoError

PUBLIC, PRIVATE = generate_keypair(128, seed=2024)
N_SQ = PUBLIC.n_squared

BACKENDS = ["python"] + (["gmpy2"] if HAVE_GMPY2 else [])

seeds = st.integers(min_value=0, max_value=2 ** 31)


def ordered_keypair(key_size, p_larger):
    public, private = generate_keypair(key_size, seed=key_size)
    p, q = sorted((private.p, private.q), reverse=p_larger)
    private = PaillierPrivateKey(public_key=public, p=p, q=q)
    assert (private.p > private.q) is p_larger
    return public, private


class TestPooledFactors:
    @pytest.mark.parametrize("key_size", [128, 256, 512])
    @pytest.mark.parametrize("p_larger", [False, True])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pooled_factors_equal_plain_pow(self, key_size, p_larger,
                                            backend):
        public, private = ordered_keypair(key_size, p_larger)
        holder = PaillierEngine(public, private_key=private, seed=77,
                                pool_size=8, backend=backend)
        holder.prefill(12)
        blinding = public.blinding
        expected = [
            pow(blinding.h_s, x, public.n_squared)
            for x in blinding.exponents(random.Random(77), 12)
        ]
        assert list(holder.pool._factors) == expected
        # The public-key pool (one full-width table) draws the same
        # stream.
        plain = PaillierEngine(public, seed=77, pool_size=8,
                               backend=backend)
        plain.prefill(12)
        assert list(plain.pool._factors) == expected
        assert all(type(f) is int for f in expected)
        # A factor is an encryption of zero.
        assert set(holder.raw_decrypt_many(expected)) == {0}

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_every_x_matches(self, seed):
        rng = random.Random(seed)
        xs = PUBLIC.blinding.exponents(rng, 4)
        expected = [pow(PUBLIC.blinding.h_s, x, N_SQ) for x in xs]
        for backend in BACKENDS:
            backend = resolve_backend(backend)
            assert PUBLIC.blinding.factors(xs, backend) == expected
            assert PRIVATE.blinding.factors(xs, backend) == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_edge_exponents(self, backend):
        """No digit, every digit, and exactly one (digit-aligned)."""
        backend = resolve_backend(backend)
        bits = PUBLIC.blinding.exponent_bits
        assert bits == 64
        xs = [0, (1 << bits) - 1, 1 << BLINDING_DIGIT_BITS,
              1 << (3 * BLINDING_DIGIT_BITS), 1]
        expected = [pow(PUBLIC.blinding.h_s, x, N_SQ) for x in xs]
        assert expected[0] == 1
        assert PUBLIC.blinding.factors(xs, backend) == expected
        assert PRIVATE.blinding.factors(xs, backend) == expected

    def test_exponent_wider_than_the_table_is_rejected(self):
        """High digits must not be dropped silently."""
        backend = resolve_backend("python")
        rows = -(-PUBLIC.blinding.exponent_bits // BLINDING_DIGIT_BITS)
        covered = rows * BLINDING_DIGIT_BITS
        for blinding in (PUBLIC.blinding, PRIVATE.blinding):
            blinding.factors([(1 << covered) - 1], backend)
            for bad in (1 << covered, 1 << (covered + 40), -1):
                with pytest.raises(CryptoError):
                    blinding.factors([1, bad], backend)

    def test_draw_order_is_the_scalar_path(self):
        """The pool consumes its RNG exactly as ``raw_encrypt`` does,
        one short exponent per ciphertext."""
        engine = PaillierEngine(PUBLIC, private_key=PRIVATE, seed=9,
                                pool_size=3)
        rng = random.Random(9)
        scalar = [PUBLIC.raw_encrypt(m, rng) for m in range(7)]
        assert engine.raw_encrypt_many(range(7)) == scalar
        assert PRIVATE.blinding.exponent_bits == 64
        assert random.Random(9).getrandbits(64) \
            == PUBLIC.blinding.exponents(random.Random(9), 1)[0]


class TestBase:
    @pytest.mark.parametrize("key_size", [128, 256])
    def test_parties_sharing_only_n_agree(self, key_size):
        public, private = generate_keypair(key_size, seed=5)
        # What a peer rebuilds from the wire: n and nothing else.
        remote = PaillierPublicKey(n=public.n, key_size=public.key_size)
        assert remote is not public
        assert remote.blinding.h_s == public.blinding.h_s \
            == private.blinding.h_s
        y = blinding_base(public.n)
        assert public.blinding.h_s \
            == pow(-(y * y) % public.n, public.n, public.n_squared)
        assert private.raw_decrypt(public.blinding.h_s) == 0

    def test_non_unit_candidates_are_skipped(self):
        """A ``y`` sharing a factor with ``n`` would hand out that
        factor; the first unit of the public stream is taken instead,
        the same one on every call."""
        skipped = 0
        for n in (15, 21, 35, 3 * 5 * 7, 2 * 3 * 5 * 7 * 11):
            stream = base_candidates(n)
            first = next(stream)
            y = blinding_base(n)
            assert math.gcd(y, n) == 1
            assert blinding_base(n) == y
            if math.gcd(first, n) != 1:
                skipped += 1
                assert y != first
                expected = next(c for c in stream
                                if math.gcd(c, n) == 1)
                assert y == expected
            else:
                assert y == first
        assert skipped     # the small moduli above do hit non-units

    def test_digit_width_respects_the_byte_budget(self):
        small = FixedBaseTable(3, (1 << 512) - 1, 128)
        assert small.digit_bits == BLINDING_DIGIT_BITS
        # 4096-bit residues (a 2048-bit key's n^2): only narrow digits
        # fit the budget.
        wide = FixedBaseTable(3, (1 << 4096) - 1, 1024)
        assert wide.digit_bits < BLINDING_DIGIT_BITS
        entries = sum(len(row) - 1 for row in wide.rows)
        assert entries * 512 <= BLINDING_TABLE_BYTES
        x = (1 << 1024) - 12345
        assert wide.powers([x], resolve_backend("python")) \
            == [pow(3, x, (1 << 4096) - 1)]
        # A narrowed table reads digits by shift and mask; it rejects
        # what it cannot cover as the byte-digit tables do.
        covered = wide.digit_bits * len(wide.rows)
        for bad in (1 << covered, -1):
            with pytest.raises(CryptoError):
                wide.powers([bad], resolve_backend("python"))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_byte_digits_match_shift_and_mask(self, backend,
                                              monkeypatch):
        """The byte-digit read and the shift-and-mask loop are one
        function: a w = 8 table gives what the same table gives with
        its width read the general way."""
        import repro.crypto.blinding as blinding

        modulus = PUBLIC.n_squared
        table = FixedBaseTable(PUBLIC.blinding.h_s, modulus, 64)
        assert table.digit_bits == 8
        backend = resolve_backend(backend)
        xs = PUBLIC.blinding.exponents(random.Random(4), 16) \
            + [0, 1, 0xFF, 0x100, (1 << 64) - 1]
        by_bytes = table.powers(xs, backend)
        monkeypatch.setattr(blinding, "BLINDING_DIGIT_BITS", 7)
        narrow = FixedBaseTable(PUBLIC.blinding.h_s, modulus, 64)
        assert narrow.digit_bits == 7
        assert narrow.powers(xs, backend) == by_bytes \
            == [pow(PUBLIC.blinding.h_s, x, modulus) for x in xs]

    def test_scalar_and_holder_forms_are_one_function(self):
        public, private = ordered_keypair(256, True)
        holder = ShortExponentBlinding(public.n, private.p, private.q)
        xs = public.blinding.exponents(random.Random(1), 6)
        backend = resolve_backend("python")
        assert holder.factors(xs, backend) \
            == public.blinding.factors(xs, backend)


class TestPythonPaillierOracle:
    """python-paillier decrypts what this engine encrypts."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_phe_decrypts_engine_ciphertexts(self, backend):
        phe = pytest.importorskip("phe")
        public, private = generate_keypair(256, seed=31)
        oracle = phe.PaillierPrivateKey(
            phe.PaillierPublicKey(public.n), private.p, private.q
        )
        engine = PaillierEngine(public, private_key=private, seed=3,
                                backend=backend)
        values = [0, 1, 7, 10 ** 9, public.n - 1]
        fresh = engine.raw_encrypt_many(values)
        assert [oracle.raw_decrypt(c) for c in fresh] == values
        again = engine.rerandomize_many(fresh)
        assert again != fresh
        assert [oracle.raw_decrypt(c) for c in again] == values
        scalar = [public.raw_encrypt(m, random.Random(m))
                  for m in values[:4]]
        assert [oracle.raw_decrypt(c) for c in scalar] == values[:4]
        weights = [[3, -2, 5, 0], [-7, 1, 0, 4]]
        bias = engine.raw_encrypt_many([11, public.n - 13])
        out = engine.matvec(fresh[:4], weights, bias)
        plain = values[:4]
        expected = [
            (sum(w * m for w, m in zip(row, plain)) + b) % public.n
            for row, b in zip(weights, (11, -13))
        ]
        assert [oracle.raw_decrypt(c) for c in out] == expected
