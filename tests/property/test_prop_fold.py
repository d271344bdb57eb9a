"""Property tests for the output fold.

A linear stage's N output ciphertexts reach the data provider folded
``k`` to a ciphertext (:meth:`PaillierEngine.fold_many`, Horner's rule
on public-key operations).  Whatever N, key size, lane geometry and
values inside the certified lane range, decrypting the folded cells and
unpacking their lanes must give exactly what decrypting the N cells one
by one gives — including a short last block, and with ``k = 1``, where
the fold is one value per ciphertext.  The backend legs must agree to
the bit (the gmpy2 leg runs when gmpy2 is importable; CI selects it
with ``-k gmpy2``).
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto.backend import HAVE_GMPY2
from repro.crypto.encoding import LanePacker, SignedEncoder
from repro.crypto.engine import PaillierEngine
from repro.crypto.paillier import generate_keypair
from repro.crypto.tensor import EncryptedTensor, FoldedTensor, fold_counts
from repro.errors import EncodingError
from repro.scaling.headroom import (
    FOLD_GUARD_BITS,
    MAX_FOLD_LANES,
    FoldGeometry,
)

KEYS = {bits: generate_keypair(bits, seed=bits) for bits in (128, 256, 320)}
BACKENDS = ["python"] + (["gmpy2"] if HAVE_GMPY2 else [])

_engines: dict = {}


def engine_for(bits, backend):
    """One key-holder engine per (key, backend), reused across examples
    (its pool only serves the test's own encryptions)."""
    engine = _engines.get((bits, backend))
    if engine is None:
        public, private = KEYS[bits]
        engine = PaillierEngine(public, private_key=private, seed=bits,
                                pool_size=64, backend=backend)
        _engines[bits, backend] = engine
    return engine


def packer_for(bits, mag_bits):
    public, _ = KEYS[bits]
    lanes = LanePacker.capacity(public, mag_bits, FOLD_GUARD_BITS)
    return LanePacker(public, lanes=max(1, min(lanes, MAX_FOLD_LANES)),
                      mag_bits=mag_bits, guard_bits=FOLD_GUARD_BITS)


@st.composite
def fold_cases(draw):
    """(mag_bits, values): lanes of ``mag_bits`` plus the fold's guard
    bits, values anywhere in the certified range, edges included."""
    mag_bits = draw(st.integers(min_value=1, max_value=48))
    top = 2 ** (mag_bits + FOLD_GUARD_BITS) - 1
    edges = [0, 1, -1, 2 ** mag_bits, -2 ** mag_bits, top, -top]
    values = draw(st.lists(
        st.one_of(st.sampled_from(edges),
                  st.integers(min_value=-top, max_value=top)),
        min_size=1, max_size=300,
    ))
    return mag_bits, values


def encrypt(engine, values, seed):
    encoder = SignedEncoder(engine.public_key)
    cells = engine.encrypt_many([encoder.encode(v) for v in values],
                                rng=random.Random(seed))
    return EncryptedTensor(engine.public_key, cells, (len(cells),), 2)


def per_cell(engine, tensor):
    """The unfolded reference: one decryption per value."""
    return list(tensor.decrypt(engine.private_key, engine=engine))


class TestFoldEqualsPerCellDecryption:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bits", sorted(KEYS))
    @settings(max_examples=12, deadline=None)
    @given(case=fold_cases(), seed=st.integers(0, 2 ** 20))
    @example(case=(1, [-31]), seed=0)
    @example(case=(20, [(-1) ** i * (2 ** 24 - 1 - 7919 * i)
                        for i in range(300)]), seed=1)
    def test_fold_decrypt_unpack_matches(self, bits, backend, case,
                                         seed):
        mag_bits, values = case
        if (mag_bits + FOLD_GUARD_BITS + 1) > bits - 2:
            mag_bits = bits - 3 - FOLD_GUARD_BITS
            top = 2 ** (mag_bits + FOLD_GUARD_BITS) - 1
            values = [max(-top, min(top, v)) for v in values]
        engine = engine_for(bits, backend)
        packer = packer_for(bits, mag_bits)
        tensor = encrypt(engine, values, seed)
        assert per_cell(engine, tensor) == values
        folded = FoldedTensor.fold(tensor, packer, engine)
        assert len(folded.cells()) == -(-len(values) // packer.lanes)
        assert list(folded.counts) == fold_counts(len(values),
                                                  packer.lanes)
        private = engine.private_key
        assert list(folded.decrypt(private, engine=engine)) == values
        # The scalar reference decryption agrees too.
        assert list(folded.decrypt(private)) == values
        assert folded.decrypt_float(private, engine=engine).tolist() \
            == [v / 100 for v in values]


class TestShortLastBlock:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bits", sorted(KEYS))
    def test_every_remainder(self, bits, backend):
        engine = engine_for(bits, backend)
        packer = packer_for(bits, 20)
        k = packer.lanes
        assert k > 1
        rng = random.Random(bits)
        top = 2 ** (20 + FOLD_GUARD_BITS) - 1
        for length in range(1, 2 * k + 2):
            values = [rng.randint(-top, top) for _ in range(length)]
            tensor = encrypt(engine, values, length)
            folded = FoldedTensor.fold(tensor, packer, engine)
            assert folded.counts[-1] == (length % k or k)
            assert list(folded.decrypt(engine.private_key,
                                       engine=engine)) == values


class TestSingleLane:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bits", sorted(KEYS))
    def test_k1_is_one_value_per_ciphertext(self, bits, backend):
        engine = engine_for(bits, backend)
        geometry = FoldGeometry.single_lane(bits)
        packer = geometry.packer(engine.public_key)
        assert packer.lanes == 1
        top = 2 ** (geometry.mag_bits + geometry.guard_bits) - 1
        values = [0, 5, -5, top, -top, 2 ** 40, -2 ** 40]
        tensor = encrypt(engine, values, 3)
        folded = FoldedTensor.fold(tensor, packer, engine)
        assert len(folded.cells()) == len(values)
        n, n_sq = engine.public_key.n, engine.public_key.n_squared
        # Each cell is its input times the encryption-free offset term.
        for cell, source in zip(folded.cells(), tensor.cells()):
            assert cell.ciphertext == source.ciphertext * (
                1 + n * packer.offset) % n_sq
        assert list(folded.decrypt(engine.private_key,
                                   engine=engine)) == values


class TestBackendsAgree:
    # Parametrized (not skipped) so that without gmpy2 no test id
    # mentions it and ``-k gmpy2`` selects nothing.
    @pytest.mark.parametrize("backend", BACKENDS[1:])
    @pytest.mark.parametrize("bits", sorted(KEYS))
    @settings(max_examples=10, deadline=None)
    @given(case=fold_cases(), seed=st.integers(0, 2 ** 20))
    def test_fold_is_bit_identical_to_python(self, bits, backend, case,
                                             seed):
        mag_bits, values = case
        mag_bits = min(mag_bits, bits - 3 - FOLD_GUARD_BITS)
        top = 2 ** (mag_bits + FOLD_GUARD_BITS) - 1
        values = [max(-top, min(top, v)) for v in values]
        packer = packer_for(bits, mag_bits)
        reference = engine_for(bits, "python")
        tensor = encrypt(reference, values, seed)
        raw = [c.ciphertext for c in tensor.cells()]
        assert engine_for(bits, backend).fold_many(raw, packer) \
            == reference.fold_many(raw, packer)


class TestCertifiedRange:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_positive_overflow_is_rejected_not_decoded(self, backend):
        """One past the certified range carries into the next lane (or
        past the last occupied one); decryption refuses either."""
        engine = engine_for(256, backend)
        packer = packer_for(256, 16)
        over = 2 ** (16 + FOLD_GUARD_BITS)
        for position in (0, 1, packer.lanes - 1, packer.lanes + 1):
            values = [3] * (packer.lanes + 2)
            values[position] = over
            folded = FoldedTensor.fold(encrypt(engine, values, position),
                                       packer, engine)
            with pytest.raises(EncodingError):
                folded.decrypt(engine.private_key, engine=engine)

    def test_bottom_of_range_is_rejected(self):
        packer = packer_for(128, 8)
        bottom = -2 ** (8 + FOLD_GUARD_BITS)
        residue = 0     # every lane at -offset
        with pytest.raises(EncodingError):
            packer.unpack_exact(residue, 1)
        assert packer.unpack_exact(packer.offset + bottom + 1, 1) \
            == [bottom + 1]
