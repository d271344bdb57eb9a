"""Property tests for the key holder's output fold.

A linear stage's N output ciphertexts reach the data provider as they
are, stamped with the stage's certified bound ``b`` (``|v| < 2^b``).
The key holder folds each run of ``k = ⌊(|p| - 2) / (b + 1)⌋`` of them
mod ``p^2`` by Horner's rule and recovers the run with one
exponentiation (:meth:`PaillierEngine.decrypt_lanes`); a full
lane-packed batch whose ``B`` lanes fit under ``p`` folds the same way,
a run of positions per exponentiation.  Whatever the key size, lane
width, run length and values inside the certified range, the result
must be exactly what decrypting the N ciphertexts one by one with CRT
decryption gives.  A value just outside its range, or an empty lane,
must raise :class:`EncodingError` — never decode to a wrong value.
The backend legs must agree to the bit (the gmpy2 leg runs when gmpy2
is importable; CI selects it with ``-k gmpy2``).
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto.backend import HAVE_GMPY2
from repro.crypto.encoding import LanePacker, SignedEncoder
from repro.crypto.engine import PaillierEngine
from repro.crypto.paillier import generate_keypair
from repro.crypto.tensor import EncryptedTensor, PackedEncryptedTensor
from repro.errors import CryptoError, DecryptionError, EncodingError

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


def widest_bound(bits):
    """The widest certified bound whose lane still fits under ``p``."""
    _, private = KEYS[bits]
    return private.p.bit_length() - 3


def capacity(bits, bound):
    return engine_for(bits, "python").run_capacity(bound + 1)


@st.composite
def fold_cases(draw):
    """(bound, values): values anywhere in ``±(2^bound - 1)``, edges
    included."""
    bound = draw(st.integers(min_value=1, max_value=48))
    top = 2 ** bound - 1
    edges = [0, 1, -1, top, -top, top // 2, -(top // 2)]
    values = draw(st.lists(
        st.one_of(st.sampled_from(edges),
                  st.integers(min_value=-top, max_value=top)),
        min_size=1, max_size=300,
    ))
    return bound, values


def clamp(bits, case):
    bound, values = case
    if bound > widest_bound(bits):
        bound = widest_bound(bits)
        top = 2 ** bound - 1
        values = [max(-top, min(top, v)) for v in values]
    return bound, values


def encrypt(engine, values, seed, bound=None):
    encoder = SignedEncoder(engine.public_key)
    cells = engine.encrypt_many([encoder.encode(v) for v in values],
                                rng=random.Random(seed))
    return EncryptedTensor(engine.public_key, cells, (len(cells),), 2,
                           bound_bits=bound)


def per_cell(engine, tensor):
    """The unfolded reference: one CRT decryption per value."""
    encoder = SignedEncoder(engine.public_key)
    return [encoder.decode(r) for r in engine.decrypt_many(tensor.cells())]


def folded(engine, tensor):
    return list(tensor.decrypt(engine.private_key, engine=engine))


class TestFoldEqualsPerCellDecryption:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bits", sorted(KEYS))
    @settings(max_examples=12, deadline=None)
    @given(case=fold_cases(), seed=st.integers(0, 2 ** 20))
    @example(case=(1, [-1]), seed=0)
    @example(case=(24, [(-1) ** i * (2 ** 24 - 1 - 7919 * i)
                        for i in range(300)]), seed=1)
    def test_fold_decrypt_unpack_matches(self, bits, backend, case,
                                         seed):
        bound, values = clamp(bits, case)
        engine = engine_for(bits, backend)
        tensor = encrypt(engine, values, seed, bound)
        assert per_cell(engine, tensor) == values
        assert folded(engine, tensor) == values
        # The scalar reference decryption agrees too.
        assert list(tensor.decrypt(engine.private_key)) == values
        assert tensor.decrypt_float(engine.private_key,
                                    engine=engine).tolist() \
            == [v / 100 for v in values]


class TestShortLastBlock:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bits", sorted(KEYS))
    def test_every_remainder(self, bits, backend):
        """Every run length up to the capacity, as the tail of a
        tensor that also holds a full run."""
        engine = engine_for(bits, backend)
        bound = 20
        k = capacity(bits, bound)
        assert k > 1
        rng = random.Random(bits)
        top = 2 ** bound - 1
        for length in range(1, 2 * k + 2):
            values = [rng.randint(-top, top) for _ in range(length)]
            tensor = encrypt(engine, values, length, bound)
            assert folded(engine, tensor) == per_cell(engine, tensor) \
                == values

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bits", sorted(KEYS))
    def test_every_lane_width_that_fits(self, bits, backend):
        """Every bound whose lane fits under ``p``: one full run and a
        one-value run, edges of the range included."""
        engine = engine_for(bits, backend)
        rng = random.Random(bits + 1)
        for bound in range(1, widest_bound(bits) + 1):
            k = capacity(bits, bound)
            assert k == (KEYS[bits][1].p.bit_length() - 2) // (bound + 1)
            top = 2 ** bound - 1
            values = [rng.choice((top, -top, 0, rng.randint(-top, top)))
                      for _ in range(k + 1)]
            tensor = encrypt(engine, values, bound, bound)
            assert folded(engine, tensor) == values
        # One bit wider and the lane no longer fits: CRT decryption
        # per value, with the same range check.
        bound = widest_bound(bits) + 1
        assert capacity(bits, bound) == 0
        top = 2 ** bound - 1
        tensor = encrypt(engine, [top, -top, 5], 0, bound)
        assert folded(engine, tensor) == [top, -top, 5]


class TestSingleLane:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bits", sorted(KEYS))
    def test_k1_is_one_value_per_ciphertext(self, bits, backend):
        """The widest lane that fits: one value per exponentiation,
        no Horner step."""
        engine = engine_for(bits, backend)
        bound = widest_bound(bits)
        assert capacity(bits, bound) == 1
        top = 2 ** bound - 1
        values = [0, 5, -5, top, -top, 2 ** (bound - 1),
                  -2 ** (bound - 1)]
        tensor = encrypt(engine, values, 3, bound)
        lane = LanePacker(engine.public_key, lanes=1, mag_bits=bound,
                          guard_bits=0)
        raw = [c.ciphertext for c in tensor.cells()]
        assert engine.decrypt_lanes(raw, lane, biased=False) == values
        # Cells too wide for p are the caller's to decrypt one by one.
        wide = LanePacker(engine.public_key, lanes=1,
                          mag_bits=bound + 1, guard_bits=0)
        with pytest.raises(CryptoError):
            engine.decrypt_lanes(raw, wide, biased=False)


def packed_cells(engine, batch, mag_bits, guard_bits, positions, seed):
    packer = LanePacker(engine.public_key, lanes=batch,
                        mag_bits=mag_bits, guard_bits=guard_bits)
    top = 2 ** mag_bits - 1
    values = np.random.default_rng(seed).integers(
        -top, top + 1, (batch, positions))
    values[:, 0] = top
    values[:, -1] = -top
    tensor = PackedEncryptedTensor.encrypt_batch(
        values, packer, random.Random(seed), engine=engine)
    return tensor, values


class TestPackedCells:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bits", sorted(KEYS))
    @settings(max_examples=10, deadline=None)
    @given(batch=st.integers(1, 6), mag_bits=st.integers(1, 30),
           positions=st.integers(1, 20), seed=st.integers(0, 2 ** 20))
    def test_packed_fold_matches_per_cell(self, bits, backend, batch,
                                          mag_bits, positions, seed):
        """A full B-lane batch folds a run of positions per
        exponentiation when its cells fit under ``p``, and decrypts
        one CRT decryption per cell otherwise — the same values."""
        engine = engine_for(bits, backend)
        guard_bits = 4
        lane_bits = mag_bits + guard_bits + 1
        if batch * lane_bits > engine.public_key.n.bit_length() - 1:
            batch = max(1, (engine.public_key.n.bit_length() - 1)
                        // lane_bits)
        tensor, values = packed_cells(engine, batch, mag_bits,
                                      guard_bits, positions, seed)
        reference = np.array(engine.decrypt_many_packed(
            tensor.cells(), tensor.packer), dtype=object).T
        assert np.array_equal(reference, values)
        assert np.array_equal(
            tensor.decrypt(engine.private_key, engine=engine), values)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bits", sorted(KEYS))
    def test_every_run_length(self, bits, backend):
        engine = engine_for(bits, backend)
        tensor, _ = packed_cells(engine, 2, 8, 4, 1, 0)
        k = engine.run_capacity(2 * tensor.packer.lane_bits)
        assert k > 1
        for positions in range(1, 2 * k + 2):
            tensor, values = packed_cells(engine, 2, 8, 4, positions,
                                          positions)
            assert np.array_equal(
                tensor.decrypt(engine.private_key, engine=engine), values)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_lane_is_rejected(self, backend):
        """A cell with an empty lane (content 0: no value carries it)
        is refused, wherever in the run it sits."""
        engine = engine_for(256, backend)
        packer = LanePacker(engine.public_key, lanes=3, mag_bits=10,
                            guard_bits=4)
        assert engine.run_capacity(3 * packer.lane_bits) == 2
        for position in range(3):
            residues = [packer.pack([1, -2, 3]) for _ in range(3)]
            # Lane 1 of one cell emptied: content 0, not -2 + offset.
            residues[position] -= (packer.offset - 2) << packer.lane_bits
            cells = engine.encrypt_many(residues, rng=random.Random(0))
            tensor = PackedEncryptedTensor(engine.public_key, cells, (3,),
                                           packer, 3)
            with pytest.raises(EncodingError):
                tensor.decrypt(engine.private_key, engine=engine)


class TestBackendsAgree:
    # Parametrized (not skipped) so that without gmpy2 no test id
    # mentions it and ``-k gmpy2`` selects nothing.
    @pytest.mark.parametrize("backend", BACKENDS[1:])
    @pytest.mark.parametrize("bits", sorted(KEYS))
    @settings(max_examples=10, deadline=None)
    @given(case=fold_cases(), seed=st.integers(0, 2 ** 20))
    def test_fold_is_bit_identical_to_python(self, bits, backend, case,
                                             seed):
        bound, values = clamp(bits, case)
        reference = engine_for(bits, "python")
        tensor = encrypt(reference, values, seed, bound)
        lane = LanePacker(reference.public_key, lanes=1, mag_bits=bound,
                          guard_bits=0)
        raw = [c.ciphertext for c in tensor.cells()]
        assert engine_for(bits, backend).decrypt_lanes(
            raw, lane, biased=False) \
            == reference.decrypt_lanes(raw, lane, biased=False) == values


class TestCertifiedRange:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_positive_overflow_is_rejected_not_decoded(self, backend):
        """One past the certified range, on either side and at any
        position of a run, is refused: the lane it carries out of (or
        borrows from) is left empty, or the run overflows its lanes."""
        engine = engine_for(256, backend)
        bound = 16
        k = capacity(256, bound)
        for position in (0, 1, k - 1, k, k + 1):
            for over in (2 ** bound, -2 ** bound):
                values = [3] * (k + 2)
                values[position] = over
                tensor = encrypt(engine, values, position, bound)
                with pytest.raises(EncodingError):
                    tensor.decrypt(engine.private_key, engine=engine)
                # The CRT path checks the same range.
                with pytest.raises(EncodingError):
                    tensor.decrypt(engine.private_key)

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 20), data=st.data())
    def test_overflow_at_the_end_of_a_run_is_rejected(self, backend,
                                                      seed, data):
        """A value past the range (up to twice the bound, so the run
        stays below ``p``) in a run's last lane has nowhere to carry
        to: always refused."""
        engine = engine_for(256, backend)
        bound = 12
        k = capacity(256, bound)
        length = data.draw(st.integers(1, 3 * k))
        last = data.draw(st.integers(0, (length - 1) // k)) * k
        last = min(last + k, length) - 1
        magnitude = data.draw(st.integers(2 ** bound,
                                          2 ** (bound + 1) - 1))
        sign = data.draw(st.sampled_from((1, -1)))
        values = [1] * length
        values[last] = sign * magnitude
        tensor = encrypt(engine, values, seed, bound)
        with pytest.raises(EncodingError):
            tensor.decrypt(engine.private_key, engine=engine)

    def test_bottom_of_range_is_rejected(self):
        packer = LanePacker(KEYS[128][0], lanes=1, mag_bits=8,
                            guard_bits=4)
        bottom = -2 ** (8 + 4)
        residue = 0     # every lane at -offset
        with pytest.raises(EncodingError):
            packer.unpack_exact(residue, 1)
        assert packer.unpack_exact(packer.offset + bottom + 1, 1) \
            == [bottom + 1]


class TestCiphertextRange:
    def test_out_of_range_ciphertext_is_refused(self):
        engine = engine_for(128, "python")
        lane = LanePacker(engine.public_key, lanes=1, mag_bits=8,
                          guard_bits=0)
        for bad in (0, engine.public_key.n_squared):
            with pytest.raises(DecryptionError):
                engine.decrypt_lanes([5, bad], lane, biased=False)
