"""Property-based tests for the multi-exponentiation matvec kernel.

The kernel interleaves every exponentiation of a layer (digit tables,
per-position accumulators, one Horner pass, one batched inversion), so
nothing it computes on the way resembles the scalar path — only the
result may be compared.  For ANY signed integer matrix it must return
exactly the ciphertexts of the scalar reference loop
(``raw_scalar_mul`` per weight, ``raw_add`` per term), on every route
into it: dense ``matvec``, planned ``fc_matvec`` / ``conv_im2col``,
``fc_matvec_packed``, the process-pool path, every digit width, and
the gmpy2 backend when it is importable.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.backend import HAVE_GMPY2, PythonBackend
from repro.crypto.encoding import LanePacker
from repro.crypto.engine import PaillierEngine, _matvec_partial
from repro.crypto.paillier import generate_keypair
from repro.crypto.sparse import SparseMatvecPlan
from repro.errors import CryptoError

PUBLIC, PRIVATE = generate_keypair(128, seed=2024)
N_SQ = PUBLIC.n_squared

BACKENDS = ["python"] + (["gmpy2"] if HAVE_GMPY2 else [])

dims = st.integers(min_value=1, max_value=5)
seeds = st.integers(min_value=0, max_value=2 ** 31)
windows = st.integers(min_value=1, max_value=6)
#: Signed weights from |w| = 1 up past 2^(3*window) for every window
#: width under test (2^18), zero-heavy like a pruned layer.
weight_cells = st.one_of(
    st.just(0),
    st.sampled_from([1, -1]),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-(1 << 20), max_value=1 << 20),
)
positive_cells = st.integers(min_value=1, max_value=1 << 13)
negative_cells = st.integers(min_value=-(1 << 13), max_value=-1)


def matrix_of(data, out_dim, in_dim, cells=weight_cells):
    return data.draw(st.lists(
        st.lists(cells, min_size=in_dim, max_size=in_dim),
        min_size=out_dim, max_size=out_dim,
    ))


def ciphertexts(count, seed):
    rng = random.Random(seed)
    return [PUBLIC.raw_encrypt(rng.randrange(PUBLIC.n), rng)
            for _ in range(count)]


def reference(cells, weights, bias):
    """The scalar loop of Eq. (3): one ``c^w`` per weight."""
    out = []
    for row, acc in zip(weights, bias):
        for c, w in zip(cells, row):
            if w:
                acc = PUBLIC.raw_add(acc, PUBLIC.raw_scalar_mul(c, w))
        out.append(acc)
    return out


class NoInvertBackend(PythonBackend):
    """Fails the test if the kernel asks for a modular inverse."""

    def invert(self, a, modulus):
        raise AssertionError("an all-positive layer inverted")


def make_engine(window_bits=4, backend="python", **kwargs):
    return PaillierEngine(PUBLIC, private_key=PRIVATE, seed=3,
                          window_bits=window_bits, backend=backend,
                          **kwargs)


class TestKernelMatchesScalarReference:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=40, deadline=None)
    @given(out_dim=dims, in_dim=dims, window=windows, seed=seeds,
           data=st.data())
    def test_every_route_equals_the_scalar_loop(
            self, backend, out_dim, in_dim, window, seed, data):
        weights = matrix_of(data, out_dim, in_dim)
        cells = ciphertexts(in_dim, seed)
        bias = ciphertexts(out_dim, seed + 1)
        expected = reference(cells, weights, bias)
        engine = make_engine(window, backend)
        plan = SparseMatvecPlan.from_dense(weights)
        assert engine.matvec(cells, weights, bias) == expected
        assert engine.fc_matvec(cells, weights, bias) == expected
        assert engine.conv_im2col(cells, plan=plan, bias=bias) \
            == expected
        # A warm digit-table cache is pure precomputation.
        assert engine.fc_matvec(cells, plan=plan, bias=bias) == expected

    @settings(max_examples=25, deadline=None)
    @given(in_dim=dims, window=windows, seed=seeds, data=st.data())
    def test_single_output_row(self, in_dim, window, seed, data):
        weights = matrix_of(data, 1, in_dim)
        cells = ciphertexts(in_dim, seed)
        bias = ciphertexts(1, seed + 1)
        engine = make_engine(window)
        assert engine.matvec(cells, weights, bias) \
            == engine.fc_matvec(cells, weights, bias) \
            == reference(cells, weights, bias)

    @settings(max_examples=25, deadline=None)
    @given(out_dim=dims, in_dim=dims, window=windows, seed=seeds,
           data=st.data())
    def test_all_positive_layer_never_inverts(
            self, out_dim, in_dim, window, seed, data):
        weights = matrix_of(data, out_dim, in_dim, positive_cells)
        cells = ciphertexts(in_dim, seed)
        bias = ciphertexts(out_dim, seed + 1)
        engine = make_engine(window, backend=NoInvertBackend())
        expected = reference(cells, weights, bias)
        assert engine.matvec(cells, weights, bias) == expected
        assert engine.fc_matvec(cells, weights, bias) == expected

    @settings(max_examples=25, deadline=None)
    @given(out_dim=dims, in_dim=dims, window=windows, seed=seeds,
           data=st.data())
    def test_all_negative_row_and_empty_lines(
            self, out_dim, in_dim, window, seed, data):
        """Row 0 all negative, then an all-zero row and an all-zero
        column spliced into an arbitrary matrix."""
        weights = matrix_of(data, out_dim, in_dim)
        weights[0] = data.draw(st.lists(
            negative_cells, min_size=in_dim, max_size=in_dim))
        weights.append([0] * in_dim)
        weights = [row + [0] for row in weights]
        cells = ciphertexts(in_dim + 1, seed)
        bias = ciphertexts(out_dim + 1, seed + 1)
        engine = make_engine(window)
        expected = reference(cells, weights, bias)
        assert expected[-1] == bias[-1]
        assert engine.matvec(cells, weights, bias) == expected
        assert engine.fc_matvec(cells, weights, bias) == expected

    @settings(max_examples=25, deadline=None)
    @given(in_dim=dims, window=windows, seed=seeds, data=st.data())
    def test_clustered_plan_many_rows_per_weight(
            self, in_dim, window, seed, data):
        """Few distinct weights, each used by many rows: the columns
        the kernel forms once instead of scattering."""
        palette = data.draw(st.lists(
            st.integers(min_value=-(1 << 16), max_value=1 << 16)
            .filter(bool), min_size=1, max_size=2, unique=True))
        weights = matrix_of(data, 24, in_dim,
                            cells=st.sampled_from(palette))
        cells = ciphertexts(in_dim, seed)
        bias = ciphertexts(24, seed + 1)
        engine = make_engine(window)
        plan = SparseMatvecPlan.from_dense(weights)
        expected = reference(cells, weights, bias)
        assert engine.conv_im2col(cells, plan=plan, bias=bias) \
            == expected
        assert engine.matvec(cells, weights, bias) == expected

    @settings(max_examples=20, deadline=None)
    @given(out_dim=dims, in_dim=dims, window=windows, seed=seeds,
           data=st.data())
    def test_packed_route(self, out_dim, in_dim, window, seed, data):
        """``fc_matvec_packed`` is the kernel plus a plaintext rebias:
        dense and planned packed products agree, and undoing the
        rebias recovers the scalar reference."""
        weights = matrix_of(
            data, out_dim, in_dim,
            cells=st.integers(min_value=-300, max_value=300))
        packer = LanePacker(PUBLIC, lanes=2, mag_bits=16,
                            guard_bits=24)
        engine = make_engine(window)
        rng = random.Random(seed)
        cells = [c.ciphertext for c in engine.encrypt_many_packed(
            [[rng.randrange(-200, 200) for _ in range(2)]
             for _ in range(in_dim)], packer, rng=random.Random(seed))]
        bias = [c.ciphertext for c in engine.encrypt_many_packed(
            [[rng.randrange(-200, 200) for _ in range(2)]
             for _ in range(out_dim)], packer,
            rng=random.Random(seed + 1))]
        plan = SparseMatvecPlan.from_dense(weights)
        dense = engine.fc_matvec_packed(cells, weights, bias, packer)
        assert engine.fc_matvec_packed(cells, None, bias, packer,
                                       plan=plan) == dense
        rebias = [
            packer.rebias_residue(
                packer.offset - (packer.offset * sum(row)
                                 + packer.offset))
            for row in weights
        ]
        assert dense == engine.add_plain_many(
            reference(cells, weights, bias), rebias)


class TestProcessPath:
    def test_force_parallel_equals_the_scalar_loop(self):
        rng = random.Random(17)
        weights = [[rng.choice([0, 1, -1, rng.randrange(-5000, 5000),
                                rng.randrange(-(1 << 19), 1 << 19)])
                    for _ in range(9)] for _ in range(6)]
        weights[2] = [-abs(w) - 1 for w in weights[2]]
        cells = ciphertexts(9, 5)
        bias = ciphertexts(6, 6)
        expected = reference(cells, weights, bias)
        plan = SparseMatvecPlan.from_dense(weights)
        for backend in BACKENDS:
            with make_engine(backend=backend, workers=2,
                             force_parallel=True) as pooled:
                assert pooled.matvec(cells, weights, bias) == expected
                assert pooled.fc_matvec(cells, plan=plan, bias=bias) \
                    == expected


class TestNonUnitBase:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_negative_weight_on_a_non_unit_is_a_crypto_error(
            self, backend):
        """A base sharing a factor with n has no inverse: the batched
        inversion must surface that as CryptoError, not ValueError or
        ZeroDivisionError."""
        cells = [PRIVATE.p, ciphertexts(1, 1)[0]]
        bias = ciphertexts(2, 2)
        weights = [[-3, 5], [2, -7]]
        engine = make_engine(backend=backend)
        with pytest.raises(CryptoError):
            engine.matvec(cells, weights, bias)
        with pytest.raises(CryptoError):
            engine.fc_matvec(cells, weights, bias)
        with pytest.raises(CryptoError):
            _matvec_partial(cells, weights, N_SQ, 4)
