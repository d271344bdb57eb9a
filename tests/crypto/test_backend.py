"""Unit tests for the pluggable bigint backend seam.

The contract: every backend returns plain Python ``int`` residues that
are bit-identical to CPython's built-in ``pow``/``%`` arithmetic —
switching backends may only change speed, never a ciphertext.  The
gmpy2 leg runs wherever gmpy2 is importable and is skipped (not
failed) elsewhere, so one test file serves both CI matrix legs.
"""

import dataclasses

import pytest

from repro.config import RuntimeConfig
from repro.crypto.backend import (
    HAVE_GMPY2,
    BigintBackend,
    PythonBackend,
    active_backend,
    available_backends,
    resolve_backend,
    set_active_backend,
)
from repro.errors import ConfigurationError, CryptoError


class TestResolve:
    def test_python_always_available(self):
        assert "python" in available_backends()
        backend = resolve_backend("python")
        assert isinstance(backend, PythonBackend)
        assert backend.name == "python"

    def test_auto_resolves_to_an_available_backend(self):
        backend = resolve_backend("auto")
        assert backend.name in available_backends()
        if HAVE_GMPY2:
            assert backend.name == "gmpy2"
        else:
            assert backend.name == "python"

    def test_instance_passes_through(self):
        backend = resolve_backend("python")
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("openssl")

    def test_explicit_gmpy2_errors_when_missing(self):
        if HAVE_GMPY2:
            assert resolve_backend("gmpy2").name == "gmpy2"
        else:
            with pytest.raises(ConfigurationError):
                resolve_backend("gmpy2")

    def test_resolution_is_cached_per_name(self):
        assert resolve_backend("python") is resolve_backend("python")

    def test_active_backend_roundtrip(self):
        before = active_backend()
        try:
            assert set_active_backend("python").name == "python"
            assert active_backend().name == "python"
        finally:
            set_active_backend(before)
        assert active_backend() is before


class TestPrimitives:
    MOD = 1000003 * 1000033  # composite, like n^2

    @pytest.fixture(params=available_backends())
    def backend(self, request) -> BigintBackend:
        return resolve_backend(request.param)

    def test_powmod_matches_builtin(self, backend):
        for base, exp in [(2, 10), (12345, 678), (self.MOD - 1, 3)]:
            got = backend.powmod(base, exp, self.MOD)
            assert got == pow(base, exp, self.MOD)
            assert type(got) is int

    def test_powmod_negative_exponent(self, backend):
        got = backend.powmod(12345, -1, self.MOD)
        assert got == pow(12345, -1, self.MOD)

    def test_invert_matches_builtin(self, backend):
        got = backend.invert(98765, self.MOD)
        assert got == pow(98765, -1, self.MOD)
        assert got * 98765 % self.MOD == 1

    def test_invert_raises_crypto_error(self, backend):
        with pytest.raises(CryptoError):
            backend.invert(1000003, self.MOD)  # shares a factor

    def test_powmod_noninvertible_raises_crypto_error(self, backend):
        with pytest.raises(CryptoError):
            backend.powmod(1000003, -1, self.MOD)

    def test_mulmod_matches_builtin(self, backend):
        a, b = 2 ** 130 + 7, 2 ** 129 + 11
        assert backend.mulmod(a, b, self.MOD) == a * b % self.MOD

    def test_wrap_behaves_like_int(self, backend):
        wrapped = backend.wrap(self.MOD)
        assert int(123456789 * 987654321 % wrapped) \
            == 123456789 * 987654321 % self.MOD

    @pytest.mark.skipif(not HAVE_GMPY2, reason="gmpy2 not installed")
    def test_gmpy2_bit_identical_to_python(self):
        py = resolve_backend("python")
        gm = resolve_backend("gmpy2")
        for base in (3, 2 ** 64 + 1, self.MOD - 2):
            assert gm.powmod(base, 65537, self.MOD) \
                == py.powmod(base, 65537, self.MOD)
            assert gm.invert(base, self.MOD) \
                == py.invert(base, self.MOD)
            assert gm.mulmod(base, base + 1, self.MOD) \
                == py.mulmod(base, base + 1, self.MOD)


class TestConfigKnob:
    def test_default_is_auto(self):
        assert RuntimeConfig().bigint_backend == "auto"

    def test_with_bigint_backend(self):
        config = dataclasses.replace(RuntimeConfig(),
                                     bigint_backend="python")
        assert config.bigint_backend == "python"

    def test_bad_backend_name_rejected(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(bigint_backend="openssl")
