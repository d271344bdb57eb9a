"""Paillier's partially homomorphic cryptosystem (EUROCRYPT 1999).

This is the cryptosystem the paper uses for privacy-preserving linear
operations (Section III-B).  Supported homomorphisms:

* addition of two ciphertexts:        ``E(m1) * E(m2) = E(m1 + m2)``
* scalar multiplication by plaintext: ``E(m) ** w     = E(w * m)``

Implementation notes, matching standard practice (and the paper's GMP
prototype):

* ``g = n + 1`` so encryption needs no modular exponentiation for the
  message part: ``g^m = 1 + n*m (mod n^2)``.
* Decryption uses the Chinese Remainder Theorem over ``p^2`` and ``q^2``,
  roughly a 4x speedup over the textbook formula.
* Encryption is probabilistic (a fresh blinding factor per ciphertext),
  which is what makes the scheme semantically secure; re-encryption of
  the same plaintext yields a different ciphertext, a property the
  protocol tests rely on.
* Blinding factors are short-exponent powers ``h_s^x`` of a fixed
  per-key base read off a precomputed table
  (:mod:`repro.crypto.blinding`), not ``r^n`` for a fresh ``r``.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Tuple

from ..errors import (
    DecryptionError,
    EncryptionError,
    KeyGenerationError,
    KeyMismatchError,
)
from .backend import active_backend
from .blinding import ShortExponentBlinding
from .math_utils import invmod, keypair_primes


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public key: the modulus ``n`` (``g`` is fixed to ``n + 1``).

    Attributes:
        n: RSA-style modulus ``p * q``.
        key_size: bit length of ``n``.
    """

    n: int
    key_size: int

    @property
    def n_squared(self) -> int:
        return self.n * self.n

    @property
    def max_plaintext(self) -> int:
        """Largest raw plaintext residue (``n - 1``)."""
        return self.n - 1

    @cached_property
    def blinding(self) -> ShortExponentBlinding:
        """The key's fixed-base blinding tables, built on first use and
        shared by the scalar path and every engine over this key object
        (racing first uses only duplicate the build)."""
        return ShortExponentBlinding(self.n)

    def raw_encrypt(self, plaintext: int, rng: random.Random) -> int:
        """Encrypt a residue of Z_n into a ciphertext in Z_{n^2}.

        Args:
            plaintext: integer in ``[0, n)``.
            rng: randomness source for the blinding exponent ``x``.

        Raises:
            EncryptionError: if the plaintext is out of range.
        """
        if not 0 <= plaintext < self.n:
            raise EncryptionError(
                f"plaintext {plaintext} out of range [0, n)"
            )
        n_sq = self.n_squared
        # g^m = (1 + n)^m = 1 + n*m (mod n^2) because (n)^2 = 0 (mod n^2).
        g_m = (1 + self.n * plaintext) % n_sq
        blinding = self.blinding
        factor, = blinding.factors(blinding.exponents(rng, 1),
                                   active_backend())
        return (g_m * factor) % n_sq

    def raw_add(self, c1: int, c2: int) -> int:
        """Homomorphic addition: multiply ciphertexts mod ``n^2``."""
        return (c1 * c2) % self.n_squared

    def raw_scalar_mul(self, c: int, w: int) -> int:
        """Homomorphic scalar multiplication: ``c^w mod n^2``.

        Negative scalars are mapped through the ciphertext inverse,
        matching the signed encoding in :mod:`repro.crypto.encoding`.
        """
        if w < 0:
            c = invmod(c, self.n_squared)
            w = -w
        return active_backend().powmod(c, w, self.n_squared)

    def encrypt(self, plaintext: int, rng: random.Random) -> "EncryptedNumber":
        """Encrypt a residue and wrap it in an :class:`EncryptedNumber`."""
        return EncryptedNumber(self, self.raw_encrypt(plaintext, rng))

    def rerandomize(self, ciphertext: int, rng: random.Random) -> int:
        """Refresh a ciphertext's randomness without changing its
        plaintext: multiply by a fresh encryption of zero.  Makes
        ciphertexts unlinkable across rounds even when values repeat."""
        return self.raw_add(ciphertext, self.raw_encrypt(0, rng))


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Private key with the precomputed CRT constants.

    Attributes:
        public_key: the matching public key.
        p, q: prime factors of ``n``.
    """

    public_key: PaillierPublicKey
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p * self.q != self.public_key.n:
            raise KeyGenerationError("p * q does not match the public modulus")
        object.__setattr__(self, "_p_squared", self.p * self.p)
        object.__setattr__(self, "_q_squared", self.q * self.q)
        object.__setattr__(self, "_q_inv_p", invmod(self.q, self.p))
        # h_p = L_p(g^{p-1} mod p^2)^{-1} mod p  with g = n + 1.
        object.__setattr__(
            self, "_h_p", self._h_function(self.p, self._p_squared)
        )
        object.__setattr__(
            self, "_h_q", self._h_function(self.q, self._q_squared)
        )

    @cached_property
    def blinding(self) -> ShortExponentBlinding:
        """The key holder's form of :attr:`PaillierPublicKey.blinding`:
        same factors, evaluated mod ``p^2`` / ``q^2``."""
        return ShortExponentBlinding(self.public_key.n, self.p, self.q)

    def _h_function(self, prime: int, prime_squared: int) -> int:
        n = self.public_key.n
        g = n + 1
        u = pow(g, prime - 1, prime_squared)
        l_value = (u - 1) // prime
        return invmod(l_value % prime, prime)

    def raw_decrypt(self, ciphertext: int) -> int:
        """Decrypt a raw ciphertext to its residue in Z_n via CRT.

        Raises:
            DecryptionError: if the ciphertext is out of range.
        """
        n_sq = self.public_key.n_squared
        if not 0 < ciphertext < n_sq:
            raise DecryptionError(
                "ciphertext out of range (0, n^2)"
            )
        m_p = self._decrypt_mod_prime(ciphertext, self.p, self._p_squared,
                                      self._h_p)
        m_q = self._decrypt_mod_prime(ciphertext, self.q, self._q_squared,
                                      self._h_q)
        # Garner recombination of m mod p and m mod q into m mod n.
        h = ((m_p - m_q) * self._q_inv_p) % self.p
        return (m_q + self.q * h) % self.public_key.n

    def _decrypt_mod_prime(
        self, ciphertext: int, prime: int, prime_squared: int, h: int
    ) -> int:
        u = active_backend().powmod(ciphertext, prime - 1, prime_squared)
        l_value = (u - 1) // prime
        return (l_value * h) % prime

    def decrypt(self, encrypted: "EncryptedNumber") -> int:
        """Decrypt an :class:`EncryptedNumber` to its residue in Z_n."""
        if encrypted.public_key.n != self.public_key.n:
            raise KeyMismatchError(
                "ciphertext was produced under a different public key"
            )
        return self.raw_decrypt(encrypted.ciphertext)


class EncryptedNumber:
    """A Paillier ciphertext bound to its public key.

    Supports ``+`` between two ciphertexts (homomorphic addition) and
    ``*`` by a plaintext integer (homomorphic scalar multiplication), the
    exact operations Eq. (1)-(3) of the paper build linear layers from.
    """

    __slots__ = ("public_key", "ciphertext")

    def __init__(self, public_key: PaillierPublicKey, ciphertext: int):
        self.public_key = public_key
        self.ciphertext = ciphertext

    def __add__(self, other: "EncryptedNumber") -> "EncryptedNumber":
        if not isinstance(other, EncryptedNumber):
            return NotImplemented
        if other.public_key.n != self.public_key.n:
            raise KeyMismatchError(
                "cannot add ciphertexts under different keys"
            )
        return EncryptedNumber(
            self.public_key,
            self.public_key.raw_add(self.ciphertext, other.ciphertext),
        )

    def __mul__(self, scalar: int) -> "EncryptedNumber":
        # numbers.Integral rather than int so NumPy integer scalars
        # (np.int64 etc., which are not int subclasses) work too.
        if not isinstance(scalar, numbers.Integral):
            return NotImplemented
        return EncryptedNumber(
            self.public_key,
            self.public_key.raw_scalar_mul(self.ciphertext, int(scalar)),
        )

    __rmul__ = __mul__

    def rerandomized(self, rng: random.Random) -> "EncryptedNumber":
        """A fresh-randomness ciphertext of the same plaintext."""
        return EncryptedNumber(
            self.public_key,
            self.public_key.rerandomize(self.ciphertext, rng),
        )

    def __repr__(self) -> str:
        return (
            f"EncryptedNumber(key_size={self.public_key.key_size}, "
            f"ciphertext=0x{self.ciphertext:x})"
        )


def generate_keypair(
    key_size: int, rng: random.Random | None = None, seed: int | None = None
) -> Tuple[PaillierPublicKey, PaillierPrivateKey]:
    """Generate a Paillier keypair with an ``key_size``-bit modulus.

    Args:
        key_size: modulus size in bits (the paper uses 2048).
        rng: randomness source; if omitted one is built from ``seed``.
        seed: seed for a fresh RNG when ``rng`` is omitted; a
            non-deterministic RNG is used if both are None.

    Raises:
        KeyGenerationError: if prime generation fails.
    """
    if rng is None:
        rng = random.Random(seed) if seed is not None else random.Random()
    try:
        p, q = keypair_primes(key_size, rng)
    except Exception as exc:
        raise KeyGenerationError(str(exc)) from exc
    public = PaillierPublicKey(n=p * q, key_size=key_size)
    private = PaillierPrivateKey(public_key=public, p=p, q=q)
    return public, private


def encrypt_many(
    public_key: PaillierPublicKey,
    plaintexts: Iterable[int],
    rng: random.Random | None = None,
) -> list[EncryptedNumber]:
    """Encrypt an iterable of residues, preserving order.

    Routed through the shared :class:`repro.crypto.engine.PaillierEngine`
    for the public key: with ``rng`` the blinding factors are derived
    from it exactly as the scalar loop would (bit-identical output);
    without it they come from the engine's offline pool.
    """
    from .engine import default_engine

    return default_engine(public_key).encrypt_many(plaintexts, rng=rng)
