"""Short-exponent fixed-base blinding (Damgård–Jurik–Nielsen).

Textbook Paillier blinds a ciphertext with ``r^n mod n^2`` for a fresh
unit ``r`` — a full-width exponentiation per ciphertext.  The DJN
variant production libraries use fixes a public ``h_s = (-y^2)^n mod
n^2`` and draws the factor as ``h_s^x`` for a short random ``x`` of
``ceil(|n|/2)`` bits.  A factor is still an ``n``-th residue, i.e. an
encryption of zero, so decryption is untouched; what changes is the
set the factors range over (see ``docs/SECURITY.md``, "Short-exponent
blinding").

Because the base is fixed per key, ``h_s^x`` needs no squarings: with
the table ``h_s^(d * 2^(w*i))`` for every digit ``d < 2^w`` and digit
position ``i``, a factor is the product of one entry per non-zero
base-``2^w`` digit of ``x``.  The public side multiplies mod ``n^2``;
the key holder evaluates the same function mod ``p^2`` and mod ``q^2``
(half-width multiplies) and Garner-recombines, which yields the very
same residue.

``y`` is derived from ``n`` alone, so the key, its serialization and
the wire handshake carry nothing new and every party rebuilds the same
``h_s``.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from typing import Iterator, Sequence

from ..errors import CryptoError
from .backend import BigintBackend
from .math_utils import invmod, powmod

#: Digit width of the fixed-base tables.  Counted multiplies per
#: factor are ``ceil(|x|/w) - 1`` and a table holds ``ceil(|x|/w) *
#: (2^w - 1)`` residues.  At w = 8 a digit is one byte of the
#: exponent, read with ``int.to_bytes`` rather than a shift and a mask
#: per digit.  Against w = 6, on the benchmark's 256/320-bit keys, that
#: cuts the key holder's time per factor to x0.71/x0.73 (measured,
#: docs/PERFORMANCE.md) for three times the table (255/398 KiB on the
#: public side) and build time.
BLINDING_DIGIT_BITS = 8

#: Byte budget per table.  A key too large for ``BLINDING_DIGIT_BITS``
#: under it gets the widest digit that fits (w = 5 at 1024 bits, w = 2
#: at 2048 bits on the public side).
BLINDING_TABLE_BYTES = 1 << 20

_BASE_DOMAIN = b"repro/paillier/short-exponent-blinding/y/v1:"


def base_candidates(n: int) -> Iterator[int]:
    """The public stream ``y`` is taken from: SHAKE-256 of ``n`` and a
    counter, reduced mod ``n`` (64 spare bits keep the reduction bias
    negligible).  Nothing but ``n`` goes in, so anyone can re-derive
    and audit it."""
    width = (n.bit_length() + 7) // 8
    seed = _BASE_DOMAIN + n.to_bytes(width, "big")
    for counter in itertools.count():
        digest = hashlib.shake_256(
            seed + counter.to_bytes(4, "big")
        ).digest(width + 8)
        yield int.from_bytes(digest, "big") % n


def blinding_base(n: int) -> int:
    """``y``: the first candidate that is a unit of ``Z_n``."""
    return next(y for y in base_candidates(n) if math.gcd(y, n) == 1)


class FixedBaseTable:
    """``base^(d * 2^(w*i)) mod modulus`` for every digit ``d < 2^w``
    and position ``i`` of an ``exponent_bits``-bit exponent.

    Entries are plain ``int``; :meth:`powers` lifts the modulus into
    the caller's backend, so one table serves engines on any backend.
    """

    __slots__ = ("modulus", "digit_bits", "rows")

    def __init__(self, base: int, modulus: int, exponent_bits: int):
        entry_bytes = (modulus.bit_length() + 7) // 8
        width = BLINDING_DIGIT_BITS
        while width > 1 and -(-exponent_bits // width) \
                * ((1 << width) - 1) * entry_bytes > BLINDING_TABLE_BYTES:
            width -= 1
        self.modulus = modulus
        self.digit_bits = width
        self.rows: list[list[int]] = []
        step = base % modulus
        for _ in range(-(-exponent_bits // width)):
            row = [1, step]
            entry = step
            for _ in range((1 << width) - 2):
                entry = entry * step % modulus
                row.append(entry)
            self.rows.append(row)
            step = entry * step % modulus       # step^(2^w)

    def powers(self, exponents: Sequence[int],
               backend: BigintBackend) -> list:
        """``base^x mod modulus`` per exponent, in the backend's
        native integer type: one multiply per non-zero digit.

        Raises:
            CryptoError: an exponent is negative or wider than the
                table (its high digits would otherwise be dropped).
        """
        modulus = backend.wrap(self.modulus)
        one = backend.wrap(1)
        width = self.digit_bits
        rows = self.rows
        out = []
        if width == 8:
            for x in exponents:
                try:
                    digits = x.to_bytes(len(rows), "little")
                except OverflowError as exc:
                    raise CryptoError(
                        f"blinding exponent out of range "
                        f"[0, 2^{8 * len(rows)})"
                    ) from exc
                acc = one
                for row, digit in zip(rows, digits):
                    if digit:
                        acc = acc * row[digit] % modulus
                out.append(acc)
            return out
        mask = (1 << width) - 1
        for x in exponents:
            acc = one
            for row in rows:
                digit = x & mask
                if digit:
                    acc = acc * row[digit] % modulus
                x >>= width
            if x:
                raise CryptoError(
                    f"blinding exponent out of range "
                    f"[0, 2^{width * len(rows)})"
                )
            out.append(acc)
        return out


class ShortExponentBlinding:
    """Blinding factors ``h_s^x mod n^2`` for one Paillier modulus.

    Built once per key object (see
    :attr:`repro.crypto.paillier.PaillierPublicKey.blinding` /
    :attr:`~repro.crypto.paillier.PaillierPrivateKey.blinding`) and
    shared by the scalar path and every engine over that key.  With
    the primes it evaluates mod ``p^2`` / ``q^2`` and recombines —
    only sound on the key holder's side — and returns the same
    residues as the public form.
    """

    __slots__ = ("exponent_bits", "h_s", "_table", "_crt")

    def __init__(self, n: int, p: int | None = None, q: int | None = None):
        self.exponent_bits = -(-n.bit_length() // 2)
        y = blinding_base(n)
        n_sq = n * n
        self.h_s = powmod(-(y * y) % n, n, n_sq)
        self._table = self._crt = None
        if p is None or q is None:
            self._table = FixedBaseTable(self.h_s, n_sq, self.exponent_bits)
        else:
            p_sq, q_sq = p * p, q * q
            self._crt = (
                FixedBaseTable(self.h_s, p_sq, self.exponent_bits),
                FixedBaseTable(self.h_s, q_sq, self.exponent_bits),
                q_sq, invmod(q_sq, p_sq),
            )

    def exponents(self, rng: random.Random, count: int) -> list[int]:
        """``count`` fresh short exponents, in draw order."""
        bits = self.exponent_bits
        return [rng.getrandbits(bits) for _ in range(count)]

    def factors(self, exponents: Sequence[int],
                backend: BigintBackend) -> list[int]:
        """``h_s^x mod n^2`` for each exponent."""
        if self._crt is None:
            return [int(v) for v in self._table.powers(exponents, backend)]
        table_p, table_q, q_sq, q_sq_inv = self._crt
        p_sq = table_p.modulus
        return [
            int(b + q_sq * ((a - b) * q_sq_inv % p_sq))
            for a, b in zip(table_p.powers(exponents, backend),
                            table_q.powers(exponents, backend))
        ]
