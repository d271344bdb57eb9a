"""Plaintext encodings for pushing neural-network values through Paillier.

Paillier operates on residues of Z_n.  Neural networks operate on signed
(and, before parameter scaling, floating-point) values.  Two encoders
bridge the gap:

* :class:`SignedEncoder` maps signed integers into Z_n with the usual
  half-range convention: non-negative values map to themselves, negative
  values to ``n + x``.  Homomorphic sums/products stay correct as long as
  the magnitude of every intermediate value stays below ``n / 2`` — the
  encoder exposes that headroom so callers can check it.

* :class:`FixedPointEncoder` composes the signed encoding with the
  paper's parameter scaling (Section IV-A): a value ``v`` is stored as
  ``round(v * 10^f)``.  Multiplying two scaled values multiplies the
  exponents, so the encoder tracks the *accumulated* exponent of a
  homomorphic expression and divides it out on decode.

* :class:`LanePacker` packs the same tensor position of B batch inputs
  into **one** Z_n plaintext as fixed-width lanes, so one modular
  exponentiation serves all B batch elements (the ciphertext
  amortization Popcorn builds batched Paillier inference on).  Each
  lane carries a signed value in offset form; guard bits keep
  homomorphic accumulation from ever carrying into the next lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import EncodingError
from .paillier import PaillierPublicKey

#: Default guard bits per lane: homomorphic accumulation may exceed the
#: advertised per-value magnitude by up to ``2^guard_bits`` before a
#: lane could carry into its neighbour.  The protocol path sizes lanes
#: from the headroom analysis's *peak* intermediate bound, so the guard
#: is pure safety margin there.
DEFAULT_GUARD_BITS = 2


@dataclass(frozen=True)
class SignedEncoder:
    """Half-range signed-integer encoding into Z_n.

    Values in ``[0, n/2)`` are positive; values in ``(n/2, n)`` decode to
    ``value - n``.  The midpoint itself is rejected as ambiguous.
    """

    public_key: PaillierPublicKey

    @property
    def max_magnitude(self) -> int:
        """Largest absolute value representable without wraparound."""
        return (self.public_key.n - 1) // 2

    def encode(self, value: int) -> int:
        """Encode a signed integer into a residue of Z_n.

        Raises:
            EncodingError: if ``abs(value)`` exceeds the headroom.
        """
        if not isinstance(value, int):
            raise EncodingError(
                f"SignedEncoder encodes ints, got {type(value).__name__}"
            )
        if abs(value) > self.max_magnitude:
            raise EncodingError(
                f"value {value} exceeds signed headroom "
                f"+/-{self.max_magnitude}"
            )
        return value % self.public_key.n

    def decode(self, residue: int) -> int:
        """Decode a residue of Z_n back to a signed integer."""
        n = self.public_key.n
        if not 0 <= residue < n:
            raise EncodingError(f"residue {residue} out of range [0, n)")
        if residue > n // 2:
            return residue - n
        return residue


@dataclass(frozen=True)
class FixedPointEncoder:
    """Signed fixed-point encoding with a base-10 scaling exponent.

    This realizes the paper's parameter scaling for the data path: a
    float ``v`` is encoded as the signed integer ``round(v * 10^f)``.
    The homomorphic linear layer multiplies encrypted inputs (exponent
    ``f_in``) by scaled integer weights (exponent ``f_w``), producing
    results at exponent ``f_in + f_w``; :meth:`decode` takes the
    accumulated exponent and divides it back out.

    Attributes:
        public_key: Paillier public key providing the modulus.
        exponent: decimal places ``f`` of this encoder (``F = 10^f``).
    """

    public_key: PaillierPublicKey
    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise EncodingError(
                f"exponent must be non-negative, got {self.exponent}"
            )

    @property
    def scale(self) -> int:
        """The scaling factor ``F = 10^f``."""
        return 10 ** self.exponent

    @property
    def signed(self) -> SignedEncoder:
        return SignedEncoder(self.public_key)

    def encode(self, value: float) -> int:
        """Encode a float into a residue of Z_n at this exponent."""
        scaled = round(float(value) * self.scale)
        return self.signed.encode(scaled)

    def decode(self, residue: int, accumulated_exponent: int | None = None
               ) -> float:
        """Decode a residue back to a float.

        Args:
            residue: decrypted residue of Z_n.
            accumulated_exponent: total decimal exponent of the value
                (defaults to this encoder's own exponent).
        """
        if accumulated_exponent is None:
            accumulated_exponent = self.exponent
        signed = self.signed.decode(residue)
        return signed / (10 ** accumulated_exponent)

    def headroom_exponent(self, max_abs_value: float) -> int:
        """How many further decimal digits fit before wraparound.

        Useful for validating that a chain of scaled multiplications
        cannot overflow the signed range for inputs bounded by
        ``max_abs_value``.
        """
        if max_abs_value <= 0:
            raise EncodingError("max_abs_value must be positive")
        budget = self.signed.max_magnitude / max_abs_value
        digits = 0
        while 10 ** (digits + 1) <= budget:
            digits += 1
        return digits


@dataclass(frozen=True)
class LanePacker:
    """Batch-axis lane packing of signed integers into one Z_n residue.

    Lane ``k`` of a packed plaintext occupies bits
    ``[k * lane_bits, (k+1) * lane_bits)`` and stores a signed value
    ``v`` in offset form ``u = v + offset`` with
    ``offset = 2^(lane_bits - 1)`` (the lane midpoint), so every lane's
    content is non-negative and base-``2^lane_bits`` digit extraction
    recovers it exactly.

    The lane width decomposes as::

        lane_bits = mag_bits + guard_bits + 1

    * ``mag_bits`` — the advertised per-value bound: any packed (or
      homomorphically computed) value with ``|v| < 2^mag_bits`` is
      representable.
    * ``guard_bits`` — slack for homomorphic accumulation: a lane only
      carries into its neighbour once ``|v| >= 2^(mag_bits +
      guard_bits)``, i.e. the true value exceeded the advertised bound
      ``2^guard_bits``-fold.
    * the final bit holds the offset (sign) headroom.

    Homomorphic ops act on all lanes at once.  Addition of two packed
    plaintexts adds lane-wise but doubles the offset; scalar
    multiplication by ``w`` scales the offset by ``w`` (and a negative
    ``w`` drives lanes "virtually negative" mod n).  Both are repaired
    by adding the packed constant :meth:`rebias_residue` — arithmetic
    mod n is exact, so intermediate out-of-range lane states are fine
    as long as the *final* residue has every lane back in
    ``[0, 2^lane_bits)`` before decoding.  Callers track the current
    per-lane offset (see ``PackedEncryptedTensor.lane_offset``).

    Capacity: ``lanes * lane_bits`` must fit strictly below the
    modulus, enforced as ``<= n.bit_length() - 1`` so a fully-occupied
    packed value is always ``< 2^(n_bits - 1) <= n``.
    """

    public_key: PaillierPublicKey
    lanes: int
    mag_bits: int
    guard_bits: int = DEFAULT_GUARD_BITS

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise EncodingError(f"lanes must be >= 1, got {self.lanes}")
        if self.mag_bits < 1:
            raise EncodingError(
                f"mag_bits must be >= 1, got {self.mag_bits}"
            )
        if self.guard_bits < 0:
            raise EncodingError(
                f"guard_bits must be >= 0, got {self.guard_bits}"
            )
        if self.lanes * self.lane_bits > self.capacity_bits:
            raise EncodingError(
                f"{self.lanes} lanes of {self.lane_bits} bits exceed "
                f"the {self.capacity_bits}-bit packing capacity of "
                f"this {self.public_key.key_size}-bit key"
            )

    @property
    def lane_bits(self) -> int:
        """Width of one lane in bits."""
        return self.mag_bits + self.guard_bits + 1

    @property
    def capacity_bits(self) -> int:
        """Packable bits: every packed residue stays below ``n``."""
        return self.public_key.n.bit_length() - 1

    @classmethod
    def capacity(cls, public_key: PaillierPublicKey, mag_bits: int,
                 guard_bits: int = DEFAULT_GUARD_BITS) -> int:
        """Max lanes of the given geometry that fit under this key."""
        lane_bits = mag_bits + guard_bits + 1
        return (public_key.n.bit_length() - 1) // lane_bits

    @property
    def offset(self) -> int:
        """The canonical per-lane offset (lane midpoint)."""
        return 1 << (self.lane_bits - 1)

    @property
    def max_magnitude(self) -> int:
        """Largest advertised |value| per lane (``2^mag_bits - 1``)."""
        return (1 << self.mag_bits) - 1

    @property
    def ones_mask(self) -> int:
        """The packed representation of 1-per-lane: multiply by a
        per-lane constant ``c`` to get the packed constant ``c`` in
        every lane."""
        mask = 0
        for lane in range(self.lanes):
            mask |= 1 << (lane * self.lane_bits)
        return mask

    def pack(self, values: Sequence[int]) -> int:
        """Pack up to ``lanes`` signed integers into one Z_n residue.

        Lane ``k`` holds ``values[k]``; missing trailing lanes pack 0.
        Every lane is stored at the canonical :attr:`offset`.

        Raises:
            EncodingError: too many values, or one exceeds the
                advertised magnitude.
        """
        values = list(values)
        if len(values) > self.lanes:
            raise EncodingError(
                f"{len(values)} values exceed the {self.lanes}-lane "
                "capacity"
            )
        offset = self.offset
        limit = self.max_magnitude
        packed = 0
        shift = 0
        width = self.lane_bits
        for value in values:
            value = int(value)
            if abs(value) > limit:
                raise EncodingError(
                    f"value {value} exceeds the advertised lane "
                    f"magnitude +/-{limit}"
                )
            packed |= (value + offset) << shift
            shift += width
        return packed

    def unpack(self, residue: int, count: int | None = None,
               lane_offset: int | None = None) -> list[int]:
        """Extract ``count`` signed lane values from a packed residue.

        Args:
            residue: packed Z_n residue (e.g. a decryption result).
            count: occupied lanes to decode (default: all lanes).
            lane_offset: the per-lane offset the residue currently
                carries (default: the canonical :attr:`offset`).

        Raises:
            EncodingError: the residue has bits above the top lane —
                the signature of a lane carry/overflow upstream.
        """
        if count is None:
            count = self.lanes
        if not 0 <= count <= self.lanes:
            raise EncodingError(
                f"count {count} out of range [0, {self.lanes}]"
            )
        if lane_offset is None:
            lane_offset = self.offset
        if residue < 0:
            raise EncodingError("packed residue must be non-negative")
        width = self.lane_bits
        if residue >> (self.lanes * width):
            raise EncodingError(
                "packed residue overflows the lane budget — a lane "
                "carried, or the value was not lane-packed"
            )
        mask = (1 << width) - 1
        out = []
        for lane in range(count):
            out.append(((residue >> (lane * width)) & mask)
                       - lane_offset)
        return out

    def unpack_exact(self, residue: int, count: int) -> list[int]:
        """Strict :meth:`unpack` of a residue with exactly ``count``
        occupied lanes at the canonical offset (a folded ciphertext's
        plaintext, see :meth:`repro.crypto.engine.PaillierEngine
        .fold_many`).

        :meth:`unpack` only notices a carry past the top lane.  Here
        the lanes above ``count`` must be empty as well (a carry out
        of the last occupied lane lands there), and every value must
        lie strictly inside ``±2^(mag_bits + guard_bits)`` — the range
        the guard bits certify; an empty lane content is
        ``-2^(mag_bits + guard_bits)``, outside it.

        Raises:
            EncodingError: on any of the above.
        """
        if not 1 <= count <= self.lanes:
            raise EncodingError(
                f"count {count} out of range [1, {self.lanes}]"
            )
        width = self.lane_bits
        if residue < 0 or residue >> (count * width):
            raise EncodingError(
                f"folded residue has bits above its {count} occupied "
                "lanes — a lane overflowed its certified range"
            )
        mask = (1 << width) - 1
        offset = self.offset
        out = []
        for lane in range(count):
            content = (residue >> (lane * width)) & mask
            if not content:
                raise EncodingError(
                    f"lane {lane} left the certified range "
                    f"±2^{self.mag_bits + self.guard_bits}"
                )
            out.append(content - offset)
        return out

    def rebias_residue(self, delta: int) -> int:
        """The Z_n residue that adds ``delta`` to **every** lane.

        Homomorphically adding this residue (one modular multiply by
        ``1 + n * residue``) shifts each lane's offset by ``delta``;
        negative deltas wrap mod n and the borrows cancel lane-wise as
        long as the final lane contents land back in range.
        """
        return (delta * self.ones_mask) % self.public_key.n
