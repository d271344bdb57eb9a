"""Encrypted tensors: Paillier homomorphisms lifted to whole arrays.

The protocol exchanges multi-dimensional tensors (Section II-A), so the
scalar homomorphic operations of :mod:`repro.crypto.paillier` are lifted
here to an :class:`EncryptedTensor` — a shape plus a flat tuple of
ciphertexts, with the accumulated fixed-point exponent threaded through so
the data provider knows how to rescale after decryption.

The linear primitives a neural network needs are provided directly:
element-wise addition and the affine map ``y = W x + b`` (Eq. (3) of
the paper), which fully-connected and (via im2col) convolution layers
reduce to.

:class:`PackedEncryptedTensor` is the lane-packed counterpart for
batched inference: one ciphertext per tensor *position*, carrying the
same position of B batch samples as fixed-width lanes
(:class:`repro.crypto.encoding.LanePacker`), so every homomorphic
operation — and every modular exponentiation underneath — serves all B
samples at once.  Both classes expose the same linear primitives; the
packed one keeps the invariant that its lanes always sit at the
packer's canonical offset (operations that disturb the offset rebias
before returning).

A linear stage's output tensor also carries the certified bit length
of its values (:attr:`EncryptedTensor.bound_bits`).  With it, the key
holder folds a run of cells into lanes mod ``p^2`` and decrypts the
run with one half-width exponentiation
(:meth:`~repro.crypto.engine.PaillierEngine.decrypt_lanes`); a full
lane-packed batch whose cells fit under ``p`` decrypts the same way.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import PaillierEngine
    from .sparse import SparseMatvecPlan

from ..errors import EncodingError, KeyMismatchError
from .encoding import LanePacker, SignedEncoder
from .paillier import (
    EncryptedNumber,
    PaillierPrivateKey,
    PaillierPublicKey,
)


def _flatten_int_array(values: np.ndarray) -> list[int]:
    """Flatten an integer ndarray to a list of Python ints (row-major)."""
    array = np.asarray(values)
    if array.dtype == object:
        # Object arrays hold arbitrary-precision Python ints (or other
        # integer-likes); coerce each cell explicitly.
        return [int(v) for v in array.reshape(-1).tolist()]
    if not np.issubdtype(array.dtype, np.integer):
        raise EncodingError(
            "EncryptedTensor operations need integer arrays; scale "
            "floats first (see repro.scaling)"
        )
    # .tolist() converts the whole buffer to Python ints in one C call.
    return array.reshape(-1).tolist()


class EncryptedTensor:
    """An encrypted multi-dimensional array under a single public key.

    Attributes:
        public_key: the Paillier key all elements are encrypted under.
        shape: logical tensor shape (row-major element order).
        exponent: accumulated base-10 fixed-point exponent of the
            plaintext values (decryption divides by ``10**exponent``).
        bound_bits: the certified bit length ``b`` of the values
            (``|v| < 2^b``), or None.  A linear stage's output carries
            its stage's (:func:`repro.scaling.headroom
            .output_bound_bits`); decryption then checks every value
            against it, and an engine holding the private key folds
            runs of cells in ``b + 1``-bit lanes.
    """

    __slots__ = ("public_key", "shape", "exponent", "bound_bits",
                 "_cells")

    def __init__(
        self,
        public_key: PaillierPublicKey,
        cells: Sequence[EncryptedNumber],
        shape: Tuple[int, ...],
        exponent: int = 0,
        bound_bits: int | None = None,
    ):
        size = 1
        for dim in shape:
            size *= dim
        if size != len(cells):
            raise EncodingError(
                f"shape {shape} implies {size} elements, got {len(cells)}"
            )
        if bound_bits is not None and bound_bits < 1:
            raise EncodingError(
                f"bound_bits must be >= 1, got {bound_bits}"
            )
        self.public_key = public_key
        self.shape = tuple(shape)
        self.exponent = exponent
        self.bound_bits = bound_bits
        self._cells = tuple(cells)

    # ------------------------------------------------------------------
    # Construction / deconstruction
    # ------------------------------------------------------------------

    @classmethod
    def encrypt(
        cls,
        values: np.ndarray,
        public_key: PaillierPublicKey,
        rng: random.Random | None = None,
        exponent: int = 0,
        engine: "PaillierEngine | None" = None,
    ) -> "EncryptedTensor":
        """Encrypt an integer ndarray element by element.

        Routed through the batched engine: with ``rng`` the output is
        bit-identical to the historical scalar loop; without it the
        blinding factors come from the engine's offline pool.

        Args:
            values: integer array (already scaled to fixed point).
            public_key: encryption key.
            rng: randomness source for probabilistic encryption; omit
                to draw blinding factors from the engine's pool.
            exponent: fixed-point exponent the integers carry.
            engine: batched crypto engine; defaults to the shared
                sequential engine for ``public_key``.
        """
        from .engine import default_engine

        values = np.asarray(values)
        if engine is None:
            engine = default_engine(public_key)
        encoder = SignedEncoder(public_key)
        cells = engine.encrypt_many(
            [encoder.encode(v) for v in _flatten_int_array(values)],
            rng=rng,
        )
        return cls(public_key, cells, values.shape, exponent)

    def decrypt(
        self,
        private_key: PaillierPrivateKey,
        engine: "PaillierEngine | None" = None,
    ) -> np.ndarray:
        """Decrypt to a signed-integer ndarray (dtype=object for headroom).

        Pass an ``engine`` holding the private key to decrypt the
        cells in one batched pass: runs of cells folded in lanes mod
        ``p^2`` when the tensor carries :attr:`bound_bits` and a lane
        fits under ``p``, CRT decryption per cell otherwise.

        Raises:
            EncodingError: a value outside ``±2^bound_bits``.
        """
        bits = self.bound_bits
        if engine is not None and bits is not None \
                and engine.run_capacity(bits + 1):
            lane = LanePacker(self.public_key, lanes=1, mag_bits=bits,
                              guard_bits=0)
            flat = engine.decrypt_lanes(
                [cell.ciphertext for cell in self._cells], lane,
                biased=False)
            return np.array(flat, dtype=object).reshape(self.shape)
        encoder = SignedEncoder(self.public_key)
        if engine is not None:
            residues = engine.decrypt_many(self._cells)
        else:
            residues = [private_key.decrypt(cell) for cell in self._cells]
        flat = [encoder.decode(residue) for residue in residues]
        if bits is not None:
            for value in flat:
                if abs(value) >= 1 << bits:
                    raise EncodingError(
                        f"value {value} left the certified range "
                        f"±2^{bits}"
                    )
        return np.array(flat, dtype=object).reshape(self.shape)

    def decrypt_float(
        self,
        private_key: PaillierPrivateKey,
        engine: "PaillierEngine | None" = None,
    ) -> np.ndarray:
        """Decrypt and rescale by the accumulated exponent to float64."""
        ints = self.decrypt(private_key, engine=engine)
        scale = 10 ** self.exponent
        return np.array(
            [int(v) / scale for v in ints.reshape(-1)], dtype=np.float64
        ).reshape(self.shape)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._cells)

    def cells(self) -> Tuple[EncryptedNumber, ...]:
        """The flat row-major ciphertext cells (read-only view)."""
        return self._cells

    def reshape(self, shape: Tuple[int, ...]) -> "EncryptedTensor":
        """Reinterpret the flat cells under a new shape (no crypto work)."""
        return EncryptedTensor(self.public_key, self._cells, shape,
                               self.exponent, self.bound_bits)

    def flatten(self) -> "EncryptedTensor":
        return self.reshape((self.size,))

    # ------------------------------------------------------------------
    # Homomorphic arithmetic
    # ------------------------------------------------------------------

    def affine(
        self,
        weights: np.ndarray,
        bias: "np.ndarray | EncryptedTensor",
        rng: random.Random | None = None,
        weight_exponent: int = 0,
        engine: "PaillierEngine | None" = None,
        plan: "SparseMatvecPlan | None" = None,
    ) -> "EncryptedTensor":
        """Compute ``y = W x + b`` homomorphically (Eq. (3) of the paper).

        Args:
            weights: integer matrix of shape (out_dim, in_dim).
            bias: either an integer vector of shape (out_dim,) — scaled
                to the *output* exponent (input + weight exponent) and
                encrypted on the fly — or an already-encrypted bias
                tensor of the same shape (the model provider's bias is
                static per stage, so callers cache its encryption).
            rng: randomness for encrypting a plaintext bias.
            weight_exponent: fixed-point exponent the weights carry; the
                output tensor's exponent is input + weight exponent.
            engine: batched crypto engine; when given, the matvec runs
                through its compiled-schedule kernel instead of the
                scalar loop.  Both paths produce identical ciphertexts.
            plan: the layer's :class:`~repro.crypto.sparse
                .SparseMatvecPlan` (compiled once at session setup);
                without one the engine compiles a plan for this call.
                Implies the engine path (the shared default engine is
                used when ``engine`` is omitted).

        Returns:
            encrypted vector of shape (out_dim,).
        """
        if plan is not None and engine is None:
            from .engine import default_engine

            engine = default_engine(self.public_key)
        x = self.flatten()
        weights = np.asarray(weights)
        if weights.ndim != 2 or weights.shape[1] != x.size:
            raise EncodingError(
                f"weights shape {weights.shape} incompatible with input "
                f"size {x.size}"
            )
        out_dim = weights.shape[0]
        out_exponent = self.exponent + weight_exponent
        if isinstance(bias, EncryptedTensor):
            if bias.shape != (out_dim,):
                raise EncodingError(
                    f"encrypted bias shape {bias.shape} != ({out_dim},)"
                )
            if bias.public_key.n != self.public_key.n:
                raise KeyMismatchError(
                    "bias encrypted under a different key"
                )
            bias_cells = list(bias.cells())
        else:
            bias = np.asarray(bias)
            if bias.shape != (out_dim,):
                raise EncodingError(
                    f"bias shape {bias.shape} != ({out_dim},)"
                )
            encoder = SignedEncoder(self.public_key)
            if engine is not None:
                bias_cells = engine.encrypt_many(
                    [encoder.encode(int(b)) for b in bias], rng=rng,
                )
            else:
                if rng is None:
                    raise EncodingError(
                        "affine needs an rng or an engine to encrypt a "
                        "plaintext bias"
                    )
                bias_cells = [
                    self.public_key.encrypt(encoder.encode(int(b)), rng)
                    for b in bias
                ]
        cells = x.cells()
        if engine is not None:
            raw_cells = [c.ciphertext for c in cells]
            raw_bias = [b.ciphertext for b in bias_cells]
            if plan is not None:
                raw = engine.fc_matvec(raw_cells, weights, raw_bias,
                                       plan=plan)
            else:
                raw = engine.matvec(raw_cells, weights, raw_bias)
            out_cells = [EncryptedNumber(self.public_key, c) for c in raw]
            return EncryptedTensor(
                self.public_key, out_cells, (out_dim,), out_exponent
            )
        out_cells: list[EncryptedNumber] = []
        for j in range(out_dim):
            acc = bias_cells[j]
            row = weights[j]
            for i in range(x.size):
                w = int(row[i])
                if w == 0:
                    continue
                acc = acc + cells[i] * w
            out_cells.append(acc)
        return EncryptedTensor(
            self.public_key, out_cells, (out_dim,), out_exponent
        )


    def __repr__(self) -> str:
        return (
            f"EncryptedTensor(shape={self.shape}, exponent={self.exponent}, "
            f"bound_bits={self.bound_bits}, "
            f"key_size={self.public_key.key_size})"
        )


class PackedEncryptedTensor:
    """A batch of encrypted tensors, lane-packed one position per cell.

    Cell ``i`` encrypts the lane-packed batch-axis slice of flat tensor
    position ``i``: lane ``k`` of cell ``i`` holds sample ``k``'s value
    at position ``i``.  All homomorphic operations therefore touch
    every sample with a single modular exponentiation per position —
    the per-element cost is divided by the batch size.

    Invariant: the lanes of every cell sit at the packer's canonical
    offset.  Operations whose raw ciphertext algebra disturbs the
    offset (addition doubles it, plaintext multiplication scales it)
    rebias before returning — one extra modular multiply per cell.

    Attributes:
        public_key: the Paillier key all cells are encrypted under.
        packer: lane geometry (lanes, magnitude, guard bits).
        batch: occupied lanes (the batch size; may be < packer.lanes).
        shape: logical per-sample tensor shape (row-major cells).
        exponent: accumulated base-10 fixed-point exponent.
    """

    __slots__ = ("public_key", "packer", "batch", "shape", "exponent",
                 "_cells")

    def __init__(
        self,
        public_key: PaillierPublicKey,
        cells: Sequence[EncryptedNumber],
        shape: Tuple[int, ...],
        packer: LanePacker,
        batch: int,
        exponent: int = 0,
    ):
        size = 1
        for dim in shape:
            size *= dim
        if size != len(cells):
            raise EncodingError(
                f"shape {shape} implies {size} cells, got {len(cells)}"
            )
        if not 1 <= batch <= packer.lanes:
            raise EncodingError(
                f"batch {batch} out of range [1, {packer.lanes}]"
            )
        if packer.public_key.n != public_key.n:
            raise KeyMismatchError(
                "packer was built for a different public key"
            )
        self.public_key = public_key
        self.packer = packer
        self.batch = batch
        self.shape = tuple(shape)
        self.exponent = exponent
        self._cells = tuple(cells)

    # ------------------------------------------------------------------
    # Construction / deconstruction
    # ------------------------------------------------------------------

    @classmethod
    def encrypt_batch(
        cls,
        values: np.ndarray,
        packer: LanePacker,
        rng: random.Random | None = None,
        exponent: int = 0,
        engine: "PaillierEngine | None" = None,
    ) -> "PackedEncryptedTensor":
        """Encrypt a batch of integer tensors, one cell per position.

        Args:
            values: integer array of shape ``(batch, *sample_shape)``
                (already scaled to fixed point).
            packer: lane geometry; ``batch`` must fit its lane count.
            rng: randomness source (bit-identical to the scalar
                reference); omit to use the engine's blinding pool.
            exponent: fixed-point exponent the integers carry.
            engine: batched crypto engine; defaults to the shared
                sequential engine for the packer's key.
        """
        from .engine import default_engine

        values = np.asarray(values)
        if values.ndim < 1 or values.shape[0] < 1:
            raise EncodingError(
                "encrypt_batch needs a leading batch axis"
            )
        batch = values.shape[0]
        sample_shape = values.shape[1:]
        if engine is None:
            engine = default_engine(packer.public_key)
        # (batch, positions) -> per-position lane vectors.
        flat = np.asarray(
            [_flatten_int_array(sample) for sample in values],
            dtype=object,
        )
        lanes_per_position = flat.T.tolist()
        cells = engine.encrypt_many_packed(lanes_per_position, packer,
                                           rng=rng)
        return cls(packer.public_key, cells, sample_shape, packer,
                   batch, exponent)

    def decrypt(
        self,
        private_key: PaillierPrivateKey,
        engine: "PaillierEngine | None" = None,
    ) -> np.ndarray:
        """Decrypt to shape ``(batch, *shape)`` (dtype=object ints).

        With an ``engine`` holding the private key, a full batch whose
        cells fit under ``p`` decrypts a run of cells per
        exponentiation (:meth:`~repro.crypto.engine.PaillierEngine
        .decrypt_lanes`), anything else one CRT decryption per cell.

        Raises:
            EncodingError: a lane left its certified range.
        """
        packer = self.packer
        if engine is not None and self.batch == packer.lanes \
                and engine.run_capacity(packer.lanes * packer.lane_bits):
            flat = engine.decrypt_lanes(
                [cell.ciphertext for cell in self._cells], packer,
                biased=True)
            lanes = np.array(flat, dtype=object).reshape(-1, self.batch)
        elif engine is not None:
            lanes = engine.decrypt_many_packed(
                self._cells, self.packer, count=self.batch
            )
        else:
            lanes = [
                self.packer.unpack(private_key.decrypt(cell),
                                   count=self.batch)
                for cell in self._cells
            ]
        # lanes is (positions, batch); transpose to batch-major.
        per_sample = np.array(lanes, dtype=object).T
        return per_sample.reshape((self.batch,) + self.shape)

    def decrypt_float(
        self,
        private_key: PaillierPrivateKey,
        engine: "PaillierEngine | None" = None,
    ) -> np.ndarray:
        """Decrypt and rescale by the accumulated exponent to float64."""
        ints = self.decrypt(private_key, engine=engine)
        scale = 10 ** self.exponent
        return np.array(
            [int(v) / scale for v in ints.reshape(-1)], dtype=np.float64
        ).reshape((self.batch,) + self.shape)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Cells (per-sample positions), not total packed values."""
        return len(self._cells)

    def cells(self) -> Tuple[EncryptedNumber, ...]:
        """The flat row-major packed cells (read-only view)."""
        return self._cells

    def _like(self, cells: Sequence[EncryptedNumber],
              shape: Tuple[int, ...]) -> "PackedEncryptedTensor":
        return PackedEncryptedTensor(
            self.public_key, cells, shape, self.packer, self.batch,
            self.exponent,
        )

    def reshape(self, shape: Tuple[int, ...]) -> "PackedEncryptedTensor":
        """Reinterpret the cells under a new per-sample shape."""
        return self._like(self._cells, shape)

    def flatten(self) -> "PackedEncryptedTensor":
        return self.reshape((self.size,))

    # ------------------------------------------------------------------
    # Homomorphic arithmetic
    # ------------------------------------------------------------------

    def affine(
        self,
        weights: np.ndarray,
        bias: "np.ndarray | PackedEncryptedTensor",
        rng: random.Random | None = None,
        weight_exponent: int = 0,
        engine: "PaillierEngine | None" = None,
        plan: "SparseMatvecPlan | None" = None,
    ) -> "PackedEncryptedTensor":
        """Packed ``y = W x + b``: one matvec serves the whole batch.

        Args:
            weights: integer matrix of shape (out_dim, in_dim).
            bias: either an integer vector of shape (out_dim,) — scaled
                to the *output* exponent, broadcast across lanes and
                encrypted on the fly — or an already-packed encrypted
                bias of per-sample shape ``(out_dim,)``.
            rng: randomness for encrypting a plaintext bias.
            weight_exponent: fixed-point exponent the weights carry.
            engine: batched crypto engine; defaults to the shared
                sequential engine for this key.
            plan: the layer's prebuilt sparse plan — the packed
                matvec runs its compiled schedules and rebiases from
                its row weight sums (compiled for this call without
                one).
        """
        from .engine import default_engine

        if engine is None:
            engine = default_engine(self.public_key)
        x = self.flatten()
        weights = np.asarray(weights)
        if weights.ndim != 2 or weights.shape[1] != x.size:
            raise EncodingError(
                f"weights shape {weights.shape} incompatible with input "
                f"size {x.size}"
            )
        out_dim = weights.shape[0]
        out_exponent = self.exponent + weight_exponent
        if isinstance(bias, PackedEncryptedTensor):
            if bias.shape != (out_dim,):
                raise EncodingError(
                    f"packed bias shape {bias.shape} != ({out_dim},)"
                )
            if bias.packer != self.packer or bias.batch != self.batch:
                raise EncodingError(
                    "bias lane geometry differs from the input's"
                )
            bias_cells = list(bias.cells())
        else:
            bias = np.asarray(bias)
            if bias.shape != (out_dim,):
                raise EncodingError(
                    f"bias shape {bias.shape} != ({out_dim},)"
                )
            lanes = [[int(b)] * self.batch for b in bias]
            bias_cells = engine.encrypt_many_packed(lanes, self.packer,
                                                    rng=rng)
        raw = engine.fc_matvec_packed(
            [c.ciphertext for c in x.cells()],
            weights,
            [b.ciphertext for b in bias_cells],
            self.packer,
            plan=plan,
        )
        out_cells = [EncryptedNumber(self.public_key, c) for c in raw]
        return PackedEncryptedTensor(
            self.public_key, out_cells, (out_dim,), self.packer,
            self.batch, out_exponent,
        )

    def __repr__(self) -> str:
        return (
            f"PackedEncryptedTensor(shape={self.shape}, "
            f"batch={self.batch}, lanes={self.packer.lanes}, "
            f"exponent={self.exponent}, "
            f"key_size={self.public_key.key_size})"
        )
