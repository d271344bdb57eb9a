"""Encrypted tensors: Paillier homomorphisms lifted to whole arrays.

The protocol exchanges multi-dimensional tensors (Section II-A), so the
scalar homomorphic operations of :mod:`repro.crypto.paillier` are lifted
here to an :class:`EncryptedTensor` — a shape plus a flat tuple of
ciphertexts, with the accumulated fixed-point exponent threaded through so
the data provider knows how to rescale after decryption.

The linear primitives a neural network needs are provided directly:
element-wise addition, element-wise plaintext multiplication, and the
affine map ``y = W x + b`` (Eq. (3) of the paper), which fully-connected
and (via im2col) convolution layers reduce to.

:class:`PackedEncryptedTensor` is the lane-packed counterpart for
batched inference: one ciphertext per tensor *position*, carrying the
same position of B batch samples as fixed-width lanes
(:class:`repro.crypto.encoding.LanePacker`), so every homomorphic
operation — and every modular exponentiation underneath — serves all B
samples at once.  Both classes expose the same linear primitives; the
packed one keeps the invariant that its lanes always sit at the
packer's canonical offset (operations that disturb the offset rebias
before returning).

:class:`FoldedTensor` runs the lanes along the feature axis instead:
what a linear stage hands the data provider, k consecutive values per
ciphertext, so decrypting N values costs ceil(N/k) CRT decryptions.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
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
    """

    __slots__ = ("public_key", "shape", "exponent", "_cells")

    def __init__(
        self,
        public_key: PaillierPublicKey,
        cells: Sequence[EncryptedNumber],
        shape: Tuple[int, ...],
        exponent: int = 0,
    ):
        size = 1
        for dim in shape:
            size *= dim
        if size != len(cells):
            raise EncodingError(
                f"shape {shape} implies {size} elements, got {len(cells)}"
            )
        self.public_key = public_key
        self.shape = tuple(shape)
        self.exponent = exponent
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

        Pass an ``engine`` holding the private key to decrypt in
        process-pool chunks."""
        encoder = SignedEncoder(self.public_key)
        if engine is not None:
            residues = engine.decrypt_many(self._cells)
        else:
            residues = [private_key.decrypt(cell) for cell in self._cells]
        flat = [encoder.decode(residue) for residue in residues]
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
                               self.exponent)

    def flatten(self) -> "EncryptedTensor":
        return self.reshape((self.size,))

    def gather(self, indices: Sequence[int]) -> "EncryptedTensor":
        """Select flat cells by index, e.g. a conv receptive field."""
        cells = [self._cells[i] for i in indices]
        return EncryptedTensor(
            self.public_key, cells, (len(cells),), self.exponent
        )

    @classmethod
    def concatenate(
        cls, parts: Sequence["EncryptedTensor"]
    ) -> "EncryptedTensor":
        """Concatenate flat tensors produced by partitioned threads."""
        if not parts:
            raise EncodingError("cannot concatenate zero tensors")
        key = parts[0].public_key
        exponent = parts[0].exponent
        cells: list[EncryptedNumber] = []
        for part in parts:
            if part.public_key.n != key.n:
                raise KeyMismatchError(
                    "cannot concatenate tensors under different keys"
                )
            if part.exponent != exponent:
                raise EncodingError(
                    "cannot concatenate tensors with different exponents: "
                    f"{part.exponent} vs {exponent}"
                )
            cells.extend(part.cells())
        return cls(key, cells, (len(cells),), exponent)

    # ------------------------------------------------------------------
    # Homomorphic arithmetic
    # ------------------------------------------------------------------

    def _check_compatible(self, other: "EncryptedTensor") -> None:
        if other.public_key.n != self.public_key.n:
            raise KeyMismatchError(
                "operands are encrypted under different keys"
            )
        if other.shape != self.shape:
            raise EncodingError(
                f"shape mismatch: {self.shape} vs {other.shape}"
            )
        if other.exponent != self.exponent:
            raise EncodingError(
                "fixed-point exponents differ: "
                f"{self.exponent} vs {other.exponent}"
            )

    def add(self, other: "EncryptedTensor") -> "EncryptedTensor":
        """Element-wise homomorphic addition of two encrypted tensors."""
        self._check_compatible(other)
        cells = [a + b for a, b in zip(self._cells, other.cells())]
        return EncryptedTensor(self.public_key, cells, self.shape,
                               self.exponent)

    def add_plain(
        self, values: np.ndarray, rng: random.Random, exponent: int = 0
    ) -> "EncryptedTensor":
        """Add a plaintext integer array (encrypted on the fly)."""
        plain = EncryptedTensor.encrypt(
            np.asarray(values), self.public_key, rng, exponent
        )
        return self.add(plain)

    def mul_plain(self, weights: np.ndarray) -> "EncryptedTensor":
        """Element-wise homomorphic multiplication by integer weights.

        The result's exponent is the sum of both operands' exponents
        when the weights carry one; callers pass scaled-integer weights
        and bump the exponent via :meth:`with_exponent`.
        """
        flat_w = _flatten_int_array(np.asarray(weights))
        if len(flat_w) != self.size:
            raise EncodingError(
                f"weight count {len(flat_w)} != tensor size {self.size}"
            )
        cells = [c * w for c, w in zip(self._cells, flat_w)]
        return EncryptedTensor(self.public_key, cells, self.shape,
                               self.exponent)

    def rerandomized(self, rng: random.Random) -> "EncryptedTensor":
        """Refresh every cell's randomness (same plaintexts)."""
        cells = [cell.rerandomized(rng) for cell in self._cells]
        return EncryptedTensor(self.public_key, cells, self.shape,
                               self.exponent)

    def with_exponent(self, exponent: int) -> "EncryptedTensor":
        """Return the same ciphertexts tagged with a new exponent."""
        return EncryptedTensor(self.public_key, self._cells, self.shape,
                               exponent)

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
                through its per-ciphertext power caches (and process
                pool, if configured) instead of the scalar loop.  Both
                paths produce identical ciphertexts.
            plan: optional per-layer sparse plan for a pruned/clustered
                weight matrix — routes through the engine's compressed
                ``fc_matvec`` (zero-skip, cluster dedup, cross-call
                power cache).  Implies the engine path (the shared
                default engine is used when ``engine`` is omitted).

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
        """Decrypt to shape ``(batch, *shape)`` (dtype=object ints)."""
        if engine is not None:
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
              shape: Tuple[int, ...],
              exponent: int | None = None) -> "PackedEncryptedTensor":
        return PackedEncryptedTensor(
            self.public_key, cells, shape, self.packer, self.batch,
            self.exponent if exponent is None else exponent,
        )

    def reshape(self, shape: Tuple[int, ...]) -> "PackedEncryptedTensor":
        """Reinterpret the cells under a new per-sample shape."""
        return self._like(self._cells, shape)

    def flatten(self) -> "PackedEncryptedTensor":
        return self.reshape((self.size,))

    def gather(self, indices: Sequence[int]) -> "PackedEncryptedTensor":
        """Select flat cells by index, e.g. a conv receptive field."""
        cells = [self._cells[i] for i in indices]
        return self._like(cells, (len(cells),))

    @classmethod
    def concatenate(
        cls, parts: Sequence["PackedEncryptedTensor"]
    ) -> "PackedEncryptedTensor":
        """Concatenate flat packed tensors from partitioned threads."""
        if not parts:
            raise EncodingError("cannot concatenate zero tensors")
        first = parts[0]
        cells: list[EncryptedNumber] = []
        for part in parts:
            if part.public_key.n != first.public_key.n:
                raise KeyMismatchError(
                    "cannot concatenate tensors under different keys"
                )
            if part.exponent != first.exponent:
                raise EncodingError(
                    "cannot concatenate tensors with different "
                    f"exponents: {part.exponent} vs {first.exponent}"
                )
            if part.packer != first.packer or part.batch != first.batch:
                raise EncodingError(
                    "cannot concatenate tensors with different lane "
                    "geometry"
                )
            cells.extend(part.cells())
        return first._like(cells, (len(cells),))

    def with_exponent(self, exponent: int) -> "PackedEncryptedTensor":
        """Return the same ciphertexts tagged with a new exponent."""
        return self._like(self._cells, self.shape, exponent)

    def rerandomized(self, rng: random.Random) -> "PackedEncryptedTensor":
        """Refresh every cell's randomness (same plaintexts)."""
        cells = [cell.rerandomized(rng) for cell in self._cells]
        return self._like(cells, self.shape)

    # ------------------------------------------------------------------
    # Homomorphic arithmetic
    # ------------------------------------------------------------------

    def _add_plain_residue(self, cells: Sequence[EncryptedNumber],
                           residues: Sequence[int]
                           ) -> list[EncryptedNumber]:
        """``E(m) * (1 + n*r) = E(m + r)`` per cell — the rebias step."""
        n = self.public_key.n
        n_sq = self.public_key.n_squared
        return [
            EncryptedNumber(
                self.public_key,
                c.ciphertext * (1 + n * (r % n)) % n_sq,
            )
            for c, r in zip(cells, residues)
        ]

    def add(self, other: "PackedEncryptedTensor"
            ) -> "PackedEncryptedTensor":
        """Element-wise homomorphic addition across all lanes at once."""
        if other.public_key.n != self.public_key.n:
            raise KeyMismatchError(
                "operands are encrypted under different keys"
            )
        if other.shape != self.shape:
            raise EncodingError(
                f"shape mismatch: {self.shape} vs {other.shape}"
            )
        if other.exponent != self.exponent:
            raise EncodingError(
                "fixed-point exponents differ: "
                f"{self.exponent} vs {other.exponent}"
            )
        if other.packer != self.packer or other.batch != self.batch:
            raise EncodingError("lane geometry differs between operands")
        summed = [a + b for a, b in zip(self._cells, other.cells())]
        # Lane contents now carry 2x the canonical offset; subtract one.
        rebias = self.packer.rebias_residue(-self.packer.offset)
        cells = self._add_plain_residue(summed, [rebias] * len(summed))
        return self._like(cells, self.shape)

    def mul_plain(self, weights: np.ndarray) -> "PackedEncryptedTensor":
        """Element-wise multiplication by integer weights, all lanes."""
        flat_w = _flatten_int_array(np.asarray(weights))
        if len(flat_w) != self.size:
            raise EncodingError(
                f"weight count {len(flat_w)} != tensor size {self.size}"
            )
        scaled = [c * w for c, w in zip(self._cells, flat_w)]
        # Lane k now holds w*v + w*offset; bring it back to v' + offset.
        offset = self.packer.offset
        rebias = [self.packer.rebias_residue(offset - w * offset)
                  for w in flat_w]
        cells = self._add_plain_residue(scaled, rebias)
        return self._like(cells, self.shape)

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
            plan: optional per-layer sparse plan — the packed matvec
                then runs through the compressed engine path and
                rebiases from the plan's row weight sums.
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


def fold_counts(length: int, lanes: int) -> list[int]:
    """Occupied lanes per cell when ``length`` values are folded
    ``lanes`` to a ciphertext: full cells, then a short last one."""
    full, rest = divmod(length, lanes)
    return [lanes] * full + ([rest] if rest else [])


class FoldedTensor:
    """A flat encrypted vector carrying several values per ciphertext.

    What a linear stage hands the data provider: the model provider
    folds each run of ``k = packer.lanes`` consecutive output
    ciphertexts into one (:meth:`fold`,
    :meth:`~repro.crypto.engine.PaillierEngine.fold_many`), so cell
    ``j`` carries the values at positions ``j*k .. j*k + counts[j] -
    1`` as lanes at the packer's canonical offset and the key holder
    pays one CRT decryption per cell instead of one per value.  The
    decrypted values, their order and the logical shape ``(N,)`` are
    exactly those of the unfolded :class:`EncryptedTensor`.

    The read side of the :class:`EncryptedTensor` interface —
    :meth:`decrypt`, :meth:`decrypt_float`, :attr:`size` (logical
    values), :meth:`cells` (the folded ciphertexts), :meth:`flatten`,
    :meth:`gather`, :meth:`concatenate` — is all a folded tensor
    offers: its next stop is decryption.  :meth:`gather` keeps the
    covering cells and records which lanes it selected, so a
    partitioned decryption decrypts each cell it touches once.

    Attributes:
        public_key: the Paillier key all cells are encrypted under.
        packer: lane geometry (``packer.lanes`` values per cell).
        exponent: accumulated base-10 fixed-point exponent.
        counts: occupied lanes of each cell, in cell order.
    """

    __slots__ = ("public_key", "packer", "exponent", "counts", "_cells",
                 "_select", "_size")

    def __init__(
        self,
        public_key: PaillierPublicKey,
        cells: Sequence[EncryptedNumber],
        counts: Sequence[int],
        packer: LanePacker,
        exponent: int = 0,
        select: Sequence[int] | None = None,
    ):
        if packer.public_key.n != public_key.n:
            raise KeyMismatchError(
                "packer was built for a different public key"
            )
        counts = tuple(int(c) for c in counts)
        if len(counts) != len(cells):
            raise EncodingError(
                f"{len(counts)} lane counts for {len(cells)} cells"
            )
        if any(not 1 <= c <= packer.lanes for c in counts):
            raise EncodingError(
                f"lane counts must lie in [1, {packer.lanes}]"
            )
        lanes = sum(counts)
        if select is not None:
            select = tuple(select)
            if any(not 0 <= f < lanes for f in select):
                raise EncodingError("lane selection out of range")
        self.public_key = public_key
        self.packer = packer
        self.exponent = exponent
        self.counts = counts
        self._cells = tuple(cells)
        self._select = select
        self._size = lanes if select is None else len(select)

    @classmethod
    def fold(
        cls,
        tensor: EncryptedTensor,
        packer: LanePacker,
        engine: "PaillierEngine | None" = None,
    ) -> "FoldedTensor":
        """Fold a flat scalar tensor ``packer.lanes`` values per cell
        (public-key operations only; no randomness drawn)."""
        from .engine import default_engine

        if tensor.public_key.n != packer.public_key.n:
            raise KeyMismatchError(
                "tensor and packer are under different keys"
            )
        if engine is None:
            engine = default_engine(packer.public_key)
        raw = engine.fold_many(
            [cell.ciphertext for cell in tensor.cells()], packer
        )
        key = packer.public_key
        return cls(key, [EncryptedNumber(key, c) for c in raw],
                   fold_counts(tensor.size, packer.lanes), packer,
                   tensor.exponent)

    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Logical values (not ciphertexts — see :meth:`cells`)."""
        return self._size

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self._size,)

    @property
    def contiguous(self) -> bool:
        """Whether the cells hold positions ``0 .. N-1`` in order with
        only the last cell short — the layout :meth:`fold` produces
        and the wire format carries."""
        return (self._select is None
                and all(c == self.packer.lanes for c in self.counts[:-1]))

    def cells(self) -> Tuple[EncryptedNumber, ...]:
        """The folded ciphertexts (read-only view)."""
        return self._cells

    def flatten(self) -> "FoldedTensor":
        return self

    def _lanes(self) -> Sequence[int]:
        """Flat lane index (over all cells' occupied lanes, in cell
        order) of each logical value."""
        if self._select is None:
            return range(self._size)
        return self._select

    def decrypt(
        self,
        private_key: PaillierPrivateKey,
        engine: "PaillierEngine | None" = None,
    ) -> np.ndarray:
        """Decrypt to a signed-integer ndarray of shape ``(N,)``.

        Raises:
            EncodingError: a lane left its certified range
                (:meth:`LanePacker.unpack_exact`).
        """
        if engine is not None:
            flat = engine.decrypt_many_folded(self._cells, self.packer,
                                              self.counts)
        else:
            flat = []
            for cell, count in zip(self._cells, self.counts):
                flat.extend(self.packer.unpack_exact(
                    private_key.decrypt(cell), count))
        if self._select is not None:
            flat = [flat[f] for f in self._select]
        return np.array(flat, dtype=object).reshape(self.shape)

    def decrypt_float(
        self,
        private_key: PaillierPrivateKey,
        engine: "PaillierEngine | None" = None,
    ) -> np.ndarray:
        """Decrypt and rescale by the accumulated exponent to float64."""
        ints = self.decrypt(private_key, engine=engine)
        scale = 10 ** self.exponent
        return np.array([int(v) / scale for v in ints],
                        dtype=np.float64)

    def gather(self, indices: Sequence[int]) -> "FoldedTensor":
        """Select logical values by index.  The result holds only the
        cells those values live in (each once, in cell order)."""
        lanes = self._lanes()
        picked = [lanes[i] for i in indices]
        starts = list(accumulate(self.counts, initial=0))[:-1]
        owner = [bisect_right(starts, f) - 1 for f in picked]
        needed = sorted(set(owner))
        new_start = dict(zip(
            needed,
            accumulate((self.counts[c] for c in needed), initial=0),
        ))
        select = tuple(new_start[c] + f - starts[c]
                       for c, f in zip(owner, picked))
        counts = [self.counts[c] for c in needed]
        if select == tuple(range(sum(counts))):
            select = None
        return FoldedTensor(
            self.public_key, [self._cells[c] for c in needed], counts,
            self.packer, self.exponent, select,
        )

    @classmethod
    def concatenate(
        cls, parts: Sequence["FoldedTensor"]
    ) -> "FoldedTensor":
        """Concatenate folded tensors (values in part order)."""
        if not parts:
            raise EncodingError("cannot concatenate zero tensors")
        first = parts[0]
        cells: list[EncryptedNumber] = []
        counts: list[int] = []
        select: list[int] = []
        base = 0
        for part in parts:
            if part.public_key.n != first.public_key.n:
                raise KeyMismatchError(
                    "cannot concatenate tensors under different keys"
                )
            if part.exponent != first.exponent:
                raise EncodingError(
                    "cannot concatenate tensors with different "
                    f"exponents: {part.exponent} vs {first.exponent}"
                )
            if part.packer != first.packer:
                raise EncodingError(
                    "cannot concatenate tensors with different lane "
                    "geometry"
                )
            cells.extend(part.cells())
            counts.extend(part.counts)
            select.extend(base + f for f in part._lanes())
            base += sum(part.counts)
        if select == list(range(base)):
            select = None
        return cls(first.public_key, cells, counts, first.packer,
                   first.exponent, select)

    def __repr__(self) -> str:
        return (
            f"FoldedTensor(size={self._size}, cells={len(self._cells)}, "
            f"lanes={self.packer.lanes}, exponent={self.exponent}, "
            f"key_size={self.public_key.key_size})"
        )
