"""Batched Paillier engine: the bulk-ciphertext fast path.

Every linear stage of the pipeline bottoms out in modular
exponentiations mod ``n^2``; this module amortizes them four ways
(the tricks Popcorn and C2PI show Paillier-based private inference
lives or dies on):

1. **Fixed-base short-exponent blinding** — encryption is ``(1 + n*m)
   * f mod n^2`` for a blinding factor ``f`` that does not depend on
   the message.  Factors are ``h_s^x`` for a fixed per-key ``h_s`` and
   a short random ``x`` (:mod:`repro.crypto.blinding`), read off one
   precomputed table per key: no squarings, one multiply per digit of
   ``x``.  The key holder evaluates the same function mod ``p^2`` and
   mod ``q^2`` and recombines — half-width multiplies, same residues;
   the public-key path never sees ``p``/``q``.
2. **Offline blinding-factor pool** — a :class:`BlindingPool`
   computes factors ahead of time, so online encryption collapses to
   one modular multiply.  The pool draws its ``x`` values from a
   seeded RNG in a fixed order, so pooled encryption is deterministic
   for tests and bit-identical to the scalar reference path under the
   same seed.
3. **Compiled multi-exponentiation** — a matvec (FC layer, or conv
   via im2col) is ``out_j = prod_i c_i^(w_ji)``: every input
   ciphertext is raised to many small weight exponents, and the
   weights are static.  Each layer's
   :class:`~repro.crypto.sparse.SparseMatvecPlan` compiles, once,
   one addition-sequence schedule per column, so the kernel
   (:func:`_run_columns` / :func:`_divide`) does exactly three
   things per call: run each column's schedule (one multiply per
   step forms every ``c^|w|`` the column needs), multiply each power
   into its rows (one multiply per weight use; negative weights into
   a denominator set) and invert the denominators with one batched
   inversion.  No per-ciphertext tables, no Horner pass, nothing kept
   across calls.  Dense, planned and packed matvecs all run it;
   ``paillier_matvec_mults{part}`` counts its multiplies.
4. **Lane packing** — the packed fast paths
   (:meth:`PaillierEngine.encrypt_many_packed` /
   :meth:`~PaillierEngine.decrypt_many_packed` /
   :meth:`~PaillierEngine.fc_matvec_packed`) carry B batch elements per
   ciphertext as fixed-width lanes
   (:class:`repro.crypto.encoding.LanePacker`), so every modular
   exponentiation — and every pooled blinding factor and CRT
   decryption — is amortized over B values.  The key holder runs
   lanes along the feature axis as well: :meth:`PaillierEngine
   .decrypt_lanes` folds a run of cells mod ``p^2`` and recovers the
   whole run with one half-width exponentiation.

All batched paths produce ciphertexts **bit-identical** to the scalar
reference implementation in :mod:`repro.crypto.paillier` given the
same randomness; the scalar API remains the reference the property
tests compare against.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from typing import Iterable, List, Sequence

from ..config import DEFAULT_CONFIG, RuntimeConfig
from ..errors import (
    CryptoError,
    DecryptionError,
    EncryptionError,
    KeyMismatchError,
)
from ..observability import OBS_OFF, Observability
from ..observability.metrics import SIZE_BUCKETS
from .backend import BigintBackend, resolve_backend
from .encoding import LanePacker
from .paillier import (
    EncryptedNumber,
    PaillierPrivateKey,
    PaillierPublicKey,
)
from .sparse import SparseMatvecPlan

#: Default number of precomputed blinding factors kept ready.
DEFAULT_POOL_SIZE = 128

#: The matvec kernel's parts, each a ``paillier_matvec_mults{part}``
#: counter (:meth:`SparseMatvecPlan.mult_counts`).
MATVEC_PARTS = ("schedule", "scatter", "invert")


# ----------------------------------------------------------------------
# The matvec kernel: every homomorphic matvec runs the column
# schedules a SparseMatvecPlan compiled once per layer.
# ----------------------------------------------------------------------

def _run_columns(columns, num: list, den: list, modulus, wrap) -> None:
    """Steps 1 and 2 of the kernel, in place, over every column.

    ``columns`` pairs each input ciphertext ``c`` with its column's
    :data:`~repro.crypto.sparse.ColumnSchedule`.  Step 1 runs the
    schedule from the slots ``[1, c]``: one multiply per step, after
    which ``c^|w|`` sits in a known slot for every distinct ``|w|``
    the column uses.  Step 2 multiplies each use's power into the
    ``num`` entry of its rows — the ``den`` entry for a negative
    weight — one multiply per (row, weight) cell.
    """
    for base, (steps, uses) in columns:
        slots = [1, wrap(base)]
        append = slots.append
        for a, b in steps:
            append(slots[a] * slots[b] % modulus)
        for slot, rows, negative in uses:
            value = slots[slot]
            lane = den if negative else num
            for j in rows:
                lane[j] = lane[j] * value % modulus


def _divide(num: list, den: list, rows: Sequence[int], modulus,
            backend: BigintBackend, n_sq: int) -> None:
    """Step 3 of the kernel, in place: ``num[j] *= den[j]^-1`` for
    every row in ``rows`` with one Montgomery batched inversion — one
    modular inverse and ``4p - 3`` multiplies for ``p`` rows.
    ``num * den^-1`` is the same residue however the factors were
    grouped, so the outputs are bit-identical to the scalar reference.

    Raises:
        CryptoError: a negatively weighted base is not a unit mod n^2.
    """
    if not rows:
        return
    prefix = [den[rows[0]]]
    for j in rows[1:]:
        prefix.append(prefix[-1] * den[j] % modulus)
    inverse = backend.invert(int(prefix[-1]), n_sq)
    for k in range(len(rows) - 1, 0, -1):
        j = rows[k]
        num[j] = num[j] * (inverse * prefix[k - 1] % modulus) % modulus
        inverse = inverse * den[j] % modulus
    num[rows[0]] = num[rows[0]] * inverse % modulus


# ----------------------------------------------------------------------
# Offline blinding-factor pool.
# ----------------------------------------------------------------------

class BlindingPool:
    """FIFO pool of precomputed ``h_s^x mod n^2`` blinding factors.

    The pool owns a seeded RNG and draws ``x`` values from it in a
    fixed order, so the sequence of factors — and therefore every
    ciphertext built from them — is deterministic per seed regardless
    of refill batching or which party (public side, key holder)
    computes them.
    """

    def __init__(
        self,
        public_key: PaillierPublicKey,
        rng: random.Random,
        target_size: int = DEFAULT_POOL_SIZE,
        private_key: PaillierPrivateKey | None = None,
        obs: Observability | None = None,
        backend: BigintBackend | None = None,
    ):
        if private_key is not None \
                and private_key.public_key.n != public_key.n:
            raise KeyMismatchError(
                "private key does not match the pool's public key"
            )
        self.target_size = max(0, target_size)
        self.backend = backend if backend is not None \
            else resolve_backend("python")
        # The key's own tables: the key holder's half-width form when
        # the private key is here, the public form otherwise.
        self._blinding = (private_key if private_key is not None
                          else public_key).blinding
        self._rng = rng
        self._factors: deque[int] = deque()
        # Instrumentation handles are resolved once here so the hot
        # draw path is one no-op (or one locked increment) per call.
        obs = obs if obs is not None else OBS_OFF
        registry = obs.registry
        self._m_hits = registry.counter("paillier_pool_draws",
                                        result="hit")
        self._m_misses = registry.counter("paillier_pool_draws",
                                          result="miss")
        self._m_refills = registry.counter("paillier_pool_refills")
        self._m_refill_size = registry.histogram(
            "paillier_pool_refill_factors", buckets=SIZE_BUCKETS
        )
        self._m_size = registry.gauge("paillier_pool_size")
        self._m_factors = registry.counter(
            "paillier_blinding_factors",
            method="crt" if private_key is not None else "plain",
        )
        # One lock serializes (draw x's, evaluate, append): two
        # concurrent refills would otherwise interleave RNG draws and
        # appends, breaking the deterministic order.
        self._refill_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._factors)

    def fresh(self, rng: random.Random, count: int) -> list[int]:
        """``count`` factors from the next exponents ``rng`` yields,
        bypassing the FIFO (the draw order is the scalar path's)."""
        self._m_factors.inc(count)
        return self._blinding.factors(
            self._blinding.exponents(rng, count), self.backend
        )

    def refill(self, count: int | None = None) -> None:
        """Synchronously add ``count`` fresh factors (default: top up
        to the target size, at least one)."""
        with self._refill_lock:
            if count is None:
                count = max(1, self.target_size - len(self._factors))
            if count <= 0:
                return
            self._m_refills.inc()
            self._m_refill_size.observe(count)
            self._factors.extend(self.fresh(self._rng, count))
            self._m_size.set(len(self._factors))

    def draw(self) -> int:
        """Pop the next factor, refilling synchronously when empty."""
        while True:
            try:
                factor = self._factors.popleft()
            except IndexError:
                self._m_misses.inc()
                self.refill(max(1, self.target_size // 2) or 1)
            else:
                self._m_hits.inc()
                return factor

    def draw_many(self, count: int) -> list[int]:
        missing = count - len(self._factors)
        if missing > 0:
            self.refill(max(missing, self.target_size // 2))
        return [self.draw() for _ in range(count)]


# ----------------------------------------------------------------------
# The engine.
# ----------------------------------------------------------------------

class PaillierEngine:
    """Bulk ciphertext kernels over one Paillier public key.

    Args:
        public_key: the key every batch operates under.
        private_key: optional matching private key.  Enables
            ``decrypt_many`` and the half-width blinding tables — only
            pass it on the data-provider (key holder) side.
        pool_size: target size of the offline blinding-factor pool.
        window_bits: unused (the matvec kernel has no digit width);
            accepted only because ``perfbench/layers.py`` passes it,
            and goes with the next PR that edits ``perfbench/``.
        seed: seeds the pool RNG so pooled encryption is
            deterministic; ``rng`` overrides it.  With neither, the
            pool uses fresh OS randomness.
        rng: explicit randomness source for the pool.
        backend: bigint backend name (``"auto"``/``"python"``/
            ``"gmpy2"``) or a :class:`~repro.crypto.backend
            .BigintBackend` instance.  All backends are bit-identical;
            ``auto`` picks gmpy2 when importable.
    """

    def __init__(
        self,
        public_key: PaillierPublicKey,
        *,
        private_key: PaillierPrivateKey | None = None,
        pool_size: int = DEFAULT_POOL_SIZE,
        window_bits: int | None = None,
        seed: int | None = None,
        rng: random.Random | None = None,
        obs: Observability | None = None,
        backend: str | BigintBackend = "auto",
    ):
        if private_key is not None \
                and private_key.public_key.n != public_key.n:
            raise KeyMismatchError("private key does not match public key")
        self.public_key = public_key
        self.private_key = private_key
        self.backend = resolve_backend(backend)
        self.obs = obs if obs is not None else OBS_OFF
        if rng is None:
            rng = random.Random(seed) if seed is not None else random.Random()
        self.pool = BlindingPool(
            public_key, rng, target_size=pool_size,
            private_key=private_key, obs=self.obs, backend=self.backend,
        )
        # Batch-size histograms, resolved once (no-ops when disabled).
        registry = self.obs.registry
        self._m_encrypt_batch = registry.histogram(
            "paillier_batch_items", buckets=SIZE_BUCKETS, op="encrypt"
        )
        self._m_decrypt_batch = registry.histogram(
            "paillier_batch_items", buckets=SIZE_BUCKETS, op="decrypt"
        )
        self._m_matvec_cells = registry.histogram(
            "paillier_batch_items", buckets=SIZE_BUCKETS, op="matvec"
        )
        self._m_packed_lanes = registry.histogram(
            "paillier_packed_lanes", buckets=SIZE_BUCKETS
        )
        self._m_packed_encrypt = registry.counter(
            "paillier_packed_ops", op="encrypt"
        )
        self._m_packed_decrypt = registry.counter(
            "paillier_packed_ops", op="decrypt"
        )
        self._m_packed_matvec = registry.counter(
            "paillier_packed_ops", op="fc_matvec"
        )
        self._m_lane_cells = registry.counter("paillier_lane_cells")
        self._m_lane_runs = registry.counter("paillier_lane_runs")
        self._m_zero_skipped = registry.counter(
            "paillier_compress_zero_skipped"
        )
        self._m_compress_ops = {
            op: registry.counter("paillier_compress_ops", op=op)
            for op in ("fc_matvec", "conv_im2col")
        }
        self._m_mults = {
            part: registry.counter("paillier_matvec_mults", part=part)
            for part in MATVEC_PARTS
        }

    # -- lifecycle ------------------------------------------------------

    def prefill(self, count: int | None = None) -> None:
        """Precompute blinding factors now (the offline phase)."""
        target = self.pool.target_size if count is None else count
        missing = target - len(self.pool)
        if missing > 0:
            self.pool.refill(missing)

    def close(self) -> None:
        """Does nothing: the engine holds no resources to release.
        Kept only because ``perfbench/workloads.py`` calls it; goes
        with the next change to ``perfbench/``."""

    def __enter__(self) -> "PaillierEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- encryption -----------------------------------------------------

    def _blinding_factors(self, count: int,
                          rng: random.Random | None) -> list[int]:
        # A caller-supplied RNG yields its exponents in the exact order
        # the scalar path would draw them, so the ciphertexts come out
        # bit-identical to the scalar reference.
        if rng is None:
            return self.pool.draw_many(count)
        return self.pool.fresh(rng, count)

    def raw_encrypt_many(
        self,
        plaintexts: Sequence[int],
        rng: random.Random | None = None,
    ) -> list[int]:
        """Encrypt residues of Z_n to raw ciphertexts, in order.

        With ``rng`` the blinding factors are derived from it exactly
        as the scalar path would (bit-identical outputs); without it
        they are drawn from the offline pool (one modular multiply
        per ciphertext online).
        """
        n = self.public_key.n
        n_sq = self.public_key.n_squared
        plaintexts = list(plaintexts)
        self._m_encrypt_batch.observe(len(plaintexts))
        for m in plaintexts:
            if not 0 <= m < n:
                raise EncryptionError(f"plaintext {m} out of range [0, n)")
        factors = self._blinding_factors(len(plaintexts), rng)
        return [
            (1 + n * m) % n_sq * factor % n_sq
            for m, factor in zip(plaintexts, factors)
        ]

    def encrypt_many(
        self,
        plaintexts: Iterable[int],
        rng: random.Random | None = None,
    ) -> List[EncryptedNumber]:
        """Batch :meth:`raw_encrypt_many`, wrapped in EncryptedNumbers."""
        key = self.public_key
        return [EncryptedNumber(key, c)
                for c in self.raw_encrypt_many(list(plaintexts), rng)]

    def encrypt(self, plaintext: int,
                rng: random.Random | None = None) -> EncryptedNumber:
        return self.encrypt_many([plaintext], rng)[0]

    # -- rerandomization ------------------------------------------------

    def rerandomize_many(
        self,
        ciphertexts: Sequence[int],
        rng: random.Random | None = None,
    ) -> list[int]:
        """Refresh randomness: multiply each by a pooled encryption of 0."""
        n_sq = self.public_key.n_squared
        factors = self._blinding_factors(len(ciphertexts), rng)
        return [c * factor % n_sq
                for c, factor in zip(ciphertexts, factors)]

    # -- decryption -----------------------------------------------------

    def raw_decrypt_many(self, ciphertexts: Sequence[int]) -> list[int]:
        """Batch CRT decryption (requires the private key)."""
        priv = self.private_key
        if priv is None:
            raise CryptoError("engine has no private key; cannot decrypt")
        ciphertexts = list(ciphertexts)
        self._m_decrypt_batch.observe(len(ciphertexts))
        n_sq = self.public_key.n_squared
        for c in ciphertexts:
            if not 0 < c < n_sq:
                raise DecryptionError("ciphertext out of range (0, n^2)")
        # The CRT constants are hoisted once per batch.
        n, p, q = self.public_key.n, priv.p, priv.q
        p_sq, q_sq = p * p, q * q
        h_p, h_q, q_inv_p = priv._h_p, priv._h_q, priv._q_inv_p
        powmod = self.backend.powmod
        out = []
        for c in ciphertexts:
            u_p = powmod(c, p - 1, p_sq)
            m_p = (((u_p - 1) // p) * h_p) % p
            u_q = powmod(c, q - 1, q_sq)
            m_q = (((u_q - 1) // q) * h_q) % q
            h = ((m_p - m_q) * q_inv_p) % p
            out.append((m_q + q * h) % n)
        return out

    def decrypt_many(
        self, encrypted: Sequence[EncryptedNumber]
    ) -> list[int]:
        for c in encrypted:
            if c.public_key.n != self.public_key.n:
                raise KeyMismatchError(
                    "ciphertext was produced under a different public key"
                )
        return self.raw_decrypt_many([c.ciphertext for c in encrypted])

    # -- linear algebra -------------------------------------------------

    def matvec(
        self,
        cells: Sequence[int],
        weights,
        bias: Sequence[int],
    ) -> list[int]:
        """Homomorphic ``y = W x + b`` over raw ciphertexts.

        :meth:`fc_matvec` on a plan compiled from ``weights`` for this
        call.  Runtime paths compile each layer's plan once at session
        setup and pass it to :meth:`fc_matvec` / :meth:`conv_im2col`.

        Args:
            cells: input ciphertexts (length = in_dim).
            weights: integer matrix, shape (out_dim, in_dim); ndarray
                or nested sequences.
            bias: ciphertexts of the (already encrypted) bias,
                length = out_dim.

        Returns:
            raw output ciphertexts, length = out_dim.
        """
        return self.fc_matvec(cells, weights, bias)

    # -- planned matvecs ------------------------------------------------

    def fc_matvec(
        self,
        cells: Sequence[int],
        weights=None,
        bias: Sequence[int] | None = None,
        *,
        plan: SparseMatvecPlan | None = None,
    ) -> list[int]:
        """``y = W x + b`` for a fully-connected layer, through its
        :class:`~repro.crypto.sparse.SparseMatvecPlan`.

        Zero weights are skipped outright (counted in
        ``paillier_compress_zero_skipped``); each column runs its
        compiled schedule, then pays one multiply per weight use.
        Pass the layer's prebuilt ``plan`` (the runtime compiles one
        per layer at session setup); otherwise one is compiled from
        ``weights`` for this call.
        """
        return self._compressed_matvec(cells, weights, bias, plan,
                                       op="fc_matvec")

    def conv_im2col(
        self,
        cells: Sequence[int],
        weights=None,
        bias: Sequence[int] | None = None,
        *,
        plan: SparseMatvecPlan | None = None,
    ) -> list[int]:
        """Convolution over an im2col weight matrix.

        The matrix rows are output positions and the columns im2col
        patches, exactly as :func:`repro.scaling.fixed_point
        ._conv_as_matrix` lays them out.  The same kernel weight recurs
        across every output position, so each column's schedule forms
        few powers for many uses.  Same engine semantics as
        :meth:`fc_matvec`.
        """
        return self._compressed_matvec(cells, weights, bias, plan,
                                       op="conv_im2col")

    def _compressed_matvec(self, cells, weights, bias, plan, op):
        cells = list(cells)
        bias = list(bias) if bias is not None else []
        if plan is None:
            if weights is None:
                raise CryptoError(
                    "matvec needs weights or a prebuilt plan"
                )
            plan = SparseMatvecPlan.from_dense(weights)
        if plan.in_dim != len(cells):
            raise CryptoError(
                f"plan input size {plan.in_dim} != cells {len(cells)}"
            )
        if plan.out_dim != len(bias):
            raise CryptoError(
                f"plan output size {plan.out_dim} != bias {len(bias)}"
            )
        n_sq = self.public_key.n_squared
        self._m_matvec_cells.observe(len(cells))
        self._m_compress_ops[op].inc()
        skipped = plan.total - plan.nnz
        if skipped:
            self._m_zero_skipped.inc(skipped)
        for part, count in plan.mult_counts().items():
            self._m_mults[part].inc(count)
        columns = [(cells[i], schedule) for (i, _), schedule
                   in zip(plan.columns, plan.schedules)]
        modulus = self.backend.wrap(n_sq)
        num = bias
        den = [1] * plan.out_dim
        _run_columns(columns, num, den, modulus, self.backend.wrap)
        _divide(num, den, plan.negative_rows, modulus, self.backend, n_sq)
        return [int(v) for v in num]

    def reset_power_cache(self) -> None:
        """Does nothing: the matvec kernel keeps no per-ciphertext
        state.  Kept only because ``perfbench/layers.py`` calls it;
        goes with the next PR that edits ``perfbench/``."""

    # -- lane-packed fast paths -----------------------------------------

    def add_plain_many(self, ciphertexts: Sequence[int],
                       residues: Sequence[int]) -> list[int]:
        """Homomorphically add a Z_n residue to each raw ciphertext.

        ``E(m) * (1 + n*r) = E(m + r)`` — one modular multiply per
        ciphertext, no blinding needed (the input's randomness already
        blinds the product).  This is the packed paths' rebias
        primitive, but works on any raw ciphertexts.
        """
        if len(ciphertexts) != len(residues):
            raise CryptoError("add_plain_many length mismatch")
        n = self.public_key.n
        n_sq = self.public_key.n_squared
        return [
            c * (1 + n * (r % n)) % n_sq
            for c, r in zip(ciphertexts, residues)
        ]

    def encrypt_many_packed(
        self,
        batches: Sequence[Sequence[int]],
        packer: LanePacker,
        rng: random.Random | None = None,
    ) -> List[EncryptedNumber]:
        """Encrypt lane-packed batches: one ciphertext per position.

        ``batches[i]`` holds the signed per-lane (batch-axis) values of
        tensor position ``i``; each becomes one ciphertext carrying all
        of them.  Blinding factors come from the pool (or ``rng``)
        exactly as in :meth:`encrypt_many` — B lanes share one factor.
        """
        if packer.public_key.n != self.public_key.n:
            raise KeyMismatchError(
                "packer was built for a different public key"
            )
        residues = []
        for values in batches:
            values = list(values)
            self._m_packed_lanes.observe(len(values))
            residues.append(packer.pack(values))
        raw = self.raw_encrypt_many(residues, rng)
        self._m_packed_encrypt.inc(len(raw))
        key = self.public_key
        return [EncryptedNumber(key, c) for c in raw]

    def decrypt_many_packed(
        self,
        encrypted: Sequence[EncryptedNumber],
        packer: LanePacker,
        count: int | None = None,
        lane_offset: int | None = None,
    ) -> list[list[int]]:
        """Decrypt packed ciphertexts and unpack each into lane values.

        One CRT decryption serves all B lanes of a position.  Pass the
        ``lane_offset`` the ciphertexts currently carry if they are not
        at the canonical offset (see :class:`LanePacker`).
        """
        residues = self.decrypt_many(encrypted)
        self._m_packed_decrypt.inc(len(residues))
        return [packer.unpack(r, count=count, lane_offset=lane_offset)
                for r in residues]

    def fc_matvec_packed(
        self,
        cells: Sequence[int],
        weights,
        bias: Sequence[int],
        packer: LanePacker,
        *,
        input_offset: int | None = None,
        bias_offset: int | None = None,
        plan: SparseMatvecPlan | None = None,
    ) -> list[int]:
        """Packed homomorphic ``y = W x + b``: one pow serves B lanes.

        Reuses :meth:`fc_matvec` wholesale (the compiled column
        schedules), then repairs the lane offsets:
        row ``j`` of the raw product carries each lane at ``t_j +
        input_offset * S_j + bias_offset`` where ``S_j`` is the signed
        row weight sum,
        so one plaintext add of :meth:`LanePacker.rebias_residue` per
        output cell brings every lane back to the canonical offset.
        Intermediate "virtually negative" lane states are exact mod n;
        only the final residue's lanes must be in range.

        Args:
            cells: raw packed input ciphertexts (length = in_dim) at
                per-lane offset ``input_offset`` (default: canonical).
            weights: integer matrix, shape (out_dim, in_dim).
            bias: raw packed ciphertexts of the bias (length =
                out_dim) at per-lane offset ``bias_offset`` (default:
                canonical).
            plan: the layer's prebuilt plan (its compiled schedules
                and the row weight sums the rebias needs); ``weights``
                may then be ``None``.  Without one, a plan is compiled
                from ``weights`` for this call.

        Returns:
            raw packed output ciphertexts at the canonical offset.
        """
        if packer.public_key.n != self.public_key.n:
            raise KeyMismatchError(
                "packer was built for a different public key"
            )
        if plan is None:
            plan = SparseMatvecPlan.from_dense(weights)
        out = self.fc_matvec(cells, bias=bias, plan=plan)
        in_off = packer.offset if input_offset is None else input_offset
        b_off = packer.offset if bias_offset is None else bias_offset
        target = packer.offset
        rebias = [
            packer.rebias_residue(target - (in_off * row_sum + b_off))
            for row_sum in plan.row_weight_sums
        ]
        out = self.add_plain_many(out, rebias)
        self._m_packed_matvec.inc(len(out))
        return out

    # -- lane decryption ------------------------------------------------

    def run_capacity(self, cell_bits: int) -> int:
        """Cells of ``cell_bits`` bits one exponentiation mod ``p^2``
        recovers (:meth:`decrypt_lanes`): ``⌊(|p| - 2) / cell_bits⌋``,
        so a run's packed plaintext stays below ``2^(|p| - 2) < p``.
        0 when one cell does not fit (key holder only)."""
        priv = self.private_key
        if priv is None:
            raise CryptoError("engine has no private key; cannot decrypt")
        return max(0, (priv.p.bit_length() - 2) // max(cell_bits, 1))

    def decrypt_lanes(self, ciphertexts: Sequence[int],
                      packer: LanePacker, biased: bool) -> list[int]:
        """Decrypt cells of ``packer.lanes`` lanes each, a run of them
        per exponentiation, into their signed lane values in order.

        Each cell's plaintext is ``packer.lanes`` lanes of
        ``L = packer.lane_bits`` bits: offset-form lanes of a full
        lane-packed batch (``biased``), or one signed value with
        ``|v| < 2^(L - 1)`` (a linear stage's certified output, not
        ``biased``).  With ``W = packer.lanes * L`` and ``k =``
        :meth:`run_capacity` ``(W)``, every run of ``r <= k`` cells is
        reduced mod ``p^2`` and folded by Horner's rule::

            C = (c_{r-1}^(2^W) * c_{r-2})^(2^W) ... * c_0  mod p^2

        then recovered with one ``C^(p-1) mod p^2``, ``L_p`` and
        ``h_p``: the sum of the cells' plaintexts times ``2^(W i)``,
        mod ``p``.  Mod ``p`` a signed value is itself (``n = 0 mod
        p``), so unbiased cells gain their lane offset as one integer
        addition.  The sum is below ``2^(kW) < p``, so it is exact and
        :meth:`LanePacker.unpack_exact` reads the lanes off it.  That
        is ``(r - 1) W`` squarings and one exponentiation mod ``p^2``
        per run, against two per cell for CRT decryption.

        Raises:
            CryptoError: no private key, or a cell does not fit
                (``k`` is 0: decrypt those with :meth:`decrypt_many`).
            DecryptionError: a ciphertext outside ``(0, n^2)``.
            EncodingError: a lane left its certified range.
        """
        width = packer.lanes * packer.lane_bits
        k = self.run_capacity(width)
        if k < 1:
            raise CryptoError(
                f"{width}-bit cells do not fit under p; decrypt them "
                "one by one"
            )
        if packer.public_key.n != self.public_key.n:
            raise KeyMismatchError(
                "packer was built for a different public key"
            )
        ciphertexts = list(ciphertexts)
        self._m_decrypt_batch.observe(len(ciphertexts))
        n_sq = self.public_key.n_squared
        for c in ciphertexts:
            if not 0 < c < n_sq:
                raise DecryptionError("ciphertext out of range (0, n^2)")
        priv = self.private_key
        p, h_p = priv.p, priv._h_p
        p_sq = p * p
        powmod = self.backend.powmod
        modulus = self.backend.wrap(p_sq)
        shift = 1 << width
        run_packer = LanePacker(self.public_key, lanes=k * packer.lanes,
                                mag_bits=packer.mag_bits,
                                guard_bits=packer.guard_bits)
        # The integer lane offsets of a run of r unbiased cells.
        offsets = [0] * (k + 1)
        if not biased:
            for r in range(1, k + 1):
                offsets[r] = offsets[r - 1] \
                    + (packer.offset << ((r - 1) * width))
        out: list[int] = []
        for start in range(0, len(ciphertexts), k):
            block = ciphertexts[start:start + k]
            acc = block[-1] % modulus
            for cipher in reversed(block[:-1]):
                acc = powmod(acc, shift, p_sq) * (cipher % modulus) \
                    % modulus
            u_p = powmod(acc, p - 1, p_sq)
            plain = ((u_p - 1) // p * h_p + offsets[len(block)]) % p
            out.extend(run_packer.unpack_exact(
                plain, len(block) * packer.lanes))
        self._m_lane_cells.inc(len(ciphertexts))
        self._m_lane_runs.inc(-(-len(ciphertexts) // k))
        return out


# ----------------------------------------------------------------------
# Engine construction: one engine per protocol party, plus a shared
# fallback per key for scalar callers that pass no engine.
# ----------------------------------------------------------------------

#: Pool-RNG seed salts of the two parties' engines.
MODEL_ENGINE_SALT = 0x4D50E
DATA_ENGINE_SALT = 0x4450E


def party_engine(
    public_key: PaillierPublicKey,
    config: RuntimeConfig,
    obs: Observability | None,
    private_key: PaillierPrivateKey | None = None,
) -> PaillierEngine:
    """The one engine a protocol party builds for a session key —
    the model provider, the data provider and a remote worker session
    of either role alike, on ``config``'s pool size and backend.

    With ``private_key`` it is the key holder's: half-width blinding
    mod ``p^2`` / ``q^2``, and its pool precomputed now (the paper's
    offline phase).  The model side draws no pool factors (its bias
    encryptions pass an RNG), so a pipeline's stage threads share it.
    """
    salt = MODEL_ENGINE_SALT if private_key is None else DATA_ENGINE_SALT
    engine = PaillierEngine(
        public_key,
        private_key=private_key,
        pool_size=config.blinding_pool_size,
        seed=config.seed ^ salt,
        obs=obs,
        backend=config.bigint_backend,
    )
    if private_key is not None:
        engine.prefill()
    return engine


_default_engines: dict[int, PaillierEngine] = {}


def default_engine(public_key: PaillierPublicKey) -> PaillierEngine:
    """The shared engine for a public key, built from
    :data:`repro.config.DEFAULT_CONFIG` and never released: the
    fallback of tensor calls given no engine, which no runtime path
    makes."""
    engine = _default_engines.get(public_key.n)
    if engine is None:
        engine = PaillierEngine(
            public_key,
            pool_size=DEFAULT_CONFIG.blinding_pool_size,
            backend=DEFAULT_CONFIG.bigint_backend,
        )
        _default_engines[public_key.n] = engine
    return engine
