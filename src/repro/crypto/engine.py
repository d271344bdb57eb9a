"""Batched Paillier engine: the bulk-ciphertext fast path.

Every linear stage of the pipeline bottoms out in modular
exponentiations mod ``n^2``; this module amortizes them five ways
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
3. **Process-pool parallelism** — big-int ``pow`` does *not* release
   the GIL, so threads cannot help; ``decrypt_many`` / ``matvec`` /
   ``add_many`` dispatch chunks of work to a ``ProcessPoolExecutor``
   when ``workers > 0``.  Chunk sizes are serialization-aware:
   ciphertexts are a few hundred bytes each, so chunks are kept large
   enough that pickling cost stays far below the modular-arithmetic
   cost, and tiny batches run inline.  (Blinding stays inline: a
   factor is a few dozen multiplies, below its own pickling cost.)
4. **Interleaved multi-exponentiation** — a matvec (FC layer, or conv
   via im2col) is ``out_j = prod_i c_i^(w_ji)``: every input
   ciphertext is raised to many small weight exponents.  One
   Straus/Shamir kernel (:func:`_sparse_partial`) serves the dense,
   planned and packed paths alike: per ciphertext it builds only the
   digit table ``c^1 .. c^(2^w - 1)`` (:class:`PowerTable`), scatters
   each weight's base-``2^w`` digits into per-row, per-position
   accumulators (negative weights into a denominator set), finishes
   every row with one Horner pass whose squarings all columns share,
   and inverts the layer's denominators with a single batched
   inversion.  Heavily clustered columns instead form each distinct
   ``c^|w|`` once and pay one multiply per use, chosen per column by
   counted multiplies.
5. **Lane packing** — the packed fast paths
   (:meth:`PaillierEngine.encrypt_many_packed` /
   :meth:`~PaillierEngine.decrypt_many_packed` /
   :meth:`~PaillierEngine.fc_matvec_packed`) carry B batch elements per
   ciphertext as fixed-width lanes
   (:class:`repro.crypto.encoding.LanePacker`), so every modular
   exponentiation — and every pooled blinding factor and CRT
   decryption — is amortized over B values.  The same lanes run along
   the feature axis of one request: :meth:`PaillierEngine.fold_many`
   packs k consecutive ciphertexts into one with public-key
   operations only, so the key holder pays one CRT decryption per k
   values (:meth:`~PaillierEngine.decrypt_many_folded`).

All batched paths produce ciphertexts **bit-identical** to the scalar
reference implementation in :mod:`repro.crypto.paillier` given the
same randomness; the scalar API remains the reference the property
tests compare against.
"""

from __future__ import annotations

import os
import random
import threading
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, List, Sequence

import numpy as np

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

#: Default digit width (bits) of the matvec kernel's per-ciphertext
#: digit tables.
DEFAULT_WINDOW_BITS = 4

#: Default LRU bound on the engine's cross-call digit-table cache (the
#: planned ``fc_matvec`` / ``conv_im2col`` paths key tables by
#: ciphertext; without a bound a long-lived engine would grow one
#: table per ciphertext it ever saw).
DEFAULT_POWER_CACHE_ENTRIES = 512

#: ``add_many`` process-dispatch multiplier: one homomorphic add is a
#: single modular multiply, ~this many times cheaper than the pow-bound
#: work ``dispatch_min_items`` was calibrated for, so the break-even
#: batch is correspondingly larger.
ADD_DISPATCH_FACTOR = 32

#: Decision tallies :func:`_sparse_partial` keeps per call; the engine
#: publishes each as a ``paillier_power_cache_<name>`` counter.
KERNEL_STATS = ("columns_table", "columns_plain", "tables_built",
                "table_pows", "plain_pows", "dedup_hits")

#: Default process-dispatch break-even threshold: below this many items
#: a batch runs inline even when workers > 0, because fork/pickle
#: overhead dwarfs the arithmetic (BENCH_paillier.json showed
#: ``decrypt_many`` *regressing* to 0.98x at 48 ops when dispatched).
#: Tunable via :attr:`repro.config.RuntimeConfig.dispatch_min_items`.
DEFAULT_DISPATCH_MIN_ITEMS = 64


# ----------------------------------------------------------------------
# Process-pool kernels.  Module-level functions over primitive ints so
# they pickle cheaply; each call works on a chunk, not a single item.
# ----------------------------------------------------------------------

def _decrypt_chunk(args) -> list[int]:
    """CRT decryption of a chunk of raw ciphertexts."""
    ciphers, n, p, q, p_sq, q_sq, h_p, h_q, q_inv_p, backend_name = args
    powmod = resolve_backend(backend_name).powmod
    out = []
    for c in ciphers:
        u_p = powmod(c, p - 1, p_sq)
        m_p = (((u_p - 1) // p) * h_p) % p
        u_q = powmod(c, q - 1, q_sq)
        m_q = (((u_q - 1) // q) * h_q) % q
        h = ((m_p - m_q) * q_inv_p) % p
        out.append((m_q + q * h) % n)
    return out


def _matvec_chunk(args) -> list[int]:
    """Per-row partial products over a column slice of a matvec."""
    cells, rows, n_sq, window_bits, backend_name = args
    return _matvec_partial(cells, rows, n_sq, window_bits,
                           backend=resolve_backend(backend_name))


def _sparse_chunk(args) -> list[int]:
    """Per-row partial products over a slice of sparse plan columns."""
    pairs, out_dim, n_sq, window_bits, backend_name = args
    return _sparse_partial(pairs, out_dim, n_sq, window_bits,
                           backend=resolve_backend(backend_name))


def _mulmod_chunk(args) -> list[int]:
    """Pairwise ``a * b mod n^2`` (homomorphic add) over a chunk."""
    pairs, n_sq, backend_name = args
    backend = resolve_backend(backend_name)
    modulus = backend.wrap(n_sq)
    return [int(a * b % modulus) for a, b in pairs]


# ----------------------------------------------------------------------
# Fixed-base digit tables and the interleaved multi-exponentiation
# kernel every homomorphic matvec runs on.
# ----------------------------------------------------------------------

class PowerTable:
    """Precomputed powers of one ciphertext, grown on demand.

    Two sequences, both empty beyond ``base`` itself until asked for:

    * :meth:`digits` — the digit table ``base^0 .. base^d``, what the
      matvec kernel scatters a column's base-``2^w`` digits from;
    * :meth:`squares` — the squaring chain ``base^(2^i)``, what it
      forms a clustered column's few distinct powers on.

    ``max_bits`` is accepted for compatibility with the earlier
    positional-table constructor and ignored: both sequences grow on
    demand.

    Growth publishes a new list instead of appending in place, so a
    table shared through a :class:`PowerCache` can be read while
    another thread grows it: a reader sees a complete shorter list or
    a complete longer one, and racing growers only duplicate work.
    """

    __slots__ = ("modulus", "window_bits", "_digits", "_squares")

    def __init__(self, base: int, modulus: int, max_bits: int = 0,
                 window_bits: int = DEFAULT_WINDOW_BITS,
                 backend: BigintBackend | None = None):
        if window_bits < 1:
            raise CryptoError(f"window_bits must be >= 1, got {window_bits}")
        if backend is not None:
            # Lifting base and modulus into the backend's native integer
            # type makes every product below run on that type; the
            # Python backend's wrap is the identity, so this is free.
            base = backend.wrap(base)
            modulus = backend.wrap(modulus)
        base %= modulus
        self.modulus = modulus
        self.window_bits = window_bits
        self._digits: list[int] = [1, base]
        self._squares: list[int] = [base]

    def digits(self, upto: int) -> list[int]:
        """``[1, base, base^2, ...]``, at least through ``base^upto``."""
        row = self._digits
        if upto >= len(row):
            m = self.modulus
            row = list(row)
            base = row[1]
            entry = row[-1]
            while len(row) <= upto:
                entry = entry * base % m
                row.append(entry)
            self._digits = row
        return row

    def squares(self, count: int) -> list[int]:
        """``[base, base^2, base^4, ...]``, at least ``count`` long."""
        chain = self._squares
        if count > len(chain):
            m = self.modulus
            chain = list(chain)
            g = chain[-1]
            while len(chain) < count:
                g = g * g % m
                chain.append(g)
            self._squares = chain
        return chain

    def pow(self, exponent: int) -> int:
        """``base^exponent mod modulus`` for a non-negative exponent
        (the kernel itself reads only the two sequences)."""
        if exponent < 0:
            raise CryptoError("PowerTable.pow needs a non-negative exponent")
        return int(pow(self._squares[0], exponent, self.modulus))


class PowerCache:
    """Bounded LRU of :class:`PowerTable` objects keyed by ciphertext.

    The planned matvec paths (:meth:`PaillierEngine.fc_matvec` /
    :meth:`~PaillierEngine.conv_im2col`) keep each input ciphertext's
    digit table *across calls*: repeated evaluations over the same
    ciphertexts (multi-layer reuse, benchmark loops, retries) skip the
    table build entirely.  Ciphertexts are ~key-size integers and a
    digit table holds up to ``2^w - 1`` of them, so an unbounded cache
    in a long-lived engine would be a slow leak; the LRU bound caps
    it, and the ``paillier_power_cache_entries`` gauge makes the
    occupancy observable.
    """

    __slots__ = ("max_entries", "hits", "misses", "evictions",
                 "_entries", "_gauge")

    def __init__(self, max_entries: int = DEFAULT_POWER_CACHE_ENTRIES,
                 gauge=None):
        if max_entries < 1:
            raise CryptoError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[int, PowerTable]" = OrderedDict()
        self._gauge = gauge

    def __len__(self) -> int:
        return len(self._entries)

    def peek(self, key: int) -> PowerTable | None:
        """Return the cached table for ``key`` (refreshing its LRU
        position) or ``None``."""
        table = self._entries.get(key)
        if table is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return table

    def put(self, key: int, table: PowerTable) -> None:
        """Insert a table, evicting least-recently-used past the bound."""
        self._entries[key] = table
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        if self._gauge is not None:
            self._gauge.set(len(self._entries))

    def reset(self) -> None:
        """Drop every cached table (e.g. between layers or requests)."""
        self._entries.clear()
        if self._gauge is not None:
            self._gauge.set(0)


def _horner(lanes: list[list[int]], window_bits: int, modulus) -> list[int]:
    """Fold per-position accumulators into ``prod_t lanes[t]^(2^(w*t))``
    per row: ``w`` squarings per position, however many columns fed
    the lanes.  Rows whose upper positions were never touched skip the
    squarings."""
    shift = 1 << window_bits
    acc = lanes[-1]
    for t in range(len(lanes) - 2, -1, -1):
        acc = [low if high == 1 else pow(high, shift, modulus) * low % modulus
               for high, low in zip(acc, lanes[t])]
    return acc


def _sparse_partial(
    columns: Sequence[tuple],
    out_dim: int,
    n_sq: int,
    window_bits: int,
    backend: BigintBackend | None = None,
    cache: PowerCache | None = None,
    stats: dict | None = None,
) -> list[int]:
    """The multi-exponentiation kernel: bias-free ``prod_i
    base_i^(w_ji) mod n^2`` for every output row ``j`` at once.

    ``columns`` pairs each input ciphertext with its
    :class:`~repro.crypto.sparse.SparseMatvecPlan` column — the
    distinct nonzero weights and the output rows using each (zero
    weights never reach this loop).  Instead of forming every ``c^w``
    and multiplying it in, the kernel interleaves all exponentiations
    of the layer (Straus/Shamir):

    * per ciphertext only the digit table ``c^1 .. c^dmax`` is built
      (``dmax`` = largest base-``2^w`` digit the column uses; at most
      ``2^w - 2`` multiplies), and each weight's digits are scattered
      straight into per-row, per-digit-position accumulators — one
      multiply per non-zero digit per use;
    * negative weights scatter ``c^|w|`` into a parallel denominator
      set, so there are no inverse tables and no per-column inversion;
    * every row is finished by one Horner pass (:func:`_horner` — its
      squarings are shared by *all* columns) and the non-trivial
      denominators of the whole call are inverted together by one
      Montgomery batched inversion: one ``invert`` plus three
      multiplies per row.  ``num * den^-1`` is the same residue
      however the factors were interleaved, so the outputs are
      bit-identical to the scalar reference.

    A heavily clustered column (few distinct weights, each used by
    many rows) is cheaper the other way round — form ``c^|w|`` once on
    a shared squaring chain and pay one multiply per use — so each
    column picks by counted multiplies (digits and table size at their
    upper bounds, so the count needs no per-weight loop); the formed
    powers land in the position-0 accumulators of the same sets.  The
    Horner pass is the one cost the columns share, so multi-digit
    scattering happens at all only when it saves more multiplies than
    those squarings cost.

    Each distinct base gets one :class:`PowerTable` per call, and each
    side of the column choice counts only the part of it that is not
    built yet.  With a ``cache``, tables persist across calls; a new
    table is kept only if this call used it more than once, so
    single-use columns do not flood the LRU.

    ``stats`` (optional, inline path only) accumulates the
    :data:`KERNEL_STATS` tallies: ``columns_table`` / ``columns_plain``
    (columns scattered through a digit table vs formed on a squaring
    chain), ``tables_built`` (distinct bases the cache did not serve),
    ``table_pows`` / ``plain_pows`` (distinct (ciphertext, weight)
    pairs evaluated each way) and ``dedup_hits`` (uses beyond the
    first of a pair).

    Raises:
        CryptoError: a negatively weighted base is not a unit mod n^2.
    """
    if backend is None:
        backend = resolve_backend("python")
    modulus = backend.wrap(n_sq)
    mask = (1 << window_bits) - 1
    # Pass 1: resolve one table per distinct base and count both ways'
    # multiplies per column.
    tables: dict[int, PowerTable] = {}
    fresh: dict[int, int] = {}      # uncached base -> uses this call
    work = []
    positions = 1
    deep_gain = 0
    for base, groups in columns:
        scatter_cost = form_cost = uses = bits = 0
        for w, rows in groups:
            width = w.bit_length()
            scatter_cost += len(rows) * -(-width // window_bits)
            form_cost += w.bit_count() - 1
            uses += len(rows)
            if width > bits:
                bits = width
        form_cost += uses
        table = tables.get(base)
        if table is None:
            table = cache.peek(base) if cache is not None else None
            if table is None:
                table = PowerTable(base, n_sq, window_bits=window_bits,
                                   backend=backend)
                fresh[base] = 0
            tables[base] = table
        if base in fresh:
            fresh[base] += uses
        # Each way pays only for the part of the table it still lacks.
        scatter_cost += max(0, mask + 1 - len(table._digits))
        form_cost += max(0, bits - len(table._squares))
        depth = -(-bits // window_bits)
        scatter = scatter_cost < form_cost
        if scatter and depth > 1:
            deep_gain += form_cost - scatter_cost
            positions = max(positions, depth)
        work.append((table, groups, bits, uses, scatter))
    if stats is not None:
        stats["tables_built"] += len(fresh)
    if cache is not None:
        for base, uses in fresh.items():
            if uses > 1:
                cache.put(base, tables[base])
    # The Horner pass is the one cost the columns share: scattering
    # above position 0 has to save more than those squarings cost
    # (counted for both accumulator sets).
    if deep_gain <= 2 * out_dim * (positions - 1) * (window_bits + 1):
        positions = 1
    num = [[1] * out_dim for _ in range(positions)]
    den = [[1] * out_dim for _ in range(positions)]
    # Pass 2: per column, scatter the digits or form each power once.
    for table, groups, bits, uses, scatter in work:
        scatter = scatter and bits <= positions * window_bits
        if stats is not None:
            stats["columns_table" if scatter else "columns_plain"] += 1
            stats["table_pows" if scatter else "plain_pows"] += len(groups)
            stats["dedup_hits"] += uses - len(groups)
        if scatter:
            powers = table.digits(1)
            for w, rows in groups:
                lanes, e = (den, -w) if w < 0 else (num, w)
                t = 0
                while e:
                    d = e & mask
                    if d:
                        if d >= len(powers):
                            powers = table.digits(d)
                        v = powers[d]
                        lane = lanes[t]
                        for j in rows:
                            lane[j] = lane[j] * v % modulus
                    e >>= window_bits
                    t += 1
            continue
        chain = table.squares(bits)
        for w, rows in groups:
            lane, e = (den[0], -w) if w < 0 else (num[0], w)
            v = 1
            index = 0
            while e:
                if e & 1:
                    v = v * chain[index] % modulus
                index += 1
                e >>= 1
            for j in rows:
                lane[j] = lane[j] * v % modulus
    out = _horner(num, window_bits, modulus)
    bottoms = _horner(den, window_bits, modulus)
    # Montgomery batched inversion of the non-trivial denominators.
    pending = [j for j, d in enumerate(bottoms) if d != 1]
    if pending:
        prefix = []
        running = 1
        for j in pending:
            running = running * bottoms[j] % modulus
            prefix.append(running)
        inverse = backend.invert(int(running), n_sq)
        for k in range(len(pending) - 1, 0, -1):
            j = pending[k]
            out[j] = out[j] * (inverse * prefix[k - 1] % modulus) % modulus
            inverse = inverse * bottoms[j] % modulus
        out[pending[0]] = out[pending[0]] * inverse % modulus
    return [int(v) for v in out]


def _matvec_partial(
    cells: Sequence[int],
    rows: Sequence[Sequence[int]],
    n_sq: int,
    window_bits: int,
    stats: dict | None = None,
    backend: BigintBackend | None = None,
) -> list[int]:
    """Bias-free dense matvec: ``prod_i cells[i]^rows[j][i] mod n^2``
    per row, through :func:`_sparse_partial`.

    Each column is indexed the way a plan column is — its distinct
    nonzero weights with the rows using each — so an im2col conv
    matrix's repeated kernel weights are handled once per column, and
    the dense and planned paths are one kernel.
    """
    if any(len(row) != len(cells) for row in rows):
        raise CryptoError(
            f"every weights row needs {len(cells)} entries, one per "
            f"input cell"
        )
    columns = []
    for base, column in zip(cells, zip(*rows)):
        by_weight: dict[int, list[int]] = {}
        for j, w in enumerate(column):
            if w:
                users = by_weight.get(w)
                if users is None:
                    by_weight[w] = [j]
                else:
                    users.append(j)
        if by_weight:
            columns.append((base, by_weight.items()))
    return _sparse_partial(columns, len(rows), n_sq, window_bits,
                           backend=backend, stats=stats)


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
# Chunked dispatch helper.
# ----------------------------------------------------------------------

def _run_chunked(executor: ProcessPoolExecutor, fn, items: list,
                 extra: tuple, registry=None, op: str = "") -> list:
    """Map ``fn`` over ``items`` in contiguous chunks, preserving order.

    One chunk per worker (big-int exponentiation is uniform enough
    that finer-grained work stealing is not worth the extra pickling).
    When a metrics ``registry`` is passed, the dispatch is recorded:
    one ``paillier_dispatch_chunks`` increment per chunk and the chunk
    sizes into ``paillier_dispatch_chunk_items`` (both labelled with
    ``op``).
    """
    workers = executor._max_workers
    per = -(-len(items) // workers)
    chunks = [items[i:i + per] for i in range(0, len(items), per)]
    if registry is not None:
        registry.counter("paillier_dispatch_chunks",
                         op=op).inc(len(chunks))
        size_histogram = registry.histogram(
            "paillier_dispatch_chunk_items", buckets=SIZE_BUCKETS,
            op=op,
        )
        for chunk in chunks:
            size_histogram.observe(len(chunk))
    results = executor.map(fn, [(chunk,) + extra for chunk in chunks])
    out: list = []
    for part in results:
        out.extend(part)
    return out


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
        workers: process-pool size for chunked dispatch; ``0`` keeps
            everything in-process (the sequential engine).
        pool_size: target size of the offline blinding-factor pool.
        window_bits: digit width of the matvec kernel's digit tables
            (``2^w - 1`` powers per input ciphertext).
        seed: seeds the pool RNG so pooled encryption is
            deterministic; ``rng`` overrides it.  With neither, the
            pool uses fresh OS randomness.
        rng: explicit randomness source for the pool.
        dispatch_min_items: process-dispatch break-even threshold —
            batches smaller than this run inline even when workers are
            available (``None`` uses
            :data:`DEFAULT_DISPATCH_MIN_ITEMS`).  ``force_parallel``
            drops it to 1 so tests can exercise the process path with
            tiny batches.
        backend: bigint backend name (``"auto"``/``"python"``/
            ``"gmpy2"``) or a :class:`~repro.crypto.backend
            .BigintBackend` instance.  All backends are bit-identical;
            ``auto`` picks gmpy2 when importable.
        power_cache_entries: LRU bound on the cross-call digit-table
            cache used by the compressed matvec paths.
        power_cache_labels: metric labels attached to the
            ``paillier_power_cache_entries`` gauge — fleet workers
            label each session engine's cache (``worker=``,
            ``tenant=``) so per-tenant cache sizes stay separable in
            a shared registry.  Empty labels keep the plain gauge.
    """

    def __init__(
        self,
        public_key: PaillierPublicKey,
        *,
        private_key: PaillierPrivateKey | None = None,
        workers: int = 0,
        pool_size: int = DEFAULT_POOL_SIZE,
        window_bits: int = DEFAULT_WINDOW_BITS,
        seed: int | None = None,
        rng: random.Random | None = None,
        force_parallel: bool = False,
        obs: Observability | None = None,
        dispatch_min_items: int | None = None,
        backend: str | BigintBackend = "auto",
        power_cache_entries: int = DEFAULT_POWER_CACHE_ENTRIES,
        power_cache_labels: dict | None = None,
    ):
        if workers < 0:
            raise CryptoError(f"workers must be >= 0, got {workers}")
        if private_key is not None \
                and private_key.public_key.n != public_key.n:
            raise KeyMismatchError("private key does not match public key")
        if dispatch_min_items is None:
            dispatch_min_items = DEFAULT_DISPATCH_MIN_ITEMS
        if dispatch_min_items < 1:
            raise CryptoError(
                f"dispatch_min_items must be >= 1, got {dispatch_min_items}"
            )
        self.public_key = public_key
        self.private_key = private_key
        self.workers = workers
        self.window_bits = window_bits
        self.dispatch_min_items = (1 if force_parallel
                                   else dispatch_min_items)
        self.backend = resolve_backend(backend)
        self.obs = obs if obs is not None else OBS_OFF
        # Process dispatch on a box with fewer cores than workers just
        # time-slices the same arithmetic plus fork/pickle overhead, so
        # the effective pool is capped at the core count.  Tests use
        # force_parallel to exercise the process path regardless.
        self.effective_workers = (
            workers if force_parallel
            else min(workers, os.cpu_count() or 1)
        )
        self._executor: ProcessPoolExecutor | None = None
        if rng is None:
            rng = random.Random(seed) if seed is not None else random.Random()
        self.pool = BlindingPool(
            public_key, rng, target_size=pool_size,
            private_key=private_key, obs=self.obs, backend=self.backend,
        )
        # Batch-size histograms, resolved once (no-ops when disabled).
        registry = self.obs.registry
        self.power_cache = PowerCache(
            power_cache_entries,
            gauge=registry.gauge("paillier_power_cache_entries",
                                 **(power_cache_labels or {})),
        )
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
        self._m_fold_cells = {
            op: registry.counter("paillier_fold_cells", op=op)
            for op in ("fold", "decrypt")
        }
        self._m_fold_values = {
            op: registry.counter("paillier_fold_values", op=op)
            for op in ("fold", "decrypt")
        }
        self._m_zero_skipped = registry.counter(
            "paillier_compress_zero_skipped"
        )
        self._m_compress_ops = {
            op: registry.counter("paillier_compress_ops", op=op)
            for op in ("fc_matvec", "conv_im2col")
        }

    # -- lifecycle ------------------------------------------------------

    def _maybe_executor(self) -> ProcessPoolExecutor | None:
        if self.effective_workers <= 1:
            return None
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.effective_workers
            )
        return self._executor

    def prefill(self, count: int | None = None) -> None:
        """Precompute blinding factors now (the offline phase)."""
        target = self.pool.target_size if count is None else count
        missing = target - len(self.pool)
        if missing > 0:
            self.pool.refill(missing)

    def close(self) -> None:
        """Shut the process pool down."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

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
        # The CRT constants are hoisted once per batch, and the chunk
        # kernel runs on this engine's backend inline as well as in
        # the pool.
        extra = (
            self.public_key.n, priv.p, priv.q,
            priv.p * priv.p, priv.q * priv.q,
            priv._h_p, priv._h_q, priv._q_inv_p,
            self.backend.name,
        )
        executor = self._maybe_executor()
        if executor is not None \
                and len(ciphertexts) >= self.dispatch_min_items:
            return _run_chunked(
                executor, _decrypt_chunk, ciphertexts, extra,
                registry=self.obs.registry if self.obs.enabled
                else None,
                op="decrypt",
            )
        return _decrypt_chunk((ciphertexts,) + extra)

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

    def scalar_mul_many(self, ciphertexts: Sequence[int],
                        weights: Sequence[int]) -> list[int]:
        """Element-wise ``c_i^{w_i} mod n^2`` (one column each)."""
        if len(ciphertexts) != len(weights):
            raise CryptoError("scalar_mul_many length mismatch")
        n_sq = self.public_key.n_squared
        powmod = self.backend.powmod
        invert = self.backend.invert
        out = []
        for c, w in zip(ciphertexts, weights):
            if w < 0:
                out.append(powmod(invert(c, n_sq), -w, n_sq))
            else:
                out.append(powmod(c, w, n_sq))
        return out

    def matvec(
        self,
        cells: Sequence[int],
        weights,
        bias: Sequence[int],
    ) -> list[int]:
        """Homomorphic ``y = W x + b`` over raw ciphertexts.

        Args:
            cells: input ciphertexts (length = in_dim).
            weights: integer matrix, shape (out_dim, in_dim); ndarray
                or nested sequences.
            bias: ciphertexts of the (already encrypted) bias,
                length = out_dim.

        Returns:
            raw output ciphertexts, length = out_dim.
        """
        rows = _int_rows(weights)
        cells = list(cells)
        bias = list(bias)
        if rows and len(rows[0]) != len(cells):
            raise CryptoError(
                f"weights row length {len(rows[0])} != input size "
                f"{len(cells)}"
            )
        if len(rows) != len(bias):
            raise CryptoError(
                f"weights rows {len(rows)} != bias size {len(bias)}"
            )
        n_sq = self.public_key.n_squared
        self._m_matvec_cells.observe(len(cells))
        executor = self._maybe_executor()
        if executor is not None and len(cells) >= self.dispatch_min_items:
            workers = executor._max_workers
            per = -(-len(cells) // workers)
            jobs = []
            for start in range(0, len(cells), per):
                stop = start + per
                jobs.append((
                    cells[start:stop],
                    [row[start:stop] for row in rows],
                    n_sq,
                    self.window_bits,
                    self.backend.name,
                ))
            return self._pooled_matvec(executor, _matvec_chunk, jobs,
                                       "matvec", bias)
        stats = self._kernel_stats()
        partial = _matvec_partial(cells, rows, n_sq, self.window_bits,
                                  stats=stats, backend=self.backend)
        self._publish_kernel_stats(stats)
        return [b * v % n_sq for b, v in zip(bias, partial)]

    def _pooled_matvec(self, executor, chunk_fn, jobs, op,
                       bias) -> list[int]:
        """Run column-slice ``jobs`` on the process pool and fold the
        per-row partial products into ``bias``."""
        if self.obs.enabled:
            registry = self.obs.registry
            registry.counter("paillier_dispatch_chunks",
                             op=op).inc(len(jobs))
            size_histogram = registry.histogram(
                "paillier_dispatch_chunk_items",
                buckets=SIZE_BUCKETS, op=op,
            )
            for job in jobs:
                size_histogram.observe(len(job[0]))
        modulus = self.backend.wrap(self.public_key.n_squared)
        out = list(bias)
        for part in executor.map(chunk_fn, jobs):
            out = [int(acc * v % modulus) for acc, v in zip(out, part)]
        return out

    def _kernel_stats(self) -> dict | None:
        """Fresh decision tallies for one inline kernel call (worker
        processes would have to ship theirs back), or ``None`` with
        observability off."""
        if not self.obs.enabled:
            return None
        return dict.fromkeys(KERNEL_STATS, 0)

    def _publish_kernel_stats(self, stats: dict | None) -> None:
        if stats is None:
            return
        registry = self.obs.registry
        for key, value in stats.items():
            if value:
                registry.counter(f"paillier_power_cache_{key}").inc(value)

    # -- compression-aware paths ----------------------------------------

    def fc_matvec(
        self,
        cells: Sequence[int],
        weights=None,
        bias: Sequence[int] | None = None,
        *,
        plan: SparseMatvecPlan | None = None,
    ) -> list[int]:
        """Compression-aware ``y = W x + b`` for a fully-connected layer.

        Identical semantics to :meth:`matvec`, but evaluated through a
        :class:`~repro.crypto.sparse.SparseMatvecPlan`: zero weights
        are skipped outright (counted in
        ``paillier_compress_zero_skipped``), each distinct (ciphertext,
        cluster) pair is handled once, and digit tables persist across
        calls in the engine's bounded :class:`PowerCache`.  Pass a
        prebuilt ``plan`` to skip the per-call index build (the
        production path builds one per layer at rewrite time);
        otherwise one is derived from ``weights``.
        Bit-identical to :meth:`matvec` on the surviving weights.
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
        """Compression-aware convolution over an im2col weight matrix.

        The matrix rows are output positions and the columns im2col
        patches, exactly as :func:`repro.scaling.fixed_point
        ._conv_as_matrix` lays them out.  Convolutions benefit twice:
        the same kernel weight recurs across every output position
        (cluster dedup) and pruned kernels zero whole diagonals
        (sparsity).  Same engine semantics as :meth:`fc_matvec`.
        """
        return self._compressed_matvec(cells, weights, bias, plan,
                                       op="conv_im2col")

    def _compressed_matvec(self, cells, weights, bias, plan, op):
        cells = list(cells)
        bias = list(bias) if bias is not None else []
        if plan is None:
            if weights is None:
                raise CryptoError(
                    "compressed matvec needs weights or a prebuilt plan"
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
        columns = [(cells[i], groups) for i, groups in plan.columns]
        executor = self._maybe_executor()
        if executor is not None \
                and len(columns) >= self.dispatch_min_items:
            # Worker processes cannot share the engine's power cache;
            # each chunk builds (and drops) its own tables.
            workers = executor._max_workers
            per = -(-len(columns) // workers)
            jobs = [
                (columns[start:start + per], plan.out_dim, n_sq,
                 self.window_bits, self.backend.name)
                for start in range(0, len(columns), per)
            ]
            return self._pooled_matvec(executor, _sparse_chunk, jobs,
                                       op, bias)
        stats = self._kernel_stats()
        partial = _sparse_partial(
            columns, plan.out_dim, n_sq, self.window_bits,
            backend=self.backend, cache=self.power_cache, stats=stats,
        )
        self._publish_kernel_stats(stats)
        modulus = self.backend.wrap(n_sq)
        return [int(b * v % modulus) for b, v in zip(bias, partial)]

    def reset_power_cache(self) -> None:
        """Drop all cross-call digit tables (frees their memory
        and zeroes the ``paillier_power_cache_entries`` gauge)."""
        self.power_cache.reset()

    # -- homomorphic addition -------------------------------------------

    def add_dispatch(self, count: int) -> bool:
        """Whether :meth:`add_many` would process-dispatch ``count``
        adds.  An add is one modular multiply — far below the pow-bound
        work ``dispatch_min_items`` was calibrated against — so the
        break-even batch is ``dispatch_min_items *``
        :data:`ADD_DISPATCH_FACTOR` (1 under ``force_parallel``)."""
        if self.effective_workers <= 1:
            return False
        if self.dispatch_min_items <= 1:
            return count >= 1
        return count >= self.dispatch_min_items * ADD_DISPATCH_FACTOR

    def add_many(self, lefts: Sequence[int],
                 rights: Sequence[int]) -> list[int]:
        """Pairwise homomorphic addition of raw ciphertexts
        (``E(a) * E(b) = E(a + b)``), process-dispatched only above
        the :meth:`add_dispatch` break-even."""
        if len(lefts) != len(rights):
            raise CryptoError("add_many length mismatch")
        n_sq = self.public_key.n_squared
        if self.add_dispatch(len(lefts)):
            executor = self._maybe_executor()
            if executor is not None:
                pairs = list(zip(lefts, rights))
                return _run_chunked(
                    executor, _mulmod_chunk, pairs,
                    (n_sq, self.backend.name),
                    registry=self.obs.registry if self.obs.enabled
                    else None,
                    op="add",
                )
        modulus = self.backend.wrap(n_sq)
        return [int(a * b % modulus)
                for a, b in zip(lefts, rights)]

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

        Reuses :meth:`matvec` wholesale (process dispatch, the
        multi-exponentiation kernel), then repairs the lane offsets:
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
            plan: optional sparse plan — routes the product through
                the compressed :meth:`fc_matvec` path (zero-skip,
                cluster dedup, digit-table cache) and takes the row weight
                sums the rebias needs from the plan.  ``weights`` may
                then be ``None``.

        Returns:
            raw packed output ciphertexts at the canonical offset.
        """
        if packer.public_key.n != self.public_key.n:
            raise KeyMismatchError(
                "packer was built for a different public key"
            )
        if plan is not None:
            out = self.fc_matvec(cells, weights, bias, plan=plan)
            row_sums: Sequence[int] = plan.row_weight_sums
        else:
            rows = _int_rows(weights)
            out = self.matvec(cells, rows, bias)
            row_sums = [sum(row) for row in rows]
        in_off = packer.offset if input_offset is None else input_offset
        b_off = packer.offset if bias_offset is None else bias_offset
        target = packer.offset
        rebias = [
            packer.rebias_residue(target - (in_off * row_sum + b_off))
            for row_sum in row_sums
        ]
        out = self.add_plain_many(out, rebias)
        self._m_packed_matvec.inc(len(out))
        return out

    # -- output folding -------------------------------------------------

    def fold_many(self, ciphertexts: Sequence[int],
                  packer: LanePacker) -> list[int]:
        """Fold each run of ``k = packer.lanes`` consecutive raw
        ciphertexts into one, with public-key operations only.

        Block ``j`` holds positions ``j*k .. j*k + r - 1`` (``r = k``
        except possibly for the last block) and becomes, by Horner's
        rule in base ``2^L`` (``L = packer.lane_bits``)::

            C_j = ((c_{jk+r-1}^(2^L) * c_{jk+r-2})^(2^L) ... * c_{jk})
                  * (1 + n * offset * ones_r)  mod n^2

        so lane ``l`` of ``C_j`` decrypts to the value at position
        ``j*k + l`` plus the packer's canonical offset (``ones_r`` has
        a 1 at the bottom of each of the ``r`` occupied lanes; the
        lanes above stay empty).  That is ``r - 1`` powmods by
        ``2^L`` and ``r`` multiplies per block and no new randomness:
        ``C_j`` is a public function of ciphertexts the caller would
        otherwise have sent one by one.
        """
        if packer.public_key.n != self.public_key.n:
            raise KeyMismatchError(
                "packer was built for a different public key"
            )
        n = self.public_key.n
        n_sq = self.public_key.n_squared
        k = packer.lanes
        shift = 1 << packer.lane_bits
        powmod = self.backend.powmod
        modulus = self.backend.wrap(n_sq)
        # One offset term per block length (only the last block can
        # be short).
        offsets: dict[int, int] = {}
        out = []
        for start in range(0, len(ciphertexts), k):
            block = ciphertexts[start:start + k]
            acc = block[-1]
            for cipher in reversed(block[:-1]):
                acc = powmod(acc, shift, n_sq) * cipher % modulus
            r = len(block)
            term = offsets.get(r)
            if term is None:
                ones = sum(1 << (lane * packer.lane_bits)
                           for lane in range(r))
                term = offsets[r] = 1 + n * (packer.offset * ones % n)
            out.append(int(acc * term % modulus))
        self._m_fold_cells["fold"].inc(len(out))
        self._m_fold_values["fold"].inc(len(ciphertexts))
        return out

    def decrypt_many_folded(
        self,
        encrypted: Sequence[EncryptedNumber],
        packer: LanePacker,
        counts: Sequence[int],
    ) -> list[int]:
        """Decrypt folded ciphertexts and unpack their lanes, in order:
        one CRT decryption per ciphertext, ``counts[i]`` signed values
        out of ciphertext ``i`` (:meth:`LanePacker.unpack_exact`)."""
        if len(encrypted) != len(counts):
            raise CryptoError(
                f"{len(counts)} lane counts for {len(encrypted)} "
                "folded ciphertexts"
            )
        residues = self.decrypt_many(encrypted)
        out: list[int] = []
        for residue, count in zip(residues, counts):
            out.extend(packer.unpack_exact(residue, count))
        self._m_fold_cells["decrypt"].inc(len(residues))
        self._m_fold_values["decrypt"].inc(len(out))
        return out


def _int_rows(weights) -> list[list[int]]:
    """Normalize a weight matrix to a list of rows of Python ints."""
    try:
        arr = np.asarray(weights)
    except ValueError as exc:   # ragged rows
        raise CryptoError(f"weights must be a rectangular matrix: {exc}")
    if arr.ndim != 2:
        raise CryptoError(f"weights must be 2-D, got shape {arr.shape}")
    rows = arr.tolist()
    if arr.dtype == object:
        rows = [[int(w) for w in row] for row in rows]
    return rows


# ----------------------------------------------------------------------
# Default (sequential) engines, one per public key: existing scalar
# callers route through these and pick the batched kernels up for free.
# ----------------------------------------------------------------------

_default_engines: dict[int, PaillierEngine] = {}


def default_engine(public_key: PaillierPublicKey) -> PaillierEngine:
    """The shared sequential engine for a public key.

    ``workers`` comes from :data:`repro.config.DEFAULT_CONFIG` (0 by
    default, so no processes are spawned behind anyone's back); parties
    that want parallelism construct their own engine from their config.
    """
    engine = _default_engines.get(public_key.n)
    if engine is None:
        from ..config import DEFAULT_CONFIG

        engine = PaillierEngine(
            public_key,
            workers=DEFAULT_CONFIG.workers,
            pool_size=DEFAULT_CONFIG.blinding_pool_size,
            window_bits=DEFAULT_CONFIG.power_window_bits,
            dispatch_min_items=DEFAULT_CONFIG.dispatch_min_items,
            backend=DEFAULT_CONFIG.bigint_backend,
            power_cache_entries=DEFAULT_CONFIG.power_cache_entries,
        )
        _default_engines[public_key.n] = engine
    return engine
