"""Per-layer matvec plans: the sparse column index and the compiled
schedules every homomorphic matvec runs.

A linear layer's weights are static, so everything about *how* to
evaluate ``out_j = prod_i c_i^(w_ji) mod n^2`` can be decided once per
layer, before any ciphertext exists:

* **Sparsity** — zero weights need no work at all: no exponentiation,
  no multiply, not even a scan.
* **Few distinct values** — within one column (one input ciphertext)
  the same |weight| recurs across many output rows (an im2col conv
  matrix repeats every kernel weight at every output position; weight
  clustering collapses a layer to k values).
* **Addition sequences** — the column's distinct |w| values are all
  reached by one addition sequence (:func:`compile_schedule`): a list
  of steps, each adding two values already reached.  Run on a
  ciphertext ``c``, each step is one modular multiply and leaves
  ``c^value`` in its slot, so a column costs one multiply per step to
  form every power it needs and then exactly one multiply per use.

:class:`SparseMatvecPlan` holds both structures: for every nonzero
input column, the output rows grouped by weight, and the column's
compiled schedule.  The plan holds no ciphertexts and no key material,
so one plan serves every request through a layer.  Evaluation through
a plan is bit-identical to the scalar reference — modular products do
not care about the order their factors were formed in.

:meth:`SparseMatvecPlan.compression_stats` exports the density and
cluster structure as a :class:`repro.costs.CompressionStats`, which is
how the planner's cost model learns that a compressed layer is cheap
(:func:`repro.planner.profiling.profile_primitive_times`).
"""

from __future__ import annotations

import operator
from bisect import bisect_left, insort
from typing import Iterable, Sequence, Tuple

import numpy as np

from ..costs import CompressionStats
from ..errors import CryptoError

#: Type of one plan column: (input index, ((weight, (rows...)), ...)).
PlanColumn = Tuple[int, Tuple[Tuple[int, Tuple[int, ...]], ...]]

#: Type of one column's compiled schedule: ``(steps, uses)``.  Run
#: from the slots ``[1, c]``, step ``k = (a, b)`` appends slot ``k + 2
#: = slot[a] * slot[b]``; each use ``(slot, rows, negative)``
#: multiplies that slot into the numerator (or, for a negative weight,
#: the denominator) of every row in ``rows``.
ColumnSchedule = Tuple[Tuple[Tuple[int, int], ...],
                       Tuple[Tuple[int, Tuple[int, ...], bool], ...]]


def plan_if_worthwhile(weights) -> "SparseMatvecPlan":
    """:meth:`SparseMatvecPlan.from_dense` — every matrix gets a plan.

    The name predates plans for every layer; it stays because
    ``perfbench/layers.py`` imports it, and goes with the next PR that
    edits ``perfbench/``.
    """
    return SparseMatvecPlan.from_dense(weights)


def compile_schedule(targets: Iterable[int]):
    """An addition sequence from 1 through every value in ``targets``.

    Values are taken in ascending order; one that is not yet reached
    is made by the first rule that applies:

    1. it is the sum of two reached values — one step;
    2. else the largest reached value below it leaves a remainder no
       larger than itself — reach the remainder, then add;
    3. else double: reach ``value // 2`` (and for an odd value
       ``value - 1``), then add.

    Every value reached on the way is at most the largest target, and
    the pending values live on an explicit stack, so arbitrary-
    precision weights compile in O(log |w|) depth.

    Returns:
        ``(steps, slot_of)``: the ``(a, b)`` slot pairs (slot 0 holds
        the value 0, slot 1 the value 1, step ``k`` fills slot ``k +
        2`` with the sum of slots ``a`` and ``b``) and a map from every
        reached value to its slot.
    """
    slot_of = {0: 0, 1: 1}
    reached = [1]                       # ascending, for both searches
    steps: list[tuple[int, int]] = []
    for target in sorted(set(targets)):
        if target < 1:
            raise CryptoError(f"schedule targets must be >= 1, got {target}")
        pending = [target]
        while pending:
            value = pending[-1]
            if value in slot_of:
                pending.pop()
                continue
            low = 0
            for addend in reached:
                if 2 * addend > value:
                    break
                if value - addend in slot_of:
                    low = addend
                    break
            if low:
                steps.append((slot_of[value - low], slot_of[low]))
                slot_of[value] = len(steps) + 1
                insort(reached, value)
                pending.pop()
                continue
            largest = reached[bisect_left(reached, value) - 1]
            rest = value - largest
            if rest <= largest:
                pending.append(rest)
            elif value // 2 not in slot_of:
                pending.append(value // 2)
            else:                       # odd: 2 * (value // 2) first
                pending.append(value - 1)
    return tuple(steps), slot_of


def compile_schedules(columns: Sequence[PlanColumn]
                      ) -> tuple[ColumnSchedule, ...]:
    """One :data:`ColumnSchedule` per plan column.

    Columns with the same set of distinct |w| share one addition
    sequence (an im2col conv matrix has few such sets).
    """
    sequences: dict[tuple[int, ...], tuple] = {}
    schedules = []
    for _, groups in columns:
        targets = tuple(sorted({abs(w) for w, _ in groups}))
        compiled = sequences.get(targets)
        if compiled is None:
            compiled = sequences[targets] = compile_schedule(targets)
        steps, slot_of = compiled
        uses = tuple((slot_of[abs(w)], rows, w < 0) for w, rows in groups)
        schedules.append((steps, uses))
    return tuple(schedules)


class SparseMatvecPlan:
    """Per-layer sparse column index plus compiled column schedules.

    Attributes:
        in_dim, out_dim: dense shape of the underlying weight matrix.
        columns: nonzero columns only; each entry is ``(i, groups)``
            where ``groups`` is a tuple of ``(weight, rows)`` pairs —
            the distinct nonzero weights of column ``i`` (ascending)
            and the output rows using each.  Ascending weight order is
            part of the plan's deterministic identity: two plans built
            from equal matrices are equal structure.
        schedules: one :data:`ColumnSchedule` per entry of
            ``columns``, compiled at construction
            (:func:`compile_schedules`).  Derived from ``columns``, so
            never on the wire and outside ``==`` / ``hash``.
        nnz: number of nonzero weight cells (== multiplies the
            schedules' uses cost per evaluation).
        schedule_steps: total schedule steps (== multiplies that form
            the columns' powers per evaluation).
        negative_rows: output rows with at least one negative weight,
            ascending — the rows the batched inversion covers.
        distinct_values: number of distinct nonzero weight values in
            the whole matrix (== cluster count for a clustered layer).
        row_weight_sums: per-output-row sum of all weights (the packed
            path's rebias needs it; zeros contribute nothing, so the
            sparse sum equals the dense sum).
        max_weight_bits: bit length of the largest |weight|.
    """

    __slots__ = ("in_dim", "out_dim", "columns", "schedules", "nnz",
                 "schedule_steps", "negative_rows",
                 "distinct_values", "distinct_pairs",
                 "row_weight_sums", "max_weight_bits")

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        columns: Sequence[PlanColumn],
        row_weight_sums: Sequence[int],
    ):
        if in_dim < 0 or out_dim < 0:
            raise CryptoError("plan dimensions must be non-negative")
        if len(row_weight_sums) != out_dim:
            raise CryptoError(
                f"row_weight_sums length {len(row_weight_sums)} != "
                f"out_dim {out_dim}"
            )
        values: set[int] = set()
        seen_columns: set[int] = set()
        negative: set[int] = set()
        nnz = 0
        pairs = 0
        max_abs = 0
        for i, groups in columns:
            if not 0 <= i < in_dim:
                raise CryptoError(f"plan column {i} out of range")
            if i in seen_columns:
                # A repeated column would silently apply that input
                # twice — reject it here, where a tampered wire plan
                # surfaces as a clean decode error.
                raise CryptoError(f"plan column {i} appears twice")
            seen_columns.add(i)
            for weight, rows in groups:
                if weight == 0:
                    raise CryptoError("plan must not contain zero weights")
                values.add(weight)
                pairs += 1
                nnz += len(rows)
                max_abs = max(max_abs, abs(weight))
                for j in rows:
                    if not 0 <= j < out_dim:
                        raise CryptoError(f"plan row {j} out of range")
                if weight < 0:
                    negative.update(rows)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.columns = tuple(
            (i, tuple((w, tuple(rows)) for w, rows in groups))
            for i, groups in columns
        )
        self.schedules = compile_schedules(self.columns)
        self.schedule_steps = sum(len(steps)
                                  for steps, _ in self.schedules)
        self.negative_rows = tuple(sorted(negative))
        self.nnz = nnz
        self.distinct_values = len(values)
        #: Total distinct (column, weight) pairs.
        self.distinct_pairs = pairs
        self.row_weight_sums = tuple(int(s) for s in row_weight_sums)
        self.max_weight_bits = max_abs.bit_length()

    # ------------------------------------------------------------------

    @classmethod
    def from_dense(cls, weights) -> "SparseMatvecPlan":
        """Build the plan from a dense integer matrix (ndarray or
        nested sequences; object dtype for arbitrary precision).

        Raises:
            CryptoError: ``weights`` is not a rectangular 2-D matrix.
        """
        try:
            arr = np.asarray(weights)
            if arr.dtype.kind == "f" \
                    and not isinstance(weights, np.ndarray):
                # numpy stores Python ints in [2^63, 2^64) as float64,
                # rounding them: keep nested sequences exact instead.
                arr = np.asarray(weights, dtype=object)
        except ValueError as exc:       # ragged rows
            raise CryptoError(
                f"weights must be a rectangular matrix: {exc}"
            ) from exc
        if arr.ndim != 2:
            raise CryptoError(
                f"weights must be 2-D, got shape {arr.shape}"
            )
        rows = arr.tolist()
        if arr.dtype == object:
            try:
                rows = [[operator.index(w) for w in row] for row in rows]
            except TypeError as exc:
                raise CryptoError(
                    f"weights must be integers: {exc}"
                ) from exc
        out_dim = len(rows)
        in_dim = len(rows[0]) if rows else 0
        columns: list[PlanColumn] = []
        for i in range(in_dim):
            by_weight: dict[int, list[int]] = {}
            for j in range(out_dim):
                w = rows[j][i]
                if w:
                    by_weight.setdefault(w, []).append(j)
            if by_weight:
                groups = tuple(
                    (w, tuple(by_weight[w])) for w in sorted(by_weight)
                )
                columns.append((i, groups))
        row_sums = [sum(row) for row in rows]
        return cls(in_dim, out_dim, columns, row_sums)

    # ------------------------------------------------------------------

    @property
    def total(self) -> int:
        """Dense cell count of the underlying matrix."""
        return self.in_dim * self.out_dim

    @property
    def density(self) -> float:
        """Fraction of nonzero cells (1.0 for a dense matrix)."""
        return self.nnz / self.total if self.total else 1.0

    @property
    def sparsity(self) -> float:
        return 1.0 - self.density

    @property
    def distinct_per_column(self) -> float:
        """Mean distinct weights per *nonzero* column — the number of
        powers one input ciphertext needs."""
        if not self.columns:
            return 0.0
        return self.distinct_pairs / len(self.columns)

    def mult_counts(self) -> dict[str, int]:
        """Modular multiplies one evaluation performs, by kernel part:
        ``schedule`` (forming the columns' powers), ``scatter`` (one
        per use) and ``invert`` (the Montgomery batched inversion of
        :attr:`negative_rows`: ``4p - 3`` multiplies for ``p`` rows,
        plus one modular inverse)."""
        pending = len(self.negative_rows)
        return {
            "schedule": self.schedule_steps,
            "scatter": self.nnz,
            "invert": 4 * pending - 3 if pending else 0,
        }

    def compression_stats(self) -> CompressionStats:
        """Export the structure the planner cost model consumes."""
        return CompressionStats(
            density=self.density,
            clusters=self.distinct_values or None,
            distinct_per_column=self.distinct_per_column or None,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatvecPlan):
            return NotImplemented
        return (self.in_dim == other.in_dim
                and self.out_dim == other.out_dim
                and self.columns == other.columns)

    def __hash__(self) -> int:
        return hash((self.in_dim, self.out_dim, self.columns))

    def __repr__(self) -> str:
        return (
            f"SparseMatvecPlan(shape=({self.out_dim}, {self.in_dim}), "
            f"nnz={self.nnz}/{self.total}, "
            f"distinct_values={self.distinct_values}, "
            f"schedule_steps={self.schedule_steps})"
        )
