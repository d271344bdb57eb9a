"""Property-based tests for the column-schedule compiler.

:func:`repro.crypto.sparse.compile_schedule` turns a column's distinct
|w| values into one addition sequence; :class:`SparseMatvecPlan` keeps
one per column.  For any set of weights the schedule must reach every
|w| in the slot its uses name, reach nothing above the largest, stay
short (O(log |w|) steps per value) and be a pure function of the
column structure — so plans compiled from a dense matrix, from the
wire and from a pickle run identical schedules.
"""

import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.backend import HAVE_GMPY2, resolve_backend
from repro.crypto.paillier import generate_keypair
from repro.crypto.sparse import (
    SparseMatvecPlan,
    compile_schedule,
    compile_schedules,
)
from repro.errors import CryptoError
from repro.net.wire import plan_from_wire, plan_to_wire

PUBLIC, _ = generate_keypair(128, seed=7)

BACKENDS = ["python"] + (["gmpy2"] if HAVE_GMPY2 else [])

#: |w| from 1 to far past 2^(3*6): the sizes a 6-bit digit kernel
#: needed three or more digit positions for, and arbitrary precision.
magnitudes = st.one_of(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=1 << 20),
    st.integers(min_value=1 << 18, max_value=1 << 200),
)
target_sets = st.lists(magnitudes, min_size=1, max_size=24)
signed_weights = st.one_of(
    st.just(0),
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
)


def run_on_integers(steps):
    """The schedule's slot values under addition (c^v <-> v)."""
    values = [0, 1]
    for a, b in steps:
        values.append(values[a] + values[b])
    return values


def matrices(out_dim, in_dim):
    return st.lists(
        st.lists(signed_weights, min_size=in_dim, max_size=in_dim),
        min_size=out_dim, max_size=out_dim,
    )


class TestCompileSchedule:
    @settings(max_examples=200, deadline=None)
    @given(targets=target_sets)
    def test_every_target_lands_in_its_slot(self, targets):
        steps, slot_of = compile_schedule(targets)
        values = run_on_integers(steps)
        for target in targets:
            assert values[slot_of[target]] == target
        for value, slot in slot_of.items():
            assert values[slot] == value
        # Every step reaches a new value, none above the largest target.
        assert len(set(values)) == len(values)
        assert max(values) == max(targets)

    @settings(max_examples=200, deadline=None)
    @given(targets=target_sets)
    def test_steps_are_logarithmic_per_value(self, targets):
        steps, _ = compile_schedule(targets)
        assert len(steps) <= sum(2 * t.bit_length() for t in set(targets))

    @settings(max_examples=100, deadline=None)
    @given(targets=target_sets, seed=st.randoms())
    def test_deterministic_and_order_free(self, targets, seed):
        shuffled = list(targets)
        seed.shuffle(shuffled)
        assert compile_schedule(targets) == compile_schedule(shuffled)

    def test_all_ones_need_no_steps(self):
        steps, slot_of = compile_schedule([1, 1, 1])
        assert steps == ()
        assert slot_of[1] == 1

    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive_targets_rejected(self, bad):
        with pytest.raises(CryptoError):
            compile_schedule([3, bad])

    def test_huge_target_compiles_without_recursion(self):
        target = (1 << 5000) - 12345
        steps, slot_of = compile_schedule([target])
        assert run_on_integers(steps)[slot_of[target]] == target
        assert len(steps) <= 2 * target.bit_length()

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=25, deadline=None)
    @given(targets=st.lists(st.integers(min_value=1, max_value=1 << 40),
                            min_size=1, max_size=12),
           seed=st.integers(min_value=0, max_value=2 ** 31))
    def test_slots_hold_the_powers(self, backend, targets, seed):
        """Run on a ciphertext with the backend's multiply, each
        target's slot holds ``c^target mod n^2``."""
        arithmetic = resolve_backend(backend)
        modulus = arithmetic.wrap(PUBLIC.n_squared)
        base = random.Random(seed).randrange(2, PUBLIC.n_squared)
        steps, slot_of = compile_schedule(targets)
        slots = [1, arithmetic.wrap(base)]
        for a, b in steps:
            slots.append(slots[a] * slots[b] % modulus)
        for target in targets:
            assert int(slots[slot_of[target]]) \
                == pow(base, target, PUBLIC.n_squared)


class TestPlanSchedules:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           out_dim=st.integers(min_value=1, max_value=6),
           in_dim=st.integers(min_value=1, max_value=6))
    def test_uses_name_the_slot_of_their_weight(self, data, out_dim,
                                                in_dim):
        weights = data.draw(matrices(out_dim, in_dim))
        plan = SparseMatvecPlan.from_dense(weights)
        assert len(plan.schedules) == len(plan.columns)
        negative = set()
        for (i, groups), (steps, uses) in zip(plan.columns,
                                              plan.schedules):
            values = run_on_integers(steps)
            assert len(uses) == len(groups)
            for (w, rows), (slot, use_rows, is_negative) in zip(groups,
                                                                uses):
                assert values[slot] == abs(w)
                assert use_rows == rows
                assert is_negative == (w < 0)
                for j in rows:
                    assert weights[j][i] == w
                if w < 0:
                    negative.update(rows)
        assert plan.negative_rows == tuple(sorted(negative))
        assert plan.schedule_steps == sum(len(s) for s, _ in plan.schedules)
        assert plan.mult_counts()["scatter"] == plan.nnz == sum(
            1 for row in weights for w in row if w)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           out_dim=st.integers(min_value=1, max_value=6),
           in_dim=st.integers(min_value=1, max_value=6))
    def test_counts_are_deterministic(self, data, out_dim, in_dim):
        weights = data.draw(matrices(out_dim, in_dim))
        first = SparseMatvecPlan.from_dense(weights)
        second = SparseMatvecPlan.from_dense(weights)
        assert first.schedules == second.schedules
        assert first.mult_counts() == second.mult_counts()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           out_dim=st.integers(min_value=1, max_value=6),
           in_dim=st.integers(min_value=1, max_value=6))
    def test_wire_and_pickle_carry_the_same_schedules(self, data,
                                                      out_dim, in_dim):
        weights = data.draw(matrices(out_dim, in_dim))
        plan = SparseMatvecPlan.from_dense(weights)
        wired = plan_from_wire(json.loads(json.dumps(plan_to_wire(plan))))
        pickled = pickle.loads(pickle.dumps(plan))
        for other in (wired, pickled):
            assert other == plan
            assert hash(other) == hash(plan)
            assert other.schedules == plan.schedules
            assert other.mult_counts() == plan.mult_counts()
        assert "schedules" not in plan_to_wire(plan)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(min_value=1, max_value=8),
           cols=st.integers(min_value=1, max_value=8),
           sign=st.sampled_from([1, -1]))
    def test_all_one_weight_columns_run_no_steps(self, rows, cols, sign):
        plan = SparseMatvecPlan.from_dense([[sign] * cols] * rows)
        assert plan.schedule_steps == 0
        assert plan.mult_counts()["scatter"] == rows * cols
        assert all(slot == 1 for _, uses in plan.schedules
                   for slot, _, _ in uses)

    def test_equal_target_sets_share_one_sequence(self):
        columns = [(0, ((3, (0,)), (-5, (1,)))),
                   (1, ((-3, (1,)), (5, (0,))))]
        first, second = compile_schedules(columns)
        assert first[0] is second[0]
