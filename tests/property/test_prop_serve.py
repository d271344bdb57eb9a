"""Property-based serving invariants.

Two laws hold for any input the strategies can draw:

1. The job FSM only ever takes edges in ``LEGAL_TRANSITIONS``: a
   random attack sequence of transitions succeeds exactly when the
   edge is legal, a job reaches at most one terminal state, and the
   walk replayed from the successful edges lands on the same state.
2. Admission control's accounting identity ``accepted + shed ==
   submitted`` holds for any submission pattern, queue capacity, and
   quota — with per-tenant acceptance never exceeding the quota and
   total queue depth never exceeding capacity — and a shutdown drains
   to all-terminal with nothing lost.
"""

from hypothesis import given, settings, strategies as st

from repro.config import RuntimeConfig
from repro.errors import JobStateError
from repro.serve import (
    Job,
    JobManager,
    LEGAL_TRANSITIONS,
    QUEUED,
    SHED,
    TERMINAL_STATES,
)

_STATES = sorted(LEGAL_TRANSITIONS)


@settings(max_examples=200, deadline=None)
@given(attack=st.lists(st.sampled_from(_STATES), max_size=12))
def test_fsm_only_takes_legal_edges(attack):
    job = Job("prop", payload=None)
    state = QUEUED
    terminal_hits = 0
    for target in attack:
        legal = target in LEGAL_TRANSITIONS[state]
        try:
            job.transition(target)
        except JobStateError:
            assert not legal, (state, target)
        else:
            assert legal, (state, target)
            state = target
            if target in TERMINAL_STATES:
                terminal_hits += 1
    assert job.state == state
    assert terminal_hits <= 1
    assert job.terminal == (state in TERMINAL_STATES)
    # Absorption: once terminal, every further edge refuses.
    if job.terminal:
        for target in _STATES:
            try:
                job.transition(target)
                raise AssertionError(
                    f"terminal {state} accepted edge to {target}"
                )
            except JobStateError:
                pass


@settings(max_examples=100, deadline=None)
@given(
    submissions=st.lists(st.integers(min_value=0, max_value=3),
                         min_size=1, max_size=30),
    capacity=st.integers(min_value=1, max_value=6),
    quota=st.integers(min_value=1, max_value=4),
)
def test_admission_accounting_identity(submissions, capacity, quota):
    """With no worker fleet running, admission is a pure function of
    queue depth and quota — audit the identity over any pattern."""
    config = RuntimeConfig(
        serve_queue_capacity=capacity, serve_tenant_quota=quota,
    )
    manager = JobManager(lambda jobs: [{}] * len(jobs), config)
    # Deliberately NOT started: nothing drains the queue, so the
    # accounting is exact and deterministic.
    jobs = [
        manager.submit(f"tenant-{index}", None)
        for index in submissions
    ]
    accepted = [job for job in jobs if job.state == QUEUED]
    shed = [job for job in jobs if job.state == SHED]
    assert len(accepted) + len(shed) == len(submissions)
    assert len(accepted) <= capacity
    per_tenant = {}
    for job in accepted:
        per_tenant[job.tenant] = per_tenant.get(job.tenant, 0) + 1
    assert all(count <= quota for count in per_tenant.values())
    for name, count in per_tenant.items():
        assert manager.inflight(name) == count
    assert len(manager.tracker) == len(submissions)
    # Shutdown drains the queue: every job terminal, none lost.
    manager.shutdown()
    assert manager.tracker.all_terminal()
    counts = manager.tracker.counts()
    assert sum(counts.values()) == len(submissions)
    assert counts.get(SHED, 0) == len(shed)
    assert set(counts) <= TERMINAL_STATES
