"""Job FSM, tracker, and admission-control concurrency battery.

The load-bearing invariant under any interleaving:
``accepted + shed == submitted`` with every job reaching exactly one
terminal state — the hammer test drives a thread storm at a tiny
queue/quota and then audits the tracker against it.
"""

import threading
import time

import pytest

from repro.config import RuntimeConfig
from repro.errors import (
    DeadlineExceededError,
    JobStateError,
    ServeError,
)
from repro.serve import (
    DEADLINE,
    DONE,
    FAILED,
    Job,
    JobManager,
    JobTracker,
    LEGAL_TRANSITIONS,
    QUEUED,
    RUNNING,
    SHED,
    TERMINAL_STATES,
)


def _wait_all_terminal(tracker, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if tracker.all_terminal():
            return True
        time.sleep(0.01)
    return tracker.all_terminal()


class TestJobFSM:
    def test_happy_path_records_timings(self):
        job = Job("t", payload=[1.0])
        assert job.state == QUEUED and not job.terminal
        job.transition(RUNNING)
        assert job.queue_seconds is not None
        job.result = {"prediction": 1}
        job.transition(DONE)
        assert job.terminal
        assert job.service_seconds is not None

    def test_queued_cannot_jump_to_done(self):
        job = Job("t", payload=None)
        with pytest.raises(JobStateError, match="illegal transition"):
            job.transition(DONE)

    @pytest.mark.parametrize("terminal", sorted(TERMINAL_STATES))
    def test_terminal_states_absorb(self, terminal):
        job = Job("t", payload=None)
        if terminal in (DONE,):
            job.transition(RUNNING)
        job.transition(terminal)
        for next_state in LEGAL_TRANSITIONS:
            with pytest.raises(JobStateError):
                job.transition(next_state)

    def test_unknown_state_rejected(self):
        job = Job("t", payload=None)
        with pytest.raises(JobStateError, match="unknown state"):
            job.transition("exploded")

    def test_to_dict_hides_result_until_done(self):
        job = Job("t", payload=None)
        job.result = {"prediction": 2}
        assert "result" not in job.to_dict()
        job.transition(RUNNING)
        job.transition(DONE)
        doc = job.to_dict()
        assert doc["result"] == {"prediction": 2}
        assert doc["state"] == DONE and doc["terminal"]

    def test_to_dict_carries_error(self):
        job = Job("t", payload=None)
        job.error = "boom"
        job.transition(FAILED)
        assert job.to_dict()["error"] == "boom"


class TestJobTracker:
    def test_duplicate_id_rejected(self):
        tracker = JobTracker()
        job = Job("t", payload=None)
        tracker.add(job)
        with pytest.raises(ServeError, match="duplicate job id"):
            tracker.add(Job("t", payload=None, job_id=job.job_id))

    def test_counts_and_terminal(self):
        tracker = JobTracker()
        first, second = Job("a", None), Job("b", None)
        tracker.add(first)
        tracker.add(second)
        assert len(tracker) == 2
        assert not tracker.all_terminal()
        first.transition(SHED)
        second.transition(RUNNING)
        second.transition(DONE)
        assert tracker.all_terminal()
        assert tracker.counts() == {SHED: 1, DONE: 1}
        assert tracker.get(first.job_id) is first
        assert tracker.get("nope") is None

    def test_bounded_history_keeps_the_identity_exact(self):
        """Terminal jobs beyond the cap are evicted, but counts() and
        len() still cover the tracker's whole lifetime — the identity
        stays auditable while memory stays bounded."""
        tracker = JobTracker(max_terminal=2)
        jobs = []
        for index in range(5):
            job = Job("t", payload=[float(index)])
            tracker.add(job)
            job.transition(RUNNING)
            job.transition(DONE)
            tracker.note_terminal(job)
            jobs.append(job)
        assert len(tracker) == 5            # retained + evicted
        assert len(tracker.jobs()) == 2     # memory is bounded
        assert tracker.counts() == {DONE: 5}
        assert tracker.all_terminal()
        # The oldest ids are gone (a status poll would 404) ...
        assert tracker.get(jobs[0].job_id) is None
        assert tracker.get(jobs[2].job_id) is None
        # ... the newest survive, with payloads released.
        assert tracker.get(jobs[4].job_id) is jobs[4]
        assert all(job.payload is None for job in jobs)

    def test_non_terminal_jobs_are_never_evicted(self):
        tracker = JobTracker(max_terminal=1)
        live = Job("t", payload=[1.0])
        tracker.add(live)
        for _ in range(3):
            job = Job("t", payload=None)
            tracker.add(job)
            job.transition(SHED)
            tracker.note_terminal(job)
        assert tracker.get(live.job_id) is live
        assert live.payload == [1.0]
        assert not tracker.all_terminal()
        assert sum(tracker.counts().values()) == 4


def per_job(run_one):
    """A dispatch runner from a one-job function: one outcome per
    job, an exception it raises becoming that job's outcome."""
    def runner(jobs):
        outcomes = []
        for job in jobs:
            try:
                outcomes.append(run_one(job))
            except Exception as exc:  # noqa: BLE001 - the outcome
                outcomes.append(exc)
        return outcomes
    return runner


def _manager(runner, queue_capacity=8, tenant_quota=4,
             default_deadline=30.0):
    config = RuntimeConfig(
        serve_queue_capacity=queue_capacity,
        serve_tenant_quota=tenant_quota,
        serve_default_deadline=default_deadline,
    )
    return JobManager(per_job(runner), config)


class TestAdmissionControl:
    def test_quota_sheds_excess(self):
        release = threading.Event()

        def runner(job):
            release.wait(10.0)
            return {"ok": True}

        manager = _manager(runner, tenant_quota=2, queue_capacity=8)
        manager.start()
        try:
            jobs = [manager.submit("t", i) for i in range(5)]
            states = [job.state for job in jobs]
            assert states.count(SHED) == 3
            release.set()
            assert _wait_all_terminal(manager.tracker)
            assert manager.tracker.counts() == {DONE: 2, SHED: 3}
        finally:
            release.set()
            manager.shutdown()

    def test_queue_capacity_sheds(self):
        release = threading.Event()

        def runner(job):
            release.wait(10.0)
            return {}

        # Capacity 1, one dispatcher: job 0 runs, job 1 fills the queue,
        # the rest shed regardless of tenant.
        manager = _manager(runner, queue_capacity=1, tenant_quota=10)
        manager.start()
        try:
            first = manager.submit("t0", 0)
            deadline = time.monotonic() + 10.0
            while (first.state == QUEUED
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert first.state == RUNNING
            filler = manager.submit("t1", 1)
            assert filler.state == QUEUED
            late = [manager.submit("late", i) for i in range(2)]
            assert all(job.state == SHED for job in late)
            release.set()
            assert _wait_all_terminal(manager.tracker)
            counts = manager.tracker.counts()
            assert counts == {DONE: 2, SHED: 2}
        finally:
            release.set()
            manager.shutdown()

    def test_shutdown_fails_queued_jobs(self):
        release = threading.Event()

        def runner(job):
            release.wait(10.0)
            return {}

        manager = _manager(runner, queue_capacity=8, tenant_quota=8)
        manager.start()
        manager.submit("t", 0)          # occupies the dispatcher
        queued = manager.submit("u", 1)  # waits in the queue
        time.sleep(0.1)
        release.set()
        manager.shutdown()
        assert queued.state == FAILED
        assert queued.error == "gateway shutdown"
        # Shut-down manager sheds instead of queueing.
        post = manager.submit("t", 2)
        assert post.state == SHED

    def test_deadline_expires_in_queue(self):
        release = threading.Event()

        def runner(job):
            release.wait(10.0)
            return {}

        manager = _manager(runner, queue_capacity=8, tenant_quota=8)
        manager.start()
        try:
            manager.submit("t", 0)  # occupies the dispatcher
            doomed = manager.submit("u", 1, deadline_seconds=0.05)
            time.sleep(0.2)
            release.set()
            assert _wait_all_terminal(manager.tracker)
            assert doomed.state == DEADLINE
            assert "expired in queue" in doomed.error
        finally:
            release.set()
            manager.shutdown()

    def test_runner_exceptions_map_to_states(self):
        def runner(job):
            if job.payload == "deadline":
                raise DeadlineExceededError("too slow")
            if job.payload == "boom":
                raise ValueError("boom")
            return {"ok": True}

        manager = _manager(runner)
        manager.start()
        try:
            jobs = {
                payload: manager.submit("t", payload)
                for payload in ("deadline", "boom", "fine")
            }
            assert _wait_all_terminal(manager.tracker)
            assert jobs["deadline"].state == DEADLINE
            assert jobs["boom"].state == FAILED
            assert "ValueError" in jobs["boom"].error
            assert jobs["fine"].state == DONE
        finally:
            manager.shutdown()


class TestManagerHistory:
    def test_manager_releases_payloads_and_bounds_history(self):
        """The manager's tracker must not retain payloads (or more
        than serve_job_history terminal jobs) on a long-running
        gateway, while the accounting identity survives eviction."""
        config = RuntimeConfig(
            serve_queue_capacity=8, serve_tenant_quota=8,
            serve_job_history=3,
        )
        manager = JobManager(per_job(lambda job: {"ok": True}), config)
        manager.start()
        try:
            jobs = [manager.submit("t", [float(i)])
                    for i in range(10)]
            assert _wait_all_terminal(manager.tracker)
        finally:
            manager.shutdown()
        assert all(job.payload is None for job in jobs)
        assert len(manager.tracker.jobs()) <= 3
        assert len(manager.tracker) == 10
        counts = manager.tracker.counts()
        assert sum(counts.values()) == 10
        assert set(counts) <= TERMINAL_STATES


class TestOneDispatchAtATime:
    def test_no_two_dispatches_overlap_across_tenants(self):
        active = []
        overlaps = []
        lock = threading.Lock()

        def runner(jobs):
            tenant = jobs[0].tenant
            assert all(job.tenant == tenant for job in jobs)
            with lock:
                if active:
                    overlaps.append((tuple(active), tenant))
                active.append(tenant)
            time.sleep(0.02)
            with lock:
                active.remove(tenant)
            return [{}] * len(jobs)

        config = RuntimeConfig(
            serve_queue_capacity=32, serve_tenant_quota=8,
            serve_default_deadline=30.0,
        )
        manager = JobManager(runner, config)
        manager.start()
        try:
            for round_index in range(4):
                for tenant in ("a", "b", "c"):
                    manager.submit(tenant, round_index)
            assert _wait_all_terminal(manager.tracker)
            assert not overlaps
            assert manager.tracker.counts() == {DONE: 12}
        finally:
            manager.shutdown()

    def test_oldest_queued_job_picks_the_next_tenant(self):
        """While ``a``'s dispatch runs, ``b`` queues one job and then
        ``a`` queues eight: ``b``'s job is the very next dispatch, and
        ``a``'s eight run together after it."""
        started = threading.Event()
        release = threading.Event()
        dispatches = []

        def runner(jobs):
            dispatches.append([(job.tenant, job.payload)
                               for job in jobs])
            if jobs[0].payload == "hold":
                started.set()
                release.wait(10.0)
            return [{}] * len(jobs)

        config = RuntimeConfig(
            serve_queue_capacity=16, serve_tenant_quota=9,
            serve_default_deadline=30.0,
        )
        manager = JobManager(runner, config)
        manager.start()
        try:
            manager.submit("a", "hold")
            assert started.wait(10.0)
            queued = [manager.submit("b", 0)]
            queued += [manager.submit("a", index) for index in range(8)]
            time.sleep(0.05)
            assert all(job.state == QUEUED for job in queued)
            release.set()
            assert _wait_all_terminal(manager.tracker)
        finally:
            release.set()
            manager.shutdown()
        assert dispatches == [
            [("a", "hold")],
            [("b", 0)],
            [("a", index) for index in range(8)],
        ]
        assert manager.tracker.counts() == {DONE: 10}


class TestHammer:
    """Thread storm at tiny capacity: the accounting identity must
    hold exactly and no job may be lost or double-terminal."""

    def test_accepted_plus_shed_equals_submitted(self):
        def runner(job):
            time.sleep(0.002)
            return {"ok": True}

        manager = _manager(runner, queue_capacity=4, tenant_quota=2)
        manager.start()
        submitted_per_thread = 25
        tenants = ("a", "b", "c", "d")
        results = {name: [] for name in tenants}

        def storm(name):
            for index in range(submitted_per_thread):
                results[name].append(manager.submit(name, index))

        threads = [
            threading.Thread(target=storm, args=(name,),
                             name=f"repro-test-hammer-{name}")
            for name in tenants
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert _wait_all_terminal(manager.tracker)
        finally:
            manager.shutdown()

        submitted = submitted_per_thread * len(tenants)
        all_jobs = [job for batch in results.values()
                    for job in batch]
        assert len(all_jobs) == submitted
        assert len(manager.tracker) == submitted  # no job lost
        shed = sum(1 for job in all_jobs if job.state == SHED)
        accepted = submitted - shed
        counts = manager.tracker.counts()
        # Exactly one terminal state per job, and they add up.
        assert sum(counts.values()) == submitted
        assert set(counts) <= TERMINAL_STATES
        assert counts.get(SHED, 0) == shed
        assert counts.get(DONE, 0) == accepted
        # Quota means shedding definitely happened at this scale.
        assert shed > 0 and accepted > 0
