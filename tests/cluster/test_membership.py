"""The join/leave/announce wire protocol against a live fleet."""

import threading

import numpy as np
import pytest

from repro.costs import CostModel
from repro.errors import ClusterMembershipError
from repro.net import WorkerServer
from repro.planner.profiling import profile_primitive_times


class TestWireJoin:
    def test_worker_joins_an_actively_streaming_fleet(
            self, make_elastic, worker_farm, cluster_inputs,
            reference_results):
        coordinator, _servers, plan = make_elastic()
        reference = reference_results(plan)
        host, port = coordinator.membership_address
        (spare,), _ = worker_farm(WorkerServer())

        box = {}

        def stream():
            box["stats"] = coordinator.run_stream(cluster_inputs)

        streamer = threading.Thread(target=stream)
        streamer.start()
        announce = spare.join_fleet(host, port, "model", cores=6)
        streamer.join()

        assert announce["status"] == "joined"
        assert announce["server_id"] == 2
        assert announce["role"] == "model"
        # The seed fleet produced epochs 1 and 2; the join is 3.
        assert announce["epoch"] == 3
        member = coordinator.state.snapshot().member(2)
        assert member.present and member.cores == 6
        # The stream that raced the join finished untouched: joining
        # never moves work by itself.
        stats = box["stats"]
        assert not stats.dead_letters
        assert len(stats.results) == len(cluster_inputs)
        for result in stats.results:
            assert np.array_equal(result.probabilities,
                                  reference[result.request_id])
        assert all(a.server_id != 2
                   for a in coordinator.plan.assignments)

    def test_rejoin_same_address_and_role_is_idempotent(
            self, make_elastic, worker_farm):
        coordinator, _servers, _plan = make_elastic()
        host, port = coordinator.membership_address
        (spare,), _ = worker_farm(WorkerServer())
        first = spare.join_fleet(host, port, "model", cores=4)
        second = spare.join_fleet(host, port, "model", cores=4)
        assert second["server_id"] == first["server_id"]
        # No second epoch bump: the listener resolved to the existing
        # slot instead of minting a new member.
        assert second["epoch"] == first["epoch"]

    def test_join_refused_when_membership_disabled(
            self, make_elastic):
        coordinator, _servers, _plan = make_elastic(membership=False)
        with pytest.raises(ClusterMembershipError):
            coordinator.membership_address


class TestWireLeave:
    def test_leave_drains_the_member_and_bumps_the_epoch(
            self, make_elastic, worker_farm, cluster_inputs,
            reference_results):
        coordinator, _servers, plan = make_elastic()
        reference = reference_results(plan)
        host, port = coordinator.membership_address
        # Stream on the seed plan first, so the re-plans below retire
        # live stage connections.
        warmup = coordinator.run_stream(cluster_inputs)
        assert not warmup.dead_letters
        (spare,), _ = worker_farm(WorkerServer())
        joined = spare.join_fleet(host, port, "model", cores=6)
        server_id = joined["server_id"]
        # Route real work onto the member before it leaves: water-fill
        # the profiled stage times onto the big joiner.
        times = profile_primitive_times(plan.stages,
                                        CostModel.reference(), 2)
        coordinator.apply_plan(coordinator.allocation_for(times=times))
        assert any(a.server_id == server_id
                   for a in coordinator.plan.assignments)

        announce = spare.leave_fleet(host, port, server_id)
        assert announce["status"] == "draining"
        assert announce["epoch"] == joined["epoch"] + 1
        assert coordinator.state.has_left(server_id)
        assert all(a.server_id != server_id
                   for a in coordinator.plan.assignments)

        stats = coordinator.run_stream(cluster_inputs)
        assert not stats.dead_letters
        for result in stats.results:
            assert np.array_equal(result.probabilities,
                                  reference[result.request_id])

    def test_leave_of_unknown_member_surfaces_as_membership_error(
            self, make_elastic, worker_farm):
        coordinator, _servers, _plan = make_elastic()
        host, port = coordinator.membership_address
        (spare,), _ = worker_farm(WorkerServer())
        with pytest.raises(ClusterMembershipError):
            spare.leave_fleet(host, port, 17)
