"""Re-planning onto a joined worker: the migration, proved from the
per-worker labelled telemetry rather than from the plan alone."""

import numpy as np

from repro.costs import CostModel
from repro.net import WorkerServer
from repro.planner.profiling import profile_primitive_times


class TestRebalancer:
    def test_moves_backed_up_stages_onto_the_joined_worker(
            self, make_elastic, worker_farm, cluster_inputs,
            reference_results):
        """The acceptance path: a fleet streams, a bigger worker
        joins, and a re-plan water-filled from the profiled stage
        times routes stages onto it — asserted via the per-worker
        labelled metrics."""
        coordinator, _servers, plan = make_elastic()
        reference = reference_results(plan)
        registry = coordinator.obs.registry

        # Stream on the seed plan first, so the re-plan below has live
        # stage connections to retire.
        warmup = coordinator.run_stream(cluster_inputs)
        assert not warmup.dead_letters

        (_big,), (address,) = worker_farm(WorkerServer())
        handle, _epoch = coordinator.admit_join(address, "model",
                                                cores=6)
        joined_id = handle.server_id
        # Joining alone moved nothing: the member idles until a plan
        # routes work onto it.
        assert all(a.server_id != joined_id
                   for a in coordinator.plan.assignments)

        times = profile_primitive_times(plan.stages,
                                        CostModel.reference(), 2)
        coordinator.apply_plan(coordinator.allocation_for(times=times))
        moved = sorted(
            a.stage_index for a in coordinator.plan.assignments
            if a.server_id == joined_id
        )
        # Six cores against the originals' two: water-filling must
        # put linear stages on the joined member.
        assert moved, "re-plan left the joined worker idle"

        stats = coordinator.run_stream(cluster_inputs)
        assert not stats.dead_letters
        for result in stats.results:
            assert np.array_equal(result.probabilities,
                                  reference[result.request_id])
        # Per-worker labeled telemetry proves the migration actually
        # executed there (not just that the plan says so).
        roundtrips = {
            labels["stage"]: hist.count
            for labels, hist in registry.find(
                "histogram", "net_stage_roundtrip_seconds")
            if labels.get("worker") == str(joined_id)
        }
        assert set(map(int, roundtrips)) == set(moved)
        assert all(count >= len(cluster_inputs)
                   for count in roundtrips.values())
        queue_labels = [
            labels for labels, _gauge in registry.find(
                "gauge", "stream_queue_depth")
            if labels.get("worker") == str(joined_id)
        ]
        assert queue_labels, "no per-worker queue gauge twin"
        # The unlabeled aggregates survive alongside the twins.
        assert any(
            "worker" not in labels
            for labels, _g in registry.find(
                "histogram", "net_stage_roundtrip_seconds")
        )
