"""Pipeline latency/throughput simulation and centralized baselines.

:class:`PipelineSimulator` turns a plan + cost model into per-request
latencies for a request stream, using either the closed-form pipeline
recurrence or the event-driven engine (they agree exactly; tests check
this).  The centralized baselines of Exp#2 — PlainBase and CipherBase —
are plain sums of operation costs on a single server with no pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np  # noqa: F401 - jitter sampling

from ..costs import CostModel
from ..errors import SimulationError
from ..nn.layers import LayerKind
from ..planner.plan import Plan
from ..planner.primitive import MergedPrimitive
from ..stream.faults import FaultKind, FaultPlan
from ..stream.retry import (
    REASON_EXHAUSTED,
    REASON_PERMANENT,
    DeadLetter,
    RetryPolicy,
)
from .events import EventDrivenPipeline
from .stagecosts import (
    StageCost,
    _linear_compute_seconds,
    _nonlinear_compute_seconds,
    stage_costs,
)


@dataclass(frozen=True)
class SimulatedStream:
    """Result of simulating a request stream.

    Attributes:
        latencies: per-*completed*-request seconds from admission to
            completion (dead-lettered requests are excluded).
        makespan: completion/exit time of the last request.
        throughput: completed requests per second over the makespan.
        dead_letters: requests removed by injected permanent faults or
            exhausted retries — same record type and semantics as the
            threaded runtime's :class:`repro.stream.retry.DeadLetter`.
        retries: total simulated executor retries.
        backoff_events: total simulated backoff sleeps.
    """

    latencies: tuple[float, ...]
    makespan: float
    dead_letters: tuple = ()
    retries: int = 0
    backoff_events: int = 0

    @property
    def mean_latency(self) -> float:
        return float(np.mean(self.latencies))

    @property
    def first_request_latency(self) -> float:
        return self.latencies[0]

    @property
    def throughput(self) -> float:
        if self.makespan <= 0:
            raise SimulationError("makespan must be positive")
        return len(self.latencies) / self.makespan


class PipelineSimulator:
    """Simulates a deployed PP-Stream plan under a cost model."""

    def __init__(
        self,
        plan: Plan,
        cost_model: CostModel,
        decimals: int,
    ):
        self.plan = plan
        self.cost_model = cost_model
        self.decimals = decimals
        self.costs: List[StageCost] = stage_costs(
            plan, cost_model, decimals
        )

    def request_latency(self) -> float:
        """Latency of a single request through an idle pipeline."""
        return sum(cost.total for cost in self.costs)

    def bottleneck_service(self) -> float:
        """The slowest stage's per-request occupancy (throughput cap)."""
        return max(cost.service for cost in self.costs)

    def simulate_stream(
        self,
        num_requests: int,
        arrival_interval: float = 0.0,
        engine: str = "recurrence",
        service_jitter: float = 0.0,
        seed: int = 0,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> SimulatedStream:
        """Push ``num_requests`` through the pipeline.

        Args:
            num_requests: stream length.
            arrival_interval: seconds between admissions (0 = all at
                time zero, i.e. a backlogged stream).
            engine: "recurrence" (closed form) or "events"
                (event-driven); both produce identical schedules.
            service_jitter: relative per-(request, stage) service-time
                noise: each service time is multiplied by a uniform
                draw from [1 - j, 1 + j].  0 = deterministic.
            seed: jitter RNG seed.
            fault_plan: the stream runtime's fault model
                (:mod:`repro.stream.faults`), applied with identical
                failure semantics: transient faults cost backoff time
                and retries, permanent faults (and transient counts
                exceeding the retry budget) dead-letter exactly their
                request at the faulted stage, slow/stall faults add
                their delay to the stage visit, and crashes are
                absorbed by supervisor restarts (re-running the item).
            retry_policy: classification/backoff policy used to
                resolve the fault plan; defaults to
                :class:`RetryPolicy`'s defaults (as the pipeline's
                would).
        """
        if num_requests < 1:
            raise SimulationError("num_requests must be >= 1")
        if not 0.0 <= service_jitter < 1.0:
            raise SimulationError("service_jitter must be in [0, 1)")
        arrivals = [arrival_interval * r for r in range(num_requests)]
        services = [cost.service for cost in self.costs]
        transfers = [cost.transfer for cost in self.costs]
        service_matrix: list[list[float]] | None = None
        if service_jitter > 0.0:
            rng = np.random.default_rng(seed)
            service_matrix = [
                [
                    s * float(rng.uniform(1 - service_jitter,
                                          1 + service_jitter))
                    for s in services
                ]
                for _ in range(num_requests)
            ]
        drop_after: dict[int, int] | None = None
        dead_letters: tuple[DeadLetter, ...] = ()
        retries = 0
        backoff_events = 0
        if fault_plan:
            (service_matrix, drop_after, dead_letters, retries,
             backoff_events) = _fold_fault_plan(
                fault_plan,
                retry_policy if retry_policy is not None
                else RetryPolicy(),
                services, num_requests, service_matrix,
            )
        if engine == "events":
            completions = EventDrivenPipeline(services, transfers).run(
                arrivals, service_matrix=service_matrix,
                drop_after=drop_after,
            )
        elif engine == "recurrence":
            completions = _recurrence(services, transfers, arrivals,
                                      service_matrix, drop_after)
        else:
            raise SimulationError(
                f"unknown engine {engine!r}; use 'recurrence' or 'events'"
            )
        dropped = set(drop_after or ())
        latencies = tuple(
            done - admitted
            for request_id, (done, admitted)
            in enumerate(zip(completions, arrivals))
            if request_id not in dropped
        )
        return SimulatedStream(
            latencies=latencies,
            makespan=max(completions),
            dead_letters=dead_letters,
            retries=retries,
            backoff_events=backoff_events,
        )


def _fold_fault_plan(
    fault_plan: FaultPlan,
    policy: RetryPolicy,
    services: Sequence[float],
    num_requests: int,
    base_matrix: Sequence[Sequence[float]] | None,
):
    """Resolve a fault plan into the schedule inputs both engines eat.

    Mirrors the threaded runtime's semantics: an injected failure
    raises *before* the stage's real work, so a failed attempt costs
    only its backoff sleep; a transient fault that stays within the
    retry budget then pays the full service time once, while one that
    exceeds it (or a permanent fault) dead-letters the request at that
    stage — it occupies the stage for its accumulated backoff and
    exits.  Crashes are absorbed by supervisor restarts which re-run
    the item at no modelled extra cost.

    Returns ``(service_matrix, drop_after, dead_letters, retries,
    backoff_events)``.
    """
    matrix = [
        [base_matrix[r][s] if base_matrix is not None else services[s]
         for s in range(len(services))]
        for r in range(num_requests)
    ]
    drop_after: dict[int, int] = {}
    dead: List[DeadLetter] = []
    retries = 0
    backoff_events = 0
    for request_id in range(num_requests):
        for stage in range(len(services)):
            visit = matrix[request_id][stage]
            dropped = False
            for spec in fault_plan.lookup(stage, request_id):
                if spec.kind in (FaultKind.SLOW, FaultKind.STALL):
                    visit += spec.delay
                elif spec.kind is FaultKind.CRASH:
                    continue
                elif spec.kind is FaultKind.TRANSIENT:
                    failures = min(spec.count, policy.max_retries + 1)
                    backoff = 0.0
                    for attempt in range(1, failures + 1):
                        if attempt <= policy.max_retries:
                            delay = policy.backoff_delay(attempt)
                            backoff += delay
                            retries += 1
                            if delay > 0:
                                backoff_events += 1
                    if spec.count > policy.max_retries:
                        visit = backoff
                        dropped = True
                        dead.append(DeadLetter(
                            request_id=request_id,
                            stage=stage,
                            reason=REASON_EXHAUSTED,
                            attempts=policy.max_retries + 1,
                            error="simulated transient fault",
                        ))
                    else:
                        visit += backoff
                elif spec.kind is FaultKind.PERMANENT:
                    visit = 0.0
                    dropped = True
                    dead.append(DeadLetter(
                        request_id=request_id,
                        stage=stage,
                        reason=REASON_PERMANENT,
                        attempts=1,
                        error="simulated permanent fault",
                    ))
                if dropped:
                    break
            matrix[request_id][stage] = visit
            if dropped:
                drop_after[request_id] = stage
                break
    return matrix, drop_after, tuple(dead), retries, backoff_events


def _recurrence(
    services: Sequence[float],
    transfers: Sequence[float],
    arrivals: Sequence[float],
    service_matrix: Sequence[Sequence[float]] | None = None,
    drop_after: dict[int, int] | None = None,
) -> List[float]:
    """Exact FIFO pipeline schedule via the classic recurrence.

    ``service_matrix[r][i]`` overrides stage ``i``'s service time for
    request ``r`` (per-request jitter / injected faults), and
    ``drop_after[r]`` makes request ``r`` exit the pipeline after its
    visit to that stage (its completion is its exit time, with no
    trailing transfer) — matching the event engine exactly.
    """
    num_stages = len(services)
    previous_finish = [0.0] * num_stages
    completions: List[float] = []
    for request_index, admission in enumerate(arrivals):
        row = (service_matrix[request_index]
               if service_matrix is not None else services)
        drop_stage = (drop_after.get(request_index)
                      if drop_after is not None else None)
        ready = admission
        for index in range(num_stages):
            start = max(ready, previous_finish[index])
            finish = start + row[index]
            previous_finish[index] = finish
            if drop_stage == index:
                ready = finish
                break
            ready = finish + transfers[index]
        completions.append(ready)
    return completions


def centralized_cipher_latency(
    stages: Sequence[MergedPrimitive],
    cost_model: CostModel,
    decimals: int,
) -> float:
    """CipherBase: single-server, single-thread inference on
    ciphertexts — the total homomorphic + activation cost, no pipeline,
    no network, and no output fold (CipherBase decrypts every value,
    as :class:`repro.baselines.CipherBase` does)."""
    total = 0.0
    for stage in stages:
        if stage.kind is LayerKind.LINEAR:
            total += _linear_compute_seconds(stage, cost_model, decimals)
        else:
            total += _nonlinear_compute_seconds(stage, cost_model)
    return total


def centralized_plain_latency(
    stages: Sequence[MergedPrimitive],
    cost_model: CostModel,
) -> float:
    """PlainBase: single-server plaintext inference (no crypto at all).

    Every operation — linear multiply-accumulate or activation — costs
    one plaintext elementary operation.
    """
    total = 0.0
    for stage in stages:
        counts = stage.op_counts()
        plain_equivalent = (
            counts.ciphertext_muls + counts.ciphertext_adds
            + counts.plain_ops
        )
        total += plain_equivalent * cost_model.plain_op
    return total
