"""Deterministic fault injection for the stream runtime.

A :class:`FaultPlan` scripts failures against (stage, request) pairs so
robustness is testable and reproducible: transient executor failures
(succeed after ``count`` retries), permanent per-request poisons, slow
stages, channel stalls, and worker crashes.  A :class:`FaultInjector`
wraps a real stage executor and consults the plan before delegating.

The same plan drives the discrete-event simulator
(:mod:`repro.simulate`), so simulated and threaded runs agree on
failure semantics: a transient fault costs extra service time plus
backoff, a permanent fault dead-letters exactly its request.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Tuple

from ..errors import (
    PoisonedRequestError,
    StreamError,
    TransientStageError,
    WorkerCrashError,
)


class FaultKind(str, Enum):
    """What a scripted fault does when its (stage, request) hits."""

    #: Raise :class:`TransientStageError` for the first ``count``
    #: attempts, then succeed — exercises retry + backoff.
    TRANSIENT = "transient"
    #: Raise :class:`PoisonedRequestError` on every attempt — the
    #: request must be dead-lettered, never retried to success.
    PERMANENT = "permanent"
    #: Sleep ``delay`` seconds before processing — a slow stage.
    SLOW = "slow"
    #: Sleep ``delay`` seconds after processing, delaying the hand-off
    #: to the outbound channel — a channel stall.
    STALL = "stall"
    #: Raise :class:`WorkerCrashError` for the first ``count``
    #: attempts — kills the worker thread; only a supervisor restart
    #: (which re-injects the in-flight item) recovers.
    CRASH = "crash"


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault.

    Attributes:
        kind: what happens (see :class:`FaultKind`).
        stage: pipeline stage index the fault is bound to.
        request_id: request the fault targets.
        count: how many attempts fail (transient / crash kinds).
        delay: sleep seconds (slow / stall kinds).
    """

    kind: FaultKind
    stage: int
    request_id: int
    count: int = 1
    delay: float = 0.0

    def __post_init__(self):
        if self.stage < 0:
            raise StreamError("fault stage must be >= 0")
        if self.request_id < 0:
            raise StreamError("fault request_id must be >= 0")
        if self.count < 1:
            raise StreamError("fault count must be >= 1")
        if self.delay < 0:
            raise StreamError("fault delay must be non-negative")


class FaultPlan:
    """An immutable script of faults, addressable by (stage, request).

    Build one directly from :class:`FaultSpec` instances, parse the
    compact CLI syntax with :meth:`parse`, or draw a seeded random
    transient-only plan with :meth:`random_transient`.
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self._by_site: Dict[Tuple[int, int], List[FaultSpec]] = {}
        for spec in self.specs:
            self._by_site.setdefault(
                (spec.stage, spec.request_id), []
            ).append(spec)

    def __len__(self) -> int:
        return len(self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def lookup(self, stage: int, request_id: int) -> List[FaultSpec]:
        return self._by_site.get((stage, request_id), [])

    def stage_has_faults(self, stage: int) -> bool:
        return any(spec.stage == stage for spec in self.specs)

    def only_transient(self) -> bool:
        """True when every fault is recoverable without a dead letter
        (transient retries, slow stages, stalls, supervised crashes)."""
        return all(spec.kind is not FaultKind.PERMANENT
                   for spec in self.specs)

    def describe(self) -> str:
        if not self.specs:
            return "no faults"
        return "; ".join(
            f"{s.kind.value} stage={s.stage} request={s.request_id}"
            + (f" count={s.count}"
               if s.kind in (FaultKind.TRANSIENT, FaultKind.CRASH)
               else "")
            + (f" delay={s.delay}"
               if s.kind in (FaultKind.SLOW, FaultKind.STALL) else "")
            for s in self.specs
        )

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the compact CLI syntax.

        ``kind:stage=S:request=R[:count=N][:delay=D]`` with multiple
        faults separated by ``;``, e.g.::

            transient:stage=0:request=1:count=2;permanent:stage=2:request=3
        """
        specs: List[FaultSpec] = []
        for clause in filter(None,
                             (c.strip() for c in text.split(";"))):
            fields = clause.split(":")
            try:
                kind = FaultKind(fields[0].strip().lower())
            except ValueError as exc:
                raise StreamError(
                    f"unknown fault kind {fields[0]!r}; expected one "
                    f"of {[k.value for k in FaultKind]}"
                ) from exc
            kwargs: Dict[str, float] = {}
            for assignment in fields[1:]:
                key, _, value = assignment.partition("=")
                key = key.strip()
                if key not in ("stage", "request", "count", "delay"):
                    raise StreamError(
                        f"unknown fault field {key!r} in {clause!r}"
                    )
                try:
                    kwargs[key] = (float(value) if key == "delay"
                                   else int(value))
                except ValueError as exc:
                    raise StreamError(
                        f"bad value for {key!r} in {clause!r}"
                    ) from exc
            if "stage" not in kwargs or "request" not in kwargs:
                raise StreamError(
                    f"fault {clause!r} needs stage= and request="
                )
            specs.append(FaultSpec(
                kind=kind,
                stage=int(kwargs["stage"]),
                request_id=int(kwargs["request"]),
                count=int(kwargs.get("count", 1)),
                delay=float(kwargs.get("delay", 0.0)),
            ))
        return cls(specs)

    @classmethod
    def random_transient(
        cls,
        seed: int,
        num_requests: int,
        num_stages: int,
        rate: float = 0.1,
        max_count: int = 2,
    ) -> "FaultPlan":
        """A seeded transient-only plan: each (stage, request) site
        independently faults with probability ``rate``, failing a
        uniform 1..``max_count`` attempts before succeeding.  The same
        seed always yields the same plan."""
        if not 0.0 <= rate <= 1.0:
            raise StreamError("fault rate must be in [0, 1]")
        rng = random.Random(seed)
        specs = [
            FaultSpec(
                kind=FaultKind.TRANSIENT,
                stage=stage,
                request_id=request_id,
                count=rng.randint(1, max_count),
            )
            for request_id in range(num_requests)
            for stage in range(num_stages)
            if rng.random() < rate
        ]
        return cls(specs)


class FaultInjected(TransientStageError):
    """A scripted transient fault (distinguishable from real ones)."""


class PermanentFaultInjected(PoisonedRequestError):
    """A scripted permanent fault."""


class CrashInjected(WorkerCrashError):
    """A scripted worker crash."""


class FaultInjector:
    """Wraps a stage executor, applying the plan's scripted faults.

    Attempt counters live on the injector, which the supervisor
    re-binds unchanged into a restarted worker — so a ``count=2``
    crash fault survives one restart and fires again, and a transient
    fault's remaining failures are honoured across retries.
    """

    def __init__(self, executor, stage_index: int, plan: FaultPlan):
        self.executor = executor
        self.stage_index = stage_index
        self.plan = plan
        self.injected_faults = 0
        self._attempts: Dict[Tuple[int, int], int] = {}

    def process(self, item):
        for spec_index, spec in enumerate(
            self.plan.lookup(self.stage_index, item.request_id)
        ):
            site = (item.request_id, spec_index)
            if spec.kind is FaultKind.SLOW:
                time.sleep(spec.delay)
            elif spec.kind is FaultKind.TRANSIENT:
                fired = self._attempts.get(site, 0)
                if fired < spec.count:
                    self._attempts[site] = fired + 1
                    self.injected_faults += 1
                    raise FaultInjected(
                        f"injected transient fault #{fired + 1}/"
                        f"{spec.count} at stage {self.stage_index} "
                        f"for request {item.request_id}"
                    )
            elif spec.kind is FaultKind.PERMANENT:
                self.injected_faults += 1
                raise PermanentFaultInjected(
                    f"injected permanent fault at stage "
                    f"{self.stage_index} for request {item.request_id}"
                )
            elif spec.kind is FaultKind.CRASH:
                fired = self._attempts.get(site, 0)
                if fired < spec.count:
                    self._attempts[site] = fired + 1
                    self.injected_faults += 1
                    raise CrashInjected(
                        f"injected worker crash #{fired + 1}/"
                        f"{spec.count} at stage {self.stage_index} "
                        f"(request {item.request_id} in flight)"
                    )
        result = self.executor.process(item)
        for spec in self.plan.lookup(self.stage_index,
                                     item.request_id):
            if spec.kind is FaultKind.STALL:
                time.sleep(spec.delay)
        return result


def wrap_executors(executors, plan: FaultPlan | None):
    """Wrap each executor whose stage the plan targets."""
    if not plan:
        return list(executors)
    return [
        FaultInjector(executor, index, plan)
        if plan.stage_has_faults(index) else executor
        for index, executor in enumerate(executors)
    ]
