"""Load-balanced resource allocation (paper Section IV-C, Eq. 4-8).

Given merged primitive layers with profiled times T_i and a cluster,
choose a server x_{i,j} and thread count y_i per stage to minimize the
sum of pairwise absolute differences of per-thread times T_i / y_i.

Two solvers:

* :func:`build_allocation_milp` + the branch-and-bound solver — the
  faithful ILP formulation.  |t_i - t_j| terms are linearized with
  epigraph variables; the non-linear T_i / y_i is linearized with the
  standard thread-count *menu* (one binary u_{i,k} per candidate thread
  count k, contributing T_i / k); the bilinear capacity term
  x_{i,j} * y_i is linearized with products w_{i,j,k} >= x + u - 1.

* :func:`_water_filling` — a scalable specialized solver: start at one
  thread per stage and repeatedly grant a thread to the stage with the
  largest per-thread time, subject to a bin-packing feasibility check.
  On small instances the two agree (cross-checked in tests); large
  experiments default to water-filling.

The even-split allocator used as the paper's baseline in Exp#2/3 is
:func:`allocate_even`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InfeasibleAllocationError, PlannerError
from ..nn.layers import LayerKind
from .ilp import MILP, MILPResult, solve_milp
from .plan import ClusterSpec, Plan, StageAssignment
from .primitive import MergedPrimitive


@dataclass(frozen=True)
class AllocationResult:
    """An allocation plus solver diagnostics.

    Attributes:
        plan: the validated deployment plan.
        objective: Eq. (4) value at the chosen allocation.
        method: "milp", "water_filling", or "even".
        nodes_explored: branch-and-bound nodes (MILP only).
    """

    plan: Plan
    objective: float
    method: str
    nodes_explored: int = 0


# ---------------------------------------------------------------------
# Bin packing of stage thread-counts onto role-compatible servers
# ---------------------------------------------------------------------

def _pack(
    stages: Sequence[MergedPrimitive],
    threads: Sequence[int],
    cluster: ClusterSpec,
) -> Optional[List[int]]:
    """Best-fit-decreasing packing; returns server ids per stage or
    None when infeasible."""
    assignment: List[int] = [-1] * len(stages)
    for kind in (LayerKind.LINEAR, LayerKind.NONLINEAR):
        servers = cluster.servers_for(kind)
        remaining = {
            s.server_id: s.capacity(cluster.hyperthreading) for s in servers
        }
        items = sorted(
            (
                (threads[stage.index], stage.index)
                for stage in stages if stage.kind is kind
            ),
            reverse=True,
        )
        for demand, stage_index in items:
            candidates = [
                (capacity, server_id)
                for server_id, capacity in remaining.items()
                if capacity >= demand
            ]
            if not candidates:
                return None
            # Best fit: the tightest server that still fits.
            candidates.sort()
            capacity, server_id = candidates[0]
            remaining[server_id] = capacity - demand
            assignment[stage_index] = server_id
    return assignment


def _max_threads_for(
    stage: MergedPrimitive, cluster: ClusterSpec
) -> int:
    servers = cluster.servers_for(stage.kind)
    if not servers:
        raise InfeasibleAllocationError(
            f"no {stage.kind.value}-capable server for stage {stage.index}"
        )
    return max(s.capacity(cluster.hyperthreading) for s in servers)


def _make_plan(
    stages: Sequence[MergedPrimitive],
    threads: Sequence[int],
    cluster: ClusterSpec,
    use_tensor_partitioning: bool,
) -> Plan:
    servers = _pack(stages, threads, cluster)
    if servers is None:
        raise InfeasibleAllocationError(
            f"thread vector {list(threads)} does not pack onto the cluster"
        )
    assignments = tuple(
        StageAssignment(stage.index, servers[stage.index],
                        threads[stage.index])
        for stage in stages
    )
    return Plan(cluster, tuple(stages), assignments,
                use_tensor_partitioning)


# ---------------------------------------------------------------------
# Even-split baseline (Exp#2/3 "without load-balanced allocation")
# ---------------------------------------------------------------------

def allocate_even(
    stages: Sequence[MergedPrimitive],
    cluster: ClusterSpec,
    use_tensor_partitioning: bool = True,
) -> AllocationResult:
    """Distribute capacity evenly across stages, ignoring T_i.

    The paper's baseline: "evenly distributes the CPU cores across the
    stages (some stages may have one more ...)".  Thread counts start at
    the even share and are decremented (largest first) until they pack.
    """
    if not stages:
        raise PlannerError("no stages to allocate")
    count = len(stages)
    capacity = cluster.total_capacity()
    base, extra = divmod(capacity, count)
    threads = [
        max(base + (1 if index < extra else 0), 1)
        for index in range(count)
    ]
    threads = [
        min(t, _max_threads_for(stage, cluster))
        for t, stage in zip(threads, stages)
    ]
    while _pack(stages, threads, cluster) is None:
        reducible = [i for i, t in enumerate(threads) if t > 1]
        if not reducible:
            raise InfeasibleAllocationError(
                "even allocation infeasible at one thread per stage"
            )
        largest = max(reducible, key=lambda i: threads[i])
        threads[largest] -= 1
    plan = _make_plan(stages, threads, cluster, use_tensor_partitioning)
    return AllocationResult(plan, math.nan, "even")


# ---------------------------------------------------------------------
# Water-filling specialized solver
# ---------------------------------------------------------------------

def _water_filling(
    stages: Sequence[MergedPrimitive],
    times: Sequence[float],
    cluster: ClusterSpec,
    comm_model=None,
) -> List[int]:
    """Grant threads one at a time to the slowest-per-thread stage.

    Starting from one thread everywhere, the stage with the largest
    per-thread time T_i / y_i that can still grow (server capacity,
    packing feasibility) receives the next thread, until no stage can
    grow.  This equalizes per-thread times (the paper's Eq. 4 goal,
    min-max flavour — the paper notes min-max objectives are equally
    applicable) while leaving no allocatable capacity stranded.

    With a ``comm_model`` callback ``(stage, threads) -> seconds``
    (e.g. :func:`repro.simulate.stagecosts.make_comm_model`), granting
    is additionally gated on a *net* latency win: a thread whose extra
    thread-distribution cost exceeds its compute gain is declined —
    the diminishing-returns effect the paper observes with many cores.
    """
    threads = [1] * len(stages)
    if _pack(stages, threads, cluster) is None:
        raise InfeasibleAllocationError(
            "cluster cannot host even one thread per stage"
        )
    limits = [_max_threads_for(stage, cluster) for stage in stages]
    blocked: set[int] = set()
    while True:
        candidates = [
            i for i in range(len(stages))
            if i not in blocked and threads[i] < limits[i]
        ]
        if not candidates:
            return threads
        stage_index = max(candidates,
                          key=lambda i: times[i] / threads[i])
        if comm_model is not None:
            y = threads[stage_index]
            compute_gain = times[stage_index] / y \
                - times[stage_index] / (y + 1)
            comm_cost = comm_model(stages[stage_index], y + 1) \
                - comm_model(stages[stage_index], y)
            if comm_cost >= compute_gain:
                blocked.add(stage_index)
                continue
        candidate = list(threads)
        candidate[stage_index] += 1
        if _pack(stages, candidate, cluster) is None:
            blocked.add(stage_index)
            continue
        threads = candidate
        blocked.clear()


# ---------------------------------------------------------------------
# Faithful MILP formulation
# ---------------------------------------------------------------------

def build_allocation_milp(
    stages: Sequence[MergedPrimitive],
    times: Sequence[float],
    cluster: ClusterSpec,
) -> tuple[MILP, dict]:
    """Construct the Eq. 4-8 MILP.

    Returns the MILP plus an index map used to decode solutions:
    ``{"u": {(i, k): var}, "x": {(i, j): var}}``.
    """
    if len(times) != len(stages):
        raise PlannerError("times length != stage count")
    num_stages = len(stages)
    menus = [range(1, _max_threads_for(s, cluster) + 1) for s in stages]
    compatible = [
        [s.server_id for s in cluster.servers_for(stage.kind)]
        for stage in stages
    ]

    names: List[str] = []
    u_index: dict[tuple[int, int], int] = {}
    x_index: dict[tuple[int, int], int] = {}
    w_index: dict[tuple[int, int, int], int] = {}
    d_index: dict[tuple[int, int], int] = {}

    for i in range(num_stages):
        for k in menus[i]:
            u_index[(i, k)] = len(names)
            names.append(f"u[{i},{k}]")
    for i in range(num_stages):
        for j in compatible[i]:
            x_index[(i, j)] = len(names)
            names.append(f"x[{i},{j}]")
    for i in range(num_stages):
        for j in compatible[i]:
            for k in menus[i]:
                w_index[(i, j, k)] = len(names)
                names.append(f"w[{i},{j},{k}]")
    for i in range(num_stages):
        for i2 in range(i + 1, num_stages):
            d_index[(i, i2)] = len(names)
            names.append(f"d[{i},{i2}]")

    num_vars = len(names)
    c = np.zeros(num_vars)
    for (_, _), var in d_index.items():
        c[var] = 2.0  # each unordered pair appears twice in Eq. (4)

    a_eq_rows, b_eq = [], []
    a_ub_rows, b_ub = [], []

    def row() -> np.ndarray:
        return np.zeros(num_vars)

    # (menu) exactly one thread count per stage
    for i in range(num_stages):
        r = row()
        for k in menus[i]:
            r[u_index[(i, k)]] = 1.0
        a_eq_rows.append(r)
        b_eq.append(1.0)

    # (5) exactly one server per stage (role compatibility restricts the
    # domain, which also enforces the purity constraint (6))
    for i in range(num_stages):
        r = row()
        for j in compatible[i]:
            r[x_index[(i, j)]] = 1.0
        a_eq_rows.append(r)
        b_eq.append(1.0)

    # epigraph of |t_i - t_i'| with t_i = sum_k (T_i / k) u_{i,k}
    for (i, i2), d_var in d_index.items():
        for sign in (1.0, -1.0):
            r = row()
            for k in menus[i]:
                r[u_index[(i, k)]] = sign * times[i] / k
            for k in menus[i2]:
                r[u_index[(i2, k)]] = -sign * times[i2] / k
            r[d_var] = -1.0
            a_ub_rows.append(r)
            b_ub.append(0.0)

    # products w >= x + u - 1 (w appears only in capacity, positively,
    # so the lower bound is the binding side)
    for (i, j, k), w_var in w_index.items():
        r = row()
        r[x_index[(i, j)]] = 1.0
        r[u_index[(i, k)]] = 1.0
        r[w_var] = -1.0
        a_ub_rows.append(r)
        b_ub.append(1.0)

    # (8) per-server capacity
    for server in cluster.servers:
        r = row()
        touched = False
        for (i, j, k), w_var in w_index.items():
            if j == server.server_id:
                r[w_var] = float(k)
                touched = True
        if touched:
            a_ub_rows.append(r)
            b_ub.append(float(server.capacity(cluster.hyperthreading)))

    bounds: List[Tuple[Optional[float], Optional[float]]] = []
    integer = np.zeros(num_vars, dtype=bool)
    for name_index, name in enumerate(names):
        if name.startswith(("u[", "x[")):
            bounds.append((0.0, 1.0))
            integer[name_index] = True
        elif name.startswith("w["):
            bounds.append((0.0, 1.0))
        else:
            bounds.append((0.0, None))

    problem = MILP(
        c=c,
        a_ub=np.array(a_ub_rows),
        b_ub=np.array(b_ub),
        a_eq=np.array(a_eq_rows),
        b_eq=np.array(b_eq),
        bounds=bounds,
        integer=integer,
        names=names,
    )
    return problem, {"u": u_index, "x": x_index}


def _decode_milp(
    result: MILPResult,
    index: dict,
    stages: Sequence[MergedPrimitive],
    cluster: ClusterSpec,
    use_tensor_partitioning: bool,
) -> Plan:
    if result.x is None:
        raise InfeasibleAllocationError("allocation MILP is infeasible")
    threads = [0] * len(stages)
    servers = [-1] * len(stages)
    for (i, k), var in index["u"].items():
        if result.x[var] > 0.5:
            threads[i] = k
    for (i, j), var in index["x"].items():
        if result.x[var] > 0.5:
            servers[i] = j
    assignments = tuple(
        StageAssignment(stage.index, servers[stage.index],
                        threads[stage.index])
        for stage in stages
    )
    return Plan(cluster, tuple(stages), assignments,
                use_tensor_partitioning)


def _milp_size(stages: Sequence[MergedPrimitive],
               cluster: ClusterSpec) -> int:
    """Rough binary-variable count of the faithful formulation."""
    total = 0
    for stage in stages:
        total += _max_threads_for(stage, cluster)
        total += len(cluster.servers_for(stage.kind))
    return total


def allocate_load_balanced(
    stages: Sequence[MergedPrimitive],
    times: Sequence[float],
    cluster: ClusterSpec,
    method: str = "auto",
    use_tensor_partitioning: bool = True,
    max_nodes: int = 20000,
    comm_model=None,
) -> AllocationResult:
    """Solve the load-balanced allocation problem.

    Args:
        stages: merged primitive layers.
        times: profiled T_i per stage (seconds).
        cluster: servers and capacities.
        method: "milp" (faithful branch-and-bound), "water_filling"
            (scalable specialized solver), or "auto" (MILP for small
            instances, water-filling beyond ~80 binaries).
        use_tensor_partitioning: recorded on the plan for the runtime.
        max_nodes: branch-and-bound budget.
        comm_model: optional ``(stage, threads) -> seconds`` callback
            making water-filling communication-aware (see
            :func:`repro.simulate.stagecosts.make_comm_model`).
    """
    if not stages:
        raise PlannerError("no stages to allocate")
    if len(times) != len(stages):
        raise PlannerError("times length != stage count")
    if any(t <= 0 for t in times):
        raise PlannerError("profiled times must be positive")

    if method == "auto":
        method = "milp" if _milp_size(stages, cluster) <= 80 \
            else "water_filling"
    if method == "milp":
        problem, index = build_allocation_milp(stages, times, cluster)
        result = solve_milp(problem, max_nodes=max_nodes)
        plan = _decode_milp(result, index, stages, cluster,
                            use_tensor_partitioning)
        return AllocationResult(
            plan, plan.imbalance(times), "milp", result.nodes_explored
        )
    if method == "water_filling":
        threads = _water_filling(stages, times, cluster, comm_model)
        plan = _make_plan(stages, threads, cluster,
                          use_tensor_partitioning)
        return AllocationResult(plan, plan.imbalance(times),
                                "water_filling")
    raise PlannerError(
        f"unknown method {method!r}; use 'milp', 'water_filling', or "
        "'auto'"
    )
