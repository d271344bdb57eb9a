"""Generic mixed-integer linear programming by branch-and-bound.

The paper solves its load-balanced allocation ILP "with the
branch-and-bound method" (via Gurobi).  Gurobi is unavailable here, so
this module implements branch-and-bound from scratch on top of
``scipy.optimize.linprog`` (HiGHS) LP relaxations: best-first search on
the relaxation bound, branching on the most fractional integer variable,
with incumbent pruning and a node budget.

The formulation object is deliberately standard form — minimize c.x
subject to ``A_ub x <= b_ub``, ``A_eq x == b_eq``, variable bounds, and
an integrality mask — so it can express any small MILP, and the
allocation builder in :mod:`repro.planner.allocation` is just one
client.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SolverError

#: Tolerance under which a relaxation value counts as integral.
INTEGRALITY_TOL = 1e-6


@dataclass
class MILP:
    """A mixed-integer linear program in standard minimization form.

    Attributes:
        c: objective coefficients (minimize c @ x).
        a_ub, b_ub: inequality constraints ``a_ub @ x <= b_ub``.
        a_eq, b_eq: equality constraints.
        bounds: per-variable (low, high) bounds; None means unbounded.
        integer: per-variable integrality flags.
        names: optional variable names for debugging.
    """

    c: np.ndarray
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    bounds: Optional[List[Tuple[Optional[float], Optional[float]]]] = None
    integer: Optional[np.ndarray] = None
    names: Optional[List[str]] = None

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=np.float64)
        n = self.c.shape[0]
        if self.bounds is None:
            self.bounds = [(0.0, None)] * n
        if len(self.bounds) != n:
            raise SolverError("bounds length != variable count")
        if self.integer is None:
            self.integer = np.zeros(n, dtype=bool)
        self.integer = np.asarray(self.integer, dtype=bool)
        if self.integer.shape[0] != n:
            raise SolverError("integer mask length != variable count")
        for matrix, vector, label in (
            (self.a_ub, self.b_ub, "ub"), (self.a_eq, self.b_eq, "eq"),
        ):
            if (matrix is None) != (vector is None):
                raise SolverError(f"a_{label} and b_{label} must be given "
                                  "together")
            if matrix is not None and \
                    np.asarray(matrix).shape[1] != n:
                raise SolverError(f"a_{label} column count != variables")

    @property
    def num_variables(self) -> int:
        return self.c.shape[0]


@dataclass
class MILPResult:
    """Solution of a MILP.

    Attributes:
        x: optimal variable values (integral where required).
        objective: optimal objective value.
        status: "optimal", "infeasible", or "node_limit".
        nodes_explored: branch-and-bound nodes processed.
    """

    x: Optional[np.ndarray]
    objective: Optional[float]
    status: str
    nodes_explored: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _solve_relaxation(
    problem: MILP,
    extra_bounds: dict[int, Tuple[float, float]],
) -> tuple[Optional[np.ndarray], Optional[float]]:
    bounds = list(problem.bounds)
    for index, (low, high) in extra_bounds.items():
        old_low, old_high = bounds[index]
        new_low = low if old_low is None else max(low, old_low)
        new_high = high if old_high is None else min(high, old_high)
        if new_high is not None and new_low is not None \
                and new_low > new_high + 1e-12:
            return None, None
        bounds[index] = (new_low, new_high)
    # Imported here, not at module level: only the planner's ILP uses
    # scipy, and workers and gateways import this module without
    # ever solving.  After the first solve the import is a dict lookup.
    from scipy.optimize import linprog

    result = linprog(
        problem.c,
        A_ub=problem.a_ub,
        b_ub=problem.b_ub,
        A_eq=problem.a_eq,
        b_eq=problem.b_eq,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        return None, None
    return result.x, float(result.fun)


def _most_fractional(
    x: np.ndarray, integer_mask: np.ndarray
) -> Optional[int]:
    """Index of the integer variable whose relaxed value is closest to
    half-integral, or None when all are integral within tolerance."""
    fractional = [
        (abs(x[i] - round(x[i])), int(i))
        for i in np.flatnonzero(integer_mask)
        if abs(x[i] - round(x[i])) > INTEGRALITY_TOL
    ]
    if not fractional:
        return None
    fractional.sort(key=lambda pair: (-(0.5 - abs(pair[0] - 0.5)), pair[1]))
    return fractional[0][1]


def solve_milp(problem: MILP, max_nodes: int = 20000) -> MILPResult:
    """Branch-and-bound with best-first node selection.

    Args:
        problem: the MILP to solve.
        max_nodes: node budget; exceeding it returns the incumbent with
            status "node_limit" (or raises if there is none).

    Raises:
        SolverError: on a node-limit hit with no feasible incumbent.
    """
    counter = itertools.count()
    root_x, root_obj = _solve_relaxation(problem, {})
    if root_x is None:
        return MILPResult(None, None, "infeasible", nodes_explored=1)

    best_x: Optional[np.ndarray] = None
    best_obj = math.inf
    heap: list = [(root_obj, next(counter), {})]
    nodes = 0
    while heap:
        bound, _, extra = heapq.heappop(heap)
        if bound >= best_obj - 1e-9:
            continue
        nodes += 1
        if nodes > max_nodes:
            if best_x is None:
                raise SolverError(
                    f"branch-and-bound exceeded {max_nodes} nodes with no "
                    "incumbent"
                )
            return MILPResult(best_x, best_obj, "node_limit", nodes)
        x, objective = _solve_relaxation(problem, extra)
        if x is None or objective >= best_obj - 1e-9:
            continue
        branch_var = _most_fractional(x, problem.integer)
        if branch_var is None:
            rounded = x.copy()
            for index in np.flatnonzero(problem.integer):
                rounded[index] = round(rounded[index])
            best_x, best_obj = rounded, objective
            continue
        value = x[branch_var]
        down = dict(extra)
        down[branch_var] = _merge_branch(
            down.get(branch_var), upper=math.floor(value)
        )
        up = dict(extra)
        up[branch_var] = _merge_branch(
            up.get(branch_var), lower=math.ceil(value)
        )
        heapq.heappush(heap, (objective, next(counter), down))
        heapq.heappush(heap, (objective, next(counter), up))

    if best_x is None:
        return MILPResult(None, None, "infeasible", nodes)
    return MILPResult(best_x, best_obj, "optimal", nodes)


def _merge_branch(
    existing: Optional[Tuple[float, float]],
    lower: float | None = None,
    upper: float | None = None,
) -> Tuple[float, float]:
    low = -math.inf if existing is None else existing[0]
    high = math.inf if existing is None else existing[1]
    if lower is not None:
        low = max(low, lower)
    if upper is not None:
        high = min(high, upper)
    return (low, high)


def brute_force_milp(
    problem: MILP, value_ranges: Sequence[Sequence[float]]
) -> MILPResult:
    """Exhaustive reference solver for tiny all-integer MILPs (tests).

    Args:
        problem: MILP where *all* variables are integer.
        value_ranges: candidate values per variable.
    """
    if not bool(np.all(problem.integer)):
        raise SolverError("brute force requires all-integer problems")
    best_x: Optional[np.ndarray] = None
    best_obj = math.inf
    for combo in itertools.product(*value_ranges):
        x = np.asarray(combo, dtype=np.float64)
        if problem.a_ub is not None and \
                np.any(problem.a_ub @ x > np.asarray(problem.b_ub) + 1e-9):
            continue
        if problem.a_eq is not None and \
                np.any(np.abs(problem.a_eq @ x - np.asarray(problem.b_eq))
                       > 1e-9):
            continue
        feasible = True
        for value, (low, high) in zip(x, problem.bounds):
            if low is not None and value < low - 1e-9:
                feasible = False
            if high is not None and value > high + 1e-9:
                feasible = False
        if not feasible:
            continue
        objective = float(problem.c @ x)
        if objective < best_obj - 1e-12:
            best_obj = objective
            best_x = x
    if best_x is None:
        return MILPResult(None, None, "infeasible")
    return MILPResult(best_x, best_obj, "optimal")
