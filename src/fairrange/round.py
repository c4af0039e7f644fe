"""From the structured program down to an integral center set.

The chain here: solve the structured program at a vertex of its doubled
copy (integral by total unimodularity), halve back, rebuild the service
assignment on the half-integral openings, partition the serving facilities
into disjoint sets, and pick one facility per set with a max flow whose
group arcs also enforce the demographic ranges and the exact budget.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import StageError
from .lp import LinearProgram, build_structured_lp, scale_doubled, solve_vertex
from .structure import StructuredSolution

SNAP_TOL = 1e-6
SUPPORT_TOL = 1e-9


def structured_program(ss: StructuredSolution, fac_groups,
                       rc) -> tuple[LinearProgram, list[np.ndarray]]:
    """Opening program and its columns' facilities for an already
    structured solution."""
    sp = ss.sp
    return build_structured_lp(sp.fac_dist_p, sp.weights, fac_groups, rc.k, rc.ranges,
                               sp.balls, ss.territories, ss.base_pow, ss.ball_need,
                               ss.split)


@dataclass(frozen=True)
class HalfIntegralSolution:
    y: np.ndarray               # openings, own plus spare, in {0, 1/2, 1}
    y_own: np.ndarray           # the own columns' part of y
    snap_deviation: float


def _check_rows_exact(lp: LinearProgram, x: np.ndarray) -> None:
    # All coefficients are unit and all values and right-hand sides are
    # small integers, so float sums and comparisons are exact here.  The
    # comparisons are written as what holds, so a NaN breaks its row.
    total = np.bincount(lp.row_of, weights=lp.data * x[lp.indices],
                        minlength=len(lp.rhs))
    ok = np.where(lp.geq, total >= lp.rhs, total <= lp.rhs)
    bad = np.flatnonzero(~ok)
    if bad.size:
        sense = lp.senses()[bad[0]]
        raise StageError("round", f"snapped vertex breaks a {sense} row")
    if np.any(x > lp.upper):
        raise StageError("round", "snapped vertex breaks an upper bound")
    if np.any(x < 0.0):
        raise StageError("round", "snapped vertex went negative")


def solve_half_integral(lp: LinearProgram, members: list[np.ndarray]) -> HalfIntegralSolution:
    """Vertex of the doubled program, snapped, spread and halved.

    The doubled program has an integral vertex optimum, so any coordinate
    farther than SNAP_TOL from an integer means the solver did not return
    a vertex and we refuse to continue.  The snapped point is checked
    exactly against the doubled program, which holds each column's value
    to twice its members' count; the value then fills the members in
    index order, 2 each.  A facility's first column is its own and a
    later one its spare: y sums both, y_own holds the first.  Stage 4's
    point lies in the program, so an infeasible one is a fault.
    """
    scaled = scale_doubled(lp)
    res = solve_vertex(scaled)
    if res.status != "optimal":
        raise StageError("round", f"scaled structured program is {res.status}")
    snapped = np.round(res.x)
    dev = float(np.max(np.abs(res.x - snapped))) if lp.num_vars else 0.0
    if dev > SNAP_TOL:
        raise StageError("round", f"half-integrality violation, deviation {dev:.3g}")
    _check_rows_exact(scaled, snapped)
    facs = np.concatenate([np.zeros(0, dtype=np.intp), *members])
    vals = np.concatenate([np.zeros(0), *(np.clip(val - 2.0 * np.arange(len(cols)), 0.0, 2.0)
                                          for val, cols in zip(snapped, members))]) / 2.0
    own, first = np.unique(facs, return_index=True)
    y_own = np.zeros(len(own))
    y_own[own] = vals[first]
    return HalfIntegralSolution(np.bincount(facs, vals, len(own)), y_own, dev)


def half_integral_cost(ss: StructuredSolution, y: np.ndarray) -> float:
    """The opening program's cost at the own openings y, summed in
    nonnegative terms.

    The program's objective weights own y_u by d(v,u)^p - d(v,v')^p, spare
    columns by 0, and leaves out the constant sum of w_v d(v,v')^p;
    objective plus constant cancels to 0 at large p.  Per location this sums
        w_v [sum_{u in P(v)} d(v,u)^p y_u + (1 - sum_{u in P(v)} y_u) d(v,v')^p]
    instead; the territory rows cap the own mass over P(v) at 1, so no
    term is negative.  With no peer the base cost is 0.
    """
    sp = ss.sp
    own = np.array([sp.fac_dist_p[v, t] @ y[t] for v, t in enumerate(ss.territories)])
    mass = np.array([y[t].sum() for t in ss.territories])
    return float(sp.weights @ (own + (1.0 - mass) * ss.base_pow))


@dataclass(frozen=True)
class FacilityPartition:
    surviving: tuple[int, ...]             # greedy order
    sets: dict[int, tuple[int, ...]]       # survivor -> its serving facilities
    r_values: np.ndarray                   # unit service cost, every location
    count: int
    served: tuple[tuple[int, ...], ...]    # serving facilities, every location
    removed_by: dict[int, int]             # removed location -> its remover


def partition_facilities(sp, x_tilde: np.ndarray) -> FacilityPartition:
    """Greedy disjoint serving sets, cheapest unit cost first.

    A location whose serving set touches an already claimed facility is
    dropped and remembers the earliest claimant; its service guarantee
    rides on that claimant's set.
    """
    m, num_f = x_tilde.shape
    dp = sp.fac_dist_p
    served = []
    for v in range(m):
        sup = tuple(int(u) for u in np.nonzero(x_tilde[v] > SUPPORT_TOL)[0])
        if not 1 <= len(sup) <= 2:
            raise StageError("round", f"location {v} served by {len(sup)} facilities")
        served.append(sup)
    r = np.array([float(x_tilde[v] @ dp[v]) for v in range(m)])
    order = sorted(range(m), key=lambda v: (r[v], sp.location_ids[v]))
    claimed: dict[int, int] = {}            # facility -> position of claimant
    surviving: list[int] = []
    sets: dict[int, tuple[int, ...]] = {}
    removed_by: dict[int, int] = {}
    for v in order:
        hits = [claimed[u] for u in served[v] if u in claimed]
        if hits:
            removed_by[v] = surviving[min(hits)]
            continue
        pos = len(surviving)
        surviving.append(v)
        sets[v] = served[v]
        for u in served[v]:
            claimed[u] = pos
    return FacilityPartition(tuple(surviving), sets, r, len(surviving),
                             tuple(served), removed_by)


class _MaxFlow:
    """Shortest-augmenting-path max flow over paired residual edges."""

    def __init__(self, n: int):
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, a: int, b: int, cap: int) -> int:
        eid = len(self.to)
        self.head[a].append(eid)
        self.to.append(b)
        self.cap.append(cap)
        self.head[b].append(eid + 1)
        self.to.append(a)
        self.cap.append(0)
        return eid

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while True:
            via = [-1] * len(self.head)
            via[s] = -2
            queue = deque([s])
            while queue and via[t] == -1:
                v = queue.popleft()
                for e in self.head[v]:
                    w = self.to[e]
                    if self.cap[e] > 0 and via[w] == -1:
                        via[w] = e
                        queue.append(w)
            if via[t] == -1:
                return total
            push = None
            v = t
            while v != s:
                e = via[v]
                push = self.cap[e] if push is None else min(push, self.cap[e])
                v = self.to[e ^ 1]
            v = t
            while v != s:
                e = via[v]
                self.cap[e] -= push
                self.cap[e ^ 1] += push
                v = self.to[e ^ 1]
            total += push


def select_centers(ss: StructuredSolution, x_tilde: np.ndarray,
                   fac_groups, rc) -> tuple[np.ndarray, FacilityPartition]:
    """Partition, then one facility per serving set by max flow, on the
    service rows x_tilde that fill_service gives for the half-integral
    openings.  Only the group arcs have lower bounds, so the bounded flow
    is a max flow: group j sends alpha_j to the sink and up to
    beta_j - alpha_j through t, which sends k - sum(alpha); a flow of k
    meets every window.  Each serving set carries a full unit of
    x_tilde <= y, and y meets the range and card rows, so a selection
    exists, and a flow below k is a fault."""
    part = partition_facilities(ss.sp, x_tilde)
    L, k, num_f = part.count, rc.k, len(ss.sp.facility_ids)
    if L > k:
        raise StageError("round", f"{L} serving sets exceed the budget {k}")
    pool, fac = L + 1, L + 2            # nodes: s, sets, pool, facilities, groups, t, sink
    grp = fac + num_f
    t = grp + len(rc.ranges)
    sink = t + 1
    mf = _MaxFlow(sink + 1)
    for i in range(L):
        mf.add(0, 1 + i, 1)
    mf.add(0, pool, k - L)
    for i, v in enumerate(part.surviving):
        for u in part.sets[v]:
            mf.add(1 + i, fac + u, 1)
    for u in range(num_f):
        mf.add(pool, fac + u, 1)
    opens = [mf.add(fac + u, grp + int(fac_groups[u]) - 1, 1) for u in range(num_f)]
    for j, (alpha, beta) in enumerate(rc.ranges):
        mf.add(grp + j, t, beta - alpha)
        if alpha > 0:
            mf.add(grp + j, sink, alpha)
    rest = k - sum(alpha for alpha, _ in rc.ranges)
    if rest > 0:
        mf.add(t, sink, rest)
    if rest < 0 or mf.max_flow(0, sink) < k:
        raise StageError("round", "no integral selection meets the ranges")
    return np.flatnonzero([mf.cap[e] == 0 for e in opens]), part
