"""From the structured program down to an integral center set.

The chain here: solve the structured program at a vertex of its doubled
copy (integral by total unimodularity), halve back, rebuild the service
assignment on the half-integral openings, partition the serving facilities
into disjoint sets, and pick one facility per set with a flow that also
enforces the demographic ranges and the exact budget.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NoIntegralSelectionError, OpeningInfeasibleError, StageError
from .lp import GEQ, LEQ, LinearProgram, build_structured_lp, scale_doubled, solve_vertex
from .structure import StructuredSolution, saturating_assignment

SNAP_TOL = 1e-6
SUPPORT_TOL = 1e-9


def structured_program(ss: StructuredSolution, fac_groups, rc) -> tuple[LinearProgram, float]:
    """Build the opening program for an already structured solution.

    With a single survivor the serving territory collapses to the ball:
    a full unit must open there, and everything else, privates included,
    stays free for the range rows at zero service cost.
    """
    sp = ss.sp
    dp = sp.dist_to_facilities() ** sp.p
    nn_pow = None if ss.single else ss.nn_dist ** sp.p
    supers = [sp.balls[0]] if ss.single else ss.supers
    return build_structured_lp(dp, sp.weights, fac_groups, rc.k, rc.ranges,
                               sp.balls, supers, nn_pow)


@dataclass
class HalfIntegralSolution:
    y: np.ndarray               # coordinates in {0, 1/2, 1}
    objective: float            # constant term included
    x_tilde: np.ndarray | None
    snap_deviation: float


def _check_rows_exact(lp: LinearProgram, x: np.ndarray) -> None:
    # All coefficients are unit and all values and right-hand sides are
    # small integers, so float comparison is exact here.
    for row in lp.rows:
        total = sum(x[j] * c for j, c in row.coeffs)
        ok = (total <= row.rhs) if row.sense == LEQ else \
             (total >= row.rhs) if row.sense == GEQ else (total == row.rhs)
        if not ok:
            raise StageError("round", f"snapped vertex breaks a {row.sense} row")
    if lp.upper is not None and np.any(x > lp.upper):
        raise StageError("round", "snapped vertex breaks an upper bound")
    if np.any(x < 0.0):
        raise StageError("round", "snapped vertex went negative")


def solve_half_integral(lp: LinearProgram, constant_term: float) -> HalfIntegralSolution:
    """Vertex of the doubled program, snapped and halved.

    The doubled program has an integral vertex optimum, so any coordinate
    farther than SNAP_TOL from an integer means the solver did not return
    a vertex and we refuse to continue.
    """
    scaled = scale_doubled(lp)
    res = solve_vertex(scaled)
    if res.status == "infeasible":
        raise OpeningInfeasibleError("round", "scaled structured program is infeasible")
    if res.status != "optimal":
        raise StageError("round", f"scaled structured program is {res.status}")
    snapped = np.round(res.x[:lp.num_vars])
    dev = float(np.max(np.abs(res.x[:lp.num_vars] - snapped))) if lp.num_vars else 0.0
    if dev > SNAP_TOL:
        raise StageError("round", f"half-integrality violation, deviation {dev:.3g}")
    _check_rows_exact(scaled, snapped)
    y = snapped / 2.0
    objective = float(np.dot(lp.objective, y)) + constant_term
    return HalfIntegralSolution(y, objective, None, dev)


def half_integral_assignment(ss: StructuredSolution, y: np.ndarray) -> np.ndarray:
    """Service rows for the half-integral openings.

    Same saturation rule as the structured rebuild: copy y over each
    territory, top the row up from the neighbor ball nearest first.  All
    masses are halves, so every row lands on exactly 1.
    """
    supers = [ss.sp.balls[0]] if ss.single else ss.supers
    try:
        return saturating_assignment(ss.sp, y, supers, ss.nn_idx,
                                     ss.sp.dist_to_facilities())
    except StageError as exc:
        raise StageError("round", str(exc).split(": ", 1)[1]) from exc


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
    dp = sp.dist_to_facilities() ** sp.p
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


@dataclass(frozen=True)
class FlowNetwork:
    num_nodes: int
    names: tuple[str, ...]
    arcs: tuple[tuple[int, int, int, int], ...]   # (tail, head, lower, upper)
    s: int
    set_nodes: tuple[int, ...]
    pool: int
    fac_base: int
    grp_base: int
    t1: int
    t2: int
    k: int
    count: int
    num_facilities: int
    open_arcs: tuple[int, ...]              # facility -> index of its u->g arc


def build_flow_network(part: FacilityPartition, num_facilities: int,
                       group_label, rc) -> FlowNetwork:
    """Layered selection network: one facility per serving set, the rest
    from the pool, demographic counts funneled through bounded group arcs."""
    L = part.count
    if L > rc.k:
        raise StageError("round", f"{L} serving sets exceed the budget {rc.k}")
    num_groups = len(rc.ranges)
    names = ["s"]
    set_nodes = tuple(range(1, L + 1))
    names += [f"S{i + 1}" for i in range(L)]
    pool = L + 1
    names.append("pool")
    fac_base = pool + 1
    names += [f"f{u}" for u in range(num_facilities)]
    grp_base = fac_base + num_facilities
    names += [f"g{j + 1}" for j in range(num_groups)]
    t1 = grp_base + num_groups
    t2 = t1 + 1
    names += ["t1", "t2"]

    arcs: list[tuple[int, int, int, int]] = []
    for node in set_nodes:
        arcs.append((0, node, 0, 1))
    arcs.append((0, pool, 0, rc.k - L))
    for i, v in enumerate(part.surviving):
        for u in part.sets[v]:
            arcs.append((set_nodes[i], fac_base + u, 0, 1))
    for u in range(num_facilities):
        arcs.append((pool, fac_base + u, 0, 1))
    open_arcs = []
    for u in range(num_facilities):
        open_arcs.append(len(arcs))
        arcs.append((fac_base + u, grp_base + int(group_label[u]) - 1, 0, 1))
    for j, (alpha, beta) in enumerate(rc.ranges):
        arcs.append((grp_base + j, t1, alpha, beta))
    arcs.append((t1, t2, rc.k, rc.k))
    return FlowNetwork(t2 + 1, tuple(names), tuple(arcs), 0, set_nodes, pool,
                       fac_base, grp_base, t1, t2, rc.k, L, num_facilities,
                       tuple(open_arcs))


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


def solve_flow_lower_bounds(net: FlowNetwork) -> np.ndarray | None:
    """Integral flow meeting every [lower, upper] arc bound, or None.

    Closes the circulation with a [k, k] return arc, shifts lower bounds
    onto a super source and sink, and checks that the max flow saturates
    every shifted unit.
    """
    arcs = list(net.arcs) + [(net.t2, net.s, net.k, net.k)]
    src, sink = net.num_nodes, net.num_nodes + 1
    mf = _MaxFlow(net.num_nodes + 2)
    eids = []
    excess = [0] * net.num_nodes
    for a, b, lo, hi in arcs:
        if lo > hi:
            raise StageError("round", "arc with lower bound above upper bound")
        eids.append(mf.add(a, b, hi - lo))
        excess[a] -= lo
        excess[b] += lo
    need = 0
    for v, e in enumerate(excess):
        if e > 0:
            mf.add(src, v, e)
            need += e
        elif e < 0:
            mf.add(v, sink, -e)
    if mf.max_flow(src, sink) < need:
        return None
    flows = [arcs[i][2] + (arcs[i][3] - arcs[i][2] - mf.cap[eids[i]])
             for i in range(len(net.arcs))]
    return np.asarray(flows, dtype=int)


def extract_centers(flows: np.ndarray, net: FlowNetwork) -> np.ndarray:
    """Facilities whose selection arc carries a unit."""
    centers = np.nonzero(flows[list(net.open_arcs)] == 1)[0]
    if len(centers) != net.k:
        raise StageError("round", f"flow opened {len(centers)} facilities, wanted {net.k}")
    return centers


def select_centers(ss: StructuredSolution, half: HalfIntegralSolution,
                   fac_groups, rc) -> tuple[np.ndarray, FacilityPartition, FlowNetwork]:
    """Partition, flow, and extraction in one step."""
    if half.x_tilde is None:
        half.x_tilde = half_integral_assignment(ss, half.y)
    part = partition_facilities(ss.sp, half.x_tilde)
    net = build_flow_network(part, len(ss.sp.facility_ids), fac_groups, rc)
    flows = solve_flow_lower_bounds(net)
    if flows is None:
        raise NoIntegralSelectionError("round", "no integral selection meets the ranges")
    return extract_centers(flows, net), part, net


def flow_to_text(net: FlowNetwork, flows: np.ndarray | None = None) -> str:
    lines = [f"nodes {net.num_nodes}: " + " ".join(net.names)]
    for i, (a, b, lo, hi) in enumerate(net.arcs):
        line = f"{net.names[a]} -> {net.names[b]} [{lo}, {hi}]"
        if flows is not None:
            line += f" flow={int(flows[i])}"
        lines.append(line)
    return "\n".join(lines)
