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
from .lp import LinearProgram, build_structured_lp, scale_doubled, solve_vertex
from .structure import SUPPORT_TOL as MASS_TOL
from .structure import StructuredSolution, fill_nearest

SNAP_TOL = 1e-6
SUPPORT_TOL = 1e-9


def structured_program(ss: StructuredSolution, fac_groups, rc) -> tuple[LinearProgram, float]:
    """Build the opening program for an already structured solution.

    With a single survivor the serving territory collapses to the ball:
    a full unit must open there, and everything else, privates included,
    stays free for the range rows at zero service cost.
    """
    sp = ss.sp
    nn_pow = None if ss.single else ss.nn_dist ** sp.p
    return build_structured_lp(sp.fac_dist_p, sp.weights, fac_groups, rc.k, rc.ranges,
                               sp.balls, ss.territories, nn_pow)


@dataclass
class HalfIntegralSolution:
    y: np.ndarray               # coordinates in {0, 1/2, 1}
    objective: float            # constant term included
    x_tilde: np.ndarray | None
    snap_deviation: float


def _check_rows_exact(lp: LinearProgram, x: np.ndarray) -> None:
    # All coefficients are unit and all values and right-hand sides are
    # small integers, so float sums and comparisons are exact here.  The
    # comparisons are written as what holds, so a NaN breaks its row.
    total = np.bincount(lp.row_of, weights=lp.data * x[lp.indices],
                        minlength=len(lp.rhs))
    ok = np.where(lp.geq, total >= lp.rhs,
                  np.where(lp.eq, total == lp.rhs, total <= lp.rhs))
    bad = np.flatnonzero(~ok)
    if bad.size:
        sense = lp.senses()[bad[0]]
        raise StageError("round", f"snapped vertex breaks a {sense} row")
    if lp.upper is not None and np.any(x > lp.upper):
        raise StageError("round", "snapped vertex breaks an upper bound")
    if np.any(x < 0.0):
        raise StageError("round", "snapped vertex went negative")


def merge_free_columns(lp: LinearProgram) -> tuple[LinearProgram, list[np.ndarray]]:
    """Presolve: one column for each set of identical free facilities.

    A free column has objective 0 and sits in no ball or super-ball row,
    so it meets only its group's range rows and the card row, and all free
    columns of a group are the same column.  Each such set becomes one
    column, at the place of its first member, with the members' summed
    upper bound: a copy of an existing column, so total unimodularity and
    integral bounds survive (duplicate-column merging, Andersen & Andersen,
    "Presolving in linear programming", 1995).  Reads the row tags and
    upper bounds that build_structured_lp sets.  Returns the small program
    and the original columns behind each of its columns, in index order.
    """
    n, m = lp.num_vars, len(lp.rhs)
    touches = np.array([kind[0] in ("ball", "superball") for kind in lp.row_kinds],
                       dtype=bool)
    free = lp.objective == 0.0
    free[lp.indices[touches[lp.row_of]]] = False
    # a free column joins the first free column with the same entries: a
    # stable sort of the free columns by their entries puts it right after
    entries = np.zeros((n, m))
    entries[lp.indices, lp.row_of] = lp.data
    cols = np.flatnonzero(free)
    order = cols[np.lexsort(entries[cols].T)]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (entries[order[1:]] != entries[order[:-1]]).any(axis=1)
    head = np.arange(n)
    head[order] = order[starts][np.cumsum(starts) - 1]
    firsts, new_of = np.unique(head, return_inverse=True)
    members = np.split(np.argsort(new_of, kind="stable"),
                       np.cumsum(np.bincount(new_of)))[:-1]
    # a merged column takes the entries of its first member
    keep = head[lp.indices] == lp.indices
    indptr = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(np.bincount(lp.row_of[keep], minlength=m), out=indptr[1:])
    upper = np.array([lp.upper[c].sum() for c in members])
    return LinearProgram(len(members), lp.objective[firsts], indptr,
                         new_of[lp.indices[keep]], lp.data[keep], lp.rhs, lp.geq, lp.eq,
                         upper=upper, row_kinds=lp.row_kinds), members


def _spread(values: np.ndarray, members: list[np.ndarray], upper: np.ndarray,
            n: int) -> np.ndarray:
    """Full-length point from merged values: each merged value fills its
    members in index order up to their bounds (2, 2, ..., the remainder),
    and anything a bound cannot take stays on the last member, where the
    exact check catches it."""
    x = np.zeros(n)
    for val, cols in zip(values, members):
        if len(cols) == 1:
            x[cols[0]] = val
            continue
        ub = upper[cols]
        before = np.concatenate(([0.0], np.cumsum(ub[:-1])))
        part = np.clip(val - before, 0.0, ub)
        part[-1] += val - part.sum()
        x[cols] = part
    return x


def solve_half_integral(lp: LinearProgram, constant_term: float) -> HalfIntegralSolution:
    """Vertex of the doubled program, snapped and halved.

    The doubled program has an integral vertex optimum, so any coordinate
    farther than SNAP_TOL from an integer means the solver did not return
    a vertex and we refuse to continue.  The vertex is found on the
    program with each group's free facilities merged into one column, and
    the spread-out point is checked exactly against the full program.
    """
    scaled = scale_doubled(lp)
    small, members = merge_free_columns(scaled)
    res = solve_vertex(small)
    if res.status == "infeasible":
        raise OpeningInfeasibleError("round", "scaled structured program is infeasible")
    if res.status != "optimal":
        raise StageError("round", f"scaled structured program is {res.status}")
    snapped = np.round(res.x)
    dev = float(np.max(np.abs(res.x - snapped))) if small.num_vars else 0.0
    if dev > SNAP_TOL:
        raise StageError("round", f"half-integrality violation, deviation {dev:.3g}")
    full = _spread(snapped, members, scaled.upper, lp.num_vars)
    _check_rows_exact(scaled, full)
    y = full / 2.0
    objective = float(np.dot(lp.objective, y)) + constant_term
    return HalfIntegralSolution(y, objective, None, dev)


def half_integral_cost(ss: StructuredSolution, y: np.ndarray) -> float:
    """The opening program's cost at y, summed in nonnegative terms.

    The program's objective c.y + constant writes each location's cost as
    d(v,v')^p plus coefficients d(v,u)^p - d(v,v')^p, which cancel to 0 at
    large p.  Per location this sums
        w_v [sum_{u in P(v)} d(v,u)^p y_u + (1 - sum_{u in P(v)} y_u) d(v,v')^p]
    instead; the super ball rows cap the mass over P(v) at 1, so no term is
    negative.  With a single survivor it is sum w d^p y over the ball.
    """
    sp = ss.sp
    own = np.array([sp.fac_dist_p[v, t] @ y[t] for v, t in enumerate(ss.territories)])
    if not ss.single:
        mass = np.array([y[t].sum() for t in ss.territories])
        own += (1.0 - mass) * ss.nn_dist ** sp.p
    return float(sp.weights @ own)


def half_integral_assignment(ss: StructuredSolution, y: np.ndarray) -> np.ndarray:
    """Service rows for the half-integral openings.

    Copy y over each territory, then top the row up from the neighbor
    ball, nearest facilities first, each take capped by the opening mass.
    All masses are halves, so every row lands on exactly 1.
    """
    sp = ss.sp
    D = sp.fac_dist
    x = np.zeros(sp.x.shape)
    for v, territory in enumerate(ss.territories):
        x[v, territory] = y[territory]
        rem = 1.0 - float(x[v].sum())
        if rem <= 1e-12:
            if rem < -1e-7:
                raise StageError("round", f"super ball mass above one at {v}")
            continue
        if ss.single:
            raise StageError("round", f"single survivor short of mass {rem:.3g}")
        order = sorted(sp.balls[ss.nn_idx[v]].tolist(), key=lambda t: (D[v, t], t))
        rem, _ = fill_nearest(x[v], order, y, rem)
        if rem > MASS_TOL:
            raise StageError("round",
                             f"location {sp.location_ids[v]} short of mass {rem:.3g}")
    return x


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
