"""From the structured program down to an integral center set.

The chain here: solve the structured program's doubled copy as an
integral min-cost flow, halve back, rebuild the service assignment on the
half-integral openings, partition the serving facilities into disjoint
sets, and pick one facility per set with a max flow whose group arcs also
enforce the demographic ranges and the exact budget.
"""
from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import StageError
from .structure import StructuredSolution


@dataclass(frozen=True)
class OpeningProgram:
    """Stage 5's opening program, doubled, as a flow network: its rows are
    two laminar families, card over group windows over split pairs, and
    territories over balls (Krishnaswamy et al., "The matroid median
    problem", 2011).  Nodes, in topological order: origin, card, groups,
    split facilities, balls, territories, sink.  A unit runs origin -> card
    (at most 2k) -> group (2 alpha to 2 beta) -> split node (at most 2) ->
    column -> ball -> territory (at least 2 ball_need) -> sink (at most 2)
    past the rows its column is in; free and spare columns end at the sink.
    Arcs are (tail, head, lower, upper, cost), column j being arc j."""
    arcs: list[tuple[int, int, int, int, int]]
    num_vars: int
    num_nodes: int

    @property
    def rows(self) -> list[tuple[int, ...]]:
        """The constraint sets: for each node but the origin and the sink,
        the columns whose flow passes through it."""
        sink = self.num_nodes - 1
        up = {b: a for a, b, *_ in self.arcs}       # read at nodes with one arc in
        down = {a: b for a, b, *_ in self.arcs}     # read at nodes with one arc out
        sets: list[list[int]] = [[] for _ in range(sink)]
        for j, (a, b, *_) in enumerate(self.arcs[:self.num_vars]):
            while a != 0:               # card, group and split nodes
                sets[a].append(j)
                a = up[a]
            while b != sink:            # ball and territory nodes
                sets[b].append(j)
                b = down[b]
        return [tuple(s) for s in sets[1:]]


def structured_program(ss: StructuredSolution, fac_groups,
                       rc) -> tuple[OpeningProgram, list[np.ndarray]]:
    """Opening program and its columns' facilities for ss: a column per
    territory facility and per group of free facilities, in facility order
    (a group's at its first member), then a spare per facility in ss.split.
    An own column costs w_v (d(v,u)^p - d(v,v')^p), v' being v's peer (base
    0 with none), exactly, in integers at one scale.  Each ball lies in its
    territory."""
    sp, m = ss.sp, len(ss.territories)
    label, split = np.asarray(fac_groups).tolist(), ss.split.tolist()
    owner = np.full(len(label), -1)
    for v, t in enumerate(ss.territories):
        owner[t] = v
    in_ball = {u for b in sp.balls for u in b.tolist()}
    node = {u: 2 + len(rc.ranges) + i for i, u in enumerate(split)}     # split nodes
    ball = 2 + len(rc.ranges) + len(split)
    terr, sink = ball + m, ball + 2 * m
    # a group's free facilities share one column, keyed apart from the
    # facilities by -group; each float is an integer over a power of two,
    # and so is w_v (d(v,u)^p - d(v,v')^p)
    columns, terms = {}, {}
    for u, v in enumerate(owner.tolist()):
        if v < 0:
            columns.setdefault(-label[u], []).append(u)
        else:
            columns[u] = [u]
            (wn, wd), (an, ad), (bn, bd) = (float(x).as_integer_ratio() for x in (
                sp.weights[v], sp.fac_dist_p[v, u], ss.base_pow[v]))
            terms[u] = (v, wn * (an * bd - bn * ad), wd * ad * bd)
    scale = max((d for *_, d in terms.values()), default=1)    # a multiple of every d
    columns = sorted(columns.values())
    arcs = [(node.get(u, 1 + label[u]), (ball if u in in_ball else terr) + terms[u][0], 0, 2,
             terms[u][1] * (scale // terms[u][2])) if u in terms
            else (1 + label[u], sink, 0, 2 + 2 * len(rest), 0)      # free facilities
            for u, *rest in columns]
    arcs += [(node[u], sink, 0, 2, 0) for u in split] + [(0, 1, 0, 2 * rc.k, 0)]
    arcs += [(1, 1 + g, 2 * a, 2 * b, 0) for g, (a, b) in enumerate(rc.ranges, start=1)]
    arcs += [(1 + label[u], node[u], 0, 2, 0) for u in split]
    arcs += [(ball + v, terr + v, round(2 * need), 2, 0) for v, need in enumerate(ss.ball_need)]
    arcs += [(terr + v, sink, 0, 2, 0) for v in range(m)]
    members = [np.array(c, dtype=np.intp) for c in columns + [[u] for u in split]]
    return OpeningProgram(arcs, len(members), sink + 1), members


@dataclass(frozen=True)
class OpeningVertex:
    x: list[int]            # each column's value in the doubled program
    iterations: int         # augmenting paths


def solve_vertex(program: OpeningProgram) -> OpeningVertex:
    """An optimal integral point of the doubled opening program.  A lower
    bound becomes a parallel arc priced below any flow's total |cost|, so
    the cheapest paths fill it first; one left short means no point meets
    the rows."""
    big = 1 + sum(abs(cost) * upper for *_, upper, cost in program.arcs)
    net = _Network(program.num_nodes)
    lows = [net.add(a, b, lower, cost - big) for a, b, lower, _, cost in program.arcs if lower]
    cols = [net.add(a, b, upper - lower, cost) for a, b, lower, upper, cost in program.arcs]
    paths = net.min_cost_flow(0, program.num_nodes - 1)
    if any(net.cap[e] for e in lows):
        raise StageError("round", "opening program is infeasible")
    return OpeningVertex([net.cap[e ^ 1] for e in cols[:program.num_vars]], paths)


@dataclass(frozen=True)
class HalfIntegralSolution:
    y: np.ndarray               # openings, own plus spare, in {0, 1/2, 1}
    y_own: np.ndarray           # the own columns' part of y


def solve_half_integral(program: OpeningProgram,
                        members: list[np.ndarray]) -> HalfIntegralSolution:
    """Optimal point of the doubled program, spread and halved: a column's
    value fills its members in index order, 2 each.  y sums a facility's own
    and spare columns, y_own holds its own.  Stage 4's point lies in the
    program, so an infeasible one is a fault."""
    vertex = solve_vertex(program)
    facs = np.concatenate([np.zeros(0, dtype=np.intp), *members])
    vals = np.concatenate([np.zeros(0), *(np.clip(val - 2.0 * np.arange(len(cols)), 0.0, 2.0)
                                          for val, cols in zip(vertex.x, members))]) / 2.0
    own, first = np.unique(facs, return_index=True)
    y_own = np.zeros(len(own))
    y_own[own] = vals[first]
    return HalfIntegralSolution(np.bincount(facs, vals, len(own)), y_own)


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
        sup = tuple(int(u) for u in np.nonzero(x_tilde[v] > 0.0)[0])
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


class _Network:
    """Residual graph over paired arcs: max flow by shortest augmenting
    paths, and min-cost flow by successive shortest paths."""

    def __init__(self, n: int):
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to, self.cap, self.cost = [], [], []       # per arc, its reverse next

    def add(self, a: int, b: int, cap: int, cost: int = 0) -> int:
        eid = len(self.to)
        self.head[a].append(eid)
        self.head[b].append(eid + 1)
        self.to += [b, a]
        self.cap += [cap, 0]
        self.cost += [cost, -cost]
        return eid

    def _push(self, s: int, t: int, via: list[int]) -> int:
        """Augment along via, each node's entering arc, by the bottleneck."""
        path, v = [], t
        while v != s:
            path.append(via[v])
            v = self.to[via[v] ^ 1]
        push = min(self.cap[e] for e in path)
        for e in path:
            self.cap[e] -= push
            self.cap[e ^ 1] += push
        return push

    def min_cost_flow(self, s: int, t: int) -> int:
        """Push flow from s to t along cheapest paths while one costs below
        0 (Ahuja, Magnanti & Orlin, "Network flows", 1993, ch. 9); returns
        the number of paths.  The network must be fresh and numbered in a
        topological order, so one pass gives the first potentials."""
        n = len(self.head)
        pot = [math.inf] * n
        pot[s] = 0
        for v in range(n):
            for e in self.head[v] if pot[v] < math.inf else ():
                if self.cap[e] > 0:
                    pot[self.to[e]] = min(pot[self.to[e]], pot[v] + self.cost[e])
        for paths in itertools.count():
            dist, via, heap = [math.inf] * n, [-1] * n, [(0, s)]
            dist[s] = 0
            while heap:
                d, v = heapq.heappop(heap)
                for e in self.head[v] if d == dist[v] else ():
                    w = self.to[e]
                    if self.cap[e] > 0 and d + self.cost[e] + pot[v] - pot[w] < dist[w]:
                        dist[w], via[w] = d + self.cost[e] + pot[v] - pot[w], e
                        heapq.heappush(heap, (dist[w], w))
            pot = [p + d if d < math.inf else p for p, d in zip(pot, dist)]
            if dist[t] == math.inf or pot[t] >= 0:      # pot[t] is the path's cost
                return paths
            self._push(s, t, via)

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
            total += self._push(s, t, via)


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
    mf = _Network(sink + 1)
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
