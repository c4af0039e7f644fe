"""Unconstrained baseline clustering and location consolidation.

The fair solver does not work on raw clients.  It first solves the vanilla
k-clustering problem (no groups, no ranges, centers anywhere), then snaps
every client onto its nearest baseline center and aggregates demand there.
Downstream stages only ever see the, at most k, weighted locations that
survive.  The price of the snap is a factor 2^(p-1) against the sum of the
baseline cost and any candidate solution's cost, which the final certificate
accounts for.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .instance import MetricInstance


def _client_arrays(inst: MetricInstance) -> tuple[list[int], np.ndarray]:
    return [inst.index(c) for c in inst.client_ids], inst.client_weights()


def farthest_first(inst: MetricInstance, k: int,
                   candidates: Sequence[str] | None = None) -> tuple[str, ...]:
    """Greedy k-center seeding over the candidate points.

    Starts from the lexicographically smallest candidate id and repeatedly
    adds the candidate farthest from the chosen set, ties again by id.  A
    chosen candidate is never chosen again, even where every candidate left
    coincides with a chosen one.
    """
    cand = sorted(candidates) if candidates is not None else sorted(inst.point_ids)
    if not 1 <= k <= len(cand):
        raise ValueError(f"k={k} out of range for {len(cand)} candidates")
    ci = np.array([inst.index(c) for c in cand])
    chosen = [0]
    mind = inst.dist[ci[0], ci]
    mind[0] = -np.inf
    while len(chosen) < k:
        nxt = int(np.argmax(mind))          # first max = lowest id
        chosen.append(nxt)
        np.minimum(mind, inst.dist[ci[nxt], ci], out=mind)
        mind[nxt] = -np.inf
    return tuple(sorted(cand[i] for i in chosen))


# candidate columns per block.  The search builds one block's k x 128 swap
# table at a time, so its temporaries stay two clients x 128 arrays whatever
# the number of candidates, and a swap is applied as soon as its block finds it
_TABLE_BLOCK = 128


def _block_table(Dp: np.ndarray, rest: np.ndarray, own: np.ndarray,
                 d1: np.ndarray, d2: np.ndarray, lo: int) -> np.ndarray:
    """Cost of every swap into the candidates lo .. lo + 127, in one pass.

    Entry (r, c) is the cost after the center in slot r leaves and
    candidate lo + c joins: a client whose nearest center sits in slot r
    (own) pays min(d2, Dp[:, lo + c]), every other client (rest)
    min(d1, Dp[:, lo + c]), the nearest/second-nearest bookkeeping of
    FasterPAM (Schubert and Rousseeuw 2021).  An entry sums the same n
    terms as the direct cost of that swap, in another order, plus n exact
    zeros.
    """
    blk = Dp[:, lo:lo + _TABLE_BLOCK]
    return rest @ np.minimum(d1[:, None], blk) + own @ np.minimum(d2[:, None], blk)


def _block_hits(table: np.ndarray, inside: np.ndarray, slack: float,
                below: float) -> np.ndarray:
    """The swaps of a block table whose direct cost must be taken.

    Every entry lies within slack of its swap's direct cost.  So no swap
    costs less than below when the block minimum is at least below + slack,
    and the result is empty.  Otherwise every entry more than 2 * slack
    above the minimum costs more than the minimum's swap, and the block's
    first direct argmin is among the rest: a single hit is that argmin,
    several are ties to settle directly.  A NaN entry or a NaN or inf slack
    leaves every swap.  The columns of the current centers (inside is True
    there) are set to inf and never hit.  Hits are flat row-major indices:
    slot, then candidate.
    """
    table[:, inside] = np.inf
    low = float(table.min())
    if low - slack >= below:
        return np.empty(0, dtype=np.intp)
    hit = ~(table > low + 2.0 * slack)
    hit[:, inside] = False
    return np.flatnonzero(hit)


def local_search_clustering(inst: MetricInstance, k: int, *,
                            candidates: Sequence[str] | None = None,
                            max_iters: int | None = None,
                            tol: float = 1e-10) -> tuple[tuple[str, ...], float, int]:
    """Single-swap local search for the power-p clustering cost.

    Seeded with farthest_first.  The search walks the candidates in blocks
    of _TABLE_BLOCK, in id order and cyclically.  In each block it finds
    the first cheapest swap, slots in order and then candidates in order,
    and applies it when it costs less than cost * (1 - tol) - 1e-15; then
    it moves on to the next block either way (the eager rule of FasterPAM).
    It stops after a full cycle of blocks without a swap, which is a
    single-swap local optimum, or after max_iters swaps.  Returns (centers,
    cost in power-p terms, swaps applied).  Deterministic.  A block's swaps
    are scored from one nearest/second-nearest table, which only filters:
    every applied swap and its cost come from the direct cost of its
    center set, so the result is that of costing every swap directly.
    """
    cand = sorted(candidates) if candidates is not None else sorted(inst.point_ids)
    if not 1 <= k <= len(cand):
        raise ValueError(f"k={k} out of range for {len(cand)} candidates")
    if max_iters is None:
        max_iters = 100 * k
    cl_idx, w = _client_arrays(inst)
    ci = [inst.index(c) for c in cand]
    # column-major: every scan below reads whole candidate columns
    Dp = np.asfortranarray(inst.dist.take(cl_idx, axis=0).take(ci, axis=1))
    np.power(Dp, inst.p, out=Dp)
    start = farthest_first(inst, k, candidates=cand)
    pos_of = {c: t for t, c in enumerate(cand)}
    current = sorted(pos_of[c] for c in start)

    def cost_of(pos_list):
        return float(w @ Dp[:, pos_list].min(axis=1))

    # a table entry adds the terms of the direct cost plus n exact zeros;
    # each term is at most |w_i| * max_c Dp[i, c], so the two sums differ
    # by about 1.5 * n * eps times the sum of those bounds at most (a bound
    # that is inf or NaN sends every swap to its direct cost)
    slack = 4.0 * (len(w) + 1) * np.finfo(float).eps * float(np.abs(w) @ Dp.max(axis=1))
    cur_cost = cost_of(current)
    rows = np.arange(len(w))
    blocks = range(0, len(cand), _TABLE_BLOCK)
    swaps = idle = b = 0
    while swaps < max_iters and k < len(cand) and idle < len(blocks):
        if idle == 0:                           # at the start and after a swap
            sub = Dp[:, current]
            order = np.argsort(sub, axis=1)
            d1 = sub[rows, order[:, 0]]
            d2 = sub[rows, order[:, 1]] if k > 1 else np.full_like(d1, np.inf)
            own = np.zeros((k, len(w)))         # w_i in the row of i's nearest slot
            own[order[:, 0], rows] = w
            rest = w - own
            inside = np.zeros(len(cand), dtype=bool)
            inside[current] = True
            below = cur_cost * (1.0 - tol) - 1e-15
        lo = blocks[b]
        table = _block_table(Dp, rest, own, d1, d2, lo)
        hits = _block_hits(table, inside[lo:lo + _TABLE_BLOCK], slack, below)
        trials = [sorted(current[:r] + current[r + 1:] + [lo + c])
                  for r, c in (divmod(int(h), table.shape[1]) for h in hits)]
        vals = [cost_of(t) for t in trials]
        j = int(np.argmin(vals)) if vals else 0
        if vals and vals[j] < below:
            current, cur_cost = trials[j], vals[j]
            swaps += 1
            idle = 0
        else:
            idle += 1
        b = (b + 1) % len(blocks)
    centers = tuple(sorted(cand[t] for t in current))
    return centers, cur_cost, swaps


@dataclass
class ReducedInstance:
    """Clients consolidated onto baseline centers.

    location_ids keeps only centers that received demand.  assign maps each
    client id to its location; baseline_cost_p is the power-p cost of that
    assignment on the source instance.  The distance tables are computed
    once, here: fac_dist (locations x facilities), its p-th power
    fac_dist_p, and loc_dist (locations x locations).
    """
    source: MetricInstance
    location_ids: tuple[str, ...]
    weights: np.ndarray
    assign: dict[str, str]
    baseline_cost_p: float
    _loc_idx: list[int] = field(init=False, repr=False)
    fac_dist: np.ndarray = field(init=False, repr=False)
    fac_dist_p: np.ndarray = field(init=False, repr=False)
    loc_dist: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        src = self.source
        self._loc_idx = [src.index(v) for v in self.location_ids]
        fi = [src.index(u) for u in self.facility_ids]
        self.fac_dist = src.dist[np.ix_(self._loc_idx, fi)]
        self.fac_dist_p = self.fac_dist ** self.p
        self.loc_dist = src.dist[np.ix_(self._loc_idx, self._loc_idx)]

    @property
    def p(self) -> float:
        return self.source.p

    @property
    def facility_ids(self) -> tuple[str, ...]:
        return self.source.facility_ids

    def cost_of(self, centers: Iterable[str]) -> float:
        """Power-p cost of serving the weighted locations from centers."""
        cs = [self.source.index(c) for c in centers]
        if not cs:
            raise ValueError("empty center set")
        d = self.source.dist[np.ix_(self._loc_idx, cs)].min(axis=1)
        return float(self.weights @ d ** self.p)


def lift_bound(red: ReducedInstance, centers: Iterable[str]) -> tuple[float, float]:
    """Original-instance cost of centers, with its consolidation bound.

    One triangle application per client gives
        cost_original <= 2^(p-1) * (baseline cost + cost on the locations),
    so returning to raw clients never costs more than the right-hand side.
    """
    from .instance import clustering_cost

    centers = list(centers)
    actual = clustering_cost(red.source, centers)[0]
    bound = 2.0 ** (red.p - 1.0) * (red.baseline_cost_p + red.cost_of(centers))
    return actual, bound


def reduce_locations(inst: MetricInstance, centers: Sequence[str]) -> ReducedInstance:
    """Snap clients to their nearest center (ties to the lowest center id)
    and aggregate demand; centers left with zero demand are dropped."""
    cs = sorted(centers)
    if not cs:
        raise ValueError("empty center set")
    cl_idx, w = _client_arrays(inst)
    cids = inst.client_ids
    D = inst.dist[np.ix_(cl_idx, [inst.index(c) for c in cs])]
    nearest = np.argmin(D, axis=1)          # first min = lowest id
    agg = {c: 0.0 for c in cs}
    assign = {}
    base_cost = 0.0
    for t, v in enumerate(cids):
        c = cs[nearest[t]]
        agg[c] += w[t]
        assign[v] = c
        base_cost += w[t] * D[t, nearest[t]] ** inst.p
    kept = [c for c in cs if agg[c] > 0.0]
    weights = np.array([agg[c] for c in kept], dtype=float)
    return ReducedInstance(inst, tuple(kept), weights, assign, float(base_cost))
