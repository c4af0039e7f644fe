"""Unconstrained baseline clustering and location consolidation.

The fair solver does not work on raw clients.  It first solves the vanilla
k-clustering problem (no groups, no ranges, centers anywhere), then snaps
every client onto its nearest baseline center and aggregates demand there.
With no more clients than k the clients themselves serve as the centers.
Downstream stages only ever see the, at most k, weighted locations that
survive.  The price of the snap is a factor 2^(p-1) against the sum of the
baseline cost and any candidate solution's cost, which the final certificate
accounts for.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .instance import MetricInstance


def farthest_first(inst: MetricInstance, k: int) -> list[int]:
    """Greedy k-center seeding over all points, as sorted indices into
    inst.point_pos.

    Starts from the lexicographically smallest point id and repeatedly
    adds the point farthest from the chosen set, ties again by id.  A
    chosen point is never chosen again, even where every point left
    coincides with a chosen one.
    """
    pos = inst.point_pos
    if not 1 <= k <= len(pos):
        raise ValueError(f"k={k} out of range for {len(pos)} points")
    chosen = [0]
    mind = inst.block(pos[:1], pos)[0].copy()     # the block may be a view
    mind[0] = -np.inf
    while len(chosen) < k:
        nxt = int(np.argmax(mind))          # first max = lowest id
        chosen.append(nxt)
        np.minimum(mind, inst.block(pos[nxt:nxt + 1], pos)[0], out=mind)
        mind[nxt] = -np.inf
    return sorted(chosen)


# swaps per center after which the search stops short of a local optimum
_SWAPS_PER_CENTER = 100
# candidate columns per block.  The search builds one block's k x 128 swap
# table at a time, so its temporaries stay two clients x 128 arrays whatever
# the number of candidates, and a swap is applied as soon as its block finds it
_TABLE_BLOCK = 128
# the float32 table is scaled by a power of two so that d_max^p sits below
# 2^_TABLE_TOP; float32 holds up to 2^128, and the headroom keeps small
# terms far from its subnormals
_TABLE_TOP = 100


def _table_scale(w: np.ndarray, dmax_p: float) -> tuple[float, float, float, float]:
    """Scales and error bound of the float32 swap table: (wscale, scale,
    rho, a).

    The weights enter the table as float32(w * wscale) and the p-th powers
    as float32(d^p * scale).  Both scales are powers of two: the weights'
    total is at most 1 and dmax_p * scale is below 2^_TABLE_TOP, so no
    entry overflows.  Every term of an entry is nonnegative, so an entry T
    and its swap's direct float64 cost C, times wscale * scale, satisfy
    |T - C| <= rho * T + a.  Along each term T takes two casts to float32,
    one product and at most n additions (gamma_{n+4} of float32), and C is
    an n-term float64 dot (gamma_n); a covers float32 subnormals and the
    float64 ones scaled up.  A negative or NaN weight, or total weight *
    dmax_p beyond float64, gives NaN bounds, which send every swap to its
    direct cost.
    """
    n, total = len(w), float(w.sum())
    top = dmax_p * total                        # inf or NaN past float64
    if not (math.isfinite(top) and w.min(initial=0.0) >= 0.0):
        return 1.0, 1.0, math.nan, math.nan
    f = min(0, -math.frexp(total)[1])
    e = min(_TABLE_TOP - math.frexp(dmax_p)[1], 1023)
    g32 = (n + 4) * 2.0**-24 / (1.0 - (n + 4) * 2.0**-24)
    g64 = n * 2.0**-53 / (1.0 - n * 2.0**-53)
    return (math.ldexp(1.0, f), math.ldexp(1.0, e), (g32 + g64) / (1.0 - g32),
            n * (2.0**-20 + math.ldexp(1.0, e + f - 1070)))


def _block_table(Dp: np.ndarray, rest: np.ndarray, own: np.ndarray,
                 d1: np.ndarray, d2: np.ndarray, lo: int) -> np.ndarray:
    """Cost of every swap into the candidates lo .. lo + 127, in one pass.

    Entry (r, c) is the cost after the center in slot r leaves and
    candidate lo + c joins: a client whose nearest center sits in slot r
    (own) pays min(d2, Dp[:, lo + c]), every other client (rest)
    min(d1, Dp[:, lo + c]), the nearest/second-nearest bookkeeping of
    FasterPAM (Schubert and Rousseeuw 2021).  In the search every array
    is float32 and scaled (_table_scale): an entry sums the n terms of its
    swap's direct cost, each rounded to float32, plus n exact zeros, and
    stays within _table_scale's bound of that cost.
    """
    blk = Dp[:, lo:lo + _TABLE_BLOCK]
    return rest @ np.minimum(d1[:, None], blk) + own @ np.minimum(d2[:, None], blk)


def _block_hits(table: np.ndarray, inside: np.ndarray, rho: float, a: float,
                below: float) -> np.ndarray:
    """The swaps of a block table whose direct cost must be taken.

    Every entry T lies within rho * T + a of its swap's direct cost, in
    the table's units.  With low the block minimum, no swap costs less
    than below when low * (1 - rho) - a >= below, and the result is empty.
    Otherwise the minimum's swap costs at most low * (1 + rho) + a, so
    every swap that ties the block's direct minimum has
    T * (1 - rho) <= low * (1 + rho) + 2a; the block's first direct argmin
    is among those entries: a single hit is that argmin, several are ties
    to settle directly.  A NaN entry or a NaN or inf bound leaves every
    swap.  The columns of the current centers (inside is True there) are
    set to inf and never hit.  Hits are flat row-major indices: slot, then
    candidate.
    """
    table[:, inside] = np.inf
    low = float(table.min())
    if low * (1.0 - rho) - a >= below:
        return np.empty(0, dtype=np.intp)
    # a float32 table meets the bound rounded to the nearest float32, and
    # every float32 entry at or below the bound is at or below that
    hit = ~(table > (low * (1.0 + rho) + 2.0 * a) / (1.0 - rho))
    hit[:, inside] = False
    return np.flatnonzero(hit)


def local_search_clustering(inst: MetricInstance, k: int) -> tuple[tuple[str, ...], float, int]:
    """Single-swap local search for the power-p clustering cost.

    Seeded with farthest_first; every point is a candidate center.  The
    search walks the candidates in blocks of _TABLE_BLOCK, in id order and
    cyclically.  In each block it finds the first cheapest swap, slots in
    order and then candidates in order, and applies it when it costs less
    than cost * (1 - 1e-10) - 1e-15; then it moves on to the next block
    either way (the eager rule of FasterPAM).  It stops after a full cycle
    of blocks without a swap, which is a single-swap local optimum, or
    after _SWAPS_PER_CENTER * k swaps.  Returns (centers, cost in power-p
    terms, swaps applied).  Deterministic.

    A block's swaps are scored from one float32 nearest/second-nearest
    table, scaled by powers of two so that it cannot overflow
    (_table_scale), which only filters (_block_hits).  Every direct cost
    comes from float64 columns d^p of the current centers, held slot-major
    (k x n), and of the candidate: the trial "slot r out, candidate c in"
    costs w @ minimum(where(near == r, d2, d1), column of c).  So the
    result is that of costing every swap directly, bit for bit.  The
    filter's bound needs nonnegative distances, which solve_fair_range
    requires.

    The table and the columns come from MetricInstance.to_clients, one row
    of distances per candidate.  On an instance from instance_from_coords,
    the only builder that marks its matrix mirrored, those are the
    candidates' rows of the matrix, read and written contiguously: each
    entry there is the same bits as its transpose, so the row holds exactly
    the column's values.  Every other instance, a matrix document or an
    asymmetric matrix, is read along the candidates' columns.
    """
    pos, current = inst.point_pos, farthest_first(inst, k)
    w = inst.client_weights()
    blocks = range(0, len(pos), _TABLE_BLOCK)
    with np.errstate(over="ignore"):
        wscale, scale, rho, a = _table_scale(
            w, float(np.float64(inst.distance_range[1]) ** inst.p))
    unit = wscale * scale                       # table units per unit of cost
    w32 = (w * wscale).astype(np.float32)
    # column-major: every scan below reads whole candidate columns.  Raised
    # in float64 half a block of candidates at a time, so its temporaries
    # stay two 64 x clients arrays, and cast to float32 on the scaling write
    Dp = np.empty((len(w), len(pos)), dtype=np.float32, order="F")
    half = _TABLE_BLOCK // 2
    for lo in range(0, len(pos), half):
        np.multiply(np.power(inst.to_clients(pos[lo:lo + half]), inst.p),
                    scale, out=Dp.T[lo:lo + half])

    def columns(ts):
        # float64 d^p of the candidates ts, one row per candidate, for every
        # client: the values that direct costs are defined on
        return np.power(inst.to_clients(pos[ts]), inst.p, order="C")

    cols = columns(current)                     # slot-major: k x n
    colv = list(cols)
    cur_cost = float(w @ cols.min(axis=0))
    inside = np.zeros(len(pos), dtype=bool)
    inside[current] = True
    swaps = idle = b = 0
    while swaps < _SWAPS_PER_CENTER * k and k < len(pos) and idle < len(blocks):
        if idle == 0:                           # at the start and after a swap
            d1 = cols.min(axis=0)
            # mine[r, i]: slot r is client i's nearest, the first minimum,
            # so ties go to the lowest slot.  Without ties that is d1's one
            # entry in each column (a NaN column has none, but then the cost
            # is NaN and no swap is ever taken)
            mine = cols == d1
            if np.count_nonzero(mine) != len(w):
                mine = np.zeros_like(mine)
                mine[cols.argmin(axis=0), np.arange(len(w))] = True
            d2 = np.where(mine, np.inf, cols).min(axis=0)   # inf when k = 1
            own = mine * w32                    # w_i in the row of i's nearest slot
            rest = w32 - own
            d1s = (d1 * scale).astype(np.float32)   # rounded as the table is
            d2s = (d2 * scale).astype(np.float32)
            below = cur_cost * (1.0 - 1e-10) - 1e-15
            others = {}                         # slot r -> min over the other slots
        lo = blocks[b]
        table = _block_table(Dp, rest, own, d1s, d2s, lo)
        hits = _block_hits(table, inside[lo:lo + _TABLE_BLOCK], rho, a, below * unit)
        trial_cols = {}                         # candidate -> its column, this block
        best = None                             # (cost, slot, candidate) of the first cheapest hit
        for h in hits.tolist():
            r, c = divmod(h, table.shape[1])
            if r not in others:
                others[r] = np.where(mine[r], d2, d1)
            if c not in trial_cols:
                trial_cols[c] = columns(slice(lo + c, lo + c + 1))[0]
            v = float(w @ np.minimum(others[r], trial_cols[c]))
            if best is None or v < best[0]:
                best = (v, r, c)
        if best is not None and best[0] < below:
            cur_cost, r, c = best
            inside[current[r]], inside[lo + c] = False, True
            del current[r], colv[r]
            i = bisect.bisect(current, lo + c)
            current.insert(i, lo + c)
            colv.insert(i, trial_cols[c])
            cols = np.array(colv)
            swaps += 1
            idle = 0
        else:
            idle += 1
        b = (b + 1) % len(blocks)
    centers = tuple(sorted(inst.point_ids[pos[t]] for t in current))
    return centers, cur_cost, swaps


@dataclass
class ReducedInstance:
    """Clients consolidated onto baseline centers.

    location_ids keeps only centers that received demand.  The distance
    tables are computed once, here: fac_dist (locations x facilities), its
    p-th power fac_dist_p, and loc_dist (locations x locations).
    """
    source: MetricInstance
    location_ids: tuple[str, ...]
    weights: np.ndarray
    _loc_pos: np.ndarray = field(init=False, repr=False)
    fac_dist: np.ndarray = field(init=False, repr=False)
    fac_dist_p: np.ndarray = field(init=False, repr=False)
    loc_dist: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._loc_pos = self.source.positions(self.location_ids)
        self.fac_dist = self.source.block(self._loc_pos, self.source.facility_pos)
        self.fac_dist_p = self.fac_dist ** self.p
        self.loc_dist = self.source.block(self._loc_pos, self._loc_pos)

    @property
    def p(self) -> float:
        return self.source.p

    @property
    def facility_ids(self) -> tuple[str, ...]:
        return self.source.facility_ids

    def cost_of(self, centers: Iterable[str]) -> float:
        """Power-p cost of serving the weighted locations from centers."""
        cs = self.source.positions(centers)
        if not len(cs):
            raise ValueError("empty center set")
        d = self.source.block(self._loc_pos, cs).min(axis=1)
        return float(self.weights @ d ** self.p)


def reduce_locations(inst: MetricInstance, centers: Sequence[str]) -> ReducedInstance:
    """Snap clients to their nearest center (ties to the lowest center id)
    and aggregate demand; centers left with zero demand are dropped, so an
    instance with no client, or none with positive demand, keeps no
    location."""
    if not inst.client_ids:
        return ReducedInstance(inst, (), np.zeros(0))
    cs = sorted(centers)
    if not cs:
        raise ValueError("empty center set")
    D = inst.to_clients(inst.positions(cs))    # one row per center
    nearest = np.argmin(D, axis=0)          # first min = lowest id
    agg = np.bincount(nearest, weights=inst.client_weights(), minlength=len(cs))
    kept = tuple(c for c, a in zip(cs, agg) if a > 0.0)
    return ReducedInstance(inst, kept, agg[agg > 0.0])
