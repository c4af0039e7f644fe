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
from typing import Callable, Iterable, Sequence

import numpy as np

from .instance import MetricInstance


def _client_arrays(inst: MetricInstance) -> tuple[list[int], np.ndarray]:
    return [inst.index(c) for c in inst.client_ids], inst.client_weights()


def farthest_first(inst: MetricInstance, k: int,
                   candidates: Sequence[str] | None = None) -> tuple[str, ...]:
    """Greedy k-center seeding over the candidate points.

    Starts from the lexicographically smallest candidate id and repeatedly
    adds the candidate farthest from the chosen set, ties again by id.
    """
    cand = sorted(candidates) if candidates is not None else sorted(inst.point_ids)
    if not 1 <= k <= len(cand):
        raise ValueError(f"k={k} out of range for {len(cand)} candidates")
    ci = np.array([inst.index(c) for c in cand])
    chosen = [0]
    mind = inst.dist[ci[0], ci]
    while len(chosen) < k:
        nxt = int(np.argmax(mind))          # first max = lowest id
        chosen.append(nxt)
        np.minimum(mind, inst.dist[ci[nxt], ci], out=mind)
    return tuple(sorted(cand[i] for i in chosen))


# candidate columns per block of the swap table: its temporaries stay two
# clients x 128 arrays whatever the number of candidates
_TABLE_BLOCK = 128


def _swap_table(Dp: np.ndarray, w: np.ndarray, d1: np.ndarray,
                d2: np.ndarray, near: np.ndarray, k: int,
                inside: np.ndarray) -> np.ndarray:
    """Cost of every single swap, from one sweep over Dp.

    Entry (r, c) of the k x |cand| table is the cost after the center in
    slot r leaves and candidate c joins: a client whose nearest center sits
    in slot r pays min(d2, Dp[:, c]), every other client min(d1, Dp[:, c])
    (the nearest/second-nearest bookkeeping of FasterPAM, Schubert and
    Rousseeuw 2021).  An entry sums the same n terms as the direct
    evaluation of that swap, only in another order.  The columns of the
    current centers (inside is True there) hold inf.
    """
    own = np.zeros((k, len(w)))             # w_i in the row of i's nearest slot
    own[near, np.arange(len(w))] = w
    rest = w - own
    table = np.empty((k, Dp.shape[1]))
    for b in range(0, Dp.shape[1], _TABLE_BLOCK):
        blk = Dp[:, b:b + _TABLE_BLOCK]
        np.add(rest @ np.minimum(d1[:, None], blk), own @ np.minimum(d2[:, None], blk),
               out=table[:, b:b + _TABLE_BLOCK])
    table[:, inside] = np.inf
    return table


def _table_column(row: np.ndarray, slack: float) -> int | None:
    """The first exact argmin of a table row, where the table can name it.

    Every entry lies within slack of its direct value, so when exactly one
    entry lies within 2 * slack of the row minimum, every other column's
    direct value exceeds that column's.  Ties, NaN entries and an inf or
    NaN slack give zero or several hits and return None.
    """
    hits = np.flatnonzero(row <= row.min() + 2.0 * slack)
    return int(hits[0]) if len(hits) == 1 else None


def _first_best_swap(approx: np.ndarray, slack: float, cost: float, tol: float,
                     exact: Callable[[int], tuple[float, int]],
                     row: Callable[[int], np.ndarray]) -> tuple[int, int] | None:
    """Replay the scan that evaluates every removal slot directly.

    That scan walks the slots in order and moves to slot r when its
    cheapest swap costs less than best * (1 - tol) - 1e-15, best being the
    cost of the slot it holds (cost at first).  approx[r] is within slack
    of that cheapest swap; exact(r) evaluates it directly and returns it
    with its first cheapest column, and row(r) gives slot r's table entries
    over the same columns.  A slot is evaluated directly only where approx
    cannot settle the comparison, and the chosen slot only where its row
    cannot name the column, so the slot and the column returned are those
    of the full scan.  None when no swap improves.
    """
    best, slot, col = cost, None, None
    unsure = 0.0                            # half-width of best's interval
    for r, a in enumerate(approx):
        if a - slack >= (best + unsure) * (1.0 - tol) - 1e-15:
            continue                        # cannot beat best
        if a + slack < (best - unsure) * (1.0 - tol) - 1e-15:
            best, slot, col, unsure = a, r, None, slack
            continue                        # beats best whatever its exact value
        if unsure:
            best, col = exact(slot)
            unsure = 0.0
        val, j = exact(r)
        if val < best * (1.0 - tol) - 1e-15:
            best, slot, col = val, r, j
    if slot is None:
        return None
    if col is None:
        col = _table_column(row(slot), slack)
    if col is None:
        col = exact(slot)[1]
    return slot, col


def local_search_clustering(inst: MetricInstance, k: int, *,
                            candidates: Sequence[str] | None = None,
                            max_iters: int | None = None,
                            tol: float = 1e-10) -> tuple[tuple[str, ...], float, int]:
    """Single-swap local search for the power-p clustering cost.

    Seeded with farthest_first, then applies the best improving swap until
    none improves by more than a relative tol or max_iters swaps were made.
    Returns (centers, cost in power-p terms, swaps applied).  Deterministic:
    swap candidates are scanned in id order and only strict improvements are
    taken.  Each step scores every swap from one nearest/second-nearest
    table and evaluates directly only the swaps the table cannot rank, so
    centers, cost bits and swap count are those of evaluating every swap.
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

    # a table entry adds the terms of the direct evaluation plus n exact
    # zeros; each term is at most |w_i| * max_c Dp[i, c], so the two sums
    # differ by about 1.5 * n * eps times the sum of those bounds at most
    # (a bound that is inf or NaN sends every slot to direct evaluation)
    slack = 4.0 * (len(w) + 1) * np.finfo(float).eps * float(np.abs(w) @ Dp.max(axis=1))
    cur_cost = cost_of(current)
    rows = np.arange(len(w))
    swaps = 0
    while swaps < max_iters and k < len(cand):
        sub = Dp[:, current]
        order = np.argsort(sub, axis=1)
        near = order[:, 0]
        d1 = sub[rows, near]
        d2 = sub[rows, order[:, 1]] if k > 1 else np.full_like(d1, np.inf)
        inside = np.zeros(len(cand), dtype=bool)
        inside[current] = True
        outside = np.flatnonzero(~inside)

        def exact(slot):
            base = np.where(near == slot, d2, d1)
            cols = Dp[:, outside]
            vals = w @ np.minimum(base[:, None], cols, out=cols)
            j = int(np.argmin(vals))
            return float(vals[j]), j

        table = _swap_table(Dp, w, d1, d2, near, k, inside)
        swap = _first_best_swap(table.min(axis=1), slack, cur_cost, tol, exact,
                                lambda r: table[r, outside])
        if swap is None:
            break
        slot, j = swap
        out, inn = current[slot], int(outside[j])
        current = sorted([p for p in current if p != out] + [inn])
        cur_cost = cost_of(current)
        swaps += 1
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
