"""Shaping the carried fractional solution into structured form.

Downstream rounding wants the fractional solution rigid: every facility
that matters belongs to exactly one survivor's territory, and a survivor
is served only from its own territory plus the ball of its nearest peer.
Three steps get there.  First, a facility serving several locations from
outside their balls is restricted to the nearest one; the others' shares
are refilled inside their own balls at a bounded detour.  Second, each
survivor's territory is formed from its ball plus the out-of-ball
facilities now serving it alone.  Third, openings that sit more than
twice the peer distance away are closed and every service row is rebuilt
greedily from the surviving openings, nearest facilities first; stage 5
rebuilds its rows from the half-integral openings with the same fill.
A territory facility opened beyond its survivor's own use is listed, so
that the opening program can split it into the used part and a spare.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import StageError
from .sparsify import SparsifiedInstance

SUPPORT_TOL = 1e-7
GEOM_TOL = 1e-9


def nearest_surviving(Dl: np.ndarray) -> tuple[np.ndarray, np.ndarray] | tuple[None, None]:
    """Index and distance of each survivor's nearest peer, lowest id on ties."""
    m = Dl.shape[0]
    if m < 2:
        return None, None
    masked = Dl + np.where(np.eye(m, dtype=bool), np.inf, 0.0)
    nn = np.argmin(masked, axis=1)
    return nn, masked[np.arange(m), nn]


def fill_nearest(row: np.ndarray, order, cap: np.ndarray,
                 need: float) -> tuple[float, list[tuple[int, float]]]:
    """Raise row along order, each entry up to its cap, until need is met.

    Entries with no room left are skipped.  Stops after the take that
    brings need to 1e-12 or below.  Returns the need left and the takes
    as (index, amount) pairs in order.
    """
    takes = []
    for t in order:
        room = cap[t] - row[t]
        if room <= 0.0:
            continue
        step = min(need, room)
        row[t] += step
        takes.append((t, step))
        need -= step
        if need <= 1e-12:
            break
    return need, takes


def reassign_private_facilities(sp: SparsifiedInstance) -> tuple[np.ndarray, list[tuple]]:
    """Per facility, keep only the nearest served location's out-of-ball use.

    Reads sp.x column by column and writes a copy of it.  For a facility
    u serving several locations out of their balls, every location but the
    nearest keeps in-ball mass untouched and has its share at u refilled
    from the nearest location's ball, nearest facilities first, capped by
    the opening mass.  Each moved unit travels at most three times its old
    distance: the detour goes over u and the target ball's radius is below
    half the separation.  Returns the new assignment and the moves as
    (location, from, to, amount) index tuples.
    """
    m, F = sp.x.shape
    D = sp.fac_dist
    x = sp.x.copy()
    in_ball = np.zeros((m, F), dtype=bool)
    for v in range(m):
        in_ball[v, sp.balls[v]] = True
    moves: list[tuple] = []
    uses = sp.x > 0.0
    for u in np.flatnonzero(uses.sum(axis=0) >= 2).tolist():
        served = sorted(np.flatnonzero(uses[:, u]).tolist(),
                        key=lambda v: (D[v, u], sp.location_ids[v]))
        v1 = served[0]
        targets = sorted(sp.balls[v1].tolist())
        if not targets:
            raise StageError("structure", f"empty ball for location {sp.location_ids[v1]}")
        for vj in served[1:]:
            if in_ball[vj, u] or in_ball[v1, u]:
                # already inside its own ball, or inside the target ball
                continue
            amount = sp.x[vj, u]
            x[vj, u] -= amount
            order = sorted(targets, key=lambda t: (D[vj, t], t))
            left, takes = fill_nearest(x[vj], order, sp.y, amount)
            moves += [(vj, u, t, step) for t, step in takes]
            if left > SUPPORT_TOL:
                raise StageError("structure",
                                 f"no room in target ball for {left:.3g} mass")
    return x, moves


def build_super_balls(x2: np.ndarray, balls: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each survivor's territory: its ball plus its private servers.

    A private server is a facility outside every ball whose remaining
    service goes to this survivor alone; after the reassignment pass no
    such facility serves two survivors, and that is enforced here.  Open
    facilities outside every ball that serve nobody join no territory and
    stay free.  Territories are pairwise disjoint by construction.
    """
    m, F = x2.shape
    in_some_ball = np.zeros(F, dtype=bool)
    for b in balls:
        in_some_ball[np.asarray(b, dtype=int)] = True
    claimed = np.full(F, -1, dtype=int)
    out: list[np.ndarray] = []
    for v in range(m):
        members = set(np.asarray(balls[v], dtype=int).tolist())
        for u in np.nonzero(x2[v] > SUPPORT_TOL)[0]:
            if in_some_ball[u]:
                continue
            if claimed[u] >= 0 and claimed[u] != v:
                raise StageError(
                    "structure",
                    f"facility {u} privately serves locations {claimed[u]} and {v}")
            claimed[u] = v
            members.add(int(u))
        out.append(np.asarray(sorted(members), dtype=int))
    return out


@dataclass
class StructuredSolution:
    """Structured openings and service, and what each survivor is priced
    against.  A survivor's peer is its nearest other survivor; with fewer
    than two survivors there is none, its peer ball is empty, its peer
    distance inf, its base cost 0, and its ball alone is its territory.
    split lists, in index order, the territory facilities whose opening
    y_bar[u] is above their survivor's own use x_bar[v, u]."""
    sp: SparsifiedInstance
    supers: list[np.ndarray]
    territories: list[np.ndarray]   # the opening program's: super ball, or ball
    peer_balls: list[np.ndarray]
    peer_dist: np.ndarray           # d(v, v')
    base_pow: np.ndarray            # d(v, v')^p
    ball_need: np.ndarray           # in-ball opening mass: 1/2, or 1 with no peer
    split: np.ndarray               # facilities opened beyond their survivor's use
    y_bar: np.ndarray
    x_bar: np.ndarray
    cost_p: float
    diagnostics: dict = field(default_factory=dict)


def fill_service(sp: SparsifiedInstance, supers: Sequence[np.ndarray],
                 peer_balls: Sequence[np.ndarray], y_own: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """Service rows for the openings y, one unit per survivor.

    Each row is filled from the survivor's own ball, then its private
    facilities (its super ball outside the ball), then its peer ball,
    each nearest facility first with ties to the lower index.  Takes in
    the survivor's super ball are capped by y_own, its own part of the
    openings, and takes in the peer ball by the whole opening y.  On
    half-integral openings, where the opening program caps each
    territory's own mass at one unit, this copies y_own over the
    territory and tops the row up from the peer ball.
    """
    D = sp.fac_dist
    x = np.zeros((len(supers), len(y)))
    for v, (ball, peer) in enumerate(zip(sp.balls, peer_balls)):
        in_ball = set(ball.tolist())
        priv = [u for u in supers[v].tolist() if u not in in_ball]
        order = [t for part in (ball.tolist(), priv, peer.tolist())
                 for t in sorted(part, key=lambda t: (D[v, t], t))]
        cap = y.copy()
        cap[supers[v]] = y_own[supers[v]]
        rem, _ = fill_nearest(x[v], order, cap, 1.0)
        if rem > SUPPORT_TOL:
            raise StageError("structure",
                             f"location {sp.location_ids[v]} short of mass {rem:.3g}")
    return x


def enforce_structure(supers: Sequence[np.ndarray],
                      sp: SparsifiedInstance) -> StructuredSolution:
    """Prune far private openings and rebuild service greedily.

    The openings sp.y survive untouched except for private facilities
    beyond twice the peer distance, which are closed outright.  Each
    survivor's service row is then refilled to one unit from scratch by
    fill_service.  The peer ball's half unit always covers what the
    territory cannot, so the fill never comes up short on a carried
    solution.  Whether a survivor has a peer, and which territory
    facilities are opened beyond their survivor's own use, is decided
    here, once, for every later stage.
    """
    m = len(sp.location_ids)
    D = sp.fac_dist
    nn_idx, peer_dist = nearest_surviving(sp.loc_dist)
    y_bar = np.clip(sp.y, 0.0, 1.0)
    supers = [np.asarray(mem, dtype=int).copy() for mem in supers]
    diagnostics = {"pruned": 0.0}

    if nn_idx is None:
        # no peer: nothing to prune against, and the ball must open a full unit
        territories, peer_balls = list(sp.balls), [np.zeros(0, dtype=int)] * m
        peer_dist, base_pow, ball_need = np.full(m, np.inf), np.zeros(m), np.ones(m)
    else:
        for v in range(m):
            ball = set(sp.balls[v].tolist())
            keep = []
            for u in supers[v].tolist():
                if u not in ball and D[v, u] > 2.0 * peer_dist[v] + GEOM_TOL:
                    diagnostics["pruned"] += float(y_bar[u])
                    y_bar[u] = 0.0
                    continue
                keep.append(u)
            supers[v] = np.asarray(keep, dtype=int)
        territories, peer_balls = supers, [sp.balls[w] for w in nn_idx]
        base_pow, ball_need = peer_dist ** sp.p, np.full(m, 0.5)

    x_bar = fill_service(sp, supers, peer_balls, y_bar, y_bar)
    cost = sp.assignment_cost(x_bar)
    split = np.array(sorted(u for v, t in enumerate(territories)
                            for u in t[y_bar[t] > x_bar[v, t]].tolist()), dtype=int)
    return StructuredSolution(sp, supers, territories, peer_balls, peer_dist, base_pow,
                              ball_need, split, y_bar, x_bar, cost, diagnostics)
