"""Location sparsification driven by fractional service radii.

After the assignment LP is solved on the reduced locations, each location v
gets a radius R(v), the p-norm of its fractional service distances.  Two
facts make the radii useful.  At least half of v's assignment mass sits
inside the closed ball of radius 2^(1/p) R(v) around v, by a Markov
argument on the powered distances.  And locations can be merged greedily,
cheapest radius first, so that the survivors are pairwise farther apart
than 2^(1+1/p) times either radius, which keeps their balls disjoint.

The survivors with aggregated demand, their balls, and the restricted
fractional solution are what the structure stage consumes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .baseline import ReducedInstance
from .errors import StageError

COVER_TOL = 1e-7


def ball_multiplier(p: float) -> float:
    return 2.0 ** (1.0 / p)


def separation_multiplier(p: float) -> float:
    return 2.0 ** (1.0 + 1.0 / p)


def _row_masses(x: np.ndarray) -> np.ndarray:
    """Row sums of the assignment x.  A row short of unit mass means the
    solve went wrong; that raises StageError."""
    sums = x.sum(axis=1)
    if np.any(sums < 1.0 - COVER_TOL):
        bad = int(np.argmin(sums))
        raise StageError("sparsify",
                         f"assignment row {bad} has mass {sums[bad]:.9f}")
    return sums


def canonical_assignment(x: np.ndarray) -> np.ndarray:
    """Clip stray negatives and rescale rows with mass above one.

    Scaling a row down to unit mass keeps it feasible and never raises the
    objective, so a canonicalized optimal solution stays optimal.  A row
    short of unit mass raises StageError.
    """
    x = np.array(x, dtype=float)
    np.maximum(x, 0.0, out=x)
    sums = _row_masses(x)
    over = sums > 1.0
    x[over] /= sums[over, None]
    return x


def fractional_radius(dp: np.ndarray, x: np.ndarray, p: float) -> np.ndarray:
    """Per-location p-norm radius of the fractional assignment."""
    dp = np.asarray(dp, dtype=float)
    x = np.asarray(x, dtype=float)
    _row_masses(x)
    return (dp * x).sum(axis=1) ** (1.0 / p)


def compute_balls(D: np.ndarray, radii: np.ndarray, p: float) -> list[np.ndarray]:
    """Closed ball membership, per location: d(v, u) <= 2^(1/p) R(v)."""
    mult = ball_multiplier(p)
    return [np.nonzero(D[v] <= mult * radii[v])[0] for v in range(D.shape[0])]


def consolidate(ids: Sequence[str], loc_dist: np.ndarray, radii: np.ndarray,
                weights: np.ndarray, p: float) -> tuple[list[int], np.ndarray, dict[str, str]]:
    """Greedy merge, smallest (radius, id) first.

    A location is absorbed by the first already-kept location within
    2^(1+1/p) times its own radius; otherwise it survives.  Surviving
    locations therefore violate that proximity test against each other in
    both directions.  Returns (surviving indices sorted by id, aggregated
    weights aligned with them, id-level representative map).
    """
    m = len(ids)
    sep = separation_multiplier(p)
    order = sorted(range(m), key=lambda t: (radii[t], ids[t]))
    kept_seq: list[int] = []
    rep_of: dict[int, int] = {}
    for t in order:
        rep = None
        for s in kept_seq:
            if loc_dist[t, s] <= sep * radii[t]:
                rep = s
                break
        if rep is None:
            kept_seq.append(t)
            rep_of[t] = t
        else:
            rep_of[t] = rep
    kept = sorted(kept_seq, key=lambda t: ids[t])
    agg = {t: 0.0 for t in kept}
    for t in range(m):
        agg[rep_of[t]] += float(weights[t])
    w_prime = np.array([agg[t] for t in kept], dtype=float)
    fmap = {ids[t]: ids[rep_of[t]] for t in range(m)}
    return kept, w_prime, fmap


@dataclass
class SparsifiedInstance:
    """Surviving locations, red's at positions kept, with their balls and the
    carried LP solution.  The distance tables are red's, at the kept rows."""
    red: ReducedInstance
    kept: list[int]                         # positions in red.location_ids
    weights: np.ndarray
    radii: np.ndarray                       # aligned with location_ids
    forward_map: dict[str, str]             # reduced location id -> survivor id
    balls: list[np.ndarray]                 # facility indices per survivor
    x: np.ndarray                           # survivors x facilities
    y: np.ndarray
    location_ids: tuple[str, ...] = field(init=False)
    fac_dist: np.ndarray = field(init=False, repr=False)
    fac_dist_p: np.ndarray = field(init=False, repr=False)
    loc_dist: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.location_ids = tuple(self.red.location_ids[t] for t in self.kept)
        self.fac_dist = self.red.fac_dist[self.kept]
        self.fac_dist_p = self.red.fac_dist_p[self.kept]
        self.loc_dist = self.red.loc_dist[np.ix_(self.kept, self.kept)]

    @property
    def p(self) -> float:
        return self.red.p

    @property
    def facility_ids(self) -> tuple[str, ...]:
        return self.red.facility_ids

    def assignment_cost(self, x: np.ndarray) -> float:
        """Weighted p-th power cost of the survivors x facilities assignment x."""
        return float(self.weights @ (x * self.fac_dist_p).sum(axis=1))


def sparsify(red: ReducedInstance, x: np.ndarray, y: np.ndarray) -> SparsifiedInstance:
    """Consolidate the reduced locations under the LP radii.

    x rows of absorbed locations are dropped; their demand is carried by the
    surviving representative, whose radius is no larger, so the carried
    fractional cost never grows.
    """
    x = np.asarray(x, dtype=float)
    radii = fractional_radius(red.fac_dist_p, x, red.p)
    kept, w_prime, fmap = consolidate(red.location_ids, red.loc_dist,
                                      radii, red.weights, red.p)
    r_kept = radii[kept]
    balls = compute_balls(red.fac_dist[kept], r_kept, red.p)
    return SparsifiedInstance(red, kept, w_prime, r_kept, fmap, balls,
                              x[kept].copy(), np.asarray(y, dtype=float).copy())
