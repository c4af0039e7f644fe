"""Instance model for fair range clustering.

A problem instance is a finite metric over named points, a labeled subset of
facility points partitioned into groups, and a weighted subset of client
points.  Everything downstream treats instances as read-only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

METRIC_TOL = 1e-9
TRIANGLE_SAMPLE_CAP = 1_000_000
POWER_CHECK_TOL = 1e-9
COORD_ROW_BLOCK = 64     # rows of pairwise differences built at a time


@dataclass
class MetricInstance:
    point_ids: tuple[str, ...]
    dist: np.ndarray                 # square symmetric matrix, row order = point_ids
    facility_ids: tuple[str, ...]
    group_label: dict[str, int]      # facility id -> group in 1..num_groups
    client_demands: dict[str, int]   # client id -> positive integer demand
    p: float
    coords: np.ndarray | None = None  # optional, kept only for serialization

    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        points = set(self.point_ids)
        if len(points) != len(self.point_ids):
            raise ValueError("duplicate point ids")
        n = len(self.point_ids)
        self.dist = np.asarray(self.dist, dtype=float)
        if self.dist.shape != (n, n):
            raise ValueError("distance matrix shape does not match point count")
        for f in self.facility_ids:
            if f not in points:
                raise ValueError(f"facility {f!r} is not a point")
        for c in self.client_demands:
            if c not in points:
                raise ValueError(f"client {c!r} is not a point")
        if not 1 <= self.p < math.inf:
            raise ValueError(f"p must be finite and at least 1, got {self.p}")
        self.facility_ids = tuple(sorted(self.facility_ids))
        self._index = {pid: i for i, pid in enumerate(self.point_ids)}
        self.dist.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.point_ids)

    @property
    def num_groups(self) -> int:
        return max(self.group_label.values(), default=0)

    @property
    def client_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.client_demands))

    def client_weights(self) -> np.ndarray:
        """Client demands as floats, in client_ids order."""
        return np.array([self.client_demands[c] for c in self.client_ids], dtype=float)

    def index(self, pid: str) -> int:
        return self._index[pid]

    def d(self, a: str, b: str) -> float:
        return float(self.dist[self._index[a], self._index[b]])

    def submatrix(self, rows: Sequence[str], cols: Sequence[str]) -> np.ndarray:
        ri = [self._index[r] for r in rows]
        ci = [self._index[c] for c in cols]
        return self.dist[np.ix_(ri, ci)]

    def group_sizes(self, num_groups: int | None = None) -> list[int]:
        ell = self.num_groups if num_groups is None else num_groups
        sizes = [0] * ell
        for f in self.facility_ids:
            g = self.group_label.get(f)
            if g is not None and 1 <= g <= ell:
                sizes[g - 1] += 1
        return sizes


def instance_from_coords(ids: Sequence[str], coords, facility_ids, group_label,
                         client_demands, p: float) -> MetricInstance:
    """Build an instance with Euclidean distances from coordinates of any
    dimension, one row per point."""
    pts = np.asarray(coords, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != len(ids):
        raise ValueError("coordinate array shape does not match ids")
    # Each entry keeps the bits of the one-shot sqrt(((x - y)**2).sum()) that
    # documents were written with, whatever the block size.  Below 8
    # coordinates numpy's sum adds left to right, so the squares are
    # accumulated into the output rows one coordinate at a time with one
    # rows x n temporary; from 8 on it sums pairwise, so those keep the
    # rows x n x dim difference block.
    n, dim = pts.shape
    dist = np.empty((n, n))
    if dim >= 8:
        for a in range(0, n, COORD_ROW_BLOCK):
            diff = pts[a:a + COORD_ROW_BLOCK, None, :] - pts[None, :, :]
            np.sqrt((diff * diff).sum(axis=2), out=dist[a:a + COORD_ROW_BLOCK])
    else:
        cols = np.ascontiguousarray(pts.T)
        tmp = np.empty((min(COORD_ROW_BLOCK, n), n))
        for a in range(0, n, COORD_ROW_BLOCK):
            out = dist[a:a + COORD_ROW_BLOCK]
            sq = tmp[:len(out)]
            out.fill(0.0)
            for col in cols:
                np.subtract(col[a:a + COORD_ROW_BLOCK, None], col, out=sq)
                sq *= sq
                out += sq
            np.sqrt(out, out=out)
    np.fill_diagonal(dist, 0.0)
    return MetricInstance(tuple(ids), dist, tuple(facility_ids),
                          dict(group_label), dict(client_demands), p, coords=pts)


@dataclass(frozen=True)
class RangeConstraints:
    """Per-group center count window plus the total center budget k."""
    k: int
    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        for a, b in self.ranges:
            if a < 0 or b < 0:
                raise ValueError("range bounds must be nonnegative")
            if a > b:
                raise ValueError(f"empty range [{a}, {b}]")

    @property
    def num_groups(self) -> int:
        return len(self.ranges)


@dataclass(frozen=True)
class CenterSolution:
    centers: tuple[str, ...]
    group_counts: tuple[int, ...]
    cost_p: float     # sum of w(v) * d(v, C)^p
    cost: float       # cost_p ** (1/p)


@dataclass
class ValidationReport:
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_instance(inst: MetricInstance, *, triangle_cap: int = TRIANGLE_SAMPLE_CAP,
                      seed: int = 0) -> ValidationReport:
    """Check the metric and labeling invariants, reporting every violation found.

    Symmetry, zero diagonal, nonnegativity and the triangle inequality are
    checked to METRIC_TOL; a nan entry is named and reported by no other
    check.  Triangle triples: exhaustive up to triangle_cap, then sampled.
    """
    out: list[str] = []
    D = inst.dist
    n = inst.n
    nan = np.isnan(D)
    if nan.any():
        i, j = np.argwhere(nan)[0]
        out.append(f"nan: d({inst.point_ids[i]},{inst.point_ids[j]}) is not a number")
    # a nan pair is no symmetry fault, and equal pairs are zeroed so that
    # inf - inf cannot hide the faulty pair from argmax
    S = np.where(nan | nan.T | (D == D.T), 0.0, D)
    if not np.allclose(S, S.T, rtol=0.0, atol=METRIC_TOL):
        i, j = np.unravel_index(np.argmax(np.abs(S - S.T)), D.shape)
        out.append(f"symmetry: d({inst.point_ids[i]},{inst.point_ids[j]}) != transpose")
    diag = np.abs(np.diag(D))
    if diag.max(initial=0.0) > METRIC_TOL:
        i = int(np.argmax(diag))
        out.append(f"diagonal: d({inst.point_ids[i]},{inst.point_ids[i]}) nonzero")
    if np.nanmin(D, initial=0.0) < -METRIC_TOL:
        out.append("negativity: negative distance entry")

    if n >= 3:
        viol = _triangle_violations(D, triangle_cap, seed)
        for i, j, k in viol[:3]:
            out.append("triangle: d(%s,%s) > d(%s,%s) + d(%s,%s)" % (
                inst.point_ids[i], inst.point_ids[j], inst.point_ids[i],
                inst.point_ids[k], inst.point_ids[k], inst.point_ids[j]))
        if len(viol) > 3:
            out.append(f"triangle: {len(viol) - 3} further violated triples")

    for f in inst.facility_ids:
        g = inst.group_label.get(f)
        if g is None:
            out.append(f"group: facility {f} has no group label")
        elif g < 1:
            out.append(f"group: facility {f} has non-positive label {g}")
    for f in inst.group_label:
        if f not in inst.facility_ids:
            out.append(f"group: label given for non-facility {f}")
    for c, w in inst.client_demands.items():
        if not isinstance(w, int) or w <= 0:
            out.append(f"demand: client {c} demand {w!r} is not a positive integer")
    if not inst.client_demands:
        out.append("clients: no clients")
    if not inst.facility_ids:
        out.append("facilities: no facilities")
    return ValidationReport(out)


@np.errstate(invalid="ignore")     # an inf - inf slack is nan: no violation
def _triangle_violations(D: np.ndarray, cap: int, seed: int) -> list[tuple[int, int, int]]:
    n = D.shape[0]
    bad: list[tuple[int, int, int]] = []
    if n ** 3 <= cap:
        for k in range(n):
            slack = D - (D[:, k][:, None] + D[k, :][None, :])
            for i, j in zip(*np.nonzero(slack > METRIC_TOL)):
                bad.append((int(i), int(j), k))
        return bad
    rng = np.random.default_rng(seed)
    m = cap
    ii = rng.integers(0, n, size=m)
    jj = rng.integers(0, n, size=m)
    kk = rng.integers(0, n, size=m)
    slack = D[ii, jj] - (D[ii, kk] + D[kk, jj])
    for t in np.nonzero(slack > METRIC_TOL)[0]:
        bad.append((int(ii[t]), int(jj[t]), int(kk[t])))
    return bad


def clustering_cost(inst: MetricInstance, centers: Iterable[str]) -> tuple[float, float]:
    """Demand-weighted p-th power cost of serving every client from its
    nearest center, returned as (cost_p, cost_p ** (1/p))."""
    C = list(centers)
    if not C:
        raise ValueError("center set is empty")
    fset = set(inst.facility_ids)
    for c in C:
        if c not in fset:
            raise ValueError(f"center {c!r} is not a facility")
    nearest = inst.submatrix(inst.client_ids, C).min(axis=1)
    cost_p = float(inst.client_weights() @ nearest ** inst.p)
    return cost_p, cost_p ** (1.0 / inst.p)


def check_range_feasibility(group_sizes: Sequence[int], rc: RangeConstraints) -> bool:
    """Closed-form test for the existence of a center set meeting the ranges.

    Feasible iff alpha_i <= min(beta_i, |F_i|) for every group, the alphas sum
    to at most k, and the capped betas sum to at least k.
    """
    if len(group_sizes) != rc.num_groups:
        raise ValueError("group count does not match range count")
    caps = [min(b, s) for (a, b), s in zip(rc.ranges, group_sizes)]
    if any(a > cap for (a, _), cap in zip(rc.ranges, caps)):
        return False
    if sum(a for a, _ in rc.ranges) > rc.k:
        return False
    return sum(caps) >= rc.k


def build_center_solution(inst: MetricInstance, centers: Iterable[str],
                          rc: RangeConstraints | None = None) -> CenterSolution:
    C = tuple(sorted(set(centers)))
    ell = rc.num_groups if rc is not None else inst.num_groups
    counts = [0] * ell
    for c in C:
        g = inst.group_label.get(c)
        if g is not None and 1 <= g <= ell:
            counts[g - 1] += 1
    cost_p, cost = clustering_cost(inst, C)
    return CenterSolution(C, tuple(counts), cost_p, cost)


def power_triangle_check(x: float, ys: Sequence[float], lam: float, p: float) -> bool:
    """Does (x + sum ys)^p <= (1+lam)^(p-1) x^p + ((1+lam) n / lam)^(p-1) sum ys^p hold?

    All of x, ys must be nonnegative and lam positive.  Verified to a 1e-9
    relative tolerance.
    """
    if x < 0 or any(y < 0 for y in ys) or lam <= 0 or p < 1:
        raise ValueError("requires x, ys >= 0, lam > 0, p >= 1")
    n = len(ys)
    lhs = (x + sum(ys)) ** p
    rhs = (1.0 + lam) ** (p - 1.0) * x ** p
    if n:
        rhs += ((1.0 + lam) * n / lam) ** (p - 1.0) * sum(y ** p for y in ys)
    return lhs <= rhs * (1.0 + POWER_CHECK_TOL) + 1e-300


def chain_power_check(end: float, legs: Sequence[float], p: float) -> bool:
    """Does end^p <= r^(p-1) * sum legs^p hold for a length-r chain?"""
    r = len(legs)
    if r == 0:
        return end <= 0.0
    lhs = end ** p
    rhs = r ** (p - 1.0) * sum(d ** p for d in legs)
    return lhs <= rhs * (1.0 + POWER_CHECK_TOL) + 1e-300
