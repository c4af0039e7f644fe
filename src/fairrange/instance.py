"""Instance model for fair range clustering.

A problem instance is a finite metric over named points, a labeled subset of
facility points partitioned into groups, and a weighted subset of client
points.  Everything downstream treats instances as read-only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

METRIC_TOL = 1e-9
TRIANGLE_SAMPLE_CAP = 1_000_000
ROW_BLOCK = 64     # rows of an n-wide temporary built at a time


@dataclass
class MetricInstance:
    """Points, their distance matrix, facilities and groups, and weighted
    clients.

    A solve reads the matrix through block() and to_clients() alone.
    to_clients() reads a mirrored instance along its rows; mirrored is set
    only by instance_from_coords, whose entries are the same bits as their
    transposes.  Any other instance, a matrix that may not be symmetric
    bit for bit, is read along its columns.
    """
    point_ids: tuple[str, ...]
    dist: np.ndarray                 # square symmetric matrix, row order = point_ids
    facility_ids: tuple[str, ...]
    group_label: dict[str, int]      # facility id -> group in 1..num_groups
    client_demands: dict[str, int]   # client id -> positive integer demand
    p: float

    # set by instance_from_coords alone, the one builder that can vouch for
    # both: the coordinates dist was computed from (kept for serialization),
    # and that every entry of dist is the same bits as its transpose
    coords: np.ndarray | None = field(default=None, init=False)
    mirrored: bool = field(default=False, init=False, repr=False, compare=False)
    # Worked out once, here: the instance is read-only.  Positions are rows
    # of dist; a solve reads dist only through block() and to_clients().
    client_ids: tuple[str, ...] = field(init=False, compare=False)
    client_pos: np.ndarray = field(init=False, repr=False, compare=False)
    facility_pos: np.ndarray = field(init=False, repr=False, compare=False)
    facility_groups: tuple[int, ...] = field(init=False, repr=False, compare=False)  # 0: unlabeled
    point_pos: np.ndarray = field(init=False, repr=False, compare=False)  # in id order
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _clients: slice | np.ndarray = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {pid: i for i, pid in enumerate(self.point_ids)}
        if len(self._index) != len(self.point_ids):
            raise ValueError("duplicate point ids")
        self.dist = np.asarray(self.dist, dtype=float)
        if self.dist.shape != (len(self.point_ids),) * 2:
            raise ValueError("distance matrix shape does not match point count")
        if len(set(self.facility_ids)) != len(self.facility_ids):
            raise ValueError("duplicate facility ids")
        for kind, ids in (("facility", self.facility_ids), ("client", self.client_demands)):
            for i in ids:
                if i not in self._index:
                    raise ValueError(f"{kind} {i!r} is not a point")
        check_power(self.p)
        self.facility_ids = tuple(sorted(self.facility_ids))
        self.client_ids = tuple(sorted(self.client_demands))
        self.client_pos = self.positions(self.client_ids)
        self.facility_pos = self.positions(self.facility_ids)
        self.facility_groups = tuple(self.group_label.get(u, 0) for u in self.facility_ids)
        self.point_pos = self.positions(sorted(self.point_ids))
        self._clients = _as_run(self.client_pos)
        try:
            self._weights = np.array([self.client_demands[c] for c in self.client_ids], float)
        except OverflowError:       # float() rounds from 2^1024 - 2^970 up past the range
            c = next(c for c in self.client_ids if abs(self.client_demands[c]) >= 2**1024 - 2**970)
            raise ValueError(f"demand of client {c} is past the float range") from None
        for a in (self.dist, self.client_pos, self.facility_pos, self.point_pos, self._weights):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.point_ids)

    def client_weights(self) -> np.ndarray:
        """Client demands as floats, in client_ids order (read-only)."""
        return self._weights

    def index(self, pid: str) -> int:
        return self._index[pid]

    def positions(self, ids: Iterable[str]) -> np.ndarray:
        """Matrix positions of the ids, in their order."""
        return np.array([self.index(i) for i in ids], dtype=np.intp)

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Distances from the points at positions rows to those at cols: a
        read-only view of the matrix when rows and cols are each one
        ascending run of positions, a gathered copy otherwise."""
        return self.dist[_grid(_as_run(rows), _as_run(cols))]

    def to_clients(self, pos: np.ndarray) -> np.ndarray:
        """Distances d(client, point) from every client, in client_ids
        order, to each point at positions pos: one row per point, so
        block(client_pos, pos).T.  A mirrored matrix is read along the
        points' rows, contiguously; any other along their columns, the one
        read that is right for a matrix that is not symmetric bit for bit.
        A read-only view when pos and the clients are each one run."""
        if self.mirrored:
            return self.dist[_grid(_as_run(pos), self._clients)]
        return self.dist[_grid(self._clients, _as_run(pos))].T

    @cached_property
    def distance_range(self) -> tuple[float, float]:
        """(min(0, least distance), greatest distance), taken on first use."""
        return float(self.dist.min(initial=0.0)), float(self.dist.max(initial=-math.inf))

    def first_entry(self, where) -> tuple[str, str, float]:
        """(row id, column id, distance) of the first entry where(dist) holds."""
        i, j = np.argwhere(where(self.dist))[0]
        return self.point_ids[i], self.point_ids[j], float(self.dist[i, j])

    def group_sizes(self, num_groups: int) -> list[int]:
        return [self.facility_groups.count(g) for g in range(1, num_groups + 1)]


def _as_run(i: np.ndarray) -> slice | np.ndarray:
    """The positions i as a slice when they are one ascending run i[0],
    i[0] + 1, ..., else i itself."""
    if len(i) and i[-1] - i[0] == len(i) - 1 and (len(i) == 1 or (i[:-1] < i[1:]).all()):
        return slice(i[0], i[-1] + 1)
    return i


def _grid(rows: slice | np.ndarray, cols: slice | np.ndarray) -> tuple:
    """An index of dist for the block rows x cols: two slices give a view,
    anything else a row-major gather of the two sides crossed."""
    if isinstance(rows, slice) and isinstance(cols, slice):
        return rows, cols
    rows, cols = (np.arange(i.start, i.stop) if isinstance(i, slice) else i
                  for i in (rows, cols))
    return rows[:, None], cols


def instance_from_coords(ids: Sequence[str], coords, facility_ids, group_label,
                         client_demands, p: float) -> MetricInstance:
    """Build an instance with Euclidean distances from coordinates of any
    dimension, one row per point.  A point with an inf or nan coordinate
    is refused by name: its distances would be inf or nan.  The instance
    keeps its own read-only copy of the coordinates, so a later write to
    the caller's array cannot part them from the distances."""
    pts = np.array(coords, dtype=float)
    pts.setflags(write=False)
    if pts.ndim != 2 or pts.shape[0] != len(ids):
        raise ValueError("coordinate array shape does not match ids")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"point {ids[i]!r} has a non-finite coordinate: "
                         f"({', '.join(f'{v:g}' for v in pts[i])})")
    # Each entry keeps the bits of the one-shot sqrt(((x - y)**2).sum()) that
    # documents were written with, whatever the block size.  Below 8
    # coordinates numpy's sum adds left to right, so the squares are
    # accumulated into the output rows one coordinate at a time with one
    # rows x n temporary; from 8 on it sums pairwise, so those keep the
    # rows x n x dim difference block.
    n, dim = pts.shape
    dist = np.empty((n, n))
    if dim >= 8:
        for a in range(0, n, ROW_BLOCK):
            diff = pts[a:a + ROW_BLOCK, None, :] - pts[None, :, :]
            np.sqrt((diff * diff).sum(axis=2), out=dist[a:a + ROW_BLOCK])
    else:
        cols = np.ascontiguousarray(pts.T)
        tmp = np.empty((min(ROW_BLOCK, n), n))
        for a in range(0, n, ROW_BLOCK):
            out = dist[a:a + ROW_BLOCK]
            sq = tmp[:len(out)]
            out.fill(0.0)
            for col in cols:
                np.subtract(col[a:a + ROW_BLOCK, None], col, out=sq)
                sq *= sq
                out += sq
            np.sqrt(out, out=out)
    np.fill_diagonal(dist, 0.0)
    inst = MetricInstance(tuple(ids), dist, tuple(facility_ids),
                          dict(group_label), dict(client_demands), p)
    # d(a, b) and d(b, a) square the same differences up to sign and sum
    # them in the same order, so the two are the same bits
    inst.coords, inst.mirrored = pts, True
    return inst


def check_power(p: float) -> None:
    """Refuse a distance exponent p that is not finite and at least 1."""
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be finite and at least 1, got {p}")


def is_integer(v) -> bool:
    """Whether v is an int or a numpy integer; a bool is not."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class RangeConstraints:
    """Per-group center count window plus the total center budget k."""
    k: int
    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        named = {"k": self.k}
        for j, (a, b) in enumerate(self.ranges, start=1):
            named |= {f"range {j} lower bound": a, f"range {j} upper bound": b}
        for name, v in named.items():
            if not is_integer(v):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "ranges", tuple((int(a), int(b)) for a, b in self.ranges))
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


def validate_instance(inst: MetricInstance) -> ValidationReport:
    """Check the metric and labeling invariants, reporting every violation found.

    Symmetry, zero diagonal, nonnegativity and the triangle inequality are
    checked to METRIC_TOL; a nan entry is named and reported by no other
    check.  Triangle triples: exhaustive up to TRIANGLE_SAMPLE_CAP, then
    that many sampled with seed 0.
    """
    out: list[str] = []
    D = inst.dist
    n = inst.n
    first_nan = None                # flat position in D
    worst = (METRIC_TOL, None)      # (gap, flat position): the first largest gap
    for a in range(0, n, ROW_BLOCK):
        rows = D[a:a + ROW_BLOCK]
        nan = np.isnan(rows)
        if first_nan is None and nan.any():
            first_nan = a * n + int(np.argmax(nan))
        # |d(i,j) - d(j,i)|; a nan pair is no symmetry fault, nor is an
        # equal infinite pair (inf - inf is nan), so both gaps read 0
        with np.errstate(invalid="ignore"):
            gap = rows - D[:, a:a + ROW_BLOCK].T
        np.abs(gap, out=gap)
        gap[np.isnan(gap)] = 0.0
        t = int(np.argmax(gap))
        if gap.flat[t] > worst[0]:
            worst = (gap.flat[t], a * n + t)
    if first_nan is not None:
        i, j = divmod(first_nan, n)
        out.append(f"nan: d({inst.point_ids[i]},{inst.point_ids[j]}) is not a number")
    if worst[1] is not None:
        i, j = divmod(worst[1], n)
        out.append(f"symmetry: d({inst.point_ids[i]},{inst.point_ids[j]}) != transpose")
    diag = np.abs(np.diag(D))
    if diag.max(initial=0.0) > METRIC_TOL:
        i = int(np.argmax(diag))
        out.append(f"diagonal: d({inst.point_ids[i]},{inst.point_ids[i]}) nonzero")
    if np.nanmin(D, initial=0.0) < -METRIC_TOL:
        out.append("negativity: negative distance entry")

    if n >= 3:
        viol = _triangle_violations(D)
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
        elif not is_integer(g):
            out.append(f"group: facility {f} has non-integer label {g!r}")
        elif g < 1:
            out.append(f"group: facility {f} has non-positive label {g}")
    facilities = set(inst.facility_ids)
    for f in inst.group_label:
        if f not in facilities:
            out.append(f"group: label given for non-facility {f}")
    for c, w in inst.client_demands.items():
        if not (is_integer(w) and w > 0):
            out.append(f"demand: client {c} demand {w!r} is not a positive integer")
    if not inst.client_demands:
        out.append("clients: no clients")
    if not inst.facility_ids:
        out.append("facilities: no facilities")
    return ValidationReport(out)


@np.errstate(invalid="ignore")     # an inf - inf slack is nan: no violation
def _triangle_violations(D: np.ndarray) -> list[tuple[int, int, int]]:
    n = D.shape[0]
    bad: list[tuple[int, int, int]] = []
    if n ** 3 <= TRIANGLE_SAMPLE_CAP:
        for k in range(n):
            slack = D - (D[:, k][:, None] + D[k, :][None, :])
            for i, j in zip(*np.nonzero(slack > METRIC_TOL)):
                bad.append((int(i), int(j), k))
        return bad
    rng = np.random.default_rng(0)
    ii, jj, kk = (rng.integers(0, n, size=TRIANGLE_SAMPLE_CAP) for _ in range(3))
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
    nearest = inst.to_clients(inst.positions(C)).min(axis=0)
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
                          rc: RangeConstraints) -> CenterSolution:
    C = tuple(sorted(set(centers)))
    groups = [inst.group_label.get(c) for c in C]
    counts = tuple(groups.count(g) for g in range(1, rc.num_groups + 1))
    cost_p, cost = clustering_cost(inst, C)
    return CenterSolution(C, counts, cost_p, cost)
