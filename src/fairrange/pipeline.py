"""End-to-end solver, exact oracle, and the empirical study harness.

solve_fair_range composes every stage: baseline clustering when the client
set is large, location reduction, the assignment relaxation,
consolidation, structuring, the half-integral opening program, and the
flow-based selection.  Along the way it evaluates one certificate per
stage against the relaxation optimum and refuses to return a solution
whose chain does not check out.  The brute-force oracle and the study
harness exist to measure the solver against ground truth at small sizes.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .baseline import local_search_clustering, reduce_locations
from .errors import (CostRangeError, InfeasibleRangesError, PowerRangeError,
                     StageError, UnrangedGroupError)
from .instance import (CenterSolution, MetricInstance, RangeConstraints,
                       build_center_solution, check_range_feasibility,
                       instance_from_coords, is_integer)
from .lp import (SimplexResult, assignment_core, build_fair_range_lp, lagrangian_bound,
                 solve_lp, split_fair_solution)
from .round import (half_integral_cost, select_centers, solve_half_integral,
                    structured_program)
from .sparsify import canonical_assignment, sparsify
from .structure import (build_super_balls, enforce_structure, fill_service,
                        reassign_private_facilities)

ORACLE_BUDGET = 10_000_000
CERT_ABS_TOL = 1e-9       # certificate slack, absolute
CERT_REL_TOL = 1e-6       # certificate slack, relative
COST_CAP = 1e300          # largest total weight * d_max^p a solve accepts
CORE_REL_TOL = 1e-9       # Lagrangian bound slack that certifies a core optimum


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    passed: bool


@dataclass
class SolveReport:
    centers: CenterSolution
    stage_costs: dict[str, float]
    bounds: list[BoundCheck]
    timings: dict[str, float]          # seconds per stage
    diagnostics: dict = field(default_factory=dict)
    reduced: bool = False
    fallback: bool = False             # always False: every answer is certified


# The certificate chain: (name, stage cost bounded, right-hand terms).  A
# term (c, e, stage cost) reads c^(p - e) * stage cost.
CERTIFICATES = (
    ("reassigned-vs-opt", "reassigned", ((3.0, 0.0, "opt_d"),)),
    ("structured-vs-opt", "structured", ((9.0, 0.0, "opt_d"),)),
    ("half-integral-vs-structured", "half_integral", ((2.0, 0.0, "structured"),)),
    ("assignment-vs-half", "assignment", ((1.5, 0.0, "half_integral"),)),
    ("integral-vs-half", "integral_sparse", ((4.5, 0.0, "half_integral"),)),
    ("clients-lift", "integral_clients",
     ((4.0, 0.0, "opt_d"), (2.0, 1.0, "integral_sparse"))),
)


def _scaled(lf: float, v: float) -> float:
    """exp(lf) * v.  Where exp(lf) alone overflows, this is exp(lf + log v):
    0 when v is 0, and inf only where the product is past float range, so
    above every stage cost (at most COST_CAP)."""
    try:
        return math.exp(lf) * v
    except OverflowError:
        with np.errstate(all="ignore"):
            return float(np.exp(lf + np.log(v)))


def _require_ranged_groups(inst: MetricInstance, rc: RangeConstraints) -> None:
    """Refuse a facility with no group label, a non-integer one, or one the ranges omit.

    Such a facility is bound by no window, so no stage can account for it.
    """
    for u, g in zip(inst.facility_ids, inst.facility_groups):
        if u not in inst.group_label:
            raise UnrangedGroupError(f"facility {u!r} has no group label")
        if not is_integer(g):
            raise UnrangedGroupError(f"facility {u!r} has non-integer label {g!r}")
        if not 1 <= g <= rc.num_groups:
            raise UnrangedGroupError(
                f"facility {u!r} is in group {g}, but ranges are given for "
                f"groups 1..{rc.num_groups} only")


def _require_costs_in_range(inst: MetricInstance) -> None:
    """Refuse, in this order, a negative or nan distance, a negative or
    non-finite demand, an infinite distance, and a p at which costs may
    leave the float range.

    A negative or nan distance or a negative demand makes a cost negative
    or nan, so stage costs stop bounding one another and a certificate
    fails on an instance that was never valid; the minimum is nan when
    any entry is.  No stage cost exceeds total weight * d_max^p.  Past
    COST_CAP it can overflow to inf, then to nan, and stages fail on
    feasible instances.
    """
    if not inst.distance_range[0] >= 0.0:
        a, b, d = inst.first_entry(lambda D: ~(D >= 0.0))
        raise CostRangeError(f"distance d({a}, {b}) = {d:g} is "
                             f"{'negative' if d < 0.0 else 'not a number'}")
    w = inst.client_weights()
    if not (w.min(initial=0.0) >= 0.0 and w.max(initial=0.0) < math.inf):
        i = int(np.flatnonzero(~((w >= 0.0) & (w < math.inf)))[0])
        raise CostRangeError(f"demand of client {inst.client_ids[i]} = {w[i]:g} is "
                             f"{'negative' if w[i] < 0.0 else 'not finite'}")
    weight, d_max = float(w.sum()), inst.distance_range[1]
    if d_max == math.inf:
        a, b, _ = inst.first_entry(np.isposinf)
        raise CostRangeError(f"distance d({a}, {b}) = inf is not finite")
    with np.errstate(over="ignore"):
        top = weight * np.float64(d_max) ** inst.p
    if top <= COST_CAP:
        return
    largest = ""
    if 1.0 < d_max and 0.0 < weight <= COST_CAP:
        p_max = (math.log(COST_CAP) - math.log(weight)) / math.log(d_max)
        if p_max >= 1.0:
            largest = f"; this instance accepts p up to {p_max:.6g}"
    raise PowerRangeError(f"p={inst.p:g} puts total weight * d_max^p at {top:.3g}, "
                          f"above {COST_CAP:g}{largest}")


def _require_solvable(inst: MetricInstance, rc: RangeConstraints) -> None:
    """The input checks of the solve and the oracle, in this order: every
    facility in a ranged group, ranges some size-k center set meets, and
    costs in range."""
    _require_ranged_groups(inst, rc)
    if not check_range_feasibility(inst.group_sizes(rc.num_groups), rc):
        raise InfeasibleRangesError(
            f"no size-{rc.k} center set can meet the ranges")
    _require_costs_in_range(inst)


def _assignment_relaxation(dp: np.ndarray, w: np.ndarray, groups: Sequence[int],
                           rc: RangeConstraints) -> tuple[np.ndarray, SimplexResult]:
    """Stage 2: the assignment LP over dp, solved whole or on its core.

    The core (assignment_core) is solved first, and its optimum is the
    whole program's once the Lagrangian bound at the core's cover duals,
    taken over every facility, reaches it (to a relative CORE_REL_TOL):
    the core is a restriction, so
    its optimum is at least the whole one, and the bound at most.  Short
    of that, every left-out pair whose x column prices below 0 at those
    duals (w[v] dp[v,u] < lam[v]) joins the core and it is solved again;
    with no such pair, or an infeasible core, the whole program is.
    Returns the table of the program that answered and its result.
    """
    table = assignment_core(dp, groups)
    while True:
        res = solve_lp(build_fair_range_lp(table, w, groups, rc.k, rc.ranges))
        if table is dp:
            return table, res
        if res.status != "optimal":
            table = dp
            continue
        lam = res.duals[:len(w)]
        bound = lagrangian_bound(dp, w, groups, rc.k, rc.ranges, lam)
        if bound >= res.objective * (1.0 - CORE_REL_TOL):
            return table, res
        priced = np.isinf(table) & (lam[:, None] > w[:, None] * dp)
        table = np.where(priced, dp, table) if priced.any() else dp


def solve_fair_range(inst: MetricInstance, rc: RangeConstraints) -> SolveReport:
    """Full approximation chain from instance to certified center set.

    Raises UnrangedGroupError when a facility's group has no range,
    InfeasibleRangesError when no center set can meet the ranges,
    CostRangeError when a distance is negative, nan or inf, a client
    demand is negative or not finite, or total weight * d_max^p is above
    COST_CAP, and a stage-named error when an internal certificate fails.
    There is one selection path: stage 4's point lies in the opening
    program, whose territory rows cap only each survivor's own use, and
    the flow over its half-integral openings always finds a selection, so
    an infeasible opening program or an empty flow is a StageError too.
    """
    _require_solvable(inst, rc)

    timings: dict[str, float] = {}
    clock = [time.perf_counter()]        # start of the solve, then each lap's end

    def lap(stage: str) -> None:
        clock.append(time.perf_counter())
        timings[stage] = clock[-1] - clock[-2]

    # the locations are the baseline centers, or the clients themselves
    # when there are no more than k; either way only points with demand
    reduced = len(inst.client_ids) > rc.k
    centers0, swaps = inst.client_ids, 0
    if reduced:
        centers0, _, swaps = local_search_clustering(inst, rc.k)
    red = reduce_locations(inst, centers0)
    lap("baseline")

    groups = inst.facility_groups
    table, res = _assignment_relaxation(red.fac_dist_p, red.weights, groups, rc)
    if res.status != "optimal":
        raise StageError("pipeline", f"assignment relaxation is {res.status}")
    x, y = split_fair_solution(res.x, table)
    x = canonical_assignment(x)
    lap("relaxation")

    sp = sparsify(red, x, y)
    lap("sparsify")

    x2, moves = reassign_private_facilities(sp)
    cost_reassigned = sp.assignment_cost(x2)
    ss = enforce_structure(build_super_balls(x2, sp.balls), sp)
    lap("structure")

    stage_costs = {"opt_d": float(res.objective), "reassigned": cost_reassigned,
                   "structured": ss.cost_p}
    diagnostics = {"locations": len(sp.location_ids), "baseline_swaps": swaps,
                   "reassign_moves": len(moves),
                   "pruned_mass": ss.diagnostics.get("pruned", 0.0)}
    slp, members = structured_program(ss, groups, rc)
    half = solve_half_integral(slp, members)
    stage_costs["half_integral"] = half_integral_cost(ss, half.y_own)
    lap("half_integral")
    x_tilde = fill_service(sp, ss.supers, ss.peer_balls, half.y_own, half.y)
    centers_idx, part = select_centers(ss, x_tilde, groups, rc)
    stage_costs["assignment"] = sp.assignment_cost(x_tilde)
    diagnostics["partition_sets"] = part.count
    lap("rounding")

    solution = build_center_solution(inst, [inst.facility_ids[u] for u in centers_idx], rc)
    if len(solution.centers) != rc.k:
        raise StageError("pipeline", f"selected {len(solution.centers)} centers")
    for cnt, (a, b) in zip(solution.group_counts, rc.ranges):
        if not a <= cnt <= b:
            raise StageError("pipeline", "selected centers break a range")
    stage_costs["integral_sparse"] = sp.cost_of(solution.centers)
    stage_costs["integral_clients"] = red.cost_of(solution.centers)
    stage_costs["integral_original"] = solution.cost_p

    bounds = []
    for name, cost, terms in CERTIFICATES:
        lhs = stage_costs[cost]
        rhs = sum(_scaled((inst.p - e) * math.log(c), stage_costs[term])
                  for c, e, term in terms)
        ok = bool(lhs <= rhs * (1.0 + CERT_REL_TOL) + CERT_ABS_TOL)
        if not ok:
            raise StageError("pipeline", f"certificate {name} failed: {lhs:.6g} > {rhs:.6g}")
        bounds.append(BoundCheck(name, lhs, rhs, ok))
    timings["total"] = time.perf_counter() - clock[0]
    return SolveReport(solution, stage_costs, bounds, timings, diagnostics, reduced)


def brute_force_optimum(inst: MetricInstance, rc: RangeConstraints) -> tuple[float, tuple[str, ...]]:
    """Exact minimum over all range-feasible k-subsets of the facilities.

    Refuses first what solve_fair_range refuses, with the same errors, then
    more than ORACLE_BUDGET subsets (ValueError).  Ties, costs within a
    relative 1e-12 of the best, break to the lexicographically smallest
    center tuple.
    """
    _require_solvable(inst, rc)
    nF = len(inst.facility_ids)
    if math.comb(nF, rc.k) > ORACLE_BUDGET:
        raise ValueError(f"C({nF}, {rc.k}) subsets exceed the oracle budget")
    w = inst.client_weights()
    dmat = inst.block(inst.client_pos, inst.facility_pos) ** inst.p
    groups = inst.facility_groups
    best, best_set = math.inf, ()
    for combo in itertools.combinations(range(nF), rc.k):
        counts = [0] * rc.num_groups
        for ui in combo:
            counts[groups[ui] - 1] += 1
        if any(not a <= t <= b for t, (a, b) in zip(counts, rc.ranges)):
            continue
        cost = float(w @ dmat[:, combo].min(axis=1))
        if cost < best * (1.0 - 1e-12):
            best = cost
            best_set = tuple(inst.facility_ids[ui] for ui in combo)
    return best, best_set


def generate_figure1_instance(k: int, n: int, m: float, M: float, *,
                              p: float = 1.0, clients: str = "all",
                              allow_nonmetric: bool = False) -> MetricInstance:
    """Two-group family separating strict equality from genuine ranges.

    Half the points are red and mutually at distance m.  The other half
    are blue, split into 2k/3 clusters of size 3n/(4k) with distance m
    inside a cluster and M across; red to blue is always M.  Strict
    per-group quotas then starve some blue cluster while a window of the
    same total budget covers every cluster at distance m.

    The matrix is a metric only when M <= 2m; larger spreads are allowed
    for illustration behind the explicit flag.  clients picks which
    points carry unit demand: "all" or "blue".
    """
    if m <= 0 or M <= m:
        raise ValueError("need M > m > 0")
    if k < 6 or k % 6 != 0:
        raise ValueError("k must be a positive multiple of 6")
    if n <= 0 or n % 2 != 0 or (3 * n) % (4 * k) != 0:
        raise ValueError(f"n={n} must split into 2k/3 blue clusters of size 3n/(4k) >= 1")
    if M > 2.0 * m and not allow_nonmetric:
        raise ValueError(f"M={M} > 2m breaks the triangle inequality; "
                         "pass allow_nonmetric to build it anyway")
    if clients not in ("all", "blue"):
        raise ValueError(f"unknown client mode {clients!r}")
    half = n // 2
    cluster_size = (3 * n) // (4 * k)
    ids = tuple(f"r{i:03d}" for i in range(half)) + \
        tuple(f"b{i:03d}" for i in range(half))
    dist = np.full((n, n), M, dtype=float)
    dist[:half, :half] = m
    for c in range(0, half, cluster_size):
        lo, hi = half + c, half + c + cluster_size
        dist[lo:hi, lo:hi] = m
    np.fill_diagonal(dist, 0.0)
    labels = {pid: (1 if pid.startswith("r") else 2) for pid in ids}
    wanted = ids if clients == "all" else ids[half:]
    demands = {pid: 1 for pid in wanted}
    return MetricInstance(ids, dist, ids, labels, demands, p)


def random_instance(seed: int, n: int, ell: int, p: float) -> MetricInstance:
    """Planar instance for the study harness: every point is a client and
    a facility, groups cyclic so each of the ell groups is nonempty."""
    if not 1 <= ell <= n:
        raise ValueError("need at least one group and one point per group")
    rng = np.random.default_rng(seed)
    w = max(3, len(str(n - 1)))     # ids sort in matrix order at any n
    ids = [f"p{i:0{w}d}" for i in range(n)]
    coords = rng.uniform(0.0, 10.0, size=(n, 2))
    labels = {ids[i]: 1 + i % ell for i in range(n)}
    demands = {pid: int(rng.integers(1, 4)) for pid in ids}
    return instance_from_coords(ids, coords, ids, labels, demands, p)


def random_ranges(seed: int, inst: MetricInstance, k: int,
                  ell: int) -> RangeConstraints:
    """Feasible-by-witness ranges: spread k over the groups, then widen."""
    rng = np.random.default_rng([seed, 211])
    sizes = inst.group_sizes(ell)
    counts = [0] * ell
    for _ in range(k):
        open_groups = [g for g in range(ell) if counts[g] < sizes[g]]
        if not open_groups:
            raise ValueError(f"k={k} exceeds the facility count")
        counts[int(rng.choice(open_groups))] += 1
    ranges = []
    for g in range(ell):
        lo = int(rng.integers(0, 3))
        hi = int(rng.integers(0, 3))
        ranges.append((max(0, counts[g] - lo), counts[g] + hi))
    return RangeConstraints(k, tuple(ranges))


@dataclass(frozen=True)
class StudyRow:
    n: int
    k: int
    ell: int
    p: float
    seed: int
    solver_cost: float          # ell_p norm, the 1/p root taken
    oracle_cost: float
    ratio: float
    certificates_passed: bool
    wall_ms: float


def approximation_study(seeds: Sequence[int],
                        grid: Sequence[tuple[int, int, int]],
                        p_values: Sequence[float]) -> tuple[list[StudyRow], dict]:
    """Solver-versus-oracle ratios over a (n, k, ell) x p x seed grid.

    Returns the individual rows plus a per-cell summary with the max and
    mean ratio and the certificate pass rate.  Ratios compare ell_p norms,
    with 0/0 counted as 1.
    """
    rows: list[StudyRow] = []
    for (n, k, ell) in grid:
        for p in p_values:
            for seed in seeds:
                inst = random_instance(seed, n, ell, p)
                rc = random_ranges(seed, inst, k, ell)
                oracle_p, _ = brute_force_optimum(inst, rc)
                t0 = time.perf_counter()
                report = solve_fair_range(inst, rc)
                wall_ms = 1000.0 * (time.perf_counter() - t0)
                solver = report.centers.cost_p ** (1.0 / p)
                oracle = oracle_p ** (1.0 / p)
                if solver <= 0.0 and oracle <= 0.0:
                    ratio = 1.0
                else:
                    ratio = solver / oracle if oracle > 0.0 else math.inf
                rows.append(StudyRow(
                    n, k, ell, p, seed, solver, oracle, ratio,
                    all(b.passed for b in report.bounds),
                    wall_ms))
    summary: dict[tuple, dict] = {}
    for row in rows:
        cell = (row.n, row.k, row.ell, row.p)
        summary.setdefault(cell, []).append(row)
    return rows, {
        cell: {
            "max_ratio": max(r.ratio for r in cell_rows),
            "mean_ratio": sum(r.ratio for r in cell_rows) / len(cell_rows),
            "certificate_rate": sum(r.certificates_passed
                                    for r in cell_rows) / len(cell_rows),
        }
        for cell, cell_rows in summary.items()
    }


def report_to_text(report: SolveReport) -> str:
    """Plain-text form of a report.

    Layout: a `centers` line with space-separated ids, `group-counts`,
    `cost-p` and `cost`, then one indented `name value` line per stage
    cost, bound (with its verdict), and timing.  Floats carry 17
    significant digits so the document reproduces the run exactly.
    """
    g = "%.17g"
    lines = ["fair-range solve report",
             "centers: " + " ".join(report.centers.centers),
             "group-counts: " + " ".join(str(c) for c in report.centers.group_counts),
             "cost-p: " + g % report.centers.cost_p,
             "cost: " + g % report.centers.cost,
             "reduced: " + ("yes" if report.reduced else "no"),
             "fallback: " + ("yes" if report.fallback else "no"),
             "stage-costs:"]
    for name, value in report.stage_costs.items():
        lines.append(f"  {name}: " + g % value)
    lines.append("bounds:")
    for bc in report.bounds:
        verdict = "PASS" if bc.passed else "FAIL"
        lines.append(f"  {bc.name}: " + g % bc.lhs + " <= " + g % bc.rhs
                     + f" {verdict}")
    lines.append("timings-ms:")
    for name, value in report.timings.items():
        lines.append(f"  {name}: " + "%.3f" % (1000.0 * value))
    return "\n".join(lines) + "\n"
