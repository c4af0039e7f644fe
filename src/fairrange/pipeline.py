"""End-to-end solver, exact oracle, and the empirical study harness.

solve_fair_range composes every stage: baseline clustering and location
reduction when the client set is large, the assignment relaxation,
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

from .baseline import ReducedInstance, local_search_clustering, reduce_locations
from .errors import (CostRangeError, InfeasibleRangesError,
                     NoIntegralSelectionError, OpeningInfeasibleError,
                     StageError, UnrangedGroupError)
from .instance import (CenterSolution, MetricInstance, RangeConstraints,
                       build_center_solution, check_range_feasibility,
                       instance_from_coords)
from .lp import build_fair_range_lp, solve_lp, split_fair_solution
from .round import (half_integral_cost, select_centers, solve_half_integral,
                    structured_program)
from .sparsify import canonical_assignment, sparsify
from .structure import (build_super_balls, enforce_structure,
                        reassign_private_facilities)

ORACLE_BUDGET = 10_000_000
CERT_ABS_TOL = 1e-9       # certificate slack, absolute
COST_CAP = 1e300          # largest total weight * d_max^p a solve accepts


@dataclass(frozen=True)
class SolverConfig:
    """What a caller may tune: the relative certificate slack."""
    rel_tol: float = 1e-6


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
    fallback: bool = False


def _scaled(lf: float, v: float) -> float:
    """exp(lf) * v.  Where exp(lf) alone overflows, this is exp(lf + log v):
    0 when v is 0, and inf only where the product is past float range, so
    above every stage cost (at most COST_CAP)."""
    try:
        return math.exp(lf) * v
    except OverflowError:
        with np.errstate(all="ignore"):
            return float(np.exp(lf + np.log(v)))


def _certificate(name: str, lhs: float, terms: list[tuple[float, float]],
                 cfg: SolverConfig) -> BoundCheck:
    """One bound check; terms are (log factor, value) pairs summed on the
    right-hand side."""
    rhs = sum(_scaled(lf, v) for lf, v in terms)
    ok = lhs <= rhs * (1.0 + cfg.rel_tol) + CERT_ABS_TOL
    return BoundCheck(name, lhs, rhs, bool(ok))


def _identity_reduction(inst: MetricInstance) -> ReducedInstance:
    clients = inst.client_ids
    return ReducedInstance(inst, clients, inst.client_weights(),
                           {c: c for c in clients}, 0.0)


def _facility_groups(inst: MetricInstance) -> list[int]:
    return [inst.group_label[u] for u in inst.facility_ids]


def _require_ranged_groups(inst: MetricInstance, rc: RangeConstraints) -> None:
    """Refuse facilities whose group the ranges do not list.

    Such a facility is bound by no window, so no stage can account for it.
    """
    for u in inst.facility_ids:
        g = inst.group_label[u]
        if not 1 <= g <= rc.num_groups:
            raise UnrangedGroupError(
                f"facility {u!r} is in group {g}, but ranges are given for "
                f"groups 1..{rc.num_groups} only")


def _require_nonnegative_distances(inst: MetricInstance) -> None:
    """Refuse a negative or nan distance.

    Its p-th power is negative or nan, so stage costs stop bounding one
    another and a certificate fails on an instance that was never valid.
    The minimum is nan when any entry is.
    """
    if not inst.dist.min(initial=0.0) >= 0.0:
        i, j = np.argwhere(~(inst.dist >= 0.0))[0]
        d = inst.dist[i, j]
        raise CostRangeError(f"distance d({inst.point_ids[i]}, {inst.point_ids[j]}) = "
                             f"{d:g} is {'negative' if d < 0.0 else 'not a number'}")


def _require_costs_in_range(inst: MetricInstance) -> None:
    """Refuse a p at which costs may leave the float range.

    No stage cost exceeds total weight * d_max^p.  Past COST_CAP it can
    overflow to inf, then to nan, and stages fail on feasible instances.
    """
    weight, d_max = float(inst.client_weights().sum()), float(inst.dist.max())
    with np.errstate(over="ignore"):
        top = weight * np.float64(d_max) ** inst.p
    if top <= COST_CAP:
        return
    largest = ""
    if 1.0 < d_max < math.inf and 0.0 < weight <= COST_CAP:
        p_max = (math.log(COST_CAP) - math.log(weight)) / math.log(d_max)
        if p_max >= 1.0:
            largest = f"; this instance accepts p up to {p_max:.6g}"
    raise CostRangeError(f"p={inst.p:g} puts total weight * d_max^p at {top:.3g}, "
                         f"above {COST_CAP:g}{largest}")


def _greedy_feasible_centers(inst: MetricInstance, rc: RangeConstraints) -> list[str]:
    """Deterministic direct selection meeting the ranges.

    Adds one center at a time, cheapest resulting cost first with ties to
    the lower facility id, skipping any facility whose group is full or
    whose choice would leave too few slots for the remaining lower bounds.
    """
    clients = inst.client_ids
    w = inst.client_weights()
    dmat = inst.submatrix(clients, inst.facility_ids) ** inst.p
    groups = _facility_groups(inst)
    counts = [0] * rc.num_groups
    serve = np.full(len(clients), np.inf)
    chosen: list[str] = []
    chosen_idx: set[int] = set()
    for _ in range(rc.k):
        slots = rc.k - len(chosen)
        need = sum(max(0, a - c) for (a, _), c in zip(rc.ranges, counts))
        best = None
        for ui, u in enumerate(inst.facility_ids):
            if ui in chosen_idx:
                continue
            g = groups[ui] - 1
            if counts[g] >= rc.ranges[g][1]:
                continue
            need_after = need - (1 if counts[g] < rc.ranges[g][0] else 0)
            if need_after > slots - 1:
                continue
            cost = float(w @ np.minimum(serve, dmat[:, ui]))
            if best is None or (cost, u) < (best[0], best[1]):
                best = (cost, u, ui, g)
        if best is None:
            raise StageError("pipeline", "direct selection cannot meet the ranges")
        _, u, ui, g = best
        chosen.append(u)
        chosen_idx.add(ui)
        counts[g] += 1
        serve = np.minimum(serve, dmat[:, ui])
    return chosen


def solve_fair_range(inst: MetricInstance, rc: RangeConstraints,
                     config: SolverConfig | None = None) -> SolveReport:
    """Full approximation chain from instance to certified center set.

    Raises UnrangedGroupError when a facility's group has no range,
    InfeasibleRangesError when no center set can meet the ranges,
    CostRangeError when a distance is negative or nan or total weight *
    d_max^p is above COST_CAP, and a stage-named error when an internal
    certificate fails.  On the rare opening programs made infeasible by
    the one-unit territory caps, falls back to the direct greedy selection
    and marks the report.
    """
    cfg = config or SolverConfig()
    _require_ranged_groups(inst, rc)
    sizes = inst.group_sizes(rc.num_groups)
    if not check_range_feasibility(sizes, rc):
        raise InfeasibleRangesError(
            f"no size-{rc.k} center set can meet the ranges")
    _require_nonnegative_distances(inst)
    _require_costs_in_range(inst)

    timings: dict[str, float] = {}
    t_all = time.perf_counter()

    t0 = time.perf_counter()
    reduced = len(inst.client_ids) > rc.k
    if reduced:
        centers0, _, swaps = local_search_clustering(inst, rc.k)
        red = reduce_locations(inst, centers0)
    else:
        swaps = 0
        red = _identity_reduction(inst)
    timings["baseline"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    groups = _facility_groups(inst)
    flp = build_fair_range_lp(red.fac_dist_p, red.weights, groups, rc.k, rc.ranges)
    res = solve_lp(flp)
    if res.status != "optimal":
        raise StageError("pipeline", f"assignment relaxation is {res.status}")
    opt_d = float(res.objective)
    x, y = split_fair_solution(res.x, len(red.location_ids),
                               len(inst.facility_ids))
    x = canonical_assignment(x)
    timings["relaxation"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    sp = sparsify(red, x, y)
    timings["sparsify"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    x2, moves = reassign_private_facilities(sp)
    cost_reassigned = sp.assignment_cost(x2)
    ss = enforce_structure(x2, sp.y, build_super_balls(x2, sp.y, sp.balls), sp)
    timings["structure"] = time.perf_counter() - t0

    stage_costs = {"opt_d": opt_d, "reassigned": cost_reassigned,
                   "structured": ss.cost_p}
    diagnostics = {"locations": len(sp.location_ids), "baseline_swaps": swaps,
                   "reassign_moves": len(moves),
                   "pruned_mass": ss.diagnostics.get("pruned", 0.0)}
    lp3 = inst.p * math.log(3.0)

    def finish(center_ids, fallback, reason=None):
        solution = build_center_solution(inst, center_ids, rc)
        if len(solution.centers) != rc.k:
            raise StageError("pipeline", f"selected {len(solution.centers)} centers")
        for cnt, (a, b) in zip(solution.group_counts, rc.ranges):
            if not a <= cnt <= b:
                raise StageError("pipeline", "selected centers break a range")
        cidx = [inst.facility_ids.index(c) for c in solution.centers]
        dmin = sp.fac_dist[:, cidx].min(axis=1)
        stage_costs["integral_sparse"] = float(sp.weights @ dmin ** sp.p)
        stage_costs["integral_clients"] = red.cost_of(solution.centers)
        stage_costs["integral_original"] = solution.cost_p
        if reason is not None:
            diagnostics["fallback_reason"] = reason

        bounds = [
            _certificate("reassigned-vs-opt", cost_reassigned, [(lp3, opt_d)], cfg),
            _certificate("structured-vs-opt", ss.cost_p,
                         [(inst.p * math.log(9.0), opt_d)], cfg),
        ]
        if not fallback:
            bounds += [
                _certificate("half-integral-vs-structured", stage_costs["half_integral"],
                             [(inst.p * math.log(2.0), ss.cost_p)], cfg),
                _certificate("assignment-vs-half", stage_costs["assignment"],
                             [(inst.p * math.log(1.5), stage_costs["half_integral"])], cfg),
                _certificate("integral-vs-half", stage_costs["integral_sparse"],
                             [(inst.p * math.log(4.5), stage_costs["half_integral"])], cfg),
            ]
        bounds.append(_certificate(
            "clients-lift", stage_costs["integral_clients"],
            [(inst.p * math.log(4.0), opt_d),
             ((inst.p - 1.0) * math.log(2.0), stage_costs["integral_sparse"])], cfg))
        for bc in bounds:
            if not bc.passed:
                raise StageError(
                    "pipeline",
                    f"certificate {bc.name} failed: {bc.lhs:.6g} > {bc.rhs:.6g}")
        timings["total"] = time.perf_counter() - t_all
        return SolveReport(solution, stage_costs, bounds, timings,
                           diagnostics, reduced, fallback)

    t0 = time.perf_counter()
    try:
        slp, members = structured_program(ss, groups, rc)
        half = solve_half_integral(slp, members)
    except OpeningInfeasibleError as exc:
        # the one-unit territory caps can pin a group below its lower
        # bound even though integral selections exist; fall back to the
        # direct selection rather than fail a feasible instance
        timings["half_integral"] = time.perf_counter() - t0
        timings["rounding"] = 0.0
        return finish(_greedy_feasible_centers(inst, rc), True, str(exc))
    stage_costs["half_integral"] = half_integral_cost(ss, half.y)
    diagnostics["snap_deviation"] = half.snap_deviation
    timings["half_integral"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        centers_idx, part, net = select_centers(ss, half, groups, rc)
    except NoIntegralSelectionError as exc:
        timings["rounding"] = time.perf_counter() - t0
        return finish(_greedy_feasible_centers(inst, rc), True, str(exc))
    stage_costs["assignment"] = sp.assignment_cost(half.x_tilde)
    diagnostics["partition_sets"] = part.count
    timings["rounding"] = time.perf_counter() - t0

    return finish([inst.facility_ids[u] for u in centers_idx], False)


def brute_force_optimum(inst: MetricInstance, rc: RangeConstraints,
                        budget: int = ORACLE_BUDGET) -> tuple[float, tuple[str, ...]]:
    """Exact minimum over all range-feasible k-subsets of the facilities.

    Ties break to the lexicographically smallest center tuple.  Refuses to
    enumerate more than `budget` subsets, and facilities whose group has no
    range (UnrangedGroupError).
    """
    _require_ranged_groups(inst, rc)
    nF = len(inst.facility_ids)
    if rc.k > nF:
        raise InfeasibleRangesError(f"k={rc.k} exceeds {nF} facilities")
    if math.comb(nF, rc.k) > budget:
        raise ValueError(f"C({nF}, {rc.k}) subsets exceed the oracle budget")
    if not check_range_feasibility(inst.group_sizes(rc.num_groups), rc):
        raise InfeasibleRangesError("ranges admit no center set")
    w = inst.client_weights()
    dmat = inst.submatrix(inst.client_ids, inst.facility_ids) ** inst.p
    groups = _facility_groups(inst)
    best = math.inf
    best_set: tuple[str, ...] | None = None
    for combo in itertools.combinations(range(nF), rc.k):
        counts = [0] * rc.num_groups
        for ui in combo:
            counts[groups[ui] - 1] += 1
        if any(not a <= t <= b for t, (a, b) in zip(counts, rc.ranges)):
            continue
        cost = float(w @ dmat[:, combo].min(axis=1))
        if cost < best - 1e-12:
            best = cost
            best_set = tuple(inst.facility_ids[ui] for ui in combo)
    if best_set is None:
        raise InfeasibleRangesError("ranges admit no center set")
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
    if k % 6 != 0:
        raise ValueError("k must be a multiple of 6")
    if n % 2 != 0 or (3 * n) % (4 * k) != 0:
        raise ValueError("n must split into 2k/3 blue clusters of size 3n/(4k)")
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
    if n < ell:
        raise ValueError("need at least one point per group")
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
                        p_values: Sequence[float],
                        config: SolverConfig | None = None,
                        budget: int = ORACLE_BUDGET
                        ) -> tuple[list[StudyRow], dict]:
    """Solver-versus-oracle ratios over a (n, k, ell) x p x seed grid.

    Returns the individual rows plus a per-cell summary with the max and
    mean ratio and the certificate pass rate.  Ratios compare ell_p norms,
    with 0/0 counted as 1.
    """
    rows: list[StudyRow] = []
    for (n, k, ell) in grid:
        if math.comb(n, k) > budget:
            raise ValueError(f"cell n={n}, k={k} exceeds the oracle budget")
        for p in p_values:
            for seed in seeds:
                inst = random_instance(seed, n, ell, p)
                rc = random_ranges(seed, inst, k, ell)
                t0 = time.perf_counter()
                report = solve_fair_range(inst, rc, config)
                wall_ms = 1000.0 * (time.perf_counter() - t0)
                oracle_p, _ = brute_force_optimum(inst, rc, budget)
                solver = report.centers.cost_p ** (1.0 / p)
                oracle = oracle_p ** (1.0 / p)
                if solver <= 0.0 and oracle <= 0.0:
                    ratio = 1.0
                else:
                    ratio = solver / oracle if oracle > 0.0 else math.inf
                rows.append(StudyRow(
                    n, k, ell, p, seed, solver, oracle, ratio,
                    all(b.passed for b in report.bounds) and not report.fallback,
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
