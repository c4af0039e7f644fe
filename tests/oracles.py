"""Exact oracles the tests hold the solver to: row tags rebuilt from the
builders' row order, unimodularity evidence, exact rational re-solves, the
reference center selection by a circulation with arc lower bounds and its
network as text, the power inequalities, the consolidation bound, the
sparsification margins, the structural properties of stage 4's point and
the fair-range optimum by a HiGHS MIP."""
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from fairrange.baseline import ReducedInstance
from fairrange.instance import MetricInstance, RangeConstraints, clustering_cost
from fairrange.lp import GEQ, LEQ, LinearProgram, SimplexResult
from fairrange.errors import StageError
from fairrange.round import FacilityPartition, _Network
from fairrange.sparsify import SparsifiedInstance, separation_multiplier
from fairrange.structure import GEOM_TOL, SUPPORT_TOL, StructuredSolution

POWER_CHECK_TOL = 1e-9


def _range_card_kinds(num_groups: int) -> list[tuple]:
    return [(kind, g) for g in range(1, num_groups + 1)
            for kind in ("range_lower", "range_upper")] + [("card",)]


def assignment_row_kinds(lp: LinearProgram, num_locations: int) -> list[tuple]:
    """Tags of build_fair_range_lp's rows: a cover row per location, the
    range and card rows, then a link row per (location, facility) pair."""
    nD = num_locations
    nF = lp.num_vars // (nD + 1)
    num_groups = (len(lp.rhs) - nD - 1 - nD * nF) // 2
    return ([("cover", v) for v in range(nD)] + _range_card_kinds(num_groups)
            + list(itertools.product(("link",), range(nD), range(nF))))


def structured_row_kinds(lp: LinearProgram) -> list[tuple]:
    """Tags of build_structured_lp's rows: the range and card rows, a ball
    row and a super ball row per location, then the split rows in order.
    Each group's rows are a >= and a <=, so the card row is the first <=
    row at an even position; after it only the ball rows are >=."""
    num_groups = next(g for g in itertools.count() if not lp.geq[2 * g])
    nD = int(lp.geq[2 * num_groups + 1:].sum())
    num_split = len(lp.rhs) - 2 * num_groups - 1 - 2 * nD
    return (_range_card_kinds(num_groups) + [("ball", v) for v in range(nD)]
            + [("superball", v) for v in range(nD)]
            + [("split", i) for i in range(num_split)])


def matrix_geq(lp: LinearProgram) -> np.ndarray:
    """Dense row matrix in >= orientation (<= rows negated)."""
    sign = np.where(lp.geq, 1.0, -1.0)
    A = np.zeros((len(lp.rhs), lp.num_vars))
    A[lp.row_of, lp.indices] = sign[lp.row_of] * lp.data
    return A


def structured_column_profile(lp: LinearProgram) -> list[str]:
    """Structural scan of the matrix in >= orientation.

    Each column may carry at most six nonzeros: +1 from its group's lower
    range row, -1 from the upper one, -1 from the cardinality row, +1 from
    one ball row, -1 from the matching super ball row and -1 from one split
    row.  Returns violation descriptions, empty when the profile holds.
    """
    A = matrix_geq(lp)
    row_kinds = structured_row_kinds(lp)
    out = []
    expected_sign = {"range_lower": 1.0, "range_upper": -1.0, "card": -1.0,
                     "ball": 1.0, "superball": -1.0, "split": -1.0}
    for j in range(lp.num_vars):
        nz = np.nonzero(A[:, j])[0]
        if len(nz) > 6:
            out.append(f"column {j}: {len(nz)} nonzeros")
            continue
        ball_loc, super_loc = None, None
        seen = set()
        for i in nz:
            kind = row_kinds[i][0]
            if A[i, j] != expected_sign.get(kind):
                out.append(f"column {j}: row {i} ({kind}) entry {A[i, j]}")
            if kind in seen and kind in ("range_lower", "range_upper", "card", "split"):
                out.append(f"column {j}: duplicate {kind} entry")
            seen.add(kind)
            if kind == "ball":
                if ball_loc is not None:
                    out.append(f"column {j}: in two balls")
                ball_loc = row_kinds[i][1]
            if kind == "superball":
                if super_loc is not None:
                    out.append(f"column {j}: in two super balls")
                super_loc = row_kinds[i][1]
        if ball_loc is not None and super_loc is not None and ball_loc != super_loc:
            out.append(f"column {j}: ball and super ball locations differ")
        if ball_loc is not None and super_loc is None:
            out.append(f"column {j}: ball without covering super ball")
    return out


def ghouila_houri_check(A: np.ndarray, row_subset: Sequence[int],
                        row_kinds: Sequence[tuple] | None = None) -> list[int] | None:
    """Find a +-1 signing of the chosen rows whose signed column sums all lie
    in {-1, 0, 1}.

    With row kind tags a constructive signing specific to the structured
    matrix is built (split on whether the cardinality row is present);
    without tags, subsets of at most 20 rows fall back to exhaustive search.
    Returns the signs aligned with row_subset, None when provably no signing
    exists, and raises ValueError("undecided") when the subset is too large
    to decide blindly.
    """
    rows = list(row_subset)
    if not rows:
        return []
    A = np.asarray(A)
    if row_kinds is not None:
        signs = _gh_constructive(A, rows, row_kinds)
        if signs is not None and _gh_valid(A, rows, signs):
            return signs
    if len(rows) > 20:
        raise ValueError("undecided")
    return _gh_exhaustive(A, rows)


def _gh_valid(A, rows, signs) -> bool:
    return bool(np.all(np.abs(np.asarray(signs, dtype=float) @ A[rows]) <= 1.0 + 1e-9))


def _gh_constructive(A, rows, row_kinds):
    kinds = [row_kinds[i] for i in rows]
    has_center = any(k[0] == "card" for k in kinds)
    group_rows: dict[int, list[int]] = {}
    loc_rows: dict[object, dict[str, int]] = {}
    split_rows: list[int] = []
    signs = [0] * len(rows)
    for t, k in enumerate(kinds):
        if k[0] in ("range_lower", "range_upper"):
            group_rows.setdefault(k[1], []).append(t)
        elif k[0] in ("ball", "superball"):
            loc_rows.setdefault(k[1], {})[k[0]] = t
        elif k[0] == "card":
            signs[t] = -1
        elif k[0] == "split":
            split_rows.append(t)
        else:
            return None
    for ts in group_rows.values():
        if len(ts) == 2:
            signs[ts[0]] = signs[ts[1]] = 1
        else:
            lower = kinds[ts[0]][0] == "range_lower"
            signs[ts[0]] = 1 if lower != has_center else -1
    for pair in loc_rows.values():
        if "ball" in pair:
            signs[pair["ball"]] = 1 if "superball" in pair else -1
        if "superball" in pair:
            signs[pair["superball"]] = 1
    # the range and card rows now sum to 0 or 1 on every column, the same
    # on the two columns of a split row (they share a group), and the ball
    # and super ball rows to 0 or -1 on the own column; a split row's -1
    # entries then take 1 off where the range side gives 1, else add 1
    side = [t for t, k in enumerate(kinds) if k[0] in ("range_lower", "range_upper", "card")]
    range_sum = np.array([signs[t] for t in side], dtype=float) @ A[[rows[t] for t in side]]
    for t in split_rows:
        j = np.flatnonzero(A[rows[t]])[0]
        signs[t] = 1 if range_sum[j] >= 1 else -1
    return signs


def _gh_exhaustive(A, rows):
    M = np.asarray(A)[rows].astype(np.int64)
    r = len(rows)
    chunk = 4096
    for base in range(0, 1 << r, chunk):
        hi = min(base + chunk, 1 << r)
        idx = np.arange(base, hi, dtype=np.uint64)
        bits = ((idx[:, None] >> np.arange(r, dtype=np.uint64)) & 1).astype(np.int64)
        signs = 2 * bits - 1
        hit = np.flatnonzero(np.all(np.abs(signs @ M) <= 1, axis=1))
        if hit.size:
            return [int(s) for s in signs[hit[0]]]
    return None


def bareiss_determinant(M) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    A = [[int(round(v)) for v in row] for row in M]
    if any(abs(a - b) > 1e-9 for row, orig in zip(A, np.asarray(M, dtype=float))
           for a, b in zip(row, orig)):
        raise ValueError("matrix is not integral")
    n = len(A)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


@dataclass
class DeterminantReport:
    checked: int
    ok: bool
    witness: tuple | None = None


def submatrix_determinant_check(A: np.ndarray, trials: int, max_dim: int,
                                seed: int = 0) -> DeterminantReport:
    """Sample square submatrices and verify every determinant is -1, 0 or 1."""
    A = np.asarray(A)
    m, n = A.shape
    rng = np.random.default_rng(seed)
    top = min(max_dim, m, n)
    for t in range(trials):
        d = int(rng.integers(1, top + 1))
        ri = rng.choice(m, size=d, replace=False)
        ci = rng.choice(n, size=d, replace=False)
        det = bareiss_determinant(A[np.ix_(ri, ci)])
        if det not in (-1, 0, 1):
            return DeterminantReport(t + 1, False, (tuple(ri), tuple(ci), det))
    return DeterminantReport(trials, True)


def _exact(v: float) -> Fraction:
    if v == int(v):
        return Fraction(int(v))
    return Fraction(v).limit_denominator(10 ** 12)


def _normalized(lp: LinearProgram) -> LinearProgram:
    """The program with, in place of the upper bounds, one x_j <= ub row
    per finite bound in variable order: the row order of solve_vertex's
    tableau."""
    bound = np.flatnonzero(np.isfinite(lp.upper))
    nb = len(bound)
    return LinearProgram(
        lp.num_vars, lp.objective,
        np.concatenate((lp.indptr, lp.indptr[-1] + np.arange(1, nb + 1))),
        np.concatenate((lp.indices, bound)),
        np.concatenate((lp.data, np.ones(nb))),
        np.concatenate((lp.rhs, lp.upper[bound])),
        np.concatenate((lp.geq, np.zeros(nb, dtype=bool))),
        np.full(lp.num_vars, np.inf))


def _std_form_fractions(lp: LinearProgram):
    """Equality standard form over Fractions, with the simplex's row order
    and slack columns (row i's slack in column n + i, +1 on a <= row and
    -1 on a >= row); returns (A, b, c, row senses)."""
    norm = _normalized(lp)
    m = len(norm.rhs)
    M = np.zeros((m, lp.num_vars + m))
    M[norm.row_of, norm.indices] = norm.data
    M[np.arange(m), lp.num_vars + np.arange(m)] = np.where(norm.geq, -1.0, 1.0)
    A = [[_exact(v) for v in row] for row in M.tolist()]
    b = [_exact(v) for v in norm.rhs.tolist()]
    c = [_exact(v) for v in lp.objective] + [Fraction(0)] * m
    return A, b, c, np.where(norm.geq, GEQ, LEQ).tolist()


def _frac_solve(B, rhs):
    """Gaussian elimination over Fractions; returns None on singularity."""
    n = len(B)
    M = [row[:] + [rhs[i]] for i, row in enumerate(B)]
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k] != 0), None)
        if piv is None:
            return None
        M[k], M[piv] = M[piv], M[k]
        inv = M[k][k]
        M[k] = [v / inv for v in M[k]]
        for i in range(n):
            if i != k and M[i][k] != 0:
                f = M[i][k]
                M[i] = [a - f * bk for a, bk in zip(M[i], M[k])]
    return [M[i][n] for i in range(n)]


@dataclass
class RationalCheck:
    agrees: bool
    feasible: bool
    optimal: bool
    exact_objective: Fraction | None


def recertify_rational(lp: LinearProgram, res: SimplexResult,
                       tol: float = 1e-7) -> RationalCheck:
    """Re-solve the returned basis exactly and certify optimality; only for
    results of the in-package simplex, which carry a basis."""
    if res.basis is None:
        raise ValueError("result carries no basis")
    A, b, c, senses = _std_form_fractions(lp)
    cols = len(c)
    basis = list(res.basis)
    B = [[row[j] for j in basis] for row in A]
    xb = _frac_solve(B, b)
    if xb is None:
        return RationalCheck(False, False, False, None)
    x = [Fraction(0)] * cols
    for j, val in zip(basis, xb):
        x[j] = val
    lhs = [sum(a * v for a, v in zip(row, x)) for row in A]
    feasible = all(v >= 0 for v in x) and not any(
        (sense == LEQ and h > bi) or (sense == GEQ and h < bi)
        for h, sense, bi in zip(lhs, senses, b))
    exact_obj = sum(cj * xj for cj, xj in zip(c, x))
    agrees = res.objective is not None and abs(float(exact_obj) - res.objective) <= tol * (1 + abs(res.objective))
    for j, val in zip(basis, xb):
        v = float(val)
        if j < lp.num_vars and abs(v - res.x[j]) > tol * (1 + abs(v)):
            agrees = False
    # duals: solve B^T y = c_B, then all reduced costs must be nonnegative
    Bt = [[B[i][j] for i in range(len(B))] for j in range(len(B))]
    cb = [c[j] for j in basis]
    y = _frac_solve(Bt, cb)
    base_set = set(basis)
    optimal = y is not None and all(
        c[j] - sum(y[i] * A[i][j] for i in range(len(A))) >= 0
        for j in range(cols) if j not in base_set)
    return RationalCheck(agrees, feasible, optimal, exact_obj)


def enumerate_vertices_min(lp: LinearProgram, max_bases: int = 300_000) -> Fraction:
    """Exact minimum over all basic feasible solutions, by enumeration:
    exponential, for cross-checks on tiny programs only."""
    A, b, c, _ = _std_form_fractions(lp)
    m, cols = len(A), len(c)
    if math.comb(cols, m) > max_bases:
        raise ValueError("too many bases to enumerate")
    best = None
    for cand in itertools.combinations(range(cols), m):
        B = [[A[i][j] for j in cand] for i in range(m)]
        xb = _frac_solve(B, b)
        if xb is None or any(v < 0 for v in xb):
            continue
        obj = sum(c[j] * v for j, v in zip(cand, xb))
        if best is None or obj < best:
            best = obj
    if best is None:
        raise ValueError("no feasible basis")
    return best


def exact_minimum(lp: LinearProgram, cost: Sequence[Fraction],
                  basis: Sequence[int]) -> Fraction:
    """Exact minimum of lp under the objective cost (one Fraction per
    column), by the primal simplex over Fractions with Bland's rule,
    started from a feasible basis of its standard form, such as the one
    solve_vertex returns for lp.  The matrix and right-hand sides must be
    exact in floats, as small integers are."""
    A, b, _, _ = _std_form_fractions(lp)
    m = len(A)
    cols = len(A[0]) if m else lp.num_vars
    c = list(cost) + [Fraction(0)] * (cols - lp.num_vars)
    basis = list(basis)
    while True:
        B = [[row[j] for j in basis] for row in A]
        xb = _frac_solve(B, b)
        if xb is None or any(v < 0 for v in xb):
            raise ValueError("the basis is not feasible")
        y = _frac_solve([list(col) for col in zip(*B)], [c[j] for j in basis]) if m else []
        enter = next((j for j in range(cols) if j not in basis
                      and c[j] < sum(y[i] * A[i][j] for i in range(m))), None)
        if enter is None:
            return sum((c[j] * v for j, v in zip(basis, xb)), Fraction(0))
        d = _frac_solve(B, [row[enter] for row in A])
        ratios = [(xb[i] / d[i], basis[i], i) for i in range(m) if d[i] > 0]
        if not ratios:
            raise ValueError("unbounded")
        basis[min(ratios)[2]] = enter


@dataclass(frozen=True)
class FlowNetwork:
    num_nodes: int
    arcs: tuple[tuple[int, int, int, int], ...]   # (tail, head, lower, upper)
    s: int
    t1: int
    t2: int
    k: int
    open_arcs: tuple[int, ...]              # facility -> index of its u->g arc


def build_flow_network(part: FacilityPartition, num_facilities: int,
                       group_label, rc) -> FlowNetwork:
    """Layered selection network: one facility per serving set, the rest
    from the pool, demographic counts funneled through bounded group arcs.
    Nodes run s, sets, pool, facilities, groups, t1, t2; L + 1 arcs leave s."""
    L = part.count
    if L > rc.k:
        raise StageError("round", f"{L} serving sets exceed the budget {rc.k}")
    set_nodes = tuple(range(1, L + 1))
    pool = L + 1
    fac_base = pool + 1
    grp_base = fac_base + num_facilities
    t1 = grp_base + len(rc.ranges)
    t2 = t1 + 1

    arcs: list[tuple[int, int, int, int]] = []
    for node in set_nodes:
        arcs.append((0, node, 0, 1))
    arcs.append((0, pool, 0, rc.k - L))
    for i, v in enumerate(part.surviving):
        for u in part.sets[v]:
            arcs.append((set_nodes[i], fac_base + u, 0, 1))
    for u in range(num_facilities):
        arcs.append((pool, fac_base + u, 0, 1))
    open_arcs = []
    for u in range(num_facilities):
        open_arcs.append(len(arcs))
        arcs.append((fac_base + u, grp_base + int(group_label[u]) - 1, 0, 1))
    for j, (alpha, beta) in enumerate(rc.ranges):
        arcs.append((grp_base + j, t1, alpha, beta))
    arcs.append((t1, t2, rc.k, rc.k))
    return FlowNetwork(t2 + 1, tuple(arcs), 0, t1, t2, rc.k,
                       tuple(open_arcs))


def solve_flow_lower_bounds(net: FlowNetwork) -> np.ndarray | None:
    """Integral flow meeting every [lower, upper] arc bound, or None.

    Closes the circulation with a [k, k] return arc, shifts lower bounds
    onto a super source and sink, and checks that the max flow saturates
    every shifted unit.
    """
    arcs = list(net.arcs) + [(net.t2, net.s, net.k, net.k)]
    src, sink = net.num_nodes, net.num_nodes + 1
    mf = _Network(net.num_nodes + 2)
    eids = []
    excess = [0] * net.num_nodes
    for a, b, lo, hi in arcs:
        if lo > hi:
            raise StageError("round", "arc with lower bound above upper bound")
        eids.append(mf.add(a, b, hi - lo))
        excess[a] -= lo
        excess[b] += lo
    need = 0
    for v, e in enumerate(excess):
        if e > 0:
            mf.add(src, v, e)
            need += e
        elif e < 0:
            mf.add(v, sink, -e)
    if mf.max_flow(src, sink) < need:
        return None
    flows = [arcs[i][2] + (arcs[i][3] - arcs[i][2] - mf.cap[eids[i]])
             for i in range(len(net.arcs))]
    return np.asarray(flows, dtype=int)


def extract_centers(flows: np.ndarray, net: FlowNetwork) -> np.ndarray:
    """Facilities whose selection arc carries a unit."""
    centers = np.nonzero(flows[list(net.open_arcs)] == 1)[0]
    if len(centers) != net.k:
        raise StageError("round", f"flow opened {len(centers)} facilities, wanted {net.k}")
    return centers


def reference_select(part: FacilityPartition, num_facilities: int, groups,
                     rc) -> np.ndarray:
    """Centers picked by the general circulation with arc lower bounds,
    closed by a [k, k] return arc: the reference that select_centers' plain
    max flow must match center for center."""
    net = build_flow_network(part, num_facilities, groups, rc)
    flows = solve_flow_lower_bounds(net)
    if flows is None:
        raise StageError("round", "no integral selection meets the ranges")
    return extract_centers(flows, net)


def flow_to_text(net: FlowNetwork, flows: np.ndarray | None = None) -> str:
    """The network as text, its nodes named in build_flow_network's order."""
    L = sum(a == net.s for a, _, _, _ in net.arcs) - 1
    nF = len(net.open_arcs)
    names = ["s", *(f"S{i + 1}" for i in range(L)), "pool", *(f"f{u}" for u in range(nF)),
             *(f"g{j + 1}" for j in range(net.t1 - L - 2 - nF)), "t1", "t2"]
    lines = [f"nodes {net.num_nodes}: " + " ".join(names)]
    for i, (a, b, lo, hi) in enumerate(net.arcs):
        line = f"{names[a]} -> {names[b]} [{lo}, {hi}]"
        if flows is not None:
            line += f" flow={int(flows[i])}"
        lines.append(line)
    return "\n".join(lines)


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


def baseline_cost_p(red: ReducedInstance) -> float:
    """Power-p cost of snapping every client to its nearest location.

    A client with positive demand has its nearest baseline center among
    the kept locations, and a client without demand adds 0, so this is the
    baseline clustering's cost on the source instance.
    """
    if not red.location_ids:
        return 0.0
    src = red.source
    w = src.client_weights()
    D = src.block(src.client_pos, src.positions(red.location_ids))
    return float(w @ D.min(axis=1) ** src.p)


def lift_bound(red: ReducedInstance, centers) -> tuple[float, float]:
    """Original-instance cost of centers, with its consolidation bound.

    One triangle application per client gives
        cost_original <= 2^(p-1) * (baseline cost + cost on the locations),
    so returning to raw clients never costs more than the right-hand side.
    """
    centers = list(centers)
    actual = clustering_cost(red.source, centers)[0]
    bound = 2.0 ** (red.p - 1.0) * (baseline_cost_p(red) + red.cost_of(centers))
    return actual, bound


def half_contribution(sp: SparsifiedInstance) -> float:
    """Smallest in-ball assignment mass across survivors; inf with none."""
    return min((float(sp.x[v, b].sum()) for v, b in enumerate(sp.balls)), default=np.inf)


def separation_margin(sp: SparsifiedInstance) -> float:
    """min over survivor pairs of d(v, v') - 2^(1+1/p) max(R, R'); inf
    with fewer than two survivors.

    Nonnegative up to float slack when consolidation ran correctly.
    """
    i, j = np.triu_indices(len(sp.location_ids), 1)
    sep = separation_multiplier(sp.p) * np.maximum(sp.radii[i], sp.radii[j])
    return float((sp.loc_dist[i, j] - sep).min(initial=np.inf))


def mip_optimum(inst: MetricInstance, rc: RangeConstraints) -> tuple[float, float]:
    """The fair-range optimum on the original clients by HiGHS's branch and
    bound, as (objective, proven lower bound).

    Columns: x[v, u] in [0, 1], client v served by facility u, row-major,
    then y[u] binary, u open.  Rows: each client served once, x[v, u] <=
    y[u], each group's open count inside its range, and k open in all.
    With y integral some optimal x is integral, so the objective is the
    ILP's; the lower bound is HiGHS's dual bound, which holds however
    early the search stops.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array, eye_array, hstack, kron, vstack

    nC, nF = len(inst.client_ids), len(inst.facility_ids)
    dp = inst.block(inst.client_pos, inst.facility_pos) ** inst.p
    c = np.concatenate([(inst.client_weights()[:, None] * dp).ravel(), np.zeros(nF)])
    groups = np.array(inst.facility_groups)
    member = csr_array(np.array([groups == g for g in range(1, rc.num_groups + 1)]
                                + [np.ones(nF, dtype=bool)], dtype=float))
    cover = hstack([kron(eye_array(nC), np.ones((1, nF))), csr_array((nC, nF))])
    link = hstack([eye_array(nC * nF), -kron(np.ones((nC, 1)), eye_array(nF))])
    ranged = hstack([csr_array((rc.num_groups + 1, nC * nF)), member])
    lo = np.concatenate([np.ones(nC), np.full(nC * nF, -np.inf),
                         [a for a, _ in rc.ranges], [rc.k]])
    hi = np.concatenate([np.ones(nC), np.zeros(nC * nF), [b for _, b in rc.ranges], [rc.k]])
    res = milp(c, integrality=np.repeat([0, 1], [nC * nF, nF]), bounds=Bounds(0.0, 1.0),
               constraints=LinearConstraint(vstack([cover, link, ranged]).tocsr(), lo, hi))
    if not res.success:
        raise AssertionError(f"MIP oracle: {res.message}")
    return float(res.fun), float(res.mip_dual_bound)


def verify_structured(ss: StructuredSolution) -> list[str]:
    """Check every structural property; returns human-readable violations."""
    sp = ss.sp
    m, F = ss.x_bar.shape
    D = sp.fac_dist
    out: list[str] = []

    in_some_ball = np.zeros(F, dtype=bool)
    for b in sp.balls:
        in_some_ball[b] = True
    in_some_super = np.zeros(F, dtype=bool)
    seen = np.zeros(F, dtype=bool)
    for v, mem in enumerate(ss.supers):
        if np.any(seen[mem]):
            out.append(f"disjoint: territory of {sp.location_ids[v]} overlaps another")
        seen[mem] = True
        in_some_super[mem] = True
        if not set(sp.balls[v].tolist()) <= set(mem.tolist()):
            out.append(f"containment: ball of {sp.location_ids[v]} leaves its territory")

    serves_any = ss.x_bar.max(axis=0) > SUPPORT_TOL
    for u in range(F):
        if ss.y_bar[u] > SUPPORT_TOL and (in_some_ball[u] or serves_any[u]):
            if not in_some_super[u]:
                out.append(f"cover: open facility {u} belongs to no territory")

    for v in range(m):
        allowed = set(ss.supers[v].tolist()) | set(ss.peer_balls[v].tolist())
        for u in np.nonzero(ss.x_bar[v] > SUPPORT_TOL)[0]:
            if u not in allowed:
                out.append(f"support: {sp.location_ids[v]} served from outside "
                           f"its territory and neighbor ball (facility {u})")
                break

    for v in range(m):
        got = float(ss.y_bar[sp.balls[v]].sum())
        if got < 0.5 - SUPPORT_TOL:
            out.append(f"ball-mass: {sp.location_ids[v]} has {got:.6f} < 0.5")

    for v in range(m):
        far = [u for u in ss.supers[v]
               if ss.y_bar[u] > SUPPORT_TOL and D[v, u] > 2.0 * ss.peer_dist[v] + GEOM_TOL]
        if far:
            out.append(f"radius: territory of {sp.location_ids[v]} reaches too far")

    for v in range(m):
        super_set = set(ss.supers[v].tolist())
        ball_open = float(ss.y_bar[sp.balls[v]].sum())
        super_open = float(ss.y_bar[ss.supers[v]].sum())
        ball_set = set(sp.balls[v].tolist())
        priv_used = any(ss.x_bar[v, u] > SUPPORT_TOL
                        for u in super_set if u not in ball_set)
        ext_used = any(ss.x_bar[v, u] > SUPPORT_TOL
                       for u in range(F) if u not in super_set)
        if priv_used and ball_open >= 1.0 - SUPPORT_TOL:
            out.append(f"optimality: {sp.location_ids[v]} uses a private facility "
                       f"with a saturated ball")
        if ext_used and super_open >= 1.0 - SUPPORT_TOL:
            out.append(f"optimality: {sp.location_ids[v]} leaves a saturated territory")

    sums = ss.x_bar.sum(axis=1)
    for v in range(m):
        if abs(sums[v] - 1.0) > SUPPORT_TOL:
            out.append(f"mass: {sp.location_ids[v]} served {sums[v]:.8f}")
    if np.any(ss.x_bar > ss.y_bar[None, :] + GEOM_TOL):
        out.append("capacity: service exceeds opening mass somewhere")
    if np.any(ss.y_bar < -GEOM_TOL) or np.any(ss.y_bar > 1.0 + GEOM_TOL):
        out.append("bounds: opening mass outside [0, 1]")

    for v in range(m):
        lo = 0.5 * ss.peer_dist[v] - GEOM_TOL
        hi = 1.5 * ss.peer_dist[v] + GEOM_TOL
        for u in ss.peer_balls[v]:
            if not (lo <= D[v, u] <= hi):
                out.append(f"neighbor-band: facility {u} at {D[v, u]:.6g} "
                           f"outside the band of {sp.location_ids[v]}")
                break
    return out
