"""Linear programming layer.

Holds the shared LinearProgram container, a two-phase dense primal simplex
that returns basic (vertex) solutions, builders for the two clustering LPs,
and exact checkers for the structured constraint matrix.

The simplex keeps a full dense tableau.  That is deliberate: desk-scale
instances stay below a few thousand variables, and basic solutions are what
the half-integrality argument downstream needs.  solve_lp sends programs
above HIGHS_CUTOVER variables (mid-size and large assignment LPs) to HiGHS
as a column-wise sparse matrix built with numpy, with presolve off:
presolve removes nothing from the assignment LP and costs about 40% of its
solve.  The binding is the extension scipy bundles
(scipy.optimize._highspy._core, a private module); _highs_core loads that
one file, in about 10 ms, without importing scipy.optimize or scipy.sparse
(about 0.8 s cold).  The rest stay on the simplex, so a solve whose programs
are all at or below the cutover imports no scipy; the opening LP, which
needs a vertex, calls solve_vertex directly.  Both backends gate their
answer on the same vectorised residual check.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import IterationLimitError, SimplexError

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
MAX_ITERS = 1_000_000
# variables; larger programs go to HiGHS.  HiGHS solves faster at every size
# measured, but its first use costs a 10 ms load.  The cutover sits between
# the relaxations of the small-instance traffic (at most 90 variables), which
# keeps the load-free simplex, and repeated 360-variable relaxations, where
# HiGHS saves about 10 ms a solve.  A process that solves one program of
# 201-360 variables pays the load for less saving: a cold first solve of a
# 300-variable relaxation takes about 2 ms longer than on the simplex.
HIGHS_CUTOVER = 200

LEQ, GEQ, EQ = "<=", ">=", "=="


@dataclass(frozen=True)
class Row:
    """One constraint as LinearProgram.rows lists it."""
    coeffs: tuple[tuple[int, float], ...]   # (variable index, coefficient)
    sense: str
    rhs: float


@dataclass
class LinearProgram:
    """min c.x subject to the rows, 0 <= x <= upper (upper may be +inf).

    The rows are in compressed sparse row layout: row i holds the entries
    indptr[i]:indptr[i+1] of indices (variable) and data (coefficient), and
    reads >= where geq is set, == where eq is set and <= elsewhere.
    """
    num_vars: int
    objective: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rhs: np.ndarray
    geq: np.ndarray
    eq: np.ndarray
    upper: np.ndarray | None = None
    row_kinds: list[tuple] | None = None    # optional per-row tags for structure checks
    row_of: np.ndarray = field(init=False, repr=False)     # row index per entry

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.shape != (self.num_vars,):
            raise ValueError("objective length mismatch")
        if self.upper is not None:
            self.upper = np.asarray(self.upper, dtype=float)
            if self.upper.shape != (self.num_vars,):
                raise ValueError("upper bound length mismatch")
        m = len(self.rhs)
        if not (len(self.indptr) == m + 1 and len(self.geq) == len(self.eq) == m
                and self.indptr[-1] == len(self.indices) == len(self.data)):
            raise ValueError("row array length mismatch")
        self.row_of = np.repeat(np.arange(m), self.indptr[1:] - self.indptr[:-1])

    def senses(self) -> list[str]:
        return np.where(self.eq, EQ, np.where(self.geq, GEQ, LEQ)).tolist()

    @property
    def rows(self) -> list[Row]:
        """The rows as Row tuples, for readers outside the solver."""
        ptr, idx, val = self.indptr.tolist(), self.indices.tolist(), self.data.tolist()
        return [Row(tuple(zip(idx[a:b], val[a:b])), sense, rhs) for a, b, sense, rhs
                in zip(ptr, ptr[1:], self.senses(), self.rhs.tolist())]

    def matrix_geq(self) -> np.ndarray:
        """Dense row matrix in >= orientation (<= rows negated).

        Equality rows are rejected; the structured matrix never has any.
        """
        if self.eq.any():
            raise ValueError("equality row has no >= orientation")
        sign = np.where(self.geq, 1.0, -1.0)
        A = np.zeros((len(self.rhs), self.num_vars))
        A[self.row_of, self.indices] = sign[self.row_of] * self.data
        return A


@dataclass
class SimplexResult:
    status: str                       # optimal | infeasible | unbounded
    x: np.ndarray | None
    objective: float | None
    basis: tuple[int, ...] | None = None
    kept_rows: tuple[int, ...] | None = None
    iterations: int = 0
    backend: str = "simplex"
    max_violation: float = 0.0


def _normalized(lp: LinearProgram) -> LinearProgram:
    """The program with nonnegative right-hand sides (a row with a negative
    one is negated, and an inequality flips) and, in place of the upper
    bounds, one x_j <= ub row per finite bound in variable order.  The
    simplex and the rational recheck share this row order."""
    flip = lp.rhs < 0
    sign = np.where(flip, -1.0, 1.0)
    ub = np.empty(0) if lp.upper is None else lp.upper
    bound = np.flatnonzero(np.isfinite(ub))
    nb = len(bound)
    no = np.zeros(nb, dtype=bool)
    return LinearProgram(
        lp.num_vars, lp.objective,
        np.concatenate((lp.indptr, lp.indptr[-1] + np.arange(1, nb + 1))),
        np.concatenate((lp.indices, bound)),
        np.concatenate((lp.data * sign[lp.row_of], np.ones(nb))),
        np.concatenate((lp.rhs * sign, ub[bound])),
        np.concatenate((lp.geq ^ (flip & ~lp.eq), no)),
        np.concatenate((lp.eq, no)))


def _write_standard(M: np.ndarray, norm: LinearProgram) -> np.ndarray:
    """Write normalized rows into the leading rows of M: the coefficients in
    columns 0..n-1, then each inequality row's slack in columns n, n+1, ...
    in row order, +1 on a <= row and -1 on a >= row.  Returns each row's
    slack column, -1 on equality rows, which have none."""
    ineq = np.flatnonzero(~norm.eq)
    slack = np.full(len(norm.rhs), -1)
    slack[ineq] = norm.num_vars + np.arange(len(ineq))
    M[norm.row_of, norm.indices] = norm.data
    M[ineq, slack[ineq]] = np.where(norm.geq[ineq], -1.0, 1.0)
    return slack


def _violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Worst residual of x over the rows, the finite upper bounds and x >= 0.

    A row's residual is scaled by 1 + |rhs|; equality rows count both ways.
    """
    lhs = np.bincount(lp.row_of, weights=lp.data * x[lp.indices],
                      minlength=len(lp.rhs))
    r = lhs - lp.rhs
    r[lp.geq] = -r[lp.geq]
    r[lp.eq] = np.abs(r[lp.eq])
    parts = [r / (1.0 + np.abs(lp.rhs)), -x]
    if lp.upper is not None:
        finite = np.isfinite(lp.upper)
        ub = lp.upper[finite]
        parts.append((x[finite] - ub) / (1.0 + np.abs(ub)))
    return max(float(part.max(initial=0.0)) for part in parts)


def _pivot(T: np.ndarray, r: int, j: int) -> None:
    """Make column j basic in row r of the tableau, objective row included.

    Only the rows with a nonzero entry in column j change."""
    T[r] /= T[r, j]
    colv = T[:, j].copy()
    colv[r] = 0.0
    nz = np.nonzero(colv)[0]
    T[nz] -= np.outer(colv[nz], T[r])
    T[:, j] = 0.0
    T[r, j] = 1.0


def _pivot_loop(T: np.ndarray, basis: list[int], allowed: np.ndarray,
                iters: int, max_iters: int) -> tuple[str, int]:
    """Price and pivot until no allowed column improves the objective row.

    T holds one row per basic variable and the objective row last, with the
    right-hand sides in its last column.  Returns "optimal" or "unbounded"
    and the pivot count carried on from iters.
    """
    m = len(basis)
    ncols = T.shape[1] - 1
    bland = False
    stall = 0
    stall_limit = max(200, m)
    best = np.inf
    while True:
        z = T[m, :ncols]
        if bland:
            cand = np.nonzero(allowed & (z < -PIVOT_TOL))[0]
            if cand.size == 0:
                return "optimal", iters
            j = int(cand[0])
        else:
            masked = np.where(allowed, z, np.inf)
            j = int(np.argmin(masked))
            if masked[j] >= -PIVOT_TOL:
                return "optimal", iters
        col = T[:m, j]
        rows_ok = np.nonzero(col > PIVOT_TOL)[0]
        if rows_ok.size == 0:
            return "unbounded", iters
        ratios = T[rows_ok, ncols] / col[rows_ok]
        rmin = ratios.min()
        near = rows_ok[ratios <= rmin + 1e-9 * (1.0 + abs(rmin))]
        r = int(min(near, key=lambda i: basis[i]))
        _pivot(T, r, j)
        basis[r] = j
        iters += 1
        if iters > max_iters:
            raise IterationLimitError("iteration limit")
        obj = -T[m, ncols]
        if obj < best - 1e-12 * (1.0 + abs(best)):
            best = obj
            stall = 0
        else:
            stall += 1
            if stall > stall_limit:
                bland = True


def solve_vertex(lp: LinearProgram, *, max_iters: int = MAX_ITERS) -> SimplexResult:
    """Two-phase primal simplex on a dense tableau.

    Pricing is by steepest reduced cost with first-index ties; a stall
    counter switches to Bland's rule, which guards against cycling.  The
    leaving row always takes the smallest basic variable index among the
    minimum-ratio rows, so results are deterministic.  Returns a basic
    optimal solution, i.e. a vertex of the feasible polytope.
    """
    norm = _normalized(lp)
    m = len(norm.rhs)
    n = lp.num_vars
    n_real = n + int(np.count_nonzero(~norm.eq))
    art_rows = np.flatnonzero(norm.geq | norm.eq)
    art_cols = np.arange(n_real, n_real + len(art_rows))
    ncols = n_real + len(art_rows)

    T = np.zeros((m + 1, ncols + 1))
    basis = _write_standard(T, norm)     # <= rows start on their slack
    T[:m, ncols] = norm.rhs
    T[art_rows, art_cols] = 1.0
    basis[art_rows] = art_cols
    basis = basis.tolist()

    allowed = np.ones(ncols, dtype=bool)
    iters = 0
    kept = list(range(m))
    # phase 1: minimize the artificial mass
    if len(art_rows):
        for i in art_rows:
            T[m, :] -= T[i, :]
        T[m, art_cols] = 0.0
        status, iters = _pivot_loop(T, basis, allowed, iters, max_iters)
        if status == "unbounded":
            raise SimplexError("phase 1 unbounded; malformed program")
        if -T[m, ncols] > FEAS_TOL:
            return SimplexResult("infeasible", None, None, iterations=iters)
        # drive leftover artificials out of the basis; rows with no real
        # column to pivot on are redundant and go
        drop = set()
        for i in range(m):
            if basis[i] >= n_real:
                nz = np.nonzero(np.abs(T[i, :n_real]) > PIVOT_TOL)[0]
                if nz.size == 0:
                    drop.add(i)
                    continue
                basis[i] = int(nz[0])
                _pivot(T, i, basis[i])
        if drop:
            kept = [i for i in kept if i not in drop]
            T = np.delete(T, sorted(drop), axis=0)
            basis = [basis[i] for i in kept]
        allowed[art_cols] = False

    # phase 2: real objective, in the last row
    m_eff = len(basis)
    T[m_eff, :] = 0.0
    T[m_eff, :n] = lp.objective
    for i in range(m_eff):
        b = basis[i]
        cb = lp.objective[b] if b < n else 0.0
        if cb:
            T[m_eff, :] -= cb * T[i, :]
    status, iters = _pivot_loop(T, basis, allowed, iters, max_iters)
    if status == "unbounded":
        return SimplexResult("unbounded", None, None, iterations=iters)

    x = np.zeros(n)
    for i, b in enumerate(basis):
        if b < n:
            x[b] = T[i, ncols]
    x[np.abs(x) < 1e-12] = 0.0
    np.maximum(x, 0.0, out=x)
    viol = _violation(lp, x)
    if not viol <= 100 * FEAS_TOL:
        raise SimplexError(f"solution residual {viol:.3g} exceeds tolerance")
    obj = float(lp.objective @ x)
    return SimplexResult("optimal", x, obj, tuple(basis), tuple(kept),
                         iterations=iters, max_violation=viol)


HIGHS_MODULE = "scipy.optimize._highspy._core"


def _highs_core():
    """The HiGHS extension module scipy bundles, loaded without its package.

    Importing it by name runs scipy.optimize's __init__, which pulls in
    scipy.sparse and most of scipy.optimize.  Loading the extension file
    alone, under the same module name and registered in sys.modules before
    it runs, costs about 10 ms; a later import of scipy.optimize finds the
    module there and reuses it.  scipy's own code reaches it with
    from-imports, which fall back to sys.modules, so it does not need the
    _core attribute on the parent package that this load cannot set.
    Every scipy >= 1.15 wheel ships the file; without it this raises
    ImportError rather than pay the package import.
    """
    core = sys.modules.get(HIGHS_MODULE)
    if core is not None:
        return core
    scipy_spec = importlib.util.find_spec("scipy")      # does not import scipy
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("HiGHS needs scipy >= 1.15, which is not installed")
    folder = os.path.join(scipy_spec.submodule_search_locations[0],
                          "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(HIGHS_MODULE, path)
            core = importlib.util.module_from_spec(spec)
            sys.modules[HIGHS_MODULE] = core
            try:
                spec.loader.exec_module(core)
            except BaseException:
                del sys.modules[HIGHS_MODULE]
                raise
            return core
    raise ImportError(f"no HiGHS extension (_core) in {folder}; scipy >= 1.15 ships one")


def _csc(lp: LinearProgram, order: np.ndarray,
         sign: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """indptr, indices and data of the signed rows, permuted by order, in
    compressed sparse column layout.  Within a column the entries run in
    permuted row order, as scipy's csr_array(...)[order].tocsc() leaves them,
    so HiGHS reads the model linprog builds."""
    m, n = len(lp.rhs), lp.num_vars
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(m)
    row = rank[lp.row_of]
    by_col = np.argsort(lp.indices.astype(np.int64) * m + row, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(lp.indices, minlength=n), out=indptr[1:])
    return indptr, row[by_col], (lp.data * sign[lp.row_of])[by_col]


def _solve_scipy(lp: LinearProgram) -> SimplexResult:
    """HiGHS's dual simplex through scipy's bundled binding, presolve off.

    The model is the one linprog(method="highs") builds, so the answer is
    the one linprog gives without presolve.  The binding is a private scipy
    module (scipy >= 1.15), loaded by _highs_core.
    """
    highspy = _highs_core()

    # >= rows go in negated as <= rows; = rows with a negative right-hand
    # side are negated too, as the simplex's normalization does.  HiGHS
    # reads row_lower <= A x <= row_upper, the <= rows first, then the = rows
    sign = np.where(lp.geq | (lp.eq & (lp.rhs < 0)), -1.0, 1.0)
    order = np.argsort(lp.eq, kind="stable")
    start, index, data = _csc(lp, order, sign)
    b = (sign * lp.rhs)[order]
    model = highspy.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = lp.num_vars
    model.num_row_ = model.a_matrix_.num_row_ = len(b)
    model.a_matrix_.format_ = highspy.MatrixFormat.kColwise
    # the binding copies element by element; lists convert faster than arrays
    model.a_matrix_.start_ = start.tolist()
    model.a_matrix_.index_ = index.tolist()
    model.a_matrix_.value_ = data.tolist()
    model.col_cost_ = lp.objective.tolist()
    model.col_lower_ = [0.0] * lp.num_vars
    model.col_upper_ = ([highspy.kHighsInf] * lp.num_vars if lp.upper is None
                        else lp.upper.tolist())
    model.row_lower_ = np.where(lp.eq[order], b, -highspy.kHighsInf).tolist()
    model.row_upper_ = b.tolist()

    highs = highspy._Highs()
    for option, value in (("output_flag", False), ("log_to_console", False),
                          ("presolve", "off"), ("simplex_strategy", 1)):
        highs.setOptionValue(option, value)
    highs.passModel(model)
    highs.run()
    status = highs.getModelStatus()
    iters = highs.getInfo().simplex_iteration_count
    if status == highspy.HighsModelStatus.kInfeasible:
        return SimplexResult("infeasible", None, None, iterations=iters, backend="scipy")
    if status == highspy.HighsModelStatus.kUnbounded:
        return SimplexResult("unbounded", None, None, iterations=iters, backend="scipy")
    if status != highspy.HighsModelStatus.kOptimal:
        raise SimplexError(f"backend failure: {highs.modelStatusToString(status)}")
    x = np.maximum(np.array(highs.getSolution().col_value), 0.0)
    viol = _violation(lp, x)
    if not viol <= 100 * FEAS_TOL:
        raise SimplexError(f"backend residual {viol:.3g} exceeds tolerance")
    return SimplexResult("optimal", x, float(lp.objective @ x), iterations=iters,
                         backend="scipy", max_violation=viol)


def solve_lp(lp: LinearProgram) -> SimplexResult:
    """Solve on HiGHS above HIGHS_CUTOVER variables, where the dense tableau
    gets slow, and on the in-package vertex simplex at or below it."""
    if lp.num_vars > HIGHS_CUTOVER:
        return _solve_scipy(lp)
    return solve_vertex(lp)


# ---------------------------------------------------------------------------
# LP builders


def _unit_rows(sets) -> tuple[np.ndarray, np.ndarray]:
    """indptr and indices of unit-coefficient rows, one row per column set."""
    cols = [np.asarray(s, dtype=np.intp) for s in sets]
    indptr = np.array([0, *itertools.accumulate(map(len, cols))], dtype=np.intp)
    return indptr, np.concatenate(cols)


def _range_card_rows(groups: Sequence[int], k: int, ranges: Sequence[tuple[int, int]],
                     first: int) -> tuple[list, list, list, list]:
    """Column sets, right-hand sides, >= flags and tags of the range rows (a
    lower and an upper one per group over its facilities) and the card row
    (at most k facilities), facility u being column first + u."""
    cols = first + np.arange(len(groups))
    label = np.asarray(groups)
    sets, rhs, geq, kinds = [], [], [], []
    for gi, (a, b) in enumerate(ranges, start=1):
        members = cols[label == gi]
        sets += [members, members]
        rhs += [float(a), float(b)]
        geq += [True, False]
        kinds += [("range_lower", gi), ("range_upper", gi)]
    return sets + [cols], rhs + [float(k)], geq + [False], kinds + [("card",)]


def build_fair_range_lp(dp: np.ndarray, w: Sequence[float], groups: Sequence[int],
                        k: int, ranges: Sequence[tuple[int, int]],
                        y_cap: float = 1.0) -> LinearProgram:
    """Assignment LP for weighted locations against group-labeled facilities.

    dp[v, u] is the p-th power distance from location v to facility u.
    Variables are x[v,u] (row-major, nD * nF of them) followed by y[u].
    Rows appear as: one coverage row per location, a lower and an upper range
    row per group, the cardinality row, then one linking row per (v, u) pair.
    y is capped at y_cap per facility, which integral solutions satisfy.
    """
    dp = np.asarray(dp, dtype=float)
    nD, nF = dp.shape
    if len(w) != nD or len(groups) != nF:
        raise ValueError("shape mismatch")
    nx = nD * nF
    nv = nx + nF
    c = np.zeros(nv)
    c[:nx] = (np.asarray(w, dtype=float)[:, None] * dp).ravel()
    sets, rhs, geq, kinds = _range_card_rows(groups, k, ranges, nx)
    # cover row v holds x[v, :]
    indptr, indices = _unit_rows([*np.arange(nx).reshape(nD, nF), *sets])
    # then the link rows x[v,u] - y[u] <= 0, two entries each
    link = np.empty((nx, 2), dtype=np.intp)
    link[:, 0] = np.arange(nx)
    link[:, 1] = nx + link[:, 0] % nF
    data = np.ones(len(indices) + 2 * nx)
    data[len(indices) + 1::2] = -1.0
    upper = np.full(nv, np.inf)
    upper[nx:] = y_cap
    return LinearProgram(
        nv, c, np.concatenate((indptr, indptr[-1] + 2 * np.arange(1, nx + 1))),
        np.concatenate((indices, link.ravel())), data,
        np.concatenate(([1.0] * nD + rhs, np.zeros(nx))),
        np.concatenate(([True] * nD + geq, np.zeros(nx, dtype=bool))),
        np.zeros(nD + len(rhs) + nx, dtype=bool), upper=upper,
        row_kinds=[("cover", v) for v in range(nD)] + kinds
        + list(itertools.product(("link",), range(nD), range(nF))))


def split_fair_solution(x_flat: np.ndarray, nD: int, nF: int) -> tuple[np.ndarray, np.ndarray]:
    return x_flat[:nD * nF].reshape(nD, nF).copy(), x_flat[nD * nF:].copy()


def build_structured_lp(dp: np.ndarray, w: Sequence[float], groups: Sequence[int],
                        k: int, ranges: Sequence[tuple[int, int]],
                        balls: Sequence[Sequence[int]],
                        supers: Sequence[Sequence[int]],
                        nn_dist_pow: Sequence[float] | None) -> tuple[LinearProgram, float]:
    """Opening LP over y alone, shaped by the per-location super balls.

    For several locations the per-location term is
        d(v, v')^p + sum_{u in P(v)} (d(v,u)^p - d(v,v')^p) y_u,
    where v' is the nearest other surviving location.  With a single
    location there is no v'; the term degenerates to sum d(v,u)^p y_u over
    P(v) and the in-ball mass requirement tightens from 1/2 to 1.

    Returns the LP plus the constant part of the objective, so the full cost
    is lp optimum + constant.
    """
    dp = np.asarray(dp, dtype=float)
    nD, nF = dp.shape
    single = nn_dist_pow is None
    if single and nD != 1:
        raise ValueError("nn_dist_pow required when several locations survive")
    c = np.zeros(nF)
    constant = 0.0
    for v in range(nD):
        if single:
            for u in supers[v]:
                c[u] += w[v] * dp[v, u]
        else:
            base = nn_dist_pow[v]
            constant += w[v] * base
            for u in supers[v]:
                c[u] += w[v] * (dp[v, u] - base)
    sets, rhs, geq, kinds = _range_card_rows(groups, k, ranges, 0)
    indptr, indices = _unit_rows([*sets, *balls, *supers])
    rhs += [1.0 if single else 0.5] * nD + [1.0] * nD
    geq += [True] * nD + [False] * nD
    kinds += [("ball", v) for v in range(nD)] + [("superball", v) for v in range(nD)]
    lp = LinearProgram(nF, c, indptr, indices, np.ones(len(indices)), np.array(rhs),
                       np.array(geq), np.zeros(len(rhs), dtype=bool),
                       upper=np.ones(nF), row_kinds=kinds)
    return lp, constant


def scale_doubled(lp: LinearProgram) -> LinearProgram:
    """Same matrix with doubled right-hand sides and doubled upper bounds.

    The structured matrix is totally unimodular, all doubled right-hand
    sides are integers, so every vertex of the scaled polytope is integral;
    halving an integral vertex yields a half-integral point of the original.
    """
    return replace(lp, rhs=2.0 * lp.rhs,
                   upper=None if lp.upper is None else 2.0 * lp.upper)


# ---------------------------------------------------------------------------
# total unimodularity checks


def structured_column_profile(lp: LinearProgram) -> list[str]:
    """Structural scan of the matrix in >= orientation.

    Each column may carry at most five nonzeros: +1 from its group's lower
    range row, -1 from the upper one, -1 from the cardinality row, +1 from
    one ball row and -1 from the matching super ball row.  Returns violation
    descriptions, empty when the profile holds.
    """
    if lp.row_kinds is None:
        raise ValueError("row kinds required")
    A = lp.matrix_geq()
    out = []
    expected_sign = {"range_lower": 1.0, "range_upper": -1.0, "card": -1.0,
                     "ball": 1.0, "superball": -1.0}
    for j in range(lp.num_vars):
        nz = np.nonzero(A[:, j])[0]
        if len(nz) > 5:
            out.append(f"column {j}: {len(nz)} nonzeros")
            continue
        ball_loc, super_loc = None, None
        seen = set()
        for i in nz:
            kind = lp.row_kinds[i][0]
            if A[i, j] != expected_sign.get(kind):
                out.append(f"column {j}: row {i} ({kind}) entry {A[i, j]}")
            if kind in seen and kind in ("range_lower", "range_upper", "card"):
                out.append(f"column {j}: duplicate {kind} entry")
            seen.add(kind)
            if kind == "ball":
                if ball_loc is not None:
                    out.append(f"column {j}: in two balls")
                ball_loc = lp.row_kinds[i][1]
            if kind == "superball":
                if super_loc is not None:
                    out.append(f"column {j}: in two super balls")
                super_loc = lp.row_kinds[i][1]
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
    s = np.asarray(signs, dtype=float)
    total = s @ A[rows]
    return bool(np.all(np.abs(total) <= 1.0 + 1e-9))


def _gh_constructive(A, rows, row_kinds):
    kinds = [row_kinds[i] for i in rows]
    has_center = any(k[0] == "card" for k in kinds)
    group_rows: dict[int, list[int]] = {}
    loc_rows: dict[object, dict[str, int]] = {}
    signs = [0] * len(rows)
    for t, k in enumerate(kinds):
        if k[0] in ("range_lower", "range_upper"):
            group_rows.setdefault(k[1], []).append(t)
        elif k[0] in ("ball", "superball"):
            loc_rows.setdefault(k[1], {})[k[0]] = t
        elif k[0] == "card":
            signs[t] = -1
        else:
            return None
    for g, ts in group_rows.items():
        if len(ts) == 2:
            for t in ts:
                signs[t] = 1
        else:
            t = ts[0]
            lower = kinds[t][0] == "range_lower"
            if has_center:
                signs[t] = -1 if lower else 1
            else:
                signs[t] = 1 if lower else -1
    for v, pair in loc_rows.items():
        if "ball" in pair and "superball" in pair:
            signs[pair["ball"]] = 1
            signs[pair["superball"]] = 1
        elif "ball" in pair:
            signs[pair["ball"]] = -1
        else:
            signs[pair["superball"]] = 1
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
        sums = signs @ M
        ok = np.all(np.abs(sums) <= 1, axis=1)
        hit = np.nonzero(ok)[0]
        if hit.size:
            return [int(s) for s in signs[hit[0]]]
    return None


def bareiss_determinant(M) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    A = [[int(round(v)) for v in row] for row in M]
    for row, orig in zip(A, np.asarray(M, dtype=float)):
        for a, b in zip(row, orig):
            if abs(a - b) > 1e-9:
                raise ValueError("matrix is not integral")
    n = len(A)
    if n == 0:
        return 1
    sign = 1
    prev = 1
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


# ---------------------------------------------------------------------------
# exact rational recertification (test support)


def _exact(v: float) -> Fraction:
    if v == int(v):
        return Fraction(int(v))
    return Fraction(v).limit_denominator(10 ** 12)


def _std_form_fractions(lp: LinearProgram):
    """Equality standard form over Fractions, with the simplex's row order
    and slack columns; returns (A, b, c, row senses)."""
    norm = _normalized(lp)
    n_slack = int(np.count_nonzero(~norm.eq))
    M = np.zeros((len(norm.rhs), lp.num_vars + n_slack))
    _write_standard(M, norm)
    A = [[_exact(v) for v in row] for row in M.tolist()]
    b = [_exact(v) for v in norm.rhs.tolist()]
    c = [_exact(v) for v in lp.objective] + [Fraction(0)] * n_slack
    return A, b, c, norm.senses()


def _frac_solve(B, rhs):
    """Gaussian elimination over Fractions; returns None on singularity."""
    n = len(B)
    M = [row[:] + [rhs[i]] for i, row in enumerate(B)]
    for k in range(n):
        piv = None
        for i in range(k, n):
            if M[i][k] != 0:
                piv = i
                break
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
    """Re-solve the returned basis exactly and certify optimality.

    Only meaningful for results of the in-package simplex (needs the basis).
    """
    if res.basis is None or res.kept_rows is None:
        raise ValueError("result carries no basis")
    A, b, c, senses = _std_form_fractions(lp)
    cols = len(c)
    rows = list(res.kept_rows)
    basis = list(res.basis)
    B = [[A[i][j] for j in basis] for i in rows]
    rhs = [b[i] for i in rows]
    xb = _frac_solve(B, rhs)
    if xb is None:
        return RationalCheck(False, False, False, None)
    x = [Fraction(0)] * cols
    for j, val in zip(basis, xb):
        x[j] = val
    feasible = all(v >= 0 for v in x)
    for row, sense, bi in zip(A, senses, b):
        lhs = sum(a * v for a, v in zip(row, x))
        if sense == LEQ and lhs > bi:
            feasible = False
        if sense == GEQ and lhs < bi:
            feasible = False
        if sense == EQ and lhs != bi:
            feasible = False
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
    optimal = y is not None
    base_set = set(basis)
    if optimal:
        for j in range(cols):
            if j in base_set:
                continue
            red = c[j] - sum(y[i] * A[rows[i]][j] for i in range(len(rows)))
            if red < 0:
                optimal = False
                break
    return RationalCheck(agrees, feasible, optimal, exact_obj)


def enumerate_vertices_min(lp: LinearProgram, max_bases: int = 300_000) -> Fraction:
    """Exact minimum over all basic feasible solutions, by enumeration.

    Exponential; intended for cross-checks on tiny programs only.
    """
    A, b, c, _ = _std_form_fractions(lp)
    m, cols = len(A), len(c)
    if math.comb(cols, m) > max_bases:
        raise ValueError("too many bases to enumerate")
    best = None
    for cand in itertools.combinations(range(cols), m):
        B = [[A[i][j] for j in cand] for i in range(m)]
        xb = _frac_solve(B, b)
        if xb is None:
            continue
        if any(v < 0 for v in xb):
            continue
        obj = sum(c[j] * v for j, v in zip(cand, xb))
        if best is None or obj < best:
            best = obj
    if best is None:
        raise ValueError("no feasible basis")
    return best
