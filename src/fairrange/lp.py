"""Linear programming layer.

Holds the LinearProgram container, a two-phase dense primal simplex that
returns basic (vertex) solutions, and the builder of stage 2's assignment
LP.  Stage 5's opening program is a flow network and is solved in
round.py.

An infinite entry of the assignment LP's distance table means "no x
column" for that pair.  That is how the pipeline writes the core of stage
2: for each location, the _CORE_PER_GROUP nearest facilities of every
group, with every facility's y column (core and price, as in Avella,
Sassano & Vasil'ev 2007).  One rule decides when the core is used: when
the core itself has more than HIGHS_CUTOVER variables, so that HiGHS
solves it and returns its cover duals; otherwise the whole program is
solved.  lagrangian_bound turns those duals into a lower bound over every
facility (Cornuejols, Fisher & Nemhauser 1977), which certifies the
core's optimum as the whole program's.

The simplex keeps a full dense tableau.  That is deliberate: the programs
it gets stay at or below HIGHS_CUTOVER variables.  solve_lp sends programs
above HIGHS_CUTOVER variables (mid-size and large assignment LPs) to HiGHS
as the program's own row-wise sparse arrays, with presolve off:
presolve removes nothing from the assignment LP and costs about 40% of its
solve.  The binding is the extension scipy bundles
(scipy.optimize._highspy._core, a private module); _highs_core loads that
one file, in about 10 ms, without importing scipy.optimize or scipy.sparse
(about 0.8 s cold).  The rest stay on the simplex, so a solve whose programs
are all at or below the cutover imports no scipy.  Both backends gate their
answer on the same vectorised residual check.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import os
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import IterationLimitError, SimplexError

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
MAX_ITERS = 1_000_000     # pivots per solve_vertex call
# solve_lp keeps programs of up to HIGHS_CUTOVER variables on the simplex;
# larger programs go to HiGHS.  The cutover sits between the
# relaxations of the small-instance traffic (at most 90 variables) and
# repeated 360-variable relaxations, where HiGHS saves about 7 ms a solve.
# Warm assignment relaxations on a 2-vCPU host take 1.0, 1.1 and 8 ms on the
# simplex at 90, 200 and 360 variables, and 0.35, 0.45 and 1.1 ms on HiGHS.
# Two things keep small programs on the simplex.  HiGHS's first use costs a
# 6-10 ms load, which a process whose programs are all small never pays (a
# cold first 300-variable solve takes 15-25 ms on the simplex and 7-11 ms on
# HiGHS, load included).  And HiGHS gives up on large-p programs
# whose costs span many orders of magnitude: sent every program, it fails
# random_instance(s, 10, 2, p) at k=3 on 2, 5 and 9 of seeds 0-29 at p = 30,
# 50 and 100, which the simplex answers (ROADMAP item 2).
HIGHS_CUTOVER = 200
# the core assignment LP keeps this many nearest facilities of each group
# for every location (assignment_core)
_CORE_PER_GROUP = 3

LEQ, GEQ = "<=", ">="


@dataclass(frozen=True)
class Row:
    """One constraint as LinearProgram.rows lists it."""
    coeffs: tuple[tuple[int, float], ...]   # (variable index, coefficient)
    sense: str
    rhs: float


@dataclass
class LinearProgram:
    """min c.x subject to the rows, 0 <= x <= upper (inf where unbounded).

    The rows are in compressed sparse row layout: row i holds the entries
    indptr[i]:indptr[i+1] of indices (variable) and data (coefficient), and
    reads >= where geq is set and <= elsewhere.  Right-hand sides and upper
    bounds are nonnegative, as in the assignment program.
    """
    num_vars: int
    objective: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rhs: np.ndarray
    geq: np.ndarray
    upper: np.ndarray
    row_of: np.ndarray = field(init=False, repr=False)     # row index per entry

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.shape != (self.num_vars,):
            raise ValueError("objective length mismatch")
        bad = np.flatnonzero(~np.isfinite(self.objective))
        if bad.size:
            raise ValueError(f"objective of column {bad[0]} is not finite")
        self.upper = np.asarray(self.upper, dtype=float)
        if self.upper.shape != (self.num_vars,):
            raise ValueError("upper bound length mismatch")
        m = len(self.rhs)
        if not (len(self.indptr) == m + 1 and len(self.geq) == m
                and self.indptr[-1] == len(self.indices) == len(self.data)):
            raise ValueError("row array length mismatch")
        if not (np.all(self.rhs >= 0.0) and np.all(self.upper >= 0.0)):
            raise ValueError("negative right-hand side or upper bound")
        self.row_of = np.repeat(np.arange(m), self.indptr[1:] - self.indptr[:-1])

    @property
    def rows(self) -> list[Row]:
        """The rows as Row tuples, for readers outside the solver."""
        ptr, idx, val = self.indptr.tolist(), self.indices.tolist(), self.data.tolist()
        senses = np.where(self.geq, GEQ, LEQ).tolist()
        return [Row(tuple(zip(idx[a:b], val[a:b])), sense, rhs) for a, b, sense, rhs
                in zip(ptr, ptr[1:], senses, self.rhs.tolist())]


@dataclass
class SimplexResult:
    status: str                       # optimal | infeasible | unbounded
    x: np.ndarray | None
    objective: float | None
    basis: tuple[int, ...] | None = None
    iterations: int = 0
    backend: str = "simplex"
    max_violation: float = 0.0
    duals: np.ndarray | None = None   # row multipliers, >= 0 (HiGHS only)


def _violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Worst residual of x over the rows, the finite upper bounds and x >= 0.

    A residual is scaled by 1 + its right-hand side or bound.
    """
    lhs = np.bincount(lp.row_of, weights=lp.data * x[lp.indices],
                      minlength=len(lp.rhs))
    r = lhs - lp.rhs
    r[lp.geq] = -r[lp.geq]
    finite = np.isfinite(lp.upper)
    ub = lp.upper[finite]
    parts = (r / (1.0 + lp.rhs), -x, (x[finite] - ub) / (1.0 + ub))
    return max(float(part.max(initial=0.0)) for part in parts)


def _pivot(T: np.ndarray, r: int, j: int) -> None:
    """Make column j basic in row r of the tableau, objective row included.

    Only the rows with a nonzero entry in column j change."""
    T[r] /= T[r, j]
    colv = T[:, j].copy()
    colv[r] = 0.0
    nz = colv.nonzero()[0]
    T[nz] -= colv[nz, None] * T[r]
    T[:, j] = 0.0
    T[r, j] = 1.0


def _pivot_loop(T: np.ndarray, basis: np.ndarray, lim: int, iters: int) -> tuple[str, int]:
    """Price columns 0..lim-1 and pivot until none improves the objective row.

    The entering column has the steepest reduced cost (first index on ties)
    until this call has made more than max(200, m) pivots, then the lowest
    improving index (Bland's rule), which cannot cycle.  T holds one row
    per basic variable and the objective row last, with the right-hand
    sides in its last column.  Returns "optimal" or "unbounded"
    and the pivot count carried on from iters; raises IterationLimitError
    once that count passes MAX_ITERS.
    """
    if lim == 0:
        return "optimal", iters     # no column to price: the empty program
    m = len(basis)
    ncols = T.shape[1] - 1
    z, rhs = T[m, :lim], T[:m, ncols]      # views, current after every pivot
    steepest_until = iters + max(200, m)
    while True:
        if iters > steepest_until:
            cand = (z < -PIVOT_TOL).nonzero()[0]
            if cand.size == 0:
                return "optimal", iters
            j = int(cand[0])
        else:
            j = int(z.argmin())
            if z[j] >= -PIVOT_TOL:
                return "optimal", iters
        col = T[:m, j]
        rows_ok = (col > PIVOT_TOL).nonzero()[0]
        if rows_ok.size == 0:
            return "unbounded", iters
        ratios = rhs[rows_ok] / col[rows_ok]
        rmin = ratios.min()
        near = rows_ok[ratios <= rmin + 1e-9 * (1.0 + abs(rmin))]
        # basis entries are distinct: the tie goes to the smallest basic index
        r = int(near[0] if near.size == 1 else near[basis[near].argmin()])
        _pivot(T, r, j)
        basis[r] = j
        iters += 1
        if iters > MAX_ITERS:
            raise IterationLimitError("iteration limit")


def solve_vertex(lp: LinearProgram) -> SimplexResult:
    """Two-phase primal simplex on a dense tableau.

    Pricing is by steepest reduced cost with first-index ties; once a
    phase has made more than max(200, m) pivots it switches to Bland's
    rule, which guards against cycling.  The leaving row always takes the
    smallest basic variable index among the minimum-ratio rows, so results
    are deterministic.  Returns a basic optimal solution, i.e. a vertex of
    the feasible polytope.
    """
    n = lp.num_vars
    # after the program's rows, one x_j <= ub row per finite bound, in
    # variable order; every row gets a slack column, +1 on a <= row and -1
    # on a >= row, and a >= row starts on an artificial column
    bound = np.flatnonzero(np.isfinite(lp.upper))
    m0 = len(lp.rhs)
    m = m0 + len(bound)
    n_real = n + m
    art_rows = np.flatnonzero(lp.geq)
    art_cols = np.arange(n_real, n_real + len(art_rows))
    ncols = n_real + len(art_rows)

    rows = np.arange(m)
    T = np.zeros((m + 1, ncols + 1))
    T[lp.row_of, lp.indices] = lp.data
    T[rows[m0:], bound] = 1.0
    T[rows, n + rows] = 1.0
    T[art_rows, n + art_rows] = -1.0
    T[:m0, ncols] = lp.rhs
    T[m0:m, ncols] = lp.upper[bound]
    T[art_rows, art_cols] = 1.0
    basis = n + rows
    basis[art_rows] = art_cols

    iters = 0
    # phase 1: minimize the artificial mass
    if len(art_rows):
        for i in art_rows:
            T[m, :] -= T[i, :]
        T[m, art_cols] = 0.0
        status, iters = _pivot_loop(T, basis, ncols, iters)
        if status == "unbounded":
            raise SimplexError("phase 1 unbounded; malformed program")
        if -T[m, ncols] > FEAS_TOL:
            return SimplexResult("infeasible", None, None, iterations=iters)
        # drive leftover artificials out of the basis; every row has a
        # slack, so only a numerically broken tableau leaves a row with no
        # real column to pivot on
        for i in np.flatnonzero(basis >= n_real).tolist():
            nz = np.nonzero(np.abs(T[i, :n_real]) > PIVOT_TOL)[0]
            if nz.size == 0:
                raise SimplexError(f"phase 1 left row {i} without a real pivot")
            basis[i] = nz[0]
            _pivot(T, i, basis[i])

    # phase 2: real objective, in the last row, over the real columns
    c = lp.objective
    T[m, :] = 0.0
    T[m, :n] = c
    real = np.flatnonzero(basis < n)
    for i in real[c[basis[real]] != 0.0].tolist():
        T[m, :] -= c[basis[i]] * T[i, :]
    status, iters = _pivot_loop(T, basis, n_real, iters)
    if status == "unbounded":
        return SimplexResult("unbounded", None, None, iterations=iters)

    x = np.zeros(n)
    real = np.flatnonzero(basis < n)
    x[basis[real]] = T[real, ncols]
    x[np.abs(x) < 1e-12] = 0.0
    np.maximum(x, 0.0, out=x)
    viol = _violation(lp, x)
    if not viol <= 100 * FEAS_TOL:
        raise SimplexError(f"solution residual {viol:.3g} exceeds tolerance")
    obj = float(c @ x)
    return SimplexResult("optimal", x, obj, tuple(basis.tolist()), iterations=iters,
                         max_violation=viol)


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


def _solve_scipy(lp: LinearProgram) -> SimplexResult:
    """HiGHS's dual simplex through scipy's bundled binding, presolve off.

    HiGHS takes the program's own row-wise arrays, a >= row as a row lower
    bound, and stores them column-wise itself; x, the duals and the
    iteration count are those linprog(method="highs") gives without
    presolve.  An optimal result carries each row's multiplier in duals,
    >= 0 on >= and <= rows alike.  The binding is a private scipy module
    (scipy >= 1.15), loaded by _highs_core.
    """
    highspy = _highs_core()
    highs = highspy._Highs()
    for option, value in (("output_flag", False), ("presolve", "off"),
                          ("simplex_strategy", 1)):
        highs.setOptionValue(option, value)
    # a >= row reads rhs <= a.x <= inf and a <= row -inf <= a.x <= rhs.
    # HiGHS takes the row starts without the final entry and one
    # integrality flag per column (0: continuous), and refuses other
    # lengths with kError, after which run() would report an empty model
    n, inf = lp.num_vars, highspy.kHighsInf
    if highs.passModel(
            n, len(lp.rhs), len(lp.indices), int(highspy.MatrixFormat.kRowwise),
            int(highspy.ObjSense.kMinimize), 0.0, lp.objective, np.zeros(n), lp.upper,
            np.where(lp.geq, lp.rhs, -inf), np.where(lp.geq, inf, lp.rhs),
            lp.indptr[:-1].astype(np.int32), lp.indices.astype(np.int32), lp.data,
            np.zeros(n, dtype=np.int32)) == highspy.HighsStatus.kError:
        raise SimplexError("backend failure: HiGHS refused the model")
    highs.run()
    status = highs.getModelStatus()
    iters = highs.getInfo().simplex_iteration_count
    if status == highspy.HighsModelStatus.kInfeasible:
        return SimplexResult("infeasible", None, None, iterations=iters, backend="scipy")
    if status == highspy.HighsModelStatus.kUnbounded:
        return SimplexResult("unbounded", None, None, iterations=iters, backend="scipy")
    if status != highspy.HighsModelStatus.kOptimal:
        raise SimplexError(f"backend failure: {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x = np.maximum(np.array(solution.col_value), 0.0)
    viol = _violation(lp, x)
    if not viol <= 100 * FEAS_TOL:
        raise SimplexError(f"backend residual {viol:.3g} exceeds tolerance")
    # at optimality HiGHS's dual is >= 0 on a >= row and <= 0 on a <= row
    row_dual = np.array(solution.row_dual)
    duals = np.maximum(np.where(lp.geq, row_dual, -row_dual), 0.0)
    return SimplexResult("optimal", x, float(lp.objective @ x), iterations=iters,
                         backend="scipy", max_violation=viol, duals=duals)


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
                     first: int) -> tuple[list, list, list]:
    """Column sets, right-hand sides and >= flags of the range rows (a lower
    and an upper one per group over its facilities) and the card row (at
    most k facilities), facility u being column first + u."""
    cols = first + np.arange(len(groups))
    label = np.asarray(groups)
    sets, rhs, geq = [], [], []
    for gi, (a, b) in enumerate(ranges, start=1):
        members = cols[label == gi]
        sets += [members, members]
        rhs += [float(a), float(b)]
        geq += [True, False]
    return sets + [cols], rhs + [float(k)], geq + [False]


def build_fair_range_lp(dp: np.ndarray, w: Sequence[float], groups: Sequence[int],
                        k: int, ranges: Sequence[tuple[int, int]]) -> LinearProgram:
    """Assignment LP for weighted locations against group-labeled facilities.

    dp[v, u] is the p-th power distance from location v to facility u, and
    inf where the pair has no x column: that is how a core leaves pairs
    out.  Variables are x[v,u] for the finite pairs (row-major) followed by
    y[u] for every facility.  Rows appear as: one coverage row per
    location, a lower and an upper range row per group, the cardinality
    row, then one linking row per x column.  y is capped at 1 per
    facility, which integral solutions satisfy.
    """
    dp = np.asarray(dp, dtype=float)
    nD, nF = dp.shape
    if len(w) != nD or len(groups) != nF:
        raise ValueError("shape mismatch")
    keep = np.isfinite(dp)
    nx = int(np.count_nonzero(keep))
    nv = nx + nF
    c = np.zeros(nv)
    c[:nx] = (np.asarray(w, dtype=float)[:, None] * dp)[keep]
    sets, rhs, geq = _range_card_rows(groups, k, ranges, nx)
    # cover row v holds location v's x columns, numbered in row order, so
    # the cover rows together hold columns 0..nx-1
    set_ptr, set_idx = _unit_rows(sets)
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(keep, axis=1)), nx + set_ptr[1:]))
    indices = np.concatenate((np.arange(nx), set_idx))
    # then the link rows x[v,u] - y[u] <= 0, two entries each
    link = np.empty((nx, 2), dtype=np.intp)
    link[:, 0] = np.arange(nx)
    link[:, 1] = nx + np.nonzero(keep)[1]
    data = np.ones(len(indices) + 2 * nx)
    data[len(indices) + 1::2] = -1.0
    upper = np.full(nv, np.inf)
    upper[nx:] = 1.0
    return LinearProgram(
        nv, c, np.concatenate((indptr, indptr[-1] + 2 * np.arange(1, nx + 1))),
        np.concatenate((indices, link.ravel())), data,
        np.concatenate(([1.0] * nD + rhs, np.zeros(nx))),
        np.concatenate(([True] * nD + geq, np.zeros(nx, dtype=bool))), upper)


def split_fair_solution(x_flat: np.ndarray, dp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x as a locations x facilities array, 0 on the pairs dp leaves out
    (inf), and y, from a solution of build_fair_range_lp(dp, ...)."""
    keep = np.isfinite(dp)
    nx = int(np.count_nonzero(keep))
    x = np.zeros(keep.shape)
    x[keep] = x_flat[:nx]
    return x, x_flat[nx:].copy()


def assignment_core(dp: np.ndarray, groups: Sequence[int]) -> np.ndarray:
    """The table of the core assignment LP, or dp itself when the core has
    at most HIGHS_CUTOVER variables.

    The core keeps, for every location and every group, the
    _CORE_PER_GROUP nearest facilities (ties to the lower index) and sets
    every other entry to inf, so its program has their x columns and every
    facility's y column.
    """
    label = np.asarray(groups)
    sizes = np.bincount(label)
    # each location keeps min(size, _CORE_PER_GROUP) facilities of a group
    if len(dp) * np.minimum(sizes, _CORE_PER_GROUP).sum() + len(label) <= HIGHS_CUTOVER:
        return dp
    keep = np.zeros(dp.shape, dtype=bool)
    rows = np.arange(len(dp))[:, None]
    for g in np.flatnonzero(sizes):
        members = np.flatnonzero(label == g)
        near = np.argsort(dp[:, members], axis=1, kind="stable")[:, :_CORE_PER_GROUP]
        keep[rows, members[near]] = True
    return np.where(keep, dp, np.inf)


def lagrangian_bound(dp: np.ndarray, w: Sequence[float], groups: Sequence[int], k: int,
                     ranges: Sequence[tuple[int, int]], lam: np.ndarray) -> float:
    """Lower bound on the optimum of build_fair_range_lp(dp, w, groups, k,
    ranges), dp all finite, from cover multipliers lam >= 0.

    Moving the cover rows into the objective leaves, for fixed y, each
    x[v,u] at y[u] where w[v] dp[v,u] < lam[v] and at 0 elsewhere, so
        L(lam) = sum(lam) - max over y in Y of sum_u y[u] s[u],
        s[u] = sum_v max(lam[v] - w[v] dp[v,u], 0),
    with Y the range and card rows and 0 <= y <= 1 (Cornuejols, Fisher &
    Nemhauser, 1977).  s >= 0, so the max takes each group's top a_g
    facilities, then the best of the rest up to b_g per group and k in
    all.  The ranges must admit a y (sum of a_g <= k, a_g <= group size).
    """
    lam = np.asarray(lam, dtype=float)
    s = np.maximum(lam[:, None] - np.asarray(w, dtype=float)[:, None] * dp, 0.0).sum(axis=0)
    label = np.asarray(groups)
    must, rest = [], []
    for g, (a, b) in enumerate(ranges, start=1):
        top = np.sort(s[label == g])[::-1]
        must.append(top[:a])
        rest.append(top[a:b])
    must = np.concatenate(must)
    rest = np.sort(np.concatenate(rest))[::-1]
    return float(lam.sum() - must.sum() - rest[:k - len(must)].sum())
