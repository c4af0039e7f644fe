import itertools
import json
import math
import os
import struct
import subprocess
import sys
import textwrap
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairrange
from fairrange.errors import IterationLimitError, SimplexError
from fairrange.lp import (
    FEAS_TOL,
    GEQ,
    HIGHS_CUTOVER,
    LEQ,
    EQ,
    MAX_ITERS,
    PIVOT_TOL,
    DeterminantReport,
    LinearProgram,
    Row,
    SimplexResult,
    _csc,
    _exact,
    _solve_scipy,
    _std_form_fractions,
    _violation,
    bareiss_determinant,
    build_fair_range_lp,
    build_structured_lp,
    enumerate_vertices_min,
    ghouila_houri_check,
    recertify_rational,
    scale_doubled,
    solve_lp,
    solve_vertex,
    split_fair_solution,
    structured_column_profile,
    submatrix_determinant_check,
)
from fairrange.pipeline import random_instance, random_ranges, solve_fair_range

from conftest import lp_from_rows


def simple_lp(c, rows, ub=None):
    return lp_from_rows(len(c), np.array(c, dtype=float),
                        [Row(tuple(co), s, r) for co, s, r in rows],
                        upper=None if ub is None else np.array(ub, dtype=float))


def beale_lp():
    # classic degenerate program that can cycle without an anti-cycling rule
    return simple_lp([-0.75, 150.0, -0.02, 6.0], [
        ([(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)], LEQ, 0.0),
        ([(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)], LEQ, 0.0),
        ([(2, 1.0)], LEQ, 1.0),
    ])


class TestSimplex:
    def test_textbook_optimum(self):
        # max 3a + 5b with a <= 4, 2b <= 12, 3a + 2b <= 18
        lp = simple_lp([-3.0, -5.0], [
            ([(0, 1.0)], LEQ, 4.0),
            ([(1, 2.0)], LEQ, 12.0),
            ([(0, 3.0), (1, 2.0)], LEQ, 18.0),
        ])
        res = solve_vertex(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-36.0, abs=1e-9)
        assert res.x == pytest.approx([2.0, 6.0], abs=1e-9)

    def test_equality_rows(self):
        lp = simple_lp([1.0, 1.0], [
            ([(0, 1.0), (1, 1.0)], EQ, 2.0),
            ([(0, 1.0), (1, -1.0)], EQ, 0.0),
        ])
        res = solve_vertex(lp)
        assert res.status == "optimal"
        assert res.x == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_infeasible(self):
        lp = simple_lp([1.0], [
            ([(0, 1.0)], GEQ, 2.0),
            ([(0, 1.0)], LEQ, 1.0),
        ])
        assert solve_vertex(lp).status == "infeasible"

    def test_unbounded(self):
        lp = simple_lp([-1.0], [])
        assert solve_vertex(lp).status == "unbounded"

    def test_negative_rhs_normalization(self):
        # x >= -1 written as -x <= 1 after normalization; optimum at 0
        lp = simple_lp([1.0], [([(0, -1.0)], LEQ, 1.0)])
        res = solve_vertex(lp)
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_upper_bounds_respected(self):
        lp = simple_lp([-1.0, -1.0], [([(0, 1.0), (1, 1.0)], LEQ, 10.0)],
                       ub=[3.0, 2.0])
        res = solve_vertex(lp)
        assert res.objective == pytest.approx(-5.0, abs=1e-9)

    def test_beale_terminates(self):
        lp = beale_lp()
        res = solve_vertex(lp)
        assert res.status == "optimal"
        exact = enumerate_vertices_min(lp)
        assert res.objective == pytest.approx(float(exact), abs=1e-9)
        assert res.objective == pytest.approx(-0.05, abs=1e-9)

    def test_iteration_cap(self):
        lp = simple_lp([-1.0], [([(0, 1.0)], LEQ, 1.0)])
        with pytest.raises(IterationLimitError):
            solve_vertex(lp, max_iters=0)

    def test_redundant_rows_dropped(self):
        lp = simple_lp([1.0, 1.0], [
            ([(0, 1.0), (1, 1.0)], EQ, 2.0),
            ([(0, 2.0), (1, 2.0)], EQ, 4.0),
            ([(0, 1.0)], GEQ, 0.5),
        ])
        res = solve_vertex(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(2.0, abs=1e-9)

    def test_enumeration_agreement_random(self, rng):
        for trial in range(40):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            c = rng.integers(-5, 6, size=n).astype(float)
            rows = []
            for _ in range(m):
                coeffs = [(j, float(rng.integers(-3, 4))) for j in range(n)]
                coeffs = [t for t in coeffs if t[1] != 0.0]
                if not coeffs:
                    coeffs = [(0, 1.0)]
                sense = LEQ if rng.integers(2) else GEQ
                rows.append((coeffs, sense, float(rng.integers(0, 9))))
            lp = simple_lp(c, rows, ub=[5.0] * n)
            res = solve_vertex(lp)
            try:
                exact = enumerate_vertices_min(lp)
            except ValueError:
                assert res.status == "infeasible"
                continue
            assert res.status == "optimal"
            assert res.objective == pytest.approx(float(exact), abs=1e-7)
            cert = recertify_rational(lp, res)
            assert cert.feasible and cert.optimal and cert.agrees

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_backend_agreement(self, data):
        n = data.draw(st.integers(2, 4))
        m = data.draw(st.integers(1, 3))
        c = [data.draw(st.integers(-4, 4)) for _ in range(n)]
        rows = []
        for _ in range(m):
            coeffs = [(j, data.draw(st.integers(-2, 3))) for j in range(n)]
            coeffs = [t for t in coeffs if t[1]]
            if not coeffs:
                coeffs = [(0, 1.0)]
            sense = data.draw(st.sampled_from([LEQ, GEQ]))
            rows.append((coeffs, sense, data.draw(st.integers(0, 6))))
        lp = simple_lp([float(v) for v in c], rows, ub=[4.0] * n)
        mine = solve_vertex(lp)
        other = _solve_scipy(lp)
        assert mine.status == other.status
        if mine.status == "optimal":
            assert mine.objective == pytest.approx(other.objective, abs=1e-6)


class TestFairRangeBuilder:
    def build_line(self, k, ranges):
        # facilities at 0, 1, 2 with groups 1, 1, 2; one unit client at 1
        dp = np.array([[1.0, 0.0, 1.0]])
        return build_fair_range_lp(dp, [1.0], [1, 1, 2], k, ranges)

    def test_row_layout(self):
        lp = self.build_line(1, ((0, 1), (0, 1)))
        assert lp.num_vars == 6
        assert len(lp.rows) == 1 + 4 + 1 + 3
        kinds = [k[0] for k in lp.row_kinds]
        assert kinds == ["cover", "range_lower", "range_upper", "range_lower",
                         "range_upper", "card", "link", "link", "link"]
        assert np.all(lp.upper[:3] == np.inf)
        assert np.all(lp.upper[3:] == 1.0)

    def test_free_optimum_is_zero(self):
        lp = self.build_line(1, ((0, 1), (0, 1)))
        res = solve_vertex(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.0, abs=1e-9)
        x, y = split_fair_solution(res.x, 1, 3)
        assert float(x.sum()) == pytest.approx(1.0, abs=1e-7)

    def test_forced_group_costs_one(self):
        lp = self.build_line(1, ((0, 0), (1, 1)))
        res = solve_vertex(lp)
        assert res.objective == pytest.approx(1.0, abs=1e-9)
        _, y = split_fair_solution(res.x, 1, 3)
        assert y[2] == pytest.approx(1.0, abs=1e-7)

    def test_infeasible_ranges(self):
        lp = self.build_line(1, ((2, 2), (0, 0)))
        assert solve_vertex(lp).status == "infeasible"

    def test_weighted_objective(self):
        dp = np.array([[4.0, 0.0], [0.0, 4.0]])
        lp = build_fair_range_lp(dp, [3.0, 5.0], [1, 1], 1, ((1, 1),))
        res = solve_vertex(lp)
        # one center only; cheaper to park on the heavy client
        assert res.objective == pytest.approx(12.0, abs=1e-9)


def tiny_structured():
    dp = np.array([[1.0, 4.0, 9.0, 25.0], [49.0, 16.0, 4.0, 1.0]])
    return build_structured_lp(
        dp, [2.0, 3.0], [1, 2, 1, 2], 2, ((0, 2), (0, 2)),
        balls=[[0], [3]], supers=[[0, 1], [2, 3]], nn_dist_pow=[9.0, 9.0])


class TestStructuredBuilder:
    def test_objective_terms(self):
        lp, constant = tiny_structured()
        assert constant == pytest.approx(45.0)
        assert lp.objective == pytest.approx([-16.0, -10.0, -15.0, -24.0])

    def test_row_layout(self):
        lp, _ = tiny_structured()
        kinds = [k[0] for k in lp.row_kinds]
        assert kinds == ["range_lower", "range_upper", "range_lower", "range_upper",
                         "card", "ball", "ball", "superball", "superball"]
        ball_rows = [r for r, k in zip(lp.rows, lp.row_kinds) if k[0] == "ball"]
        assert all(r.rhs == 0.5 for r in ball_rows)

    def test_optimum_matches_hand_value(self):
        lp, constant = tiny_structured()
        res = solve_vertex(lp)
        assert res.status == "optimal"
        assert res.objective + constant == pytest.approx(5.0, abs=1e-9)

    def test_single_location_mode(self):
        dp = np.array([[1.0, 2.0, 3.0]])
        lp, constant = build_structured_lp(
            dp, [2.0], [1, 1, 1], 1, ((0, 3),),
            balls=[[0, 1]], supers=[[0, 1, 2]], nn_dist_pow=None)
        assert constant == 0.0
        assert lp.objective == pytest.approx([2.0, 4.0, 6.0])
        ball = [r for r, k in zip(lp.rows, lp.row_kinds) if k[0] == "ball"]
        assert ball[0].rhs == 1.0

    def test_single_location_requires_flag(self):
        dp = np.array([[1.0], [2.0]])
        with pytest.raises(ValueError):
            build_structured_lp(dp, [1.0, 1.0], [1], 1, ((0, 1),),
                                balls=[[0], [0]], supers=[[0], [0]],
                                nn_dist_pow=None)

    def test_scale_doubled(self):
        lp, _ = tiny_structured()
        big = scale_doubled(lp)
        assert [r.rhs for r in big.rows] == [2 * r.rhs for r in lp.rows]
        assert np.all(big.upper == 2.0)
        assert big.objective == pytest.approx(lp.objective)

    def test_column_profile_clean(self):
        lp, _ = tiny_structured()
        assert structured_column_profile(lp) == []


class TestUnimodularity:
    def test_constructive_signing_all_subsets(self):
        lp, _ = tiny_structured()
        A = lp.matrix_geq().astype(int)
        nrows = len(lp.rows)
        for size in range(1, nrows + 1):
            for subset in itertools.combinations(range(nrows), size):
                signs = ghouila_houri_check(A, subset, lp.row_kinds)
                assert signs is not None
                total = np.array(signs) @ A[list(subset)]
                assert np.all(np.abs(total) <= 1)

    def test_exhaustive_matches_constructive(self):
        lp, _ = tiny_structured()
        A = lp.matrix_geq().astype(int)
        subset = list(range(len(lp.rows)))
        blind = ghouila_houri_check(A, subset)   # no kind hints
        assert blind is not None

    def test_odd_cycle_is_rejected(self):
        A = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert ghouila_houri_check(A, [0, 1, 2]) is None

    def test_too_large_blind_subset(self):
        A = np.eye(25, dtype=int)
        with pytest.raises(ValueError, match="undecided"):
            ghouila_houri_check(A, list(range(25)))

    def test_bareiss_matches_float_det(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 7))
            M = rng.integers(-3, 4, size=(d, d))
            assert bareiss_determinant(M) == round(float(np.linalg.det(M)))

    def test_bareiss_rejects_fractional(self):
        with pytest.raises(ValueError):
            bareiss_determinant(np.array([[0.5]]))

    def test_submatrix_check_clean_structured(self):
        lp, _ = tiny_structured()
        A = lp.matrix_geq()
        rep = submatrix_determinant_check(A, trials=400, max_dim=6, seed=11)
        assert rep.ok and rep.checked == 400

    def test_submatrix_check_finds_bad_minor(self):
        A = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        rep = submatrix_determinant_check(A, trials=500, max_dim=3, seed=1)
        assert not rep.ok
        assert rep.witness is not None
        ri, ci, det = rep.witness
        assert det not in (-1, 0, 1)
        assert bareiss_determinant(A[np.ix_(ri, ci)]) == det

    def test_scaled_structured_vertex_is_integral(self):
        lp, _ = tiny_structured()
        res = solve_vertex(scale_doubled(lp))
        assert res.status == "optimal"
        frac = np.abs(res.x - np.round(res.x))
        assert float(frac.max()) < 1e-7


class TestRationalRecheck:
    def test_recertify_requires_basis(self):
        lp = simple_lp([1.0], [([(0, 1.0)], GEQ, 1.0)])
        res = _solve_scipy(lp)
        with pytest.raises(ValueError):
            recertify_rational(lp, res)

    def test_exact_objective_value(self):
        lp = simple_lp([2.0, 3.0], [
            ([(0, 1.0), (1, 2.0)], GEQ, 3.0),
            ([(0, 2.0), (1, 1.0)], GEQ, 3.0),
        ])
        res = solve_vertex(lp)
        cert = recertify_rational(lp, res)
        assert cert.feasible and cert.optimal and cert.agrees
        assert cert.exact_objective == Fraction(5)


class TestBackendRouting:
    def test_small_stays_on_simplex(self):
        lp = simple_lp([1.0], [([(0, 1.0)], GEQ, 1.0)])
        assert solve_lp(lp).backend == "simplex"

    def test_large_moves_to_scipy(self):
        # the cutover itself stays on the simplex; one variable more goes
        # to HiGHS
        for n, backend in ((HIGHS_CUTOVER, "simplex"), (HIGHS_CUTOVER + 1, "scipy")):
            rows = [([(j, 1.0) for j in range(n)], GEQ, 5.0)]
            lp = simple_lp(np.ones(n), rows, ub=[1.0] * n)
            res = solve_lp(lp)
            assert res.backend == backend
            assert res.objective == pytest.approx(5.0, abs=1e-7)


# The row normalization the simplex used before it read the rows as
# arrays, kept verbatim as the reference for loop_violation and
# reference_solve_vertex.
def _normalized_rows(lp: LinearProgram) -> list[tuple[dict, str, float]]:
    """lp rows plus bound rows, with nonnegative right-hand sides.

    The fixed ordering here (lp.rows first, then one bound row per finite
    upper bound in variable order) is shared with the rational recheck.
    """
    out = []
    for row in lp.rows:
        coeffs = dict(row.coeffs)
        sense, rhs = row.sense, row.rhs
        if rhs < 0:
            coeffs = {j: -a for j, a in coeffs.items()}
            rhs = -rhs
            if sense != EQ:
                sense = LEQ if sense == GEQ else GEQ
        out.append((coeffs, sense, rhs))
    if lp.upper is not None:
        for j in range(lp.num_vars):
            ub = lp.upper[j]
            if np.isfinite(ub):
                out.append(({j: 1.0}, LEQ, float(ub)))
    return out


def loop_violation(lp, x):
    """Row-by-row residual over the normalized rows: the reference that the
    vectorised _violation must reproduce bit for bit."""
    worst = 0.0
    for coeffs, sense, rhs in _normalized_rows(lp):
        lhs = sum(a * x[j] for j, a in coeffs.items())
        scale = 1.0 + abs(rhs)
        if sense == LEQ:
            worst = max(worst, (lhs - rhs) / scale)
        elif sense == GEQ:
            worst = max(worst, (rhs - lhs) / scale)
        else:
            worst = max(worst, abs(lhs - rhs) / scale)
    if len(x):
        worst = max(worst, float(-(x.min(initial=0.0))))
    return worst


def eq_negative_rhs_lp():
    # min x0 + 2 x1 + 3 x2 with x0 + x1 + x2 = 3, x1 >= x0 + 1, x2 <= 1,
    # every row written with a negative right-hand side; optimum (1, 2, 0)
    return simple_lp([1.0, 2.0, 3.0], [
        ([(0, -1.0), (1, -1.0), (2, -1.0)], EQ, -3.0),
        ([(0, 1.0), (1, -1.0)], LEQ, -1.0),
        ([(2, -1.0)], GEQ, -1.0),
    ], ub=[np.inf, np.inf, 5.0])


def random_fair_range_lp(rng, nD, nF, p):
    pts = rng.uniform(0.0, 10.0, size=(nD + nF, 2))
    dp = np.linalg.norm(pts[:nD, None] - pts[None, nD:], axis=2) ** p
    groups = [1 + u % 3 for u in range(nF)]
    return build_fair_range_lp(dp, rng.uniform(1.0, 3.0, size=nD), groups, 3,
                               ((0, 2), (1, 2), (0, 1)))


def linprog_reference(lp, presolve=True):
    """linprog fed the arrays _solve_scipy hands HiGHS: the <= rows (>= rows
    negated) as A_ub, the == rows as A_eq."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    sign = np.where(lp.geq | (lp.eq & (lp.rhs < 0)), -1.0, 1.0)
    A = csr_array((lp.data * sign[lp.row_of], lp.indices, lp.indptr),
                  shape=(len(lp.rhs), lp.num_vars))
    b = sign * lp.rhs
    ub = ~lp.eq
    upper = np.full(lp.num_vars, np.inf) if lp.upper is None else lp.upper
    return linprog(lp.objective,
                   A_ub=A[ub] if ub.any() else None, b_ub=b[ub] if ub.any() else None,
                   A_eq=A[lp.eq] if lp.eq.any() else None,
                   b_eq=b[lp.eq] if lp.eq.any() else None,
                   bounds=np.column_stack((np.zeros(lp.num_vars), upper)),
                   method="highs", options={"presolve": presolve})


class TestSparseHighs:
    def test_fair_range_backends_agree_above_cutover(self, rng):
        nD, nF = 3, 200
        pts = rng.uniform(0.0, 10.0, size=(nD + nF, 2))
        dp = np.linalg.norm(pts[:nD, None] - pts[None, nD:], axis=2) ** 2
        groups = [1 + u % 3 for u in range(nF)]
        lp = build_fair_range_lp(dp, [1.0, 2.0, 3.0], groups, 3,
                                 ((0, 2), (1, 2), (0, 1)))
        highs = solve_lp(lp)
        assert lp.num_vars > HIGHS_CUTOVER and highs.backend == "scipy"
        mine = solve_vertex(lp)
        assert highs.objective == pytest.approx(mine.objective, rel=1e-9)

    def test_equality_rows_with_negative_rhs(self):
        lp = eq_negative_rhs_lp()
        res = _solve_scipy(lp)
        assert res.backend == "scipy" and res.status == "optimal"
        assert res.objective == pytest.approx(5.0, abs=1e-9)
        assert res.x == pytest.approx([1.0, 2.0, 0.0], abs=1e-9)
        assert solve_vertex(lp).objective == pytest.approx(5.0, abs=1e-9)

    def test_perturbed_backend_answer_is_rejected(self, monkeypatch):
        from scipy.optimize._highspy import _core

        class Perturbed(_core._Highs):
            def getSolution(self):
                sol = super().getSolution()
                sol.col_value = [v + 1e-3 for v in sol.col_value]
                return sol

        monkeypatch.setattr(_core, "_Highs", Perturbed)
        with pytest.raises(SimplexError, match="residual"):
            _solve_scipy(eq_negative_rhs_lp())

    @pytest.mark.parametrize("nD,nF,p", list(itertools.product((3, 10), (200, 300), (1, 2))))
    def test_direct_call_matches_linprog_bit_for_bit(self, rng, nD, nF, p):
        lp = random_fair_range_lp(rng, nD, nF, p)
        assert lp.num_vars > HIGHS_CUTOVER
        res = _solve_scipy(lp)
        assert res.status == "optimal"
        unpresolved = linprog_reference(lp, presolve=False)
        assert res.x.tobytes() == np.maximum(unpresolved.x, 0.0).tobytes()
        assert res.objective == pytest.approx(linprog_reference(lp).fun, rel=1e-9)

    def test_mixed_rows_match_linprog_bit_for_bit(self, rng):
        # == rows ahead of <= and >= rows, some right-hand sides negative
        lps = [eq_negative_rhs_lp()]
        for _ in range(20):
            n = 8
            rows = [([(j, float(rng.integers(-2, 4))) for j in range(n)],
                     [EQ, LEQ, GEQ][t % 3], float(rng.integers(-3, 6))) for t in range(5)]
            lps.append(simple_lp(rng.uniform(0.5, 2.0, size=n), rows, ub=[3.0] * n))
        optimal = 0
        for lp in lps:
            res, ref = _solve_scipy(lp), linprog_reference(lp, presolve=False)
            assert res.status == {0: "optimal", 2: "infeasible"}[ref.status]
            if res.status == "optimal":
                optimal += 1
                assert res.x.tobytes() == np.maximum(ref.x, 0.0).tobytes()
        assert optimal >= 5

    def test_contradictory_ranges_above_cutover_are_infeasible(self, rng):
        # group 1 must open at least 3 and at most 1 facilities
        nF = 250
        lp = build_fair_range_lp(rng.uniform(1.0, 5.0, size=(3, nF)), [1.0] * 3,
                                 [1 + u % 2 for u in range(nF)], 4, ((3, 1), (0, 2)))
        assert lp.num_vars > HIGHS_CUTOVER
        assert _solve_scipy(lp).status == "infeasible"

    def test_unbounded_above_cutover(self):
        n = HIGHS_CUTOVER + 1
        lp = simple_lp(-np.ones(n), [([(j, 1.0) for j in range(n)], GEQ, 1.0)])
        assert _solve_scipy(lp).status == "unbounded"

    def test_reports_highs_iterations(self, rng):
        res = solve_lp(random_fair_range_lp(rng, 3, 200, 2))
        assert res.backend == "scipy" and res.iterations > 0

    def test_violation_matches_row_loop(self, rng):
        for trial in range(60):
            n = int(rng.integers(1, 6))
            rows = []
            for _ in range(int(rng.integers(0, 5))):
                cols = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
                coeffs = [(int(j), float(rng.normal())) for j in cols]
                rows.append((coeffs, [LEQ, GEQ, EQ][int(rng.integers(3))],
                             float(rng.normal())))
            ub = np.where(rng.random(n) < 0.5, np.inf, rng.normal(size=n))
            lp = simple_lp(rng.normal(size=n), rows,
                           ub=None if trial % 3 == 0 else ub)
            x = rng.normal(size=n)
            assert _violation(lp, x) == loop_violation(lp, x)

    def test_csc_matches_scipy_conversion(self, rng):
        from scipy.sparse import csr_array

        for _ in range(20):
            n = int(rng.integers(1, 9))
            rows = [([(int(j), float(rng.integers(-3, 4) or 1))
                      for j in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)],
                     [EQ, LEQ, GEQ][int(rng.integers(3))], float(rng.integers(-3, 6)))
                    for _ in range(int(rng.integers(1, 7)))]
            lp = simple_lp(rng.uniform(0.5, 2.0, size=n), rows)
            sign = np.where(lp.geq | (lp.eq & (lp.rhs < 0)), -1.0, 1.0)
            order = np.argsort(lp.eq, kind="stable")
            want = csr_array((lp.data * sign[lp.row_of], lp.indices, lp.indptr),
                             shape=(len(lp.rhs), n))[order].tocsc()
            start, index, data = _csc(lp, order, sign)
            assert start.tolist() == want.indptr.tolist()
            assert index.tolist() == want.indices.tolist()
            assert data.tobytes() == want.data.tobytes()


FRESH_SOLVE = """
    import json, sys
    import numpy as np
    from fairrange import lp as L
    rng = np.random.default_rng(1)
    prog = L.build_fair_range_lp(rng.uniform(1.0, 5.0, size=(8, 40)), [1.0] * 8,
                                 [1 + u % 2 for u in range(40)], 8, ((3, 5), (3, 5)))
    def solve():
        res = L.solve_lp(prog)
        return [res.backend, res.status]
"""


def run_fresh(code: str) -> dict:
    """Run FRESH_SOLVE and then code in a new interpreter with fairrange
    importable; returns the JSON object it prints last."""
    src = os.path.dirname(os.path.dirname(fairrange.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    script = textwrap.dedent(FRESH_SOLVE) + textwrap.dedent(code)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


class TestHighsLoad:
    def test_load_then_scipy_import(self):
        facts = run_fresh("""
            first = solve()
            core = sys.modules[L.HIGHS_MODULE]
            absent = [m for m in ("scipy.optimize", "scipy.sparse") if m not in sys.modules]
            from scipy.optimize import linprog
            ref = linprog([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
            from scipy.optimize._highspy import _core
            wrapper = sys.modules["scipy.optimize._highspy._highs_wrapper"]
            print(json.dumps({
                "first": first, "absent": absent, "linprog": [ref.status, ref.fun],
                "same": [sys.modules[L.HIGHS_MODULE] is core, _core is core,
                         wrapper._h is core, L._highs_core() is core],
                "again": solve()}))
        """)
        assert facts["first"] == ["scipy", "optimal"]
        assert facts["absent"] == ["scipy.optimize", "scipy.sparse"]
        assert facts["linprog"] == [0, 1.0]
        assert facts["same"] == [True] * 4
        assert facts["again"] == ["scipy", "optimal"]

    def test_scipy_import_then_load(self):
        facts = run_fresh("""
            from scipy.optimize._highspy import _core
            print(json.dumps({"same": L._highs_core() is _core, "solve": solve()}))
        """)
        assert facts == {"same": True, "solve": ["scipy", "optimal"]}

    def test_missing_file_raises(self):
        facts = run_fresh("""
            import importlib.machinery
            importlib.machinery.EXTENSION_SUFFIXES = [".missing"]
            try:
                solve()
            except ImportError as exc:
                error = str(exc)
            print(json.dumps({"error": error, "imported": "scipy.optimize" in sys.modules,
                              "registered": L.HIGHS_MODULE in sys.modules}))
        """)
        assert facts["error"].startswith("no HiGHS extension (_core) in ")
        assert facts["imported"] is False and facts["registered"] is False


class TestHighsBand:
    """Programs of HIGHS_CUTOVER+1 to 600 variables, which moved from the
    simplex to HiGHS when the cutover came down from 600."""

    def test_routing(self, rng):
        # 8 locations x 40 facilities is the many-clients relaxation; 90
        # variables is small-mix's largest
        assert solve_lp(random_fair_range_lp(rng, 8, 40, 2)).backend == "scipy"
        assert solve_lp(random_fair_range_lp(rng, 5, 15, 2)).backend == "simplex"

    @pytest.mark.parametrize("p", (1, 2))
    @pytest.mark.parametrize("nD,nF", ((1, 101), (4, 50), (8, 40), (3, 100), (5, 100)))
    def test_objective_matches_simplex(self, rng, nD, nF, p):
        for _ in range(2):
            lp = random_fair_range_lp(rng, nD, nF, p)
            assert HIGHS_CUTOVER < lp.num_vars <= 600
            highs, mine = _solve_scipy(lp), solve_vertex(lp)
            assert highs.status == mine.status == "optimal"
            assert highs.objective == pytest.approx(mine.objective, rel=1e-9)

    def test_answers_match_the_old_cutover(self, monkeypatch):
        from fairrange import RangeConstraints, instance_from_coords

        ids = [f"c{j:03d}" for j in range(800)]
        facilities = ids[::20]
        labels = {f: 1 + t % 2 for t, f in enumerate(facilities)}
        backends = []

        def recording(lp):
            res = solve_lp(lp)
            backends.append(res.backend)
            return res

        monkeypatch.setattr(fairrange.pipeline, "solve_lp", recording)

        def answers(cutover):
            monkeypatch.setattr(fairrange.lp, "HIGHS_CUTOVER", cutover)
            out = []
            for seed in range(3):
                rng = np.random.default_rng([seed, 7])
                demands = {c: int(rng.integers(1, 4)) for c in ids}
                inst = instance_from_coords(ids, rng.uniform(0.0, 10.0, size=(800, 2)),
                                            facilities, labels, demands, 1.0 + seed % 2)
                rep = solve_fair_range(inst, RangeConstraints(8, ((3, 5), (3, 5))))
                out.append((tuple(rep.centers.centers), struct.pack("<d", rep.centers.cost_p)))
            return out

        assert answers(HIGHS_CUTOVER) == answers(600)
        assert backends == ["scipy"] * 3 + ["simplex"] * 3


# The two-phase simplex as it was before its two pivot loops and the
# artificial drive-out were merged into one _pivot and one _pivot_loop,
# kept verbatim as the oracle for that merge.
def reference_solve_vertex(lp: LinearProgram, *, max_iters: int = MAX_ITERS,
                           pivot_tol: float = PIVOT_TOL, feas_tol: float = FEAS_TOL) -> SimplexResult:
    """Two-phase primal simplex on a dense tableau.

    Pricing is by steepest reduced cost with first-index ties; a stall
    counter switches to Bland's rule, which guards against cycling.  The
    leaving row always takes the smallest basic variable index among the
    minimum-ratio rows, so results are deterministic.  Returns a basic
    optimal solution, i.e. a vertex of the feasible polytope.
    """
    norm = _normalized_rows(lp)
    m = len(norm)
    n = lp.num_vars
    n_slack = sum(1 for _, sense, _ in norm if sense != EQ)
    slack_of_row = {}
    t = 0
    for i, (_, sense, _) in enumerate(norm):
        if sense != EQ:
            slack_of_row[i] = n + t
            t += 1
    art_rows = [i for i, (_, sense, rhs) in enumerate(norm)
                if sense in (GEQ, EQ)]
    n_art = len(art_rows)
    ncols = n + n_slack + n_art

    T = np.zeros((m + 1, ncols + 1))
    basis = [0] * m
    art_cols = set()
    a_at = n + n_slack
    for i, (coeffs, sense, rhs) in enumerate(norm):
        for j, a in coeffs.items():
            T[i, j] = a
        if sense == LEQ:
            T[i, slack_of_row[i]] = 1.0
            basis[i] = slack_of_row[i]
        elif sense == GEQ:
            T[i, slack_of_row[i]] = -1.0
        T[i, ncols] = rhs
    for i in art_rows:
        T[i, a_at] = 1.0
        basis[i] = a_at
        art_cols.add(a_at)
        a_at += 1

    allowed = np.ones(ncols, dtype=bool)
    iters = 0

    def pivot_loop(max_total):
        nonlocal iters
        bland = False
        stall = 0
        stall_limit = max(200, m)
        best = np.inf
        while True:
            z = T[m, :ncols]
            if bland:
                cand = np.nonzero(allowed & (z < -pivot_tol))[0]
                if cand.size == 0:
                    return "optimal"
                j = int(cand[0])
            else:
                masked = np.where(allowed, z, np.inf)
                j = int(np.argmin(masked))
                if masked[j] >= -pivot_tol:
                    return "optimal"
            col = T[:m, j]
            rows_ok = np.nonzero(col > pivot_tol)[0]
            if rows_ok.size == 0:
                return "unbounded"
            ratios = T[rows_ok, ncols] / col[rows_ok]
            rmin = ratios.min()
            near = rows_ok[ratios <= rmin + 1e-9 * (1.0 + abs(rmin))]
            r = int(min(near, key=lambda i: basis[i]))
            piv = T[r, j]
            T[r] /= piv
            colv = T[:, j].copy()
            colv[r] = 0.0
            T[:] -= np.outer(colv, T[r])
            T[:, j] = 0.0
            T[r, j] = 1.0
            basis[r] = j
            iters += 1
            if iters > max_total:
                raise IterationLimitError("iteration limit")
            obj = -T[m, ncols]
            if obj < best - 1e-12 * (1.0 + abs(best)):
                best = obj
                stall = 0
            else:
                stall += 1
                if stall > stall_limit:
                    bland = True

    # phase 1: minimize the artificial mass
    if n_art:
        for i in art_rows:
            T[m, :] -= T[i, :]
        T[m, list(art_cols)] = 0.0
        status = pivot_loop(max_iters)
        if status == "unbounded":
            raise SimplexError("phase 1 unbounded; malformed program")
        if -T[m, ncols] > feas_tol:
            return SimplexResult("infeasible", None, None, iterations=iters)
        # remove leftover artificials from the basis
        drop = []
        for i in range(m):
            if basis[i] in art_cols:
                row = T[i, :ncols]
                pick = -1
                for j in range(n + n_slack):
                    if abs(row[j]) > pivot_tol:
                        pick = j
                        break
                if pick < 0:
                    drop.append(i)
                    continue
                piv = T[i, pick]
                T[i] /= piv
                colv = T[:, pick].copy()
                colv[i] = 0.0
                T[:] -= np.outer(colv, T[i])
                T[:, pick] = 0.0
                T[i, pick] = 1.0
                basis[i] = pick
        kept = [i for i in range(m) if i not in set(drop)]
        if drop:
            T = np.delete(T, drop, axis=0)
            basis = [basis[i] for i in kept]
    else:
        kept = list(range(m))
    m_eff = len(basis)
    allowed[list(art_cols)] = False

    # phase 2: real objective
    T[m_eff, :] = 0.0
    T[m_eff, :n] = lp.objective
    for i in range(m_eff):
        b = basis[i]
        cb = lp.objective[b] if b < n else 0.0
        if cb:
            T[m_eff, :] -= cb * T[i, :]

    def pivot_loop2():
        nonlocal iters
        bland = False
        stall = 0
        stall_limit = max(200, m_eff)
        best = np.inf
        while True:
            z = T[m_eff, :ncols]
            if bland:
                cand = np.nonzero(allowed & (z < -pivot_tol))[0]
                if cand.size == 0:
                    return "optimal"
                j = int(cand[0])
            else:
                masked = np.where(allowed, z, np.inf)
                j = int(np.argmin(masked))
                if masked[j] >= -pivot_tol:
                    return "optimal"
            col = T[:m_eff, j]
            rows_ok = np.nonzero(col > pivot_tol)[0]
            if rows_ok.size == 0:
                return "unbounded"
            ratios = T[rows_ok, ncols] / col[rows_ok]
            rmin = ratios.min()
            near = rows_ok[ratios <= rmin + 1e-9 * (1.0 + abs(rmin))]
            r = int(min(near, key=lambda i: basis[i]))
            piv = T[r, j]
            T[r] /= piv
            colv = T[:m_eff + 1, j].copy()
            colv[r] = 0.0
            T[:m_eff + 1] -= np.outer(colv, T[r])
            T[:m_eff + 1, j] = 0.0
            T[r, j] = 1.0
            basis[r] = j
            iters += 1
            if iters > max_iters:
                raise IterationLimitError("iteration limit")
            obj = -T[m_eff, ncols]
            if obj < best - 1e-12 * (1.0 + abs(best)):
                best = obj
                stall = 0
            else:
                stall += 1
                if stall > stall_limit:
                    bland = True

    status = pivot_loop2()
    if status == "unbounded":
        return SimplexResult("unbounded", None, None, iterations=iters)

    x = np.zeros(n)
    for i, b in enumerate(basis):
        if b < n:
            x[b] = T[i, ncols]
    x[np.abs(x) < 1e-12] = 0.0
    np.maximum(x, 0.0, out=x)
    viol = _violation(lp, x)
    if not viol <= 100 * feas_tol:
        raise SimplexError(f"solution residual {viol:.3g} exceeds tolerance")
    obj = float(lp.objective @ x)
    return SimplexResult("optimal", x, obj, tuple(basis), tuple(kept),
                         iterations=iters, max_violation=viol)


def outcome(solve, lp, **kw):
    """Everything a solve returns, floats as their bytes; a raised solver
    error stands for itself."""
    try:
        res = solve(lp, **kw)
    except SimplexError as exc:
        return type(exc).__name__, str(exc)
    return (res.status,
            None if res.x is None else res.x.tobytes(),
            None if res.objective is None else struct.pack("<d", res.objective),
            res.basis, res.kept_rows, res.iterations, res.backend,
            struct.pack("<d", res.max_violation))


COEFFS = st.one_of(st.integers(-3, 3).map(float),
                   st.sampled_from([0.5, -1.5, 2.25, 1.0 / 3.0, -0.1]))


@st.composite
def small_programs(draw):
    """Dense-simplex inputs of every row shape: <=, >= and = rows with
    right-hand sides of either sign, finite and infinite upper bounds,
    = rows repeated at a multiple (redundant, so phase 1 drops one), and
    infeasible or unbounded programs among them."""
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        cols = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        coeffs = [(j, draw(COEFFS)) for j in cols]
        sense = draw(st.sampled_from([LEQ, LEQ, GEQ, EQ]))
        rhs = float(draw(st.integers(-3, 8)))
        rows.append((coeffs, sense, rhs))
        if sense == EQ and draw(st.booleans()):
            f = draw(st.sampled_from([1.0, 2.0, -1.0]))
            rows.append(([(j, f * a) for j, a in coeffs], EQ, f * rhs))
    ub = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from([np.inf, 0.0, 1.0, 2.5, 4.0]),
                 min_size=n, max_size=n)))
    c = [draw(COEFFS) for _ in range(n)]
    return simple_lp(c, rows, ub=ub)


class TestMergedLoopMatchesReference:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(small_programs(), st.one_of(st.just(MAX_ITERS), st.integers(0, 3)))
    def test_bit_identical_on_small_programs(self, lp, max_iters):
        assert (outcome(solve_vertex, lp, max_iters=max_iters)
                == outcome(reference_solve_vertex, lp, max_iters=max_iters))

    def test_bit_identical_on_structured_programs(self):
        lp, _ = tiny_structured()
        for prog in (lp, scale_doubled(lp), scale_doubled(scale_doubled(lp))):
            assert outcome(solve_vertex, prog) == outcome(reference_solve_vertex, prog)

    def test_bit_identical_on_every_exit(self):
        # named programs that drop a redundant row, are infeasible, are
        # unbounded, hit the pivot cap, have negative right-hand sides, and
        # stall long enough to switch to Bland's rule
        cases = [
            (simple_lp([1.0, 1.0], [([(0, 1.0), (1, 1.0)], EQ, 2.0),
                                    ([(0, 2.0), (1, 2.0)], EQ, 4.0),
                                    ([(0, 1.0)], GEQ, 0.5)]), {}),
            (simple_lp([1.0], [([(0, 1.0)], GEQ, 2.0),
                               ([(0, 1.0)], LEQ, 1.0)]), {}),
            (simple_lp([-1.0], []), {}),
            (simple_lp([-1.0], [([(0, 1.0)], LEQ, 1.0)]), {"max_iters": 0}),
            (eq_negative_rhs_lp(), {}),
            (beale_lp(), {}),
        ]
        seen = []
        for lp, kw in cases:
            got = outcome(solve_vertex, lp, **kw)
            assert got == outcome(reference_solve_vertex, lp, **kw)
            seen.append(got[0])
        assert seen == ["optimal", "infeasible", "unbounded",
                        "IterationLimitError", "optimal", "optimal"]
        assert solve_vertex(cases[0][0]).kept_rows == (0, 2)
        assert solve_vertex(beale_lp()).iterations > 200

    def test_bit_identical_on_pipeline_programs(self, monkeypatch):
        # every relaxation and opening program of a few small solves
        checked = []

        def compare(lp, **kw):
            got = outcome(solve_vertex, lp, **kw)
            assert got == outcome(reference_solve_vertex, lp, **kw)
            checked.append(got[0])
            return solve_vertex(lp, **kw)

        monkeypatch.setattr(fairrange.lp, "solve_vertex", compare)
        monkeypatch.setattr(fairrange.round, "solve_vertex", compare)
        for seed in range(4):
            inst = random_instance(seed, 14, 2, 2.0)
            solve_fair_range(inst, random_ranges(seed, inst, 3, 2))
        assert len(checked) >= 8 and set(checked) == {"optimal"}


# LinearProgram.matrix_geq and _std_form_fractions as they were before they
# read the rows as arrays, kept as the references for that change.
def loop_matrix_geq(lp):
    A = np.zeros((len(lp.rows), lp.num_vars))
    for i, row in enumerate(lp.rows):
        sgn = 1.0 if row.sense == GEQ else -1.0
        if row.sense == EQ:
            raise ValueError("equality row has no >= orientation")
        for j, a in row.coeffs:
            A[i, j] = sgn * a
    return A


def loop_std_form_fractions(lp):
    norm = _normalized_rows(lp)
    n = lp.num_vars
    slack: dict[int, int] = {}
    for i, (_, sense, _) in enumerate(norm):
        if sense != EQ:
            slack[i] = n + len(slack)
    cols = n + len(slack)
    A = [[Fraction(0)] * cols for _ in norm]
    b = []
    for i, (coeffs, sense, rhs) in enumerate(norm):
        for j, a in coeffs.items():
            A[i][j] = _exact(a)
        if sense == LEQ:
            A[i][slack[i]] = Fraction(1)
        elif sense == GEQ:
            A[i][slack[i]] = Fraction(-1)
        b.append(_exact(rhs))
    c = [_exact(v) for v in lp.objective] + [Fraction(0)] * len(slack)
    return A, b, c, [sense for _, sense, _ in norm]


def raised_or(f, lp):
    try:
        return f(lp)
    except ValueError as exc:
        return str(exc)


class TestRowReadersMatchLoops:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(small_programs())
    def test_matrix_geq(self, lp):
        got, want = raised_or(LinearProgram.matrix_geq, lp), raised_or(loop_matrix_geq, lp)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_matrix_geq_on_structured_programs(self, monkeypatch):
        lp, _ = tiny_structured()
        programs = [lp, scale_doubled(lp)]
        real = fairrange.round.structured_program

        def build(*args):
            out = real(*args)
            programs.append(out[0])
            return out

        monkeypatch.setattr(fairrange.pipeline, "structured_program", build)
        for seed in range(3):
            inst = random_instance(seed, 16, 3, 2.0)
            solve_fair_range(inst, random_ranges(seed, inst, 4, 3))
        assert len(programs) == 5
        for prog in programs:
            assert prog.matrix_geq().tobytes() == loop_matrix_geq(prog).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(small_programs())
    def test_std_form_fractions(self, lp):
        A, b, c, senses = _std_form_fractions(lp)
        want = loop_std_form_fractions(lp)
        assert (A, b, c, senses) == want
        assert all(type(v) is Fraction for row in A for v in row)


# The Row-based builders and scale_doubled as they were before the program
# held its rows as CSR arrays, kept as the references for that change: the
# bodies are verbatim except that their LinearProgram call became
# lp_from_rows.
def reference_build_fair_range_lp(dp: np.ndarray, w: Sequence[float], groups: Sequence[int],
                                  k: int, ranges: Sequence[tuple[int, int]],
                                  y_cap: float = 1.0) -> LinearProgram:
    dp = np.asarray(dp, dtype=float)
    nD, nF = dp.shape
    if len(w) != nD or len(groups) != nF:
        raise ValueError("shape mismatch")
    nx = nD * nF
    nv = nx + nF
    c = np.zeros(nv)
    for v in range(nD):
        c[v * nF:(v + 1) * nF] = w[v] * dp[v]
    rows: list[Row] = []
    kinds: list[tuple] = []
    for v in range(nD):
        rows.append(Row(tuple((v * nF + u, 1.0) for u in range(nF)), GEQ, 1.0))
        kinds.append(("cover", v))
    for gi, (a, b) in enumerate(ranges, start=1):
        members = tuple(nx + u for u in range(nF) if groups[u] == gi)
        rows.append(Row(tuple((j, 1.0) for j in members), GEQ, float(a)))
        kinds.append(("range_lower", gi))
        rows.append(Row(tuple((j, 1.0) for j in members), LEQ, float(b)))
        kinds.append(("range_upper", gi))
    rows.append(Row(tuple((nx + u, 1.0) for u in range(nF)), LEQ, float(k)))
    kinds.append(("card",))
    for v in range(nD):
        for u in range(nF):
            rows.append(Row(((v * nF + u, 1.0), (nx + u, -1.0)), LEQ, 0.0))
            kinds.append(("link", v, u))
    upper = np.full(nv, np.inf)
    upper[nx:] = y_cap
    return lp_from_rows(nv, c, rows, upper=upper, row_kinds=kinds)


def reference_build_structured_lp(dp: np.ndarray, w: Sequence[float], groups: Sequence[int],
                                  k: int, ranges: Sequence[tuple[int, int]],
                                  balls: Sequence[Sequence[int]],
                                  supers: Sequence[Sequence[int]],
                                  nn_dist_pow: Sequence[float] | None) -> tuple[LinearProgram, float]:
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
    rows: list[Row] = []
    kinds: list[tuple] = []
    for gi, (a, b) in enumerate(ranges, start=1):
        members = tuple(u for u in range(nF) if groups[u] == gi)
        rows.append(Row(tuple((u, 1.0) for u in members), GEQ, float(a)))
        kinds.append(("range_lower", gi))
        rows.append(Row(tuple((u, 1.0) for u in members), LEQ, float(b)))
        kinds.append(("range_upper", gi))
    rows.append(Row(tuple((u, 1.0) for u in range(nF)), LEQ, float(k)))
    kinds.append(("card",))
    ball_need = 1.0 if single else 0.5
    for v in range(nD):
        rows.append(Row(tuple((u, 1.0) for u in balls[v]), GEQ, ball_need))
        kinds.append(("ball", v))
    for v in range(nD):
        rows.append(Row(tuple((u, 1.0) for u in supers[v]), LEQ, 1.0))
        kinds.append(("superball", v))
    upper = np.ones(nF)
    return lp_from_rows(nF, c, rows, upper=upper, row_kinds=kinds), constant


def reference_scale_doubled(lp: LinearProgram) -> LinearProgram:
    rows = [Row(r.coeffs, r.sense, 2.0 * r.rhs) for r in lp.rows]
    upper = None if lp.upper is None else 2.0 * lp.upper
    return lp_from_rows(lp.num_vars, lp.objective.copy(), rows, upper=upper,
                        row_kinds=lp.row_kinds)


PROGRAM_ARRAYS = ("objective", "indptr", "indices", "data", "rhs", "geq", "eq", "row_of")


def assert_same_program(got, want):
    """Equal size, arrays (dtype and bits), upper bounds and row tags."""
    assert got.num_vars == want.num_vars
    for name in PROGRAM_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert (got.upper is None) == (want.upper is None)
    if got.upper is not None:
        assert got.upper.tobytes() == want.upper.tobytes()
    assert got.row_kinds == want.row_kinds


@st.composite
def builder_inputs(draw):
    """Builder arguments: groups that may have no facility, a single
    survivor, and balls and super balls that may be empty."""
    nD = draw(st.integers(1, 4))
    nF = draw(st.integers(1, 7))
    ell = draw(st.integers(1, 3))
    dist = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)
    dp = np.array([[draw(dist) for _ in range(nF)] for _ in range(nD)])
    w = [draw(st.sampled_from([1.0, 2.0, 3.5])) for _ in range(nD)]
    groups = [draw(st.integers(1, ell)) for _ in range(nF)]
    k = draw(st.integers(1, nF))
    ranges = tuple(sorted((draw(st.integers(0, 3)), draw(st.integers(0, 3))))
                   for _ in range(ell))
    owner = [draw(st.integers(-1, nD - 1)) for _ in range(nF)]
    supers = [[u for u in range(nF) if owner[u] == v] for v in range(nD)]
    balls = [[u for u in s if draw(st.booleans())] for s in supers]
    if draw(st.booleans()):
        supers = [np.array(s, dtype=int) for s in supers]
        balls = [np.array(b, dtype=int) for b in balls]
    nn = None if nD == 1 and draw(st.booleans()) else [draw(dist) for _ in range(nD)]
    return dp, w, groups, k, ranges, balls, supers, nn


class TestArrayBuildersMatchRows:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(builder_inputs())
    def test_bit_identical_to_row_builders(self, args):
        dp, w, groups, k, ranges, balls, supers, nn = args
        assert_same_program(build_fair_range_lp(dp, w, groups, k, ranges),
                            reference_build_fair_range_lp(dp, w, groups, k, ranges))
        lp, constant = build_structured_lp(*args)
        want, want_constant = reference_build_structured_lp(*args)
        assert_same_program(lp, want)
        assert struct.pack("d", constant) == struct.pack("d", want_constant)
        assert_same_program(scale_doubled(lp), reference_scale_doubled(lp))

    def test_bit_identical_on_pipeline_fronts(self, monkeypatch):
        seen = []

        def checked(new, ref):
            def build(*args, **kw):
                out = new(*args, **kw)
                want = ref(*args, **kw)
                pair = (out[0], want[0]) if isinstance(out, tuple) else (out, want)
                assert_same_program(*pair)
                seen.append(new.__name__)
                return out
            return build

        monkeypatch.setattr(fairrange.pipeline, "build_fair_range_lp",
                            checked(build_fair_range_lp, reference_build_fair_range_lp))
        monkeypatch.setattr(fairrange.round, "build_structured_lp",
                            checked(build_structured_lp, reference_build_structured_lp))
        monkeypatch.setattr(fairrange.round, "scale_doubled",
                            checked(scale_doubled, reference_scale_doubled))
        for seed in range(6):
            inst = random_instance(seed, 12 + seed, 2 + seed % 2, 1.0 + seed % 3)
            solve_fair_range(inst, random_ranges(seed, inst, 3, 2 + seed % 2))
        assert seen.count("build_fair_range_lp") == 6
        assert seen.count("build_structured_lp") == seen.count("scale_doubled") >= 5

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_programs())
    def test_rows_round_trip(self, lp):
        again = lp_from_rows(lp.num_vars, lp.objective, lp.rows, lp.upper, lp.row_kinds)
        assert_same_program(again, lp)
        assert repr(again.rows) == repr(lp.rows)

    def test_rows_view_of_a_built_program(self):
        lp, _ = tiny_structured()
        assert lp.rows[0] == Row(((0, 1.0), (2, 1.0)), GEQ, 0.0)
        assert lp.rows[-1] == Row(((2, 1.0), (3, 1.0)), LEQ, 1.0)
        assert len(lp.rows) == len(lp.rhs)

    @pytest.mark.parametrize("change", [
        dict(indptr=np.array([0, 1], dtype=np.intp)),
        dict(indices=np.array([0], dtype=np.intp)),
        dict(data=np.ones(3)),
        dict(indices=np.array([0, 1, 1], dtype=np.intp), data=np.ones(3)),
        dict(rhs=np.zeros(3)),
        dict(geq=np.zeros(1, dtype=bool)),
        dict(eq=np.zeros(3, dtype=bool)),
    ])
    def test_mismatched_row_arrays_raise(self, change):
        base = dict(indptr=np.array([0, 1, 2], dtype=np.intp),
                    indices=np.array([0, 1], dtype=np.intp), data=np.ones(2),
                    rhs=np.ones(2), geq=np.zeros(2, dtype=bool),
                    eq=np.zeros(2, dtype=bool))
        LinearProgram(2, np.zeros(2), **base)
        with pytest.raises(ValueError, match="row array length mismatch"):
            LinearProgram(2, np.zeros(2), **{**base, **change})
