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
from unittest import mock

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
    MAX_ITERS,
    PIVOT_TOL,
    LinearProgram,
    Row,
    SimplexResult,
    _range_card_rows,
    _solve_scipy,
    _unit_rows,
    _violation,
    assignment_core,
    build_fair_range_lp,
    lagrangian_bound,
    solve_lp,
    solve_vertex,
    split_fair_solution,
)
from fairrange.pipeline import random_instance, random_ranges, solve_fair_range

import fairrange.round
from fairrange.round import solve_half_integral
from conftest import (assert_same_program, exact_opening_costs, groups_of, lp_from_rows,
                      opening_args, opening_program, reference_build_structured_lp,
                      reference_opening_lp, same_opening_program, solve_stages)
from oracles import (_exact, _gh_constructive, _gh_valid, _std_form_fractions,
                     assignment_row_kinds, bareiss_determinant,
                     enumerate_vertices_min, ghouila_houri_check, matrix_geq,
                     recertify_rational, structured_column_profile, structured_row_kinds,
                     submatrix_determinant_check)


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
        # x0 + x1 = 2 and x0 = x1, each as a >= and a <= row
        lp = simple_lp([1.0, 1.0], [
            ([(0, 1.0), (1, 1.0)], GEQ, 2.0),
            ([(0, 1.0), (1, 1.0)], LEQ, 2.0),
            ([(0, 1.0), (1, -1.0)], GEQ, 0.0),
            ([(0, 1.0), (1, -1.0)], LEQ, 0.0),
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

    def test_negative_rhs_rejected(self):
        # neither clustering program has one, so no solver normalizes it
        with pytest.raises(ValueError, match="negative right-hand side"):
            simple_lp([1.0], [([(0, 1.0)], GEQ, -1.0)])
        with pytest.raises(ValueError, match="or upper bound"):
            simple_lp([1.0], [([(0, 1.0)], LEQ, 1.0)], ub=[-1.0])
        lp = simple_lp([1.0], [([(0, -1.0)], LEQ, 1.0)])
        assert solve_vertex(lp).objective == 0.0

    def test_non_finite_objective_rejected(self):
        # no builder writes one (COST_CAP bounds every cost); unchecked, a
        # nan cost stalled into Bland's rule and answered "optimal" at nan
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="objective of column 1 is not finite"):
                simple_lp([0.0, bad], [([(1, 1.0)], LEQ, 1.0)])

    def test_programs_without_variables(self):
        # each row reads 0 against its right-hand side
        for rows, status in (([], "optimal"), ([([], GEQ, 1.0)], "infeasible"),
                             ([([], LEQ, 1.0)], "optimal"), ([([], GEQ, 0.0)], "optimal")):
            res = solve_vertex(simple_lp([], rows))
            assert res.status == status
            if status == "optimal":
                assert res.x.shape == (0,) and res.objective == 0.0

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

    def test_bland_takes_over_after_max_200_m_steepest_pivots(self, monkeypatch):
        # every row is <=, so phase 2 is the one phase, and it takes 219
        # pivots; the two rules pick different columns at pivots 201 and 202
        rng = np.random.default_rng(4)
        A = rng.integers(1, 10, (80, 200)).astype(float)
        lp = simple_lp(-rng.integers(1, 10, 200).astype(float),
                       [(list(enumerate(row)), LEQ, 100.0) for row in A])
        picks = []          # (entering, steepest, first improving) per pivot
        pivot = fairrange.lp._pivot

        def spy(T, r, j):
            z = T[-1, :-1]  # no artificial columns, so every column is priced
            picks.append((j, int(z.argmin()), int(np.flatnonzero(z < -PIVOT_TOL)[0])))
            pivot(T, r, j)

        monkeypatch.setattr(fairrange.lp, "_pivot", spy)
        assert solve_vertex(lp).status == "optimal"
        last_steepest = max(200, len(A)) + 1
        entering, steepest, first = map(list, zip(*picks))
        for t in (last_steepest, last_steepest + 1):
            assert steepest[t - 1] != first[t - 1]
        assert entering == steepest[:last_steepest] + first[last_steepest:]
        assert len(picks) == 219

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(fairrange.lp, "MAX_ITERS", 0)
        lp = simple_lp([-1.0], [([(0, 1.0)], LEQ, 1.0)])
        with pytest.raises(IterationLimitError):
            solve_vertex(lp)

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
    # facilities at 0, 1, 2 with groups 1, 1, 2; one unit client at 1
    LINE_DP = np.array([[1.0, 0.0, 1.0]])

    def build_line(self, k, ranges):
        return build_fair_range_lp(self.LINE_DP, [1.0], [1, 1, 2], k, ranges)

    def test_row_layout(self):
        lp = self.build_line(1, ((0, 1), (0, 1)))
        assert lp.num_vars == 6
        assert len(lp.rows) == 1 + 4 + 1 + 3
        kinds = [k[0] for k in assignment_row_kinds(lp, 1)]
        assert kinds == ["cover", "range_lower", "range_upper", "range_lower",
                         "range_upper", "card", "link", "link", "link"]
        assert np.all(lp.upper[:3] == np.inf)
        assert np.all(lp.upper[3:] == 1.0)

    def test_free_optimum_is_zero(self):
        lp = self.build_line(1, ((0, 1), (0, 1)))
        res = solve_vertex(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.0, abs=1e-9)
        x, y = split_fair_solution(res.x, self.LINE_DP)
        assert float(x.sum()) == pytest.approx(1.0, abs=1e-7)

    def test_forced_group_costs_one(self):
        lp = self.build_line(1, ((0, 0), (1, 1)))
        res = solve_vertex(lp)
        assert res.objective == pytest.approx(1.0, abs=1e-9)
        _, y = split_fair_solution(res.x, self.LINE_DP)
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


def tiny_structured_args(split=()):
    dp = np.array([[1.0, 4.0, 9.0, 25.0], [49.0, 16.0, 4.0, 1.0]])
    return (dp, [2.0, 3.0], [1, 2, 1, 2], 2, ((0, 2), (0, 2)), [[0], [3]], [[0, 1], [2, 3]],
            [9.0, 9.0], [0.5, 0.5], list(split))


def tiny_structured():
    """The reference opening program of tiny_structured_args(), merged."""
    return reference_opening_lp(tiny_structured_args())


def tiny_split():
    """tiny_structured with facility 1 (group 2, first territory) and
    facility 2 (group 1, second territory) split."""
    return reference_opening_lp(tiny_structured_args(split=[1, 2]))


def column_costs(program):
    return [cost for *_, cost in program.arcs[:program.num_vars]]


def proportional(got, want):
    """got is want times one positive factor."""
    return all(Fraction(g) * want[0] == Fraction(want[j]) * got[0] for j, g in enumerate(got)) \
        and (got[0] > 0) == (want[0] > 0)


class TestStructuredBuilder:
    """structured_program's network against the reference builder's rows."""

    def test_spare_columns(self):
        args = tiny_structured_args(split=[1, 2])
        program, members = opening_program(*args)
        assert [c.tolist() for c in members] == [[0], [1], [2], [3], [1], [2]]
        assert column_costs(program)[4:] == [0, 0]
        assert [upper for _, _, _, upper, _ in program.arcs[:6]] == [2] * 6
        # the card row, the group windows, then the split pairs: a spare
        # sits in its group's window and the card row, and in its split
        # pair beside its own column
        rows = program.rows
        assert rows[:5] == [tuple(range(6)), (0, 2, 5), (1, 3, 4), (1, 4), (2, 5)]
        same_opening_program(args)
        assert structured_column_profile(tiny_split()[0]) == []

    def test_objective_terms(self):
        program, members = opening_program(*tiny_structured_args())
        assert [c.tolist() for c in members] == [[0], [1], [2], [3]]
        assert proportional(column_costs(program), [-16, -10, -15, -24])

    def test_row_layout(self):
        program, _ = opening_program(*tiny_structured_args())
        # card, two windows, two balls, two territories
        assert program.rows == [(0, 1, 2, 3), (0, 2), (1, 3), (0,), (3,), (0, 1), (2, 3)]
        balls = [arc for arc in program.arcs if arc[2] > 0]
        assert [arc[2:4] for arc in balls] == [(1, 2), (1, 2)]

    def test_optimum_matches_hand_value(self):
        args = tiny_structured_args()
        half = solve_half_integral(*opening_program(*args))
        cost = sum(c * Fraction(float(y)) for c, y in zip(exact_opening_costs(args), half.y_own))
        # plus the constant the objective leaves out, 2 * 9 + 3 * 9
        assert cost + 45 == 5

    def test_single_location_mode(self):
        # no peer: base cost 0 and a full unit in the ball
        args = (np.array([[1.0, 2.0, 3.0]]), [2.0], [1, 1, 1], 1, ((0, 3),),
                [[0, 1]], [[0, 1, 2]], [0.0], [1.0], [])
        program, _ = opening_program(*args)
        assert proportional(column_costs(program), [2, 4, 6])
        assert [arc[2:4] for arc in program.arcs if arc[2] > 0] == [(2, 2)]
        same_opening_program(args)

    def test_no_locations(self):
        # no survivor: only the card row and the windows, each group one free column
        program, members = opening_program(
            np.zeros((0, 3)), [], [1, 2, 1], 2, ((1, 2), (0, 1)), [], [], [], [], [])
        assert [c.tolist() for c in members] == [[0, 2], [1]]
        assert [arc[3:] for arc in program.arcs[:2]] == [(4, 0), (2, 0)]
        assert program.rows == [(0, 1), (0,), (1,)]

    def test_scale_doubled(self):
        # the network is the doubled program: its bounds are twice the
        # reference's right-hand sides and upper bounds
        for split in ((), (1, 2)):
            program, _ = opening_program(*tiny_structured_args(split))
            lp, _ = reference_opening_lp(tiny_structured_args(split))
            assert [arc[3] for arc in program.arcs[:program.num_vars]] == \
                (2 * lp.upper).astype(int).tolist()
            windows = [arc[2:4] for arc in program.arcs[program.num_vars + 1:][:2]]
            assert windows == [(0, 4), (0, 4)] and program.arcs[program.num_vars][3] == 4
            same_opening_program(tiny_structured_args(split))

    def test_column_profile_clean(self):
        lp, _ = tiny_structured()
        assert structured_column_profile(lp) == []


class TestUnimodularity:
    def test_constructive_signing_all_subsets(self):
        for build in (tiny_structured, tiny_split):
            lp, _ = build()
            A = matrix_geq(lp).astype(int)
            kinds = structured_row_kinds(lp)
            nrows = len(lp.rows)
            for size in range(1, nrows + 1):
                for subset in itertools.combinations(range(nrows), size):
                    signs = ghouila_houri_check(A, subset, kinds)
                    assert signs is not None
                    total = np.array(signs) @ A[list(subset)]
                    assert np.all(np.abs(total) <= 1)

    def test_constructive_signing_covers_split_rows(self):
        # the tagged signing alone, without the exhaustive search behind it
        lp, _ = tiny_split()
        A = matrix_geq(lp).astype(int)
        kinds = structured_row_kinds(lp)
        nrows = len(lp.rows)
        for size in range(1, nrows + 1):
            for subset in itertools.combinations(range(nrows), size):
                signs = _gh_constructive(A, list(subset), kinds)
                assert signs is not None and _gh_valid(A, list(subset), signs)

    def test_exhaustive_matches_constructive(self):
        lp, _ = tiny_structured()
        A = matrix_geq(lp).astype(int)
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
        A = matrix_geq(lp)
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
        res = solve_vertex(reference_scale_doubled(lp))
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
# arrays, the reference for loop_violation and reference_solve_vertex.
def _normalized_rows(lp: LinearProgram) -> list[tuple[dict, str, float]]:
    """lp rows plus bound rows.

    The fixed ordering here (lp.rows first, then one bound row per finite
    upper bound in variable order) is shared with the rational recheck.
    """
    out = [(dict(row.coeffs), row.sense, row.rhs) for row in lp.rows]
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
        else:
            worst = max(worst, (rhs - lhs) / scale)
    if len(x):
        worst = max(worst, float(-(x.min(initial=0.0))))
    return worst


def mixed_rows_lp():
    # min x0 + 2 x1 + 3 x2 with x0 + x1 + x2 >= 3, x1 >= x0 + 1,
    # x0 + x1 <= 3 and x2 <= 1; optimum (1, 2, 0), tight on the <= row
    return simple_lp([1.0, 2.0, 3.0], [
        ([(0, 1.0), (1, 1.0), (2, 1.0)], GEQ, 3.0),
        ([(0, -1.0), (1, 1.0)], GEQ, 1.0),
        ([(0, 1.0), (1, 1.0)], LEQ, 3.0),
        ([(2, 1.0)], LEQ, 1.0),
    ], ub=[np.inf, np.inf, 5.0])


def random_fair_range_args(rng, nD, nF, p):
    """dp, w, groups, k and ranges of a planar assignment LP, three groups."""
    pts = rng.uniform(0.0, 10.0, size=(nD + nF, 2))
    dp = np.linalg.norm(pts[:nD, None] - pts[None, nD:], axis=2) ** p
    groups = [1 + u % 3 for u in range(nF)]
    return dp, rng.uniform(1.0, 3.0, size=nD), groups, 3, ((0, 2), (1, 2), (0, 1))


def random_fair_range_lp(rng, nD, nF, p):
    return build_fair_range_lp(*random_fair_range_args(rng, nD, nF, p))


def linprog_reference(lp, presolve=True):
    """linprog on the program written with every row as a <= row, the >=
    rows negated: a formulation of its own, not the arrays _solve_scipy
    hands HiGHS (the program's rows, a >= row as a row lower bound).
    Without presolve it gives _solve_scipy's x, duals (its <= row
    marginals, negated) and iteration count bit for bit."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    sign = np.where(lp.geq, -1.0, 1.0)
    A = csr_array((lp.data * sign[lp.row_of], lp.indices, lp.indptr),
                  shape=(len(lp.rhs), lp.num_vars))
    return linprog(lp.objective, A_ub=A, b_ub=sign * lp.rhs,
                   bounds=np.column_stack((np.zeros(lp.num_vars), lp.upper)),
                   method="highs", options={"presolve": presolve})


def assert_matches_unpresolved(res, ref):
    """x, duals and iterations of _solve_scipy equal linprog_reference's
    without presolve, bit for bit."""
    assert res.x.tobytes() == np.maximum(ref.x, 0.0).tobytes()
    assert res.duals.tobytes() == np.maximum(-ref.ineqlin.marginals, 0.0).tobytes()
    assert res.iterations == ref.nit


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

    def test_perturbed_backend_answer_is_rejected(self, monkeypatch):
        from scipy.optimize._highspy import _core

        class Perturbed(_core._Highs):
            def getSolution(self):
                sol = super().getSolution()
                sol.col_value = [v + 1e-3 for v in sol.col_value]
                return sol

        monkeypatch.setattr(_core, "_Highs", Perturbed)
        with pytest.raises(SimplexError, match="residual"):
            _solve_scipy(mixed_rows_lp())

    def test_refused_model_raises(self, monkeypatch):
        from scipy.optimize._highspy import _core

        class Refusing(_core._Highs):
            def passModel(self, *args):
                return _core.HighsStatus.kError

        monkeypatch.setattr(_core, "_Highs", Refusing)
        with pytest.raises(SimplexError, match="refused the model"):
            _solve_scipy(mixed_rows_lp())

    @pytest.mark.parametrize("nD,nF,p", list(itertools.product((3, 10), (200, 300), (1, 2))))
    def test_direct_call_matches_linprog_bit_for_bit(self, rng, nD, nF, p):
        lp = random_fair_range_lp(rng, nD, nF, p)
        assert lp.num_vars > HIGHS_CUTOVER
        res = _solve_scipy(lp)
        assert res.status == "optimal"
        unpresolved = linprog_reference(lp, presolve=False)
        assert_matches_unpresolved(res, unpresolved)
        assert res.objective == pytest.approx(linprog_reference(lp).fun, rel=1e-9)

    def test_mixed_rows_match_linprog_bit_for_bit(self, rng):
        # <= and >= rows interleaved
        lps = [mixed_rows_lp()]
        for _ in range(20):
            n = 8
            rows = [([(j, float(rng.integers(-2, 4))) for j in range(n)],
                     [GEQ, LEQ][t % 2], float(rng.integers(0, 6))) for t in range(5)]
            lps.append(simple_lp(rng.uniform(0.5, 2.0, size=n), rows, ub=[3.0] * n))
        optimal = 0
        for lp in lps:
            res, ref = _solve_scipy(lp), linprog_reference(lp, presolve=False)
            assert res.status == {0: "optimal", 2: "infeasible"}[ref.status]
            if res.status == "optimal":
                optimal += 1
                assert_matches_unpresolved(res, ref)
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
                rows.append((coeffs, [LEQ, GEQ][int(rng.integers(2))],
                             abs(float(rng.normal()))))
            ub = np.where(rng.random(n) < 0.5, np.inf, np.abs(rng.normal(size=n)))
            lp = simple_lp(rng.normal(size=n), rows,
                           ub=None if trial % 3 == 0 else ub)
            x = rng.normal(size=n)
            assert _violation(lp, x) == loop_violation(lp, x)


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
# kept as the oracle for that merge.  Only its equality-row branches and
# its kept-row list went with the program's equality rows; the row drop
# stays, and every row having a slack keeps it from being taken.
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
    n_slack = m
    slack_of_row = {i: n + i for i in range(m)}
    art_rows = [i for i, (_, sense, rhs) in enumerate(norm) if sense == GEQ]
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
    return SimplexResult("optimal", x, obj, tuple(basis), iterations=iters,
                         max_violation=viol)


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
            res.basis, res.iterations, res.backend,
            struct.pack("<d", res.max_violation))


COEFFS = st.one_of(st.integers(-3, 3).map(float),
                   st.sampled_from([0.5, -1.5, 2.25, 1.0 / 3.0, -0.1]))


@st.composite
def small_programs(draw):
    """Dense-simplex inputs of every row shape: <= and >= rows with
    nonnegative right-hand sides, unit or mixed coefficients, finite and
    infinite upper bounds, >= rows repeated at a multiple (redundant, so
    phase 1 can end with an artificial at zero to drive out), and
    infeasible or unbounded programs among them."""
    n = draw(st.integers(1, 6))
    unit = draw(st.booleans())      # the pipeline's rows, where ratios often tie
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        cols = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        coeffs = [(j, 1.0 if unit else draw(COEFFS)) for j in cols]
        sense = draw(st.sampled_from([LEQ, LEQ, GEQ]))
        rhs = float(draw(st.integers(0, 8)))
        rows.append((coeffs, sense, rhs))
        if sense == GEQ and draw(st.booleans()):
            f = draw(st.sampled_from([1.0, 2.0]))
            rows.append(([(j, f * a) for j, a in coeffs], GEQ, f * rhs))
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
        with mock.patch.object(fairrange.lp, "MAX_ITERS", max_iters):
            got = outcome(solve_vertex, lp)
        assert got == outcome(reference_solve_vertex, lp, max_iters=max_iters)

    def test_bit_identical_on_structured_programs(self):
        lp, _ = tiny_structured()
        for prog in (lp, reference_scale_doubled(lp),
                     reference_scale_doubled(reference_scale_doubled(lp))):
            assert outcome(solve_vertex, prog) == outcome(reference_solve_vertex, prog)

    def test_bit_identical_on_every_exit(self):
        # named programs that repeat a row, are infeasible, are unbounded,
        # hit the pivot cap, mix <= and >= rows, and stall long enough to
        # switch to Bland's rule
        cases = [
            (simple_lp([1.0, 1.0], [([(0, 1.0), (1, 1.0)], GEQ, 2.0),
                                    ([(0, 2.0), (1, 2.0)], GEQ, 4.0),
                                    ([(0, 1.0)], GEQ, 0.5)]), MAX_ITERS),
            (simple_lp([1.0], [([(0, 1.0)], GEQ, 2.0),
                               ([(0, 1.0)], LEQ, 1.0)]), MAX_ITERS),
            (simple_lp([-1.0], []), MAX_ITERS),
            (simple_lp([-1.0], [([(0, 1.0)], LEQ, 1.0)]), 0),
            (mixed_rows_lp(), MAX_ITERS),
            (beale_lp(), MAX_ITERS),
        ]
        seen = []
        for lp, max_iters in cases:
            with mock.patch.object(fairrange.lp, "MAX_ITERS", max_iters):
                got = outcome(solve_vertex, lp)
            assert got == outcome(reference_solve_vertex, lp, max_iters=max_iters)
            seen.append(got[0])
        assert seen == ["optimal", "infeasible", "unbounded",
                        "IterationLimitError", "optimal", "optimal"]
        assert len(solve_vertex(cases[0][0]).basis) == 3
        assert solve_vertex(beale_lp()).iterations > 200

    def test_ratio_tie_goes_to_the_smallest_basic_index(self):
        # x0 enters first and becomes basic in row 1; then x1's ratio test
        # ties row 0 (basic slack, column 2) with row 1 (basic x0, column
        # 0), and the tie goes to row 1
        lp = simple_lp([-2.0, -1.5], [([(1, 1.0)], LEQ, 2.0),
                                      ([(0, 1.0), (1, 0.5)], LEQ, 1.0)])
        got = outcome(solve_vertex, lp)
        assert got == outcome(reference_solve_vertex, lp)
        res = solve_vertex(lp)
        assert res.basis == (2, 1) and res.x.tolist() == [0.0, 2.0]

    def test_bit_identical_on_pipeline_programs(self, monkeypatch):
        # every relaxation of solves in the benchmark's
        # small-mix family: p 1-3, two or three groups, n 12 and 18
        checked = []

        def compare(lp):
            got = outcome(solve_vertex, lp)
            assert got == outcome(reference_solve_vertex, lp)
            checked.append(got[0])
            res = solve_vertex(lp)
            assert all(type(b) is int for b in res.basis)
            return res

        monkeypatch.setattr(fairrange.lp, "solve_vertex", compare)
        for p, ell, n, seed in itertools.product((1.0, 2.0, 3.0), (2, 3), (12, 18), range(3)):
            inst = random_instance(seed, n, ell, p)
            solve_fair_range(inst, random_ranges(seed, inst, 2 + seed, ell))
        assert len(checked) == 36 and set(checked) == {"optimal"}


# matrix_geq and _std_form_fractions as they were before they read the rows
# as arrays, kept as the references for that change.
def loop_matrix_geq(lp):
    A = np.zeros((len(lp.rows), lp.num_vars))
    for i, row in enumerate(lp.rows):
        sgn = 1.0 if row.sense == GEQ else -1.0
        for j, a in row.coeffs:
            A[i, j] = sgn * a
    return A


def loop_std_form_fractions(lp):
    norm = _normalized_rows(lp)
    n = lp.num_vars
    slack = {i: n + i for i in range(len(norm))}
    cols = n + len(slack)
    A = [[Fraction(0)] * cols for _ in norm]
    b = []
    for i, (coeffs, sense, rhs) in enumerate(norm):
        for j, a in coeffs.items():
            A[i][j] = _exact(a)
        A[i][slack[i]] = Fraction(1 if sense == LEQ else -1)
        b.append(_exact(rhs))
    c = [_exact(v) for v in lp.objective] + [Fraction(0)] * len(slack)
    return A, b, c, [sense for _, sense, _ in norm]


class TestRowReadersMatchLoops:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(small_programs())
    def test_matrix_geq(self, lp):
        got, want = matrix_geq(lp), loop_matrix_geq(lp)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_matrix_geq_on_structured_programs(self, monkeypatch):
        lp, _ = tiny_structured()
        programs = [lp, reference_scale_doubled(lp)]
        real = fairrange.round.structured_program

        def build(ss, groups, rc):
            programs.append(reference_opening_lp(opening_args(ss, groups, rc))[0])
            return real(ss, groups, rc)

        monkeypatch.setattr(fairrange.pipeline, "structured_program", build)
        for seed in range(3):
            inst = random_instance(seed, 16, 3, 2.0)
            solve_fair_range(inst, random_ranges(seed, inst, 4, 3))
        assert len(programs) == 5
        for prog in programs:
            assert matrix_geq(prog).tobytes() == loop_matrix_geq(prog).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(small_programs())
    def test_std_form_fractions(self, lp):
        A, b, c, senses = _std_form_fractions(lp)
        want = loop_std_form_fractions(lp)
        assert (A, b, c, senses) == want
        assert all(type(v) is Fraction for row in A for v in row)


# The Row-based assignment builder and scale_doubled as they were before the
# program held its rows as CSR arrays, kept as the references for that
# change (the structured builder's reference is in conftest): the bodies are
# verbatim except that their LinearProgram call became lp_from_rows, the
# y cap, a parameter no caller set, became the 1 it always was, and the
# assignment builder returns the row tags the program held then beside it.
def reference_build_fair_range_lp(dp: np.ndarray, w: Sequence[float], groups: Sequence[int],
                                  k: int, ranges: Sequence[tuple[int, int]]
                                  ) -> tuple[LinearProgram, list[tuple]]:
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
    upper[nx:] = 1.0
    return lp_from_rows(nv, c, rows, upper=upper), kinds


def reference_scale_doubled(lp: LinearProgram) -> LinearProgram:
    rows = [Row(r.coeffs, r.sense, 2.0 * r.rhs) for r in lp.rows]
    return lp_from_rows(lp.num_vars, lp.objective.copy(), rows, upper=2.0 * lp.upper)


def same_assignment_program(args):
    """build_fair_range_lp(*args) against the Row-based reference: arrays
    bit for bit, and the row tags the oracles rebuild against the
    reference's."""
    lp = build_fair_range_lp(*args)
    want, kinds = reference_build_fair_range_lp(*args)
    assert_same_program(lp, want)
    assert assignment_row_kinds(lp, len(args[1])) == kinds


@st.composite
def builder_inputs(draw):
    """Builder arguments: groups that may have no facility, no survivor or
    a single one, balls and super balls that may be empty, and some super
    ball facilities split."""
    nD = draw(st.integers(0, 4))
    nF = draw(st.integers(1, 7))
    ell = draw(st.integers(1, 3))
    dist = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)
    dp = np.array([[draw(dist) for _ in range(nF)] for _ in range(nD)]).reshape(nD, nF)
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
    if nD == 1 and draw(st.booleans()):     # no peer
        base, need = [0.0], [1.0]
    else:
        base, need = [draw(dist) for _ in range(nD)], [0.5] * nD
    split = [u for u in range(nF) if owner[u] >= 0 and draw(st.booleans())]
    return dp, w, groups, k, ranges, balls, supers, base, need, split


class TestArrayBuildersMatchRows:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(builder_inputs())
    def test_bit_identical_to_row_builders(self, args):
        same_assignment_program(args[:5])
        same_opening_program(args)

    def test_bit_identical_on_solver_fronts(self, monkeypatch):
        seen = []

        def assignment(*args):
            same_assignment_program(args)
            seen.append("build_fair_range_lp")
            return build_fair_range_lp(*args)

        def opening(ss, groups, rc, _build=fairrange.round.structured_program):
            args = opening_args(ss, groups, rc)
            same_opening_program(args)
            seen.append("structured_program")
            program, members = _build(ss, groups, rc)
            again, again_members = opening_program(*args)
            assert program.arcs == again.arcs
            assert [c.tolist() for c in members] == [c.tolist() for c in again_members]
            return program, members

        monkeypatch.setattr(fairrange.pipeline, "build_fair_range_lp", assignment)
        monkeypatch.setattr(fairrange.pipeline, "structured_program", opening)
        for seed in range(6):
            inst = random_instance(seed, 12 + seed, 2 + seed % 2, 1.0 + seed % 3)
            solve_fair_range(inst, random_ranges(seed, inst, 3, 2 + seed % 2))
        assert seen.count("build_fair_range_lp") == 6
        assert seen.count("structured_program") >= 5

    def test_rebuilt_row_tags_match_the_reference_builders_on_real_solves(self):
        # the Ghouila-Houri evidence reads these tags against the rows of
        # the programs a solve builds
        for seed in range(4):
            inst = random_instance(seed, 14, 2 + seed % 2, 1.0 + seed % 3)
            rc = random_ranges(seed, inst, 3, 2 + seed % 2)
            out = solve_stages(inst, rc, "structured_program")
            red, ss, groups = out["reduce_locations"], out["enforce_structure"], groups_of(inst)
            _, kinds = reference_build_fair_range_lp(red.fac_dist_p, red.weights, groups,
                                                     rc.k, rc.ranges)
            assert assignment_row_kinds(out["build_fair_range_lp"], len(red.weights)) == kinds
            args = opening_args(ss, groups, rc)
            _, _, kinds = reference_build_structured_lp(*args)
            assert structured_row_kinds(reference_opening_lp(args)[0]) == kinds
            assert kinds.count(("card",)) == 1 and ("ball", 1) in kinds
            # the network holds a group's two window rows as one set
            assert len(out["structured_program"][0].rows) == len(kinds) - len(rc.ranges)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_programs())
    def test_rows_round_trip(self, lp):
        again = lp_from_rows(lp.num_vars, lp.objective, lp.rows, lp.upper)
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
        dict(indptr=np.array([0, 1, 3], dtype=np.intp)),
    ])
    def test_mismatched_row_arrays_raise(self, change):
        base = dict(indptr=np.array([0, 1, 2], dtype=np.intp),
                    indices=np.array([0, 1], dtype=np.intp), data=np.ones(2),
                    rhs=np.ones(2), geq=np.zeros(2, dtype=bool), upper=np.ones(2))
        LinearProgram(2, np.zeros(2), **base)
        with pytest.raises(ValueError, match="row array length mismatch"):
            LinearProgram(2, np.zeros(2), **{**base, **change})


# build_fair_range_lp as it was before it read an inf entry of dp as "no
# column", kept as the reference for the all-finite tables it still builds
# bit for bit: verbatim except for its name.
def reference_array_build_fair_range_lp(dp: np.ndarray, w: Sequence[float],
                                        groups: Sequence[int], k: int,
                                        ranges: Sequence[tuple[int, int]]) -> LinearProgram:
    dp = np.asarray(dp, dtype=float)
    nD, nF = dp.shape
    if len(w) != nD or len(groups) != nF:
        raise ValueError("shape mismatch")
    nx = nD * nF
    nv = nx + nF
    c = np.zeros(nv)
    c[:nx] = (np.asarray(w, dtype=float)[:, None] * dp).ravel()
    sets, rhs, geq = _range_card_rows(groups, k, ranges, nx)
    # cover row v holds x[v, :]
    indptr, indices = _unit_rows([*np.arange(nx).reshape(nD, nF), *sets])
    # then the link rows x[v,u] - y[u] <= 0, two entries each
    link = np.empty((nx, 2), dtype=np.intp)
    link[:, 0] = np.arange(nx)
    link[:, 1] = nx + link[:, 0] % nF
    data = np.ones(len(indices) + 2 * nx)
    data[len(indices) + 1::2] = -1.0
    upper = np.full(nv, np.inf)
    upper[nx:] = 1.0
    return LinearProgram(
        nv, c, np.concatenate((indptr, indptr[-1] + 2 * np.arange(1, nx + 1))),
        np.concatenate((indices, link.ravel())), data,
        np.concatenate(([1.0] * nD + rhs, np.zeros(nx))),
        np.concatenate(([True] * nD + geq, np.zeros(nx, dtype=bool))), upper)


def without_pairs(lp: LinearProgram, dp: np.ndarray) -> LinearProgram:
    """The program lp, built from an all-finite table shaped like dp, with
    the x column and the link row of every pair that is inf in dp taken
    out and the columns after each renumbered down."""
    nD, nF = dp.shape
    drop = np.isinf(dp).ravel()
    kept = np.flatnonzero(np.concatenate((~drop, np.ones(nF, dtype=bool))))
    new_of = np.full(lp.num_vars, -1)
    new_of[kept] = np.arange(len(kept))
    link_rows = set((len(lp.rhs) - nD * nF + np.flatnonzero(drop)).tolist())
    rows = [Row(tuple((int(new_of[j]), a) for j, a in row.coeffs if new_of[j] >= 0),
                row.sense, row.rhs)
            for i, row in enumerate(lp.rows) if i not in link_rows]
    return lp_from_rows(len(kept), lp.objective[kept], rows, upper=lp.upper[kept])


class TestCoreProgram:
    """The assignment LP of a table with inf entries: a core."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(builder_inputs())
    def test_all_finite_tables_build_todays_arrays(self, args):
        assert_same_program(build_fair_range_lp(*args[:5]),
                            reference_array_build_fair_range_lp(*args[:5]))

    def test_all_finite_tables_build_todays_arrays_at_assign_lp_size(self, rng):
        args = random_fair_range_args(rng, 10, 300, 2)
        assert_same_program(build_fair_range_lp(*args),
                            reference_array_build_fair_range_lp(*args))

    def test_an_inf_entry_drops_its_column_and_link_row(self, rng):
        for trial in range(30):
            nD, nF = int(rng.integers(1, 5)), int(rng.integers(1, 8))
            dp, w, groups, k, ranges = random_fair_range_args(rng, nD, nF, 1 + trial % 3)
            gapped = np.where(rng.random(dp.shape) < 0.3, np.inf, dp)
            if trial == 0:
                gapped = dp.copy()
                gapped[0, 0] = np.inf
            got = build_fair_range_lp(gapped, w, groups, k, ranges)
            assert got.num_vars == np.isfinite(gapped).sum() + nF
            assert_same_program(got, without_pairs(build_fair_range_lp(dp, w, groups, k, ranges),
                                                   gapped))

    def test_split_round_trips_a_core_solution(self, rng):
        dp, w, groups, _, _ = random_fair_range_args(rng, 10, 300, 1)
        k, ranges = 10, ((2, 4),) * 3
        core = assignment_core(dp, groups)
        keep = np.isfinite(core)
        assert 0 < keep.sum() < keep.size
        lp = build_fair_range_lp(core, w, groups, k, ranges)
        res = solve_lp(lp)
        x, y = split_fair_solution(res.x, core)
        assert x.shape == dp.shape and not x[~keep].any()
        assert x[keep].tobytes() == res.x[:keep.sum()].tobytes()
        assert y.tobytes() == res.x[keep.sum():].tobytes()
        assert float(((w[:, None] * dp) * x).sum()) == pytest.approx(res.objective, rel=1e-12)
        # on an all-finite table the split is the old reshape
        x, y = split_fair_solution(np.arange(12.0), np.ones((2, 4)))
        assert x.tolist() == np.arange(8.0).reshape(2, 4).tolist() and y.tolist() == [8, 9, 10, 11]


class TestCoreRouting:
    def test_assign_lp_shape_takes_the_core(self, rng):
        dp, _, _, _, _ = random_fair_range_args(rng, 10, 300, 1)
        groups = [1 + u % 4 for u in range(300)]
        core = assignment_core(dp, groups)
        label = np.asarray(groups)
        assert core is not dp
        for g in range(1, 5):
            members = np.flatnonzero(label == g)
            for v in range(10):
                nearest = members[np.argsort(dp[v, members], kind="stable")[:3]]
                assert np.flatnonzero(np.isfinite(core[v]) & (label == g)).tolist() == \
                    sorted(nearest.tolist())
        assert (core[np.isfinite(core)] == dp[np.isfinite(core)]).all()
        assert build_fair_range_lp(core, np.ones(10), groups, 10,
                                   ((0, 4),) * 4).num_vars == 10 * 12 + 300

    def test_ties_go_to_the_lower_index(self, monkeypatch):
        monkeypatch.setattr(fairrange.lp, "HIGHS_CUTOVER", 0)
        dp = np.array([[2.0, 1.0, 1.0, 1.0, 1.0, 0.5]])
        core = assignment_core(dp, [1] * 6)
        assert np.isfinite(core).tolist() == [[False, True, True, False, False, True]]

    @pytest.mark.parametrize("nD,nF,ell", ((8, 40, 2), (5, 15, 3), (1, 150, 1)))
    def test_small_cores_take_the_whole_program(self, rng, nD, nF, ell):
        # 8 x 40 is the many-clients relaxation, whose core would have 88
        # variables; 5 x 15 is small-mix's largest (90 variables); 1 x 150
        # goes to HiGHS whole (300 variables) but its core (153) would not
        dp = rng.uniform(0.0, 10.0, size=(nD, nF))
        assert assignment_core(dp, [1 + u % ell for u in range(nF)]) is dp


class TestLagrangianBound:
    """lagrangian_bound(dp, w, groups, k, ranges, lam): item 11's bound."""

    @staticmethod
    def best_y_value(s, groups, k, ranges):
        from scipy.optimize import linprog

        label = np.asarray(groups)
        A = [np.ones(len(s))]
        b = [k]
        for g, (a, hi) in enumerate(ranges, start=1):
            A += [(label == g) * 1.0, (label == g) * -1.0]
            b += [hi, -a]
        res = linprog(-s, A_ub=np.array(A), b_ub=b, bounds=(0.0, 1.0), method="highs")
        assert res.status == 0
        return -res.fun

    def test_greedy_inner_max_matches_an_lp_over_y(self, rng):
        tight = {"free": 0, "a=b": 0, "sum a=k": 0}
        for trial in range(150):
            ell = int(rng.integers(1, 5))
            sizes = rng.integers(1, 7, size=ell)
            groups = np.repeat(np.arange(1, ell + 1), sizes)
            rng.shuffle(groups)
            mode = list(tight)[trial % 3]
            lo = [int(rng.integers(0, n + 1)) for n in sizes]
            hi = [a if mode == "a=b" else a + int(rng.integers(0, 4)) for a in lo]
            k = sum(lo) + (0 if mode == "sum a=k" else int(rng.integers(0, 5)))
            tight[mode] += 1
            s = rng.uniform(0.0, 5.0, size=len(groups))
            s[rng.random(len(groups)) < 0.2] = 0.0
            # one location per facility, far from all but its own, so
            # s[u] = lam[u] exactly
            n = len(groups)
            dp = np.full((n, n), 1e6)
            np.fill_diagonal(dp, 0.0)
            bound = lagrangian_bound(dp, np.ones(n), groups, k, tuple(zip(lo, hi)), s)
            want = self.best_y_value(s, groups, k, tuple(zip(lo, hi)))
            assert s.sum() - bound == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert min(tight.values()) >= 50

    @pytest.mark.parametrize("p", (1, 2, 3))
    def test_weak_duality(self, rng, p):
        for nD, nF in ((3, 60), (10, 300)):
            args = random_fair_range_args(rng, nD, nF, p)
            opt = _solve_scipy(build_fair_range_lp(*args)).objective
            dp, w = args[0], args[1]
            scale = (w[:, None] * dp).max()
            for _ in range(20):
                lam = rng.uniform(0.0, scale, size=nD) * (rng.random(nD) < 0.8)
                assert lagrangian_bound(*args, lam) <= opt * (1.0 + 1e-12)

    @pytest.mark.parametrize("p", (1, 2, 3))
    def test_returned_duals_reach_the_optimum(self, rng, p):
        for nD, nF in ((3, 60), (10, 300), (8, 40)):
            args = random_fair_range_args(rng, nD, nF, p)
            res = _solve_scipy(build_fair_range_lp(*args))
            assert res.duals.shape == (len(res.duals),) and (res.duals >= 0.0).all()
            bound = lagrangian_bound(*args, res.duals[:nD])
            assert bound == pytest.approx(res.objective, rel=1e-9)

    def test_simplex_returns_no_duals(self):
        assert solve_vertex(simple_lp([1.0], [([(0, 1.0)], GEQ, 1.0)])).duals is None
