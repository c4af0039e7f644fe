import math
import os
import sys
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairrange.pipeline
import fairrange.round
from fairrange.errors import StageError
from fairrange.instance import RangeConstraints
from fairrange.lp import solve_lp, solve_vertex as lp_solve_vertex
from fairrange.pipeline import random_instance, random_ranges, solve_fair_range
from fairrange.round import (
    FacilityPartition,
    half_integral_cost,
    partition_facilities,
    select_centers,
    solve_half_integral,
    structured_program,
)
from fairrange.sparsify import SparsifiedInstance
from fairrange.structure import (GEOM_TOL, SUPPORT_TOL, build_super_balls,
                                 enforce_structure, fill_service, nearest_surviving,
                                 reassign_private_facilities)
from conftest import (exact_opening_costs, feasible_ranges, groups_of, line_instance,
                      manual_sp, opening_program, random_fair_instance,
                      reference_build_structured_lp, same_opening_program, solve_stages)
from oracles import (build_flow_network, exact_minimum, flow_to_text, matrix_geq,
                     reference_select, structured_row_kinds)


def random_fronts(seed, count, sizes=(8, 14), p_values=(1.0, 2.0)):
    rng = np.random.default_rng(seed)
    out = []
    made = 0
    while made < count:
        n = int(rng.integers(*sizes))
        p = p_values[made % len(p_values)]
        inst = random_fair_instance(rng, n, p)
        rc = feasible_ranges(rng, inst, int(rng.integers(2, 5)))
        stages = solve_stages(inst, rc, "solve_half_integral")
        lp, members = stages["structured_program"]
        out.append((inst, rc, stages["sparsify"], stages["enforce_structure"], lp, members,
                    stages["solve_half_integral"], stages["solve_lp"].objective))
        made += 1
    return out


def opening_args(ss, groups, rc):
    """The builder arguments structured_program passes for ss."""
    sp = ss.sp
    return (sp.fac_dist_p, sp.weights, groups, rc.k, rc.ranges, sp.balls,
            ss.territories, ss.base_pow, ss.ball_need, ss.split)


def left_out_constant(ss):
    """sum w_v d(v,v')^p, the part of the opening cost its objective omits."""
    return float(ss.sp.weights @ ss.base_pow)


def service(ss, half):
    """Stage 5's service rows for the openings half, as the pipeline fills
    them."""
    return fill_service(ss.sp, ss.supers, ss.peer_balls, half.y_own, half.y)


def program_cost(ss, groups, rc, half_y_own, spare=None):
    """c.y + constant: the reference opening program's float objective at
    the own openings y_own (spare columns cost nothing), the constant added
    back."""
    full, _, _ = reference_build_structured_lp(*opening_args(ss, groups, rc))
    y = np.concatenate((half_y_own, np.zeros(full.num_vars - len(half_y_own))))
    return float(full.objective @ y) + left_out_constant(ss)


def stage_four_own(ss):
    """The own part of stage 4's point in the opening program: each
    survivor's use of its territory, and y_bar elsewhere."""
    own = ss.y_bar.copy()
    for v, t in enumerate(ss.territories):
        own[t] = ss.x_bar[v, t]
    return own


class TestSolveHalfIntegral:
    def test_forced_singleton(self):
        program, members = opening_program(
            np.array([[4.0]]), [1.0], [1], 1, [(0, 1)], [[0]], [[0]], [0.0], [1.0], [])
        half = solve_half_integral(program, members)
        assert half.y.tolist() == half.y_own.tolist() == [1.0]

    def test_equal_distance_pair_lands_on_a_vertex(self):
        # Vertices of this two-variable polytope put the whole unit on one
        # facility; the split 1/2, 1/2 has the same objective but is not a
        # vertex, and the first column wins the tie.
        program, members = opening_program(
            np.array([[4.0, 4.0]]), [1.0], [1, 1], 1, [(0, 1)],
            [[0, 1]], [[0, 1]], [0.0], [1.0], [])
        half = solve_half_integral(program, members)
        assert half.y.tolist() == [1.0, 0.0]

    def test_infeasible_range_raises(self):
        program = opening_program(
            np.array([[1.0, 1.0]]), [1.0], [1, 1], 3, [(3, 3)],
            [[0, 1]], [[0, 1]], [0.0], [1.0], [])
        with pytest.raises(StageError, match="opening program is infeasible") as err:
            solve_half_integral(*program)
        assert err.value.stage == "round"

    def test_random_coordinates_are_halves(self):
        for inst, rc, sp, ss, lp, members, half, opt in random_fronts(5, 8):
            doubled = 2.0 * half.y
            assert np.all(doubled == np.round(doubled))
            assert np.all((half.y >= 0.0) & (half.y <= 1.0))

    def test_matches_unscaled_optimum_and_improves_on_y_bar(self):
        for inst, rc, sp, ss, lp, members, half, opt in random_fronts(6, 6):
            full, _, _ = reference_build_structured_lp(*opening_args(ss, groups_of(inst), rc))
            res = solve_lp(full)
            assert res.status == "optimal"
            cost = program_cost(ss, groups_of(inst), rc, half.y_own)
            assert cost == pytest.approx(res.objective + left_out_constant(ss),
                                         rel=1e-6, abs=1e-9)
            assert cost <= program_cost(ss, groups_of(inst), rc, stage_four_own(ss)) \
                * (1.0 + 1e-9) + 1e-9

    @pytest.mark.parametrize("p", (1.0, 2.0, 3.0))
    def test_cost_matches_objective_at_small_p(self, p):
        for inst, rc, sp, ss, lp, members, half, opt in random_fronts(7, 6, p_values=(p,)):
            cost = half_integral_cost(ss, half.y_own)
            assert cost >= 0.0
            assert cost == pytest.approx(program_cost(ss, groups_of(inst), rc, half.y_own),
                                         rel=1e-9, abs=1e-12)

    def test_cost_stays_nonnegative_at_large_p(self):
        # at p=30 c.y + constant cancels: its constant is d(v,v')^p summed
        fronts = random_fronts(8, 6, p_values=(30.0,))
        costs = [half_integral_cost(ss, half.y_own) for _, _, _, ss, _, _, half, _ in fronts]
        assert all(c >= 0.0 and math.isfinite(c) for c in costs)
        for (_, _, sp, ss, _, _, half, _), cost in zip(fronts, costs):
            assert cost <= sp.assignment_cost(service(ss, half)) * (1 + 1e-9)


def free_columns(lp):
    """Free columns (objective 0, in no ball, super-ball or split row) and
    each column's group, read off the row tags."""
    touched = np.zeros(lp.num_vars, dtype=bool)
    group = np.zeros(lp.num_vars, dtype=int)
    for row, kind in zip(lp.rows, structured_row_kinds(lp)):
        cols = [j for j, _ in row.coeffs]
        if kind[0] in ("ball", "superball", "split"):
            touched[cols] = True
        if kind[0] == "range_lower":
            group[cols] = kind[1]
    return ~touched & (lp.objective == 0.0), group


def check_merged_matches_full(args):
    """solve_half_integral against the full program, one column per
    facility and one per spare, that the reference builder writes: the
    point meets its rows, its exact objective is the full program's exact
    optimum, and each merged column's value reaches its members whole, in
    index order.

    Returns the half-integral solution, or None when both find the program
    infeasible.
    """
    program, members = opening_program(*args)
    full, _, _ = reference_build_structured_lp(*args)
    vertex = lp_solve_vertex(full)
    if vertex.status == "infeasible":
        with pytest.raises(StageError, match="program is infeasible"):
            solve_half_integral(program, members)
        return None
    assert vertex.status == "optimal"
    half = solve_half_integral(program, members)
    split = list(args[9])
    spare = (half.y - half.y_own)[split]
    y_full = np.concatenate((half.y_own, spare))
    # every row and bound of the full program, in >= orientation; the
    # doubled values and right-hand sides are small integers
    sign = np.where(full.geq, 1.0, -1.0)
    assert np.all(matrix_geq(full) @ (2.0 * y_full) >= 2.0 * sign * full.rhs)
    assert np.all((y_full >= 0.0) & (y_full <= full.upper))
    cost = exact_opening_costs(args)
    got = sum((c * Fraction(float(y)) for c, y in zip(cost, y_full)), Fraction(0))
    assert got == exact_minimum(full, cost, vertex.basis)
    # the merged value reaches the members whole, filled in index order
    merged = fairrange.round.solve_vertex(program).x
    free, group = free_columns(full)
    assert sorted(j for cols in members if len(cols) > 1 for j in cols) == \
        [j for j in np.nonzero(free)[0] if np.sum(free & (group == group[j])) > 1]
    own_cols = len(members) - len(split)
    for value, cols in zip(merged, members[:own_cols]):
        assert 2.0 * half.y_own[cols].sum() == value
        assert np.all(np.diff(half.y_own[cols]) <= 0.0)
        assert np.sum((half.y_own[cols] > 0.0) & (half.y_own[cols] < 1.0)) <= 1
    assert (2.0 * spare).tolist() == merged[own_cols:]
    return half


@st.composite
def opening_programs(draw):
    """Builder arguments for opening programs of the structured shape:
    disjoint territories with a ball inside each, facilities outside every
    territory (free unless none is), one to three groups with alpha = beta
    quotas among the ranges, the single-survivor form, and some territory
    facilities split.  Costs are drawn from a continuous law, so the
    optimum is unique on the tied columns; with tied costs two optimal
    vertices can split the territories differently, and either is a valid
    answer."""
    nF = draw(st.integers(1, 9))
    ell = draw(st.integers(1, 3))
    groups = [draw(st.integers(1, ell)) for _ in range(nF)]
    single = draw(st.booleans())
    nD = 1 if single else draw(st.integers(1, min(3, nF)))
    order = draw(st.permutations(range(nF)))
    owner = [draw(st.integers(-1, nD - 1)) for _ in range(nF)]
    for v in range(nD):
        owner[order[v]] = v
    supers, balls = [], []
    for v in range(nD):
        members = [u for u in range(nF) if owner[u] == v]
        supers.append(np.array(members))
        balls.append(np.array([u for u in members
                               if u == order[v] or draw(st.booleans())]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dp = rng.uniform(0.0, 6.0, size=(nD, nF))
    w = [float(draw(st.integers(1, 3))) for _ in range(nD)]
    base = np.zeros(1) if single else rng.uniform(0.0, 6.0, size=nD)
    ranges = []
    for g in range(1, ell + 1):
        alpha = draw(st.integers(0, groups.count(g)))
        beta = alpha if draw(st.booleans()) else \
            draw(st.integers(alpha, groups.count(g) + 1))
        ranges.append((alpha, beta))
    k = draw(st.integers(1, nF))
    need = [1.0] if single else [0.5] * nD
    territories = balls if single else supers
    split = sorted(u for t in territories for u in t.tolist() if draw(st.booleans()))
    return dp, w, groups, k, ranges, balls, territories, base, need, split


def named_opening_programs():
    """Builder arguments for one program per shape the property family
    must reach."""
    # single survivor: a full unit on the ball, three free facilities
    single = (np.array([[3.0, 1.0, 2.0, 5.0]]), [1.0], [1, 1, 1, 2], 2, [(1, 2), (1, 1)],
              [[0]], [[0]], [0.0], [1.0], [])
    # alpha = beta in both groups, group 2 with no free facility
    tight = (np.array([[2.0, 0.5, 4.0, 1.0, 3.0]]), [2.0], [1, 2, 1, 2, 1], 3,
             [(2, 2), (1, 1)], [[1]], [[1, 3]], [2.5], [0.5], [])
    # group 1 with exactly one free facility
    one_free = (np.array([[1.0, 4.0, 2.0], [4.0, 1.0, 3.0]]), [1.0, 1.0], [1, 2, 1], 2,
                [(1, 2), (0, 1)], [[0], [1]], [[0], [1]], [3.0, 3.0], [0.5, 0.5], [])
    # a dear ball that wants only its half unit: the merged value is odd,
    # so one free member ends at 1/2
    odd = (np.array([[5.0, 0.0, 0.0, 0.0]]), [1.0], [1, 1, 1, 1], 1, [(1, 1)],
           [[0]], [[0]], [2.0], [0.5], [])
    # two colocated ball facilities: cost 0 and identical columns, but in
    # the ball row, so they are not free and stay apart
    zero_cost_ball = (np.array([[0.0, 0.0, 2.0, 4.0, 5.0]]), [1.0], [1, 1, 1, 2, 2], 2,
                      [(1, 2), (0, 1)], [[0, 1]], [[0, 1]], [0.0], [1.0], [])
    # group 1 wants both ball facilities open while the territory caps the
    # survivor's own use at one unit: only facility 1's spare can open it
    shared = (np.array([[1.0, 2.0, 3.0]]), [1.0], [1, 1, 2], 3, [(2, 2), (1, 1)],
              [[0, 1]], [[0, 1]], [0.0], [1.0], [1])
    return {"single": single, "tight": tight, "one_free": one_free, "odd": odd,
            "zero_cost_ball": zero_cost_ball, "shared": shared}


class TestMergedOpeningLP:
    """The builder writes each group's free facilities as one column; the
    answer must be the full program's."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(opening_programs())
    def test_matches_full_solve_on_random_programs(self, args):
        check_merged_matches_full(args)

    @pytest.mark.parametrize("name", ["single", "tight", "one_free", "odd",
                                      "zero_cost_ball", "shared"])
    def test_matches_full_solve_on_named_programs(self, name):
        assert check_merged_matches_full(named_opening_programs()[name]) is not None

    def test_named_programs_have_their_shapes(self):
        programs = {name: reference_build_structured_lp(*args)[0]
                    for name, args in named_opening_programs().items()}
        for name, groups_with_free in (("single", {1, 2}), ("tight", {1}),
                                       ("one_free", {1}), ("odd", {1}),
                                       ("zero_cost_ball", {1, 2})):
            free, group = free_columns(programs[name])
            assert set(group[free].tolist()) == groups_with_free
        free, group = free_columns(programs["one_free"])
        assert free.tolist() == [False, False, True]
        half = check_merged_matches_full(named_opening_programs()["odd"])
        assert half.y.tolist() == [0.5, 0.5, 0.0, 0.0]
        # 3.5 with the constant 2.0 the objective leaves out
        assert float(programs["odd"].objective @ half.y) == pytest.approx(1.5)
        lp = programs["zero_cost_ball"]
        assert lp.objective.tolist()[:2] == [0.0, 0.0]
        assert free_columns(lp)[0].tolist() == [False, False, True, True, True]
        # the spare column is in the split row, not free
        assert free_columns(programs["shared"])[0].tolist() == [False, False, True, False]
        half = check_merged_matches_full(named_opening_programs()["shared"])
        assert half.y.tolist() == [1.0, 1.0, 1.0] and half.y_own.tolist() == [1.0, 0.0, 1.0]
        unsplit = (*named_opening_programs()["shared"][:9], [])
        assert check_merged_matches_full(unsplit) is None

    def test_matches_full_solve_on_fixtures(self):
        merged = 0
        for inst, rc, sp, ss, program, members, half, opt in random_fronts(14, 12):
            args = opening_args(ss, groups_of(inst), rc)
            assert opening_program(*args)[0].arcs == program.arcs
            again = check_merged_matches_full(args)
            assert again.y.tolist() == half.y.tolist()
            merged += program.num_vars < len(sp.facility_ids)
        assert merged > 0

    def test_vertex_solve_sees_one_column_per_group_of_free_facilities(self, monkeypatch):
        # an assign-lp sized solve: every point a client and a facility
        inst = random_instance(3, 300, 4, 1.0)
        rc = random_ranges(3, inst, 10, 4)
        built, widths = [], []

        def build(ss, groups, rc, _build=fairrange.round.structured_program):
            built.append(opening_args(ss, groups, rc))
            return _build(ss, groups, rc)

        def vertex(program, _solve=fairrange.round.solve_vertex):
            widths.append(program.num_vars)
            return _solve(program)

        monkeypatch.setattr(fairrange.pipeline, "structured_program", build)
        monkeypatch.setattr(fairrange.round, "solve_vertex", vertex)
        solve_fair_range(inst, rc)
        (args,) = built
        full, _, _ = reference_build_structured_lp(*args)
        free, group = free_columns(full)
        assert full.num_vars == 300 + len(args[9])
        assert widths == [int(np.sum(~free)) + len(set(group[free].tolist()))]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(opening_programs())
    def test_merged_program_matches_the_entry_list_merge(self, args):
        same_opening_program(args)

    def test_merged_program_matches_the_entry_list_merge_on_fixtures(self):
        for args in named_opening_programs().values():
            same_opening_program(args)
        for inst, rc, sp, ss, lp, members, half, opt in random_fronts(14, 12):
            same_opening_program(opening_args(ss, groups_of(inst), rc))


def partition_fields(part):
    return (part.surviving, part.sets, part.r_values.tolist(), part.count,
            part.served, part.removed_by)


def move_free_mass(half, members, rng):
    """Same sum over each column's members (a group's free facilities share
    one column), each value still in {0, 1/2, 1}, the mass placed on other
    members; a free facility has no spare, so its own part moves with it."""
    y = half.y.copy()
    for cols in members:
        y[cols] = rng.permutation(half.y[cols])
    return replace(half, y=y, y_own=y - (half.y - half.y_own))


class TestFreeOpeningsUnread:
    def test_later_stages_ignore_where_free_mass_sits(self):
        rng = np.random.default_rng(15)
        moved = 0
        for inst, rc, sp, ss, lp, members, half, opt in random_fronts(16, 12, sizes=(12, 20)):
            x = service(ss, half)
            part = partition_facilities(sp, x)
            centers, _ = select_centers(ss, x, groups_of(inst), rc)
            for _ in range(4):
                other = move_free_mass(half, members, rng)
                moved += other.y.tolist() != half.y.tolist()
                assert set(other.y.tolist()) <= {0.0, 0.5, 1.0}
                x2 = service(ss, other)
                assert x2.tolist() == x.tolist()
                assert partition_fields(partition_facilities(sp, x2)) == \
                    partition_fields(part)
                centers2, part2 = select_centers(ss, x2, groups_of(inst), rc)
                assert centers2.tolist() == centers.tolist()
                assert partition_fields(part2) == partition_fields(part)
        assert moved > 0


class TestHalfIntegralAssignment:
    def fill(self, y, y_own=None):
        # survivors p0 and p1, each the other's peer; p2 is p1's private
        inst = line_instance([0.0, 100.0, 101.0])
        sp = manual_sp(inst, ["p0", "p1"], [1.0, 1.0], [[0], [1]],
                       [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                       [1.0, 1.0, 0.0])
        supers = [np.array([0]), np.array([1, 2])]
        y_own = y if y_own is None else y_own
        return fill_service(sp, supers, [sp.balls[1], sp.balls[0]], np.array(y_own),
                            np.array(y))

    def test_full_territory_needs_no_fill(self):
        x = self.fill([1.0, 1.0, 0.0])
        assert x.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]

    def test_half_territory_fills_from_neighbor_ball(self):
        x = self.fill([1.0, 0.5, 0.0])
        assert x.tolist() == [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]

    def test_spare_mass_in_the_territory_is_not_taken(self):
        # p2's half unit is a spare, not p1's own: p1 tops up from its
        # peer ball instead, 100 away and not 1
        x = self.fill([1.0, 0.5, 0.5], y_own=[1.0, 0.5, 0.0])
        assert x.tolist() == [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]

    def test_random_rows_caps_and_certificate(self):
        saw_full_territory = 0
        for inst, rc, sp, ss, lp, members, half, opt in random_fronts(7, 10):
            x = service(ss, half)
            assert np.allclose(x.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(x <= half.y + 1e-12)
            assert np.all(2.0 * x == np.round(2.0 * x))
            dp = sp.fac_dist ** sp.p
            cost = float(sp.weights @ (x * dp).sum(axis=1))
            p = sp.p
            assert cost <= (1.5 ** p) * half_integral_cost(ss, half.y_own) * (1 + 1e-6) + 1e-9
            for v in range(len(sp.location_ids)):
                territory = ss.supers[v]
                assert np.all(x[v, territory] <= half.y_own[territory])
                if float(half.y_own[territory].sum()) == 1.0:
                    saw_full_territory += 1
                    outside = np.setdiff1d(np.arange(x.shape[1]), territory)
                    assert np.all(x[v, outside] == 0.0)
        assert saw_full_territory > 0


class TestPartition:
    def test_distinct_full_facilities_all_survive(self):
        inst = line_instance([0.0, 100.0])
        sp = manual_sp(inst, ["p0", "p1"], [1.0, 1.0], [[0], [1]],
                       [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        part = partition_facilities(sp, np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert part.surviving == (0, 1)
        assert part.sets == {0: (0,), 1: (1,)}
        assert part.count == 2
        assert part.removed_by == {}

    def test_shared_half_facility_removes_the_dearer_location(self):
        inst = line_instance([0.0, 50.0, 20.0])
        sp = manual_sp(inst, ["p0", "p1"], [1.0, 1.0], [[0], [1]],
                       [[0.5, 0.0, 0.5], [0.0, 0.5, 0.5]],
                       [0.5, 0.5, 0.5])
        x = np.array([[0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
        part = partition_facilities(sp, x)
        assert part.r_values.tolist() == [10.0, 15.0]
        assert part.surviving == (0,)
        assert part.sets == {0: (0, 2)}
        assert part.removed_by == {1: 0}

    def test_overfull_row_rejected(self):
        inst = line_instance([0.0, 1.0, 2.0])
        sp = manual_sp(inst, ["p0"], [1.0], [[0]],
                       [[1.0, 0.0, 0.0]], [1.0, 0.0, 0.0])
        third = np.full((1, 3), 1.0 / 3.0)
        with pytest.raises(StageError):
            partition_facilities(sp, third)

    def test_random_partition_invariants(self):
        for inst, rc, sp, ss, lp, members, half, opt in random_fronts(8, 10):
            x = service(ss, half)
            part = partition_facilities(sp, x)
            assert part.count == len(part.surviving) == len(part.sets)
            assert part.count <= rc.k
            all_members = [u for v in part.surviving for u in part.sets[v]]
            assert len(all_members) == len(set(all_members))
            for v, remover in part.removed_by.items():
                assert part.r_values[remover] <= part.r_values[v] + 1e-12
                assert set(part.served[v]) & set(part.sets[remover])
            # every serving set holds a full unit of opening mass
            for v in part.surviving:
                assert float(half.y[list(part.sets[v])].sum()) >= 1.0 - 1e-9


def toy_partition(sets, r=None):
    surviving = tuple(sets)
    r_values = np.zeros(max(sets) + 1) if r is None else np.asarray(r, dtype=float)
    served = tuple(tuple(sets.get(v, ())) for v in range(len(r_values)))
    return FacilityPartition(surviving, {v: tuple(s) for v, s in sets.items()},
                             r_values, len(sets), served, {})


def toy_select(part, num_facilities, groups, rc):
    """select_centers on a given partition of num_facilities facilities."""
    ss = SimpleNamespace(sp=SimpleNamespace(facility_ids=tuple(range(num_facilities))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fairrange.round, "partition_facilities", lambda sp, x: part)
        return select_centers(ss, None, groups, rc)[0]


def assert_valid_selection(centers, part, groups, rc):
    """k distinct centers, every window met, every surviving set hit."""
    chosen = centers.tolist()
    assert len(chosen) == len(set(chosen)) == rc.k
    labels = np.asarray(groups)
    for gi, (alpha, beta) in enumerate(rc.ranges, start=1):
        assert alpha <= int(np.sum(labels[centers] == gi)) <= beta
    for v in part.surviving:
        assert set(chosen) & set(part.sets[v])


def selection_outcome(select, *args):
    """The centers select picks as a list, or its StageError's text."""
    try:
        return select(*args).tolist()
    except StageError as exc:
        return str(exc)


@st.composite
def selection_problems(draw):
    """A partition of up to 8 facilities into sets of one or two, group
    labels and windows; k = L, alpha = beta, alpha = 0 and sum(alpha) = k
    all come up."""
    nF = draw(st.integers(1, 8))
    ell = draw(st.integers(1, 3))
    groups = draw(st.lists(st.integers(1, ell), min_size=nF, max_size=nF))
    order = draw(st.permutations(range(nF)))
    sets, at = {}, 0
    for size in draw(st.lists(st.integers(1, 2), min_size=1, max_size=nF)):
        if at + size > nF:
            break
        sets[len(sets)] = tuple(order[at:at + size])
        at += size
    k = draw(st.integers(max(1, len(sets)), nF))
    if draw(st.booleans()):         # windows around a selection that exists
        picks = [draw(st.sampled_from(sets[v])) for v in sets]
        rest = draw(st.permutations([u for u in range(nF) if u not in picks]))
        picks += rest[:k - len(picks)]
        counts = [sum(groups[u] == g for u in picks) for g in range(1, ell + 1)]
        ranges = tuple((max(0, c - draw(st.integers(0, 1))), c + draw(st.integers(0, 1)))
                       for c in counts)
    else:
        alphas = draw(st.lists(st.integers(0, 2), min_size=ell, max_size=ell))
        ranges = tuple((a, a + draw(st.integers(0, 2))) for a in alphas)
    return toy_partition(sets, [0.0] * len(sets)), nF, groups, RangeConstraints(k, ranges)


class TestFlow:
    def test_manual_arc_and_node_count(self):
        # the reference circulation's network
        part = toy_partition({0: (0, 1), 1: (2,)})
        rc = RangeConstraints(3, ((1, 2), (0, 3)))
        net = build_flow_network(part, 5, [1, 1, 2, 2, 1], rc)
        # s, two set nodes, pool, five facilities, two groups, t1, t2
        assert net.num_nodes == 13
        # 2 set arcs + pool arc + 3 member arcs + 5 pool arcs + 5 group
        # membership arcs + 2 range arcs + the budget arc
        assert len(net.arcs) == 19
        assert net.arcs[2][3] == rc.k - part.count
        text = flow_to_text(net)
        assert text.count("->") == 19
        assert text.splitlines()[0] == "nodes 13: s S1 S2 pool f0 f1 f2 f3 f4 g1 g2 t1 t2"

    def test_budget_overrun_rejected(self):
        part = toy_partition({0: (0,), 1: (1,), 2: (2,)})
        rc = RangeConstraints(2, ((0, 2),))
        with pytest.raises(StageError, match="3 serving sets exceed the budget 2"):
            toy_select(part, 3, [1, 1, 1], rc)

    def test_forced_singletons_route_uniquely(self):
        part = toy_partition({0: (0,), 1: (1,)})
        rc = RangeConstraints(2, ((1, 1), (1, 1)))
        assert toy_select(part, 2, [1, 2], rc).tolist() == [0, 1]

    def test_unreachable_lower_bound_is_infeasible(self):
        # Group 1 demands a center, but its only facility hangs off the
        # pool and the pool has no budget left.
        part = toy_partition({0: (0,)})
        rc = RangeConstraints(1, ((1, 1), (0, 1)))
        with pytest.raises(StageError, match="no integral selection meets the ranges"):
            toy_select(part, 2, [2, 1], rc)

    def test_k_distinct_centers_meet_windows_and_hit_sets(self):
        for inst, rc, sp, ss, lp, members, half, opt in random_fronts(9, 6):
            x = service(ss, half)
            centers, part = select_centers(ss, x, groups_of(inst), rc)
            assert_valid_selection(centers, part, groups_of(inst), rc)


class TestSelectionMatchesReference:
    """The max flow picks the very centers the circulation with lower
    bounds picked."""

    def test_random_fronts(self):
        for inst, rc, sp, ss, lp, members, half, opt in random_fronts(14, 12):
            centers, part = select_centers(ss, service(ss, half), groups_of(inst), rc)
            ref = reference_select(part, len(sp.facility_ids), groups_of(inst), rc)
            assert centers.tolist() == ref.tolist()

    @pytest.mark.parametrize("sets, num_f, groups, rc", [
        ({0: (0,), 1: (1,)}, 2, [1, 2], RangeConstraints(2, ((1, 1), (1, 1)))),
        ({0: (0, 1), 1: (2,)}, 5, [1, 1, 2, 2, 1], RangeConstraints(3, ((1, 2), (0, 3)))),
        ({0: (3, 1)}, 4, [1, 2, 2, 1], RangeConstraints(1, ((0, 0), (1, 1)))),
        ({0: (0,)}, 3, [1, 1, 2], RangeConstraints(3, ((2, 2), (1, 1)))),
        ({0: (0,), 1: (2,)}, 4, [1, 1, 2, 2], RangeConstraints(2, ((0, 2), (0, 2)))),
        ({0: (0,)}, 2, [2, 1], RangeConstraints(1, ((1, 1), (0, 1)))),
        ({0: (0,)}, 3, [1, 2, 2], RangeConstraints(2, ((2, 2), (1, 1)))),
    ])
    def test_toy_partitions(self, sets, num_f, groups, rc):
        part = toy_partition(sets)
        assert (selection_outcome(toy_select, part, num_f, groups, rc)
                == selection_outcome(reference_select, part, num_f, groups, rc))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(selection_problems())
    def test_any_partition_and_windows(self, problem):
        part, num_f, groups, rc = problem
        got = selection_outcome(toy_select, part, num_f, groups, rc)
        assert got == selection_outcome(reference_select, part, num_f, groups, rc)
        if not isinstance(got, str):
            assert_valid_selection(np.asarray(got), part, groups, rc)


class TestSelectCenters:
    def test_leaves_the_opening_solution_alone(self, monkeypatch):
        # stage 6 once stored its service rows in stage 5's result
        def fields(half):
            return {name: value.tobytes() if isinstance(value, np.ndarray) else value
                    for name, value in vars(half).items()}

        returned = []

        def solve(*args, _solve=fairrange.pipeline.solve_half_integral):
            half = _solve(*args)
            returned.append(fields(half))
            return half

        monkeypatch.setattr(fairrange.pipeline, "solve_half_integral", solve)
        for seed in range(4):
            inst = random_instance(seed, 14, 2, 1.0 + seed % 2)
            stages = solve_stages(inst, random_ranges(seed, inst, 3, 2), "select_centers")
            assert fields(stages["solve_half_integral"]) == returned.pop()

    def test_end_to_end_random(self):
        for inst, rc, sp, ss, lp, members, half, opt in random_fronts(10, 12):
            x = service(ss, half)
            centers, part = select_centers(ss, x, groups_of(inst), rc)
            assert_valid_selection(centers, part, groups_of(inst), rc)

    def test_removed_location_distance_bounds(self):
        for inst, rc, sp, ss, lp, members, half, opt in random_fronts(11, 12):
            x = service(ss, half)
            centers, part = select_centers(ss, x, groups_of(inst), rc)
            dp = sp.fac_dist ** sp.p
            chosen = set(centers.tolist())
            p = sp.p
            for v, remover in part.removed_by.items():
                opened = sorted(chosen & set(part.sets[remover]))
                assert opened
                r_v, r_s = part.r_values[v], part.r_values[remover]
                for u in opened:
                    cap = 3.0 ** (p - 1) * (r_v + 2.0 * r_s)
                    assert dp[v, u] <= cap * (1 + 1e-6) + 1e-9
                    assert cap <= 3.0 ** p * r_v * (1 + 1e-12) + 1e-12

    def test_partition_quality_for_any_hitting_set(self):
        rng = np.random.default_rng(12)
        for inst, rc, sp, ss, lp, members, half, opt in random_fronts(13, 8):
            x = service(ss, half)
            centers, part = select_centers(ss, x, groups_of(inst), rc)
            dp = sp.fac_dist ** sp.p
            bound = (4.5 ** sp.p) * half_integral_cost(ss, half.y_own) * (1 + 1e-6) + 1e-9
            num_f = dp.shape[1]
            candidates = [centers]
            for _ in range(20):
                picks = {int(rng.choice(part.sets[v])) for v in part.surviving}
                pool = [u for u in range(num_f) if u not in picks]
                extra = rng.choice(len(pool), rc.k - len(picks), replace=False)
                picks |= {pool[i] for i in extra}
                candidates.append(sorted(picks))
            for chosen in candidates:
                cost = float(sp.weights @ dp[:, list(chosen)].min(axis=1))
                assert cost <= bound


# The three capped nearest-first fills as they were before they shared
# fill_nearest (the third was the separate saturating_assignment that stage
# 5 ran as half_integral_assignment until it took stage 4's fill_service),
# and the distance-table methods they called, kept verbatim as the
# references for those changes, except that reference_enforce_structure
# returns its fields by name.
def old_dist_to_facilities(sp):
    src = sp.red.source
    fi = [src.index(u) for u in sp.facility_ids]
    li = [src.index(v) for v in sp.location_ids]
    return src.dist[np.ix_(li, fi)]


def old_location_dist(sp):
    src = sp.red.source
    li = [src.index(v) for v in sp.location_ids]
    return src.dist[np.ix_(li, li)]


def reference_reassign_private_facilities(sp: SparsifiedInstance) -> tuple[np.ndarray, list[tuple]]:
    """Per facility, keep only the nearest served location's out-of-ball use.

    Works column by column on a snapshot of the assignment.  For a facility
    u serving several locations out of their balls, every location but the
    nearest keeps in-ball mass untouched and has its share at u refilled
    from the nearest location's ball, nearest facilities first, capped by
    the opening mass.  Each moved unit travels at most three times its old
    distance: the detour goes over u and the target ball's radius is below
    half the separation.  Returns the new assignment and the moves as
    (location, from, to, amount) index tuples.
    """
    m, F = sp.x.shape
    D = old_dist_to_facilities(sp)
    x = sp.x.copy()
    snap = sp.x.copy()
    in_ball = np.zeros((m, F), dtype=bool)
    for v in range(m):
        in_ball[v, sp.balls[v]] = True
    moves: list[tuple] = []
    for u in range(F):
        served = [v for v in range(m) if snap[v, u] > 0.0]
        if len(served) < 2:
            continue
        served.sort(key=lambda v: (D[v, u], sp.location_ids[v]))
        v1 = served[0]
        targets = sorted(sp.balls[v1].tolist())
        if not targets:
            raise StageError("structure", f"empty ball for location {sp.location_ids[v1]}")
        for vj in served[1:]:
            if in_ball[vj, u] or in_ball[v1, u]:
                # already inside its own ball, or inside the target ball
                continue
            amount = snap[vj, u]
            x[vj, u] -= amount
            order = sorted(targets, key=lambda t: (D[vj, t], t))
            left = amount
            for t in order:
                room = sp.y[t] - x[vj, t]
                if room <= 0.0:
                    continue
                step = min(left, room)
                x[vj, t] += step
                moves.append((vj, u, t, step))
                left -= step
                if left <= 1e-12:
                    break
            if left > SUPPORT_TOL:
                raise StageError("structure",
                                 f"no room in target ball for {left:.3g} mass")
    return x, moves


def reference_enforce_structure(x2: np.ndarray, y: np.ndarray,
                      supers: Sequence[np.ndarray],
                      sp: SparsifiedInstance) -> SimpleNamespace:
    """Prune far private openings and rebuild service greedily.

    Openings survive untouched except for private facilities beyond twice
    the peer distance, which are closed outright.  Each survivor's service
    row is then refilled to one unit from scratch: own ball first, then
    surviving privates, then the peer's ball, always nearest facility
    first with ties to the lower index, each take capped by the opening
    mass.  The peer ball's half unit always covers what the territory
    cannot, so the fill never comes up short on a carried solution.
    """
    m, F = x2.shape
    D = old_dist_to_facilities(sp)
    nn_idx, nn_dist = nearest_surviving(old_location_dist(sp))
    y_bar = np.clip(np.asarray(y, dtype=float).copy(), 0.0, 1.0)
    supers = [np.asarray(mem, dtype=int).copy() for mem in supers]
    ball_sets = [set(b.tolist()) for b in sp.balls]
    diagnostics = {"pruned": 0.0}

    if nn_idx is not None:
        for v in range(m):
            keep = []
            for u in supers[v].tolist():
                if u not in ball_sets[v] and D[v, u] > 2.0 * nn_dist[v] + GEOM_TOL:
                    diagnostics["pruned"] += float(y_bar[u])
                    y_bar[u] = 0.0
                    continue
                keep.append(u)
            supers[v] = np.asarray(keep, dtype=int)

    x_bar = np.zeros_like(x2)
    for v in range(m):
        own = sorted(sp.balls[v].tolist(), key=lambda t: (D[v, t], t))
        priv = sorted((u for u in supers[v].tolist() if u not in ball_sets[v]),
                      key=lambda t: (D[v, t], t))
        peer = [] if nn_idx is None else sorted(
            sp.balls[nn_idx[v]].tolist(), key=lambda t: (D[v, t], t))
        rem = 1.0
        for u in own + priv + peer:
            if rem <= 1e-12:
                break
            step = min(rem, float(y_bar[u]) - float(x_bar[v, u]))
            if step <= 0.0:
                continue
            x_bar[v, u] += step
            rem -= step
        if rem > SUPPORT_TOL:
            raise StageError("structure",
                             f"location {sp.location_ids[v]} short of mass {rem:.3g}")

    dp = D ** sp.p
    cost = float(sp.weights @ (x_bar * dp).sum(axis=1))
    return SimpleNamespace(nn_idx=nn_idx, nn_dist=nn_dist, supers=supers, y_bar=y_bar,
                           x_bar=x_bar, cost_p=cost, diagnostics=diagnostics)


def reference_saturating_assignment(sp, y_own, y_bar, supers, nn_idx, D):
    """Service rebuilt from opening mass: copy its own part over the
    territory, then top up from the neighbor ball, nearest facilities
    first.  Also used on the half-integral openings later, where the same
    capacity argument applies.  (Its one cap became y_own over the
    territory and y_bar over the neighbor ball when facilities split.)"""
    m, F = sp.x.shape
    x_bar = np.zeros((m, F))
    for v in range(m):
        x_bar[v, supers[v]] = y_own[supers[v]]
        rem = 1.0 - float(x_bar[v].sum())
        if rem <= 1e-12:
            if rem < -1e-7:
                raise StageError("structure", f"super ball mass above one at {v}")
            continue
        if nn_idx is None:
            raise StageError("structure", f"single survivor short of mass {rem:.3g}")
        targets = sp.balls[nn_idx[v]]
        for u in sorted(targets.tolist(), key=lambda t: (D[v, t], t)):
            room = float(y_bar[u])
            if room <= 0.0:
                continue
            step = min(rem, room)
            x_bar[v, u] += step
            rem -= step
            if rem <= 1e-12:
                break
        if rem > SUPPORT_TOL:
            raise StageError("structure",
                             f"location {sp.location_ids[v]} short of mass {rem:.3g}")
    return x_bar


def bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


class Raised(str):
    """The message of a StageError, without the stage name."""


def outcome_of(f, *args):
    try:
        return f(*args)
    except StageError as exc:
        return Raised(str(exc).split(": ", 1)[1])


def same_outcome(got, want):
    """True when both raised (with the same message); False when neither
    did."""
    if isinstance(want, Raised):
        assert isinstance(got, Raised) and got == want
        return True
    assert not isinstance(got, Raised)
    return False


def meets_opening_rows(ss, y_own):
    """y_own meets the opening program's ball and territory rows, as stage
    5's own openings do."""
    return (all(y_own[b].sum() >= need for b, need in zip(ss.sp.balls, ss.ball_need))
            and all(y_own[t].sum() <= 1.0 for t in ss.territories))


def compare_structuring(sp, half=None):
    """Run the fills and their references on sp; assert bit-equal results.
    half, when given, holds openings y and their own part y_own for the
    fill of stage 5.  Returns how far the run got."""
    got = outcome_of(reassign_private_facilities, sp)
    want = outcome_of(reference_reassign_private_facilities, sp)
    if same_outcome(got, want):
        return "reassign raised"
    (x2, moves), (x2_ref, moves_ref) = got, want
    assert bits(x2) == bits(x2_ref)
    assert [(a, b, c, float(d).hex()) for a, b, c, d in moves] == \
        [(a, b, c, float(d).hex()) for a, b, c, d in moves_ref]
    supers = outcome_of(build_super_balls, x2, sp.balls)
    if isinstance(supers, Raised):
        return "super balls raised"
    got = outcome_of(enforce_structure, supers, sp)
    want = outcome_of(reference_enforce_structure, x2, sp.y, supers, sp)
    if same_outcome(got, want):
        return "enforce raised"
    assert float(got.cost_p).hex() == float(want.cost_p).hex()
    assert bits(got.x_bar) == bits(want.x_bar)
    assert bits(got.y_bar) == bits(want.y_bar)
    assert [bits(a) for a in got.supers] == [bits(a) for a in want.supers]
    m = len(sp.location_ids)
    if want.nn_idx is None:
        assert got.peer_dist.tolist() == [np.inf] * m
        assert [b.size for b in got.peer_balls] == [0] * m
        assert [bits(t) for t in got.territories] == [bits(b) for b in sp.balls]
    else:
        assert bits(got.peer_dist) == bits(want.nn_dist)
        assert [bits(b) for b in got.peer_balls] == [bits(sp.balls[w]) for w in want.nn_idx]
        assert bits(got.base_pow) == bits(want.nn_dist ** sp.p)
        assert got.territories is got.supers
    assert {k: float(v).hex() for k, v in got.diagnostics.items()} == \
        {k: float(v).hex() for k, v in want.diagnostics.items()}
    if half is None:
        return "done"
    if not meets_opening_rows(got, half.y_own):
        return "rows unmet"
    x = outcome_of(fill_service, sp, got.supers, got.peer_balls, half.y_own, half.y)
    x_ref = outcome_of(reference_saturating_assignment, sp, half.y_own, half.y,
                       got.territories, want.nn_idx, old_dist_to_facilities(sp))
    if not same_outcome(x, x_ref):
        assert bits(x) == bits(x_ref)
    return "done"


@st.composite
def structuring_inputs(draw):
    """Sparsified inputs on a line: disjoint balls around two to four
    survivors, facilities outside every ball, assignment and opening
    masses drawn from halves, thirds and amounts at and below the 1e-12
    stopping threshold."""
    n = draw(st.integers(3, 8))
    xs = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    inst = line_instance([float(v) for v in sorted(xs)])
    m = draw(st.integers(1, min(4, n)))
    locs = sorted(draw(st.permutations(range(n)))[:m])
    owner = [draw(st.integers(-1, m - 1)) for _ in range(n)]
    for v, u in enumerate(locs):
        owner[u] = v
    balls = [[u for u in range(n) if owner[u] == v] for v in range(m)]
    mass = st.sampled_from([0.0, 0.0, 1.0, 0.5, 0.25, 1.0 / 3.0, 2.0 / 3.0,
                            0.1, 1e-12, 4e-13, 3e-7])
    y = [draw(mass) for _ in range(n)]
    x = [[min(draw(mass), y[u]) for u in range(n)] for _ in range(m)]
    sp = manual_sp(inst, [f"p{u}" for u in locs], [1.0] * m, balls, x, y)
    y_own = np.array([draw(st.sampled_from([0.0, 0.5, 1.0])) for _ in range(n)])
    spare = np.array([draw(st.sampled_from([0.0, 0.0, 0.5])) for _ in range(n)])
    return sp, SimpleNamespace(y_own=y_own, y=np.minimum(y_own + spare, 1.0))


class TestFillsMatchReference:
    def test_solver_fronts(self):
        reached = set()
        for inst, rc, sp, ss, lp, members, half, opt in random_fronts(21, 16):
            reached.add(compare_structuring(sp, half))
        assert reached == {"done"}

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(structuring_inputs())
    def test_random_inputs(self, case):
        compare_structuring(*case)

    def test_refill_below_the_threshold_is_made(self):
        # p2 serves both survivors from outside their balls; p0 is nearer,
        # so p3's 4e-13 share there moves into p0's ball: a first step
        # below 1e-12 that is still taken
        inst = line_instance([0.0, 1.0, 3.0, 6.0])
        sp = manual_sp(inst, ["p0", "p3"], [1.0, 1.0], [[0], [3]],
                       [[0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 4e-13, 1.0 - 4e-13]],
                       [1.0, 0.0, 0.5, 1.0])
        x2, moves = reassign_private_facilities(sp)
        assert moves == [(1, 2, 0, 4e-13)]
        assert compare_structuring(sp) == "done"

    def test_tables_are_the_gathered_distances(self):
        for inst, rc, sp, ss, lp, members, half, opt in random_fronts(22, 8):
            D = old_dist_to_facilities(sp)
            assert bits(sp.fac_dist) == bits(D)
            assert bits(sp.fac_dist_p) == bits(D ** sp.p)
            assert bits(sp.loc_dist) == bits(old_location_dist(sp))
            red = sp.red
            li = [red.source.index(v) for v in red.location_ids]
            fi = [red.source.index(u) for u in red.facility_ids]
            assert bits(red.fac_dist_p) == bits(red.source.dist[np.ix_(li, fi)] ** red.p)


def stage_five_rows(inst, rc):
    """Stage 4's and stage 5's outputs of a real solve, and the service rows
    the pipeline hands stage 6."""
    rows = []

    def select(ss, x_tilde, *args, _select=fairrange.pipeline.select_centers):
        rows.append(x_tilde)
        return _select(ss, x_tilde, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fairrange.pipeline, "select_centers", select)
        stages = solve_stages(inst, rc, "select_centers")
    return stages["enforce_structure"], stages["solve_half_integral"], rows[0]


class TestStageFiveFill:
    """Stage 5 fills its service rows with stage 4's fill_service.  On the
    half-integral openings, whose territories hold at most one unit of own
    openings, that is the copy-then-top-up of
    reference_saturating_assignment, bit for bit, the single-survivor form
    included."""

    def cases(self):
        sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "perfbench"))
        from workloads import make_case

        for i in range(48):
            case = make_case("small-mix", 1, i)
            yield case.inst, case.rc
        for seed in range(15):
            for p in (1.0, 2.0, 3.0):
                inst = random_instance(seed, 10, 2, p)
                yield inst, random_ranges(seed, inst, 3, 2)

    def test_rows_match_copy_and_top_up(self):
        singles = 0
        for inst, rc in self.cases():
            ss, half, x_tilde = stage_five_rows(inst, rc)
            sp = ss.sp
            nn_idx, _ = nearest_surviving(old_location_dist(sp))
            want = reference_saturating_assignment(sp, half.y_own, half.y, ss.territories,
                                                   nn_idx, old_dist_to_facilities(sp))
            assert bits(x_tilde) == bits(want)
            singles += nn_idx is None
        assert singles >= 5
