import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairrange
from fairrange.cli import document_from_instance, main, serialize_document
from fairrange.errors import (CostRangeError, FairRangeError, InfeasibleRangesError,
                              StageError, UnrangedGroupError)
from fairrange.instance import RangeConstraints, validate_instance
from fairrange.pipeline import (
    CERTIFICATES,
    COST_CAP,
    approximation_study,
    brute_force_optimum,
    generate_figure1_instance,
    random_instance,
    random_ranges,
    report_to_text,
    solve_fair_range,
)

from conftest import (distance, enumerate_optimum, line_instance, matrix_instance,
                      solve_stages, submatrix, with_distance)
from oracles import mip_optimum


class TestBruteForce:
    def test_three_point_line(self):
        inst = line_instance([0.0, 1.0, 2.0])
        cost, centers = brute_force_optimum(inst, RangeConstraints(1, ((0, 1),)))
        assert centers == ("p1",)
        assert cost == pytest.approx(2.0)

    def test_all_facilities_cost_zero(self):
        inst = line_instance([0.0, 3.0, 7.0])
        cost, centers = brute_force_optimum(inst, RangeConstraints(3, ((0, 3),)))
        assert cost == 0.0
        assert centers == ("p0", "p1", "p2")

    def test_infeasible_ranges_raise(self):
        inst = line_instance([0.0, 1.0])
        with pytest.raises(InfeasibleRangesError):
            brute_force_optimum(inst, RangeConstraints(1, ((2, 3),)))

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setattr(fairrange.pipeline, "ORACLE_BUDGET", 1000)
        inst = random_instance(0, 30, 2, 1.0)
        with pytest.raises(ValueError, match="budget"):
            brute_force_optimum(inst, RangeConstraints(15, ((0, 15), (0, 15))))

    def test_ties_break_lexicographically(self):
        # two symmetric optima; the smaller center tuple wins
        inst = line_instance([0.0, 2.0])
        cost, centers = brute_force_optimum(inst, RangeConstraints(1, ((0, 1),)))
        assert cost == pytest.approx(2.0)
        assert centers == ("p0",)

    def test_tiny_costs_are_not_ties(self):
        # every cost is below 1e-11, so an absolute tie margin of 1e-12
        # kept p0 (1.091e-12) over p2 (2.81e-13)
        inst = line_instance([0.0, 3e-5, 4e-5, 1e-4], p=3.0)
        rc = RangeConstraints(1, ((0, 1),))
        for oracle in (brute_force_optimum, enumerate_optimum):
            cost, centers = oracle(inst, rc)
            assert tuple(centers) == ("p2",)
            assert cost == pytest.approx(2.81e-13, rel=1e-9)

    def test_matches_independent_enumeration(self, rng):
        for seed in range(6):
            inst = random_instance(seed, 9, 2, 2.0)
            rc = random_ranges(seed, inst, 3, 2)
            cost, _ = brute_force_optimum(inst, rc)
            ref, _ = enumerate_optimum(inst, rc)
            assert cost == pytest.approx(ref, rel=1e-12)


class TestMipOracle:
    def test_matches_enumeration_on_tiny_instances(self):
        cases = []
        for n, p in ((8, 1.0), (10, 2.0), (12, 3.0)):
            for seed in range(2):
                inst = random_instance(seed, n, 2, p)
                cases.append((inst, random_ranges(seed, inst, 3, 2)))
        # clients and facilities as two overlapping subsets, three groups
        inst = random_instance(5, 12, 3, 2.0)
        ids = inst.point_ids
        sub = matrix_instance(ids, inst.dist, ids[::2], inst.group_label,
                              {c: 1 + i % 3 for i, c in enumerate(ids[3:])}, 2.0)
        cases.append((sub, RangeConstraints(3, ((1, 2), (0, 1), (1, 2)))))
        for inst, rc in cases:
            obj, bound = mip_optimum(inst, rc)
            ref, _ = enumerate_optimum(inst, rc)
            assert obj == pytest.approx(ref, rel=1e-12)
            assert bound == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("n", [60, 80])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_solver_above_the_proven_bound(self, n, p):
        # sizes where stage 1 and both LPs do work, out of the enumerating
        # oracles' reach
        inst = random_instance(1, n, 4, p)
        rc = random_ranges(1, inst, 6, 4)
        _, bound = mip_optimum(inst, rc)
        report = solve_fair_range(inst, rc)
        assert report.reduced
        assert report.centers.cost_p >= bound * (1.0 - 1e-9)
        assert len(report.bounds) == 6 and all(b.passed for b in report.bounds)


class TestSolveFairRange:
    def test_infeasible_ranges_rejected_up_front(self):
        inst = line_instance([0.0, 1.0, 2.0])
        with pytest.raises(InfeasibleRangesError):
            solve_fair_range(inst, RangeConstraints(2, ((3, 4),)))

    def test_facility_group_without_range_rejected(self):
        # groups 1..3 but ranges for two groups only: a group-3 center is
        # bound by no window and used to undercut the oracle
        for seed in range(5):
            inst = random_instance(seed, 10, 3, 1.0)
            rc = RangeConstraints(3, ((0, 3), (0, 3)))
            with pytest.raises(UnrangedGroupError, match="group 3"):
                solve_fair_range(inst, rc)
            with pytest.raises(UnrangedGroupError, match="group 3"):
                brute_force_optimum(inst, rc)

    def test_unlabeled_facility_named(self):
        # a facility with no group label raised a bare KeyError('b');
        # validation still reports the missing label
        inst = matrix_instance(["a", "b"], [[0.0, 1.0], [1.0, 0.0]], ["a", "b"],
                               {"a": 1}, {"a": 1, "b": 1}, 1.0)
        assert "group: facility b has no group label" in validate_instance(inst).violations
        rc = RangeConstraints(1, ((0, 1),))
        with pytest.raises(UnrangedGroupError, match="facility 'b' has no group label"):
            solve_fair_range(inst, rc)
        with pytest.raises(UnrangedGroupError, match="facility 'b' has no group label"):
            brute_force_optimum(inst, rc)

    @pytest.mark.parametrize("label", ["1", 1.5, 1.0, True])
    def test_non_integer_label_named(self, label):
        # "1" raised a TypeError comparing it to 1, and 1.5 an
        # InfeasibleRangesError for a feasible pair of windows
        inst = line_instance([0.0, 1.0, 2.0], group_label={0: 1, 1: label, 2: 2})
        assert (f"group: facility p1 has non-integer label {label!r}"
                in validate_instance(inst).violations)
        rc = RangeConstraints(2, ((0, 2), (0, 2)))
        for solve in (solve_fair_range, brute_force_optimum):
            with pytest.raises(UnrangedGroupError,
                               match=re.escape(f"facility 'p1' has non-integer label {label!r}")):
                solve(inst, rc)

    def test_non_integer_window_refused_before_the_solve(self):
        # with a window of (0, 0.5) the selection flow opened one facility
        # of two; the integral window of the same meaning answers {p2, p3}
        inst = line_instance([0.0, 1.0, 2.0, 3.0], group_label={0: 1, 1: 1, 2: 2, 3: 2})
        with pytest.raises(ValueError, match="range 1 upper bound must be an integer"):
            RangeConstraints(2, ((0, 0.5), (0, 2)))
        rep = solve_fair_range(inst, RangeConstraints(2, ((0, 0), (0, 2))))
        assert rep.centers.centers == ("p2", "p3")
        assert all(b.passed for b in rep.bounds)

    def test_fairness_free_degeneration(self):
        inst = random_instance(3, 14, 1, 1.0)
        rc = RangeConstraints(4, ((0, 4),))
        rep = solve_fair_range(inst, rc)
        assert len(rep.centers.centers) == 4
        assert all(b.passed for b in rep.bounds)

    def test_relaxation_lower_bound(self):
        inst = random_instance(11, 10, 2, 1.0)
        rc = random_ranges(11, inst, 3, 2)
        rep = solve_fair_range(inst, rc)
        # the chosen centers are feasible for the relaxation on the reduced
        # clients, so their cost there can never beat its optimum
        assert rep.stage_costs["integral_clients"] >= rep.stage_costs["opt_d"] - 1e-9

    def test_oracle_never_beaten(self):
        for seed in range(10):
            p = [1.0, 2.0][seed % 2]
            inst = random_instance(seed, 10, 2, p)
            rc = random_ranges(seed, inst, 3, 2)
            rep = solve_fair_range(inst, rc)
            oracle, _ = brute_force_optimum(inst, rc)
            assert rep.centers.cost_p >= oracle - 1e-9

    def test_unreduced_opt_is_a_lower_bound(self):
        # without location reduction the relaxation optimum sits below every
        # integral selection; with reduction the snap can push it above
        inst = line_instance([0.0, 4.0, 9.0, 15.0, 22.0],
                             client_demands={"p0": 1, "p2": 2, "p4": 1})
        rc = RangeConstraints(3, ((1, 3),))
        rep = solve_fair_range(inst, rc)
        assert not rep.reduced
        oracle, _ = brute_force_optimum(inst, rc)
        assert rep.stage_costs["opt_d"] <= oracle + 1e-9

    def test_ranges_enforced_on_output(self):
        for seed in range(8):
            inst = random_instance(seed, 12, 3, 2.0)
            rc = random_ranges(seed, inst, 4, 3)
            rep = solve_fair_range(inst, rc)
            assert len(rep.centers.centers) == rc.k
            for cnt, (a, b) in zip(rep.centers.group_counts, rc.ranges):
                assert a <= cnt <= b

    def test_deterministic(self):
        inst = random_instance(7, 13, 2, 2.0)
        rc = random_ranges(7, inst, 3, 2)
        a = solve_fair_range(inst, rc)
        b = solve_fair_range(inst, rc)
        assert a.centers == b.centers
        assert a.stage_costs == b.stage_costs
        assert [bc.lhs for bc in a.bounds] == [bc.lhs for bc in b.bounds]

    def test_identity_path_when_few_clients(self):
        inst = line_instance([0.0, 5.0, 9.0, 20.0],
                             client_demands={"p0": 1, "p1": 2, "p2": 1})
        rep = solve_fair_range(inst, RangeConstraints(3, ((1, 3),)))
        assert not rep.reduced
        assert rep.centers.cost_p == pytest.approx(0.0, abs=1e-12)

    def test_certificates_and_stage_costs_populated(self):
        inst = random_instance(5, 12, 2, 2.0)
        rc = random_ranges(5, inst, 3, 2)
        rep = solve_fair_range(inst, rc)
        assert not rep.fallback
        names = [b.name for b in rep.bounds]
        assert names == ["reassigned-vs-opt", "structured-vs-opt",
                         "half-integral-vs-structured", "assignment-vs-half",
                         "integral-vs-half", "clients-lift"]
        assert all(b.passed for b in rep.bounds)
        for key in ("opt_d", "reassigned", "structured", "half_integral",
                    "assignment", "integral_sparse", "integral_clients",
                    "integral_original"):
            assert key in rep.stage_costs

    def test_capped_territory_answers(self):
        # both group-1 facilities share one ball while the lower bound
        # demands two openings there: a one-unit cap on the territory's
        # whole opening left the opening program without a solution; the
        # cap on the survivor's own use, with a spare column, has one
        inst = line_instance([0.0, 0.0, 100.0, 100.0],
                             facility_ids=[0, 1, 3],
                             group_label={0: 1, 1: 1, 3: 2},
                             client_demands={"p0": 1, "p2": 1})
        rc = RangeConstraints(3, ((2, 2), (1, 1)))
        rep = solve_fair_range(inst, rc)
        assert not rep.fallback
        assert rep.centers.centers == ("p0", "p1", "p3")
        assert rep.centers.cost_p == pytest.approx(0.0, abs=1e-12)
        assert len(rep.bounds) == 6 and all(b.passed for b in rep.bounds)

    def test_flow_without_selection_is_a_stage_error(self, monkeypatch):
        # the flow over half-integral openings always has a selection, so a
        # max flow below k is a fault, not a fallback
        monkeypatch.setattr(fairrange.round._Network, "max_flow", lambda self, s, t: 0)
        inst = random_instance(3, 12, 2, 2.0)
        with pytest.raises(StageError, match="round: no integral selection") as err:
            solve_fair_range(inst, random_ranges(3, inst, 3, 2))
        assert err.value.stage == "round"

    @pytest.mark.parametrize("seed", (12, 22, 23))
    def test_territories_over_one_unit_answer_at_large_p(self, seed):
        # 80 of these 159 solves put more than one unit of opening in a
        # territory, and fell back to a greedy selection before facilities
        # were split
        for p in range(48, 101):
            inst = random_instance(seed, 10, 2, float(p))
            rep = solve_fair_range(inst, random_ranges(seed, inst, 3, 2))
            assert not rep.fallback
            assert len(rep.bounds) == 6 and all(b.passed for b in rep.bounds), p

    def test_untyped_stage_errors_propagate(self, monkeypatch):
        # a stage error ends the solve, whatever its message
        def fail(*args):
            raise StageError("round", "no integral selection meets the ranges")

        monkeypatch.setattr(fairrange.pipeline, "select_centers", fail)
        inst = random_instance(3, 12, 2, 2.0)
        with pytest.raises(StageError):
            solve_fair_range(inst, random_ranges(3, inst, 3, 2))
        unbounded = fairrange.lp.SimplexResult("unbounded", None, None)
        monkeypatch.setattr(fairrange.pipeline, "solve_lp", lambda lp: unbounded)
        with pytest.raises(StageError, match="is unbounded"):
            solve_fair_range(inst, random_ranges(3, inst, 3, 2))

    def test_short_relaxation_row_is_a_stage_error(self, monkeypatch, tmp_path,
                                                    capsys):
        # a cover row 1e-6 short passes the LP residual gate, which scales
        # by 1 + |rhs|, but not the mass check of sparsification
        real = fairrange.pipeline.solve_lp

        def short_cover(lp):
            res = real(lp)
            cols = [j for j, _ in lp.rows[0].coeffs]
            x = res.x.copy()
            x[cols] *= (1.0 - 1e-6) / x[cols].sum()
            return dataclasses.replace(res, x=x)

        monkeypatch.setattr(fairrange.pipeline, "solve_lp", short_cover)
        inst = random_instance(3, 12, 2, 2.0)
        rc = random_ranges(3, inst, 3, 2)
        with pytest.raises(StageError, match="sparsify: assignment row 0 has mass"):
            solve_fair_range(inst, rc)
        path = tmp_path / "short.txt"
        path.write_text(serialize_document(document_from_instance(inst, rc)))
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert "sparsify: assignment row 0" in err and "Traceback" not in err

    def test_high_p_certifies_without_warnings(self):
        inst = line_instance([0.0, 1.0, 3.0], p=50.0)
        rc = RangeConstraints(2, ((0, 2),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve_fair_range(inst, rc)
        assert len(rep.bounds) == 6 and all(b.passed for b in rep.bounds)

    @pytest.mark.parametrize("p,seed", ((12.0, 15), (20.0, 6), (50.0, 1)))
    def test_large_p_half_integral_cost_does_not_cancel(self, p, seed):
        # the opening program's objective plus its constant read exactly 0.0
        # here while the openings cost more, and assignment-vs-half failed
        # against it; the stage cost must be its openings' exact cost (at
        # p=50, seed 1 each territory now opens its own location: exactly 0)
        inst = random_instance(seed, 10, 2, p)
        rc = random_ranges(seed, inst, 3, 2)
        rep = solve_fair_range(inst, rc)
        assert not rep.fallback
        assert all(b.passed for b in rep.bounds)
        stages = solve_stages(inst, rc, "solve_half_integral")
        ss, y = stages["enforce_structure"], stages["solve_half_integral"].y_own
        exact = Fraction(0)
        for v, t in enumerate(ss.territories):
            own = [Fraction(float(y[u])) for u in t]
            exact += Fraction(float(ss.sp.weights[v])) * (
                sum(Fraction(float(ss.sp.fac_dist_p[v, u])) * f for u, f in zip(t, own))
                + (1 - sum(own)) * Fraction(float(ss.base_pow[v])))
        assert rep.stage_costs["half_integral"] == pytest.approx(float(exact), rel=1e-12, abs=0.0)
        assert (exact > 0) == (p != 50.0)

    def test_overflowing_p_rejected_up_front(self, monkeypatch):
        # at p=1000 every seed's costs overflow; before the check all 20
        # ended in "structure: empty ball"
        def no_stage(*args):
            raise AssertionError("stage 1 ran")
        monkeypatch.setattr(fairrange.pipeline, "local_search_clustering", no_stage)
        for seed in range(20):
            inst = random_instance(seed, 10, 2, 1000.0)
            with pytest.raises(CostRangeError, match="above 1e.300; this instance accepts p up to"):
                solve_fair_range(inst, random_ranges(seed, inst, 3, 2))

    def test_no_overflow_failures_at_p_300(self):
        # what the check lets through at p=300 ends in an answer; never an
        # empty ball or a nan certificate as before the check, nor, now that
        # the half-integral cost is summed without cancellation, a failed
        # assignment-vs-half certificate
        outcomes = set()
        for seed in range(20):
            inst = random_instance(seed, 10, 2, 300.0)
            try:
                solve_fair_range(inst, random_ranges(seed, inst, 3, 2))
                outcomes.add("answer")
            except CostRangeError:
                outcomes.add("rejected")
        assert outcomes == {"answer", "rejected"}

    def test_named_largest_p_is_the_boundary(self):
        inst = random_instance(0, 10, 2, 1000.0)
        with pytest.raises(CostRangeError) as info:
            solve_fair_range(inst, random_ranges(0, inst, 3, 2))
        p_max = float(str(info.value).rsplit(" ", 1)[1])
        below, above = (fairrange.MetricInstance(
            inst.point_ids, inst.dist, inst.facility_ids, inst.group_label,
            inst.client_demands, p_max * f) for f in (1 - 1e-4, 1 + 1e-4))
        fairrange.pipeline._require_costs_in_range(below)
        with pytest.raises(CostRangeError):
            fairrange.pipeline._require_costs_in_range(above)

    @pytest.mark.parametrize("p", (1.0, 1.5))
    def test_negative_distance_rejected_up_front(self, p):
        # before the check these ended in "certificate reassigned-vs-opt
        # failed: -5 > -15" at p=1 and "nan > nan" at p=1.5
        inst = with_distance(random_instance(3, 8, 2, p), "p000", "p001", -1.0)
        with pytest.raises(CostRangeError, match=r"^distance d\(p000, p001\) = -1 is negative$"):
            solve_fair_range(inst, random_ranges(3, inst, 3, 2))

    def test_nan_distance_named(self):
        # the p check took the blame: "p=1 puts total weight * d_max^p at
        # nan, above 1e+300"
        inst = with_distance(random_instance(0, 8, 2, 1.0), "p000", "p001", math.nan)
        with pytest.raises(CostRangeError,
                           match=r"^distance d\(p000, p001\) = nan is not a number$"):
            solve_fair_range(inst, random_ranges(0, inst, 3, 2))

    def test_no_largest_p_named_below_one(self):
        # an infinite distance read "this instance accepts p up to 0"
        inst = with_distance(random_instance(0, 8, 2, 1.0), "p000", "p001", math.inf)
        with pytest.raises(CostRangeError) as info:
            solve_fair_range(inst, random_ranges(0, inst, 3, 2))
        assert str(info.value) == "distance d(p000, p001) = inf is not finite"
        # a weight of 1e299 leaves room for p up to 0.5 only
        heavy = matrix_instance(["a", "b"], [[0.0, 100.0], [100.0, 0.0]], ["a", "b"],
                                {"a": 1, "b": 1}, {"a": 10 ** 299, "b": 1}, 1.0)
        with pytest.raises(CostRangeError) as info:
            solve_fair_range(heavy, RangeConstraints(1, ((1, 1),)))
        assert str(info.value) == "p=1 puts total weight * d_max^p at 1e+301, above 1e+300"

    def test_infinite_distance_named_without_demand(self):
        # with zero demand everywhere this read "p=1 puts total weight *
        # d_max^p at nan, above 1e+300", naming no pair
        inst = with_distance(random_instance(0, 8, 2, 1.0), "p003", "p005", math.inf)
        bad = matrix_instance(inst.point_ids, inst.dist, inst.facility_ids, inst.group_label,
                              dict.fromkeys(inst.client_demands, 0), 1.0)
        with pytest.raises(CostRangeError,
                           match=r"^distance d\(p003, p005\) = inf is not finite$"):
            solve_fair_range(bad, random_ranges(0, bad, 3, 2))

    @pytest.mark.parametrize("demand, why", [(-3, "-3 is negative"),
                                             (math.nan, "nan is not finite"),
                                             (math.inf, "inf is not finite")],
                             ids=["negative", "nan", "inf"])
    def test_bad_demand_named(self, demand, why):
        # a negative demand was answered with a negative cost, and a nan
        # one refused as "d_max^p at nan", naming no client
        inst = random_instance(0, 8, 2, 1.0)
        bad = matrix_instance(inst.point_ids, inst.dist, inst.facility_ids, inst.group_label,
                              {**inst.client_demands, "p002": demand}, 1.0)
        with pytest.raises(CostRangeError, match=rf"^demand of client p002 = {why}$"):
            solve_fair_range(bad, random_ranges(0, bad, 3, 2))

    def test_zero_demand_is_answered(self):
        inst = random_instance(0, 8, 2, 1.0)
        zero = matrix_instance(inst.point_ids, inst.dist, inst.facility_ids, inst.group_label,
                               {**inst.client_demands, "p002": 0}, 1.0)
        report = solve_fair_range(zero, random_ranges(0, zero, 3, 2))
        assert report.centers.cost_p >= 0.0 and all(b.passed for b in report.bounds)

    @pytest.mark.parametrize("case", ["certificate", "dearer"])
    def test_zero_demand_client_changes_nothing_at_most_k_clients(self, case):
        # with no more clients than k the zero-demand client p0 was kept as
        # a location, whose LP rows cost nothing: the first instance failed
        # half-integral-vs-structured (6.41892 > 0), the second answered
        # p2 p3 at cost_p 173.26, twice the relaxation optimum
        if case == "certificate":
            coords = [[6.617, 0.69], [7.028, 3.19], [4.501, 9.806], [0.644, 1.837],
                      [1.083, 8.486]]
            facilities, groups = ("p0", "p1", "p2", "p4"), (2, 1, 1, 2)
            demands, rc, p = {"p0": 0, "p3": 1}, RangeConstraints(3, ((2, 2), (0, 3))), 2.0
            want, cost_p = ("p0", "p1", "p2"), 36.99
        else:
            coords = [[5.077, 3.927], [6.94, 6.691], [2.169, 4.068], [5.425, 4.554],
                      [5.988, 8.383], [1.583, 9.612], [7.854, 3.299], [0.975, 3.696],
                      [3.032, 5.429]]
            facilities, groups = ("p1", "p2", "p3", "p4", "p6", "p8"), (1, 2, 1, 1, 1, 2)
            demands, rc, p = {"p0": 0, "p5": 1}, RangeConstraints(2, ((0, 1), (0, 2))), 3.0
            want, cost_p = ("p1", "p8"), 86.75
        ids = [f"p{i}" for i in range(len(coords))]
        labels = dict(zip(facilities, groups))
        inst, without = (fairrange.instance_from_coords(ids, coords, facilities, labels, d, p)
                         for d in (demands, {c: w for c, w in demands.items() if w}))
        report = solve_fair_range(inst, rc)
        assert report.centers.centers == want and not report.fallback
        assert report.centers.cost_p == pytest.approx(cost_p, abs=0.005)
        assert len(report.bounds) == 6 and all(b.passed for b in report.bounds)
        assert report.diagnostics["locations"] == 1
        assert _answer_bits(report) == _answer_bits(solve_fair_range(without, rc))

    @pytest.mark.parametrize("demands", ["none", "zero"])
    def test_no_survivor_answers_at_cost_zero(self, demands):
        # no client, or every demand 0: no location survives, so no peer
        # and no ball, and the opening program holds only the range rows
        inst = random_instance(0, 8, 2, 2.0)
        clients = {} if demands == "none" else dict.fromkeys(inst.point_ids, 0)
        empty = matrix_instance(inst.point_ids, inst.dist, inst.facility_ids,
                                inst.group_label, clients, 2.0)
        rc = random_ranges(0, inst, 3, 2)
        report = solve_fair_range(empty, rc)
        assert report.diagnostics["locations"] == 0 and not report.fallback
        assert len(report.centers.centers) == rc.k
        assert all(a <= c <= b for c, (a, b) in zip(report.centers.group_counts, rc.ranges))
        assert report.centers.cost_p == 0.0
        assert set(report.stage_costs.values()) == {0.0}
        assert len(report.bounds) == 6 and all(b.passed for b in report.bounds)

    @pytest.mark.parametrize("p", (500.0, 1000.0))
    def test_large_p_short_distances_pass_every_certificate(self, p):
        # only d_max < 1 gets past p of about 323 under COST_CAP; in each of
        # these solves some certificate factor exp(p log c) overflows alone
        for seed in range(20):
            inst = random_instance(seed, 10, 2, p)
            short = fairrange.MetricInstance(inst.point_ids, inst.dist * 0.1,
                                             inst.facility_ids, inst.group_label,
                                             inst.client_demands, p)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = solve_fair_range(short, random_ranges(seed, inst, 3, 2))
            assert all(b.passed for b in rep.bounds)

    def test_report_text_format(self):
        inst = random_instance(2, 10, 2, 1.0)
        rc = random_ranges(2, inst, 3, 2)
        rep = solve_fair_range(inst, rc)
        text = report_to_text(rep)
        assert text.startswith("fair-range solve report\n")
        assert "centers: " in text and "PASS" in text
        cost_line = next(l for l in text.splitlines() if l.startswith("cost-p:"))
        assert float(cost_line.split(":")[1]) == rep.centers.cost_p


class TestFigure1:
    def test_divisibility_guards(self):
        with pytest.raises(ValueError, match="multiple of 6"):
            generate_figure1_instance(5, 24, 1.0, 2.0)
        with pytest.raises(ValueError, match="clusters"):
            generate_figure1_instance(6, 26, 1.0, 2.0)
        with pytest.raises(ValueError, match="triangle"):
            generate_figure1_instance(6, 24, 1.0, 3.0)
        with pytest.raises(ValueError, match="M > m"):
            generate_figure1_instance(6, 24, 2.0, 1.0)
        for k in (0, -6):       # 0 passed as a multiple of 6 and divided by zero
            with pytest.raises(ValueError, match="positive multiple of 6"):
                generate_figure1_instance(k, 24, 1.0, 2.0)
        for n in (0, -24):      # both split evenly, into no clusters or negative ones
            with pytest.raises(ValueError, match=rf"^n={n} must split"):
                generate_figure1_instance(6, n, 1.0, 2.0)

    def test_metric_instantiation_validates(self):
        fig = generate_figure1_instance(6, 24, 1.0, 2.0)
        assert validate_instance(fig).ok
        assert fig.group_sizes(2) == [12, 12]
        assert len(fig.client_ids) == 24

    def test_blue_client_mode(self):
        fig = generate_figure1_instance(6, 24, 1.0, 2.0, clients="blue")
        assert len(fig.client_ids) == 12
        assert all(c.startswith("b") for c in fig.client_ids)

    def test_cluster_geometry(self):
        fig = generate_figure1_instance(6, 24, 1.0, 2.0)
        # blue clusters of size 3n/4k = 3: intra m, inter M
        assert distance(fig, "b000", "b001") == 1.0
        assert distance(fig, "b000", "b003") == 2.0
        assert distance(fig, "r000", "r011") == 1.0
        assert distance(fig, "r000", "b000") == 2.0

    def test_ranges_beat_strict_quotas(self):
        fig = generate_figure1_instance(6, 24, 1.0, 2.0, clients="blue")
        o_range, c_range = brute_force_optimum(fig, RangeConstraints(6, ((2, 4), (2, 4))))
        o_strict, _ = brute_force_optimum(fig, RangeConstraints(6, ((3, 3), (3, 3))))
        assert o_range == pytest.approx(8.0)
        assert o_strict == pytest.approx(12.0)
        # the window optimum serves every blue cluster within m
        sub = submatrix(fig, fig.client_ids, c_range)
        assert sub.min(axis=1).max() <= 1.0 + 1e-12

    def test_wide_spread_illustration_widens_the_gap(self):
        # the guard rejects M > 2m, but the flag lets the wide spread
        # through; the cluster structure leaves no short two-leg path, so
        # the matrix happens to stay metric anyway
        fig = generate_figure1_instance(6, 24, 1.0, 100.0, allow_nonmetric=True)
        assert validate_instance(fig).ok
        rep = solve_fair_range(fig, RangeConstraints(6, ((2, 4), (2, 4))))
        o_strict, _ = brute_force_optimum(fig, RangeConstraints(6, ((3, 3), (3, 3))))
        assert o_strict >= 10.0 * rep.centers.cost_p


class TestStudy:
    def test_rows_ratios_and_summary(self):
        rows, summary = approximation_study(
            seeds=range(5), grid=[(8, 2, 2)], p_values=[1.0])
        assert len(rows) == 5
        for row in rows:
            assert row.ratio >= 1.0 - 1e-9
            assert math.isfinite(row.ratio)
        cell = summary[(8, 2, 2, 1.0)]
        assert cell["max_ratio"] >= 1.0 - 1e-9
        assert 0.0 <= cell["certificate_rate"] <= 1.0

    def test_reproducible(self):
        a, _ = approximation_study(seeds=[1, 2], grid=[(8, 2, 2)], p_values=[2.0])
        b, _ = approximation_study(seeds=[1, 2], grid=[(8, 2, 2)], p_values=[2.0])
        assert [(r.solver_cost, r.oracle_cost) for r in a] == \
            [(r.solver_cost, r.oracle_cost) for r in b]

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="budget"):
            approximation_study(seeds=[0], grid=[(40, 20, 2)], p_values=[1.0])


def test_random_instance_ids_sort_in_matrix_order():
    assert random_instance(0, 12, 4, 2.0).point_ids == tuple(
        f"p{i:03d}" for i in range(12))
    ids = random_instance(0, 1001, 4, 2.0).point_ids
    assert ids[-1] == "p1000"
    assert list(ids) == sorted(ids)


@pytest.mark.parametrize("ell", [0, -1])
def test_random_instance_refuses_fewer_than_one_group(ell):
    # ell=0 divided by zero when labelling the points
    with pytest.raises(ValueError, match="at least one group"):
        random_instance(0, 8, ell, 1.0)


def test_small_solve_imports_no_scipy():
    # below the HiGHS cutover the solver must not pay for importing scipy,
    # and no solve needs the exact arithmetic of fractions and decimal: the
    # p=40 solve prices stage 5 exactly, in Python ints
    code = ("import sys, fairrange\n"
            "inst = fairrange.random_instance(4, 15, 3, 2.0)\n"
            "fairrange.solve_fair_range(inst, fairrange.random_ranges(4, inst, 4, 3))\n"
            "inst = fairrange.random_instance(15, 10, 2, 40.0)\n"
            "fairrange.solve_fair_range(inst, fairrange.random_ranges(15, inst, 3, 2))\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('scipy', 'fractions', 'decimal')))\n")
    src = os.path.dirname(os.path.dirname(fairrange.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("seed,p", [(9, 55), (15, 70), (15, 71), (15, 72), (15, 79),
                                    (15, 84), (15, 85), (15, 89), (15, 92), (16, 79),
                                    (16, 90), (17, 34), (17, 38), (24, 70), (24, 78)])
def test_large_p_sweep_failures_certify(seed, p):
    # these solves raised half-integral-vs-structured while stage 5 summed
    # its objective in floats, where d(v,u)^p - d(v,v')^p cancels
    inst = random_instance(seed, 10, 2, float(p))
    report = solve_fair_range(inst, random_ranges(seed, inst, 3, 2))
    assert [b.name for b in report.bounds] == [name for name, _, _ in CERTIFICATES]
    assert all(b.passed for b in report.bounds)


def tight_window_case(seed, p):
    """random_instance(seed, n, ell, p) at n 8-15 with every window (c, c),
    c the count of a drawn witness center set in its group."""
    rng = np.random.default_rng([seed, 31])
    n, ell, k = int(rng.integers(8, 16)), int(rng.integers(1, 4)), int(rng.integers(2, 6))
    inst = random_instance(seed, n, ell, p)
    witness = rng.choice(n, size=k, replace=False)
    counts = np.bincount(np.asarray(inst.facility_groups)[witness], minlength=ell + 1)
    return inst, RangeConstraints(k, tuple((int(c), int(c)) for c in counts[1:]))


@pytest.mark.parametrize("p", (12.0, 20.0, 30.0, 40.0, 60.0, 80.0, 100.0))
def test_tight_windows_at_large_p_end_certified_or_typed(p):
    answered = 0
    for seed in range(40):
        inst, rc = tight_window_case(seed, p)
        try:
            report = solve_fair_range(inst, rc)
        except (InfeasibleRangesError, UnrangedGroupError, CostRangeError):
            continue
        assert len(report.bounds) == 6 and all(b.passed for b in report.bounds), seed
        assert list(report.centers.group_counts) == [a for a, _ in rc.ranges]
        answered += 1
    assert answered == 40


@st.composite
def tiny_instances(draw):
    """Instances of at most 8 points on a 5x5 grid, so points may coincide,
    at p 1, 1.5, 2, 3, 30 or the largest p the instance accepts (30 where
    the total demand is 0 or no distance exceeds 1), with ids that may sort against matrix order, built from coordinates or
    from their matrix, clients and facilities drawn as subsets of the
    points, demands that may be 0, one to three groups and now and then a
    label outside them, k up to |F|, and windows around a drawn witness
    center set that are often tight (alpha = beta), or now and then drawn
    with no witness."""
    n = draw(st.integers(1, 8))
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, 30.0, None]))
    ids = draw(st.permutations([f"p{i}" for i in range(n)]))
    coords = np.array([[draw(st.integers(0, 4)), draw(st.integers(0, 4))] for _ in ids],
                      dtype=float)
    facilities = [u for u in ids if draw(st.booleans())] or [ids[0]]
    ell = draw(st.integers(1, 3))
    label_range = st.integers(0, ell + 1) if draw(st.integers(0, 5)) == 0 else st.integers(1, ell)
    labels = {u: draw(label_range) for u in facilities}
    demands = {c: draw(st.integers(0, 3)) for c in ids if draw(st.booleans())}
    if p is None:
        weight = sum(demands.values())
        d_max = fairrange.instance_from_coords(ids, coords, facilities, labels, demands,
                                               1.0).distance_range[1]
        p = largest_accepted_p(weight, d_max) if weight and d_max > 1.0 else 30.0
    inst = fairrange.instance_from_coords(ids, coords, facilities, labels, demands, p)
    if draw(st.booleans()):
        inst = matrix_instance(ids, inst.dist, facilities, labels, demands, p)
    k = draw(st.integers(1, len(facilities)))
    witness = [labels[u] for u in draw(st.permutations(facilities))[:k]]
    ranges = []
    free = draw(st.integers(0, 5)) == 0
    for g in range(1, ell + 1):
        if free:
            a = draw(st.integers(0, 3))
            ranges.append((a, a + draw(st.integers(0, 2))))
            continue
        tight = draw(st.booleans())
        below, above = (0, 0) if tight else (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        ranges.append((max(0, witness.count(g) - below), witness.count(g) + above))
    return inst, RangeConstraints(k, tuple(ranges))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(tiny_instances())
def test_tiny_instances_end_certified_or_typed(case):
    # every solve ends in a certified answer no cheaper than the optimum,
    # or in one of the typed refusals
    inst, rc = case
    try:
        report = solve_fair_range(inst, rc)
    except (InfeasibleRangesError, UnrangedGroupError, CostRangeError):
        return
    assert len(report.bounds) == 6 and not report.fallback
    assert all(b.passed for b in report.bounds)
    assert all(a <= c <= b for c, (a, b) in zip(report.centers.group_counts, rc.ranges))
    optimum, _ = brute_force_optimum(inst, rc)
    assert report.centers.cost_p >= optimum * (1.0 - 1e-9)
    # stage 5's own openings meet every territory cap, and own plus spare
    # every split row; a facility that is not split has no spare
    stages = solve_stages(inst, rc, "solve_half_integral")
    ss, half = stages["enforce_structure"], stages["solve_half_integral"]
    assert all(half.y_own[t].sum() <= 1.0 for t in ss.territories)
    assert np.all((half.y_own <= half.y) & (half.y <= 1.0))
    unsplit = np.setdiff1d(np.arange(len(half.y)), ss.split)
    assert half.y_own[unsplit].tolist() == half.y[unsplit].tolist()


def _permuted(inst, seed):
    """inst with the rows and columns of its matrix in another order, and
    the same ids, labels and demands."""
    perm = np.random.default_rng(seed).permutation(inst.n)
    return matrix_instance([inst.point_ids[i] for i in perm], inst.dist[np.ix_(perm, perm)],
                           inst.facility_ids, inst.group_label, inst.client_demands, inst.p)


def _answer_bits(report):
    return (report.centers.centers, {k: v.hex() for k, v in report.stage_costs.items()},
            report.diagnostics["baseline_swaps"], report.fallback)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_answers_do_not_depend_on_matrix_order(p):
    # ids in matrix order read every block through a view of the matrix,
    # the permuted copy gathers each one: the answers must be the same bits
    cases = [(random_instance(s, 10, 2, p), s) for s in range(3)]
    cases.append((random_instance(11, 300, 4, p), 11))     # three column blocks
    inst = random_instance(7, 40, 3, p)
    cases.append((inst, 7))
    ids = inst.point_ids
    cases.append((matrix_instance(ids, inst.dist, ids[::5], inst.group_label,
                                  {c: 1 + i % 3 for i, c in enumerate(ids)}, p), 7))
    # three clients for k = 4: the locations are the clients themselves
    cases.append((matrix_instance(ids, inst.dist, ids, inst.group_label,
                                  {c: 2 for c in ids[1::14]}, p), 7))
    reduced = []
    for inst, s in cases:
        rc = random_ranges(s, inst, 4 if inst.n > 10 else 3, max(inst.group_label.values()))
        want = solve_fair_range(inst, rc)
        reduced.append(want.reduced)
        assert _answer_bits(solve_fair_range(_permuted(inst, s), rc)) == _answer_bits(want)
    assert reduced == [True] * 6 + [False]


def largest_accepted_p(weight, d_max):
    """The largest float p at which weight * d_max^p stays within COST_CAP,
    the last p before PowerRangeError (weight > 0, d_max > 1)."""
    def accepted(p):
        return weight * np.float64(d_max) ** p <= COST_CAP
    p = (math.log(COST_CAP) - math.log(weight)) / math.log(d_max)
    while accepted(math.nextafter(p, math.inf)):
        p = math.nextafter(p, math.inf)
    while not accepted(p):
        p = math.nextafter(p, 0.0)
    return p


@st.composite
def few_client_instances(draw):
    """Instances of 4 to 8 distinct points on a 10x10 grid with no more
    clients than k, at least one of them with demand 0, and windows around
    a drawn witness center set.  The points are distinct because a
    zero-demand client on the same spot as a client with demand and a lower
    id would take that client's demand, and its id, as the location.  p is
    1, 2, 3, 12, 30 or the largest p the instance accepts; an instance of
    zero total demand has no such p and takes 30."""
    n = draw(st.integers(4, 8))
    cells = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                          min_size=n, max_size=n, unique=True))
    ids = [f"p{i}" for i in range(n)]
    facilities = sorted(draw(st.lists(st.sampled_from(ids), min_size=1, unique=True)))
    ell = draw(st.integers(1, 2))
    labels = {u: draw(st.integers(1, ell)) for u in facilities}
    k = draw(st.sampled_from(range(1, len(facilities) + 1)))
    clients = draw(st.lists(st.sampled_from(ids), min_size=min(2, k), max_size=k, unique=True))
    zeros = draw(st.sampled_from(range(1, len(clients) + 1)))
    demands = {c: 0 if i < zeros else draw(st.integers(1, 3)) for i, c in enumerate(clients)}
    witness = [labels[u] for u in draw(st.permutations(facilities))[:k]]
    ranges = tuple((max(0, witness.count(g) - draw(st.integers(0, 1))),
                    witness.count(g) + draw(st.integers(0, 1))) for g in range(1, ell + 1))

    def build(p):
        return fairrange.instance_from_coords(ids, np.array(cells, dtype=float),
                                              facilities, labels, demands, p)
    # about half the draws at large p: 12, 30 or the instance's largest
    p = draw(st.sampled_from([1.0, 2.0, 3.0]) | st.sampled_from([12.0, 30.0, None]))
    if p is None:
        weight = sum(demands.values())
        p = largest_accepted_p(weight, build(1.0).distance_range[1]) if weight else 30.0
    return build(p), RangeConstraints(k, ranges)


def _outcome(inst, rc):
    """A solve's answer bits, or the type and message of its typed error."""
    try:
        return _answer_bits(solve_fair_range(inst, rc))
    except FairRangeError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(few_client_instances())
def test_zero_demand_clients_change_nothing(case):
    # the objective gives a zero-demand client no weight, so dropping it
    # must leave the same answer, bit for bit, also when the clients
    # themselves are the locations, or the same typed error
    inst, rc = case
    kept = {c: w for c, w in inst.client_demands.items() if w > 0}
    without = fairrange.instance_from_coords(inst.point_ids, inst.coords, inst.facility_ids,
                                             inst.group_label, kept, inst.p)
    assert _outcome(inst, rc) == _outcome(without, rc)


def _relaxation_rounds(monkeypatch):
    """Wrap the pipeline's solve_lp; returns a list that gets each call's
    program size and result."""
    results = []
    real = fairrange.pipeline.solve_lp

    def recording(lp):
        results.append((lp.num_vars, real(lp)))
        return results[-1][1]
    monkeypatch.setattr(fairrange.pipeline, "solve_lp", recording)
    return results


class TestCoreRelaxation:
    """Stage 2 on a core of each location's nearest facilities, certified
    by the Lagrangian bound over every facility."""

    def test_pricing_a_one_facility_core_keeps_the_answers(self, monkeypatch):
        sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "perfbench"))
        from workloads import make_case

        monkeypatch.setattr(fairrange.lp, "_CORE_PER_GROUP", 1)
        results = _relaxation_rounds(monkeypatch)
        # at width 1, cases 18 and 45 of the 96 need a second round
        cases = [make_case("assign-lp", 1, i) for i in range(20)]
        sizes, core = [], []
        for case in cases:
            results.clear()
            rep = solve_fair_range(case.inst, case.rc)
            sizes.append([n for n, _ in results])
            core.append((rep.centers.centers, rep.centers.cost_p.hex()))
        monkeypatch.setattr(fairrange.pipeline, "assignment_core", lambda dp, groups: dp)
        whole = []
        for case in cases:
            results.clear()
            rep = solve_fair_range(case.inst, case.rc)
            assert len(results) == 1
            whole.append((rep.centers.centers, rep.centers.cost_p.hex()))
        assert core == whole
        assert sizes[0] == [340] and len(sizes[18]) == 2

        # the second round adds to the core exactly the left-out pairs its
        # cover duals price below zero
        monkeypatch.undo()
        monkeypatch.setattr(fairrange.lp, "_CORE_PER_GROUP", 1)
        results = _relaxation_rounds(monkeypatch)
        case = cases[18]
        red = solve_stages(case.inst, case.rc, "reduce_locations")["reduce_locations"]
        dp, w = red.fac_dist_p, red.weights
        fairrange.pipeline._assignment_relaxation(dp, w, case.inst.facility_groups, case.rc)
        core = fairrange.lp.assignment_core(dp, case.inst.facility_groups)
        lam = results[0][1].duals[:len(w)]
        priced = np.isinf(core) & (lam[:, None] > w[:, None] * dp)
        assert [n for n, _ in results] == [340, 340 + priced.sum()]

    def test_an_infeasible_core_falls_back_to_the_whole_program(self, monkeypatch):
        # two locations at the ends of a line of 250 one-group facilities
        # and k=1: the core, each end's 3 nearest, needs two open units
        from fairrange.baseline import reduce_locations

        xs = np.linspace(0.0, 1000.0, 250)
        inst = line_instance(list(xs), client_demands={0: 1, 249: 2})
        rc = RangeConstraints(1, ((1, 1),))
        red = reduce_locations(inst, inst.client_ids)
        results = _relaxation_rounds(monkeypatch)
        table, res = fairrange.pipeline._assignment_relaxation(
            red.fac_dist_p, red.weights, inst.facility_groups, rc)
        assert [r.status for _, r in results] == ["infeasible", "optimal"]
        assert table is red.fac_dist_p
        assert res.objective == pytest.approx(1000.0)
        assert solve_fair_range(inst, rc).centers.centers == ("p249",)

    @pytest.mark.parametrize("p", (12.0, 20.0))
    def test_large_p_core_optimum_is_not_above_the_whole_one(self, monkeypatch, p):
        # 4 locations x 60 facilities: a 300-variable whole program, whose
        # core (84 variables) is put on HiGHS by lowering the cutover
        from fairrange.lp import build_fair_range_lp, solve_lp

        answered = 0
        for seed in range(10):
            inst = random_instance(seed, 60, 2, p)
            rc = random_ranges(seed, inst, 4, 2)
            red = solve_stages(inst, rc, "reduce_locations")["reduce_locations"]
            args = (red.fac_dist_p, red.weights, inst.facility_groups)
            whole = solve_lp(build_fair_range_lp(*args, rc.k, rc.ranges))
            with monkeypatch.context() as mp:
                mp.setattr(fairrange.lp, "HIGHS_CUTOVER", 80)
                results = _relaxation_rounds(mp)
                table, core = fairrange.pipeline._assignment_relaxation(*args, rc)
            assert results[0][0] == 84 and results[0][1].backend == "scipy"
            assert core.objective <= whole.objective * (1.0 + 1e-9)
            answered += 1
        assert answered == 10
