import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fairrange
from fairrange.cli import document_from_instance, main, serialize_document
from fairrange.errors import (CostRangeError, InfeasibleRangesError, StageError,
                              UnrangedGroupError)
from fairrange.instance import RangeConstraints, validate_instance
from fairrange.pipeline import (
    SolverConfig,
    approximation_study,
    brute_force_optimum,
    generate_figure1_instance,
    random_instance,
    random_ranges,
    report_to_text,
    solve_fair_range,
)

from conftest import enumerate_optimum, line_instance, matrix_instance, with_distance


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

    def test_budget_guard(self):
        inst = random_instance(0, 30, 2, 1.0)
        with pytest.raises(ValueError, match="budget"):
            brute_force_optimum(inst, RangeConstraints(15, ((0, 15), (0, 15))),
                                budget=1000)

    def test_ties_break_lexicographically(self):
        # two symmetric optima; the smaller center tuple wins
        inst = line_instance([0.0, 2.0])
        cost, centers = brute_force_optimum(inst, RangeConstraints(1, ((0, 1),)))
        assert cost == pytest.approx(2.0)
        assert centers == ("p0",)

    def test_matches_independent_enumeration(self, rng):
        for seed in range(6):
            inst = random_instance(seed, 9, 2, 2.0)
            rc = random_ranges(seed, inst, 3, 2)
            cost, _ = brute_force_optimum(inst, rc)
            ref, _ = enumerate_optimum(inst, rc)
            assert cost == pytest.approx(ref, rel=1e-12)


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

    def test_capped_territory_fallback(self):
        # both group-1 facilities share one ball while the lower bound
        # demands two openings there: the opening program has no solution,
        # yet an integral selection exists and must be returned
        inst = line_instance([0.0, 0.0, 100.0, 100.0],
                             facility_ids=[0, 1, 3],
                             group_label={0: 1, 1: 1, 3: 2},
                             client_demands={"p0": 1, "p2": 1})
        rc = RangeConstraints(3, ((2, 2), (1, 1)))
        rep = solve_fair_range(inst, rc)
        assert rep.fallback
        assert rep.centers.centers == ("p0", "p1", "p3")
        assert rep.centers.cost_p == pytest.approx(0.0, abs=1e-12)
        assert rep.diagnostics["fallback_reason"] == \
            "round: scaled structured program is infeasible"

    def test_flow_rounding_fallback(self, monkeypatch):
        # a flow network without a feasible flow: select_centers raises
        # NoIntegralSelectionError and the direct selection answers
        monkeypatch.setattr(fairrange.round, "solve_flow_lower_bounds",
                            lambda net: None)
        inst = random_instance(3, 12, 2, 2.0)
        rep = solve_fair_range(inst, random_ranges(3, inst, 3, 2))
        assert rep.fallback
        assert rep.diagnostics["fallback_reason"] == \
            "round: no integral selection meets the ranges"
        assert {b.name for b in rep.bounds} == {
            "reassigned-vs-opt", "structured-vs-opt", "clients-lift"}
        assert all(b.passed for b in rep.bounds)

    def test_untyped_stage_errors_propagate(self, monkeypatch):
        # the fallback follows the exception type, not the message text
        def fail(*args):
            raise StageError("round", "no integral selection meets the ranges")

        monkeypatch.setattr(fairrange.pipeline, "select_centers", fail)
        inst = random_instance(3, 12, 2, 2.0)
        with pytest.raises(StageError):
            solve_fair_range(inst, random_ranges(3, inst, 3, 2))
        unbounded = fairrange.lp.SimplexResult("unbounded", None, None)
        monkeypatch.setattr(fairrange.round, "solve_vertex", lambda lp: unbounded)
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
        # here, and assignment-vs-half failed against it
        inst = random_instance(seed, 10, 2, p)
        rep = solve_fair_range(inst, random_ranges(seed, inst, 3, 2))
        assert not rep.fallback
        assert rep.stage_costs["half_integral"] > 0.0
        assert all(b.passed for b in rep.bounds)

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
        assert str(info.value) == "p=1 puts total weight * d_max^p at inf, above 1e+300"
        # a weight of 1e299 leaves room for p up to 0.5 only
        heavy = matrix_instance(["a", "b"], [[0.0, 100.0], [100.0, 0.0]], ["a", "b"],
                                {"a": 1, "b": 1}, {"a": 10 ** 299, "b": 1}, 1.0)
        with pytest.raises(CostRangeError) as info:
            solve_fair_range(heavy, RangeConstraints(1, ((1, 1),)))
        assert str(info.value) == "p=1 puts total weight * d_max^p at 1e+301, above 1e+300"

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
        assert fig.d("b000", "b001") == 1.0
        assert fig.d("b000", "b003") == 2.0
        assert fig.d("r000", "r011") == 1.0
        assert fig.d("r000", "b000") == 2.0

    def test_ranges_beat_strict_quotas(self):
        fig = generate_figure1_instance(6, 24, 1.0, 2.0, clients="blue")
        o_range, c_range = brute_force_optimum(fig, RangeConstraints(6, ((2, 4), (2, 4))))
        o_strict, _ = brute_force_optimum(fig, RangeConstraints(6, ((3, 3), (3, 3))))
        assert o_range == pytest.approx(8.0)
        assert o_strict == pytest.approx(12.0)
        # the window optimum serves every blue cluster within m
        sub = fig.submatrix(fig.client_ids, c_range)
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


def test_small_solve_imports_no_scipy():
    # below the HiGHS cutover the solver must not pay for importing scipy
    code = ("import sys, fairrange\n"
            "inst = fairrange.random_instance(4, 15, 3, 2.0)\n"
            "fairrange.solve_fair_range(inst, fairrange.random_ranges(4, inst, 4, 3))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(fairrange.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
