"""Tests of the benchmark's own pieces: oracle, output check and tracing.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import dataclasses
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import fairrange.pipeline  # noqa: E402
import fairrange.round  # noqa: E402
from fairrange import solve_fair_range  # noqa: E402
from fairrange.pipeline import brute_force_optimum  # noqa: E402
from run import UNITS  # noqa: E402
from tracing import Tracer, mean_counts  # noqa: E402
from workloads import (WORKLOADS, answer_digest, answer_hash,  # noqa: E402
                       check_report, exhaustive_optimum, make_case)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_file_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNITS[metric["name"]] == metric["unit"], metric["name"]


@pytest.fixture(scope="module")
def small_cases():
    return [make_case("small-mix", 7, i) for i in range(24)]


def test_exhaustive_optimum_matches_brute_force(small_cases):
    for case in small_cases:
        ours = exhaustive_optimum(case.inst, case.rc)
        theirs, _ = brute_force_optimum(case.inst, case.rc)
        assert ours == pytest.approx(theirs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cases_depend_only_on_seed_and_index(workload):
    a, b = make_case(workload, 3, 5), make_case(workload, 3, 5)
    assert np.array_equal(a.inst.dist, b.inst.dist) and a.rc == b.rc
    assert a.inst.client_demands == b.inst.client_demands
    for other in (make_case(workload, 4, 5), make_case(workload, 3, 6)):
        assert not np.array_equal(a.inst.dist, other.inst.dist)


def _answered(cases):
    case = cases[0]
    case.oracle_p = exhaustive_optimum(case.inst, case.rc)
    return case, solve_fair_range(case.inst, case.rc)


def test_check_accepts_the_solver_and_rejects_bad_answers(small_cases):
    case, rep = _answered(small_cases)
    assert check_report(case, rep) is None

    def with_centers(**kw):
        return dataclasses.replace(rep, centers=dataclasses.replace(rep.centers, **kw))

    assert "centers" in check_report(case, with_centers(centers=rep.centers.centers[:-1]))
    assert "recomputed" in check_report(case, with_centers(cost_p=rep.centers.cost_p * 1.01))
    low = dataclasses.replace(case, oracle_p=rep.centers.cost_p * 2.0)
    assert "exact optimum" in check_report(low, rep)
    broken = [dataclasses.replace(rep.bounds[0], passed=False)] + rep.bounds[1:]
    assert "failed" in check_report(case, dataclasses.replace(rep, bounds=broken))
    assert "certificates" in check_report(case, dataclasses.replace(rep, bounds=rep.bounds[:-1]))
    counts = {}
    for c in rep.centers.centers:
        g = case.inst.group_label[c] - 1
        counts[g] = counts.get(g, 0) + 1
    g = max(counts)
    ranges = list(case.rc.ranges)
    ranges[g] = (0, counts[g] - 1)
    tight = dataclasses.replace(case, rc=dataclasses.replace(
        case.rc, ranges=tuple(ranges)))
    assert "window" in check_report(tight, rep)


def test_digest_follows_centers_and_cost_bits(small_cases):
    case, rep = _answered(small_cases)
    base = answer_hash(rep)
    assert base == answer_hash(solve_fair_range(case.inst, case.rc))
    nudged = dataclasses.replace(rep, centers=dataclasses.replace(
        rep.centers, cost_p=float(np.nextafter(rep.centers.cost_p, np.inf))))
    assert answer_hash(nudged) != base
    assert answer_digest([base, "raised StageError"]) != \
        answer_digest(["raised StageError", base])


def test_tracer_records_stages_and_restores_them(small_cases):
    case, plain = _answered(small_cases)
    solve_lp, solve_vertex = fairrange.pipeline.solve_lp, fairrange.round.solve_vertex
    tracer = Tracer()
    tracer.install()
    try:
        rep = tracer.solve(solve_fair_range, case.inst, case.rc)
    finally:
        tracer.restore()
    assert fairrange.pipeline.solve_lp is solve_lp
    assert fairrange.round.solve_vertex is solve_vertex
    assert answer_hash(rep) == answer_hash(plain)
    names = {s[0] for s in tracer.spans}
    assert {"pipeline.solve", "lp.relax_build", "lp.relax_solve",
            "round.vertex", "baseline.local_search"} <= names
    vertex = next(s for s in tracer.spans if s[0] == "round.vertex")
    assert tracer.spans[vertex[3]][0] == "round.open_solve"
    times = tracer.stage_times()
    solve_s = times["solve_s"][0]
    inner = sum(v[0] for m, v in times.items()
                if m not in ("solve_s", "pipeline.self_s", "round.vertex_s"))
    assert times["pipeline.self_s"][0] == pytest.approx(solve_s - inner, abs=1e-9)
    assert 0.0 < times["pipeline.self_s"][0] < solve_s
    counts = mean_counts(tracer.counts)
    assert counts["lp.relax_highs_frac"] == 0.0
    assert counts["round.partition_sets"] == plain.diagnostics["partition_sets"]
    assert counts["baseline.swaps"] == plain.diagnostics["baseline_swaps"]
    assert counts["sparsify.locations"] == plain.diagnostics["locations"]
    assert counts["structure.reassign_moves"] == plain.diagnostics["reassign_moves"]
