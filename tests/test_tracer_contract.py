"""The benchmark tracer against the solver it wraps.

perfbench/tracing.py counts rows and nonzeros through LinearProgram.rows,
and the opening program's constraint sets through its own rows; these
tests keep those read-only views in step with the programs, so a change to
them fails here and not only in a traced benchmark run.  The
tracer, like the tests' solve_stages, sees a stage only when the solver
calls it through its module global; the last test checks that it does.
"""
import importlib
import os
import sys

import numpy as np

import fairrange.round
from fairrange.lp import build_fair_range_lp
from fairrange.pipeline import random_instance, random_ranges, solve_fair_range
from fairrange.round import solve_half_integral

from conftest import solve_stages

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from tracing import STAGES, _open_counts, _relax_counts  # noqa: E402
from workloads import make_case  # noqa: E402


def test_relaxation_counts():
    rng = np.random.default_rng(5)
    dp = rng.uniform(0.0, 10.0, size=(4, 9))
    lp = build_fair_range_lp(dp, [1.0, 2.0, 1.0, 3.0], [1, 2, 3] * 3, 3,
                             ((0, 2), (1, 2), (0, 1)))
    counts = {}
    _relax_counts(counts, (), lp)
    assert counts["lp.relax_rows"] == len(lp.rhs) == 4 + 2 * 3 + 1 + 4 * 9
    assert counts["lp.relax_nnz"] == len(lp.indices) == 4 * 9 + 2 * 9 + 9 + 2 * 4 * 9
    assert counts["lp.relax_cols"] == lp.num_vars == 4 * 9 + 9


def test_opening_program_counts(monkeypatch):
    # the opening program's rows are its constraint sets: the card row, a
    # window per group, a pair per split facility, and a ball and a
    # territory per location; its columns are the flow's column arcs
    vertices = []

    def vertex(program, _solve=fairrange.round.solve_vertex):
        vertices.append((program.num_vars, _solve(program)))
        return vertices[-1][1]

    monkeypatch.setattr(fairrange.round, "solve_vertex", vertex)
    count_vertex = next(c for m, a, _, c in STAGES if (m, a) == ("fairrange.round", "solve_vertex"))
    merged = 0
    for seed in range(3):
        inst = random_instance(seed, 14, 2, 2.0)
        rc = random_ranges(seed, inst, 3, 2)
        stages = solve_stages(inst, rc, "structured_program")
        out, ss = stages["structured_program"], stages["enforce_structure"]
        counts = {}
        _open_counts(counts, (), out)
        assert counts["round.open_rows"] == len(out[0].rows) == \
            1 + len(rc.ranges) + len(ss.split) + 2 * len(ss.territories)
        assert counts["round.open_cols"] == out[0].num_vars == len(out[1])
        solve_half_integral(*out)
        width, result = vertices.pop()
        assert counts["round.open_cols"] == width
        count_vertex(counts, (out[0],), result)
        assert counts["round.open_iterations"] == result.iterations > 0
        merged += counts["round.open_cols"] < len(inst.facility_ids)
    assert merged > 0


def test_every_traced_stage_is_called_through_its_global(monkeypatch):
    # scipy.optimize.linprog is left out: nothing in the solver calls it
    wanted = {(m, a) for m, a, _, _ in STAGES if m.startswith("fairrange.")}
    calls = {}
    for modname, attr in wanted:
        mod = importlib.import_module(modname)

        def counted(*args, _key=(modname, attr), _fn=getattr(mod, attr), **kw):
            out = _fn(*args, **kw)
            calls.setdefault(_key, []).append(out)
            return out
        monkeypatch.setattr(mod, attr, counted)
    for workload, backend in (("small-mix", "simplex"), ("assign-lp", "scipy")):
        calls.clear()
        case = make_case(workload, 1, 0)
        report = solve_fair_range(case.inst, case.rc)
        assert not report.fallback
        assert [r.backend for r in calls[("fairrange.pipeline", "solve_lp")]] == [backend]
        assert set(calls) == wanted
