"""The benchmark tracer against the solver it wraps.

perfbench/tracing.py counts rows and nonzeros through LinearProgram.rows;
these tests keep that read-only view in step with the program's arrays, so
a change to it fails here and not only in a traced benchmark run.  The
tracer, like the tests' solve_stages, sees a stage only when the solver
calls it through its module global; the last test checks that it does.
"""
import importlib
import os
import sys

import numpy as np

import fairrange.round
from fairrange.lp import build_fair_range_lp, solve_vertex
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
    widths = []

    def vertex(lp, **kw):
        widths.append(lp.num_vars)
        return solve_vertex(lp, **kw)

    monkeypatch.setattr(fairrange.round, "solve_vertex", vertex)
    merged = 0
    for seed in range(3):
        inst = random_instance(seed, 14, 2, 2.0)
        rc = random_ranges(seed, inst, 3, 2)
        out = solve_stages(inst, rc, "structured_program")["structured_program"]
        counts = {}
        _open_counts(counts, (), out)
        assert counts["round.open_rows"] == len(out[0].rhs)
        assert counts["round.open_cols"] == out[0].num_vars
        solve_half_integral(*out)
        assert counts["round.open_cols"] == widths.pop()
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
