"""Spans and counts around the solver's stage functions, for the traced run.

The pipeline looks its stages up as module globals of fairrange.pipeline
(and the opening LP's vertex solver as fairrange.round.solve_vertex), so
replacing those names from here records every stage without touching the
solver.  Spans are (name, start, end, parent, solve id); they are kept in
memory and written once, when the run ends.  A span's self time is its
duration minus that of its direct children; the solver is single-threaded,
so children never overlap.
"""
from __future__ import annotations

import json
import statistics
import time
import tracemalloc

MIB = float(1 << 20)


def _relax_counts(c, args, lp):
    nnz = sum(len(row.coeffs) for row in lp.rows)
    c["lp.relax_rows"] = len(lp.rows)
    c["lp.relax_cols"] = lp.num_vars
    c["lp.relax_nnz"] = nnz
    c["lp.relax_dense_mib"] = len(lp.rows) * lp.num_vars * 8 / MIB


def _relax_solve_counts(c, args, res):
    c["lp.relax_highs_frac"] = 1.0 if res.backend == "scipy" else 0.0
    if res.backend != "scipy":
        c["lp.relax_iterations"] = res.iterations


def _open_counts(c, args, out):
    lp, _ = out
    c["round.open_rows"] = len(lp.rows)
    c["round.open_cols"] = lp.num_vars


# module, attribute, span name, count function
STAGES = (
    ("fairrange.pipeline", "local_search_clustering", "baseline.local_search",
     lambda c, a, out: c.__setitem__("baseline.swaps", out[2])),
    ("fairrange.pipeline", "reduce_locations", "baseline.reduce",
     lambda c, a, out: c.__setitem__("baseline.locations", len(out.location_ids))),
    ("fairrange.pipeline", "build_fair_range_lp", "lp.relax_build", _relax_counts),
    ("fairrange.pipeline", "solve_lp", "lp.relax_solve", _relax_solve_counts),
    ("scipy.optimize", "linprog", "lp.highs",
     lambda c, a, out: c.__setitem__("lp.relax_iterations", int(out.nit))),
    ("fairrange.pipeline", "sparsify", "sparsify",
     lambda c, a, out: c.__setitem__("sparsify.locations", len(out.location_ids))),
    ("fairrange.pipeline", "reassign_private_facilities", "structure.reassign",
     lambda c, a, out: c.__setitem__("structure.reassign_moves", len(out[1]))),
    ("fairrange.pipeline", "build_super_balls", "structure.super_balls", None),
    ("fairrange.pipeline", "enforce_structure", "structure.enforce", None),
    ("fairrange.pipeline", "structured_program", "round.open_build", _open_counts),
    ("fairrange.pipeline", "solve_half_integral", "round.open_solve", None),
    ("fairrange.round", "solve_vertex", "round.vertex",
     lambda c, a, out: c.__setitem__("round.open_iterations", out.iterations)),
    ("fairrange.pipeline", "select_centers", "round.select",
     lambda c, a, out: c.__setitem__("round.partition_sets", out[1].count)),
    ("fairrange.pipeline", "build_center_solution", "instance.cost", None),
)

# per-solve time metrics: metric name -> span names summed within a solve
TIME_METRICS = {
    "lp.relax_build_s": ("lp.relax_build",),
    "lp.relax_solve_s": ("lp.relax_solve",),
    "baseline.local_search_s": ("baseline.local_search",),
    "baseline.reduce_s": ("baseline.reduce",),
    "round.open_build_s": ("round.open_build",),
    "round.open_solve_s": ("round.open_solve",),
    "round.vertex_s": ("round.vertex",),
    "round.select_s": ("round.select",),
    "sparsify.s": ("sparsify",),
    "structure.s": ("structure.reassign", "structure.super_balls",
                    "structure.enforce"),
    "instance.cost_s": ("instance.cost",),
}

# tracemalloc peaks: metric -> (span that resets the peak, span that reads it)
MEMORY_METRICS = {
    "lp.relax_peak_mib": ("lp.relax_build", "lp.relax_solve"),
    "baseline.peak_mib": ("baseline.local_search", "baseline.local_search"),
}

# per-solve counts, averaged over the solves of the first pass
COUNT_METRICS = (
    "lp.relax_rows", "lp.relax_cols", "lp.relax_nnz", "lp.relax_dense_mib",
    "lp.relax_highs_frac", "lp.relax_iterations", "baseline.swaps",
    "baseline.locations", "round.open_rows", "round.open_cols",
    "round.open_iterations", "round.partition_sets", "sparsify.locations",
    "structure.reassign_moves")


SOLVE_SPAN = "pipeline.solve"


class Tracer:
    """Replaces the stage functions with recording wrappers until restored."""

    def __init__(self, memory: bool = False):
        self.spans: list[list] = []      # [name, start, end, parent, solve]
        self.counts: list[dict] = []     # one dict per solve
        self.solve_ok: list[bool] = []
        self.memory = memory             # read tracemalloc peaks
        self._stack: list[int] = []
        self._mem_base: dict[str, int] = {}
        self._saved: list[tuple] = []
        self._pending: list[tuple] = []  # (count function, args, result)

    def install(self):
        import importlib
        for modname, attr, name, count in STAGES:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, count))

    def restore(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, count):
        resets = [m for m, (start, _) in MEMORY_METRICS.items() if start == name]
        reads = [m for m, (_, end) in MEMORY_METRICS.items() if end == name]

        def traced(*args, **kwargs):
            if self.memory:
                for metric in resets:
                    tracemalloc.reset_peak()
                    self._mem_base[metric] = tracemalloc.get_traced_memory()[0]
            with self.span(name):
                out = fn(*args, **kwargs)
            if self.memory:
                for metric in reads:
                    peak = tracemalloc.get_traced_memory()[1]
                    self.counts[-1][metric] = (peak - self._mem_base[metric]) / MIB
            if count is not None:
                self._pending.append((count, args, out))
            return out
        return traced

    def span(self, name):
        return _Span(self, name)

    def solve(self, fn, *args):
        """One traced solve; returns fn's result, re-raises its error."""
        self.counts.append({})
        self.solve_ok.append(False)
        try:
            with self.span(SOLVE_SPAN):
                out = fn(*args)
        finally:
            # counted after the solve span, so counting costs no solve time
            for count, a, result in self._pending:
                count(self.counts[-1], a, result)
            self._pending.clear()
        self.solve_ok[-1] = True
        return out

    def stage_times(self) -> dict[str, list[float]]:
        """Per successful solve, the seconds in each TIME_METRICS entry and
        the pipeline's self time."""
        n = len(self.counts)
        total = {m: [0.0] * n for m in TIME_METRICS}
        solve_s = [0.0] * n
        children = [0.0] * n
        by_span = {s: m for m, names in TIME_METRICS.items() for s in names}
        for name, start, end, parent, sid in self.spans:
            dur = end - start
            if name == SOLVE_SPAN:
                solve_s[sid] = dur
            elif parent >= 0 and self.spans[parent][0] == SOLVE_SPAN:
                children[sid] += dur
            if name in by_span:
                total[by_span[name]][sid] += dur
        ok = [i for i in range(n) if self.solve_ok[i]]
        out = {m: [v[i] for i in ok] for m, v in total.items()}
        out["pipeline.self_s"] = [solve_s[i] - children[i] for i in ok]
        out["solve_s"] = [solve_s[i] for i in ok]
        return out

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "solve"],
                       "spans": self.spans, "counts": self.counts,
                       "solve_ok": self.solve_ok}, fh)


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.idx = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent,
                        len(t.counts) - 1])
        t._stack.append(self.idx)

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.idx][2] = time.perf_counter()
        t._stack.pop()
        return False


def mean_counts(counts: list[dict]) -> dict[str, float]:
    """Mean of each count over the solves that recorded it (0 if none)."""
    out = {}
    for key in COUNT_METRICS:
        vals = [c[key] for c in counts if key in c]
        out[key] = statistics.fmean(vals) if vals else 0.0
    return out
