"""Benchmark workloads, the output check and the benchmark's own oracle.

Every instance is made from the workload seed and its index alone, so one
seed always gives the same inputs.  The solver receives only the generated
instances.

Why each workload exists (the one-line reasons sit in BENCHMARK.json):

- assign-lp: every point is a client and a facility, n=300, ell=4, k=10.
  The assignment relaxation has 3019 rows x 3300 columns, so it takes the
  HiGHS path and is densified; it is about three quarters of a solve and
  its dense copy sets peak memory.  A sparse LP path should move it.
- many-clients: 800 clients, every 20th of them a facility (40), k=8.
  Local search over all 800 candidates is most of a solve, while the
  relaxation (<= 360 columns) stays on the in-package simplex.  A faster
  local search should move it; a sparse LP path should barely move it.
- small-mix: many tiny instances (n 12-18) with p cycling through 1, 2
  and 3.  Both LPs run on the dense in-package simplex and per-solve glue
  is a large share, so it shows fixed costs.  The exact optimum is cheap,
  so every answer is also checked against it.

Every workload is one on which no solve fails, so `failed` counts only
regressions.  Large p (about 15 and up) is left out: some of those
instances raise a certificate failure in the solver, and a failure share
that depends on which instances a run reaches does not repeat between runs.

A run solves a fixed pool of POOL[workload] instances in whole passes.  The
pool is large because solve times differ between instances by 20-40%: the
median over a big pool moves little from one seed to the next, and on the
same seed every run times exactly the same instances.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

# instances per run; one pass over the pool takes about 25-30 s at the
# benchmark's first commit for the two heavy workloads, so a run of either
# is a single pass, while small-mix repeats passes for the whole run
POOL = {"assign-lp": 96, "many-clients": 56, "small-mix": 384}
WORKLOADS = tuple(POOL)
# instances of the traced run (solved untraced and traced in turn)
TRACED_POOL = {"assign-lp": 12, "many-clients": 8, "small-mix": 96}

SMALL_MIX_P = (1.0, 2.0, 3.0)

# relative slack when comparing costs computed in a different order
COST_RTOL = 1e-9
CERTIFICATES = frozenset({
    "reassigned-vs-opt", "structured-vs-opt", "half-integral-vs-structured",
    "assignment-vs-half", "integral-vs-half", "clients-lift"})
FALLBACK_CERTIFICATES = frozenset({
    "reassigned-vs-opt", "structured-vs-opt", "clients-lift"})


@dataclass
class Case:
    """One solver input plus the facts the check needs."""
    inst: object                     # fairrange.MetricInstance
    rc: object                       # fairrange.RangeConstraints
    oracle_p: float | None = None    # exact optimum, set on small-mix


def make_case(workload: str, seed: int, i: int) -> Case:
    """Instance i of the workload for this seed."""
    from fairrange import RangeConstraints, instance_from_coords
    from fairrange.pipeline import random_instance, random_ranges

    rng = np.random.default_rng([seed, i])
    if workload == "assign-lp":
        s = int(rng.integers(0, 2**31 - 1))
        inst = random_instance(s, 300, 4, 1.0 + i % 2)
        return Case(inst, random_ranges(s, inst, 10, 4))
    if workload == "many-clients":
        ids = [f"c{j:03d}" for j in range(800)]
        coords = rng.uniform(0.0, 10.0, size=(800, 2))
        facilities = ids[::20]
        labels = {f: 1 + t % 2 for t, f in enumerate(facilities)}
        demands = {c: int(rng.integers(1, 4)) for c in ids}
        inst = instance_from_coords(ids, coords, facilities, labels,
                                    demands, 1.0 + i % 2)
        return Case(inst, RangeConstraints(8, ((3, 5), (3, 5))))
    if workload == "small-mix":
        n = int(rng.integers(12, 19))
        k = int(rng.integers(2, 5))
        ell = int(rng.integers(2, 4))
        s = int(rng.integers(0, 2**31 - 1))
        inst = random_instance(s, n, ell, SMALL_MIX_P[i % len(SMALL_MIX_P)])
        return Case(inst, random_ranges(s, inst, k, ell))
    raise ValueError(f"unknown workload {workload!r}")


def _client_arrays(inst):
    clients = sorted(inst.client_demands)
    rows = [inst.index(c) for c in clients]
    w = np.array([inst.client_demands[c] for c in clients], dtype=float)
    return rows, w


def exhaustive_optimum(inst, rc) -> float:
    """Exact minimum p-th power cost over range-feasible k-subsets.

    Written apart from fairrange.brute_force_optimum, so the check does not
    trust the code under test; the benchmark's test compares the two.
    """
    facilities = sorted(inst.facility_ids)
    cols = [inst.index(f) for f in facilities]
    rows, w = _client_arrays(inst)
    dp = inst.dist[np.ix_(rows, cols)] ** inst.p
    groups = np.array([inst.group_label[f] - 1 for f in facilities])
    combos = np.array(list(itertools.combinations(range(len(facilities)), rc.k)),
                      dtype=np.intp)
    combo_groups = groups[combos]
    ok = ((combo_groups >= 0) & (combo_groups < len(rc.ranges))).all(axis=1)
    for g, (lo, hi) in enumerate(rc.ranges):
        cnt = (combo_groups == g).sum(axis=1)
        ok &= (cnt >= lo) & (cnt <= hi)
    combos = combos[ok]
    if not len(combos):
        raise ValueError("no range-feasible center set")
    costs = w @ dp[:, combos].min(axis=2)
    return float(costs.min())


def check_report(case: Case, report) -> str | None:
    """None when the answer is right, else what is wrong with it."""
    inst, rc = case.inst, case.rc
    sol = report.centers
    centers = list(sol.centers)
    if len(set(centers)) != rc.k or len(centers) != rc.k:
        return f"{len(centers)} centers, wanted {rc.k}"
    if not set(centers) <= set(inst.facility_ids):
        return "a center is not a facility"
    counts = [0] * rc.num_groups
    for c in centers:
        g = inst.group_label[c] - 1
        if not 0 <= g < rc.num_groups:
            return f"center {c} is in an unlisted group"
        counts[g] += 1
    for g, (cnt, (lo, hi)) in enumerate(zip(counts, rc.ranges), start=1):
        if not lo <= cnt <= hi:
            return f"group {g} has {cnt} centers, window [{lo}, {hi}]"
    names = [b.name for b in report.bounds]
    wanted = FALLBACK_CERTIFICATES if report.fallback else CERTIFICATES
    if set(names) != wanted or len(names) != len(wanted):
        return f"certificates {sorted(names)}"
    failed = [b.name for b in report.bounds if not b.passed]
    if failed:
        return f"certificates failed: {failed}"
    rows, w = _client_arrays(inst)
    cols = [inst.index(c) for c in centers]
    cost_p = float(w @ inst.dist[np.ix_(rows, cols)].min(axis=1) ** inst.p)
    if not math.isclose(sol.cost_p, cost_p, rel_tol=COST_RTOL, abs_tol=1e-12):
        return f"cost_p {sol.cost_p!r} but recomputed {cost_p!r}"
    if case.oracle_p is not None and \
            sol.cost_p < case.oracle_p * (1.0 - COST_RTOL) - 1e-12:
        return f"cost_p {sol.cost_p!r} below the exact optimum {case.oracle_p!r}"
    return None


def lp_gap(report, p: float) -> float:
    """(integral_clients / opt_d)^(1/p), the rounding's loss over the LP."""
    sc = report.stage_costs
    if sc["opt_d"] <= 0.0:
        return 1.0 if sc["integral_clients"] <= 0.0 else math.inf
    return (sc["integral_clients"] / sc["opt_d"]) ** (1.0 / p)


def oracle_ratio(case: Case, report) -> float:
    """l_p-norm ratio of the solver's cost to the exact optimum."""
    p = case.inst.p
    if case.oracle_p <= 0.0:
        return 1.0 if report.centers.cost_p <= 0.0 else math.inf
    return (report.centers.cost_p / case.oracle_p) ** (1.0 / p)


def answer_hash(report) -> str:
    """Hash of one answer: its centers and the bits of its cost_p."""
    h = hashlib.sha256(",".join(report.centers.centers).encode())
    h.update(struct.pack("<d", report.centers.cost_p))
    return h.hexdigest()[:16]


def answer_digest(answers: list[str]) -> str:
    """One hash over the per-instance answer hashes, in instance order."""
    return hashlib.sha256(";".join(answers).encode()).hexdigest()[:16]
