"""End-to-end acceptance battery.

Each test prints one `criterion NN: PASS/FAIL` line (run with `-s` to watch
them live) and asserts the same condition, so the battery doubles as a
readable checklist.  The two random suites and the stage sweep are shared
module fixtures; everything is seeded, so reruns see identical instances.
"""
import math
import time

import numpy as np
import pytest

import fairrange.pipeline
from fairrange.instance import RangeConstraints
from fairrange.pipeline import (brute_force_optimum, generate_figure1_instance,
                                random_instance, random_ranges,
                                solve_fair_range)

from conftest import reference_opening_lp, solve_stages, submatrix
from oracles import (chain_power_check, ghouila_houri_check, half_contribution, matrix_geq,
                     power_triangle_check, separation_margin, structured_row_kinds,
                     submatrix_determinant_check)

SUITE1_SIZE = 500
SUITE2_SIZE = 200
CHAIN = ("reassigned-vs-opt", "structured-vs-opt",
         "half-integral-vs-structured", "assignment-vs-half",
         "integral-vs-half", "clients-lift")


def emit(num, ok, detail):
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def solve_recording_half(inst, rc, halves):
    """solve_fair_range(inst, rc), with stage 5's openings appended to halves."""
    real = fairrange.pipeline.solve_half_integral

    def record(*args):
        halves.append(real(*args))
        return halves[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fairrange.pipeline, "solve_half_integral", record)
        return solve_fair_range(inst, rc)


def suite2_params(i):
    rng = np.random.default_rng([2002, i])
    n = int(rng.integers(5, 13))
    ell = int(rng.integers(1, 4))
    k = int(rng.integers(1, 5))
    return n, k, ell, float((1, 2)[i % 2])


@pytest.fixture(scope="module")
def suite1():
    # Every solve runs the full chain.  The corner where tight group quotas
    # want more than one unit of opening inside one territory, which the
    # opening program meets through spare columns, is pinned in
    # test_pipeline.
    t0 = time.perf_counter()
    runs, halves = [], []
    for i in range(SUITE1_SIZE):
        rng = np.random.default_rng([1002, i])
        n = int(rng.integers(6, 41))
        ell = int(rng.integers(1, 4))
        k = int(rng.integers(2, 7))
        p = float((1, 2, 3)[i % 3])
        inst = random_instance(3000 + i, n, ell, p)
        rc = random_ranges(3000 + i, inst, k, ell)
        runs.append((inst, rc, solve_recording_half(inst, rc, halves)))
    return {"runs": runs, "halves": halves, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def suite2():
    t0 = time.perf_counter()
    runs, halves = [], []
    for i in range(SUITE2_SIZE):
        n, k, ell, p = suite2_params(i)
        inst = random_instance(7000 + i, n, ell, p)
        rc = random_ranges(5000 + i, inst, k, ell)
        report = solve_recording_half(inst, rc, halves)
        oracle_p, _ = brute_force_optimum(inst, rc)
        runs.append((inst, rc, report, oracle_p))
    return {"runs": runs, "halves": halves, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def sweep():
    entries = []
    for i in range(SUITE2_SIZE):
        n, k, ell, p = suite2_params(i)
        inst = random_instance(7000 + i, n, ell, p)
        rc = random_ranges(5000 + i, inst, k, ell)
        stages = solve_stages(inst, rc, "select_centers")
        centers, part = stages["select_centers"]
        ss, sp = stages["enforce_structure"], stages["sparsify"]
        # the opening program as rows, which the network models
        slp, _ = reference_opening_lp((sp.fac_dist_p, sp.weights, inst.facility_groups, rc.k,
                                       rc.ranges, sp.balls, ss.territories, ss.base_pow,
                                       ss.ball_need, ss.split))
        entries.append((inst, rc, sp, slp, stages["solve_half_integral"], part, centers))
    return entries


def test_criterion_01_feasibility_suite(suite1):
    bad = 0
    for inst, rc, report in suite1["runs"]:
        centers = report.centers.centers
        counts = [0] * rc.num_groups
        for c in centers:
            counts[inst.group_label[c] - 1] += 1
        if len(centers) != rc.k or len(set(centers)) != rc.k or any(
                not a <= t <= b for t, (a, b) in zip(counts, rc.ranges)):
            bad += 1
    secs = suite1["seconds"]
    emit(1, bad == 0 and secs < 300.0,
         f"{SUITE1_SIZE - bad}/{SUITE1_SIZE} feasible selections in {secs:.1f}s")


def test_criterion_02_oracle_ratios(suite2):
    ratios = []
    for inst, rc, report, oracle_p in suite2["runs"]:
        s = report.centers.cost_p
        if oracle_p <= 0.0:
            ratios.append(1.0 if s <= 1e-12 else math.inf)
        else:
            ratios.append((s / oracle_p) ** (1.0 / inst.p))
    worst = max(ratios)
    secs = suite2["seconds"]
    ok = (all(math.isfinite(r) and r >= 1.0 - 1e-9 for r in ratios)
          and worst <= 30.0 and secs < 180.0)
    emit(2, ok, f"worst ratio {worst:.4f} over {len(ratios)} "
                f"oracle instances in {secs:.1f}s")


def test_criterion_03_stage_certificates(suite1, suite2):
    reports = ([r for _, _, r in suite1["runs"]]
               + [r for _, _, r, _ in suite2["runs"]])
    complete = sum(1 for r in reports
                   if not r.fallback
                   and tuple(b.name for b in r.bounds) == CHAIN
                   and all(b.passed for b in r.bounds))
    emit(3, complete == len(reports),
         f"{complete}/{len(reports)} full six-bound chains at 1e-6 relative")


def test_criterion_04_half_integrality(suite1, suite2):
    halves = suite1["halves"] + suite2["halves"]
    bad = sum(1 for h in halves
              if not (set(h.y.tolist()) | set(h.y_own.tolist())) <= {0.0, 0.5, 1.0}
              or np.any(h.y_own > h.y))
    emit(4, len(halves) >= 500 and bad == 0,
         f"{len(halves) - bad}/{len(halves)} opening solves with every y and y_own "
         f"in {{0, 1/2, 1}} and y_own <= y")


def test_criterion_05_unimodularity_evidence(sweep):
    checked = 0
    failures = 0
    for i, entry in enumerate(sweep[:20]):
        slp = entry[3]
        A = matrix_geq(slp).astype(int)
        kinds = structured_row_kinds(slp)
        rep = submatrix_determinant_check(A, trials=1000, max_dim=8, seed=90 + i)
        checked += rep.checked
        if not rep.ok:
            failures += 1
            continue
        rng = np.random.default_rng([4004, i])
        for _ in range(500):
            d = int(rng.integers(1, len(slp.rows) + 1))
            subset = [int(r) for r in rng.choice(len(slp.rows), size=d,
                                                 replace=False)]
            try:
                signs = ghouila_houri_check(A, subset, kinds)
            except ValueError:
                signs = None
            if signs is None:
                failures += 1
                break
    emit(5, failures == 0,
         f"{checked} submatrix determinants in {{-1,0,1}}, "
         f"500 row signings per matrix")


def test_criterion_06_consolidation_quality(sweep):
    worst_sep = math.inf
    worst_mass = math.inf
    overlaps = 0
    for entry in sweep:
        sp = entry[2]
        worst_sep = min(worst_sep, separation_margin(sp))
        worst_mass = min(worst_mass, half_contribution(sp))
        members = np.concatenate(sp.balls) if sp.balls else np.array([])
        if len(np.unique(members)) != len(members):
            overlaps += 1
    ok = worst_sep >= -1e-9 and worst_mass >= 0.5 - 1e-7 and overlaps == 0
    emit(6, ok, f"separation margin {worst_sep:.3g}, "
                f"min in-ball mass {worst_mass:.6f}, {overlaps} overlaps")


def test_criterion_07_flow_rounding(sweep):
    bad = 0
    for inst, rc, sp, slp, half, part, centers in sweep:
        chosen = {int(u) for u in centers}
        labels = np.asarray(inst.facility_groups)
        in_windows = all(a <= int(np.sum(labels[centers] == g)) <= b
                         for g, (a, b) in enumerate(rc.ranges, start=1))
        hits = all(chosen & set(part.sets[v]) for v in part.surviving)
        if not (len(centers) == len(chosen) == rc.k and in_windows and hits):
            bad += 1
    emit(7, bad == 0,
         f"{len(sweep) - bad}/{len(sweep)} selections opened k distinct centers "
         f"inside every window with every serving set hit")


def test_criterion_08_two_group_blocks_family():
    inst = generate_figure1_instance(6, 24, 1.0, 2.0, clients="blue")
    ranged = RangeConstraints(6, ((2, 4), (2, 4)))
    strict = RangeConstraints(6, ((3, 3), (3, 3)))
    o_range, range_centers = brute_force_optimum(inst, ranged)
    o_strict, _ = brute_force_optimum(inst, strict)
    dmin = submatrix(inst, inst.client_ids, range_centers).min(axis=1)
    only_m = bool(np.all((dmin < 1e-12) | (np.abs(dmin - 1.0) < 1e-12)))
    report = solve_fair_range(inst, ranged)
    s = report.centers.cost_p
    certified = all(b.passed for b in report.bounds) and s >= o_range - 1e-9
    gap = o_strict / s
    ok = (only_m and o_strict > o_range + 1e-9 and certified
          and gap >= 1.5 - 1e-12)
    emit(8, ok, f"range solver cost {s:g} vs strict oracle {o_strict:g}, "
                f"gap {gap:.3f}")


def test_criterion_09_power_inequalities():
    rng = np.random.default_rng(20260822)
    failures = 0
    for _ in range(5000):
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0, rng.uniform(1.0, 4.0)]))
        x = float(rng.uniform(0.0, 5.0))
        ys = rng.uniform(0.0, 5.0, size=int(rng.integers(0, 5))).tolist()
        lam = float(rng.uniform(0.05, 4.0))
        if not power_triangle_check(x, ys, lam, p):
            failures += 1
    for _ in range(5000):
        p = float(rng.uniform(1.0, 4.0))
        legs = rng.uniform(0.0, 5.0, size=int(rng.integers(1, 6))).tolist()
        end = float(rng.uniform(0.0, 1.0)) * sum(legs)
        if not chain_power_check(end, legs, p):
            failures += 1
    emit(9, failures == 0, "10000 randomized inequality trials at 1e-9")


def test_criterion_10_performance():
    inst = random_instance(424242, 200, 4, 2.0)
    rc = random_ranges(424242, inst, 10, 4)
    t0 = time.perf_counter()
    report = solve_fair_range(inst, rc)
    secs = time.perf_counter() - t0
    emit(10, secs < 10.0 and len(report.centers.centers) == 10,
         f"n=200 k=10 ell=4 p=2 solved in {secs:.2f}s")
