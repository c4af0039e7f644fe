"""Write one line per solve, with every bit an answer carries, for cmp.

Usage: python tests/answer_bits.py OUT

Run it on two trees (say a change and its parent) and `cmp` the two OUT
files: a change that keeps every answer writes the same bytes.  Each line
holds the centers, every stage cost as float.hex, each certificate's name,
lhs and rhs (hex) and verdict, and the baseline's swap count; a solve that
raises writes `raised Type: message` instead.  The solves, 3806 in all:

- the seed-1 pools of the benchmark's three workloads (536), built by
  perfbench/workloads.make_case;
- random_instance(s, 10, 2, p) with random_ranges(s, inst, 3, 2) at p 1,
  2 and 3 for s 0-199 (600), each followed by an `oracle` line with
  brute_force_optimum's centers and cost (hex);
- the same at every integer p 12-100 for s 0-29 (2670), the large-p sweep.

The tree's own src/ and perfbench/ are imported, so each tree is measured
with its own solver.  pytest does not collect this file.
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from fairrange.pipeline import (brute_force_optimum, random_instance,  # noqa: E402
                                random_ranges, solve_fair_range)
from workloads import POOL, WORKLOADS, make_case  # noqa: E402


def cases():
    """(label, instance, ranges, whether the oracle runs too) of every
    solve, in a fixed order."""
    for workload in WORKLOADS:
        for i in range(POOL[workload]):
            case = make_case(workload, 1, i)
            yield f"{workload} {i}", case.inst, case.rc, False
    for ps, seeds in (((1, 2, 3), range(200)), (range(12, 101), range(30))):
        for p in ps:
            for s in seeds:
                inst = random_instance(s, 10, 2, float(p))
                yield f"n10 s{s} p{p}", inst, random_ranges(s, inst, 3, 2), p <= 3


def answer_line(inst, rc) -> str:
    try:
        report = solve_fair_range(inst, rc)
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"
    costs = " ".join(f"{k}={float(v).hex()}" for k, v in report.stage_costs.items())
    bounds = " ".join(f"{b.name}:{float(b.lhs).hex()}:{float(b.rhs).hex()}:{b.passed}"
                      for b in report.bounds)
    return (f"{','.join(report.centers.centers)} | {costs} | {bounds} | "
            f"swaps={report.diagnostics['baseline_swaps']}")


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: python tests/answer_bits.py OUT")
    with open(argv[1], "w") as out:
        for label, inst, rc, oracle in cases():
            out.write(f"{label}: {answer_line(inst, rc)}\n")
            if oracle:
                cost, centers = brute_force_optimum(inst, rc)
                out.write(f"{label} oracle: {','.join(centers)} | {cost.hex()}\n")


if __name__ == "__main__":
    main(sys.argv)
