"""Benchmark of the fair-range solver: one command, fresh child processes.

    python3 perfbench/run.py --workload assign-lp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload small-mix --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload many-clients --seed 1 --seconds 30 --steady 5

Run from anywhere; the solver is taken from src/ beside this directory.
The workloads, and why each was chosen, are in workloads.py and in
BENCHMARK.json.

--trace 0 measures the end-to-end metrics.  PARTS fresh processes each take
a share of the workload's instance pool: each imports the solver, generates
its instances and solves the first one (its set-up time; setup_s is their
median), then times warm solve_fair_range calls in a closed loop, one solve
at a time, for its share of --seconds.  Every answer is checked after the
loop; solves that raise or fail the check count as failed.
--trace 1 measures the per-layer metrics: one process solves a small pool
untraced and traced in turn, with spans around every stage, then records
tracemalloc peaks; fresh processes time `import fairrange` and a cold
`python -m fairrange.cli solve`.
Both print each metric by name and unit and end with one JSON line:
correct, attempted, failed and metrics.  Metrics outside BENCHMARK.json
are printed as `(not bounded)` lines only.
--steady N repeats the run N times with seeds SEED..SEED+N-1 and prints the
median, quartiles and spread (q3 - q1) / median of each metric against its
bound: ok below a third of the bound, wide below the bound, OVER beyond it.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, ".perfbench-out")
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
from workloads import WORKLOADS, answer_digest  # noqa: E402

PARTS = 4            # fresh processes per end-to-end run
CLI_PROCESSES = 5    # fresh processes per cli.* metric
CHILD_TIMEOUT_S = 150

UNITS = {
    "solve_s.p50": "s", "solve_s.p90": "s", "solve_s.p99": "s",
    "solves_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB",
    "answered_frac": "ratio", "failed_frac": "ratio",
    "fallback_frac": "ratio", "lp_gap.mean": "ratio",
    "oracle_ratio.mean": "ratio", "oracle_ratio.max": "ratio",
    "lp.relax_build_s": "s", "lp.relax_solve_s": "s", "lp.relax_rows": "count",
    "lp.relax_cols": "count", "lp.relax_nnz": "count",
    "lp.relax_dense_mib": "MiB", "lp.relax_highs_frac": "ratio",
    "lp.relax_iterations": "count", "lp.relax_peak_mib": "MiB",
    "lp.relax_share": "ratio",
    "baseline.local_search_s": "s", "baseline.reduce_s": "s",
    "baseline.swaps": "count", "baseline.locations": "count",
    "baseline.peak_mib": "MiB", "baseline.local_search_share": "ratio",
    "round.open_build_s": "s", "round.open_solve_s": "s", "round.vertex_s": "s",
    "round.open_rows": "count", "round.open_cols": "count",
    "round.open_iterations": "count", "round.select_s": "s",
    "round.partition_sets": "count",
    "sparsify.s": "s", "sparsify.locations": "count", "structure.s": "s",
    "structure.reassign_moves": "count", "pipeline.self_s": "s",
    "pipeline.fallbacks": "count", "instance.cost_s": "s",
    "instance.gen_s": "s", "cli.import_s": "s", "cli.cold_solve_s": "s",
    "trace.overhead": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str]) -> tuple[str, float]:
    """Run one fresh child to its end; its standard output and wall seconds."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"{args[:3]} exited {proc.returncode}:\n"
                          + proc.stderr[-2000:])
    return proc.stdout, wall


def child_json(args: list[str]) -> dict:
    """Run one child of child.py; the JSON object it printed last."""
    out = json.loads(run_child([CHILD, *args])[0].strip().splitlines()[-1])
    where = out["env"]["fairrange"] if "env" in out else None
    if where is not None and not where.startswith(SRC + os.sep):
        raise ChildFailed(f"solver imported from {where}, not from {SRC}")
    return out


def git_sha() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def tail_percentiles(times: list[float]) -> dict[str, float]:
    """Tail percentiles with at least ten samples beyond them."""
    out = {}
    if len(times) >= 100:
        qs = statistics.quantiles(times, n=100)
        out["solve_s.p90"] = qs[89]
        if len(times) >= 1000:
            out["solve_s.p99"] = qs[98]
    return out


def summarize_checks(parts: list[dict]) -> tuple[dict, dict]:
    """Fold the children's checks into one result."""
    answers, gaps, ratios, errors = {}, {}, {}, {}
    for part in parts:
        answers.update(part["answers"])
        gaps.update(part["lp_gaps"])
        ratios.update(part["oracle_ratios"])
        for name, count in part["errors"].items():
            errors[name] = errors.get(name, 0) + count
    res = {
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "wrong_count": sum(p["wrong_count"] for p in parts),
        "wrong": [w for p in parts for w in p["wrong"]][:20],
        "errors": errors,
        "instances": len(answers),
        "digest": answer_digest([answers[i]
                                 for i in sorted(answers, key=int)]),
        "env": parts[0]["env"],
    }
    metrics = {
        "answered_frac": 1.0 - res["failed"] / res["attempted"],
        "failed_frac": res["failed"] / res["attempted"],
        "fallback_frac": sum(p["fallbacks"] for p in parts) / res["attempted"],
    }
    if gaps:
        metrics["lp_gap.mean"] = statistics.fmean(gaps.values())
    if ratios:
        metrics["oracle_ratio.mean"] = statistics.fmean(ratios.values())
        metrics["oracle_ratio.max"] = max(ratios.values())
    return res, metrics


def measure(workload: str, seed: int, seconds: int) -> dict:
    parts = [child_json(["run", workload, str(seed), str(j), str(PARTS),
                         str(seconds / PARTS)])
             for j in range(PARTS)]
    times = [t for p in parts for t in p["times"]]
    if not times:
        raise ChildFailed("no solve succeeded")
    res, checks = summarize_checks(parts)
    metrics = {
        "solve_s.p50": statistics.median(times),
        **tail_percentiles(times),
        "solves_per_s": len(times) / sum(p["span_s"] for p in parts),
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "peak_rss_mib": max(p["peak_rss_mib"] for p in parts),
        **checks,
    }
    res.update(metrics=metrics, samples=len(times))
    return res


def measure_traced(workload: str, seed: int, seconds: int) -> dict:
    traced = child_json(["traced", workload, str(seed), str(seconds), OUTDIR])
    res, checks = summarize_checks([traced])
    metrics = dict(traced["metrics"], **checks)
    metrics["cli.import_s"] = statistics.median(
        child_json(["import"])["import_s"]
        for _ in range(CLI_PROCESSES))
    metrics["cli.cold_solve_s"] = statistics.median(
        run_child(["-m", "fairrange.cli", "solve", traced["cold_document"]])[1]
        for _ in range(CLI_PROCESSES))
    res.update(metrics=metrics)
    return res


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def reported(bench: dict, trace: bool) -> list[str]:
    """The metrics of the JSON line: BENCHMARK.json's, in its order."""
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def print_result(workload: str, seed: int, res: dict, names: list[str]):
    env = dict(res["env"], git_sha=git_sha())
    print(f"# workload {workload} seed {seed}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# answers {res['digest']} over {res['instances']} instances "
          "(hash of centers and cost_p bits, per instance)")
    print(f"# attempted {res['attempted']} failed {res['failed']} "
          f"errors {json.dumps(res['errors'])}")
    for problem in res["wrong"]:
        print(f"# WRONG {problem}")
    if "samples" in res:
        print(f"# timed solves {res['samples']}")
    metrics = res["metrics"]
    for name in names:
        print(f"{name} {metrics[name]:.6g} {UNITS[name]}")
    for name, value in metrics.items():
        if name not in names:
            print(f"{name} {value:.6g} {UNITS[name]} (not bounded)")
    print(json.dumps({
        "correct": res["wrong_count"] == 0, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]}
                    for name in names}}))


def steady(workload: str, seed: int, seconds: int, trace: bool, runs: int,
           bench: dict):
    """Repeat the run and print each metric's spread against its bound."""
    bounds = {m["name"]: m.get("bound") for m in
              bench["end_to_end"] + bench["per_layer"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    print(f"# {workload}: {why.get(workload, '')}")
    values: dict[str, list[float]] = {}
    for i in range(runs):
        t0 = time.perf_counter()
        res = (measure_traced if trace else measure)(workload, seed + i, seconds)
        for name, value in res["metrics"].items():
            values.setdefault(name, []).append(value)
        shown = " ".join(f"{m}={res['metrics'][m]:.5g}"
                         for m in reported(bench, trace))
        print(f"# run {i + 1}/{runs} seed {seed + i} wrong {res['wrong_count']} "
              f"attempted {res['attempted']} failed {res['failed']} "
              f"wall {time.perf_counter() - t0:.1f} s {shown}", flush=True)
    print(f"{'metric':30} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else math.inf
        bound = bounds.get(name)
        verdict = "" if bound is None else "ok" if spread < bound / 3.0 \
            else "wide" if spread < bound else "OVER"
        print(f"{name:30} {med:11.6g} {q1:11.6g} {q3:11.6g} {spread:8.2%} "
              f"{'' if bound is None else f'{bound:.2f}':>6} {verdict}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="N",
                    help="repeat N times over consecutive seeds")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fairrange", "__init__.py")):
        print(f"no solver sources under {SRC}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    try:
        if args.steady:
            steady(args.workload, args.seed, args.seconds, bool(args.trace),
                   args.steady, bench)
        else:
            res = (measure_traced if args.trace else measure)(
                args.workload, args.seed, args.seconds)
            print_result(args.workload, args.seed, res,
                         reported(bench, bool(args.trace)))
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
