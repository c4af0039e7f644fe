"""One measured process of the benchmark; run.py starts each one fresh.

    python3 perfbench/child.py run    WORKLOAD SEED PART PARTS SECONDS
    python3 perfbench/child.py traced WORKLOAD SEED SECONDS OUTDIR
    python3 perfbench/child.py import

`run` takes instances PART, PART+PARTS, ... of the workload's pool.  Its
set-up is the import, generating those instances and the first solve; then
it times warm solves, one at a time, in whole passes over its instances
until SECONDS have passed, and checks every answer afterwards.
`traced` solves a small pool untraced and traced in turn (see tracing.py).
`import` times `import fairrange`.

Each prints one JSON object as its last line of standard output.  run.py
puts the checkout's src/ on PYTHONPATH and pins BLAS to one thread.  The
process caps its own address space first, so running out of memory is a
recorded failed solve (MemoryError) rather than an out-of-memory kill.
"""
import time

T_START = time.perf_counter()   # before any heavy import, for setup_s

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ADDRESS_SPACE_CAP = 3 << 30     # far above one solve (peak RSS ~0.4 GiB)
MEMORY_PASS_CASES = 2           # tracemalloc makes solves slow; keep it short


def cap_memory():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY \
        else min(hard, ADDRESS_SPACE_CAP)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    import numpy
    import scipy
    import fairrange
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "fairrange": fairrange.__file__,
            "nproc": os.cpu_count(), "seed": seed,
            "address_space_cap": ADDRESS_SPACE_CAP,
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}}


def attempt(i, case, solve):
    """(instance, seconds or None, report or error name) of one solve."""
    t0 = time.perf_counter()
    try:
        report = solve(case.inst, case.rc)
    except Exception as exc:  # a failed solve is recorded, not fatal
        return i, None, type(exc).__name__
    return i, time.perf_counter() - t0, report


def whole_passes(indices, seconds, step):
    """Call step(i) over all indices, pass after pass, one call at a time.

    Stops after the first pass that leaves too little of `seconds` for
    another one, so every instance is solved equally often and a run never
    ends mid-pass.  Returns the wall span of the passes.
    """
    t0 = time.perf_counter()
    passes = 0
    while True:
        for i in indices:
            step(i)
        passes += 1
        span = time.perf_counter() - t0
        if span * (passes + 1) / passes > seconds:
            return span


def judge(workload, cases, solves) -> dict:
    """Check every answer; quality and answer hashes per instance."""
    from workloads import (answer_hash, check_report, exhaustive_optimum,
                           lp_gap, oracle_ratio)
    if workload == "small-mix":   # exact optima, outside the timed phase
        for case in cases.values():
            case.oracle_p = exhaustive_optimum(case.inst, case.rc)
    failed, wrong, errors, fallbacks = 0, [], {}, 0
    answers, gaps, ratios = {}, {}, {}
    for i, dt, rep in solves:
        if dt is None:
            failed += 1
            errors[rep] = errors.get(rep, 0) + 1
            answers.setdefault(i, "raised " + rep)
            continue
        case = cases[i]
        digest = answer_hash(rep)
        if i not in answers:
            answers[i] = digest
            gaps[i] = lp_gap(rep, case.inst.p)
            if case.oracle_p is not None:
                ratios[i] = oracle_ratio(case, rep)
        problem = check_report(case, rep)
        if problem is None and digest != answers[i]:
            problem = "a repeated solve gave another answer"
        if problem is not None:
            failed += 1
            wrong.append(f"instance {i}: {problem}")
        fallbacks += rep.fallback
    return {"attempted": len(solves), "failed": failed, "wrong": wrong[:20],
            "wrong_count": len(wrong), "errors": errors,
            "fallbacks": fallbacks, "answers": answers, "lp_gaps": gaps,
            "oracle_ratios": ratios}


def cmd_run(workload, seed, part, parts, seconds):
    cap_memory()
    from fairrange import solve_fair_range
    from workloads import POOL, make_case
    cases = {i: make_case(workload, seed, i)
             for i in range(part, POOL[workload], parts)}
    first = min(cases)
    solves = [attempt(first, cases[first], solve_fair_range)]
    setup_s = time.perf_counter() - T_START
    timed_from = len(solves)
    span = whole_passes(list(cases), seconds, lambda i: solves.append(
        attempt(i, cases[i], solve_fair_range)))
    out = judge(workload, cases, solves)
    out.update(setup_s=setup_s, span_s=span,
               times=[dt for _, dt, _ in solves[timed_from:] if dt is not None],
               peak_rss_mib=peak_rss_mib(), env=environment(seed))
    return out


def cmd_traced(workload, seed, seconds, outdir):
    cap_memory()
    import tracemalloc
    from fairrange import solve_fair_range
    from tracing import Tracer, mean_counts
    from workloads import TRACED_POOL, make_case
    gen = []
    cases = {}
    for i in range(TRACED_POOL[workload]):
        t0 = time.perf_counter()
        cases[i] = make_case(workload, seed, i)
        gen.append(time.perf_counter() - t0)
    first_case = cases[0]
    solve_fair_range(first_case.inst, first_case.rc)

    # each instance is solved untraced and traced back to back, in turns
    # of order, so neither drift over the run nor the second solve finding
    # warm caches can bias trace.overhead
    plain, traced = [], []
    tracer = Tracer()

    def traced_solve(i):
        tracer.install()
        try:
            traced.append(attempt(i, cases[i], lambda inst, rc: tracer.solve(
                solve_fair_range, inst, rc)))
        finally:
            tracer.restore()

    def pair(i):
        if i % 2:
            traced_solve(i)
        plain.append(attempt(i, cases[i], solve_fair_range))
        if not i % 2:
            traced_solve(i)
    whole_passes(list(cases), seconds, pair)

    mem = Tracer(memory=True)
    mem.install()
    tracemalloc.start()
    try:
        for i in range(MEMORY_PASS_CASES):
            try:
                mem.solve(solve_fair_range, cases[i].inst, cases[i].rc)
            except Exception:  # failures are counted in the timed passes
                pass
    finally:
        tracemalloc.stop()
        mem.restore()
    os.makedirs(outdir, exist_ok=True)
    tracer.write(os.path.join(outdir, f"trace-{workload}-{seed}.json"))

    untraced_p50 = statistics.median(dt for _, dt, _ in plain if dt is not None)
    stages = tracer.stage_times()
    metrics = {m: statistics.median(v) for m, v in stages.items()
               if m != "solve_s"}
    n = len(cases)
    first_pass = [c for c, ok in zip(tracer.counts[:n], tracer.solve_ok[:n])
                  if ok]
    metrics.update(mean_counts(first_pass))
    metrics["pipeline.fallbacks"] = float(sum(
        rep.fallback for _, dt, rep in traced[:n] if dt is not None))
    metrics.update({k: max(c.get(k, 0.0) for c in mem.counts)
                    for k in ("lp.relax_peak_mib", "baseline.peak_mib")})
    metrics["instance.gen_s"] = statistics.median(gen)
    metrics["trace.overhead"] = statistics.median(stages["solve_s"]) / untraced_p50
    metrics["lp.relax_share"] = (metrics["lp.relax_build_s"]
                                 + metrics["lp.relax_solve_s"]) / untraced_p50
    metrics["baseline.local_search_share"] = \
        metrics["baseline.local_search_s"] / untraced_p50

    doc = os.path.join(outdir, f"cold-solve-{seed}.txt")
    write_cold_document(seed, doc)
    out = judge(workload, cases, plain + traced)
    out.update(metrics=metrics, cold_document=doc,
               peak_rss_mib=peak_rss_mib(), env=environment(seed))
    return out


def write_cold_document(seed, path):
    """Instance 1 of small-mix (p=2) as a solver document, for the cold CLI
    solve."""
    from fairrange.cli import document_from_instance, serialize_document
    from workloads import make_case
    case = make_case("small-mix", seed, 1)
    with open(path, "w") as fh:
        fh.write(serialize_document(document_from_instance(case.inst, case.rc)))


def cmd_import():
    t0 = time.perf_counter()
    import fairrange  # noqa: F401
    return {"import_s": time.perf_counter() - t0}


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "run":
        out = cmd_run(rest[0], int(rest[1]), int(rest[2]), int(rest[3]),
                      float(rest[4]))
    elif mode == "traced":
        out = cmd_traced(rest[0], int(rest[1]), float(rest[2]), rest[3])
    elif mode == "import":
        out = cmd_import()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
