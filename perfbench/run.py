"""pebblecc benchmark harness.

    python3 perfbench/run.py --workload search-pcc --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from src/.
Single process, single thread, closed loop: each job starts when the
previous one has ended. After set-up the harness repeats passes over the
workload's job list until the next pass would overrun --seconds, but makes at
least three. Every job's output is checked by an oracle outside the job's
timing.

Each job's time is rescaled by a calibration loop timed just before and just
after it, because the shared host's speed drifts by up to 1.7x in blocks of
10-40 s. A job's time is then its median over the passes; wall_s sums those
medians, and job_p50_s and job_tail_s are order statistics of them.

--trace 0 reports the end-to-end metrics of untraced passes. --trace 1
alternates untraced and traced passes and reports per-layer metrics derived
from the traced passes' spans, plus the tracing overhead. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import warnings
from fractions import Fraction
from time import perf_counter

from benchstats import rate, tail
from benchtrace import NullTracer, Tracer, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 7
CAL_REF_S = 0.003  # the calibration loop's time on the reference host when it runs at full speed
MIN_PASSES = 3
PROGRAM_MODULES = ("pebblecc", "workloads", "oracles")
TRACE_DIR = ".perfbench-out"


def import_program():
    """Import the package and the workload code afresh; returns the workloads module.

    Dropping them from sys.modules first makes every set-up repetition pay
    the program's import cost again (from the bytecode cache).
    """
    for name in list(sys.modules):
        if name.partition(".")[0] in PROGRAM_MODULES:
            del sys.modules[name]
    import workloads

    return workloads


def calibration_loop() -> float:
    """Seconds the host takes for a fixed mix of interpreter work.

    Dict inserts with tuple keys, Fraction sums and int bit operations, as
    in the program's hot loops. The collector is off so that the heap the
    program leaves behind cannot slow the loop.
    """
    gc.disable()
    t0 = perf_counter()
    table = {}
    acc = Fraction(0)
    for i in range(1500):
        table[((i * 2654435761) & 0xFFFF, i & 7)] = i
        acc += Fraction(i % 7, i % 5 + 1)
    x = 0
    for key, _ in table:
        x ^= key
    elapsed = perf_counter() - t0
    gc.enable()
    return elapsed


def scaled(elapsed: float, before: float, after: float) -> float:
    """A measured time rescaled to the host speed at which the calibration loop takes CAL_REF_S."""
    return elapsed * CAL_REF_S * 2 / (before + after)


class Pass:
    """Per-job times, outcomes and failures of one pass over the job list.

    times are wall-clock seconds; scaled are the same times rescaled by the
    calibration loops run just before and just after each job.
    """

    def __init__(self) -> None:
        self.times: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self.failures: list[tuple[str, str]] = []
        self.budgeted = 0
        self.cap_missed = 0

    @property
    def wall(self) -> float:
        return sum(self.scaled.values())


def run_pass(jobs, tr) -> Pass:
    gc.collect()  # every pass starts from the same collector state
    p = Pass()
    outputs: dict[str, object] = {}
    for job in jobs:
        tr.job = job.name
        unexpected = None
        before = calibration_loop()
        t0 = perf_counter()
        try:
            out = tr.call("bench.job", job.run, tr)
        except job.expect as exc:
            out = exc.with_traceback(None)  # free the failed call's frames now
        except Exception as exc:  # a job that raises is counted, never fatal
            out = unexpected = exc.with_traceback(None)
        elapsed = perf_counter() - t0
        p.times[job.name] = elapsed
        p.scaled[job.name] = scaled(elapsed, before, calibration_loop())
        if job.keep:
            outputs[job.name] = out
        if job.budget is not None:
            p.budgeted += 1
            p.cap_missed += elapsed > 2 * job.budget
        if unexpected is not None:
            p.failures.append((job.name, f"raised {unexpected!r}"))
            continue
        try:
            why = tr.call("bench.check", job.check, out, outputs)
        except Exception as exc:  # a crashing oracle is a failed check
            why = f"check raised {exc!r}"
        if why:
            p.failures.append((job.name, why))
        if tr.enabled:
            for name, value in job.counts(out).items():
                tr.count(name, value)
    tr.job = None
    return p


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes: list[Pass], setup_s: float) -> dict:
    names = list(passes[0].scaled)
    per_job = [statistics.median(p.scaled[n] for p in passes) for n in names]
    tail_s, pct, count = tail(per_job)
    attempted = len(names) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    budgeted = sum(p.budgeted for p in passes)
    missed = sum(p.cap_missed for p in passes)
    error_rate = rate(failed, attempted)
    cap_miss_rate = rate(missed, budgeted)
    for n, t in sorted(zip(names, per_job), key=lambda nt: -nt[1]):
        print(f"# job {t:10.6f} s  {n}")
    print("# pass walls, scaled: " + " ".join(f"{p.wall:.3f}" for p in passes))
    print("# pass walls, raw: " + " ".join(f"{sum(p.times.values()):.3f}" for p in passes))
    print(
        f"# {len(passes)} passes of {len(names)} jobs; job_tail_s is p{pct:.1f} of "
        f"{count} per-job medians; error_rate {error_rate:.4f} ({failed}/{attempted}); "
        f"cap_miss_rate {cap_miss_rate:.4f} ({missed}/{budgeted} budgeted jobs over "
        f"twice their budget)"
    )
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(sum(per_job), "s"),
        "job_p50_s": _metric(statistics.median(per_job), "s"),
        "job_tail_s": _metric(tail_s, "s"),
        "ok_rate": _metric(1.0 - error_rate, "share"),
        "cap_kept_rate": _metric(1.0 - cap_miss_rate if budgeted else 1.0, "share"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# span names whose self time makes up each *.busy_s metric
BUSY = {
    "search.exact_pcc.busy_s": "search.exact_pcc",
    "search.exact_pcc_bounded.busy_s": "search.exact_pcc_bounded",
    "search.min_space_st.busy_s": "search.min_space_st",
    "search.budgeted.elapsed_s": "search.budgeted",
    "lp.build.busy_s": "lp.build",
    "lp.point.busy_s": "lp.point",
    "lp.verify.busy_s": "lp.verify",
    "lp.emit.busy_s": "lp.emit",
    "b2lc.solve_b2lc.busy_s": "b2lc.solve_b2lc",
    "b2lc.solve_3partition.busy_s": "b2lc.solve_3partition",
    "reductions.busy_s": "reductions",
    "pebbling.validate.busy_s": "pebbling.validate",
    "pebbling.schedule.busy_s": "pebbling.schedule",
    "depth_reduce.exact.busy_s": "depth_reduce.exact",
    "depth_reduce.greedy.busy_s": "depth_reduce.greedy",
    "bench.check.busy_s": "bench.check",
}
COUNTS = (
    "search.exact_pcc.expanded",
    "search.exact_pcc_bounded.expanded",
    "search.min_space_st.expanded",
    "search.exhausted",
    "lp.verify.rows",
    "lp.verify.terms",
    "lp.emit.bytes",
    "b2lc.solve_b2lc.calls",
    "reductions.nodes_built",
    "reductions.edges_built",
    "pebbling.validate.rounds",
    "depth_reduce.removed_nodes",
)


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    busy = self_times(tracer.spans)
    c = tracer.counts
    out = {name: busy.get(span, 0.0) for name, span in BUSY.items()}
    out.update({name: c[name] for name in COUNTS})
    out["search.exact_pcc.expanded_per_s"] = rate(
        c["search.exact_pcc.expanded"], out["search.exact_pcc.busy_s"]
    )
    out["search.proven_share"] = rate(c["search.proven"], c["search.calls"])
    out["lp.verify.rows_per_s"] = rate(c["lp.verify.rows"], out["lp.verify.busy_s"])
    out["b2lc.yes_share"] = rate(c["b2lc.yes"], c["b2lc.solve_b2lc.calls"])
    return out


UNITS = {"_per_s": "1/s", "_s": "s", "share": "share"}  # first matching suffix wins


def _unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("search-pcc", "search-rounds", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pebblecc", "__init__.py")):
        sys.exit(f"run.py: no pebblecc package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)

    null = NullTracer()
    setup_times, graph_busy = [], []
    for _ in range(SETUP_REPS):
        tr = Tracer() if args.trace else null
        before = calibration_loop()
        t0 = perf_counter()
        workloads = import_program()
        jobs = workloads.WORKLOADS[args.workload](args.seed, tr)
        setup_times.append(scaled(perf_counter() - t0, before, calibration_loop()))
        if args.trace:
            graph_busy.append(sum(s.end - s.start for s in tr.spans if s.name == "graph"))
    setup_s = statistics.median(setup_times)
    warnings.simplefilter("ignore", sys.modules["pebblecc.reductions"].NotDivisibleWarning)
    # The inputs live for the whole run; keep the collector from rescanning
    # them during every job.
    gc.collect()
    gc.freeze()

    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise ValueError(f"{args.workload}: job names repeat")

    # Per-job medians need three samples to drop one taken while the host
    # was slow; a traced run makes paired passes, one pair at least.
    min_passes = 1 if args.trace else MIN_PASSES
    measure_start = perf_counter()
    passes: list[Pass] = []
    traced: list[tuple[Pass, Tracer]] = []
    trace_file = None
    if args.trace:
        os.makedirs(os.path.join(ROOT, TRACE_DIR), exist_ok=True)
        path = os.path.join(ROOT, TRACE_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        trace_file = open(path, "w", encoding="utf-8")
    try:
        while True:
            passes.append(run_pass(jobs, null))
            if args.trace:
                tr = Tracer()
                traced.append((run_pass(jobs, tr), tr))
                tr.write(trace_file, len(traced))  # spans leave memory only after the pass
            used = perf_counter() - measure_start
            per_round = used / len(passes)
            if len(passes) >= min_passes and used + per_round > args.seconds:
                break
    finally:
        if trace_file is not None:
            trace_file.close()

    all_passes = passes + [p for p, _ in traced]
    attempted = sum(len(p.times) for p in all_passes)
    failures = [f for p in all_passes for f in p.failures]
    for name, why in failures[:20]:
        print(f"# FAIL {name}: {why}")

    if args.trace:
        per_pass = [layer_metrics(tr) for _, tr in traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["graph.busy_s"] = statistics.median(graph_busy)
        values["bench.trace_overhead_s"] = statistics.median(
            p.wall for p, _ in traced
        ) - statistics.median(p.wall for p in passes)
        metrics = {k: _metric(v, _unit(k)) for k, v in values.items()}
    else:
        metrics = end_to_end(passes, setup_s)

    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
