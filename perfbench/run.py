"""Benchmark of the mpiga drivers: times one workload, prints one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload nitsche-solve --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
is a separate run that pairs each untraced operation with a traced one
and reports per-layer metrics.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the run's record
(environment, every operation's wall time, and spans when traced) is
written under perfbench/results/.  See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import env

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(HERE, "results")
SETUP_SAMPLES = 3
MIN_OPS = 2  # untraced operations per run, whatever --seconds says
MIN_PAIRS = 1  # (untraced, traced) pairs per traced run

END_TO_END = {
    "wall_s": "s",
    "dofs_per_s": "dof/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "l2_err": "1",
    "h2_err": "1",
}
# per-layer self-time metric -> span name ('{driver}' is the workload's driver)
LAYER_SPANS = {
    "geometry.topology_s": "geometry.topology",
    "c1space.build_s": "c1space.build",
    "c1space.bc_partition_s": "c1space.bc_partition",
    "assembly.stability_s": "assembly.stability",
    "assembly.stability_iface_s": "assembly.stability_iface",
    "assembly.assemble_s": "assembly.assemble",
    "assembly.error_norms_s": "assembly.error_norms",
    "linalg.solve_s": "linalg.solve",
    "experiments.driver_self_s": "experiments.{driver}",
}
# median traced and untraced operation, and their difference: the tracing overhead
TRACE_WALLS = ("trace.traced_wall_s", "trace.untraced_wall_s", "trace.overhead_s")
# self times of one operation must add up to its traced wall time
ACCOUNTING_TOL_S = 1e-6


def measure_setup(workload_name):
    """Seconds from starting a fresh interpreter until it has imported
    mpiga, built the workload's topology and run the warm-up solve."""
    probe = os.path.join(HERE, "setup_probe.py")
    start = time.perf_counter()
    subprocess.run([sys.executable, probe, workload_name], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class Loop:
    """Closed loop over one operation for about ``seconds`` seconds.

    A further operation starts only if the median operation so far still
    fits in the window, but at least ``minimum`` run.
    """

    def __init__(self, seconds, minimum):
        self.seconds = seconds
        self.minimum = minimum
        self.durations = []
        self.start = time.perf_counter()

    def more(self):
        if len(self.durations) < self.minimum:
            return True
        elapsed = time.perf_counter() - self.start
        return elapsed + statistics.median(self.durations) <= self.seconds


class Run:
    """Operation bookkeeping shared by the untraced and traced runs."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first = None  # first outcome: later ones must repeat it bit for bit
        self.problems = []

    def judge(self, outcome, label):
        """Gate one outcome; returns it, or None when the operation failed."""
        import workloads

        problems = workloads.gate(self.workload, outcome)
        if self.first is None:
            # keep no assembled system: it would add to peak_rss_mb
            self.first = workloads.Outcome(outcome.rows, outcome.text)
        else:
            problems += workloads.same_outcome(self.first, outcome)
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
            return None
        return outcome

    def timed(self, label, call):
        """Run one operation; returns (wall seconds, outcome or None)."""
        gc.collect()
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = call()
        except Exception:  # noqa: BLE001 - a failed operation is counted, the loop goes on
            wall = time.perf_counter() - start
            self.failed += 1
            self.problems.append(f"{label}: raised\n{traceback.format_exc()}")
            return wall, None
        wall = time.perf_counter() - start
        return wall, self.judge(outcome, label)


def untraced(workload, seed, seconds, record):
    import speed
    import workloads

    speed.loop_seconds()  # the first call pays numpy's first-call costs
    setup = speed.Calibrated()
    for _ in range(SETUP_SAMPLES):
        setup.add(measure_setup(workload.name))
    topology = workload.build_topology()
    workload.warm_up(topology)
    config, factors = workload.config(topology), workload.factors(seed)
    run = Run(workload)
    ops = speed.Calibrated()
    loop = Loop(seconds, MIN_OPS)
    while loop.more():
        start = time.perf_counter()
        # drop the outcome at once: a live system would add to peak_rss_mb
        ops.add(run.timed(f"op {run.attempted}", lambda: workloads.run_op(workload, config, factors))[0])
        loop.durations.append(time.perf_counter() - start)
    record.update(setup_wall_s=setup.raw, setup_loop_s=setup.loops, op_wall_s=ops.raw, op_loop_s=ops.loops)
    if run.first is None:
        return run, None
    wall = statistics.median(ops.scaled)
    report = workloads.finest_report(workload, run.first)
    metrics = {
        "wall_s": wall,
        "dofs_per_s": workloads.solved_dofs(run.first) / wall,
        "setup_s": statistics.median(setup.scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "l2_err": float(report.l2),
        "h2_err": float(report.h2),
    }
    return run, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def traced(workload, seed, seconds, record):
    import workloads
    from tracing import Tracer, self_times

    tracer = Tracer()
    with tracer.span("geometry.topology"):
        topology = workload.build_topology()
    workload.warm_up(topology)
    config, factors = workload.config(topology), workload.factors(seed)
    run = Run(workload)
    calls = workloads.TracedCalls(tracer)
    op_span = f"experiments.{workload.driver}"
    plain, walls, per_op = [], [], []
    counts = None
    loop = Loop(seconds, MIN_PAIRS)
    while loop.more():
        pair_start = time.perf_counter()
        wall, reference = run.timed(
            f"untraced op {run.attempted}", lambda: workloads.run_op(workload, config, factors)
        )
        plain.append(wall)

        def traced_op():
            with calls.installed(), tracer.span(op_span):
                outcome = workloads.run_op(workload, config, factors)
            outcome.systems = [(n, system, coeffs) for n, _, _, system, coeffs in calls.solves]
            return outcome

        op = len(walls)
        tracer.op = op
        calls.reset()
        label = f"traced op {run.attempted}"
        _, outcome = run.timed(label, traced_op)
        tracer.op = -1
        span = next(s for s in tracer.spans if s.op == op and s.name == op_span)
        walls.append(span.duration)
        selfs = self_times(tracer.spans, op)
        gap = abs(sum(selfs.values()) - span.duration)
        if gap > ACCOUNTING_TOL_S:
            run.failed += 1
            run.problems.append(f"{label}: self times miss the operation's wall time by {gap:.3e} s")
        per_op.append(selfs)
        if outcome is not None and reference is not None:
            counts = calls.counts(topology)
        calls.reset()
        loop.durations.append(time.perf_counter() - pair_start)
    record["op_wall_s"] = plain
    record["traced_op_wall_s"] = walls
    if counts is None:
        return run, tracer, None
    setup_selfs = self_times(tracer.spans, -1)
    metrics = {}
    for name, span_name in LAYER_SPANS.items():
        span_name = span_name.format(driver=workload.driver)
        if span_name == "geometry.topology":
            metrics[name] = (setup_selfs[span_name], "s")
        else:
            metrics[name] = (statistics.median(s.get(span_name, 0.0) for s in per_op), "s")
    for name, unit in workloads.COUNT_METRICS.items():
        metrics[name] = (counts[name], unit)
    traced_wall, plain_wall = statistics.median(walls), statistics.median(plain)
    for name, value in zip(TRACE_WALLS, (traced_wall, plain_wall, traced_wall - plain_wall)):
        metrics[name] = (value, "s")
    return run, tracer, {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blas_threads = env.pin_blas_threads()
    try:
        env.import_mpiga()
    except ImportError as exc:
        print(f"perfbench: cannot import mpiga from this checkout: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"use one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env.capture(blas_threads),
        "sweep_factors": workload.factors(args.seed),
    }
    print(json.dumps({"env": record["env"], "workload": workload.name, "seed": args.seed}))
    tracer = None
    if args.trace:
        run, tracer, metrics = traced(workload, args.seed, args.seconds, record)
    else:
        run, metrics = untraced(workload, args.seed, args.seconds, record)
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if metrics is None:
        print("perfbench: no operation completed; nothing to report", file=sys.stderr)
        return 1

    record.update(attempted=run.attempted, failed=run.failed, problems=run.problems, metrics=metrics)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    if tracer is not None:
        tracer.write(path, record)
    else:
        with open(path, "w") as fh:
            json.dump(record, fh)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
