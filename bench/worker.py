"""One workload process: set-up, the timed op sequence, then the oracles.

``run.py`` starts this file in a fresh interpreter with BLAS pinned to one
thread.  It prints ``ready`` once ``colsel.cli`` is imported and the first
pass's inputs exist, then the median of a few calibration runs (see
``machine.calibration_s``); with ``--setup-only`` it stops there.  Otherwise
it runs the workload's op sequence once as a closed loop (one client, each op
starting when the previous one completes) and prints one JSON object as its
last line of stdout.

The calibration kernel runs before the first CLI call and after every one.
An op's latency is reported at the reference speed: the sum, over its CLI
calls, of each call's wall time times ``REFERENCE_CAL_S`` over the mean of
the two calibration times beside the call.  The raw wall times, which leave
out the calibration runs, are kept in the result too.

With ``--trace 1`` the run spends half of ``--seconds`` on an untraced pass
over the op sequence and half on a traced pass over the same ops, so the
per-layer numbers come with the tracing overhead measured on the same ops.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import machine
import workloads
from tracer import Tracer, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SPAN_BUDGET = 200_000
SETUP_CAL_RUNS = 5


class Runner:
    """Calls ``colsel.cli.main(argv)`` in-process with in-memory stdin and stdout,
    timing each call and running the calibration kernel after it."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.cal = machine.calibration_s()  # the latest calibration time
        self.wall = self.reference = 0.0  # summed over the calls of an op

    def call(self, argv, text=""):
        saved = sys.stdin, sys.stdout, sys.stderr
        out = io.StringIO()
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, io.StringIO()
        start = time.perf_counter()
        try:
            rc = self.cli.main(argv)  # looked up per call, so tracing can wrap it
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the op fails; the run goes on
            rc = f"raised {type(exc).__name__}: {exc}"
        finally:
            wall = time.perf_counter() - start
            sys.stdin, sys.stdout, sys.stderr = saved
        before, self.cal = self.cal, machine.calibration_s()
        self.wall += wall
        self.reference += wall * machine.REFERENCE_CAL_S * 2 / (before + self.cal)
        stdout = out.getvalue()
        if self.tracer is not None:
            self.tracer.add(io_bytes=len(text.encode()) + len(stdout.encode()))
        return workloads.Step(list(argv), rc, stdout)


def run_ops(workload, ops, runner, tracer=None):
    """Run ops in order; returns [(op, steps, wall seconds, reference seconds,
    calibration seconds after the op)]."""
    records = []
    runner.tracer = tracer
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            if tracer is not None:
                tracer.begin_op(op.index)
            runner.wall = runner.reference = 0.0
            steps = workload.run(op, runner.call)
            if tracer is not None:
                tracer.end_op()
            records.append((op, steps, runner.wall, runner.reference, runner.cal))
    finally:
        if tracer is not None:
            tracer.uninstall()
        runner.tracer = None
    return records


def check_ops(workload, records, pass_name) -> list:
    """One failure entry per op whose output fails an oracle."""
    by_index = {op.index: steps for op, steps, *_ in records}
    failures = []
    for op, steps, *_ in records:
        partner = by_index.get(op.params.get("partner"))
        try:
            messages = workload.check(op, steps, partner)
        except (KeyError, ValueError, IndexError) as exc:
            messages = [f"unparseable output: {exc!r}"]
        if messages:
            failures.append({"op": op.index, "label": op.label, "pass": pass_name,
                             "messages": messages,
                             "known": workload.known_defect(op, steps, messages)})
    return failures


def tail(latencies):
    """(value, percentile, samples): the latency at the highest percentile
    with at least ten ops beyond it, or the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def fanout_speedup(ops, latencies) -> float:
    """Median --threads 1 latency over median --threads nproc latency, or 0.0
    when the workload has no such pairs."""
    one = [lat for op, lat in zip(ops, latencies) if op.params.get("threads") == 1]
    many = [lat for op, lat in zip(ops, latencies) if op.params.get("threads", 1) > 1]
    if not one or not many:
        return 0.0
    return statistics.median(one) / statistics.median(many)


def scored_per_s(workload, records, wall):
    total = 0
    for op, steps, *_ in records:
        try:
            count = workload.scored(op, steps)
        except (KeyError, ValueError):  # a failed op printed no count
            count = 0
        if count is None:
            return None
        total += count
    return total / wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file for the trace spans (gzip'd CSV)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import colsel.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: colsel imported from {cli.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, machine.nproc())
    ops = workload.pass_ops(0)
    print("ready", flush=True)
    print(statistics.median(machine.calibration_s() for _ in range(SETUP_CAL_RUNS)), flush=True)
    if args.setup_only:
        return 0

    passes = workload.passes(args.seconds / 2 if args.trace else args.seconds)
    for p in range(1, passes):
        ops += workload.pass_ops(p)
    runner = Runner(cli)
    workload.warmup(runner.call)
    tracer = Tracer(SPAN_BUDGET) if args.trace else None
    plain = run_ops(workload, ops, runner)
    traced = run_ops(workload, ops, runner, tracer) if tracer is not None else []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = check_ops(workload, plain, "plain") + check_ops(workload, traced, "traced")
    attempted = len(plain) + len(traced)
    latencies = [reference for _, _, _, reference, _ in plain]
    wall_s = sum(latencies)
    tail_value, tail_pct, tail_n = tail(latencies)
    e2e = {
        "wall_s": wall_s,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "op_tail_percentile": tail_pct,
        "op_tail_samples": tail_n,
        "scored_per_s": scored_per_s(workload, plain, wall_s),
        "fail_ratio": len(failures) / attempted,
        "peak_rss_mb": peak_rss_mb,
        "raw_wall_s": sum(wall for _, _, wall, *_ in plain),
    }
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "ops": len(ops),
        "machine": machine.describe(),
        "reference_cal_s": machine.REFERENCE_CAL_S,
        "attempted": attempted,
        "failed": len(failures),
        "known_failures": sum(f["known"] for f in failures),
        "failures": failures,
        "op_labels": [op.label for op in ops],
        "op_wall_s": [wall for _, _, wall, *_ in plain],
        "op_cal_s": [cal for *_, cal in plain],
        "op_latency_s": latencies,
        "end_to_end": e2e,
    }
    if tracer is not None:
        layer = per_layer_metrics(tracer.spans, tracer.counters, tracer.kept_ops)
        layer["selectors.fanout_speedup"] = fanout_speedup(ops, latencies)
        layer["trace.overhead_ratio"] = sum(r[3] for r in traced) / wall_s
        layer["scored_per_s"] = e2e["scored_per_s"] or 0.0
        layer["fail_ratio"] = e2e["fail_ratio"]
        layer["op_tail_s"] = tail_value
        result["per_layer"] = layer
        result["traced_ops_kept"] = tracer.kept_ops
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
