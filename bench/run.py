"""colsel benchmark: times CLI workloads end to end, or layer by layer when traced.

    python3 bench/run.py --workload exact-enum --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20
    python3 bench/run.py --smoke

Each workload runs in its own fresh interpreter (see worker.py) with BLAS
pinned to one thread.  ``setup_s`` is the median, over several fresh
interpreters, of the time from process start until ``colsel.cli`` is imported
and the first inputs are ready.  ``wall_s`` is the time of the workload's op
sequence and ``op_p50_s`` its median op.  All three are reported at the
reference speed of ``machine.calibration_s``: each time is scaled by how
much slower than the reference a fixed kernel ran right beside it, so that
a host slowing its CPUs for minutes at a time moves them little.  The raw
wall times stay in the result file.  The full result, with the machine
record and every oracle failure, goes to ``bench/results/``; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.

``correct`` is false when any op fails other than the known defects listed
in workloads.py; those still count in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import machine  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# name -> unit.  BENCHMARK.json bounds the first four.  The tail, the
# scored rate and the failure ratio go in its per-layer list instead, reported
# by the traced run without a bound: the tail of a few dozen ops swings with
# the box's load, and the other two are 0 or undefined on some workloads.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "op_tail_s": "s",
    "scored_per_s": "1/s",
    "fail_ratio": "ratio",
}
REPORTED_END_TO_END = ("setup_s", "wall_s", "op_p50_s", "peak_rss_mb")
SETUP_RUNS = 7
RUN_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def _start_worker(args: list, deadline: float):
    """Start worker.py; returns (process, seconds until it printed ``ready``,
    the calibration time it measured next)."""
    env = dict(os.environ, **machine.BLAS_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    cal = float(proc.stdout.readline())
    if time.monotonic() > deadline:
        proc.kill()
        proc.communicate()
        raise BenchError("time budget spent during set-up")
    return proc, ready, cal


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def run_workload(name, seed, seconds, trace, smoke, out_dir: Path) -> dict:
    """Set-up samples plus one measured worker run; returns the full result."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    out_dir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setup_runs = 2 if smoke else SETUP_RUNS
    if smoke:
        common.append("--smoke")
    samples = []
    for _ in range(setup_runs - 1):
        proc, ready, cal = _start_worker(common + ["--setup-only"], deadline)
        _finish(proc, deadline)
        samples.append((ready, cal))
    spans = out_dir / f"{name}-seed{seed}-spans.csv.gz"
    extra = ["--trace", str(trace)] + (["--spans", str(spans)] if trace else [])
    proc, ready, cal = _start_worker(common + extra, deadline)
    samples.append((ready, cal))
    result = json.loads(_finish(proc, deadline).splitlines()[-1])
    result["setup_samples"] = [{"wall_s": ready, "cal_s": cal} for ready, cal in samples]
    result["end_to_end"]["setup_s"] = statistics.median(
        ready * machine.REFERENCE_CAL_S / cal for ready, cal in samples)
    result["end_to_end"]["raw_setup_s"] = statistics.median(ready for ready, _ in samples)
    result["correct"] = result["failed"] == result["known_failures"]
    result["units"] = {**END_TO_END, **{k: unit for k, (unit, _) in PER_LAYER.items()}}
    path = out_dir / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    result["path"] = str(path)
    return result


def summary_line(result: dict, trace: int) -> dict:
    if trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": END_TO_END[name]}
                   for name in REPORTED_END_TO_END}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def describe(result: dict, trace: int) -> str:
    """Human-readable report of one workload run."""
    e2e = result["end_to_end"]
    lines = [f"== {result['workload']} seed={result['seed']} ops={result['ops']} "
             f"attempted={result['attempted']} failed={result['failed']} "
             f"(known {result['known_failures']}) correct={result['correct']} "
             f"raw setup {e2e['raw_setup_s']:.4g} s, raw wall {e2e['raw_wall_s']:.4g} s"]
    for name, unit in END_TO_END.items():
        value = e2e[name]
        shown = "n/a (no select output)" if value is None else f"{value:.6g} {unit}"
        if name == "op_tail_s":
            shown += f" (p{e2e['op_tail_percentile']:.1f} of {e2e['op_tail_samples']} ops)"
        lines.append(f"  {name:<14} {shown}")
    if trace:
        for name, (unit, _) in PER_LAYER.items():
            lines.append(f"  {name:<36} {result['per_layer'][name]:.6g} {unit}")
    for failure in result["failures"]:
        kind = "known" if failure["known"] else "UNEXPECTED"
        lines.append(f"  {kind} failure, op {failure['op']} ({failure['label']}, "
                     f"{failure['pass']}): "
                     + "; ".join(failure["messages"]))
    return "\n".join(lines)


def check_result(result: dict, trace: int, bench: dict) -> list:
    """Problems with a result file: metrics missing or with a different unit
    than BENCHMARK.json, or an oracle failure that is not a known defect."""
    problems = []
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared.update((m["name"], m["unit"]) for m in bench["per_layer"])
    wanted = [(name, "end_to_end") for name in END_TO_END]
    wanted += [(name, "per_layer") for name in PER_LAYER] if trace else []
    for name, block in wanted:
        if name not in result[block]:
            problems.append(f"{name} missing")
        elif result["units"].get(name) != declared.get(name):
            problems.append(f"{name}: unit {result['units'].get(name)!r}, "
                            f"BENCHMARK.json says {declared.get(name)!r}")
    if set(declared) != set(REPORTED_END_TO_END) | set(PER_LAYER):
        problems.append("BENCHMARK.json metric names differ from the benchmark's")
    if not result["correct"]:
        problems.append("an oracle failed on an op that is not a known defect")
    return [f"{result['workload']} trace={trace}: {p}" for p in problems]


def smoke(out_dir: Path) -> int:
    """Every workload on tiny inputs, untraced and traced; checks each result file."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, 0, 1, trace, True, out_dir)
            print(describe(result, trace), file=sys.stderr)
            problems += check_result(json.loads(Path(result["path"]).read_text()), trace, bench)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="colsel benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, checks the result files")
    parser.add_argument("--out", type=Path, default=HERE / "results")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "colsel" / "cli.py").is_file():
        print(f"error: no colsel source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke(args.out)
        if args.workload is None:
            parser.error("--workload is required")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        lines = []
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, False, args.out)
            print(describe(result, args.trace), file=sys.stderr)
            lines.append(summary_line(result, args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {f"{name}.{metric}": value for name, line in zip(names, lines)
                        for metric, value in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
