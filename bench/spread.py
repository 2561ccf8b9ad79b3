"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload heuristic --seeds 0-9
    python3 bench/spread.py --workload heuristic --seeds 3 --repeat 5

Runs ``bench/run.py`` once per listed seed, ``--repeat`` times each, as
separate processes, and reports for each end-to-end metric the median and
the distance between the first and third quartiles as a share of the median,
beside the metric's bound from BENCHMARK.json.  Across seeds that share
mixes timing noise with how much the work differs between inputs; one seed
repeated shows the timing noise alone.  A metric is steady when the share
stays below a third of its bound; ``setup_s`` is exempt from the spread rule.
The raw wall-clock set-up and wall times, before the scaling to the
reference speed, are reported beside them for comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--repeat", type=int, default=1, help="runs per seed")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path, default=HERE / "results")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    raw = {"raw_setup_s": [], "raw_wall_s": []}
    runs = []
    for seed in [s for s in seed_list(args.seeds) for _ in range(args.repeat)]:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
             "--out", str(args.out)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: run.py exited {proc.returncode}", file=sys.stderr)
            return 1
        line = json.loads(proc.stdout.splitlines()[-1])
        elapsed = time.monotonic() - start
        runs.append({"seed": seed, "elapsed_s": elapsed, **line})
        for name in values:
            values[name].append(line["metrics"][name]["value"])
        result = json.loads((args.out / f"{args.workload}-seed{seed}-trace0.json").read_text())
        for name in raw:
            raw[name].append(result["end_to_end"][name])
        print(f"seed {seed}: {elapsed:.1f}s correct={line['correct']} failed={line['failed']}/"
              f"{line['attempted']} " + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()),
              file=sys.stderr)
    report = {}
    print(f"{args.workload}: {len(runs)} runs, longest {max(r['elapsed_s'] for r in runs):.1f} s")
    print(f"{'metric':<14} {'median':>10} {'iqr/median':>10} {'bound/3':>8}")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in {**values, **raw}.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        report[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        if name not in bounds:
            print(f"{name:<14} {med:>10.5g} {spread:>10.4f}")
            continue
        report[name]["bound"] = bounds[name]
        flag = "" if spread < bounds[name] / 3 or name == "setup_s" else "  WIDE"
        print(f"{name:<14} {med:>10.5g} {spread:>10.4f} {bounds[name] / 3:>8.4f}{flag}")
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"spread-{args.workload}-{args.seeds}x{args.repeat}.json"
    path.write_text(json.dumps({"runs": runs, "spread": report}, indent=1) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
