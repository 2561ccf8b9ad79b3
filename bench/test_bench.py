"""Tests of the benchmark itself: the smoke run, the bare-checkout refusal,
and the span and percentile arithmetic."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import span_totals, union_length
from worker import tail
from workloads import ExactEnum

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_run_reports_every_metric_and_passes_the_oracles(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(tmp_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
    result = json.loads((tmp_path / "exact-enum-seed0-trace1.json").read_text())
    assert result["per_layer"]["selectors.subsets_scored"] == 120  # C(10, 3) per op
    assert list(tmp_path.glob("*-spans.csv.gz"))


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "lemmas", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_union_length_merges_overlapping_intervals():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_self_time_subtracts_the_union_of_parallel_children():
    spans = [
        (1, 0, "parent", 0.0, 10.0, 0),
        (2, 1, "child", 1.0, 5.0, 0),
        (3, 1, "child", 2.0, 6.0, 0),  # runs beside span 2 in another thread
        (4, 3, "grandchild", 2.0, 3.0, 0),
    ]
    totals = span_totals(spans)
    assert totals["parent"] == pytest.approx([1, 10.0, 5.0])
    assert totals["child"] == pytest.approx([2, 8.0, 7.0])


def test_tail_is_the_highest_percentile_with_ten_ops_beyond_it():
    latencies = list(range(1, 41))
    assert tail(latencies) == (30, 75.0, 40)
    assert tail([3, 1, 2]) == (3, 100.0, 3)


def test_only_the_scale_symptoms_count_as_the_known_defect():
    workload = ExactEnum(0, True, 2)
    ops = workload.pass_ops(0)
    scaled_sopt = next(op for op in ops if op.params["criterion"] == "sopt")
    scaled_rvol = next(op for op in ops if op.params["criterion"] == "rvol" and op.params["scale"] != 1)
    symptoms = ["scaled witness (0, 1, 2) != unscaled witness (1, 4, 7)",
                "scaled value 0.0 != c^d * optimum = 0.5"]
    assert workload.known_defect(scaled_sopt, [], symptoms)
    assert not workload.known_defect(scaled_rvol, [], symptoms)
    assert not workload.known_defect(scaled_sopt, [], symptoms + ["stdout differs between "
                                                                  "--threads 1 and --threads 2"])
    assert not workload.known_defect(scaled_sopt, [], ["subsets_evaluated=119 != 120"])
