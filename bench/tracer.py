"""Spans around the public functions of each colsel layer, from outside the package.

``Tracer.install`` replaces each function in ``PATCHES`` at the place its
callers look it up (``numpy.linalg.svd`` for every layer's SVDs, and the names
colsel's modules import from each other) with a wrapper that records a span:
id, parent id, name, start, end and op id.  The parent is carried in a
context variable, and the selector's ``ThreadPoolExecutor`` is swapped for one
that copies the context into its workers, so chunk spans keep the
``exact_optima`` span that submitted them as parent.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import contextvars
import gzip
import importlib
import itertools
import math
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

_LEMMA_CRITERIA = ("volume", "relative_volume", "s_optimality", "schatten_norm",
                   "pinv_schatten_norm", "condition_number", "stable_rank")

# (module, attribute, span name)
PATCHES = (
    ("numpy.linalg", "svd", "lapack.svd"),
    ("colsel.cli", "main", "cli.main"),
    ("colsel.cli", "parse_matrix_text", "cli.parse_matrix_text"),
    ("colsel.cli", "format_matrix", "cli.format_matrix"),
    ("colsel.cli", "select_exact", "selectors.select_exact"),
    ("colsel.cli", "select_greedy_forward", "selectors.greedy_forward"),
    ("colsel.cli", "select_greedy_frobenius", "selectors.greedy_frobenius"),
    ("colsel.cli", "select_local_swap_volume", "selectors.local_swap"),
    ("colsel.cli", "decide", "selectors.decide"),
    ("colsel.cli", "evaluate", "criteria.scalar.evaluate"),
    ("colsel.cli", "run_suite", "lemmas.run_suite"),
    ("colsel.selectors", "exact_optima", "selectors.exact_optima"),
    ("colsel.selectors", "batch_values", "criteria.batch_values"),
    ("colsel.selectors", "evaluate", "criteria.scalar.evaluate"),
    ("colsel.x3c", "decide", "selectors.decide"),
    ("colsel.x3c", "exact_optima", "selectors.exact_optima"),
    ("colsel.x3c", "solve_exact", "x3c.solve_exact"),
    ("colsel.x3c", "generate_false", "x3c.generate_false"),
    ("colsel.x3c", "verify_equivalence", "x3c.verify_equivalence"),
    ("colsel.x3c", "gap_report", "x3c.gap_report"),
    ("colsel.x3c", "svd", "matrixkit.svd"),
    ("colsel.criteria", "svd", "matrixkit.svd"),
    ("colsel.lemmas", "svd", "matrixkit.svd"),
    ("colsel.lemmas", "pseudo_inverse", "matrixkit.pseudo_inverse"),
    ("colsel.lemmas", "complement_projector", "matrixkit.complement_projector"),
    ("colsel.lemmas", "partitioned_pinv", "matrixkit.partitioned_pinv"),
    ("colsel.matrixkit", "pseudo_inverse", "matrixkit.pseudo_inverse"),
    ("colsel.matrixkit", "complement_projector", "matrixkit.complement_projector"),
) + tuple(("colsel.lemmas", fn, f"criteria.scalar.{fn}") for fn in _LEMMA_CRITERIA)

# Per-layer metrics: name -> (unit, better).  Counts and times are per op.
PER_LAYER = {
    "lapack.svd.calls": ("count/op", "lower"),
    "lapack.svd.matrices": ("count/op", "lower"),
    "lapack.svd.matrices_per_call": ("count", "higher"),
    "lapack.svd.s": ("s/op", "lower"),
    "lapack.svd.flops_computed": ("flop/op", "lower"),
    "lapack.svd.bytes_computed": ("B/op", "lower"),
    "selectors.exact_optima.calls": ("count/op", "lower"),
    "selectors.exact_optima.s": ("s/op", "lower"),
    "selectors.exact_optima.self_s": ("s/op", "lower"),
    "selectors.subsets_scored": ("count/op", "lower"),
    "selectors.valid_ratio": ("ratio", "higher"),
    "selectors.fanout_speedup": ("ratio", "higher"),
    "selectors.decide.calls": ("count/op", "lower"),
    "selectors.greedy_forward.s": ("s/op", "lower"),
    "selectors.greedy_forward.self_s": ("s/op", "lower"),
    "selectors.local_swap.s": ("s/op", "lower"),
    "selectors.candidates_scored": ("count/op", "lower"),
    "criteria.batch_values.calls": ("count/op", "lower"),
    "criteria.batch_values.rows": ("count/op", "lower"),
    "criteria.batch_values.s": ("s/op", "lower"),
    "criteria.scalar.calls": ("count/op", "lower"),
    "criteria.scalar.s": ("s/op", "lower"),
    "matrixkit.svd.calls": ("count/op", "lower"),
    "matrixkit.svd.s": ("s/op", "lower"),
    "matrixkit.pseudo_inverse.s": ("s/op", "lower"),
    "matrixkit.complement_projector.s": ("s/op", "lower"),
    "matrixkit.partitioned_pinv.s": ("s/op", "lower"),
    "x3c.solve_exact.calls": ("count/op", "lower"),
    "x3c.solve_exact.s": ("s/op", "lower"),
    "x3c.generate_false.draws": ("count/op", "lower"),
    "x3c.generate_false.accept_ratio": ("ratio", "higher"),
    "x3c.verify_equivalence.s": ("s/op", "lower"),
    "x3c.gap_report.s": ("s/op", "lower"),
    "lemmas.run_suite.s": ("s/op", "lower"),
    "lemmas.run_suite.self_s": ("s/op", "lower"),
    "cli.main.self_s": ("s/op", "lower"),
    "cli.parse_matrix_text.s": ("s/op", "lower"),
    "cli.format_matrix.s": ("s/op", "lower"),
    "cli.io_bytes": ("B/op", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    # end-to-end, from the untraced pass of the traced run (see run.py)
    "op_tail_s": ("s", "lower"),
    "scored_per_s": ("1/s", "higher"),
    "fail_ratio": ("ratio", "lower"),
}


def _svd_cost(args, kwargs, result):
    """(matrices, flops, bytes) of one numpy.linalg.svd call, from array shapes.

    Flop counts are the Golub-Van Loan estimates for Golub-Reinsch SVD:
    4pq² - 4q³/3 for singular values only, 14pq² + 8q³ with thin U and V,
    4p²q + 8pq² + 9q³ with full U, where p >= q are the matrix sides.
    Bytes are the input plus every output array, each moved once.
    """
    a = args[0]
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    *batch, m, n = a.shape
    p, q = max(m, n), min(m, n)
    if not uv:
        per = 4 * p * q * q - 4 * q**3 / 3
    elif full:
        per = 4 * p * p * q + 8 * p * q * q + 9 * q**3
    else:
        per = 14 * p * q * q + 8 * q**3
    matrices = math.prod(batch)
    outputs = result if isinstance(result, tuple) else (result,)
    moved = a.nbytes + sum(out.nbytes for out in outputs)
    return matrices, matrices * per, moved


class _ContextPool(ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    """Span and counter recorder.

    Spans and counters of the op in progress go to a buffer that ``end_op``
    keeps while fewer than ``budget`` spans are held and drops afterwards, so
    every traced op pays the same recording cost and memory stays bounded.
    """

    def __init__(self, budget: int):
        self.spans = []  # (id, parent id or 0, name, start, end, op id)
        self.counters = defaultdict(float)
        self.kept_ops = 0
        self.budget = budget
        self.op_id = -1
        self._op_spans = []
        self._op_counters = defaultdict(float)
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("span", default=0)
        self._lock = threading.Lock()
        self._saved = []

    def begin_op(self, op_id: int):
        self.op_id = op_id

    def end_op(self):
        if len(self.spans) < self.budget:
            self.spans.extend(self._op_spans)
            for key, value in self._op_counters.items():
                self.counters[key] += value
            self.kept_ops += 1
        self._op_spans.clear()
        self._op_counters.clear()

    def add(self, **increments):
        # hooks also run in the selector's worker threads
        with self._lock:
            for key, value in increments.items():
                self._op_counters[key] += value

    def _hook(self, name):
        """Counter update made from a traced call's arguments and result, if any."""
        if name == "lapack.svd":
            def hook(args, kwargs, result):
                matrices, flops, moved = _svd_cost(args, kwargs, result)
                self.add(svd_matrices=matrices, svd_flops=flops, svd_bytes=moved)
            return hook
        if name == "criteria.batch_values":
            def hook(args, kwargs, result):
                self.add(rows=len(result[1]), valid=int(result[1].sum()))
            return hook
        if name == "selectors.exact_optima":
            def hook(args, kwargs, result):
                self.add(subsets_scored=result[1])
            return hook
        if name in ("selectors.greedy_forward", "selectors.local_swap"):
            def hook(args, kwargs, result):
                self.add(candidates_scored=result.subsets_evaluated)
            return hook
        return None

    def wrap(self, name, fn):
        hook = self._hook(name)
        spans, ids, current, clock = self._op_spans, self._ids, self._current, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                spans.append((sid, parent, name, start, end, self.op_id))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Swap every patched name for its traced wrapper; ``uninstall`` undoes it."""
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        selectors = importlib.import_module("colsel.selectors")
        self._saved.append((selectors, "ThreadPoolExecutor", selectors.ThreadPoolExecutor))
        selectors.ThreadPoolExecutor = _ContextPool

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path):
        """All spans as gzip'd CSV: id,parent,name,start,end,op (times in s)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,start,end,op\n")
            for sid, parent, name, start, end, op in self.spans:
                fh.write(f"{sid},{parent},{name},{start!r},{end!r},{op}\n")


def union_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def span_totals(spans) -> dict:
    """name -> [calls, total seconds, self seconds]; self time is a span's
    duration minus the union of the intervals its child spans cover."""
    children = defaultdict(list)
    for _, parent, _, start, end, _ in spans:
        if parent:
            children[parent].append((start, end))
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, _, name, start, end, _ in spans:
        row = totals[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - union_length(children.get(sid, ()))
    return totals


def per_layer_metrics(spans, counters, ops: int) -> dict:
    """The span- and counter-based per-layer metrics, per op, by name."""
    totals = span_totals(spans)

    def agg(prefix, field):
        return sum(row[field] for name, row in totals.items()
                   if name == prefix or name.startswith(prefix + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    svd_calls = agg("lapack.svd", 0)
    generators = {sid for sid, _, name, *_ in spans if name == "x3c.generate_false"}
    draws = sum(1 for _, parent, name, *_ in spans
                if name == "x3c.solve_exact" and parent in generators)
    gen_false = agg("x3c.generate_false", 0)
    values = {
        "lapack.svd.calls": svd_calls,
        "lapack.svd.matrices": counters["svd_matrices"],
        "lapack.svd.s": agg("lapack.svd", 1),
        "lapack.svd.flops_computed": counters["svd_flops"],
        "lapack.svd.bytes_computed": counters["svd_bytes"],
        "selectors.exact_optima.calls": agg("selectors.exact_optima", 0),
        "selectors.exact_optima.s": agg("selectors.exact_optima", 1),
        "selectors.exact_optima.self_s": agg("selectors.exact_optima", 2),
        "selectors.subsets_scored": counters["subsets_scored"],
        "selectors.decide.calls": agg("selectors.decide", 0),
        "selectors.greedy_forward.s": agg("selectors.greedy_forward", 1),
        "selectors.greedy_forward.self_s": agg("selectors.greedy_forward", 2),
        "selectors.local_swap.s": agg("selectors.local_swap", 1),
        "selectors.candidates_scored": counters["candidates_scored"],
        "criteria.batch_values.calls": agg("criteria.batch_values", 0),
        "criteria.batch_values.rows": counters["rows"],
        "criteria.batch_values.s": agg("criteria.batch_values", 1),
        "criteria.scalar.calls": agg("criteria.scalar", 0),
        "criteria.scalar.s": agg("criteria.scalar", 1),
        "matrixkit.svd.calls": agg("matrixkit.svd", 0),
        "matrixkit.svd.s": agg("matrixkit.svd", 1),
        "matrixkit.pseudo_inverse.s": agg("matrixkit.pseudo_inverse", 1),
        "matrixkit.complement_projector.s": agg("matrixkit.complement_projector", 1),
        "matrixkit.partitioned_pinv.s": agg("matrixkit.partitioned_pinv", 1),
        "x3c.solve_exact.calls": agg("x3c.solve_exact", 0),
        "x3c.solve_exact.s": agg("x3c.solve_exact", 1),
        "x3c.generate_false.draws": draws,
        "x3c.verify_equivalence.s": agg("x3c.verify_equivalence", 1),
        "x3c.gap_report.s": agg("x3c.gap_report", 1),
        "lemmas.run_suite.s": agg("lemmas.run_suite", 1),
        "lemmas.run_suite.self_s": agg("lemmas.run_suite", 2),
        "cli.main.self_s": agg("cli.main", 2),
        "cli.parse_matrix_text.s": agg("cli.parse_matrix_text", 1),
        "cli.format_matrix.s": agg("cli.format_matrix", 1),
        "cli.io_bytes": counters["io_bytes"],
    }
    out = {name: value / ops for name, value in values.items()}
    out["lapack.svd.matrices_per_call"] = ratio(counters["svd_matrices"], svd_calls)
    out["selectors.valid_ratio"] = ratio(counters["valid"],
                                         counters["rows"])
    out["x3c.generate_false.accept_ratio"] = ratio(gen_false, draws)
    return out
