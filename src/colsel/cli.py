"""Command-line front end.

Matrices and instances travel between subcommands as plain text on the
standard streams, so invocations compose into pipelines.  Reports on stdout
are deterministic for a fixed command line (timings go to stderr), and all
floating-point values are printed in full round-trip precision.

A command imports only the modules it runs.  Importing this module loads the
criteria and the matrix kernels; the selectors (with the exact search's
screen), the X3C harness and the lemma suite load when a command first calls
them, so ``colsel select`` never loads the lemma suite or the X3C harness.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys

import numpy as np

from .criteria import CriterionSpec, evaluate, parse_criterion, parse_p
from .errors import ColselError, InvalidParameterError, ParseError
from .matrixkit import DenseMatrix

# what the commands call from the modules that importing this one does not
# load: each is a module attribute, taken from the package on first access
# (PEP 562), and the commands call it through ``_deferred``, so a caller that
# replaces the attribute (as bench/tracer.py does) replaces what they call
_DEFERRED = frozenset(("x3c", "run_suite", "DecisionQuery", "decide", "select_exact",
                       "select_greedy_forward", "select_greedy_frobenius",
                       "select_local_swap_volume"))


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(importlib.import_module(__package__), name)
    return value


def _deferred(name: str):
    """The module attribute ``name``, bound by ``__getattr__`` on first use."""
    return globals()[name] if name in globals() else __getattr__(name)


def _fmt(x: float) -> str:
    return repr(float(x))


def parse_matrix_text(text: str, fmt: str = "csv") -> DenseMatrix:
    if fmt == "json":
        import json

        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", line=exc.lineno) from None
        if not isinstance(obj, dict) or not {"rows", "cols", "data"} <= set(obj):
            raise ParseError('JSON matrix needs keys "rows", "cols", "data"', line=1)
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
        # exact types: JSON true/false load as bool, a subclass of int
        if not (type(rows) is int and type(cols) is int and min(rows, cols) >= 0
                and isinstance(data, list)):
            raise ParseError("rows/cols must be non-negative integers and data a list", line=1)
        if len(data) != rows * cols:
            raise ParseError(f"data length {len(data)} != rows*cols = {rows * cols}", line=1)
        if not all(type(v) in (int, float) for v in data):
            raise ParseError("data must hold rows*cols JSON numbers", line=1)
        try:
            array = np.array(data, dtype=np.float64).reshape(rows, cols)
        except OverflowError:
            raise ParseError("data holds an integer beyond the float64 range", line=1) from None
        return DenseMatrix(array)
    if fmt != "csv":
        raise InvalidParameterError(f"unknown matrix format {fmt!r}")
    rows, width = [], None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = np.array(line.split(","), dtype=np.float64)
        except ValueError:
            raise ParseError(f"non-numeric entry in {line!r}", line=lineno) from None
        width = width or len(row)
        if len(row) != width:
            raise ParseError(f"ragged row: expected {width} entries, got {len(row)}", line=lineno)
        rows.append(row)
    if not rows:
        raise ParseError("empty matrix text", line=1)
    return DenseMatrix(rows)


def parse_matrix(path: str, fmt: str = "csv") -> DenseMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_text(fh.read(), fmt)


def format_matrix(matrix: DenseMatrix, fmt: str = "csv") -> str:
    if fmt == "json":
        import json

        data = [float(v) for v in matrix.entries]
        return json.dumps({"rows": matrix.rows, "cols": matrix.cols, "data": data}) + "\n"
    return "\n".join(",".join(_fmt(v) for v in row) for row in matrix.array) + "\n"


def _read_text(args) -> str:
    if args.input_path:
        with open(args.input_path, "r", encoding="utf-8") as fh:
            return fh.read()
    return sys.stdin.read()


def _write(args, text: str):
    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _criterion(args) -> CriterionSpec:
    if not args.criterion:
        raise InvalidParameterError("a --criterion id is required")
    return parse_criterion(args.criterion, args.p)


def _instance(args):
    return _deferred("x3c").parse_instance(_read_text(args))


def _text_value(value) -> str:
    if value is None or isinstance(value, bool):
        return {None: "none", True: "yes", False: "no"}[value]
    return _fmt(value) if isinstance(value, float) else str(value)


def _render(report, fmt: str) -> str:
    """A report, one record (a dict of typed values) or a list of them, as
    JSON (one object, or an indented list) when ``fmt`` is "json", else as
    ``key=value`` lines."""
    if fmt == "json":
        import json

        # a column subset, the one value json cannot write, goes as its list of indices
        if isinstance(report, list):
            return json.dumps(report, indent=2, default=list) + "\n"
        return json.dumps(report, default=list) + "\n"
    records = report if isinstance(report, list) else [report]
    return "".join(" ".join(f"{key}={_text_value(v)}" for key, v in rec.items()) + "\n"
                   for rec in records)


def _cmd_eval(args) -> int:
    spec = _criterion(args)
    matrix = parse_matrix_text(_read_text(args), args.format)
    _write(args, _fmt(evaluate(spec, matrix, full_matrix=matrix).value) + "\n")
    return 0


# each select method's selector, by its name in this module, and the flags
# of select that it reads, by dest; the select parser defaults those flags to
# None, so a flag that is not None was given on the command line
_METHODS = {
    "exact": ("select_exact", ("criterion", "p", "threads", "allow_large")),
    "greedy": ("select_greedy_forward", ("criterion", "p")),
    "greedy-frobenius": ("select_greedy_frobenius", ()),
    "local-swap": ("select_local_swap_volume", ("seed", "max_sweeps")),
}


def _cmd_select(args) -> int:
    selector, reads = _METHODS[args.method]
    given = [dest for dest in ("criterion", "p", "seed", "threads", "allow_large", "max_sweeps")
             if getattr(args, dest) is not None]
    for dest in given:
        if dest not in reads:
            flag = "--" + dest.replace("_", "-")
            raise InvalidParameterError(f"{flag} is not read by --method {args.method}")
    # a flag left out takes the selector's own default
    options = {dest: getattr(args, dest) for dest in given if dest not in ("criterion", "p")}
    matrix = parse_matrix_text(_read_text(args), args.format)
    criterion = (_criterion(args),) if "criterion" in reads else ()
    result = _deferred(selector)(matrix, args.k, *criterion, **options)
    _write(args, _render({
        "criterion": result.value.criterion.identifier,
        "method": result.method,
        "value": result.value.value,
        "subset": result.subset,
        "subsets_evaluated": result.subsets_evaluated,
    }, args.format))
    print(f"elapsed {result.elapsed:.3f}s", file=sys.stderr)
    return 0


def _cmd_decide(args) -> int:
    matrix = parse_matrix_text(_read_text(args), args.format)
    spec = _criterion(args)
    query = _deferred("DecisionQuery")(spec, args.k, args.b)
    outcome = _deferred("decide")(matrix, query, threads=args.threads,
                                  allow_large=args.allow_large)
    _write(args, _render({"criterion": spec.identifier, "k": args.k, "b": args.b,
                          "answer": bool(outcome.answer), "witness": outcome.witness},
                         args.format))
    return 0 if outcome.answer else 1


def _cmd_gen_true(args) -> int:
    x3c = _deferred("x3c")
    _write(args, x3c.format_instance(x3c.generate_true(args.m, args.extra, args.seed)))
    return 0


def _cmd_gen_false(args) -> int:
    x3c = _deferred("x3c")
    _write(args, x3c.format_instance(x3c.generate_false(args.m, args.n, args.seed)))
    return 0


def _cmd_solve(args) -> int:
    cover = _deferred("x3c").solve_exact(_instance(args))
    _write(args, _render({"cover": None if cover is None else ",".join(map(str, cover))}, "text"))
    return 0 if cover is not None else 1


def _cmd_reduce(args) -> int:
    _write(args, format_matrix(_deferred("x3c").reduce(_instance(args)).matrix, args.format))
    return 0


def _cmd_verify(args) -> int:
    x3c = _deferred("x3c")
    inst = _instance(args)
    solvable = x3c.solve_exact(inst) is not None
    agree = bool(x3c.verify_equivalence(inst, threads=args.threads))
    _write(args, _render({"solvable": solvable, "agreement": agree}, "text"))
    return 0 if agree else 1


def _gap_record(rep, fmt: str) -> dict:
    head = {"criterion": rep.criterion.identifier, "optimum": rep.exact_optimum,
            "threshold": rep.threshold}
    alt = {} if rep.alt_threshold is None else {"alt_threshold": rep.alt_threshold}
    tail = {"holds": bool(rep.gap_holds), "witness": rep.witness}
    # the text report puts alt_threshold beside threshold, JSON puts it last
    return head | tail | alt if fmt == "json" else head | alt | tail


def _cmd_gap(args) -> int:
    reports = _deferred("x3c").gap_report(_instance(args), threads=args.threads)
    _write(args, _render([_gap_record(rep, args.format) for rep in reports], args.format))
    return 0 if all(rep.gap_holds for rep in reports) else 1


def _cmd_gadget(args) -> int:
    matrix = _deferred("x3c").gadget(args.shared)
    if args.eval_criterion:
        spec = parse_criterion(args.eval_criterion, args.p)
        _write(args, _fmt(evaluate(spec, matrix, full_matrix=matrix).value) + "\n")
    else:
        _write(args, format_matrix(matrix, args.format))
    return 0


def _cmd_lemmas(args) -> int:
    reports = _deferred("run_suite")(seed=args.seed, trials=args.trials)
    _write(args, _render([{"lemma": rep.lemma_id, "trials": rep.trials,
                           "failures": rep.failures, "worst_violation": rep.worst_violation,
                           "seed": rep.seed} for rep in reports], args.format))
    return 0 if all(rep.failures == 0 for rep in reports) else 1


def _parse_p(raw: str) -> float:
    try:
        return parse_p(raw)
    except InvalidParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_count(raw: str, name: str, minimum: int) -> int:
    if not raw.isdecimal() or int(raw) < minimum:
        raise argparse.ArgumentTypeError(f"{name} must be an integer >= {minimum}, got {raw!r}")
    return int(raw)


def _parse_threads(raw: str) -> int:
    return _parse_count(raw, "threads", 1)


def _parse_sweeps(raw: str) -> int:
    return _parse_count(raw, "max-sweeps", 0)


# flags that several subcommands read, each declared once
_SHARED = {
    "--input": {"dest": "input_path", "help": "read from this file instead of stdin"},
    "--output": {"dest": "output_path", "help": "write to this file instead of stdout"},
    "--format": {"default": "csv", "choices": ("csv", "json")},
    "--p": {"type": _parse_p},
    "--threads": {"type": _parse_threads, "default": 1},
    "--allow-large": {"action": "store_true"},
    "--seed": {"type": int, "default": 0},
}
_IO = ("--input", "--output", "--format")


def _leaf(sub, name: str, run, help_text: str, *shared: str) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, help=help_text)
    parser.set_defaults(run=run)
    for flag in shared:
        parser.add_argument(flag, **_SHARED[flag])
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``colsel`` argument parser, built on first use and shared after that."""
    top = argparse.ArgumentParser(
        prog="colsel",
        description="Column subset selection criteria, selectors and reduction checks.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = _leaf(sub, "eval", _cmd_eval, "criterion value of a whole matrix", "--p", *_IO)
    p.add_argument("--criterion", required=True)

    p = _leaf(sub, "select", _cmd_select, "pick k columns by a criterion",
              "--p", "--seed", "--threads", "--allow-large", *_IO)
    p.add_argument("--method", default="exact",
                   choices=("exact", "greedy-frobenius", "greedy", "local-swap"))
    p.add_argument("--criterion")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-sweeps", type=_parse_sweeps)
    p.set_defaults(seed=None, threads=None, allow_large=None)

    p = _leaf(sub, "decide", _cmd_decide, "threshold decision problem",
              "--p", "--threads", "--allow-large", *_IO)
    p.add_argument("--criterion", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--b", type=float, required=True)

    p_x3c = sub.add_parser("x3c", help="instance generation, solving and reduction")
    x3c_sub = p_x3c.add_subparsers(dest="subcommand", required=True)
    p = _leaf(x3c_sub, "gen-true", _cmd_gen_true, "instance with a planted cover",
              "--seed", "--output")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--extra", type=int, default=0)
    p = _leaf(x3c_sub, "gen-false", _cmd_gen_false, "certified unsolvable instance",
              "--seed", "--output")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _leaf(x3c_sub, "solve", _cmd_solve, "find an exact cover", "--input", "--output")
    _leaf(x3c_sub, "reduce", _cmd_reduce, "emit the membership matrix", *_IO)
    _leaf(x3c_sub, "verify", _cmd_verify, "check decision criteria against the solver",
          "--threads", "--input", "--output")

    _leaf(sub, "gap", _cmd_gap, "separation thresholds on a false instance", "--threads", *_IO)

    p = _leaf(sub, "gadget", _cmd_gadget, "two-column overlap patterns",
              "--p", "--output", "--format")
    p.add_argument("--shared", type=int, required=True, choices=(1, 2))
    p.add_argument("--eval", dest="eval_criterion")

    p = _leaf(sub, "lemmas", _cmd_lemmas, "run the randomized verification suite",
              "--seed", "--output", "--format")
    p.add_argument("--trials", type=int, default=200)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ColselError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
