"""A colsel process imports only the modules its command runs.

Each case starts a fresh interpreter, imports ``colsel.cli`` there, runs one
command in process through ``colsel.cli.main`` and reports the exit code and
the colsel modules then loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import colsel

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import io, sys
import colsel.cli
code = 0
if sys.argv[1:]:
    out, sys.stdout = sys.stdout, io.StringIO()
    code = colsel.cli.main(sys.argv[1:])
    sys.stdout = out
print(code, *sorted(m for m in sys.modules if m.startswith("colsel")))
"""

MATRIX = "2,1,0\n0,1,3\n1,0,1\n"
# x3c gen-true --m 2 --extra 1 --seed 0, and x3c gen-false --m 2 --n 4 --seed 3
TRUE_INSTANCE = "2 3\n3 4 6\n2 3 5\n1 4 6\n"
FALSE_INSTANCE = "2 4\n1 4 5\n1 5 6\n2 5 6\n3 4 5\n"
DEFERRED = ("colsel.selectors", "colsel.screen", "colsel.x3c", "colsel.lemmas")
LEMMAS_AND_X3C = ("colsel.lemmas", "colsel.x3c")

# argv (none: the import alone), stdin, and the modules the command must not load
CASES = [
    ((), "", DEFERRED),
    (("eval", "--criterion", "vol"), MATRIX, DEFERRED),
    (("select", "--k", "2", "--criterion", "vol"), MATRIX, LEMMAS_AND_X3C),
    (("select", "--k", "2", "--method", "greedy", "--criterion", "sopt"), MATRIX, LEMMAS_AND_X3C),
    (("select", "--k", "2", "--method", "greedy-frobenius"), MATRIX, LEMMAS_AND_X3C),
    (("select", "--k", "2", "--method", "local-swap"), MATRIX, LEMMAS_AND_X3C),
    (("decide", "--criterion", "vol", "--k", "2", "--b", "0.5"), MATRIX, LEMMAS_AND_X3C),
    (("lemmas", "--trials", "1"), "", ("colsel.selectors", "colsel.screen", "colsel.x3c")),
    (("x3c", "gen-true", "--m", "2", "--extra", "1"), "", ("colsel.lemmas",)),
    (("x3c", "gen-false", "--m", "2", "--n", "4", "--seed", "3"), "", ("colsel.lemmas",)),
    (("x3c", "solve"), TRUE_INSTANCE, ("colsel.lemmas",)),
    (("x3c", "reduce"), TRUE_INSTANCE, ("colsel.lemmas",)),
    (("x3c", "verify"), FALSE_INSTANCE, ("colsel.lemmas",)),
    (("gap",), FALSE_INSTANCE, ("colsel.lemmas",)),
    (("gadget", "--shared", "1"), "", ("colsel.lemmas",)),
    (("gadget", "--shared", "2", "--eval", "srank"), "", ("colsel.lemmas",)),
]

# every name ``colsel/__init__.py`` imported before it resolved them on first access
EXPORTS = (
    "lemmas", "x3c", "CriterionSpec", "CriterionValue", "condition_number",
    "equivalence_criteria", "evaluate", "parse_criterion", "pinv_schatten_norm", "registry",
    "relative_volume", "residual", "s_optimality", "schatten_norm", "stable_rank", "values",
    "volume", "CapacityError", "ColselError", "GenerationFailureError", "InfeasibleError",
    "InvalidInputError", "InvalidParameterError", "ParseError", "PreconditionError",
    "RankDeficiencyError", "ShapeError", "LemmaReport", "check_removal_monotonicity",
    "run_suite", "DenseMatrix", "PartitionedPinv", "SvdResult", "complement_projector",
    "concat_columns", "partitioned_pinv", "pseudo_inverse", "svd", "ColumnSubset",
    "DecisionOutcome", "DecisionQuery", "SelectionResult", "decide", "select_exact",
    "select_greedy_forward", "select_greedy_frobenius", "select_local_swap_volume", "GapReport",
    "ReductionMatrix", "X3CInstance", "gap_report", "verify_equivalence", "__version__",
)


def probe(code: str, argv=(), stdin=""):
    """(first field, the rest) of what ``code``, run with ``argv`` in a fresh
    interpreter that imports colsel from this checkout, prints."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code, *argv], input=stdin, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    first, *rest = proc.stdout.split()
    return first, set(rest)


@pytest.mark.parametrize("argv,stdin,absent", [
    pytest.param(*case, id=" ".join(case[0]) or "import") for case in CASES])
def test_a_command_loads_only_what_it_runs(argv, stdin, absent):
    code, loaded = probe(PROBE, argv, stdin)
    assert code == "0"
    assert {"colsel", "colsel.cli", "colsel.criteria", "colsel.errors",
            "colsel.matrixkit"} <= loaded
    assert not loaded & set(absent)


def test_import_colsel_loads_no_module():
    _, loaded = probe("import sys, colsel; print(0, *(m for m in sys.modules if '.' in m "
                      "and m.startswith('colsel')))")
    assert loaded == set()


@pytest.mark.parametrize("name", EXPORTS)
def test_every_export_still_imports_from_colsel(name):
    namespace = {}
    exec(f"from colsel import {name}", namespace)
    assert namespace[name] is getattr(colsel, name)
    assert name in colsel.__all__ and name in dir(colsel)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'colsel' has no attribute 'nope'"):
        colsel.nope  # noqa: B018
    assert not hasattr(colsel, "nope")
