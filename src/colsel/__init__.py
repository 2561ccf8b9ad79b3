"""Column subset selection criteria, selectors, and reduction-based checks.

Each public name is imported from its module on first access (PEP 562), so
``import colsel`` loads no module and a caller loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names that ``import colsel`` exposes from it; each
# module is exposed under its own name too
_EXPORTS = {
    "criteria": ("CriterionSpec", "CriterionValue", "condition_number", "equivalence_criteria",
                 "evaluate", "parse_criterion", "pinv_schatten_norm", "registry",
                 "relative_volume", "residual", "s_optimality", "schatten_norm", "stable_rank",
                 "values", "volume"),
    "errors": ("CapacityError", "ColselError", "GenerationFailureError", "InfeasibleError",
               "InvalidInputError", "InvalidParameterError", "ParseError", "PreconditionError",
               "RankDeficiencyError", "ShapeError"),
    "lemmas": ("LemmaReport", "check_removal_monotonicity", "run_suite"),
    "matrixkit": ("DenseMatrix", "PartitionedPinv", "SvdResult", "complement_projector",
                  "concat_columns", "partitioned_pinv", "pseudo_inverse", "svd"),
    "screen": (),
    "selectors": ("ColumnSubset", "DecisionOutcome", "DecisionQuery", "SelectionResult", "decide",
                  "select_exact", "select_greedy_forward", "select_greedy_frobenius",
                  "select_local_swap_volume"),
    "x3c": ("GapReport", "ReductionMatrix", "X3CInstance", "gap_report", "verify_equivalence"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
