"""Column subset selection criteria, selectors, and reduction-based checks."""

from . import lemmas, x3c
from .criteria import (
    CriterionSpec,
    CriterionValue,
    condition_number,
    equivalence_criteria,
    evaluate,
    parse_criterion,
    pinv_schatten_norm,
    registry,
    relative_volume,
    residual,
    s_optimality,
    schatten_norm,
    stable_rank,
    values,
    volume,
)
from .errors import (
    CapacityError,
    ColselError,
    GenerationFailureError,
    InfeasibleError,
    InvalidInputError,
    InvalidParameterError,
    ParseError,
    PreconditionError,
    RankDeficiencyError,
    ShapeError,
)
from .lemmas import LemmaReport, check_removal_monotonicity, run_suite
from .matrixkit import (
    DenseMatrix,
    PartitionedPinv,
    SvdResult,
    complement_projector,
    concat_columns,
    partitioned_pinv,
    pseudo_inverse,
    svd,
)
from .selectors import (
    ColumnSubset,
    DecisionOutcome,
    DecisionQuery,
    SelectionResult,
    decide,
    select_exact,
    select_greedy_forward,
    select_greedy_frobenius,
    select_local_swap_volume,
)
from .x3c import GapReport, ReductionMatrix, X3CInstance, gap_report, verify_equivalence

__version__ = "0.1.0"
