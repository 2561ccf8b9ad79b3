"""Column subset selection criteria and the registry tying them together.

Every criterion is a function of the singular values of the selected
submatrix C (plus its column norms for the scaled volume, and the parent
matrix for the residuals).  ``_KINDS`` holds one row per criterion (a
Schatten family such as the condition numbers is one criterion): its ids,
optimization direction, rank requirement, Schatten-parameter domain,
sigma-to-value function, how far that value can move when the sigmas move,
and the optimal value attained by k orthonormal columns, which is what turns
the optimization problems into decision problems.  Adding a criterion means
adding one row (plus its ``REGISTRY`` id when it belongs in the reports).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, RankDeficiencyError, ShapeError
from .matrixkit import DenseMatrix, default_rank_tolerance, svd

# Schatten-parameter domains as (minimum, whether p = inf is allowed)
_ANY_P = (1.0, True)
_FINITE_P2 = (2.0, False)

# The value functions take a stack of sigma rows and reduce along the last
# axis.  The scalar evaluators pass a stack of one, so every power runs as
# numpy's array power, never as the float64 scalar power, whose last bit can
# differ; scalar and batched values then agree bit for bit.  The ufunc
# reductions are called directly: np.sum and np.prod wrap them at a cost the
# scalar evaluators would pay thousands of times per lemma-suite run.
_sum = np.add.reduce
_prod = np.multiply.reduce


def _schatten(sigma, p):
    if p == math.inf:
        return sigma[..., 0]
    return _sum(sigma**p, axis=-1) ** (1.0 / p)


def _pinv_schatten(sigma, p):
    if p == math.inf:
        return 1.0 / sigma[..., -1]
    return _sum(sigma ** (-p), axis=-1) ** (1.0 / p)


def _cond_schatten(sigma, p, norms):
    if p == math.inf:
        return sigma[..., 0] / sigma[..., -1]
    return _schatten(sigma, p) * _pinv_schatten(sigma, p)


def _sopt(sigma, p, norms):
    k = norms.shape[-1]
    return (_prod(sigma, axis=-1) / _prod(norms, axis=-1)) ** (1.0 / k)


def _root(k, p):
    return math.sqrt(k) if p == 2 else k ** (1.0 / p)


def _unit_schatten(k, p):
    return None if p < 2 else _root(k, p)


def _one(k, p):
    return 1.0


def _always(p):
    return True


@dataclass(frozen=True)
class _Kind:
    """Everything the package knows about one criterion; one row per criterion.

    ``ids`` holds the base id (which takes the ":p=" suffix when the kind has
    a Schatten parameter) followed by its aliases; ``named`` holds ids that
    pin p, e.g. ("norm-two", inf) or ("cond-frobenius", 2); ``default_p`` is
    the p a bare base id means (2 for "srank" and "cond-mixed").  ``rank``
    says what a numerically rank-deficient C scores: "required" rejects it,
    "zero" scores 0, "any" evaluates it as is.  ``value`` maps a stack of singular values (B, r), p
    and column norms (B, k) to B criterion values; residuals, which are not
    singular-value computable, name their norm in ``residual`` instead.
    ``log_lipschitz`` bounds the sum over i of |d log value / d log sigma_i|
    for k columns, so sigmas that each move by a factor within [1/c, c] move
    the value by a factor within [c^-L, c^L] (``batch_bands``).
    """

    ids: tuple[str, ...]
    direction: str
    rank: str
    unit_optimum: Callable[[int, float | None], float | None]
    value: Callable | None = None
    p_domain: tuple[float, bool] | None = None
    named: tuple[tuple[str, float], ...] = ()
    default_p: float | None = None
    characterizes: Callable[[float | None], bool] = _always
    needs_norms: bool = False
    residual: str | None = None
    log_lipschitz: Callable[[int, float | None], float] = _one


_KINDS = {
    "volume": _Kind(("vol", "volume"), "maximize", "zero", _one,
                    lambda s, p, n: _prod(s, axis=-1), log_lipschitz=lambda k, p: float(k)),
    "relative_volume": _Kind(("rvol",), "maximize", "required", _one,
                             lambda s, p, n: _prod(s / s[..., :1], axis=-1),
                             log_lipschitz=lambda k, p: 2.0 * (k - 1)),
    "s_optimality": _Kind(("sopt",), "maximize", "required", _one, _sopt, needs_norms=True),
    "norm": _Kind(("norm",), "minimize", "any", _unit_schatten,
                  lambda s, p, n: _schatten(s, p), _ANY_P,
                  named=(("norm-two", math.inf), ("norm-frobenius", 2.0)),
                  characterizes=lambda p: p > 2),
    "pinv_norm": _Kind(("pinv-norm",), "minimize", "required", _unit_schatten,
                       lambda s, p, n: _pinv_schatten(s, p), _ANY_P,
                       named=(("pinv-norm-two", math.inf), ("pinv-norm-frobenius", 2.0)),
                       characterizes=lambda p: p >= 2),
    "cond_schatten": _Kind(("cond",), "minimize", "required", lambda k, p: k ** (2.0 / p),
                           _cond_schatten, _ANY_P,
                           named=(("cond-two", math.inf), ("cond-frobenius", 2.0)),
                           log_lipschitz=lambda k, p: 2.0),
    "cond_mixed_schatten": _Kind(("cond-mixed",), "minimize", "required", _root,
                                 lambda s, p, n: _schatten(s, p) / s[..., -1], _ANY_P,
                                 default_p=2.0, log_lipschitz=lambda k, p: 2.0),
    "stable_rank": _Kind(("srank",), "maximize", "any", lambda k, p: float(k),
                         lambda s, p, n: _sum((s / s[..., :1]) ** p, axis=-1), _FINITE_P2,
                         default_p=2.0, log_lipschitz=lambda k, p: 2.0 * p),
    "residual_two": _Kind(("res-two",), "minimize", "any", lambda k, p: None,
                          characterizes=lambda p: False, residual="two"),
    "residual_frobenius": _Kind(("res-frobenius",), "minimize", "any", lambda k, p: None,
                                characterizes=lambda p: False, residual="frobenius"),
}

# every id, alias and pinned name -> (kind, pinned p or None), and pinned (kind, p) -> name
_NAMES = {name: (kind, None) for kind, row in _KINDS.items() for name in row.ids}
_NAMES.update((name, (kind, p)) for kind, row in _KINDS.items() for name, p in row.named)
_PINNED_NAMES = {(kind, p): name for kind, row in _KINDS.items() for name, p in row.named}


def _check_p(row: _Kind, p, label: str):
    """Validate ``p`` against the row's Schatten-parameter domain."""
    if row.p_domain is None:
        if p is not None:
            raise InvalidParameterError(f"{label} takes no p")
        return None
    if p is None:
        raise InvalidParameterError("Schatten parameter p is required")
    minimum, allow_inf = row.p_domain
    if not (allow_inf if p == math.inf else p >= minimum):
        domain = f">= {minimum:g} or inf" if allow_inf else f"finite and >= {minimum:g}"
        raise InvalidParameterError(f"{label}: Schatten parameter must be {domain}, got {p}")
    return float(p)


def _scalar(row: _Kind, c: DenseMatrix, p) -> float:
    """One submatrix's value through its row's sigma-to-value function."""
    norms = None
    if row.needs_norms:
        norms = c.column_norms()
        if np.any(norms == 0.0):
            raise InvalidInputError("matrix has a zero column")
    res = svd(c)
    if res.numerical_rank < c.cols:
        if row.rank == "required":
            raise RankDeficiencyError(
                f"matrix has numerical rank {res.numerical_rank} < {c.cols} columns"
            )
        if row.rank == "zero":
            return 0.0
    sigma = res.singular_values
    if sigma[0] == 0.0:
        return 0.0
    return float(row.value(sigma[None], p, None if norms is None else norms[None])[0])


def volume(c: DenseMatrix) -> float:
    """Product of all k singular values; 0 for numerically rank-deficient input."""
    return _scalar(_KINDS["volume"], c, None)


def relative_volume(c: DenseMatrix) -> float:
    """Product of sigma_j / sigma_1, in (0, 1] with 1 exactly for orthonormal columns."""
    return _scalar(_KINDS["relative_volume"], c, None)


def s_optimality(c: DenseMatrix) -> float:
    """k-th root of the volume scaled by the product of the column two-norms."""
    return _scalar(_KINDS["s_optimality"], c, None)


def schatten_norm(c: DenseMatrix, p) -> float:
    """(sum sigma_j^p)^(1/p); p=2 is the Frobenius norm, p=inf the two-norm."""
    row = _KINDS["norm"]
    return _scalar(row, c, _check_p(row, p, "Schatten norm"))


def pinv_schatten_norm(c: DenseMatrix, p) -> float:
    """Schatten p-norm of the pseudo-inverse, computed as (sum sigma_j^-p)^(1/p)."""
    row = _KINDS["pinv_norm"]
    return _scalar(row, c, _check_p(row, p, "pseudo-inverse Schatten norm"))


# condition-number flavor -> (criterion kind, the p it pins, or None when it takes p)
_COND_FLAVORS = {"two": ("cond_schatten", math.inf), "frobenius": ("cond_schatten", 2.0),
                 "schatten": ("cond_schatten", None), "mixed": ("cond_mixed_schatten", 2.0),
                 "mixed_schatten": ("cond_mixed_schatten", None)}


def condition_number(c: DenseMatrix, kind: str, p=None) -> float:
    """Condition number with respect to left inversion.

    kind selects the flavor: "two" (sigma_1/sigma_k), "frobenius",
    "schatten" (needs p), "mixed" (Frobenius times two-norm of the
    pseudo-inverse), or "mixed_schatten" (needs p).
    """
    if kind not in _COND_FLAVORS:
        raise InvalidParameterError(f"unknown condition number kind {kind!r}")
    name, pinned = _COND_FLAVORS[kind]
    row, label = _KINDS[name], f"condition number kind {kind!r}"
    if pinned is None:
        pinned = _check_p(row, p, label)
    elif p is not None:
        raise InvalidParameterError(f"{label} takes no p")
    return _scalar(row, c, pinned)


def stable_rank(c: DenseMatrix, p=2) -> float:
    """Schatten-p energy relative to the largest singular value; 0 for the zero matrix."""
    row = _KINDS["stable_rank"]
    return _scalar(row, c, _check_p(row, p, "stable rank"))


def batch_residuals(a: np.ndarray, sub: np.ndarray, norm: str) -> np.ndarray:
    """Norms of (I - C C^+) a for a stack ``sub`` of (B, m, k) submatrices C.

    One thin SVD with U per submatrix; singular directions at or below the
    rank tolerance are dropped, so rank-deficient C yields a finite residual.
    """
    m, k = sub.shape[1], sub.shape[2]
    u, s, _ = np.linalg.svd(sub, full_matrices=False)
    tol = default_rank_tolerance(m, k, s[:, 0])
    u = u * (s > tol[:, None])[:, None, :]
    coeff = np.einsum("bmr,mn->brn", u, a)
    rest = a[None, :, :] - u @ coeff
    if norm == "two":
        return np.linalg.svd(rest, compute_uv=False)[:, 0]
    return np.sqrt(np.sum(rest**2, axis=(1, 2)))


def residual(a: DenseMatrix, c: DenseMatrix, norm: str) -> float:
    """Norm of the part of ``a`` outside range(C), i.e. of (I - C C^+) a.

    Rank-deficient C is handled through tolerance truncation, so any column
    selection yields a finite residual.
    """
    if a.rows != c.rows:
        raise ShapeError(f"row counts differ: {a.rows} vs {c.rows}")
    if norm not in ("two", "frobenius"):
        raise InvalidParameterError(f"unknown residual norm {norm!r}")
    return float(batch_residuals(a.array, c.array[None], norm)[0])


@dataclass(frozen=True)
class CriterionSpec:
    """A named criterion with optimization direction and optimal unit-column value."""

    kind: str
    p: float | None = None

    def __post_init__(self):
        row = _KINDS.get(self.kind)
        if row is None:
            raise InvalidParameterError(f"unknown criterion kind {self.kind!r}")
        object.__setattr__(self, "p", _check_p(row, self.p, f"criterion kind {self.kind!r}"))

    @property
    def direction(self) -> str:
        return _KINDS[self.kind].direction

    @property
    def residual_norm(self) -> str | None:
        """"two" or "frobenius" for the residual criteria, None for the others."""
        return _KINDS[self.kind].residual

    @property
    def identifier(self) -> str:
        """Stable lowercase string id, e.g. "rvol", "cond-two", "pinv-norm:p=4"."""
        if (self.kind, self.p) in _PINNED_NAMES:
            return _PINNED_NAMES[self.kind, self.p]
        row = _KINDS[self.kind]
        if self.p == row.default_p:
            return row.ids[0]
        return f"{row.ids[0]}:p={_fmt_p(self.p)}"

    def optimal_unit_value(self, k: int) -> float | None:
        """Criterion value attained by k orthonormal columns, or None when the
        criterion has no distinguished unit-column optimum."""
        return _KINDS[self.kind].unit_optimum(k, self.p)

    @property
    def characterizes_orthonormal(self) -> bool:
        """Whether attaining the optimal unit-column value forces orthonormal columns.

        False for the Frobenius norm (every unit-column matrix attains sqrt(k)),
        for Schatten norms with p < 2, and for the residuals.
        """
        return _KINDS[self.kind].characterizes(self.p)

    def __str__(self):
        return self.identifier


def _fmt_p(p: float) -> str:
    if p == math.inf:
        return "inf"
    if float(p).is_integer():
        return str(int(p))
    return repr(float(p))


def parse_criterion(text: str, p=None) -> CriterionSpec:
    """Parse a criterion id like "rvol", "cond-two" or "pinv-norm:p=4".

    An explicit ``p`` argument supplies the Schatten parameter for the bare
    forms "norm", "pinv-norm", "cond", "cond-mixed" and "srank"; a ":p=" suffix
    in the id takes precedence.
    """
    text = text.strip().lower()
    if ":p=" in text:
        text, _, p = text.partition(":p=")
    if p is not None:
        p = _parse_p(p)
    if text not in _NAMES:
        raise InvalidParameterError(f"unknown criterion id {text!r}")
    kind, pinned = _NAMES[text]
    row = _KINDS[kind]
    if p is None:
        p = row.default_p if pinned is None else pinned
        if p is None and row.p_domain is not None:
            raise InvalidParameterError(f"criterion {text!r} needs a Schatten parameter p")
    elif pinned is not None or row.p_domain is None:
        raise InvalidParameterError(f"criterion {text!r} takes no Schatten parameter")
    return CriterionSpec(kind, p)


def _parse_p(raw) -> float:
    """A Schatten parameter given as text ("4", "inf") or as a number."""
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"bad Schatten parameter {raw!r}") from None


REGISTRY: tuple[CriterionSpec, ...] = tuple(map(parse_criterion, (
    "vol", "rvol", "sopt", "norm-two", "norm:p=3", "norm:p=4", "norm-frobenius",
    "pinv-norm-two", "pinv-norm-frobenius", "pinv-norm:p=3", "pinv-norm:p=4",
    "cond-two", "cond-frobenius", "cond:p=3", "cond:p=4", "cond-mixed", "cond-mixed:p=3",
    "cond-mixed:p=4", "srank", "srank:p=3", "srank:p=4", "res-two", "res-frobenius")))


def registry() -> tuple[CriterionSpec, ...]:
    """All registered criteria, in report order."""
    return REGISTRY


def equivalence_criteria() -> tuple[CriterionSpec, ...]:
    """Registered criteria whose unit-column optimum is attained only by
    orthonormal columns, the ones usable in orthonormal-subset decisions."""
    return tuple(s for s in REGISTRY if s.characterizes_orthonormal)


@dataclass(frozen=True)
class CriterionValue:
    """A criterion evaluated on a k-column submatrix."""

    value: float
    criterion: CriterionSpec
    subset_size: int

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise InvalidInputError(f"criterion value must be finite, got {self.value}")


def evaluate(spec: CriterionSpec, c: DenseMatrix, full_matrix: DenseMatrix | None = None) -> CriterionValue:
    """Evaluate a criterion on submatrix ``c``.

    The residual criteria additionally need the parent matrix the residual is
    measured against.
    """
    row = _KINDS[spec.kind]
    if row.residual is None:
        value = _scalar(row, c, spec.p)
    elif full_matrix is None:
        raise InvalidParameterError("residual criteria need the parent matrix")
    else:
        value = residual(full_matrix, c, row.residual)
    return CriterionValue(value, spec, c.cols)


def batch_values(spec: CriterionSpec, sigma: np.ndarray, column_norms: np.ndarray, full_rank: np.ndarray):
    """Vectorized criterion values for a batch of submatrices.

    ``sigma`` is (B, r) with singular values sorted non-increasing per row,
    ``column_norms`` is (B, k), and ``full_rank`` flags rows whose numerical
    rank equals k.  Returns (values, valid); invalid rows hold placeholder
    values and must be skipped by the caller.  The row's value function is
    the one the scalar evaluators call, so batched values match scalar ones
    bit for bit.  Residual criteria are not singular-value computable and are
    rejected here.
    """
    row = _KINDS[spec.kind]
    if row.value is None:
        raise InvalidParameterError(
            f"criterion {spec.identifier!r} is not singular-value computable"
        )
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = row.value(sigma, spec.p, column_norms)
    if row.rank == "required":
        return np.where(full_rank & np.isfinite(vals), vals, 0.0), full_rank
    scored = full_rank if row.rank == "zero" else sigma[:, 0] > 0.0
    return np.where(scored, vals, 0.0), np.ones(len(sigma), dtype=bool)


def batch_bands(spec: CriterionSpec, sigma: np.ndarray, column_norms: np.ndarray, rel_error: np.ndarray):
    """Band (estimate, width) around the value ``batch_values`` gives each row,
    from estimated singular values; an infinite width marks no usable estimate.

    ``sigma`` (B, r) and ``column_norms`` (B, k) are as in ``batch_values``;
    row b's sigmas are taken to lie within a factor 1 -+ ``rel_error[b]`` of
    the ones the SVD computes, a bound large enough to also cover the value
    function's own rounding.  A row whose error is 1 or more (inf: its full
    column rank is not proven) gets an estimate of 0 and an infinite width.
    For the others the estimate is the row's value function at ``sigma``,
    and the width ``estimate * ((1 - rel_error)^-L - 1)`` follows from the
    kind's ``log_lipschitz`` constant L.  Every width is infinite when the
    estimate overflows or underflows, where the value's own rounding is no
    longer relative to the value.
    """
    row = _KINDS[spec.kind]
    known = rel_error < 1.0
    estimate = np.zeros(len(sigma))
    width = np.full(len(sigma), np.inf)
    try:
        with np.errstate(all="raise"):
            estimate[known] = row.value(sigma[known], spec.p, column_norms[known])
    except FloatingPointError:
        return estimate, width
    factor = (1.0 - rel_error[known]) ** -row.log_lipschitz(column_norms.shape[-1], spec.p)
    width[known] = estimate[known] * (factor - 1.0)
    return estimate, width
