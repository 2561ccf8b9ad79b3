"""Column subset selection criteria and the registry tying them together.

Every criterion is a function of the singular values of the selected
submatrix C (plus its column norms for the scaled volume, and the parent
matrix for the residuals).  ``_KINDS`` holds one row per criterion (a
Schatten family such as the condition numbers is one criterion), keyed by its
id, the one name a ``CriterionSpec`` takes: its other names, optimization
direction, rank requirement, Schatten-parameter domain, sigma-to-value
function, how far that value can move when the sigmas move, and the optimal
value attained by k orthonormal columns, which is what turns the optimization
problems into decision problems.  Adding a criterion means adding one row
(plus its ``REGISTRY`` id when it belongs in the reports).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, RankDeficiencyError, ShapeError
from .matrixkit import DenseMatrix, SvdResult, default_rank_tolerance, svd

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

    The row's key in ``_KINDS`` is the criterion's id, which takes the ":p="
    suffix when the criterion has a Schatten parameter.  ``named`` holds its
    other names with the p each pins, e.g. ("norm-two", inf) or
    ("cond-frobenius", 2), or None for an alias that pins none ("volume");
    ``default_p`` is the p a bare id means (2 for "srank" and "cond-mixed").  ``rank``
    says what a numerically rank-deficient C scores: "required" rejects it,
    "zero" scores 0, "any" evaluates it as is.  ``value`` maps a stack of singular values (B, r), p
    and column norms (B, k) to B criterion values; residuals, which are not
    singular-value computable, name their norm in ``residual`` instead.
    ``log_lipschitz`` bounds the sum over i of |d log value / d log sigma_i|
    for k columns, so sigmas that each move by a factor within [1/c, c] move
    the value by a factor within [c^-L, c^L] (``batch_bands``).
    """

    direction: str
    rank: str
    unit_optimum: Callable[[int, float | None], float | None]
    value: Callable | None = None
    p_domain: tuple[float, bool] | None = None
    named: tuple[tuple[str, float | None], ...] = ()
    default_p: float | None = None
    characterizes: Callable[[float | None], bool] = _always
    needs_norms: bool = False
    residual: str | None = None
    log_lipschitz: Callable[[int, float | None], float] = _one


_KINDS = {
    "vol": _Kind("maximize", "zero", _one, lambda s, p, n: _prod(s, axis=-1),
                 named=(("volume", None),), log_lipschitz=lambda k, p: float(k)),
    "rvol": _Kind("maximize", "required", _one, lambda s, p, n: _prod(s / s[..., :1], axis=-1),
                  log_lipschitz=lambda k, p: 2.0 * (k - 1)),
    "sopt": _Kind("maximize", "required", _one, _sopt, needs_norms=True),
    "norm": _Kind("minimize", "any", _unit_schatten, lambda s, p, n: _schatten(s, p), _ANY_P,
                  named=(("norm-two", math.inf), ("norm-frobenius", 2.0)),
                  characterizes=lambda p: p > 2),
    "pinv-norm": _Kind("minimize", "required", _unit_schatten,
                       lambda s, p, n: _pinv_schatten(s, p), _ANY_P,
                       named=(("pinv-norm-two", math.inf), ("pinv-norm-frobenius", 2.0)),
                       characterizes=lambda p: p >= 2),
    "cond": _Kind("minimize", "required", lambda k, p: k ** (2.0 / p), _cond_schatten, _ANY_P,
                  named=(("cond-two", math.inf), ("cond-frobenius", 2.0)),
                  log_lipschitz=lambda k, p: 2.0),
    "cond-mixed": _Kind("minimize", "required", _root,
                        lambda s, p, n: _schatten(s, p) / s[..., -1], _ANY_P,
                        default_p=2.0, log_lipschitz=lambda k, p: 2.0),
    "srank": _Kind("maximize", "any", lambda k, p: float(k),
                   lambda s, p, n: _sum((s / s[..., :1]) ** p, axis=-1), _FINITE_P2,
                   default_p=2.0, log_lipschitz=lambda k, p: 2.0 * p),
    "res-two": _Kind("minimize", "any", lambda k, p: None,
                     characterizes=lambda p: False, residual="two"),
    "res-frobenius": _Kind("minimize", "any", lambda k, p: None,
                           characterizes=lambda p: False, residual="frobenius"),
}

# every id and named entry -> (id, the p it pins or None), and pinned (id, p) -> its name
_NAMES = {kind: (kind, None) for kind in _KINDS}
_NAMES.update((name, (kind, p)) for kind, row in _KINDS.items() for name, p in row.named)
_PINNED_NAMES = {(kind, p): name for kind, row in _KINDS.items()
                 for name, p in row.named if p is not None}


def _scalar(row: _Kind, res: SvdResult, norms, cols: int, p) -> float:
    """One submatrix's value through its row's sigma-to-value function, from
    the submatrix's SVD and its column norms (None unless a row needed them)."""
    if res.numerical_rank < cols:
        if row.rank == "required":
            raise RankDeficiencyError(
                f"matrix has numerical rank {res.numerical_rank} < {cols} columns"
            )
        if row.rank == "zero":
            return 0.0
    sigma = res.singular_values
    if sigma[0] == 0.0:
        return 0.0
    return float(row.value(sigma[None], p, None if norms is None else norms[None])[0])


def values(c: DenseMatrix, specs, full_matrix: DenseMatrix | None = None) -> list[float]:
    """The value of each criterion in ``specs`` on submatrix ``c``.

    One ``svd(c)`` and at most one ``column_norms()`` serve every spec; the
    residual criteria measure against ``full_matrix``.  Raises what
    ``evaluate`` raises for the first spec that fails, apart from its
    finite-value check: a value that overflows is returned as is, without the
    floating-point warning, as ``batch_values`` returns it.
    """
    res = norms = None
    out = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for spec in specs:
            row = _KINDS[spec.kind]
            if row.residual is not None:
                if full_matrix is None:
                    raise InvalidParameterError("residual criteria need the parent matrix")
                out.append(residual(full_matrix, c, row.residual))
                continue
            if row.needs_norms and norms is None:
                norms = c.column_norms()
                if np.any(norms == 0.0):
                    raise InvalidInputError("matrix has a zero column")
            if res is None:
                res = svd(c)
            out.append(_scalar(row, res, norms, c.cols, spec.p))
    return out


def volume(c: DenseMatrix) -> float:
    """Product of all k singular values; 0 for numerically rank-deficient input."""
    return values(c, (CriterionSpec("vol"),))[0]


def relative_volume(c: DenseMatrix) -> float:
    """Product of sigma_j / sigma_1, in (0, 1] with 1 exactly for orthonormal columns."""
    return values(c, (CriterionSpec("rvol"),))[0]


def s_optimality(c: DenseMatrix) -> float:
    """k-th root of the volume scaled by the product of the column two-norms."""
    return values(c, (CriterionSpec("sopt"),))[0]


def schatten_norm(c: DenseMatrix, p) -> float:
    """(sum sigma_j^p)^(1/p); p=2 is the Frobenius norm, p=inf the two-norm."""
    return values(c, (CriterionSpec("norm", p),))[0]


def pinv_schatten_norm(c: DenseMatrix, p) -> float:
    """Schatten p-norm of the pseudo-inverse, computed as (sum sigma_j^-p)^(1/p)."""
    return values(c, (CriterionSpec("pinv-norm", p),))[0]


# condition-number flavor -> (criterion id, the p it pins, or None when it takes p)
_COND_FLAVORS = {"two": ("cond", math.inf), "frobenius": ("cond", 2.0), "schatten": ("cond", None),
                 "mixed": ("cond-mixed", 2.0), "mixed_schatten": ("cond-mixed", None)}


def condition_number(c: DenseMatrix, kind: str, p=None) -> float:
    """Condition number with respect to left inversion.

    kind selects the flavor: "two" (sigma_1/sigma_k), "frobenius",
    "schatten" (needs p), "mixed" (Frobenius times two-norm of the
    pseudo-inverse), or "mixed_schatten" (needs p).
    """
    if kind not in _COND_FLAVORS:
        raise InvalidParameterError(f"unknown condition number kind {kind!r}")
    name, pinned = _COND_FLAVORS[kind]
    if (pinned is None) == (p is None):
        need = "needs" if p is None else "takes no"
        raise InvalidParameterError(f"condition number kind {kind!r} {need} p")
    return values(c, (CriterionSpec(name, p if pinned is None else pinned),))[0]


def stable_rank(c: DenseMatrix, p=2) -> float:
    """Schatten-p energy relative to the largest singular value; 0 for the zero matrix."""
    return values(c, (CriterionSpec("srank", p),))[0]


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
    """A criterion by its id ("vol", "pinv-norm", ...) and Schatten parameter p,
    which defaults to the id's default p and is checked against its domain."""

    kind: str
    p: float | None = None

    def __post_init__(self):
        row = _KINDS.get(self.kind)
        if row is None:
            raise InvalidParameterError(f"unknown criterion id {self.kind!r}")
        p = row.default_p if self.p is None else self.p
        if (row.p_domain is None) != (p is None):
            need = "takes no" if p is not None else "needs a"
            raise InvalidParameterError(f"criterion {self.kind!r} {need} Schatten parameter")
        if p is not None:
            minimum, allow_inf = row.p_domain
            if not (allow_inf if p == math.inf else p >= minimum):
                domain = f">= {minimum:g} or inf" if allow_inf else f"finite and >= {minimum:g}"
                raise InvalidParameterError(
                    f"criterion {self.kind!r}: Schatten parameter must be {domain}, got {p}")
            object.__setattr__(self, "p", float(p))

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
        if self.p == _KINDS[self.kind].default_p:
            return self.kind
        return f"{self.kind}:p={_fmt_p(self.p)}"

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
    """Parse a criterion name like "rvol", "cond-two" or "pinv-norm:p=4".

    The name is an id, the alias "volume", or a name that pins p such as
    "cond-two".  An explicit ``p`` argument supplies the Schatten parameter
    for the ids that take one, "norm", "pinv-norm", "cond", "cond-mixed" and
    "srank"; a ":p=" suffix takes precedence.  ``CriterionSpec`` checks p.
    """
    text = text.strip().lower()
    if ":p=" in text:
        text, _, p = text.partition(":p=")
    if text not in _NAMES:
        raise InvalidParameterError(f"unknown criterion id {text!r}")
    kind, pinned = _NAMES[text]
    if pinned is not None and p is not None:
        raise InvalidParameterError(f"criterion {text!r} takes no Schatten parameter")
    return CriterionSpec(kind, pinned if p is None else parse_p(p))


def parse_p(raw) -> float:
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
    return CriterionValue(values(c, (spec,), full_matrix)[0], spec, c.cols)


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
