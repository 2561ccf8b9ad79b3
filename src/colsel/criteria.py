"""Column subset selection criteria and the registry tying them together.

Every criterion is a function of the singular values of the selected
submatrix C (plus its column norms for the scaled volume, and the parent
matrix for the residuals).  ``_KINDS`` holds one row per criterion (a
Schatten family such as the condition numbers is one criterion), keyed by its
id, the one name a ``CriterionSpec`` takes: its other names, optimization
direction, rank requirement, Schatten-parameter domain, sigma-to-value
function, its value from an estimated spectrum of C (a ``GramSpectrum``,
for every criterion but the residuals) and the p at which a Cholesky factor
of C^T C gives that value, how far it can move when the sigmas move, and
the optimal value attained by k orthonormal columns, which is what turns
the optimization problems into decision problems.  Adding a criterion means
adding one row (plus its ``REGISTRY`` id when it belongs in the reports).
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
# the Schatten p whose power sums, tr H^(p/2) and tr H^(-p/2), a Cholesky factor gives
_CHOLESKY_P = (2.0, 4.0)

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


def _gram_schatten(g, p, norms):
    if p == math.inf:
        return g.largest()
    return g.power_sum(p) ** (1.0 / p)


def _gram_pinv_schatten(g, p, norms):
    if p == math.inf:
        return 1.0 / g.smallest()
    return g.power_sum(-p) ** (1.0 / p)


def _gram_cond(g, p, norms):
    if p == math.inf:
        return g.largest() / g.smallest()
    return _gram_schatten(g, p, norms) * _gram_pinv_schatten(g, p, norms)


def _gram_rvol(g, p, norms):
    # both invariants at unit scale: scale-free, as prod(sigma / sigma_1) is
    return g.root_det / g.top ** (g.k / 2.0)


def _gram_srank(g, p, norms):
    return g.sum(p / 2) / g.top ** (p / 2)


def _gram_sopt(g, p, norms):
    return (g.prod() / _prod(norms, axis=0)) ** (1.0 / g.k)


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
    ``gram_value`` maps a ``GramSpectrum`` (B rows), p and column norms
    (k, B) to the same B values, through its power sums, sigma_1, sigma_k
    and prod sigma; every criterion but the residuals has one.  ``cholesky_p`` holds the p
    at which that value needs only what a Cholesky factor gives, det(C^T C),
    the traces of its first two powers and inverse powers, and the largest
    eigenvalue (vol, rvol, sopt, norm at p = 2, 4 and inf, pinv-norm, cond
    and srank at p = 2 and 4; none for cond-mixed, which needs sigma_k on
    its own, as pinv-norm and cond at p = inf do).  ``log_lipschitz`` bounds the
    sum over i of |d log value / d log sigma_i| for k columns, so sigmas that
    each move by a factor within [1/c, c] move the value by a factor within
    [c^-L, c^L] (``batch_bands``); where ``gram_value`` reads one sigma through
    two invariants, each estimated on its own (rvol's sigma_1 through the
    determinant and the largest eigenvalue), the sum counts it in both.
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
    gram_value: Callable | None = None
    cholesky_p: tuple[float, ...] = _CHOLESKY_P


_KINDS = {
    "vol": _Kind("maximize", "zero", _one, lambda s, p, n: _prod(s, axis=-1),
                 named=(("volume", None),), log_lipschitz=lambda k, p: float(k),
                 gram_value=lambda g, p, n: g.prod()),
    "rvol": _Kind("maximize", "required", _one, lambda s, p, n: _prod(s / s[..., :1], axis=-1),
                  log_lipschitz=lambda k, p: 2.0 * k, gram_value=_gram_rvol),
    "sopt": _Kind("maximize", "required", _one, _sopt, needs_norms=True, gram_value=_gram_sopt),
    "norm": _Kind("minimize", "any", _unit_schatten, lambda s, p, n: _schatten(s, p), _ANY_P,
                  named=(("norm-two", math.inf), ("norm-frobenius", 2.0)),
                  characterizes=lambda p: p > 2, gram_value=_gram_schatten,
                  cholesky_p=(*_CHOLESKY_P, math.inf)),
    "pinv-norm": _Kind("minimize", "required", _unit_schatten,
                       lambda s, p, n: _pinv_schatten(s, p), _ANY_P,
                       named=(("pinv-norm-two", math.inf), ("pinv-norm-frobenius", 2.0)),
                       characterizes=lambda p: p >= 2, gram_value=_gram_pinv_schatten),
    "cond": _Kind("minimize", "required", lambda k, p: k ** (2.0 / p), _cond_schatten, _ANY_P,
                  named=(("cond-two", math.inf), ("cond-frobenius", 2.0)),
                  log_lipschitz=lambda k, p: 2.0, gram_value=_gram_cond),
    "cond-mixed": _Kind("minimize", "required", _root,
                        lambda s, p, n: _schatten(s, p) / s[..., -1], _ANY_P,
                        default_p=2.0, log_lipschitz=lambda k, p: 2.0,
                        gram_value=lambda g, p, n: _gram_schatten(g, p, n) / g.smallest(),
                        cholesky_p=()),
    "srank": _Kind("maximize", "any", lambda k, p: float(k),
                   lambda s, p, n: _sum((s / s[..., :1]) ** p, axis=-1), _FINITE_P2,
                   default_p=2.0, log_lipschitz=lambda k, p: 2.0 * p, gram_value=_gram_srank),
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


def stacked_values(specs, sigma: np.ndarray, column_norms, full_rank: np.ndarray) -> np.ndarray:
    """``values`` on a stack of B matrices of k columns, one value-function
    call per spec: the (len(specs), B) array whose column b is what
    ``values`` returns for matrix b, bit for bit.

    ``sigma`` (B, k), ``column_norms`` (B, k) and ``full_rank`` (B,) are as
    ``batch_values`` takes them; ``column_norms`` may be None when no spec
    reads it.  Raises what ``values`` raises, for the first spec on which
    any of the matrices makes it raise; the residual criteria are rejected.
    """
    out = np.empty((len(specs), len(sigma)))
    zero_top = sigma[:, 0] == 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i, spec in enumerate(specs):
            row = _KINDS[spec.kind]
            if row.value is None:
                raise InvalidParameterError("residual criteria need the parent matrix")
            if row.needs_norms and np.any(column_norms == 0.0):
                raise InvalidInputError("matrix has a zero column")
            if row.rank == "required" and not full_rank.all():
                raise RankDeficiencyError("a matrix of the stack is numerically rank deficient")
            zero = ~full_rank if row.rank == "zero" else zero_top
            out[i] = np.where(zero, 0.0, row.value(sigma, spec.p, column_norms))
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
    def gram_invariant(self) -> bool:
        """Whether ``batch_bands`` can band the value from the ``GramSpectrum``
        of a Cholesky factor: vol, rvol, sopt, norm-two, and norm, pinv-norm,
        cond and srank at p = 2 or 4."""
        row = _KINDS[self.kind]
        return row.gram_value is not None and self.p in (None, *row.cholesky_p)

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


class GramSpectrum:
    """Estimated spectra of a stack of B k-column submatrices C: what the
    ``_Kind.gram_value`` functions read in place of singular values, one
    object for every criterion of a chunk, so each quantity is formed once.

    Row b's sigmas are taken to lie within a factor 1 -+ ``rel[b]`` of the
    ones the SVD computes; a row whose full column rank its estimator did not
    prove has a NaN ``rel`` and NaN invariants, so every quantity formed from
    it is NaN.  Per row, with H = C^T C / scale^2, its estimator gave either
    the eigenvalues of H (``eigenvalues``, non-increasing), or what a
    Cholesky factor gives: ``root_det`` = det(H)^(1/2), ``traces`` mapping j
    to tr H^j for j = 1, 2 and, when an inverse was formed, -1, -2, and
    ``top``, the largest eigenvalue of H, when it was bracketed (else None).
    ``sum(j)`` is the power sum tr H^j, formed once and kept: by products and
    square roots of the eigenvalues where 2j is an integer of magnitude at
    most 4, the j that p = 2, 3 and 4 need, by ``np.power`` for any other.
    ``prod()``, ``power_sum(q)``, ``largest()`` and ``smallest()`` are C's
    prod sigma, sum sigma^q, sigma_1 and sigma_k.  ``scale`` is a numpy
    float64, so under ``np.errstate`` they over- and underflow where the
    products and powers of ``_Kind.value`` do; a quantity whose forming
    raises is not kept.  ``growth(L)`` is (1 - rel)^-L - 1, formed once per L.
    """

    def __init__(self, rel, scale, k: int, eigenvalues=None, root_det=None, traces=None,
                 top=None):
        self.rel, self.scale, self.k = rel, np.float64(scale), k
        self._sums, self._root_det, self.top, self.bottom = dict(traces or {}), root_det, top, None
        self._powers, self._growth, self._eigenvalues = {}, {}, None
        if eigenvalues is not None:
            # the eigenvalues of a row run down a column, so that every sum
            # over them adds whole rows of this array
            self._eigenvalues = lam = np.ascontiguousarray(eigenvalues.T)
            self.top, self.bottom = lam[0], lam[-1]

    def _power(self, j):
        """The eigenvalues to the power j, formed once per j."""
        if j not in self._powers:
            lam = self._eigenvalues
            if j == 1:
                out = lam
            elif j == -1:
                out = 1.0 / lam
            elif abs(j) == 0.5:
                out = np.sqrt(self._power(2 * j))
            elif float(2 * j).is_integer() and abs(j) <= 2:
                unit = math.copysign(1.0, j)
                out = self._power(unit) * self._power(j - unit)
            else:
                out = lam**j
            self._powers[j] = out
        return self._powers[j]

    def sum(self, j):
        if j not in self._sums:
            self._sums[j] = _sum(self._power(j), axis=0)
        return self._sums[j]

    @property
    def root_det(self):
        if self._root_det is None:
            self._root_det = _prod(self._power(0.5), axis=0)
        return self._root_det

    def prod(self):
        return self.root_det * self.scale**self.k

    def largest(self):
        return np.sqrt(self.top) * self.scale

    def smallest(self):
        return np.sqrt(self.bottom) * self.scale

    def power_sum(self, q):
        return self.sum(q / 2) * self.scale**q

    def growth(self, lipschitz: float):
        if lipschitz not in self._growth:
            self._growth[lipschitz] = (1.0 - self.rel) ** -lipschitz - 1.0
        return self._growth[lipschitz]


def batch_bands(spec: CriterionSpec, spectrum: GramSpectrum, column_norms: np.ndarray):
    """Band (estimate, width) around the value ``batch_values`` gives each row,
    from a ``GramSpectrum`` of its sigmas; a band that is not finite marks no
    usable estimate.

    ``column_norms`` is (B, k).  The estimate is the kind's ``gram_value``
    (the same function of the sigmas as its ``value``), and the width
    ``estimate * ((1 - rel)^-L - 1)`` follows from its ``log_lipschitz``
    constant L; ``rel`` is large enough to also cover the rounding of the
    value function and of the invariants it reads.  Both are NaN on a row
    whose full column rank the spectrum does not prove (its ``rel`` is NaN).
    Every width of the spec is infinite when its estimate overflows or
    underflows, where the value's own rounding is no longer relative to the
    value; the other specs of the spectrum keep theirs.
    """
    row = _KINDS[spec.kind]
    # down columns, as the spectrum's eigenvalues run
    norms = np.ascontiguousarray(column_norms.T) if row.needs_norms else None
    try:
        with np.errstate(all="raise"):
            estimate = row.gram_value(spectrum, spec.p, norms)
    except FloatingPointError:
        return np.zeros(len(spectrum.rel)), np.full(len(spectrum.rel), np.inf)
    return estimate, estimate * spectrum.growth(row.log_lipschitz(spectrum.k, spec.p))
