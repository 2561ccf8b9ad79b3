"""Column subset selection criteria and the registry tying them together.

Every criterion is a function of the singular values of the selected
submatrix C (plus its column norms for the scaled volume, and the parent
matrix for the residuals).  ``_KINDS`` holds one row per criterion (a
Schatten family such as the condition numbers is one criterion), keyed by its
id, the one name a ``CriterionSpec`` takes: its other names, optimization
direction, rank requirement, Schatten-parameter domain, its one value
function, which reads a spectrum of C (computed sigmas, a ``Singular``, or
estimated ones, a ``screen.GramSpectrum``; every criterion but the
residuals has one), the p at which that value needs no eigenvalue of C^T C
and what it reads instead, how far it can move when the sigmas move (``batch_bands``), and the
optimal value attained by k orthonormal columns, which is what turns the
optimization problems into decision problems.  Adding a criterion means
adding one row (plus its ``REGISTRY`` id when it belongs in the reports).
Each criterion prints one name, and ``evaluate`` and the scalar wrappers
are one-spec calls of ``values``.

One reader, ``_read``, turns a computed spectrum into reported values and
applies the rank rules.  ``stacked_values`` checks its specs in order and
then reads them; ``values`` scores its specs in order, each non-residual
one through ``stacked_values``, so the first spec that fails raises; and
``batch_values``, which certifies every selector's candidates, reads one
spec and marks the rows it can report.

Every criterion is homogeneous in the scale of C: value(c C) = c^d value(C)
for the row's ``degree`` d.  So C is decomposed at its own unit scale, C /
2**e with 2**e the power of two at or below its largest entry
(``unit_scaled``): by ``values``, and by the selectors for each candidate.
``Singular`` then divides each matrix's sigmas by the power of two of its
sigma_1, and the value read there is multiplied back by both powers to the
d, exactly wherever it stays normal.  No decomposition and no read over- or
underflows on the way, whatever the scale of C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, RankDeficiencyError, ShapeError
from .matrixkit import DenseMatrix, default_rank_tolerance, pow2_scaled, svd, unit_scaled

# Schatten-parameter domains as (minimum, whether p = inf is allowed)
_ANY_P = (1.0, True)
_FINITE_P2 = (2.0, False)

# ``Singular``'s reads take a stack of sigma rows and reduce along the last
# axis.  ``values`` passes a stack of one, so every power runs as numpy's
# array power, never as the float64 scalar power, whose last bit can differ;
# scalar and batched values then agree bit for bit.  The ufunc reductions
# are called directly: np.sum and np.prod wrap them at a cost ``values``
# would pay thousands of times per lemma-suite run.
_sum = np.add.reduce
_prod = np.multiply.reduce


class Singular:
    """The spectrum a value function reads, from a (B, r) stack of computed
    singular values, non-increasing along each row, at each row's unit
    scale: ``sigma`` holds the row divided by 2**e, e the binary exponent of
    its sigma_1, so that sigma_1 lies in [1/2, 1).  ``unit`` divides a
    row's column norms alike, and ``rescaled`` takes values read at unit
    scale back to the matrices' own, keeping their bits but for the last
    digits of a 1/p power whose 1/p is inexact in binary (p = 3, 1.5, 6,
    rarely 4).  ``screen.GramSpectrum`` answers the same reads from estimates."""

    def __init__(self, sigma: np.ndarray):
        self._exponent = np.frexp(sigma[:, 0])[1]
        self._shift = -self._exponent[:, None]
        self.sigma = np.ldexp(sigma, self._shift)

    def unit(self, column_norms: np.ndarray) -> np.ndarray:
        """(B, k) column norms divided by their row's 2**e."""
        return np.ldexp(column_norms, self._shift)

    def rescaled(self, vals: np.ndarray, degree: int) -> np.ndarray:
        """(B,) values read at unit scale, of a criterion of this degree d,
        times 2**(e d)."""
        return np.ldexp(vals, self._exponent * degree) if degree else vals

    def largest(self):
        return self.sigma[..., 0]

    def smallest(self):
        return self.sigma[..., -1]

    def prod(self):
        return _prod(self.sigma, axis=-1)

    def power_sum(self, q):
        return _sum(self.sigma**q, axis=-1)

    def relative_prod(self):
        return _prod(self.sigma / self.sigma[..., :1], axis=-1)

    def relative_power_sum(self, q):
        return _sum((self.sigma / self.sigma[..., :1]) ** q, axis=-1)


def _schatten(s, p, norms):
    if p == math.inf:
        return s.largest()
    return s.power_sum(p) ** (1.0 / p)


def _pinv_schatten(s, p, norms):
    if p == math.inf:
        return 1.0 / s.smallest()
    return s.power_sum(-p) ** (1.0 / p)


def _cond_schatten(s, p, norms):
    if p == math.inf:
        return s.largest() / s.smallest()
    return _schatten(s, p, norms) * _pinv_schatten(s, p, norms)


def _sopt(s, p, norms):
    # column-major, so that the product over the columns multiplies whole rows
    return (s.prod() / _prod(np.asfortranarray(norms), axis=-1)) ** (1.0 / norms.shape[-1])


def _root(k, p):
    return math.sqrt(k) if p == 2 else k ** (1.0 / p)


def _unit_schatten(k, p):
    return None if p < 2 else _root(k, p)


def _one(k, p):
    return 1.0


def _always(p):
    return True


def _scale_free(k):
    return 0


@dataclass(frozen=True)
class _Kind:
    """Everything the package knows about one criterion; one row per criterion.

    The row's key in ``_KINDS`` is the criterion's id, which takes the ":p="
    suffix when the criterion has a Schatten parameter.  ``named`` holds its
    other names with the p each pins, e.g. ("norm-two", inf) or
    ("cond-frobenius", 2), or None for an alias that pins none ("volume");
    ``default_p`` is the p a bare id means (2 for "srank" and "cond-mixed").  ``rank``
    says what a numerically rank-deficient C scores: "required" rejects it,
    "zero" scores 0, "any" evaluates it as is.  ``value`` maps a spectrum of
    B matrices (a ``Singular``, or a ``screen.GramSpectrum``), p and their
    column norms (B, k) to B criterion values, through the spectrum's reads
    alone; the residuals, which are not singular-value computable, name
    their norm in ``residual`` instead.  ``factored`` maps each p at which
    the value needs no eigenvalue of H = C^T C to the invariants it reads
    beside tr H^j, j = 1, 2: "det" det H and "inverse" tr H^-j, which a
    Cholesky factor of H gives (vol, sopt, rvol, and pinv-norm and cond at
    p = 2, 4), and "top" the largest eigenvalue's bracket; the values that
    read neither "det" nor "inverse" (norm at p = 2, 4, inf and srank at
    p = 2, 4) are functions of tr H^j and lambda_max alone, and their
    passes form no factor.  No p is mapped where the value needs an
    eigenvalue (p = 3, or sigma_k alone: cond-mixed, pinv-norm-two and
    cond-two).
    ``log_lipschitz`` bounds the sum over i of |d log value / d log sigma_i|
    for k columns, so sigmas that each move by a factor within [1/c, c] move
    the value by a factor within [c^-L, c^L] (``batch_bands``); where a
    spectrum read takes one sigma from two invariants, each estimated on its
    own (``relative_prod()``'s sigma_1 through a ``GramSpectrum``'s
    determinant and largest eigenvalue), the sum counts it in both.
    ``degree`` maps k to the d with value(c C) = c^d value(C): k for vol, 1
    for the Schatten norms and the residuals, -1 for the pseudo-inverse
    norms, 0 for the scale-free rest.
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
    factored: dict[float | None, tuple[str, ...]] = field(default_factory=dict)
    degree: Callable[[int], int] = _scale_free


_KINDS = {
    "vol": _Kind("maximize", "zero", _one, lambda s, p, n: s.prod(), named=(("volume", None),),
                 log_lipschitz=lambda k, p: float(k), factored={None: ("det",)},
                 degree=lambda k: k),
    "rvol": _Kind("maximize", "required", _one, lambda s, p, n: s.relative_prod(),
                  log_lipschitz=lambda k, p: 2.0 * k, factored={None: ("det", "top")}),
    "sopt": _Kind("maximize", "required", _one, _sopt, needs_norms=True,
                  factored={None: ("det",)}),
    "norm": _Kind("minimize", "any", _unit_schatten, _schatten, _ANY_P,
                  named=(("norm-two", math.inf), ("norm-frobenius", 2.0)),
                  characterizes=lambda p: p > 2,
                  factored={2.0: (), 4.0: (), math.inf: ("top",)}, degree=lambda k: 1),
    "pinv-norm": _Kind("minimize", "required", _unit_schatten, _pinv_schatten, _ANY_P,
                       named=(("pinv-norm-two", math.inf), ("pinv-norm-frobenius", 2.0)),
                       characterizes=lambda p: p >= 2,
                       factored={2.0: ("inverse",), 4.0: ("inverse",)}, degree=lambda k: -1),
    "cond": _Kind("minimize", "required", lambda k, p: k ** (2.0 / p), _cond_schatten, _ANY_P,
                  named=(("cond-two", math.inf), ("cond-frobenius", 2.0)),
                  log_lipschitz=lambda k, p: 2.0, factored={2.0: ("inverse",), 4.0: ("inverse",)}),
    "cond-mixed": _Kind("minimize", "required", _root,
                        lambda s, p, n: _schatten(s, p, n) / s.smallest(), _ANY_P,
                        default_p=2.0, log_lipschitz=lambda k, p: 2.0),
    "srank": _Kind("maximize", "any", lambda k, p: float(k),
                   lambda s, p, n: s.relative_power_sum(p), _FINITE_P2, default_p=2.0,
                   log_lipschitz=lambda k, p: 2.0 * p, factored={2.0: ("top",), 4.0: ("top",)}),
    "res-two": _Kind("minimize", "any", lambda k, p: None,
                     characterizes=lambda p: False, residual="two", degree=lambda k: 1),
    "res-frobenius": _Kind("minimize", "any", lambda k, p: None,
                           characterizes=lambda p: False, residual="frobenius",
                           degree=lambda k: 1),
}

# every id and named entry -> (id, the p it pins or None), and pinned (id, p) -> its name
_NAMES = {kind: (kind, None) for kind in _KINDS}
_NAMES.update((name, (kind, p)) for kind, row in _KINDS.items() for name, p in row.named)
_PINNED_NAMES = {(kind, p): name for kind, row in _KINDS.items()
                 for name, p in row.named if p is not None}


def values(c: DenseMatrix, specs, full_matrix: DenseMatrix | None = None) -> list[float]:
    """The value of each criterion in ``specs`` on submatrix ``c``, scored
    in spec order, so the first spec that fails raises what ``evaluate``
    raises for it.

    A residual measures against ``full_matrix`` (``residual``); every other
    spec is read by ``stacked_values`` on C / 2**e alone, C at its own unit
    scale (``DenseMatrix.unit_scaled``), from one ``svd``, taken when the
    first such spec comes up, and at most one ``column_norms()``, taken
    when the first spec that reads norms does (a residual without the
    parent matrix is rejected there), and multiplied by 2**(e d) for the
    spec's degree d.  Apart from ``evaluate``'s finite-value check: a value
    past float64 range comes back as inf (or as the rounded subnormal or 0
    below it), without a floating-point warning (``batch_values`` instead
    marks a non-finite value's row invalid).
    """
    out, sigma, norms = [], None, None
    for spec in specs:
        if spec.residual_norm is not None and full_matrix is not None:
            out.append(residual(full_matrix, c, spec.residual_norm))
            continue
        if sigma is None:
            unit, exponent = c.unit_scaled()
            res = svd(unit)
            sigma, full = res.singular_values[None], np.array([res.numerical_rank == c.cols])
        if norms is None and _KINDS[spec.kind].needs_norms:
            norms = unit.column_norms()[None]
        value = stacked_values([spec], sigma, norms, full)[0, 0]
        out.append(pow2_scaled(value, exponent * spec.degree(c.cols)))
    return out


def stacked_values(specs, sigma: np.ndarray, column_norms, full_rank: np.ndarray) -> np.ndarray:
    """The (len(specs), B) values of ``specs`` on a stack of B matrices of k
    columns, read from the sigmas it is given.  Column b is what ``values``
    returns for matrix b, bit for bit at any scale, when each matrix is
    decomposed at its own unit scale, as ``values`` and ``selectors._unit_svd``
    decompose it; sigmas of the raw matrices may differ in the last bits
    where LAPACK rescales the input itself (entries beyond about 1e±138).

    ``sigma`` (B, r), ``column_norms`` (B, k) and ``full_rank`` (B,) are as
    ``batch_values`` takes them; ``column_norms`` may be None when no spec
    reads it.  The specs are checked in order, and the first on which any
    of the matrices fails raises (a zero column for sopt, rank deficiency
    for a rank-required criterion; the residual criteria are rejected);
    then ``_read`` reads them all.
    """
    deficient = np.count_nonzero(full_rank) < len(full_rank)
    zero_column = column_norms is not None and bool((column_norms == 0.0).any())
    for spec in specs:
        row = _KINDS[spec.kind]
        if row.value is None:
            raise InvalidParameterError("residual criteria need the parent matrix")
        if row.needs_norms and zero_column:
            raise InvalidInputError("matrix has a zero column")
        if row.rank == "required" and deficient:
            raise RankDeficiencyError(f"criterion {spec.identifier!r} needs full column rank")
    return _read(specs, sigma, column_norms, full_rank)


def _read(specs, sigma: np.ndarray, column_norms, full_rank: np.ndarray) -> np.ndarray:
    """The one reader of a computed spectrum: the (len(specs), B) values of
    singular-value ``specs`` on a stack of B matrices, each row of ``sigma``
    read at its unit scale by one ``Singular`` (with ``column_norms``, when
    given, put at the same scale) and rescaled by the spec's degree.  A row
    the spec's rank rule scores 0 is 0: for "any" one whose sigma_1 is 0,
    else one short of full column rank.  No floating-point warning is
    raised; a value past float64 range is inf.
    """
    out, spectrum = np.empty((len(specs), len(sigma))), Singular(sigma)
    norms = None if column_norms is None else spectrum.unit(column_norms)
    # a rank rule zeroes no matrix of full rank (whose sigma_1 is positive)
    zeroes = np.count_nonzero(full_rank) < len(full_rank)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i, spec in enumerate(specs):
            row = _KINDS[spec.kind]
            out[i] = spectrum.rescaled(row.value(spectrum, spec.p, norms), row.degree(sigma.shape[1]))
            if zeroes:
                out[i, sigma[:, 0] == 0.0 if row.rank == "any" else ~full_rank] = 0.0
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
    """Norms of (I - C C^+) a for a stack ``sub`` of (B, m, k) submatrices C
    of ``a``, both at a's unit scale (``unit_scaled``), where no square
    over- or underflows; nothing is rescaled here.

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

    Both are divided by A's power of two (``unit_scaled``), and the norm is
    multiplied back once.  Rank-deficient C is handled through tolerance
    truncation, so any column selection yields a residual, finite unless it
    leaves float64 range.
    """
    if a.rows != c.rows:
        raise ShapeError(f"row counts differ: {a.rows} vs {c.rows}")
    if norm not in ("two", "frobenius"):
        raise InvalidParameterError(f"unknown residual norm {norm!r}")
    unit, exponent = unit_scaled(a.array)
    return pow2_scaled(batch_residuals(unit, np.ldexp(c.array, -exponent)[None], norm)[0], exponent)


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
    def factored(self) -> tuple[str, ...] | None:
        """The invariants beside tr (C^T C)^j that the value reads ("det",
        "inverse", "top"; ``_Kind.factored``), or None where it needs an
        eigenvalue."""
        return _KINDS[self.kind].factored.get(self.p)

    def degree(self, k: int) -> int:
        """The d with value(c C) = c^d value(C) on k columns (``_Kind.degree``)."""
        return _KINDS[self.kind].degree(k)

    @property
    def gram_invariant(self) -> bool:
        """Whether ``batch_bands`` can band the value without the eigenvalues
        of C^T C: from tr (C^T C)^j and the ``factored`` invariants."""
        return self.factored is not None

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
    "cond-two".  The ids "norm", "pinv-norm", "cond", "cond-mixed" and "srank"
    take a Schatten parameter from a ":p=" suffix or the ``p`` argument, and
    a name that gives p, by a suffix or by pinning it, takes no ``p``.
    ``CriterionSpec`` checks p.
    """
    text = text.strip().lower()
    if ":p=" in text:
        if p is not None:
            raise InvalidParameterError(f"criterion {text!r} gives p by its suffix, so it takes no "
                                        "Schatten parameter")
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
    values and must be skipped by the caller.  A row is invalid where its
    rank rule rejects it, and wherever its value or its sigma_1 is not
    finite.  The value is read by ``_read``, the one reader behind
    ``stacked_values`` and so behind ``values``, so batched values match
    scalar ones bit for bit when each row's sigmas come, as the selectors
    take them, from its matrix at its own unit scale.  Residual criteria are not singular-value
    computable and are rejected here.
    """
    row = _KINDS[spec.kind]
    if row.value is None:
        raise InvalidParameterError(
            f"criterion {spec.identifier!r} is not singular-value computable"
        )
    (vals,) = _read([spec], sigma, column_norms if row.needs_norms else None, full_rank)
    valid = np.isfinite(vals) & np.isfinite(sigma[:, 0])
    return vals, valid & full_rank if row.rank == "required" else valid


def batch_bands(spec: CriterionSpec, spectrum, column_norms: np.ndarray):
    """Band (estimate, width) around the value ``batch_values`` gives each row,
    from a ``screen.GramSpectrum`` of its sigmas; a band that is not finite
    marks no usable estimate.

    ``column_norms`` is (B, k).  The estimate is the kind's ``value`` read
    from the estimated spectrum, the one function ``batch_values`` reads from
    the computed sigmas, and the width ``estimate * ((1 - rel)^-L - 1)``
    follows from its ``log_lipschitz`` constant L; ``rel`` is large enough to
    also cover the rounding of the value function and of the invariants it
    reads.  Both are NaN on a row whose full column rank the spectrum does
    not prove (its ``rel`` is NaN).  Every width of the spec is infinite when
    its estimate, or a product it forms on the way (sopt's column norms),
    overflows or underflows, where the value's own rounding is no longer
    relative to the value; the other specs of the spectrum keep theirs.
    """
    row = _KINDS[spec.kind]
    try:
        with np.errstate(all="raise"):
            estimate = row.value(spectrum, spec.p, column_norms)
    except FloatingPointError:
        return np.zeros(len(spectrum.rel)), np.full(len(spectrum.rel), np.inf)
    return estimate, estimate * spectrum.growth(row.log_lipschitz(spectrum.k, spec.p))
