"""Exact cover by 3-sets: instances, the matrix reduction, and gap checks.

An instance consists of a ground set {1..3M} and n distinct 3-element sets.
It reduces to a 3M x n matrix with entries 1/sqrt(3) on set memberships, so
that M pairwise disjoint sets covering the ground set correspond exactly to
M orthonormal columns.  On instances certified to have no exact cover, every
selection criterion is bounded away from its orthonormal optimum by a
constant, and ``gap_report`` checks those separations by exhaustive
enumeration, within its budget: M = 8 with n = 24 sets fits, M = 9 with 27 not.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .criteria import CriterionSpec, equivalence_criteria, parse_criterion
from .errors import (
    CapacityError,
    GenerationFailureError,
    InvalidInputError,
    InvalidParameterError,
    ParseError,
    PreconditionError,
)
from .matrixkit import DenseMatrix, svd
from .selectors import ColumnSubset, check_exhaustive, exact_optima, meets_threshold
from .selectors import decide  # noqa: F401  (bench/tracer.py patches colsel.x3c.decide)

# computed once so every reduction and gadget entry is bit-identical
INV_SQRT3 = 1.0 / math.sqrt(3.0)

_FALSE_DRAW_BUDGET = 10_000


@dataclass(frozen=True)
class X3CInstance:
    """Ground set {1..3M} plus a collection of distinct 3-element sets."""

    m_triples: int
    sets: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.m_triples < 1:
            raise InvalidInputError(f"need M >= 1, got {self.m_triples}")
        ground = 3 * self.m_triples
        normalized = []
        for pos, triple in enumerate(self.sets):
            t = tuple(sorted(int(e) for e in triple))
            if len(t) != 3 or len(set(t)) != 3:
                raise InvalidInputError(f"set #{pos} must have exactly 3 distinct elements")
            if t[0] < 1 or t[-1] > ground:
                raise InvalidInputError(f"set #{pos} has elements outside 1..{ground}")
            normalized.append(t)
        if not normalized:
            raise InvalidInputError("an instance needs at least one set")
        if len(set(normalized)) != len(normalized):
            raise InvalidInputError("sets must be pairwise distinct")
        object.__setattr__(self, "sets", tuple(normalized))

    @property
    def n(self) -> int:
        return len(self.sets)

    @property
    def ground_size(self) -> int:
        return 3 * self.m_triples


@dataclass(frozen=True, eq=False)
class ReductionMatrix:
    """The 3M x n membership matrix of an instance, entries 0 or 1/sqrt(3)."""

    matrix: DenseMatrix
    source: X3CInstance

    def __post_init__(self):
        a = self.matrix.array
        if a.shape != (self.source.ground_size, self.source.n):
            raise InvalidInputError("reduction matrix shape does not match its instance")
        if not np.all((a == 0.0) | (a == INV_SQRT3)):
            raise InvalidInputError("reduction entries must be exactly 0 or 1/sqrt(3)")
        if not np.all(np.count_nonzero(a, axis=0) == 3):
            raise InvalidInputError("every reduction column must have exactly 3 nonzeros")
        if np.max(np.abs(np.linalg.norm(a, axis=0) - 1.0)) > 1e-15:
            raise InvalidInputError("reduction columns must have unit two-norm")


def solve_exact(instance: X3CInstance):
    """Indices of an exact cover (M pairwise disjoint sets covering 1..3M), or None.

    Backtracking over the sets containing the lowest uncovered element; worst
    case exponential.  Measured on a 2-vCPU x86 machine over 50 random and 50
    planted instances per size with 2M to 3M sets: at most 0.6 ms a call up
    to M = 9, 1.6 ms at M = 12 and 23 ms at M = 20.
    """
    ground = instance.ground_size
    by_element: dict[int, list[int]] = {e: [] for e in range(1, ground + 1)}
    for j, triple in enumerate(instance.sets):
        for e in triple:
            by_element[e].append(j)

    covered = [False] * (ground + 1)
    chosen: list[int] = []

    def backtrack(lowest: int):
        while lowest <= ground and covered[lowest]:
            lowest += 1
        if lowest > ground:  # disjoint triples covering all 3M elements: M of them
            return True
        for j in by_element[lowest]:
            triple = instance.sets[j]
            if any(covered[e] for e in triple):
                continue
            for e in triple:
                covered[e] = True
            chosen.append(j)
            if backtrack(lowest + 1):
                return True
            chosen.pop()
            for e in triple:
                covered[e] = False
        return False

    if backtrack(1):
        return tuple(sorted(chosen))
    return None


def _all_triples_count(m: int) -> int:
    return math.comb(3 * m, 3)


def generate_true(m: int, extra_sets: int, seed: int) -> X3CInstance:
    """Instance with a planted exact cover plus ``extra_sets`` random distractors."""
    if m < 1:
        raise InvalidParameterError(f"need M >= 1, got {m}")
    if extra_sets < 0:
        raise InvalidParameterError(f"need extra_sets >= 0, got {extra_sets}")
    if seed < 0:  # random.Random would take -5 as 5
        raise InvalidParameterError(f"need seed >= 0, got {seed}")
    capacity = _all_triples_count(m)
    if m + extra_sets > capacity:
        raise CapacityError(
            f"cannot place {m + extra_sets} distinct triples over {3 * m} elements "
            f"(capacity {capacity})"
        )
    rng = random.Random(seed)
    elements = list(range(1, 3 * m + 1))
    rng.shuffle(elements)
    sets = [tuple(sorted(elements[3 * i: 3 * i + 3])) for i in range(m)]
    seen = set(sets)
    attempts = 0
    while len(sets) < m + extra_sets:
        cand = tuple(sorted(rng.sample(range(1, 3 * m + 1), 3)))
        attempts += 1
        if cand not in seen:
            seen.add(cand)
            sets.append(cand)
        if attempts > 1000 * (m + extra_sets) + 10_000:
            raise CapacityError("exhausted attempts while placing distinct extra triples")
    rng.shuffle(sets)
    instance = X3CInstance(m, tuple(sets))
    if m <= 6 and solve_exact(instance) is None:
        raise AssertionError("planted cover lost; generator is broken")
    return instance


def generate_false(m: int, n: int, seed: int) -> X3CInstance:
    """Instance certified by exhaustive search to have no exact cover.

    Rejection-sampling: draw n distinct triples, keep the first collection the
    exact solver certifies unsolvable.  Such a collection exists exactly when
    n <= C(3M - 1, 3), and a larger n is rejected before any draw: the
    C(3M - 1, 3) triples that avoid one element have no cover, while each
    triple lies in P(M - 1) of the P(M) partitions of 1..3M into triples and
    P(M) / P(M - 1) = C(3M - 1, 2), so fewer missing triples than that always
    leave a partition, an exact cover, whole.  The instances exist to be
    checked by exhaustive search over their C(n, M) M-subsets
    (``verify_equivalence``, ``gap_report``), so an (M, n) past that search's
    budget is rejected up front too (``check_exhaustive``).  At the largest n
    within both, M = 2 and M = 5 to 12 returned within 0.3 s (three seeds
    each).  Where false instances exist but nearly every draw has a cover
    (seed 0: M = 3 from n = 30 to 56, M = 4 from n = 50 to 71), it fails
    after all 10,000 draws, in 3 to 7 s.
    """
    if m < 2:
        raise InvalidParameterError(
            "M >= 2 required: the single possible triple over 3 elements always covers"
        )
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got {n}")
    if seed < 0:
        raise InvalidParameterError(f"need seed >= 0, got {seed}")
    check_exhaustive(n, m)
    if n > (most := math.comb(3 * m - 1, 3)):
        raise CapacityError(f"no {n} distinct triples over {3 * m} elements lack an exact cover: "
                            f"a false instance has at most {most} sets")
    rng = random.Random(seed)
    for _ in range(_FALSE_DRAW_BUDGET):
        seen = set()
        while len(seen) < n:
            seen.add(tuple(sorted(rng.sample(range(1, 3 * m + 1), 3))))
        instance = X3CInstance(m, tuple(sorted(seen)))
        if solve_exact(instance) is None:
            return instance
    raise GenerationFailureError(
        f"no unsolvable instance with M={m}, n={n} found in {_FALSE_DRAW_BUDGET} draws"
    )


def reduce(instance: X3CInstance) -> ReductionMatrix:
    """Membership matrix with entry 1/sqrt(3) at (i, j) iff element i is in set j."""
    a = np.zeros((instance.ground_size, instance.n))
    for j, triple in enumerate(instance.sets):
        for e in triple:
            a[e - 1, j] = INV_SQRT3
    return ReductionMatrix(DenseMatrix(a), instance)


def gadget(shared: int) -> DenseMatrix:
    """The two-column overlap pattern for sets sharing 1 or 2 elements.

    shared=1 is the 5x2 pattern of two triples with one common element,
    shared=2 the 4x2 pattern with two common elements; entries exactly 0 or
    1/sqrt(3), matching the reduction matrices bit for bit.
    """
    if shared == 1:
        rows, first, second = 5, (0, 1, 2), (2, 3, 4)
    elif shared == 2:
        rows, first, second = 4, (0, 1, 2), (1, 2, 3)
    else:
        raise InvalidParameterError(f"shared must be 1 or 2, got {shared}")
    a = np.zeros((rows, 2))
    a[list(first), 0] = INV_SQRT3
    a[list(second), 1] = INV_SQRT3
    return DenseMatrix(a)


def verify_equivalence(instance: X3CInstance, threads: int = 1) -> bool:
    """Check that every registered decision criterion agrees with the exact solver.

    For each criterion whose unit-column optimum characterizes orthonormal
    columns, the decision "is there a k=M subset attaining the optimum" must
    answer yes exactly when the instance has an exact cover.  One exhaustive
    enumeration serves every criterion; an instance whose C(n, M) subsets
    exceed its budget is rejected before the solver runs (``check_exhaustive``).
    """
    check_exhaustive(instance.n, instance.m_triples)
    solvable = solve_exact(instance) is not None
    k = instance.m_triples
    specs = equivalence_criteria()
    if k > instance.n:
        # no k-subset exists, so every decision is "no"
        outcomes = [None] * len(specs)
    else:
        outcomes, _ = exact_optima(reduce(instance).matrix, k, specs, threads=threads)
    # None: no full-rank subset at all, so no orthonormal one either
    return all(
        (outcome is not None
         and meets_threshold(outcome[0], spec.optimal_unit_value(k),
                             spec.direction == "maximize")) == solvable
        for spec, outcome in zip(specs, outcomes)
    )


@dataclass(frozen=True)
class GapReport:
    """One criterion's exact optimum versus its separation threshold."""

    criterion: CriterionSpec
    exact_optimum: float
    threshold: float
    gap_holds: bool
    witness: ColumnSubset
    alt_threshold: float | None = None


def _gap_rows(k: int):
    """(criterion, threshold, alternate threshold) for the separation checks at subset size k."""
    quarter = math.sqrt(1.0 + 1.0 / (4.0 * k))
    return [
        (parse_criterion("rvol"), 1.0 / math.sqrt(2.0), None),
        (parse_criterion("vol"), 2.0 * math.sqrt(2.0) / 3.0, None),
        (parse_criterion("sopt"), (2.0 * math.sqrt(2.0) / 3.0) ** (1.0 / k), None),
        (parse_criterion("norm-two"), 2.0 / math.sqrt(3.0), None),
        # the bound established for the smallest singular value is sqrt(3/2);
        # the alternate stated factor 2/sqrt(3) is recorded alongside
        (parse_criterion("pinv-norm-two"), math.sqrt(1.5), 2.0 / math.sqrt(3.0)),
        (parse_criterion("pinv-norm-frobenius"), math.sqrt(k + 0.25), None),
        (parse_criterion("pinv-norm:p=3"), k ** (1.0 / 3.0) * quarter, None),
        (parse_criterion("pinv-norm:p=4"), k ** (1.0 / 4.0) * quarter, None),
        (parse_criterion("cond-two"), math.sqrt(2.0), None),
        (parse_criterion("cond-frobenius"), k * quarter, None),
        (parse_criterion("cond-mixed"), math.sqrt(1.5 * k), None),
        (parse_criterion("srank"), 0.75 * k, None),
    ]


def gap_report(instance: X3CInstance, threads: int = 1) -> list[GapReport]:
    """Exhaustively check every separation threshold on a certified-false instance.

    For a maximized criterion the gap holds when the exact optimum stays at or
    below the threshold; for a minimized one, at or above: ``decide``'s
    ``meets_threshold``, with its slack, asked on the mirrored side.
    An instance whose C(n, M) subsets exceed the search budget is rejected
    before the solver runs (``check_exhaustive``).
    """
    check_exhaustive(instance.n, instance.m_triples)
    if solve_exact(instance) is not None:
        raise PreconditionError("gap reports require an instance with no exact cover")
    k = instance.m_triples
    a = reduce(instance).matrix
    if svd(a).numerical_rank < k:
        raise PreconditionError(f"reduction matrix must have rank >= {k}")
    rows = _gap_rows(k)
    outcomes, _ = exact_optima(a, k, [spec for spec, _, _ in rows], threads=threads)
    reports = []
    for (spec, threshold, alt), outcome in zip(rows, outcomes):
        value, idx = outcome
        holds = meets_threshold(value, threshold, spec.direction != "maximize")
        reports.append(
            GapReport(
                criterion=spec,
                exact_optimum=value,
                threshold=threshold,
                gap_holds=holds,
                witness=ColumnSubset(idx),
                alt_threshold=alt,
            )
        )
    return reports


def format_instance(instance: X3CInstance) -> str:
    """Text form: "M n" header line, then one "a b c" line per set."""
    lines = [f"{instance.m_triples} {instance.n}"]
    lines += [" ".join(str(e) for e in triple) for triple in instance.sets]
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> X3CInstance:
    """Parse the text form produced by :func:`format_instance`."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("empty instance text", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError('header must be "M n"', line=1)
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError('header must hold two integers "M n"', line=1) from None
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != n:
        raise ParseError(f"expected {n} set lines, found {len(body)}", line=len(lines))
    sets = []
    for offset, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != 3:
            raise ParseError("each set line needs 3 elements", line=offset + 2)
        try:
            sets.append(tuple(int(tok) for tok in parts))
        except ValueError:
            raise ParseError(f"non-integer element in {ln!r}", line=offset + 2) from None
    try:
        return X3CInstance(m, tuple(sets))
    except InvalidInputError as exc:
        raise ParseError(str(exc)) from exc
