"""Plain numpy reference computations for the benchmark's correctness oracles.

Nothing here imports colsel.  Singular values come from eigenvalues of the
Gram matrix CᵀC and projectors from Householder QR, so the oracles do not
share the SVD path of the code they check.  They are only ever applied to
unscaled inputs; the value of a scaled input is checked against c**d times
the unscaled reference.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_CHUNK = 4096

MAXIMIZED = frozenset({"vol", "rvol", "sopt", "srank"})


def combinations(n: int, k: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)


def _stack(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """(B, m, k) stack of the column subsets named by the rows of idx."""
    return np.ascontiguousarray(a[:, idx].transpose(1, 0, 2))


def _values(a: np.ndarray, sub: np.ndarray, criterion: str) -> np.ndarray:
    if criterion == "res-two":
        m = a.shape[0]
        q, _ = np.linalg.qr(sub)
        proj = np.eye(m) - q @ q.transpose(0, 2, 1)
        # ‖P A‖₂² is the largest eigenvalue of P (A Aᵀ) P
        lam = np.linalg.eigvalsh(proj @ (a @ a.T) @ proj)[:, -1]
        return np.sqrt(np.maximum(lam, 0.0))
    gram = sub.transpose(0, 2, 1) @ sub
    s = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, ::-1], 0.0))
    k = s.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        if criterion == "vol":
            return np.prod(s, axis=1)
        if criterion == "rvol":
            return np.prod(s / s[:, :1], axis=1)
        if criterion == "sopt":
            norms = np.sqrt(np.einsum("bii->bi", gram))
            return (np.prod(s, axis=1) / np.prod(norms, axis=1)) ** (1.0 / k)
        if criterion == "norm-two":
            return s[:, 0]
        if criterion == "pinv-norm:p=4":
            return np.sum(s**-4, axis=1) ** 0.25
        if criterion == "cond:p=4":
            return np.sum(s**4, axis=1) ** 0.25 * np.sum(s**-4, axis=1) ** 0.25
        if criterion == "srank":
            return np.sum((s / s[:, :1]) ** 2, axis=1)
    raise ValueError(f"no reference for criterion {criterion!r}")


def criterion_values(a: np.ndarray, idx: np.ndarray, criterion: str) -> np.ndarray:
    """Reference value of ``criterion`` on every subset row of ``idx``."""
    out = np.empty(len(idx))
    for lo in range(0, len(idx), _CHUNK):
        out[lo:lo + _CHUNK] = _values(a, _stack(a, idx[lo:lo + _CHUNK]), criterion)
    return out


def exact_optimum(a: np.ndarray, k: int, criterion: str):
    """(optimal value, lexicographically first optimal subset) over all C(n, k)."""
    idx = combinations(a.shape[1], k)
    vals = criterion_values(a, idx, criterion)
    vals = np.where(np.isfinite(vals), vals, -np.inf if criterion in MAXIMIZED else np.inf)
    row = int(np.argmax(vals)) if criterion in MAXIMIZED else int(np.argmin(vals))
    return float(vals[row]), tuple(int(i) for i in idx[row])


def volume(c: np.ndarray) -> float:
    """|det R| of the QR factorization, the product of the singular values."""
    r = np.linalg.qr(c, mode="r")
    return float(np.prod(np.abs(np.diag(r))))


def residual_frobenius(a: np.ndarray, c: np.ndarray) -> float:
    q, _ = np.linalg.qr(c)
    return float(np.linalg.norm(a - q @ (q.T @ a)))


def best_swap_gain(a: np.ndarray, subset) -> float:
    """Largest log-volume gain of exchanging one selected column for an unselected one."""
    subset = list(subset)
    outside = [j for j in range(a.shape[1]) if j not in subset]
    swaps = [sorted(subset[:pos] + subset[pos + 1:] + [j])
             for pos in range(len(subset)) for j in outside]
    if not swaps:
        return -math.inf
    idx = np.array([subset] + swaps, dtype=np.intp)
    sub = _stack(a, idx)
    sign, logdet = np.linalg.slogdet(sub.transpose(0, 2, 1) @ sub)
    logvol = np.where(sign > 0, 0.5 * logdet, -np.inf)
    return float(np.max(logvol[1:]) - logvol[0])


def relative_error(value: float, expected: float) -> float:
    if value == expected:
        return 0.0
    return abs(value - expected) / max(abs(expected), np.finfo(np.float64).tiny)
