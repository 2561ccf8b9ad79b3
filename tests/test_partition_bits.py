"""The bits of ``matrixkit.partitioned_pinv`` and ``batch_projected`` on
seeded Gaussian inputs, against the float hex recorded in
``data/partition_bits.json``.

The lemma reports pin only each lemma's worst row, and the one-matrix and
stacked paths run the same kernels, so a change to the kernels' arithmetic
(say C^T (P C) for (C^T P) C in the Schur complement) moves both alike and
fails no other test; this one fails on any bit.  After a deliberate change
to that arithmetic, rewrite the file with
``PYTHONPATH=src python tests/test_partition_bits.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from colsel.matrixkit import DenseMatrix, batch_complement_projector, batch_projected, partitioned_pinv

RECORDED = Path(__file__).resolve().parent / "data" / "partition_bits.json"

# (seed, m, columns of C1, columns of C2), within the shapes the lemma suite
# draws.  For a symmetric P, C^T (P C) is the transpose of (C^T P) C, which
# the symmetrization hides; only a one-column block shows the reassociation,
# so both lists hold one
PINV_CASES = ((0, 3, 1, 1), (1, 5, 2, 3), (2, 8, 3, 2), (3, 12, 4, 2), (4, 6, 1, 5))
# (seed, stack size, m, columns of C, columns of the projector's matrix)
PROJECTED_CASES = ((5, 6, 7, 3, 2), (6, 3, 12, 5, 1), (7, 4, 9, 1, 3))


def _hex(arr):
    return {"shape": list(arr.shape), "hex": [float(x).hex() for x in arr.ravel()]}


def _pinv_bits(seed, m, k1, k2):
    c = np.random.default_rng(seed).standard_normal((m, k1 + k2))
    parts = partitioned_pinv(DenseMatrix(c[:, :k1]), DenseMatrix(c[:, k1:]))
    return {name: _hex(getattr(parts, name).array)
            for name in ("m1_pinv", "m2_pinv", "schur1", "schur2")}


def _projected_bits(seed, b, m, k, j):
    rng = np.random.default_rng(seed)
    c, other = rng.standard_normal((b, m, k)), rng.standard_normal((b, m, j))
    pc, schur = batch_projected(batch_complement_projector(other), c)
    return {"projected": _hex(pc), "schur": _hex(schur)}


def _cases():
    return {**{f"partitioned_pinv-{'-'.join(map(str, case))}": (_pinv_bits, case)
               for case in PINV_CASES},
            **{f"batch_projected-{'-'.join(map(str, case))}": (_projected_bits, case)
               for case in PROJECTED_CASES}}


@pytest.mark.parametrize("name", sorted(_cases()))
def test_kernels_keep_their_recorded_bits(name):
    kernel, case = _cases()[name]
    assert kernel(*case) == json.loads(RECORDED.read_text(encoding="utf-8"))[name]


if __name__ == "__main__":
    RECORDED.write_text(json.dumps({name: kernel(*case) for name, (kernel, case) in _cases().items()},
                                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
