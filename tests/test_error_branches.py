"""Argument errors that no other test reaches, each with its class and message."""

import re

import numpy as np
import pytest

from colsel.cli import parse_matrix_text
from colsel.criteria import parse_criterion, residual
from colsel.errors import InvalidInputError, InvalidParameterError
from colsel.matrixkit import DenseMatrix
from colsel.selectors import exact_optima

EYE = DenseMatrix(np.eye(3))


@pytest.mark.parametrize("call, error, message", [
    (lambda: exact_optima(EYE, 2, [parse_criterion("vol")], threads=0), InvalidParameterError,
     "threads must be >= 1"),
    (lambda: residual(EYE, EYE.columns([0]), "spectral"), InvalidParameterError,
     "unknown residual norm 'spectral'"),
    (lambda: parse_matrix_text("1\n", "xml"), InvalidParameterError, "unknown matrix format 'xml'"),
    (lambda: DenseMatrix(np.zeros(3)), InvalidInputError, "expected a 2-d matrix, got ndim=1"),
], ids=("exact-threads-0", "residual-norm", "matrix-format", "matrix-ndim"))
def test_argument_errors(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
