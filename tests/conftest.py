import pytest

from colsel import selectors


@pytest.fixture
def svd_rows(monkeypatch):
    """The number of rows of each call to ``selectors._batch_scores``."""
    rows = []
    real = selectors._batch_scores

    def counting(a, col_norms, idx, specs, *exponent):
        rows.append(len(idx))
        return real(a, col_norms, idx, specs, *exponent)

    monkeypatch.setattr(selectors, "_batch_scores", counting)
    return rows
