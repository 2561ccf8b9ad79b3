"""Where the band producers live, and the names the benchmark's tracer wraps.

``colsel.screen`` holds every estimator and band producer; ``colsel.selectors``
holds the search orders and certification and imports the screen, never the
other way round.  ``bench/tracer.py`` counts certification by wrapping
``colsel.selectors.batch_values``, so every selector must still certify
through that name.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from colsel import criteria, screen, selectors
from colsel.criteria import parse_criterion
from colsel.matrixkit import DenseMatrix

MOVED = ("_blocks", "_cholesky", "_inverse_traces", "_top_bracket", "_gram_estimates",
         "_cholesky_estimates", "_proven", "_residual_basis", "_residual_bands",
         "_residual_width", "_factored_parts", "_chunk_bytes", "_projection", "_swap_estimates",
         "_extension_estimates", "_rounding", "_unit_scaled", "GramSpectrum", "ROUNDING",
         "SCREEN_MARGIN", "RESIDUAL_SLACK")


def _tree(module):
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def _imported(tree):
    """Every dotted name an import statement of ``tree`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (".".join(filter(None, (node.module, alias.name))) for alias in node.names)


def test_screen_imports_nothing_from_selectors():
    found = [name for name in _imported(_tree(screen)) if "selectors" in name.split(".")]
    assert not found, f"screen.py imports {found}"


def _defined(module):
    """The names a module's top level binds by def, class or assignment."""
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("name", MOVED)
def test_selectors_no_longer_holds_a_band_producer(name):
    assert name not in _defined(selectors)
    assert not hasattr(selectors, name)


def test_gram_spectrum_lives_in_the_screen_alone():
    assert "GramSpectrum" in _defined(screen)
    assert "GramSpectrum" not in _defined(criteria)
    assert not hasattr(criteria, "GramSpectrum")


@pytest.mark.parametrize("select", (
    lambda m: selectors.select_exact(m, 6, parse_criterion("vol")),
    lambda m: selectors.select_greedy_forward(m, 6, parse_criterion("vol")),
    lambda m: selectors.select_local_swap_volume(m, 6),
), ids=("exact", "greedy-vol", "local-swap"))
def test_every_selector_certifies_through_the_traced_name(select, monkeypatch):
    calls = []
    real = selectors.batch_values

    def counting(*args):
        calls.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(selectors, "batch_values", counting)
    select(DenseMatrix(np.random.default_rng(12).standard_normal((12, 20))))
    assert calls and sum(calls) > 0
