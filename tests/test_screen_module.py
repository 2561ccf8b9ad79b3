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
         "_shifted_estimates", "_proven", "_residual_basis", "_residual_bands",
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


def _psd_stacks(d, seed, count=48):
    """A seeded (B, d, d) stack of positive semidefinite blocks: Gaussian
    Grams, integer Grams of a repeated column, exactly of rank d - 1 (zero
    at d = 1), blocks whose spectra spread from 1 to 1e-12, and zero blocks."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, d + 2, d))
    c = rng.integers(-3, 4, (count, d + 1, d)).astype(np.float64)
    c[..., -1] = c[..., 0] if d > 1 else 0.0
    q = np.linalg.qr(rng.standard_normal((count, d, d)))[0]
    spread = (q * np.logspace(0, -12, d)[None, None, :]) @ np.swapaxes(q, 1, 2)
    grams = [np.swapaxes(b, 1, 2) @ b for b in (g, c)]
    return np.concatenate(grams + [(spread + np.swapaxes(spread, 1, 2)) / 2.0,
                                   np.zeros((4, d, d))])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("d", range(1, 9))
def test_top_bracket_holds_the_largest_eigenvalue_of_each_block(d, seed):
    # lo <= lambda_max <= hi within the 2 d (d + 1) eps its docstring derives,
    # hi / lo at most d^(1/32) within the same slack, and (0, 0) for a zero
    # block
    h = _psd_stacks(d, seed)
    trace = np.einsum("bii->b", h)
    lo, hi = screen._top_bracket(h, trace)
    top = np.linalg.eigvalsh(h)[:, -1]
    slack = 2 * d * (d + 1) * np.finfo(np.float64).eps
    zero = trace == 0.0
    assert np.count_nonzero(zero) == 4 + (d == 1) * 48
    assert np.all(lo[zero] == 0.0) and np.all(hi[zero] == 0.0)
    assert np.all(lo * (1.0 - slack) <= top) and np.all(top <= hi * (1.0 + slack))
    assert np.all(hi <= lo * d ** (1 / 32) * (1.0 + slack))


@pytest.mark.parametrize("d", (2, 3, 6, 8))
def test_top_bracket_reads_any_layout_to_the_same_bits(d):
    # the Cholesky path hands its (k, k, B) blocks transposed, the residual
    # path divides its own Gram in place: both as a contiguous (B, k, k) copy
    h = _psd_stacks(d, 7)
    trace = np.einsum("bii->b", h)
    expected = screen._top_bracket(h.copy(), trace)
    transposed = np.moveaxis(np.ascontiguousarray(np.moveaxis(h, 0, -1)), -1, 0)
    assert not transposed.flags.c_contiguous
    in_place = h.copy()
    for got in (screen._top_bracket(transposed, trace),
                screen._top_bracket(in_place, trace, out=in_place)):
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
