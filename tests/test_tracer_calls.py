"""The names the bench tracer wraps are the ones the CLI calls.

``tests/test_tracer_names.py`` checks that each patched name resolves; this
checks that a command runs through it, so a traced span cannot silently read
0 because the command calls the function by another path.  Each name is
replaced by a call counter where the tracer replaces it, and each command is
run once through ``colsel.cli.main``.
"""

import collections
import io

import pytest

from colsel import cli, x3c
from test_tracer_names import tracer_patches

MATRIX = "2,1,0\n0,1,3\n1,0,1\n"
# x3c gen-false --m 2 --n 4 --seed 3
FALSE_INSTANCE = "2 4\n1 4 5\n1 5 6\n2 5 6\n3 4 5\n"

# argv, stdin, and the (module, name) patch points the command must call
COMMANDS = [
    (["eval", "--criterion", "vol"], MATRIX, {(cli, "evaluate")}),
    (["select", "--k", "2", "--criterion", "vol"], MATRIX, {(cli, "select_exact")}),
    (["select", "--k", "2", "--method", "greedy", "--criterion", "sopt"], MATRIX,
     {(cli, "select_greedy_forward")}),
    (["select", "--k", "2", "--method", "greedy-frobenius"], MATRIX,
     {(cli, "select_greedy_frobenius")}),
    (["select", "--k", "2", "--method", "local-swap"], MATRIX, {(cli, "select_local_swap_volume")}),
    (["decide", "--criterion", "vol", "--k", "2", "--b", "0.5"], MATRIX, {(cli, "decide")}),
    (["lemmas", "--trials", "1"], "", {(cli, "run_suite")}),
    (["x3c", "verify"], FALSE_INSTANCE, {(x3c, "verify_equivalence"), (x3c, "exact_optima")}),
    (["gap"], FALSE_INSTANCE, {(x3c, "gap_report"), (x3c, "exact_optima")}),
]
PATCH_POINTS = set().union(*(points for *_, points in COMMANDS))


def _counting(counts, key, fn):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return counted


@pytest.fixture
def calls(monkeypatch):
    """Calls of each patch point, by (module, name), while the test runs."""
    counts = collections.Counter()
    for module, name in PATCH_POINTS:
        monkeypatch.setattr(module, name, _counting(counts, (module, name), getattr(module, name)))
    return counts


def test_the_tracer_wraps_every_patch_point():
    patched = {(module, attr) for module, attr, _ in tracer_patches()}
    assert {(module.__name__, name) for module, name in PATCH_POINTS} <= patched


@pytest.mark.parametrize("argv,stdin,points",
                         [pytest.param(*command, id=" ".join(command[0])) for command in COMMANDS])
def test_a_command_calls_its_patch_points(argv, stdin, points, calls, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert {point for point in points if calls[point] == 0} == set()
