"""Every name the bench tracer patches resolves in colsel.

``bench/tracer.py`` replaces each (module, attribute) of its ``PATCHES`` at
install time; a name a module no longer imports fails only a traced bench run.
This reads the table from the tracer's source and imports nothing from bench.
"""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_patches():
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["PATCHES"]


@pytest.mark.parametrize("module,attr,span", tracer_patches())
def test_patched_name_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr)), span
