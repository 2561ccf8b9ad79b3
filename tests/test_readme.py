"""The README's CLI examples run as documented.

Each command of the README's ``sh`` block of ``colsel`` commands runs in
bash, with ``colsel`` standing for ``python -m colsel.cli`` on this
checkout's ``src``, in a directory that holds the input file the block
names (``a.csv``).  It must exit 0, and where a trailing comment states a
number, print that number.
"""

import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _commands():
    """(command, stated output or None) for each command of the README's
    ``sh`` block that runs ``colsel``, a line ending in a pipe joined to the
    next."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", text, re.S) if "colsel " in b]
    commands, pending = [], ""
    for line in block.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        command, _, comment = re.match(r"(.*?)(\s+#\s*(.*))?$", line).groups()
        pending += command.strip()
        if pending.endswith("|"):
            pending += " "
            continue
        stated = comment if comment and re.fullmatch(r"[-+0-9.e]+", comment) else None
        commands.append((pending, stated))
        pending = ""
    assert not pending
    return commands


COMMANDS = _commands()


def test_the_block_states_the_gadget_value():
    assert ("colsel gadget --shared 1 --eval rvol", "0.7071067811865474") in COMMANDS


@pytest.mark.parametrize("command, stated", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_readme_command(command, stated, tmp_path):
    a = np.random.default_rng(3).standard_normal((6, 8))
    (tmp_path / "a.csv").write_text(
        "".join(",".join(repr(float(v)) for v in row) + "\n" for row in a))
    env = dict(os.environ, PY=sys.executable,
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    run = subprocess.run(["bash", "-c", 'set -o pipefail; colsel() { "$PY" -m colsel.cli "$@"; }\n'
                          + command], cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    if stated is not None:
        assert run.stdout == stated + "\n"
