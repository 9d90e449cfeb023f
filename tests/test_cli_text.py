"""The text output of every subcommand, pinned byte for byte.

Each ideal below runs through every subcommand; the stdout, stderr and
exit code of each run are written into one transcript, which must equal
the transcript stored under ``tests/cli_text/``.  A transcript block is
the command line after ``$``, then stdout verbatim, then any stderr line
prefixed ``stderr: `` and a nonzero exit code as ``exit: N``.
"""

import contextlib
import io
from pathlib import Path

import pytest

from cellres.cli import main

TRANSCRIPTS = Path(__file__).resolve().parent / "cli_text"

IDEALS = {
    # the README's library example: generic, not Artinian
    "plane": "vars: x,y\nideal: x^4, x^2*y, x*y^2\n",
    # the README's command-line example: Artinian, not generic
    "five": "vars: x,y,z\nideal: x^2, x*y, y^2, y*z, z^2\n",
    # strongly generic and Artinian
    "generic": "vars: x,y,z\nideal: x^5, y^5, z^5, x^3*y, y^2*z^3, x*z^2\n",
}

COMMANDS = [
    ["check"],
    ["scarf"],
    ["scarf", "--star"],
    ["scarf", "--star", "--ghost-exponent", "7"],
    ["taylor"],
    ["resolve", "--complex", "scarf"],
    ["resolve", "--complex", "taylor"],
    ["decompose"],
    ["decompose", "--method", "brute"],
    ["decompose", "--method", "scarf"],
    ["decompose", "--method", "minimal", "--complex", "scarf"],
    ["ass"],
    ["residue"],
    ["staircase"],
    ["verify"],
]


def transcript(path):
    blocks = []
    for argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), *argv[1:]])
        blocks.append(f"$ cellres {' '.join([argv[0], 'M.txt', *argv[1:]])}\n{out.getvalue()}")
        blocks.extend(f"stderr: {line}\n" for line in err.getvalue().splitlines())
        if code:
            blocks.append(f"exit: {code}\n")
    return "".join(blocks)


@pytest.mark.parametrize("name", sorted(IDEALS))
def test_cli_text_output_is_pinned(tmp_path, name):
    path = tmp_path / "M.txt"
    path.write_text(IDEALS[name])
    expected = (TRANSCRIPTS / f"{name}.txt").read_text(encoding="utf-8")
    assert transcript(path) == expected
