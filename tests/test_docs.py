"""The README's library example and the monomial doctests run as tests,
so an API change cannot leave the documentation stale."""

import contextlib
import doctest
import io
import re
from pathlib import Path

import cellres.monomial

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_prints_its_comments():
    code = library_example()
    # a comment at the start of a line is output; comments after code are remarks
    expected = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


def test_monomial_doctests():
    result = doctest.testmod(cellres.monomial)
    assert result.attempted > 0 and result.failed == 0
