"""The README's library example and the monomial doctests run as tests,
and the export list is pinned to the package namespace, so an API change
cannot leave the documentation or ``__all__`` stale."""

import contextlib
import doctest
import inspect
import io
import re
from pathlib import Path

import cellres
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


def test_export_list_is_the_public_namespace():
    public = {name for name, value in vars(cellres).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(cellres.__all__) == sorted(public)
    namespace = {}
    exec("from cellres import *", namespace)  # an unbound name in __all__ raises here
    assert public <= namespace.keys()
