"""Rules every library module keeps, checked on its syntax tree.

Invariants raise ``VerificationError``: an ``assert`` statement vanishes
under ``python -O``.  No module-level function is wrapped in
``functools.cache`` or ``lru_cache``, whose hidden state outlives every
call and is shared by every caller in the process.
"""

import ast
from pathlib import Path

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "cellres").glob("*.py"))


def _trees():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "complexes.py"}
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in MODULES}


def _is_cache(decorator):
    if isinstance(decorator, ast.Call):  # lru_cache(maxsize=...)
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):  # functools.cache
        return decorator.attr in ("cache", "lru_cache")
    return isinstance(decorator, ast.Name) and decorator.id in ("cache", "lru_cache")


def test_no_assert_statements():
    found = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_cached_module_level_functions():
    found = [f"{name}:{node.name}" for name, tree in _trees().items() for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(_is_cache(d) for d in node.decorator_list)]
    assert found == []


def test_rules_detect_their_targets():
    tree = ast.parse("import functools\n"
                     "@functools.cache\ndef a(): pass\n"
                     "@lru_cache(maxsize=4)\ndef b(): pass\n"
                     "@functools.wraps(a)\ndef c():\n    assert a\n")
    cached = [n.name for n in tree.body if isinstance(n, ast.FunctionDef)
              and any(_is_cache(d) for d in n.decorator_list)]
    assert cached == ["a", "b"]
    assert sum(isinstance(n, ast.Assert) for n in ast.walk(tree)) == 1
