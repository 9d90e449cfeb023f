"""Rules every library module keeps, checked on its syntax tree.

Invariants raise ``VerificationError``: an ``assert`` statement vanishes
under ``python -O``.  No module-level function is wrapped in
``functools.cache`` or ``lru_cache``, whose hidden state outlives every
call and is shared by every caller in the process.  Documents are written
by ``ioformats.dumps`` alone: no module reaches ``json.dump``/``dumps``,
whose indented output runs the pure-Python encoder (``json.loads`` is
fine).  Cell labels are exponent tuples: the pipeline modules build no
``Monomial``, except ``complexes._labels``, which checks caller-supplied
vertex labels once.  Every imported name is read in its module or listed
in its ``__all__``, so no import outlives the code that used it.
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


# module -> functions in it that may call Monomial(...)
MONOMIAL_FREE = {"complexes.py": {"_labels"}, "resolution.py": set(), "scarf.py": set(),
                 "residue.py": set(), "staircase.py": set(), "cli.py": set()}


def _monomial_calls(tree, allowed):
    """Lines that call Monomial(...) outside the functions named in allowed."""
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name in allowed
              for node in ast.walk(fn)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside
            and (isinstance(node.func, ast.Name) and node.func.id == "Monomial"
                 or isinstance(node.func, ast.Attribute) and node.func.attr == "Monomial")]


def _json_writers(tree):
    """Lines that reach json.dump or json.dumps, by attribute or by import."""
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "json"}
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
             and isinstance(node.value, ast.Name) and node.value.id in aliases]
    found += [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "json"
              and any(a.name in ("dump", "dumps") for a in node.names)]
    return found


def _unused_imports(tree):
    """Names a module imports (``from __future__`` aside) but neither
    reads nor lists in ``__all__``."""
    imported = [a.asname or a.name.partition(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for a in node.names]
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    used |= {elt.value for node in tree.body if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
             for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in used]


def test_no_assert_statements():
    found = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_cached_module_level_functions():
    found = [f"{name}:{node.name}" for name, tree in _trees().items() for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(_is_cache(d) for d in node.decorator_list)]
    assert found == []


def test_one_json_writer():
    found = [f"{name}:{line}" for name, tree in _trees().items() for line in _json_writers(tree)]
    assert found == []


def test_pipeline_builds_no_monomial():
    trees = _trees()
    found = [f"{name}:{line}" for name, allowed in MONOMIAL_FREE.items()
             for line in _monomial_calls(trees[name], allowed)]
    assert found == []


def test_no_unused_imports():
    found = [f"{name}:{imported}" for name, tree in _trees().items()
             for imported in _unused_imports(tree)]
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
    writers = ast.parse("import json\nimport json as j\nfrom json import loads, dumps\n"
                        "json.loads('1')\nout = json.dumps({})\nj.dump({}, fh)\n"
                        "dumps = ioformats.dumps\n")
    assert sorted(_json_writers(writers)) == [3, 5, 6]
    builders = ast.parse("def _labels(labels):\n    return [Monomial(m) for m in labels]\n"
                         "def face(a, b):\n    c = monomial.Monomial(a)\n"
                         "    return Monomial(map(max, a, b)), Monomials(c), Monomial\n")
    assert sorted(_monomial_calls(builders, {"_labels"})) == [4, 5]
    assert sorted(_monomial_calls(builders, set())) == [2, 4, 5]
    imports = ast.parse("from __future__ import annotations\nimport os.path\nimport re as regex\n"
                        "from bisect import bisect_right\nfrom itertools import chain, groupby\n"
                        "from cellres.errors import ParseError\n__all__ = ['ParseError']\n"
                        "def f(x):\n    groupby = None\n    return os.sep, chain(x)\n")
    assert _unused_imports(imports) == ["regex", "bisect_right", "groupby"]
