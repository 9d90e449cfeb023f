"""Output checks for benchmark ops, on plain tuples.

Nothing here imports cellres: each check recomputes what it needs from
the op's own generators, so a wrong answer from the program cannot also
make its check pass.  ``check`` returns None when the output is right
and a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import json

from workloads import divides, is_generic


def lcm(vectors, n):
    return tuple(max((v[i] for v in vectors), default=0) for i in range(n))


def is_artinian(gens) -> bool:
    n = len(gens[0])
    return all(any(g[i] > 0 and sum(g) == g[i] for g in gens) for i in range(n))


def is_strongly_generic(gens) -> bool:
    return not any(a == b > 0 for g, h in itertools.combinations(gens, 2) for a, b in zip(g, h))


def irreducible_contains(b, g) -> bool:
    """Monomial g lies in the irreducible ideal (z_i^b_i : b_i > 0)."""
    return any(bi and gi >= bi for gi, bi in zip(g, b))


def irreducible_inside(c, b) -> bool:
    """The irreducible ideal of c is contained in that of b."""
    return all(not ci or (bi and ci >= bi) for ci, bi in zip(c, b))


def decomposition_problem(gens, components):
    """Every component contains every generator; none contains another."""
    comps = [tuple(c) for c in components]
    if not comps:
        return "no components"
    if len(set(comps)) != len(comps):
        return "repeated component"
    for b in comps:
        if not any(b):
            return "zero component"
        missing = [g for g in gens if not irreducible_contains(b, g)]
        if missing:
            return f"component {b} misses generator {missing[0]}"
    for b, c in itertools.permutations(comps, 2):
        if irreducible_inside(c, b):
            return f"component {b} contains component {c}"
    return None


def _ideal_gens(doc):
    return tuple(sorted(tuple(g) for g in doc["generators"]))


def _check_check(op, doc):
    gens = op.gens
    if _ideal_gens(doc["ideal"]) != gens:
        return "generators differ from the input's minimal set"
    want = {"artinian": is_artinian(gens), "generic": is_generic(gens),
            "strongly_generic": is_strongly_generic(gens)}
    for key, value in want.items():
        if doc[key] is not value:
            return f"{key} is {doc[key]}, expected {value}"
    return None


def _complex_problem(cx, labels, n, max_dim):
    if sorted(tuple(v) for v in cx["labels"]) != sorted(labels):
        return "vertex labels differ from the generators"
    vertex_labels = [tuple(v) for v in cx["labels"]]
    for f in cx["faces"]:
        if tuple(f["label"]) != lcm([vertex_labels[v] for v in f["vertices"]], n):
            return f"face {f['id']} label is not the lcm of its vertices"
        if f["dim"] != len(f["vertices"]) - 1 or f["dim"] > max_dim:
            return f"face {f['id']} has dimension {f['dim']}"
    if sum(1 for f in cx["faces"] if f["dim"] == 0) != len(labels):
        return "not every generator is a vertex"
    return None


def _check_scarf(op, doc):
    gens, n = op.gens, op.nvars
    if "--star" not in op.args:
        problem = _complex_problem(doc["complex"], gens, n, n - 1)
        if problem:
            return problem
        labels = [tuple(f["label"]) for f in doc["complex"]["faces"]]
        if len(set(labels)) != len(labels):
            return "two Scarf faces share a label"
        return None
    if not doc["pairs"]:
        return "no (K, tau) pairs"
    if is_generic(gens):
        return decomposition_problem(gens, [p["annihilator"] for p in doc["pairs"]])
    return None


def _check_taylor(op, doc):
    r = len(op.gens)
    problem = _complex_problem(doc["complex"], op.gens, op.nvars, r - 1)
    if problem:
        return problem
    if len(doc["complex"]["faces"]) != 2 ** r - 1:
        return f"{len(doc['complex']['faces'])} faces, expected {2 ** r - 1}"
    return None


def _check_resolve(op, doc):
    if doc["chain_ok"] is not True:
        return "differentials do not compose to zero"
    if doc["is_resolution"] is not True:
        return "not a resolution"
    if doc["ranks"][:2] != [1, len(op.gens)]:
        return f"ranks start {doc['ranks'][:2]}"
    if "scarf" in op.args and is_generic(op.gens) and doc["is_minimal"] is not True:
        return "Scarf resolution of a generic ideal is not minimal"
    return None


def intersection_problem(gens, components):
    """The components intersect to the ideal.  Membership in the ideal
    and in every component depends only on which generator degrees each
    exponent reaches, so one point per class decides it."""
    n = len(gens[0])
    classes = [sorted({0} | {g[i] for g in gens}) for i in range(n)]
    for u in itertools.product(*classes):
        in_ideal = any(divides(g, u) for g in gens)
        if in_ideal != all(irreducible_contains(b, u) for b in components):
            return f"components intersect to another ideal (differs at {u})"
    return None


def _check_decompose(op, doc):
    return (decomposition_problem(op.gens, doc["components"])
            or intersection_problem(op.gens, doc["components"]))


def _check_ass(op, doc):
    primes = [tuple(K) for K in doc["associated_primes"]]
    n = op.nvars
    if not primes or len(set(primes)) != len(primes):
        return "associated primes empty or repeated"
    for K in primes:
        if not K or list(K) != sorted(set(K)) or not all(0 <= i < n for i in K):
            return f"bad prime {K}"
    if is_artinian(op.gens) and primes != [tuple(range(n))]:
        return "an Artinian ideal has only the maximal ideal as associated prime"
    return None


def _check_residue(op, doc):
    generic = is_generic(op.gens)
    if doc["complex_source"] != ("scarf" if generic else "taylor"):
        return f"default complex {doc['complex_source']}"
    verdict = doc["duality"]["verdict"]
    if generic and verdict != "exact":
        return f"verdict {verdict} on a generic ideal"
    if verdict not in ("exact", "consistent"):
        return f"verdict {verdict}"
    if not doc["current"]["entries"]:
        return "empty current"
    return None


def _check_verify(op, doc):
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    if doc["all_passed"] is not True or failed:
        return f"verify failed: {failed}"
    return None


def outer_corners(gens):
    """Outer corners of an n = 2 staircase: (a_{i+1}, b_i) along the
    generators sorted by x-degree."""
    g = sorted(gens)
    return [(g[i + 1][0], g[i][1]) for i in range(len(g) - 1)]


def _check_staircase(op, out):
    gens = op.gens
    if op.fmt == "json":
        doc = json.loads(out)
        if [tuple(p) for p in doc["inner_corners"]] != sorted(gens):
            return "inner corners differ from the generators"
        if [tuple(p) for p in doc["outer_corners"]] != outer_corners(gens):
            return "outer corners differ from the staircase's"
        return None
    if op.fmt == "svg":
        if not (out.startswith("<svg") and out.endswith("</svg>\n")):
            return "not an SVG document"
        if out.count('fill="#222222"') != len(gens):
            return "generator marks do not match the generators"
        return None
    rows = out.splitlines()[:-2]
    if sum(row[4:].count("G") for row in rows) != len(gens):
        return "generator marks do not match the generators"
    if sum(row[4:].count("O") for row in rows) != len(outer_corners(gens)):
        return "component marks do not match the outer corners"
    return None


_JSON_CHECKS = {
    "check": _check_check,
    "scarf": _check_scarf,
    "taylor": _check_taylor,
    "resolve": _check_resolve,
    "decompose": _check_decompose,
    "ass": _check_ass,
    "residue": _check_residue,
    "verify": _check_verify,
}


def check(op, code: int, out: str):
    """None if ``out`` and ``code`` are right for ``op``, else the reason."""
    if code != op.expect_exit:
        return f"exit code {code}, expected {op.expect_exit}"
    if code != 0:
        return "output on an error exit" if out else None
    try:
        if op.subcommand == "staircase":
            return _check_staircase(op, out)
        doc = json.loads(out)
        if doc.get("command") != op.subcommand:
            return f"command {doc.get('command')!r}"
        return _JSON_CHECKS[op.subcommand](op, doc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
