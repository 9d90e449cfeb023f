"""Parsing and serialization for ideals, complexes, and result documents.

Two interchangeable ideal formats: a human text form

    vars: x,y,z
    ideal: x^2, x*y, y^2

and a JSON form ``{"nvars": 3, "generators": [[2,0,0], ...]}`` (with an
optional "vars" name list).  Complexes are JSON only: vertex labels as
exponent vectors plus either "facets" (simplicial) or "faces" with
explicit signed boundary lists (polyhedral).  All emitted documents use
canonical ordering -- faces by (dimension, vertex set), monomials and
exponent vectors lexicographically -- so byte-identical reruns are
guaranteed.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _escape

from cellres.complexes import LabeledComplex, polyhedral_from_incidence, simplicial_from_facets
from cellres.errors import ParseError, PreconditionError
from cellres.monomial import IrreducibleIdeal, Monomial, MonomialIdeal

SCHEMA_VERSION = 1

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def default_var_names(n: int):
    if n <= 4:
        return tuple("xyzw"[:n])
    return tuple(f"z{i + 1}" for i in range(n))


def monomial_str(exps, names) -> str:
    """The monomial with exponent tuple ``exps``, as in ``x^2*y``."""
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(names[i])
        elif e > 1:
            parts.append(f"{names[i]}^{e}")
    return "*".join(parts) if parts else "1"


def ideal_str(M: MonomialIdeal, names) -> str:
    return "(" + ", ".join(monomial_str(g.exps, names) for g in M.gens) + ")"


def ideal_text(M: MonomialIdeal, names=None) -> str:
    """The parseable two-line text form of an ideal."""
    names = names or default_var_names(M.nvars)
    return (f"vars: {','.join(names)}\n"
            f"ideal: {', '.join(monomial_str(g.exps, names) for g in M.gens)}\n")


def irreducible_str(irr: IrreducibleIdeal, names) -> str:
    return ideal_str(irr.as_ideal(), names)


def _parse_term(chunk: str, lineno: int, base_col: int, declared, seen):
    """One generator like ``x^2*y``; returns a dict var name -> exponent."""
    exps = {}
    pos = 0
    expect_factor = True
    while pos < len(chunk):
        if chunk[pos].isspace():
            pos += 1
            continue
        if not expect_factor:
            if chunk[pos] == "*":
                pos += 1
                expect_factor = True
                continue
            raise ParseError(f"expected '*' or ',', found {chunk[pos]!r}",
                             lineno, base_col + pos + 1)
        if chunk[pos] == "1":
            pos += 1
            expect_factor = False
            continue
        m = _NAME_RE.match(chunk, pos)
        if not m:
            raise ParseError(f"expected a variable name, found {chunk[pos]!r}",
                             lineno, base_col + pos + 1)
        name = m.group(0)
        col = base_col + pos + 1
        if declared is not None and name not in declared:
            raise ParseError(f"unknown variable {name!r}", lineno, col)
        if declared is None and name not in seen:
            seen.append(name)
        pos = m.end()
        exponent = 1
        if pos < len(chunk) and chunk[pos] == "^":
            pos += 1
            d = re.match(r"\d+", chunk[pos:])
            if not d:
                raise ParseError("expected an integer exponent after '^'",
                                 lineno, base_col + pos + 1)
            exponent = int(d.group(0))
            pos += d.end()
        exps[name] = exps.get(name, 0) + exponent
        expect_factor = False
    if expect_factor:
        raise ParseError("empty or dangling generator", lineno, base_col + 1)
    return exps


def parse_ideal(text: str):
    """Parse either ideal format.

    Returns (ideal, names, warnings); the ideal is minimalized and a
    warning is recorded when the input generators were not minimal.
    """
    if text.lstrip().startswith("{"):
        return _parse_ideal_json(text)

    declared = None
    term_sites = []  # (chunk, lineno, col)
    in_ideal = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.lower().startswith("vars:"):
            if in_ideal:
                raise ParseError("'vars:' must come before 'ideal:'", lineno, 1)
            if declared is not None:
                raise ParseError("repeated 'vars:' line", lineno, 1)
            names = [v.strip() for v in stripped[5:].split(",")]
            if not all(_NAME_RE.fullmatch(v) for v in names):
                raise ParseError("bad variable list", lineno, 1)
            if len(set(names)) != len(names):
                raise ParseError("repeated variable name", lineno, 1)
            declared = names
            continue
        if stripped.lower().startswith("ideal:"):
            in_ideal = True
            body = line[line.lower().index("ideal:") + 6:]
            base = line.lower().index("ideal:") + 6
        elif in_ideal:
            body = line
            base = 0
        else:
            raise ParseError("expected 'vars:' or 'ideal:'", lineno, 1)
        col = base
        for chunk in body.split(","):
            if chunk.strip():
                term_sites.append((chunk, lineno, col))
            col += len(chunk) + 1
    if not in_ideal:
        raise ParseError("missing 'ideal:' line", len(text.splitlines()) or 1, 1)
    if not term_sites:
        raise ParseError("no generators given", len(text.splitlines()), 1)

    seen = []
    parsed = [_parse_term(chunk, lineno, col, declared, seen)
              for chunk, lineno, col in term_sites]
    names = tuple(declared if declared is not None else seen)
    gens = [Monomial(tuple(term.get(v, 0) for v in names)) for term in parsed]
    return _finish_ideal(len(names), gens, names)


def _ints(values) -> tuple:
    """A JSON array of integers; floats and booleans would truncate silently."""
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ValueError(f"expected a list of integers, found {values!r}")
    return tuple(values)


def _json_names(names, nvars):
    """Validate a JSON 'vars' list by the text form's rules."""
    if not isinstance(names, list) or not all(
            isinstance(v, str) and _NAME_RE.fullmatch(v) for v in names):
        raise ParseError(f"'vars' must be a list of variable names, found {names!r}")
    if len(set(names)) != len(names):
        raise ParseError("repeated variable name")
    if len(names) != nvars:
        raise ParseError("'vars' length does not match 'nvars'")
    return tuple(names)


def _parse_ideal_json(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", exc.lineno, exc.colno) from None
    try:
        nvars = doc["nvars"]
        raw = doc["generators"]
        names = doc.get("vars")
    except KeyError as exc:
        raise ParseError(f"ideal document needs 'nvars', 'generators' and an optional "
                         f"'vars' list: {exc}") from None
    if type(nvars) is not int or nvars < 0:
        raise ParseError(f"'nvars' must be a non-negative integer, found {nvars!r}")
    if not isinstance(raw, list):
        raise ParseError(f"'generators' must be a list, found {raw!r}")
    gens = []
    for vec in raw:
        try:
            exps = _ints(vec)
        except ValueError:
            exps = None
        if exps is None or len(exps) != nvars or any(e < 0 for e in exps):
            raise ParseError(f"bad exponent vector {vec!r}")
        gens.append(Monomial(exps))
    names = default_var_names(nvars) if names is None else _json_names(names, nvars)
    return _finish_ideal(nvars, gens, names)


def _finish_ideal(nvars, gens, names):
    warnings = []
    M = MonomialIdeal.from_generators(nvars, gens)
    if set(M.gens) != set(gens):
        kept = ", ".join(monomial_str(g.exps, names) for g in M.gens)
        warnings.append(f"generators were not minimal; reduced to {kept}")
    return M, names, warnings


def parse_complex(text: str):
    """Parse the JSON complex format; returns (complex, names or None)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", exc.lineno, exc.colno) from None
    if not isinstance(doc, dict) or "labels" not in doc:
        raise ParseError("complex document needs 'labels'")
    if "facets" not in doc and "faces" not in doc:
        raise ParseError("complex document needs 'facets' or 'faces'")
    try:
        labels = [Monomial(_ints(vec)) for vec in doc["labels"]]
        if "facets" in doc:
            X = simplicial_from_facets(labels, [_ints(f) for f in doc["facets"]])
        else:
            X = polyhedral_from_incidence(labels, doc["faces"])
    except PreconditionError:
        raise  # well-formed data that is not a valid complex
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed complex document: {type(exc).__name__} {exc}") from None
    names = doc.get("vars")
    return X, (None if names is None else _json_names(names, X.nvars))


def ideal_doc(M: MonomialIdeal, names) -> dict:
    return {
        "nvars": M.nvars,
        "vars": list(names),
        "generators": [list(g.exps) for g in M.gens],
        "pretty": [monomial_str(g.exps, names) for g in M.gens],
    }


def complex_doc(X: LabeledComplex, names) -> dict:
    """The complex as a document.  X's tuples are handed over, not copied:
    ``dumps`` writes a tuple as a list."""
    label_strs = {}  # each distinct label formatted once: many Taylor faces share one
    faces = []
    for f in X.faces:
        if f.dim < 0:
            continue
        label = f.label
        label_str = label_strs.get(label)
        if label_str is None:
            label_str = label_strs[label] = monomial_str(label, names)
        entry = {
            "id": f.id,
            "dim": f.dim,
            "vertices": f.vertices,
            "label": label,
            "label_str": label_str,
        }
        if f.dim == 0:
            entry["vertex"] = f.vertices[0]
        else:
            entry["boundary"] = tuple(zip(f.boundary, f.signs))
        faces.append(entry)
    return {
        "labels": X.labels,
        "vars": list(names),
        "dim": X.dim,
        "is_simplicial": X.is_simplicial(),
        "faces": faces,
        "facet_ids": sorted(f.id for f in X.facets()),
    }


def decomposition_doc(dec, names) -> dict:
    return {
        "method": dec.method,
        "components": [list(c.exponent.exps) for c in dec.components],
        "pretty": [irreducible_str(c, names) for c in dec.components],
        # decompose_* raises VerificationError rather than return a result failing dec.verify()
        "verified": True,
    }


def dbar_factors_str(entry, names) -> str:
    parts = []
    for i in sorted(entry.K):
        e = entry.alpha[i]
        power = names[i] if e == 1 else f"{names[i]}^{e}"
        parts.append(f"∂̄[1/{power}]")
    return "∧".join(parts)


def residue_entry_doc(entry, names) -> dict:
    return {
        "K": sorted(entry.K),
        "tau": sorted(entry.tau),
        "face": entry.face_id,
        "alpha": list(entry.alpha),
        "annihilator": list(entry.annihilator.exponent.exps),
        "annihilator_str": irreducible_str(entry.annihilator, names),
        "factors": dbar_factors_str(entry, names),
        "status": entry.status,
        "rule": entry.rule,
        "has_smooth_factor": entry.has_smooth_factor,
    }


def residue_doc(current, names) -> dict:
    return {
        "ideal": ideal_doc(current.resolution.ideal, names),
        "entries": [residue_entry_doc(e, names) for e in current.entries],
    }


def duality_doc(report, names) -> dict:
    return {
        "verdict": report.verdict,
        "lower": [list(g.exps) for g in report.lower.gens],
        "lower_str": ideal_str(report.lower, names),
        "upper": [list(g.exps) for g in report.upper.gens],
        "upper_str": ideal_str(report.upper, names),
    }


def pairs_doc(pairs, names) -> list:
    return [{
        "K": sorted(p.K),
        "K_vars": [names[i] for i in sorted(p.K)],
        "tau": sorted(p.tau),
        "label": list(p.label),
        "annihilator": list(ann.exponent.exps),
        "annihilator_str": irreducible_str(ann, names),
    } for p in pairs for ann in (p.annihilator(),)]


_CONSTANTS = {True: "true", False: "false", None: "null"}


def dumps(doc) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, written without the pure-Python encoder.

    Takes dicts with str keys, lists, tuples (written as lists), str,
    int, bool and None; any other type raises ``TypeError`` rather than
    be guessed at.  Strings are ASCII-escaped by json's own escaper.
    """
    out = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, nl, out):
    """Append the text of value to out; nl is a newline and the current indent."""
    kind = type(value)
    if kind is dict:
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        comma = "," + inner
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            head = sep + _escape(key) + ": "
            sep = comma
            item_kind = type(item)  # most values are scalars: write them without a call
            if item_kind is str:
                out.append(head + _escape(item))
            elif item_kind is int:
                out.append(head + int.__repr__(item))
            else:
                out.append(head)
                _write(item, inner, out)
        out.append(nl + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        comma = "," + inner
        for item in value:
            if type(item) is not int:  # a bool is not an int here: it prints as true/false
                break
        else:
            out.append("[" + inner + comma.join(map(int.__repr__, value)) + nl + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = comma
            _write(item, inner, out)
        out.append(nl + "]")
    elif kind is str:
        out.append(_escape(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is bool or value is None:
        out.append(_CONSTANTS[value])
    else:
        raise TypeError(f"cannot write {kind.__name__} as JSON")
