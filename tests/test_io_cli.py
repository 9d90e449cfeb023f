import argparse
import inspect
import json
import random
import re
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellres.cli import _HANDLERS, _parser, main
from cellres.complexes import FaceIndex, lcm_lattice, polyhedral_from_incidence, taylor_complex
from cellres.errors import ParseError
from cellres.ioformats import (
    complex_doc,
    dumps,
    ideal_str,
    ideal_text,
    monomial_str,
    parse_complex,
    parse_ideal,
)
from cellres.monomial import Monomial
from cellres.staircase import (
    SVG_MARGIN,
    SVG_UNIT,
    ascii_staircase,
    staircase_data,
    svg_staircase,
)
from conftest import (
    count_calls,
    digon_specs,
    five_gen_nongeneric,
    g_class,
    generic_artinian_antichain,
    hull_specs,
    mk,
    random_generic_ideal,
    random_ideal,
    three_gen_nonartinian,
    xy_square,
)


def test_parse_text_ideal():
    M, names, warnings = parse_ideal("vars: x,y\nideal: x^2, x*y, y^2\n")
    assert names == ("x", "y")
    assert [g.exps for g in M.gens] == [(0, 2), (1, 1), (2, 0)]
    assert warnings == []


def test_parse_infers_variables_and_warns_on_redundancy():
    M, names, warnings = parse_ideal("ideal: x^2, x^3")
    assert names == ("x",)
    assert [g.exps for g in M.gens] == [(2,)]
    assert len(warnings) == 1 and "not minimal" in warnings[0]


# (parser, input, message, line, column): refusals of the two parsers and
# the position each reports; a JSON document that parses but does not fit
# the format has none
PARSE_ERRORS = [
    (parse_ideal, "vars: x,y\nideal: x^2, x^\n", "expected an integer exponent after '^'", 2, 15),
    (parse_ideal, "vars: x\nideal: x*q", "unknown variable 'q'", 2, 10),
    (parse_ideal, "ideal: x^2 y", "expected '*' or ',', found 'y'", 1, 12),
    (parse_ideal, "ideal: x*2", "expected a variable name, found '2'", 1, 10),
    (parse_ideal, "ideal: x^2, y*", "empty or dangling generator", 1, 12),
    # comment and blank lines are skipped; a line after 'ideal:' continues it
    (parse_ideal, "# header\n\nvars: x,y\nideal: x^2,\n  y^3, q  # more\n",
     "unknown variable 'q'", 5, 8),
    (parse_ideal, "vars: x\n", "missing 'ideal:' line", 1, 1),
    (parse_ideal, "ideal: x\nvars: x\n", "'vars:' must come before 'ideal:'", 2, 1),
    (parse_ideal, "vars: x,2y\nideal: x\n", "bad variable list", 1, 1),
    (parse_ideal, "vars: x,y,x\nideal: x\n", "repeated variable name", 1, 1),
    (parse_ideal, "vars: x,y\nvars: a,b\nideal: a*b\n", "repeated 'vars:' line", 2, 1),
    (parse_ideal, "x^2\n", "expected 'vars:' or 'ideal:'", 1, 1),
    (parse_ideal, "vars: x\nideal: ,\n", "no generators given", 2, 1),
    (parse_ideal, '{"nvars": 2,', "bad JSON: Expecting property name", 1, 13),
    (parse_ideal, '{"nvars": 2, "generators": [[1, 0]], "vars": ["x"]}',
     "'vars' length does not match 'nvars'", None, None),
    (parse_ideal, '{"nvars": 1, "generators": 3}', "'generators' must be a list, found 3",
     None, None),
    (parse_complex, '{"labels": [[1, 0]', "bad JSON: Expecting ',' delimiter", 1, 19),
    (parse_complex, '{"facets": [[0]]}', "complex document needs 'labels'", None, None),
    (parse_complex, '{"labels": [[1, 0]]}', "complex document needs 'facets' or 'faces'",
     None, None),
]


def test_parse_errors_carry_position():
    for parse, text, message, line, column in PARSE_ERRORS:
        with pytest.raises(ParseError, match=f"^{re.escape(message)}") as exc:
            parse(text)
        assert (exc.value.line, exc.value.column) == (line, column), text


def test_parse_json_ideal():
    doc = {"nvars": 2, "generators": [[2, 0], [1, 1]], "vars": ["a", "b"]}
    M, names, _ = parse_ideal(json.dumps(doc))
    assert names == ("a", "b")
    assert [g.exps for g in M.gens] == [(1, 1), (2, 0)]
    with pytest.raises(ParseError):
        parse_ideal('{"nvars": 2}')
    with pytest.raises(ParseError):
        parse_ideal('{"nvars": 2, "generators": [[1]]}')


def test_text_round_trip():
    rng = random.Random(501)
    for _ in range(20):
        M = random_ideal(rng, rng.randint(1, 4), rng.randint(1, 5), maxdeg=7)
        back, _, warnings = parse_ideal(ideal_text(M))
        assert back == M and warnings == []


def test_monomial_str_forms():
    assert monomial_str((2, 1, 0), "xyz") == "x^2*y"
    assert monomial_str((0, 0), "xy") == "1"
    assert ideal_str(mk(2, (1, 0), (0, 3)), "xy") == "(y^3, x)"


def test_complex_doc_round_trip_simplicial():
    M = five_gen_nongeneric()
    X = taylor_complex(M)
    doc = complex_doc(X, "xyz")
    assert doc["is_simplicial"]
    back, _ = parse_complex(dumps(doc))
    assert {tuple(sorted(f.vertices)) for f in back.faces} == \
           {tuple(sorted(f.vertices)) for f in X.faces}
    assert [f.label for f in back.faces] == [f.label for f in X.faces]


@pytest.mark.parametrize("specs", [hull_specs, digon_specs], ids=["hull", "digon"])
def test_complex_doc_round_trip_polyhedral(specs):
    # the hull has a quadrilateral; the digon's two edges share a vertex set
    M = five_gen_nongeneric()
    X = polyhedral_from_incidence(M.gens, specs())
    doc = complex_doc(X, "xyz")
    assert doc["is_simplicial"] is False
    back, _ = parse_complex(dumps(doc))
    assert {tuple(sorted(f.vertices)) for f in back.facets()} == \
           {tuple(sorted(f.vertices)) for f in X.facets()}
    # not simplicial, so no collapse runs: each core is the whole restriction
    index = FaceIndex(X)
    assert all(index.core(b) == index.leq(b) for b in lcm_lattice(X))


def test_parse_complex_facet_form():
    text = json.dumps({"labels": [[2, 0], [1, 1], [0, 2]], "facets": [[0, 1], [1, 2]]})
    X, _ = parse_complex(text)
    assert X.dim == 1
    assert len(X.grade(2)) == 2


def _write(tmp_path, name, content):
    p = tmp_path / name
    p.write_text(content)
    return str(p)


def test_cli_decompose_scarf(tmp_path, capsys):
    path = _write(tmp_path, "m.txt", "vars: z1,z2\nideal: z1^4, z1^2*z2, z1*z2^2\n")
    code = main(["decompose", path, "--method", "scarf", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["components"] == [[1, 0], [2, 2], [4, 1]]
    assert doc["verified"] is True


def test_cli_exit_codes(tmp_path, capsys):
    bad = _write(tmp_path, "bad.txt", "vars: x\nideal: x^^2\n")
    assert main(["check", bad]) == 2
    nongeneric = _write(tmp_path, "m5.txt", ideal_text(five_gen_nongeneric()))
    assert main(["decompose", nongeneric, "--method", "scarf"]) == 3
    many = _write(tmp_path, "m21.txt", ideal_text(mk(2, *[(i + 1, 22 - i) for i in range(21)])))
    assert main(["taylor", many]) == 4  # 2^21 faces
    assert main(["check", str(tmp_path / "missing.txt")]) == 2
    assert main(["staircase", nongeneric]) == 3  # needs 2 variables
    capsys.readouterr()


def test_cli_warning_goes_to_stderr(tmp_path, capsys):
    path = _write(tmp_path, "m.txt", "vars: x\nideal: x^2, x^3\n")
    assert main(["check", path, "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "warning" not in captured.out
    json.loads(captured.out)


def test_cli_residue_default_complex(tmp_path, capsys):
    path = _write(tmp_path, "m.txt", ideal_text(three_gen_nonartinian()))
    assert main(["residue", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["complex_source"] == "scarf"
    assert doc["duality"]["verdict"] == "exact"
    anns = sorted(e["annihilator"] for e in doc["current"]["entries"]
                  if e["status"] == "nonzero")
    assert anns == [[1, 0], [2, 2], [4, 1]]


def test_cli_residue_with_complex_file(tmp_path, capsys):
    M = five_gen_nongeneric()
    ideal_path = _write(tmp_path, "m.txt", ideal_text(M))
    X = polyhedral_from_incidence(M.gens, hull_specs())
    cx_path = _write(tmp_path, "hull.json", dumps(complex_doc(X, "xyz")))
    assert main(["residue", ideal_path, "--complex", cx_path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["duality"]["verdict"] == "exact"
    assert {e["rule"] for e in doc["current"]["entries"]} == {"minimal-resolution"}


def test_cli_resolve_and_taylor(tmp_path, capsys):
    path = _write(tmp_path, "m.txt", "vars: x,y\nideal: x^2, x*y, y^2\n")
    assert main(["resolve", path, "--complex", "taylor", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chain_ok"] and doc["is_resolution"] and not doc["is_minimal"]
    assert doc["ranks"] == [1, 3, 3, 1]
    assert main(["resolve", path, "--complex", "scarf", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_minimal"] and doc["ranks"] == [1, 3, 2]
    entries = doc["differentials"][0]
    assert [e["quotient"] for e in entries] == [[0, 2], [1, 1], [2, 0]]


def test_cli_ass_and_verify(tmp_path, capsys):
    path = _write(tmp_path, "m.txt", ideal_text(three_gen_nonartinian()))
    assert main(["ass", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["associated_primes"] == [[0], [0, 1]]
    assert main(["verify", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"brute-decomposition", "scarf-equals-brute", "duality-exact",
            "taylor-resolution"} <= names


def test_cli_deterministic_output(tmp_path, capsys):
    path = _write(tmp_path, "m.txt", ideal_text(five_gen_nongeneric()))
    main(["residue", path, "--format", "json"])
    first = capsys.readouterr().out
    main(["residue", path, "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_scarf_star(tmp_path, capsys):
    path = _write(tmp_path, "m.txt", ideal_text(three_gen_nonartinian()))
    assert main(["scarf", path, "--star", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ghost_exponent"] == 5
    assert [(p["K"], p["tau"]) for p in doc["pairs"]] == \
        [([0], [0]), ([0, 1], [0, 1]), ([0, 1], [1, 2])]


def test_staircase_outputs():
    M = mk(2, (0, 3), (2, 2), (4, 0))
    data = staircase_data(M)
    assert data["inner_corners"] == [(0, 3), (2, 2), (4, 0)]
    assert data["outer_corners"] == [(2, 3), (4, 2)]
    grid = "\n".join(ascii_staircase(M, "xy").splitlines()[:-2])
    assert grid.count("G") == 3 and grid.count("O") == 2
    svg = svg_staircase(M, "xy")
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("circle") == 5


def test_staircase_principal_ideal():
    M = mk(2, (2, 3))
    data = staircase_data(M)
    assert data["inner_corners"] == [(2, 3)]
    assert data["outer_corners"] == [(0, 3), (2, 0)]


def test_staircase_xy():
    M = mk(2, (1, 0), (0, 1))
    data = staircase_data(M)
    assert data["inner_corners"] == [(0, 1), (1, 0)]
    assert data["outer_corners"] == [(1, 1)]


def _staircase_membership_cells(M):
    """(x, y) -> ASCII cell, and the set of cells the SVG shades."""
    grid = ascii_staircase(M, "xy").splitlines()[:-2]
    cells = {(x, int(line[:3])): c for line in grid for x, c in enumerate(line[4:].split(" "))}
    height = len(grid)
    u, mg = SVG_UNIT, SVG_MARGIN
    h_px = 2 * mg + height * u
    shaded = {((int(cx) - mg) // u, (h_px - mg - int(cy)) // u - 1) for cx, cy in re.findall(
        r'<rect x="(\d+)" y="(\d+)" [^>]*fill="#d8d8d8"', svg_staircase(M, "xy"))}
    return cells, shaded


def test_staircase_shades_exactly_the_monomials_of_the_ideal():
    rng = random.Random(812)
    ideals = [mk(2, (0, 0)), mk(2, (1, 0)), mk(2, (0, 2)), mk(2, (3, 1), (1, 2)), mk(2, (2, 2))]
    ideals += [random_ideal(rng, 2, rng.randint(1, 6), maxdeg=rng.randint(1, 7)) for _ in range(60)]
    for M in ideals:
        cells, shaded = _staircase_membership_cells(M)
        members = {p for p in cells if Monomial(p) in M}
        assert shaded == members, M
        for p, c in cells.items():
            assert c in "GO#.", (M, p)
            if c != "O":  # an outer corner may lie in M and is marked O either way
                assert (c in "G#") == (p in members), (M, p)


def test_cli_staircase_formats(tmp_path, capsys):
    path = _write(tmp_path, "m.txt", "vars: z,w\nideal: w^3, z^2*w^2, z^4\n")
    assert main(["staircase", path]) == 0
    assert "G" in capsys.readouterr().out
    assert main(["staircase", path, "--format", "svg"]) == 0
    assert capsys.readouterr().out.startswith("<svg")
    assert main(["staircase", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outer_corners"] == [[2, 3], [4, 2]]


def test_cli_verify_reports_skipped_taylor_check(tmp_path, capsys):
    # eleven generators x^(10-k) y^k: past the Taylor check's limit of ten
    path = _write(tmp_path, "m.txt", ideal_text(mk(2, *[(10 - k, k) for k in range(11)])))
    assert main(["verify", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    taylor = [c for c in doc["checks"] if c["name"] == "taylor-resolution"]
    assert taylor == [{"name": "taylor-resolution", "passed": None, "skipped": True,
                       "detail": "11 generators exceeds the Taylor check's limit of 10"}]
    ran = [c for c in doc["checks"] if c["name"] != "taylor-resolution"]
    assert ran and all(c["passed"] is True and "skipped" not in c for c in ran)
    assert doc["all_passed"] is True
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert ("skip taylor-resolution: 11 generators exceeds the Taylor check's limit of 10"
            in out.splitlines())
    assert "ok taylor-resolution" not in out and out.endswith("all checks passed\n")


def test_cli_runs_a_large_ideal_with_a_small_scarf_complex(tmp_path, capsys):
    # 22 generators: their Scarf complexes and lcm lattice are small, and the
    # caps count those, not the vertices
    M = g_class(3, 19, 120, 4)
    assert M.num_gens == 22
    path = _write(tmp_path, "m.txt", ideal_text(M))
    for argv in (["scarf"], ["scarf", "--star"], ["decompose", "--method", "scarf"],
                 ["resolve", "--complex", "scarf"], ["residue"]):
        assert main([argv[0], path, *argv[1:], "--format", "json"]) == 0, argv
        assert json.loads(capsys.readouterr().out)["command"] == argv[0]


def test_cli_verify_fails_when_every_check_is_skipped(tmp_path, capsys):
    # g5: 2^20 brute-force candidates pass the candidate cap, and 19 generators
    # the Taylor check's limit; the text form is checked on g5 below
    path = _write(tmp_path, "g5.txt", ideal_text(g_class(5, 14, 80, 7)))
    assert main(["verify", path, "--format", "json"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["checks"]) == 5 and all(c["skipped"] is True for c in doc["checks"])
    assert doc["all_passed"] is False


def test_cli_residue_refuses_over_candidate_cap_before_building(tmp_path, capsys, monkeypatch):
    # the ideal above: 2^21 brute-force candidates, which the current needs
    import cellres.resolution

    calls = count_calls(monkeypatch, cellres.resolution, "build_complex")
    rng = random.Random(67)
    columns = [rng.sample(range(1, 30), 7) for _ in range(7)]
    path = _write(tmp_path, "m.txt", ideal_text(mk(7, *zip(*columns))))
    assert main(["residue", path]) == 4
    assert capsys.readouterr().err == "error: 2097152 candidate vectors exceeds the cap 1000000\n"
    assert calls == []


def test_cli_verify_refuses_over_candidate_cap_before_building(tmp_path, capsys, monkeypatch):
    # g5: 2^20 brute-force candidates, which every check but the Taylor one compares against
    import cellres.resolution

    calls = count_calls(monkeypatch, cellres.resolution, "build_complex")
    path = _write(tmp_path, "g5.txt", ideal_text(g_class(5, 14, 80, 7)))
    assert main(["verify", path]) == 4
    lines = capsys.readouterr().out.splitlines()
    cap = "1048576 candidate vectors exceeds the cap 1000000"
    names = ["brute-decomposition", "scarf-equals-brute", "minimal-equals-brute", "duality-exact"]
    assert lines[:4] == [f"skip {name}: {cap}" for name in names]
    assert lines[4:] == ["skip taylor-resolution: 19 generators exceeds the Taylor check's limit of 10",
                         "no check ran: every check was skipped"]
    assert calls == []


# the unit ideal in no variables and in two
_UNIT_SOURCES = pytest.mark.parametrize("source", [
    json.dumps({"nvars": 0, "generators": [[]]}),
    "vars: x,y\nideal: 1\n",
], ids=["no-variables", "unit-text"])


@_UNIT_SOURCES
@pytest.mark.parametrize("argv, code", [
    (["scarf", "--star"], 3),
    (["decompose", "--method", "scarf"], 3),
    (["verify", "--format", "json"], 0),
    (["check", "--format", "json"], 0),
], ids=["scarf-star", "decompose-scarf", "verify", "check"])
def test_cli_unit_ideal_has_no_scarf_route(tmp_path, capsys, source, argv, code):
    path = _write(tmp_path, "unit.txt", source)
    assert main([argv[0], path, *argv[1:]]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code:
        assert err == "error: the unit ideal cannot be ghosted\n"
    elif argv[0] == "check":
        # it contains every power of every variable
        doc = json.loads(out)
        assert (doc["artinian"], doc["generic"]) == (True, True)
    else:
        # generic, yet it has no Scarf complex, so the Scarf checks are omitted
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert [c["name"] for c in doc["checks"]] == ["brute-decomposition", "taylor-resolution"]


@_UNIT_SOURCES
@pytest.mark.parametrize("extra", [[], ["--complex", "taylor"]], ids=["default", "taylor"])
def test_cli_residue_of_the_unit_ideal_is_empty(tmp_path, capsys, source, extra):
    # generic, yet it has no Scarf complex: the Taylor complex carries an empty current
    path = _write(tmp_path, "unit.txt", source)
    assert main(["residue", path, "--format", "json", *extra]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["complex_source"] == "taylor"
    assert doc["current"]["entries"] == []
    assert doc["duality"]["verdict"] == "exact"


@_UNIT_SOURCES
def test_cli_decompose_minimal_refuses_the_unit_ideal_as_not_minimal(tmp_path, capsys, source):
    # Artinian in any number of variables, but its Taylor complex maps a unit onto a unit
    path = _write(tmp_path, "unit.txt", source)
    assert main(["decompose", path, "--method", "minimal", "--complex", "taylor"]) == 3
    assert capsys.readouterr().err == "error: the resolution is not minimal\n"


def test_cli_decompose_minimal_refuses_non_artinian_before_building(tmp_path, capsys,
                                                                     monkeypatch):
    # the twelve degree-4 monomials in x, y, z with every exponent below 4
    import itertools

    import cellres.complexes
    import cellres.resolution

    calls = count_calls(monkeypatch, cellres.resolution, "build_complex")
    gens = [e for e in itertools.product(range(4), repeat=3) if sum(e) == 4]
    path = _write(tmp_path, "m.txt", ideal_text(mk(3, *gens)))
    argv = ["decompose", path, "--method", "minimal", "--complex", "taylor"]
    for cap in (cellres.complexes.ENUMERATION_CAP, 3):  # the refusal comes before any cap
        monkeypatch.setattr(cellres.complexes, "ENUMERATION_CAP", cap)
        assert main(argv) == 3
        assert "needs an Artinian ideal" in capsys.readouterr().err
    assert calls == []


def _generic_artinian_paths(tmp_path):
    rng = random.Random(31)
    ideals = []
    while len(ideals) < 3:
        M = random_generic_ideal(rng, 3, 8, artinian=True)
        if M.num_gens >= 6:
            ideals.append(M)
    return [_write(tmp_path, f"g{k}.txt", ideal_text(M)) for k, M in enumerate(ideals)]


def test_cli_resolve_checks_exactness_once(tmp_path, capsys, monkeypatch):
    import cellres.resolution

    calls = []
    original = cellres.resolution.is_resolution

    def counting(X, *args, **kwargs):
        calls.append(X)
        return original(X, *args, **kwargs)

    monkeypatch.setattr(cellres.resolution, "is_resolution", counting)
    for path in _generic_artinian_paths(tmp_path):
        calls.clear()
        assert main(["resolve", path, "--complex", "scarf"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(calls) == 1
        assert "resolution: yes" in lines and "minimal: yes" in lines
        ranks = next(line for line in lines if line.startswith("ranks: "))
        assert lines[-1] == "betti " + ranks


@pytest.mark.parametrize("command", ["verify", "residue"])
def test_cli_decides_exactness_once(tmp_path, capsys, monkeypatch, command):
    # 12 generators: verify skips its Taylor check, so the Scarf complex is the only one
    import cellres.resolution

    calls = count_calls(monkeypatch, cellres.resolution, "is_resolution")
    rng = random.Random(61)
    for k in range(3):
        M = generic_artinian_antichain(rng, 3, 9)
        assert M.num_gens == 12
        path = _write(tmp_path, f"a{k}.txt", ideal_text(M))
        calls.clear()
        assert main([command, path]) == 0
        capsys.readouterr()
        assert len(calls) == 1


@pytest.mark.parametrize("command", ["verify", "residue"])
def test_cli_decomposes_once(tmp_path, capsys, monkeypatch, command):
    # verify hands its brute-force decomposition to the duality check
    import cellres.decompose

    calls = count_calls(monkeypatch, cellres.decompose, "decompose_brute")
    for path in _generic_artinian_paths(tmp_path):
        calls.clear()
        assert main([command, path]) == 0
        capsys.readouterr()
        assert len(calls) == 1


def test_cli_derives_differentials_only_where_read(tmp_path, capsys, monkeypatch):
    # residue and minimal decomposition read F's exact and minimal fields, never its maps
    import cellres.resolution

    calls = count_calls(monkeypatch, cellres.resolution, "differential")
    M = generic_artinian_antichain(random.Random(73), 3, 6)
    path = _write(tmp_path, "m.txt", ideal_text(M))
    minimal = ["decompose", path, "--method", "minimal", "--complex", "scarf"]
    for argv in (["residue", path], minimal):
        assert main(argv) == 0
        capsys.readouterr()
        assert calls == []
    # resolve derives each map once, for its JSON
    assert main(["resolve", path, "--complex", "scarf", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [k for _, k in calls] == [1, 2, 3]
    # a simplex of dimension k - 1 in grade k has k boundary faces
    sizes = [k * r for k, r in enumerate(doc["ranks"]) if k]
    assert [len(diff) for diff in doc["differentials"]] == sizes


def test_cli_verify_derives_no_differential(tmp_path, capsys, monkeypatch):
    # the Taylor check, run up to 10 generators, decides the chain condition on face signs
    import cellres.resolution

    calls = count_calls(monkeypatch, cellres.resolution, "differential")
    for path in _generic_artinian_paths(tmp_path):
        assert main(["verify", path]) == 0
        assert "ok taylor-resolution" in capsys.readouterr().out
    assert calls == []


@pytest.mark.parametrize("fmt, grades", [("json", [1, 2, 3]), ("text", [])])
def test_cli_resolve_derives_differentials_for_json_only(tmp_path, capsys, monkeypatch,
                                                         fmt, grades):
    import cellres.resolution

    calls = count_calls(monkeypatch, cellres.resolution, "differential")
    path = _write(tmp_path, "m.txt", ideal_text(xy_square()))
    assert main(["resolve", path, "--complex", "taylor", "--format", fmt]) == 0
    capsys.readouterr()
    assert [k for _, k in calls] == grades


@pytest.mark.parametrize("argv", [["taylor"], ["scarf"], ["scarf", "--star"]])
def test_cli_json_builds_no_complex_text(tmp_path, capsys, monkeypatch, argv):
    import cellres.cli

    calls = count_calls(monkeypatch, cellres.cli, "_complex_text")
    path = _write(tmp_path, "m.txt", ideal_text(xy_square()))
    assert main([argv[0], path, *argv[1:], "--format", "json"]) == 0
    capsys.readouterr()
    assert calls == []
    assert main([argv[0], path, *argv[1:]]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_cli_verify_decides_each_complex_once(tmp_path, capsys, monkeypatch):
    import cellres.resolution

    calls = count_calls(monkeypatch, cellres.resolution, "is_resolution")
    for path in _generic_artinian_paths(tmp_path):
        calls.clear()
        assert main(["verify", path]) == 0
        capsys.readouterr()
        # the Scarf complex, shared by two checks, then the Taylor complex (a full simplex)
        assert len(calls) == 2
        scarf, taylor = (X for X, *_ in calls)
        assert scarf.dim == 2 and taylor.dim == len(taylor.vertices()) - 1 > 2


@pytest.mark.parametrize("method", ["scarf", "minimal", "brute"])
def test_cli_decompose_intersects_once(tmp_path, capsys, monkeypatch, method):
    from cellres.decompose import Decomposition

    calls = []
    original = Decomposition.intersection

    def counting(self):
        calls.append(self.method)
        return original(self)

    monkeypatch.setattr(Decomposition, "intersection", counting)
    for path in _generic_artinian_paths(tmp_path):
        calls.clear()
        argv = ["decompose", path, "--method", method, "--format", "json"]
        assert main(argv + (["--complex", "scarf"] if method == "minimal" else [])) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True
        assert len(calls) == 1


def test_cli_verify_builds_scarf_complex_once(tmp_path, capsys, monkeypatch):
    import cellres.cli
    import cellres.complexes

    calls = []
    original = cellres.cli.scarf_complex

    def counting(M, *args, **kwargs):
        calls.append(M)
        return original(M, *args, **kwargs)

    monkeypatch.setattr(cellres.cli, "scarf_complex", counting)
    paths = _generic_artinian_paths(tmp_path)
    for path in paths:
        calls.clear()
        assert main(["verify", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"minimal-equals-brute", "duality-exact"} <= {c["name"] for c in doc["checks"]}
        assert len(calls) == 1
    # a build past the cap skips both checks that share it, with the same message;
    # the checks that ran decide the verdict and the exit code
    calls.clear()
    monkeypatch.setattr(cellres.complexes, "ENUMERATION_CAP", 3)
    assert main(["verify", paths[0], "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in doc["checks"]}
    assert len(calls) == 2
    for name in ("minimal-equals-brute", "duality-exact"):
        assert checks[name]["passed"] is None and checks[name]["skipped"] is True
    assert checks["minimal-equals-brute"]["detail"] == checks["duality-exact"]["detail"]
    assert checks["duality-exact"]["detail"].endswith("Scarf faces exceeds the cap 3")
    assert checks["brute-decomposition"]["passed"] is True and doc["all_passed"] is True


def test_cli_scarf_star_builds_ghosted_complex_once(tmp_path, capsys, monkeypatch):
    import cellres.cli
    import cellres.scarf
    from cellres.ioformats import pairs_doc
    from cellres.scarf import scarf_pairs

    calls = []

    def counting(name, original):
        def wrapper(M, *args, **kwargs):
            calls.append(name)
            return original(M, *args, **kwargs)
        return wrapper

    ideals = [three_gen_nonartinian(), mk(3, (2, 1, 0), (0, 3, 1), (1, 0, 2))]
    expected = [pairs_doc(scarf_pairs(M), "xyz"[:M.nvars]) for M in ideals]
    for module in (cellres.cli, cellres.scarf):
        for name in ("star_ideal", "scarf_complex"):
            monkeypatch.setattr(module, name, counting(name, getattr(cellres.scarf, name)))
    for k, M in enumerate(ideals):
        calls.clear()
        path = _write(tmp_path, f"m{k}.txt", ideal_text(M))
        assert main(["scarf", path, "--star", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["pairs"] == expected[k]
        assert sorted(calls) == ["scarf_complex", "star_ideal"]


@pytest.mark.parametrize("kind, doc", [
    ("ideal", {"nvars": 2, "generators": [[1, "a"]]}),
    ("ideal", {"nvars": 2, "generators": [3]}),
    ("complex", {"labels": [[0, -1]], "facets": [[0]]}),
    ("complex", {"labels": [[2, 0], [0, 2]], "facets": [[0, "x"]]}),
    ("complex", {"labels": [[2, 0]], "faces": [{"id": "v", "vertex": 0}]}),
    # JSON numbers must be exact integers: int() would truncate a float and read true as 1
    ("ideal", {"nvars": 2, "generators": [[1.5, 0], [0, 1]]}),
    ("ideal", {"nvars": 2, "generators": [[True, 0], [0, 1]]}),
    ("ideal", {"nvars": 2.7, "generators": [[1, 0], [0, 1]]}),
    ("ideal", {"nvars": True, "generators": [[1]]}),
    ("complex", {"labels": [[1.9, 1], [0, 2]], "facets": [[0, 1]]}),
    ("complex", {"labels": [[2, 0], [0, 2]], "facets": [[0, 1.7]]}),
    ("complex", {"labels": [[2, 0]], "faces": [{"id": "v", "dim": 0, "vertex": 0.0}]}),
    # 'vars' follows the text form's rules
    ("ideal", {"nvars": 2, "generators": [[1, 0], [0, 1]], "vars": ["x", "x"]}),
    ("ideal", {"nvars": 2, "generators": [[1, 0], [0, 1]], "vars": ["x y", "^"]}),
    ("ideal", {"nvars": 2, "generators": [[1, 0], [0, 1]], "vars": "xy"}),
    ("ideal", {"nvars": 2, "generators": [[1, 0], [0, 1]], "vars": [1, 2]}),
    ("complex", {"labels": [[2, 0], [0, 2]], "facets": [[0, 1]], "vars": ["x", "x"]}),
], ids=["generator-entry", "generator-not-list", "negative-label", "facet-entry", "face-without-dim",
        "float-exponent", "bool-exponent", "float-nvars", "bool-nvars", "float-label",
        "float-facet-vertex", "float-face-vertex", "repeated-vars", "bad-var-names",
        "vars-string", "vars-not-strings", "complex-repeated-vars"])
def test_cli_malformed_json_is_a_parse_error(tmp_path, capsys, kind, doc):
    bad = _write(tmp_path, "bad.json", json.dumps(doc))
    if kind == "ideal":
        argv = ["check", bad]
    else:
        argv = ["resolve", _write(tmp_path, "m.txt", "vars: x,y\nideal: x^2, y^2\n"), "--complex", bad]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_facet_input_past_the_cap(tmp_path, capsys, monkeypatch):
    import cellres.complexes

    # the faces of facet [0, 1, 2] are counted as each is made: 4 through
    # the vertices, then the second edge, the 6th face, passes the cap
    cx = _write(tmp_path, "c.json", json.dumps({"labels": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                                "facets": [[0, 1, 2]]}))
    ideal = _write(tmp_path, "m.txt", "vars: x,y,z\nideal: x, y, z\n")
    monkeypatch.setattr(cellres.complexes, "ENUMERATION_CAP", 5)
    assert main(["resolve", ideal, "--complex", cx]) == 4
    assert capsys.readouterr().err == "error: 6 faces exceeds the cap 5\n"


def test_cli_invalid_complex_stays_a_precondition_error(tmp_path, capsys):
    # well-formed JSON whose facet names a vertex without a label
    bad = _write(tmp_path, "bad.json", json.dumps({"labels": [[2, 0], [0, 2]], "facets": [[0, 5]]}))
    ideal = _write(tmp_path, "m.txt", "vars: x,y\nideal: x^2, y^2\n")
    assert main(["resolve", ideal, "--complex", bad]) == 3
    assert capsys.readouterr().err == "error: vertex index 5 out of range\n"


@pytest.mark.parametrize("argv, message", [
    (["scarf", "--ghost-exponent", "7"], "--ghost-exponent needs --star"),
    (["decompose", "--complex", "scarf"], "--complex needs --method minimal"),
    (["decompose", "--method", "scarf", "--complex", "taylor"], "--complex needs --method minimal"),
], ids=["ghost-exponent-without-star", "complex-with-brute", "complex-with-scarf"])
def test_cli_refuses_a_flag_it_would_ignore(tmp_path, capsys, argv, message):
    path = _write(tmp_path, "m.txt", ideal_text(three_gen_nonartinian()))
    assert main([argv[0], path, *argv[1:]]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def test_cli_parses_the_ideal_before_checking_flags(tmp_path, capsys):
    bad = _write(tmp_path, "bad.txt", "vars: x\nideal: x^^2\n")
    assert main(["scarf", bad, "--ghost-exponent", "7"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: expected an integer exponent after '^' (line 2, column 10)\n")


@pytest.mark.parametrize("argv", [
    ["decompose", "--ghost-exponent", "7"],
    *([name, *(["--complex", "scarf"] if name == "resolve" else []), "--cap-vertices", "3"]
      for name in _HANDLERS),
], ids=["decompose-ghost-exponent", *(f"{name}-cap" for name in _HANDLERS)])
def test_cli_options_that_change_nothing_are_not_accepted(tmp_path, capsys, argv):
    path = _write(tmp_path, "m.txt", ideal_text(three_gen_nonartinian()))
    with pytest.raises(SystemExit) as exc:
        main([argv[0], path, *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_every_option_is_read_by_its_handler():
    # an option no handler reads cannot change the output, so it is not offered
    parser = _parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(subparsers.choices) == sorted(_HANDLERS)
    unread = [f"{name} --{action.dest}" for name, sp in subparsers.choices.items()
              for action in sp._actions if action.dest not in ("help", "ideal", "format")
              and f"args.{action.dest}" not in inspect.getsource(_HANDLERS[name])]
    assert unread == []
    # every settable value but the ideal itself; a new one is a deliberate edit here
    settable = [action for sp in subparsers.choices.values() for action in sp._actions
                if action.dest not in ("help", "ideal")]
    assert len(settable) == 15


# the writer emits what the result documents hold: containers of str, int, bool and None
_JSON_TEXT = st.text() | st.sampled_from(
    ['say "hi"', "back\\slash", "\x00\x07\x1f\n\t\x7f", "∂̄[1/x^2]∧∂̄[1/y]", "\u2028 \U0001f600"])
_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.integers(min_value=2 ** 64) | \
    st.integers(max_value=-2 ** 64) | _JSON_TEXT
_JSON_DOCS = st.recursive(
    _JSON_SCALARS | st.lists(st.integers() | st.booleans()),
    lambda inner: st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_JSON_TEXT, inner, max_size=5),
    max_leaves=40)


@settings(max_examples=300)
@given(_JSON_DOCS)
def test_dumps_writes_the_bytes_of_json_dumps_indent_2(doc):
    assert dumps(doc) == json.dumps(doc, indent=2) + "\n"


class _Level(IntEnum):
    ONE = 1


@pytest.mark.parametrize("value, name", [
    (1.5, "float"), ({1, 2}, "set"), (b"xy", "bytes"), (Monomial((1, 0)), "Monomial"),
    (_Level.ONE, "_Level"), ({1: "one"}, "int"),
], ids=["float", "set", "bytes", "Monomial", "IntEnum", "int-key"])
def test_dumps_refuses_what_it_cannot_write(value, name):
    for doc in (value, [value], [1, value], {"value": value}, {"outer": {"inner": [[value]]}}):
        with pytest.raises(TypeError, match=rf"\b{name}\b"):
            dumps(doc)


_README_IDEAL = "vars: x,y,z\nideal: x^2, x*y, y^2, y*z, z^2\n"  # README's command-line example
_README_PLANE_IDEAL = "vars: z1,z2\nideal: z1^4, z1^2*z2, z1*z2^2\n"  # its library example


@pytest.mark.parametrize("argv, text", [
    (["check"], _README_IDEAL),
    (["scarf"], _README_IDEAL),
    (["scarf", "--star"], _README_IDEAL),
    (["taylor"], _README_IDEAL),
    (["resolve", "--complex", "scarf"], _README_IDEAL),
    (["resolve", "--complex", "taylor"], _README_IDEAL),
    (["decompose"], _README_IDEAL),
    (["decompose", "--method", "scarf"], _README_PLANE_IDEAL),
    (["ass"], _README_IDEAL),
    (["residue"], _README_IDEAL),
    (["staircase"], _README_PLANE_IDEAL),
    (["verify"], _README_IDEAL),
], ids=["check", "scarf", "scarf-star", "taylor", "resolve-scarf", "resolve-taylor", "decompose",
        "decompose-scarf", "ass", "residue", "staircase", "verify"])
def test_cli_json_is_json_dumps_indent_2(tmp_path, capsys, argv, text):
    path = _write(tmp_path, "m.txt", text)
    assert main([argv[0], path, *argv[1:], "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
