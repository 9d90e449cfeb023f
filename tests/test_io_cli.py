import json
import random

import pytest

from cellres.cli import main
from cellres.complexes import polyhedral_from_incidence, taylor_complex
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
from cellres.staircase import ascii_staircase, staircase_data, svg_staircase
from conftest import (
    count_calls,
    five_gen_nongeneric,
    g_class,
    generic_artinian_antichain,
    hull_specs,
    mk,
    random_generic_ideal,
    random_ideal,
    three_gen_nonartinian,
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


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_ideal("vars: x,y\nideal: x^2, x^\n")
    assert exc.value.line == 2
    assert exc.value.column is not None
    with pytest.raises(ParseError) as exc:
        parse_ideal("vars: x\nideal: x*q")
    assert "unknown variable 'q'" in str(exc.value)
    with pytest.raises(ParseError):
        parse_ideal("ideal: x^2 y")  # missing '*'
    with pytest.raises(ParseError):
        parse_ideal("vars: x\n")  # no ideal line


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
    assert monomial_str(Monomial((2, 1, 0)), "xyz") == "x^2*y"
    assert monomial_str(Monomial((0, 0)), "xy") == "1"
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


def test_complex_doc_round_trip_polyhedral():
    M = five_gen_nongeneric()
    X = polyhedral_from_incidence(M.gens, hull_specs())
    doc = complex_doc(X, "xyz")
    assert not doc["is_simplicial"]
    back, _ = parse_complex(dumps(doc))
    assert {tuple(sorted(f.vertices)) for f in back.facets()} == \
           {tuple(sorted(f.vertices)) for f in X.facets()}


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
    assert main(["scarf", nongeneric, "--cap-vertices", "3"]) == 4
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


def test_cli_verify_fails_when_every_check_is_skipped(tmp_path, capsys):
    # seven generators with pairwise distinct exponents in seven variables: 2^21
    # brute-force candidates pass the candidate cap, and vertex cap 1 stops the rest
    rng = random.Random(67)
    columns = [rng.sample(range(1, 30), 7) for _ in range(7)]
    M = mk(7, *zip(*columns))
    path = _write(tmp_path, "m.txt", ideal_text(M))
    assert main(["verify", path, "--cap-vertices", "1", "--format", "json"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"] and all(c["skipped"] is True for c in doc["checks"])
    assert doc["all_passed"] is False
    assert main(["verify", path, "--cap-vertices", "1"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("skip ") for line in lines[:-1])
    assert lines[-1] == "no check ran: every check was skipped"


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


@pytest.mark.parametrize("source", [
    json.dumps({"nvars": 0, "generators": [[]]}),
    "vars: x,y\nideal: 1\n",
], ids=["no-variables", "unit-text"])
@pytest.mark.parametrize("argv, code", [
    (["scarf", "--star"], 3),
    (["decompose", "--method", "scarf"], 3),
    (["verify", "--format", "json"], 0),
], ids=["scarf-star", "decompose-scarf", "verify"])
def test_cli_unit_ideal_has_no_scarf_route(tmp_path, capsys, source, argv, code):
    path = _write(tmp_path, "unit.txt", source)
    assert main([argv[0], path, *argv[1:]]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code:
        assert err == "error: the unit ideal cannot be ghosted\n"
    else:
        # generic, yet it has no Scarf complex, so the Scarf checks are omitted
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert [c["name"] for c in doc["checks"]] == ["brute-decomposition", "taylor-resolution"]


@pytest.mark.parametrize("source", [
    json.dumps({"nvars": 0, "generators": [[]]}),
    "vars: x,y\nideal: 1\n",
], ids=["no-variables", "unit-text"])
@pytest.mark.parametrize("extra", [[], ["--complex", "taylor"]], ids=["default", "taylor"])
def test_cli_residue_of_the_unit_ideal_is_empty(tmp_path, capsys, source, extra):
    # generic, yet it has no Scarf complex: the Taylor complex carries an empty current
    path = _write(tmp_path, "unit.txt", source)
    assert main(["residue", path, "--format", "json", *extra]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["complex_source"] == "taylor"
    assert doc["current"]["entries"] == []
    assert doc["duality"]["verdict"] == "exact"


def test_cli_decompose_minimal_refuses_non_artinian_before_building(tmp_path, capsys,
                                                                     monkeypatch):
    # the twelve degree-4 monomials in x, y, z with every exponent below 4
    import itertools

    import cellres.resolution

    calls = count_calls(monkeypatch, cellres.resolution, "build_complex")
    gens = [e for e in itertools.product(range(4), repeat=3) if sum(e) == 4]
    path = _write(tmp_path, "m.txt", ideal_text(mk(3, *gens)))
    for cap in ([], ["--cap-vertices", "3"]):
        argv = ["decompose", path, "--method", "minimal", "--complex", "taylor"]
        assert main(argv + cap) == 3
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
    # resolve derives each map once, for the chain check and its JSON alike
    assert main(["resolve", path, "--complex", "scarf", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [k for _, k in calls] == [1, 2, 3]
    # a simplex of dimension k - 1 in grade k has k boundary faces
    sizes = [k * r for k, r in enumerate(doc["ranks"]) if k]
    assert [len(diff) for diff in doc["differentials"]] == sizes


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
    assert main(["verify", paths[0], "--cap-vertices", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in doc["checks"]}
    assert len(calls) == 2
    for name in ("minimal-equals-brute", "duality-exact"):
        assert checks[name]["passed"] is None and checks[name]["skipped"] is True
    assert checks["minimal-equals-brute"]["detail"] == checks["duality-exact"]["detail"]
    assert "exceeds the vertex cap 3" in checks["duality-exact"]["detail"]
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


def test_cli_invalid_complex_stays_a_precondition_error(tmp_path, capsys):
    # well-formed JSON whose facet names a vertex without a label
    bad = _write(tmp_path, "bad.json", json.dumps({"labels": [[2, 0], [0, 2]], "facets": [[0, 5]]}))
    ideal = _write(tmp_path, "m.txt", "vars: x,y\nideal: x^2, y^2\n")
    assert main(["resolve", ideal, "--complex", bad]) == 3
    assert capsys.readouterr().err == "error: vertex index 5 out of range\n"


@pytest.mark.parametrize("cap", ["-1", "0", "two"])
def test_cli_cap_vertices_must_be_positive(tmp_path, capsys, cap):
    path = _write(tmp_path, "m.txt", "vars: x,y\nideal: x^2, x*y, y^2\n")
    with pytest.raises(SystemExit) as exc:
        main(["scarf", path, "--cap-vertices", cap])
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err
