import itertools
import json
import random
import re

import pytest

import cellres.complexes
from cellres.complexes import (
    is_acyclic,
    lcm_lattice,
    polyhedral_from_incidence,
    reduced_homology_ranks,
    restrict_leq,
    simplicial_from_facets,
    taylor_complex,
)
from cellres.errors import CapExceededError, DimensionMismatch, InvalidComplexError
from cellres.ioformats import parse_complex
from cellres.monomial import Monomial
from cellres.scarf import scarf_complex, star_ideal
from conftest import (
    five_gen_nongeneric,
    hull_specs,
    mk,
    random_generic_ideal,
    random_ideal,
    xy_square,
)


def labels(*exps):
    return [Monomial(e) for e in exps]


L3 = labels((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_full_simplex_counts():
    X = simplicial_from_facets(L3, [(0, 1, 2)])
    assert [len(X.grade(k)) for k in range(X.num_grades)] == [1, 3, 3, 1]
    assert X.dim == 2
    assert [sorted(f.vertices) for f in X.facets()] == [[0, 1, 2]]


def test_five_vertex_facet_shape():
    # triangle plus a three-edge handle: 7 faces of dim >= 1
    M = five_gen_nongeneric()
    X = simplicial_from_facets(M.gens, [(3, 4), (0, 4), (0, 1), (1, 2, 3)])
    nonempty = [f for f in X.faces if f.dim >= 1]
    assert len(nonempty) == 7
    assert len(X.grade(1)) == 5


def test_isolated_vertices():
    X = simplicial_from_facets(labels((1, 0), (0, 1)), [(0,), (1,)])
    assert X.dim == 0
    assert len(X.grade(1)) == 2
    assert reduced_homology_ranks(X) == [0, 1]


def test_labels_are_lcms():
    M = five_gen_nongeneric()
    G = random_generic_ideal(random.Random(3), 3, 6, artinian=True)
    from_json, _ = parse_complex(json.dumps({"labels": [[2, 0], [1, 1], [0, 2]],
                                             "facets": [[0, 1], [2]]}))
    built = [
        taylor_complex(xy_square()),
        taylor_complex(M),
        scarf_complex(G),
        scarf_complex(star_ideal(M).star),
        from_json,
        polyhedral_from_incidence(M.gens, hull_specs()),
        polyhedral_from_incidence(labels((3, 1)), [{"id": "v", "dim": 0, "vertex": 0}]),
        restrict_leq(taylor_complex(M), Monomial((2, 1, 1))),
    ]
    for X in built:
        assert all(type(m) is tuple for m in X.labels)
        assert any(f.dim == 0 for f in X.faces)
        for f in X.faces:
            expect = [0] * X.nvars
            for v in f.vertices:
                expect = [max(a, b) for a, b in zip(expect, X.labels[v])]
            assert type(f.label) is tuple
            assert f.label == tuple(expect)


def test_boundary_squares_to_zero():
    rng = random.Random(5)
    for _ in range(20):
        M = random_ideal(rng, 3, 5, maxdeg=4)
        X = taylor_complex(M)
        for f in X.faces:
            if f.dim < 1:
                continue
            acc = {}
            for sid, s1 in f.boundary:
                for s2id, s2 in X.faces[sid].boundary:
                    acc[s2id] = acc.get(s2id, 0) + s1 * s2
            assert not any(acc.values())


def test_polyhedral_quadrilateral_accepted():
    specs = [s for s in hull_specs() if s["id"] in
             {"v0", "v1", "v3", "v4", "e01", "e13", "e34", "e04", "Q"}]
    X = polyhedral_from_incidence(five_gen_nongeneric().gens, specs)
    assert X.dim == 2
    assert [sorted(f.vertices) for f in X.facets()] == [[0, 1, 3, 4]]
    assert is_acyclic(X)


def test_polyhedral_flipped_sign_rejected():
    specs = [dict(s) for s in hull_specs() if s["id"] in
             {"v0", "v1", "v3", "v4", "e01", "e13", "e34", "e04", "Q"}]
    for s in specs:
        if s["id"] == "Q":
            s["boundary"] = [["e01", 1], ["e13", -1], ["e34", 1], ["e04", -1]]
    with pytest.raises(InvalidComplexError, match="^face 'Q': boundary of boundary is nonzero$"):
        polyhedral_from_incidence(five_gen_nongeneric().gens, specs)


def test_polyhedral_single_vertex():
    X = polyhedral_from_incidence(labels((3, 1)), [{"id": "v", "dim": 0, "vertex": 0}])
    assert X.dim == 0
    assert is_acyclic(X)


def test_polyhedral_non_graded_rejected():
    specs = [
        {"id": "v0", "dim": 0, "vertex": 0},
        {"id": "v1", "dim": 0, "vertex": 1},
        {"id": "bad", "dim": 2, "boundary": [["v0", 1], ["v1", -1]]},
    ]
    with pytest.raises(InvalidComplexError, match="^face 'bad': non-graded boundary$"):
        polyhedral_from_incidence(labels((1, 0), (0, 1)), specs)


ABC = [{"id": v, "dim": 0, "vertex": i} for i, v in enumerate("abc")]


def edge(*boundary):
    return {"id": "e", "dim": 1, "boundary": [list(p) for p in boundary]}


@pytest.mark.parametrize("specs, message", [
    (ABC + [{"id": "a", "dim": 0, "vertex": 2}], "duplicate face id 'a'"),
    (ABC + [{"id": "o", "dim": -1}], "the empty face is implicit"),
    ([{"id": "a", "dim": 0, "vertex": 3}], "vertex index 3 out of range"),
    ([{"id": "a", "dim": 0, "vertex": -1}], "vertex index -1 out of range"),
    (ABC + [{"id": "d", "dim": 0, "vertex": 1}], "vertex index 1 declared twice"),
    (ABC + [edge(["b", 1], [7, -1])], "face 'e': boundary face 7 missing"),
    (ABC + [{"id": "e", "dim": 2, "boundary": [["b", 1], ["a", -1]]}],
     "face 'e': non-graded boundary"),
    (ABC + [edge(["b", 2], ["a", -2])], "face 'e': sign must be +1 or -1"),
    (ABC + [edge(["a", 1], ["a", -1])], "face 'e': repeated boundary face"),
    (ABC + [edge(["a", 1])], "face 'e': dimension exceeds vertex count"),
    # each vertex bounds the empty face with sign +1, so d.d of this edge is 2
    (ABC + [edge(["b", 1], ["a", 1])], "face 'e': boundary of boundary is nonzero"),
    # a tuple is an id like any other, held to the same checks
    (ABC + [{"id": ("a",), "dim": 0, "vertex": 0}, {"id": ("a",), "dim": 0, "vertex": 1}],
     "duplicate face id ('a',)"),
], ids=["duplicate-id", "empty-face", "vertex-too-large", "negative-vertex", "vertex-twice",
        "missing-boundary-face", "non-graded", "sign", "repeated-boundary-face",
        "dimension-exceeds-vertices", "edge-boundary-of-boundary", "tuple-id"])
def test_polyhedral_checks_its_input(specs, message):
    with pytest.raises(InvalidComplexError, match=f"^{re.escape(message)}$"):
        polyhedral_from_incidence(L3, specs)


def test_restrict_examples():
    X = taylor_complex(xy_square())
    # canonical order: 0=y^2, 1=xy, 2=x^2
    Y = restrict_leq(X, Monomial((2, 1)))
    assert [sorted(f.vertices) for f in Y.faces if f.dim >= 0] == [[1], [2], [1, 2]]
    Z = restrict_leq(X, Monomial((9, 9)))
    assert len(Z.faces) == len(X.faces)
    W = restrict_leq(X, Monomial((0, 0)))
    assert W.dim < 0
    assert is_acyclic(W)
    with pytest.raises(DimensionMismatch):
        restrict_leq(X, Monomial((2, 1, 0)))


def test_restrict_equals_induced_subcomplex():
    rng = random.Random(31)
    for _ in range(10):
        M = random_ideal(rng, 3, 4, maxdeg=3)
        X = taylor_complex(M)
        for b in lcm_lattice(X):
            beta = Monomial(b)
            Y = restrict_leq(X, beta)
            allowed = {v for v in X.vertices() if Monomial(X.labels[v]).divides(beta)}
            induced = {tuple(sorted(f.vertices)) for f in X.faces
                       if f.dim >= 0 and set(f.vertices) <= allowed}
            got = {tuple(sorted(f.vertices)) for f in Y.faces if f.dim >= 0}
            assert got == induced


def face_specs(faces):
    """Face specs of the nonempty ones among ``faces``, ids as they are."""
    return [{"id": f.id, "dim": 0, "vertex": next(iter(f.vertices))} if f.dim == 0 else
            {"id": f.id, "dim": f.dim, "boundary": [[sid, s] for sid, s in f.boundary]}
            for f in faces if f.dim >= 0]


def rebuilt_restriction(X, beta):
    """Oracle: X<=beta rebuilt from face specs and validated all over again."""
    return polyhedral_from_incidence(X.labels, face_specs(f for f in X.faces
                                                          if Monomial(f.label).divides(beta)))


def assert_same_complex(got, want):
    assert got.labels == want.labels
    assert [(f.id, f.vertices, f.dim, f.boundary, f.label) for f in got.faces] == \
        [(f.id, f.vertices, f.dim, f.boundary, f.label) for f in want.faces]
    assert [f.id for f in got.facets()] == [f.id for f in want.facets()]
    assert [len(got.grade(k)) for k in range(got.num_grades)] == \
        [len(want.grade(k)) for k in range(want.num_grades)]


def assert_filter_matches_rebuild(X):
    for b in lcm_lattice(X):
        beta = Monomial(b)
        assert_same_complex(restrict_leq(X, beta), rebuilt_restriction(X, beta))


def antichain_ideal(rng, n, r, degree=8):
    """r distinct monomials of one total degree: all of them are minimal
    generators, and ties between their exponents are common (non-generic)."""
    points = set()
    while len(points) < r:
        cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
        points.add(tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree])))
    return mk(n, *points)


def test_restrict_matches_rebuild_on_taylor_and_scarf():
    rng = random.Random(37)
    sizes = [(1, 1)] + [(n, r) for n in (2, 3, 4) for r in (2, 5, 8)] * 2
    for n, r in sizes:
        M = antichain_ideal(rng, n, r)
        assert M.num_gens == r
        assert_filter_matches_rebuild(taylor_complex(M))
        assert_filter_matches_rebuild(scarf_complex(M))
        G = random_generic_ideal(rng, n, r, artinian=n <= r and rng.random() < 0.5)
        assert_filter_matches_rebuild(scarf_complex(G))


def test_restrict_matches_rebuild_on_polyhedral():
    M = five_gen_nongeneric()
    quad = [s for s in hull_specs() if s["id"] in
            {"v0", "v1", "v3", "v4", "e01", "e13", "e34", "e04", "Q"}]
    assert_filter_matches_rebuild(polyhedral_from_incidence(M.gens, quad))
    assert_filter_matches_rebuild(polyhedral_from_incidence(M.gens, hull_specs()))


def validated_simplicial(labels, facets):
    """Oracle: the subset closure of the facets as face specs with
    (-1)^j boundaries, validated by the polyhedral route, which derives
    vertex sets from boundaries, checks d.d = 0 down to the empty face
    and takes every label as an lcm of vertex labels."""
    closure = set()
    for facet in facets:
        vs = tuple(sorted(set(facet)))
        closure.update(c for k in range(1, len(vs) + 1) for c in itertools.combinations(vs, k))
    specs = [{"id": t, "dim": 0, "vertex": t[0]} if len(t) == 1 else
             {"id": t, "dim": len(t) - 1,
              "boundary": [[t[:j] + t[j + 1:], (-1) ** j] for j in range(len(t))]}
             for t in closure]
    return polyhedral_from_incidence(labels, specs)


def assert_matches_validated(X):
    assert_same_complex(X, validated_simplicial(X.labels, [f.vertices for f in X.facets()]))


def test_simplicial_matches_validated_route_on_random_facets():
    rng = random.Random(47)
    for _ in range(200):
        nv, n = rng.randint(1, 7), rng.randint(1, 4)
        lab = [Monomial(tuple(rng.randint(0, 3) for _ in range(n))) for _ in range(nv)]
        facets = [rng.sample(range(nv), rng.randint(1, nv)) for _ in range(rng.randint(1, 4))]
        assert_same_complex(simplicial_from_facets(lab, facets), validated_simplicial(lab, facets))
    # a facet may list a vertex twice
    lab, facets = L3, [(2, 0, 2), (1, 1)]
    assert_same_complex(simplicial_from_facets(lab, facets), validated_simplicial(lab, facets))


def test_simplicial_matches_validated_route_on_taylor_and_scarf():
    rng = random.Random(53)
    for n, r in [(n, r) for n in (1, 2, 3, 4) for r in (1, 3, 5, 8, 10)] * 2:
        ideals = [random_ideal(rng, n, r, maxdeg=4),
                  random_generic_ideal(rng, n, r, artinian=n <= r and rng.random() < 0.5)]
        if n > 1 and r <= 8:
            ideals.append(antichain_ideal(rng, n, r))  # r distinct points of degree 8
        for M in ideals:
            if M.num_gens <= 8:
                assert_matches_validated(taylor_complex(M))
            assert_matches_validated(scarf_complex(M))
            assert_matches_validated(scarf_complex(star_ideal(M).star))


@pytest.mark.parametrize("labs, facets, error", [
    (L3, [(0, 1), ()], InvalidComplexError),
    (L3, [], InvalidComplexError),
    (L3, [(0, 3)], InvalidComplexError),
    (L3, [(-1, 0)], InvalidComplexError),
    (labels((1, 0), (0, 1, 0)), [(0, 1)], DimensionMismatch),
], ids=["empty-facet", "no-facets", "vertex-too-large", "negative-vertex", "mixed-nvars"])
def test_simplicial_checks_its_input(labs, facets, error):
    with pytest.raises(error):
        simplicial_from_facets(labs, facets)


def test_homology_simplex_boundaries():
    # hollow d-simplex is a (d-1)-sphere
    for d in (1, 2, 3):
        vs = tuple(range(d + 1))
        lab = [Monomial(tuple(int(i == j) for j in range(d + 1))) for i in vs]
        X = simplicial_from_facets(lab, list(itertools.combinations(vs, d)))
        ranks = reduced_homology_ranks(X)
        assert ranks == [0] * d + [1]
        assert not is_acyclic(X)


def test_homology_cone_and_full_simplex():
    X = simplicial_from_facets(L3, [(0, 1, 2)])
    assert reduced_homology_ranks(X) == [0, 0, 0, 0]
    assert is_acyclic(X)
    # cones over random complexes are acyclic (vertex 0 in every facet)
    rng = random.Random(41)
    for _ in range(10):
        nv = rng.randint(2, 5)
        lab = [Monomial(tuple(int(i == j) for j in range(nv))) for i in range(nv)]
        facets = []
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, nv - 1)
            others = rng.sample(range(1, nv), min(size, nv - 1))
            facets.append((0, *others))
        assert is_acyclic(simplicial_from_facets(lab, facets))


def test_homology_two_vertices():
    X = simplicial_from_facets(labels((1, 0), (0, 1)), [(0,), (1,)])
    assert reduced_homology_ranks(X) == [0, 1]


def test_euler_characteristic_matches_homology():
    rng = random.Random(43)
    for _ in range(15):
        M = random_ideal(rng, 3, rng.randint(1, 5), maxdeg=4)
        X = taylor_complex(M)
        faces_side = sum((-1) ** f.dim for f in X.faces)
        ranks = reduced_homology_ranks(X)
        hom_side = sum((-1) ** (k - 1) * r for k, r in enumerate(ranks))
        assert faces_side == hom_side


def test_lcm_lattice_examples():
    X = taylor_complex(xy_square())
    got = set(lcm_lattice(X))
    # oracle: enumerate all 2^3 - 1 subsets and dedupe
    subsets = set()
    gens = [(0, 2), (1, 1), (2, 0)]
    for k in (1, 2, 3):
        for combo in itertools.combinations(gens, k):
            subsets.add(tuple(max(c) for c in zip(*combo)))
    subsets.add((0, 0))
    assert got == subsets == {(0, 0), (2, 0), (1, 1), (0, 2), (2, 1), (2, 2), (1, 2)}

    single = simplicial_from_facets(labels((3, 1)), [(0,)])
    assert set(lcm_lattice(single)) == {(0, 0), (3, 1)}

    twin = simplicial_from_facets(labels((2, 1), (2, 1)), [(0,), (1,)])
    assert set(lcm_lattice(twin)) == {(0, 0), (2, 1)}


def lattice_by_subsets(X):
    """Oracle: the lcm of every subset of X's vertex labels, the empty
    subset giving the zero vector."""
    gens = [X.labels[v] for v in X.vertices()]
    found = {(0,) * X.nvars}
    for k in range(1, len(gens) + 1):
        for combo in itertools.combinations(gens, k):
            found.add(tuple(max(c) for c in zip(*combo)))
    return found


def assert_lattice_matches_subsets(X):
    assert list(lcm_lattice(X)) == sorted(lattice_by_subsets(X))


def test_lcm_lattice_matches_all_subsets():
    rng = random.Random(71)
    absent = 0
    for n, r in [(n, r) for n in (1, 2, 3, 4) for r in (1, 3, 6, 10)]:
        ideals = [random_ideal(rng, n, r, maxdeg=4),
                  random_generic_ideal(rng, n, r, artinian=n <= r and rng.random() < 0.5)]
        if n > 1 and r <= 8:
            ideals.append(antichain_ideal(rng, n, r))  # r distinct points of degree 8
        for M in ideals:
            for X in (taylor_complex(M), scarf_complex(M)):
                assert_lattice_matches_subsets(X)
                # restrictions keep every label, also those of the vertices they drop
                for beta in rng.sample(lcm_lattice(X), min(4, len(lcm_lattice(X)))):
                    Y = restrict_leq(X, Monomial(beta))
                    absent += len(Y.vertices()) < len(Y.labels)
                    assert_lattice_matches_subsets(Y)
    assert absent > 100
    # repeated labels, on a complex and on the full simplex
    lab = labels((2, 1), (2, 1), (1, 3), (1, 3), (0, 4), (2, 1))
    for facets in ([(0, 1, 2), (3, 4), (5,)], [range(6)]):
        X = simplicial_from_facets(lab, facets)
        assert_lattice_matches_subsets(X)
        assert len(lcm_lattice(X)) == 7


def test_lcm_lattice_cap(monkeypatch):
    # 21 staircase vertices: k of them give 1 + k(k+1)/2 points, counted as
    # the lattice grows, so a refusal comes at the first vertex past the cap
    M = mk(2, *[(i + 1, 22 - i) for i in range(21)])
    X = simplicial_from_facets(M.gens, [(i,) for i in range(21)])
    assert len(lcm_lattice(X)) == 1 + 21 * 22 // 2
    monkeypatch.setattr(cellres.complexes, "ENUMERATION_CAP", 100)
    with pytest.raises(CapExceededError, match="^106 lcm-lattice points exceeds the cap 100$"):
        lcm_lattice(X)


def test_taylor_cap():
    # 2^21 faces on 21 generators; 20 generators make 2^20, which the cap allows
    M = mk(2, *[(i + 1, 22 - i) for i in range(21)])
    with pytest.raises(CapExceededError, match="^2097152 Taylor faces exceeds the cap 1048576$"):
        taylor_complex(M)


def test_facet_input_cap(monkeypatch):
    # the faces of one 6-vertex facet are counted as each is made, the
    # empty face included: 7 through the vertices, 22 through the edges,
    # and the 31st, a triangle, passes the cap
    lab = [Monomial(tuple(int(i == j) for j in range(6))) for i in range(6)]
    assert len(simplicial_from_facets(lab, [range(6)]).faces) == 64
    monkeypatch.setattr(cellres.complexes, "ENUMERATION_CAP", 30)
    with pytest.raises(CapExceededError, match="^31 faces exceeds the cap 30$"):
        simplicial_from_facets(lab, [range(6)])
    # one level may be many times the cap: a 60-vertex facet has 1,831 faces
    # through its edges and 34,220 triangles, and stops at the face past the cap
    monkeypatch.setattr(cellres.complexes, "ENUMERATION_CAP", 1900)
    with pytest.raises(CapExceededError, match="^1901 faces exceeds the cap 1900$"):
        simplicial_from_facets([(i,) for i in range(60)], [range(60)])


def test_vertex_index_out_of_range():
    with pytest.raises(InvalidComplexError):
        simplicial_from_facets(L3, [(0, 5)])
