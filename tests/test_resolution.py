import json
import random
from dataclasses import replace
from operator import sub

import pytest

import cellres.complexes
from cellres.complexes import (
    LabeledComplex,
    lcm_lattice,
    polyhedral_from_incidence,
    simplicial_from_facets,
    taylor_complex,
)
from cellres.errors import CapExceededError, LabelMismatchError, NotMinimalError
from cellres.ioformats import parse_complex
from cellres.resolution import (
    betti_ranks,
    build_complex,
    differential,
    is_resolution,
    verify_chain,
)
from cellres.scarf import scarf_complex
from conftest import (
    chain_oracle,
    digon_specs,
    five_gen_nongeneric,
    g_class,
    hull_specs,
    mk,
    random_antichain,
    random_generic_ideal,
    random_ideal,
    random_staircase,
    xy_square,
)


def test_build_first_differential_is_generator_row():
    M = xy_square()
    F = build_complex(taylor_complex(M), M)
    assert F.ranks == (1, 3, 3, 1)
    first = differential(F, 1)
    assert all(row == 0 and sign == 1 for row, _, sign, _ in first)
    assert [quotient for *_, quotient in first] == [g.exps for g in M.gens]


def test_build_edge_entries_match_label_quotients():
    # canonical order 0=y^2, 1=xy, 2=x^2; edge {1,2} has label x^2*y
    M = xy_square()
    X = taylor_complex(M)
    F = build_complex(X, M)
    edge_pos = {tuple(sorted(f.vertices)): i for i, f in enumerate(X.grade(2))}
    col = edge_pos[(1, 2)]
    entries = {row: (sign, quotient) for row, c, sign, quotient in differential(F, 2) if c == col}
    # lcm(x*y, x^2) = x^2*y over vertices xy (row 1) and x^2 (row 2)
    assert entries == {1: (-1, (1, 0)), 2: (1, (0, 1))}


def test_single_generator():
    M = mk(2, (3, 1))
    X = simplicial_from_facets(M.gens, [(0,)])
    F = build_complex(X, M)
    assert F.ranks == (1, 1)
    assert differential(F, 1) == ((0, 0, 1, (3, 1)),)
    assert verify_chain(F)
    assert betti_ranks(F) == [1, 1]


def test_label_mismatch_rejected():
    M = xy_square()
    other = mk(2, (1, 0), (0, 1))
    with pytest.raises(LabelMismatchError):
        build_complex(taylor_complex(other), M)


def test_build_complex_refuses_past_the_vertex_cap(monkeypatch):
    # exactness is always decided, over the lcm lattice of every vertex, whose
    # points are counted as they are found: two vertices already give four
    M = xy_square()
    X = taylor_complex(M)
    assert build_complex(X, M).exact
    monkeypatch.setattr(cellres.complexes, "ENUMERATION_CAP", 3)
    with pytest.raises(CapExceededError, match="^4 lcm-lattice points exceeds the cap 3$"):
        build_complex(X, M)


def test_chain_condition_holds_and_detects_corruption():
    M = five_gen_nongeneric()
    F = build_complex(taylor_complex(M), M)
    assert verify_chain(F)
    # flip one boundary sign of the first edge; F's maps are read off X
    X = F.complex
    edge = X.grade(2)[0]
    sign, *rest = edge.signs
    faces = list(X.faces)
    faces[edge.id] = replace(edge, signs=(-sign, *rest))
    G = replace(F, complex=LabeledComplex(X.labels, tuple(faces)))
    assert not verify_chain(G)


def _chain_cases(rng):
    """Free complexes on Taylor, Scarf, JSON-facet, hull and digon complexes."""
    for _ in range(8):
        M = random_antichain(rng, rng.randint(2, 4), rng.randint(3, 7), degree=12)
        yield build_complex(taylor_complex(M), M)
        G = random_generic_ideal(rng, 3, rng.randint(4, 7), artinian=True)
        yield build_complex(scarf_complex(G), G)
        r = M.num_gens
        facets = [rng.sample(range(r), rng.randint(1, r)) for _ in range(rng.randint(1, 3))]
        facets += [[v] for v in range(r)]  # every generator a vertex
        text = json.dumps({"labels": [list(g.exps) for g in M.gens], "facets": facets})
        yield build_complex(parse_complex(text)[0], M)
    M5 = five_gen_nongeneric()
    yield build_complex(polyhedral_from_incidence(M5.gens, hull_specs()), M5)
    # the digon's vertices are z^2 and yz
    yield build_complex(polyhedral_from_incidence(M5.gens, digon_specs()), mk(3, *M5.gens[:2]))


def _corrupted(F, rng):
    """F with one boundary sign flipped, then with two boundary ids swapped
    within one face, then across two faces of one dimension."""
    X = F.complex
    faces = list(X.faces)

    def on(changed):
        G = faces.copy()
        for f in changed:
            G[f.id] = f
        return replace(F, complex=LabeledComplex(X.labels, tuple(G)))

    f = rng.choice(faces[1:])
    p = rng.randrange(len(f.signs))
    yield on([replace(f, signs=f.signs[:p] + (-f.signs[p],) + f.signs[p + 1:])])
    wide = [f for f in faces if len(f.boundary) >= 2]
    if wide:
        f = rng.choice(wide)
        p, q = rng.sample(range(len(f.boundary)), 2)
        ids = list(f.boundary)
        ids[p], ids[q] = ids[q], ids[p]
        yield on([replace(f, boundary=tuple(ids))])
    grades = [X.grade(k) for k in range(1, X.num_grades) if len(X.grade(k)) >= 2]
    if grades:
        f, g = rng.sample(rng.choice(grades), 2)
        p, q = rng.randrange(len(f.boundary)), rng.randrange(len(g.boundary))
        a, b = list(f.boundary), list(g.boundary)
        a[p], b[q] = b[q], a[p]
        yield on([replace(f, boundary=tuple(a)), replace(g, boundary=tuple(b))])


def test_chain_check_on_signs_matches_the_polynomial_oracle():
    rng = random.Random(127)
    verdicts = []
    for F in _chain_cases(rng):
        assert verify_chain(F) and chain_oracle(F)
        for G in _corrupted(F, rng):
            verdicts.append(verify_chain(G))
            assert verdicts[-1] == chain_oracle(G)
    # a swap of two boundary faces with equal signs keeps the chain condition
    assert True in verdicts and False in verdicts


def test_taylor_resolves_random_ideals():
    rng = random.Random(101)
    for _ in range(15):
        M = random_ideal(rng, rng.randint(1, 4), rng.randint(1, 6), maxdeg=6)
        X = taylor_complex(M)
        assert is_resolution(X)
        assert verify_chain(build_complex(X, M))


def test_hollow_triangle_is_not_resolution():
    M = xy_square()
    X = simplicial_from_facets(M.gens, [(0, 1), (1, 2), (0, 2)])
    assert not is_resolution(X)


def test_scarf_complex_resolves_generic():
    rng = random.Random(103)
    from conftest import random_generic_ideal
    for _ in range(10):
        M = random_generic_ideal(rng, rng.randint(1, 3), rng.randint(1, 5))
        assert is_resolution(scarf_complex(M))


def test_g4_class_scarf_complex_is_its_minimal_resolution():
    # the Scarf complex of a generic ideal always resolves it, minimally;
    # at this scale every lattice point's restriction is reduced, not ranked whole
    M = g_class(4, 13, 60, seed=5)
    X = scarf_complex(M)
    assert (M.num_gens, len(X.faces), len(lcm_lattice(X))) == (17, 334, 1937)
    assert is_resolution(X)
    assert betti_ranks(build_complex(X, M)) == [len(X.grade(k)) for k in range(X.num_grades)]


def test_minimality_examples():
    M = xy_square()
    taylor = build_complex(taylor_complex(M), M)
    assert not taylor.minimal
    scarf = build_complex(scarf_complex(M), M)
    assert scarf.minimal
    with pytest.raises(NotMinimalError):
        betti_ranks(taylor)
    assert betti_ranks(scarf) == [1, 3, 2]

    from cellres.complexes import polyhedral_from_incidence
    M5 = five_gen_nongeneric()
    hull = polyhedral_from_incidence(M5.gens, hull_specs())
    F = build_complex(hull, M5)
    assert F.minimal
    assert is_resolution(hull)

    # entries come out in (col, row) order, each once, with no sort, and
    # each quotient is the face's label over its boundary face's, a monomial
    for G in (taylor, scarf, F):
        X = G.complex
        for k in range(1, X.num_grades):
            diff = differential(G, k)
            keys = [(col, row) for row, col, _, _ in diff]
            assert keys == sorted(set(keys))
            rows, cols = X.grade(k - 1), X.grade(k)
            expected = tuple((rows.index(X.faces[sid]), col, sign,
                              tuple(map(sub, f.label, X.faces[sid].label)))
                             for col, f in enumerate(cols)
                             for sid, sign in zip(f.boundary, f.signs))
            assert diff == expected
            assert all(min(quotient) >= 0 for *_, quotient in diff)


def test_minimality_three_ways_agree():
    rng = random.Random(107)
    for _ in range(30):
        M = random_ideal(rng, rng.randint(1, 3), rng.randint(1, 5), maxdeg=4)
        X = taylor_complex(M) if rng.random() < 0.5 else scarf_complex(M)
        F = build_complex(X, M)
        by_entries = F.minimal
        by_labels = all(X.faces[sid].label != f.label
                        for f in X.faces for sid in f.boundary)
        by_units = not any(not any(quotient) for k in range(1, X.num_grades)
                           for *_, quotient in differential(F, k))
        assert by_entries == by_labels == by_units


def test_staircase_betti_ranks():
    rng = random.Random(109)
    for _ in range(8):
        r = rng.randint(2, 9)
        M, _ = random_staircase(rng, r)
        F = build_complex(scarf_complex(M), M)
        assert betti_ranks(F) == [1, r, r - 1]


def test_koszul_two_variables():
    M = mk(2, (1, 0), (0, 1))
    F = build_complex(scarf_complex(M), M)
    assert betti_ranks(F) == [1, 2, 1]


def test_subcomplex_resolution_rank_bound():
    # a simplicial resolution never beats a containing one, degree-wise
    rng = random.Random(113)
    for _ in range(10):
        from conftest import random_generic_ideal
        M = random_generic_ideal(rng, 3, 4)
        big = build_complex(taylor_complex(M), M)
        small = build_complex(scarf_complex(M), M)
        assert is_resolution(big.complex) and is_resolution(small.complex)
        for k, rank in enumerate(small.ranks):
            assert rank <= big.ranks[k]
