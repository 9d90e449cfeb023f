import random
from dataclasses import replace
from operator import sub

import pytest

import cellres.complexes
from cellres.complexes import LabeledComplex, lcm_lattice, simplicial_from_facets, taylor_complex
from cellres.errors import CapExceededError, LabelMismatchError, NotMinimalError
from cellres.resolution import (
    betti_ranks,
    build_complex,
    differential,
    is_resolution,
    verify_chain,
)
from cellres.scarf import scarf_complex
from conftest import (
    chain_maps,
    five_gen_nongeneric,
    g_class,
    hull_specs,
    mk,
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
    assert verify_chain(chain_maps(F))
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
    assert verify_chain(chain_maps(F))
    # flip one boundary sign of the first edge; F's maps are read off X
    X = F.complex
    edge = X.grade(2)[0]
    sign, *rest = edge.signs
    faces = list(X.faces)
    faces[edge.id] = replace(edge, signs=(-sign, *rest))
    G = replace(F, complex=LabeledComplex(X.labels, tuple(faces)))
    assert not verify_chain(chain_maps(G))


def test_taylor_resolves_random_ideals():
    rng = random.Random(101)
    for _ in range(15):
        M = random_ideal(rng, rng.randint(1, 4), rng.randint(1, 6), maxdeg=6)
        X = taylor_complex(M)
        assert is_resolution(X)
        assert verify_chain(chain_maps(build_complex(X, M)))


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
