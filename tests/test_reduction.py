"""Homology and exactness by reduction, against the Bareiss-only route
they replaced, which is kept here as the oracle, and the degree
restriction by face masks against restrict_leq."""

import random
from math import comb

import pytest

import cellres.complexes
from cellres.complexes import (
    Face,
    FaceIndex,
    LabeledComplex,
    is_acyclic,
    lcm_lattice,
    polyhedral_from_incidence,
    reduced_homology_ranks,
    restrict_leq,
    simplicial_from_facets,
    taylor_complex,
)
from cellres.errors import VerificationError
from cellres.monomial import Monomial
from cellres.rank import matrix_rank
from cellres.resolution import is_resolution
from cellres.scarf import scarf_complex
from conftest import (
    count_calls,
    digon_specs,
    five_gen_nongeneric,
    g_class,
    hull_specs,
    mk,
    random_antichain,
    random_generic_ideal,
    random_ideal,
)


def bareiss_ranks(X):
    """Oracle: reduced homology from exact ranks of the whole augmented
    boundary matrices, with nothing reduced first."""
    ranks = [0]
    for k in range(1, X.num_grades):
        rows, cols = X.grade(k - 1), X.grade(k)
        mat = [[0] * len(cols) for _ in rows]
        for j, f in enumerate(cols):
            for sid, sign in zip(f.boundary, f.signs):
                mat[sid - rows[0].id][j] = sign
        ranks.append(matrix_rank(mat, len(cols)))
    ranks.append(0)
    return [len(X.grade(k)) - ranks[k] - ranks[k + 1] for k in range(X.num_grades)]


def padded(ranks, length):
    return ranks + [0] * (length - len(ranks))


def assert_restrictions_match(X):
    """Every lcm-lattice restriction of X: rebuilt and reduced, selected by
    mask and reduced, and ranked whole by the oracle, agree; so does
    is_resolution.  A restriction the strong collapses decide is acyclic,
    and the core they leave has the restriction's reduced ranks.  Returns
    how many restrictions have homology."""
    index = FaceIndex(X)
    with_homology = 0
    exact = True
    for beta in lcm_lattice(X):
        R = restrict_leq(X, Monomial(beta))
        want = bareiss_ranks(R)
        assert reduced_homology_ranks(R) == want
        acyclic = R.dim < 0 or not any(want)
        ids = index.leq(beta)
        assert index.is_acyclic(ids) == acyclic
        core = index.core(beta)
        if core is None:
            assert acyclic
        else:
            assert set(core) <= set(ids)
            assert index.reduced_ranks(core) == padded(want, X.num_grades)
        if R.dim >= 0:
            assert index.reduced_ranks(ids) == padded(want, X.num_grades)
            with_homology += any(want)
            exact = exact and not any(want)
    assert is_resolution(X) == exact
    return with_homology


def random_complex(rng):
    nv, n = rng.randint(1, 8), rng.randint(1, 3)
    lab = [Monomial(tuple(rng.randint(0, 3) for _ in range(n))) for _ in range(nv)]
    facets = [rng.sample(range(nv), rng.randint(1, min(nv, 4))) for _ in range(rng.randint(1, 6))]
    return simplicial_from_facets(lab, facets)


def test_reduction_matches_bareiss_on_random_complexes():
    rng = random.Random(59)
    with_homology = set()
    for _ in range(400):
        X = random_complex(rng)
        want = bareiss_ranks(X)
        assert reduced_homology_ranks(X) == want
        assert is_acyclic(X) == (not any(want))
        with_homology.update(k for k, h in enumerate(want) if h)
        assert_restrictions_match(X)
    # reduced homology turned up in degrees -1 (never: X is nonempty), 0, 1 and 2
    assert with_homology == {1, 2, 3}


def test_reduction_matches_bareiss_on_polyhedral_complexes():
    M = five_gen_nongeneric()
    hull = polyhedral_from_incidence(M.gens, hull_specs())
    assert is_resolution(hull)
    assert assert_restrictions_match(hull) == 0
    # a quadrilateral is no simplex: no collapse runs, the core is the whole restriction
    index = FaceIndex(hull)
    assert all(index.core(beta) == index.leq(beta) for beta in lcm_lattice(hull))
    # without its two 2-cells the hull is a graph with two independent cycles;
    # every edge has two vertices, no two alike, so it is simplicial and collapses run
    graph = polyhedral_from_incidence(M.gens, [s for s in hull_specs() if s["dim"] < 2])
    assert reduced_homology_ranks(graph) == bareiss_ranks(graph) == [0, 0, 2]
    assert not is_resolution(graph)
    assert assert_restrictions_match(graph) > 0
    index = FaceIndex(graph)
    # a path of two edges or more (empty face, 3 vertices, 2 edges) collapses to a point
    assert any(index.core(beta) is None and len(index.leq(beta)) >= 6
               for beta in lcm_lattice(graph))


def test_reduction_matches_bareiss_on_taylor_and_scarf_restrictions():
    rng = random.Random(61)
    with_homology = 0
    for n, r in [(n, r) for n in (2, 3, 4) for r in (3, 6, 10)]:
        M = random_antichain(rng, n, r, degree=12)  # for n > 2 ties are common: non-generic
        G = random_generic_ideal(rng, n, r, artinian=rng.random() < 0.5)
        if r < 10 or n == 3:  # the oracle ranks all 2^r faces of each restriction whole
            assert_restrictions_match(taylor_complex(M))
        with_homology += assert_restrictions_match(scarf_complex(M))
        assert assert_restrictions_match(scarf_complex(G)) == 0
    # the Scarf complex of a non-generic ideal often misses a resolution
    assert with_homology > 0


def test_reduced_ranks_of_the_skeleta_of_a_simplex():
    # the Taylor complex of r generators is the (r-1)-simplex; its
    # k-skeleton is closed under boundaries but no degree restriction, so
    # its k-faces have cofaces outside it, and its reduced homology is
    # C(r-1, k+1) in degree k alone: for r = 4 the 1-skeleton has ranks
    # [0, 0, 3, 0, 0] and the 2-skeleton [0, 0, 0, 1, 0]
    for r in range(2, 9):
        X = taylor_complex(mk(2, *[(i, r - i) for i in range(r)]))
        index = FaceIndex(X)
        for k in range(-1, r):
            want = [0] * X.num_grades
            want[k + 1] = comb(r - 1, k + 1)
            assert index.reduced_ranks([f.id for f in X.faces if f.dim <= k]) == want


def test_non_unit_incidence_is_refused():
    # built past the constructors, which admit only incidences +-1
    empty = Face(0, (), -1, (), (), (0,))
    vertex = Face(1, (0,), 0, (0,), (2,), (1,))
    with pytest.raises(VerificationError, match="incidence 2 is not a unit"):
        reduced_homology_ranks(LabeledComplex(((1,),), (empty, vertex)))


def test_taylor_exactness_makes_no_rank_call(monkeypatch):
    # every restriction of a Taylor complex is a simplex, a cone the strong
    # collapses decide; every one of the g4-class Scarf complex is acyclic:
    # strong collapses run first, then coreductions reduce the cores they
    # leave to nothing
    calls = count_calls(monkeypatch, cellres.complexes, "matrix_rank")
    cores = count_calls(monkeypatch, FaceIndex, "reduced_ranks")
    rng = random.Random(67)
    for r in (10, 11, 12):
        M = random_antichain(rng, 3, r)
        assert M.num_gens == r
        assert is_resolution(taylor_complex(M))
    assert cores == []
    X = scarf_complex(g_class(4, 13, 60, 5))
    assert is_resolution(X)
    # 203 of the 1,937 lattice points reach coreduction
    assert 0 < 4 * len(cores) < len(lcm_lattice(X)) == 1937
    assert calls == []


def test_mask_selection_equals_restrict_leq():
    rng = random.Random(71)

    def check(X, degrees):
        points = [Monomial(b) for b in lcm_lattice(X)]
        # X restricted keeps every label: the points above it name absent vertices too
        Y = restrict_leq(X, rng.choice(points))
        box = [Monomial(tuple(rng.randint(0, d + 1) for d in degrees)) for _ in range(20)]
        for Z in (X, Y):
            index = FaceIndex(Z)
            for beta in (*points, *box):
                got = [Z.faces[i].vertices for i in index.leq(beta.exps)]
                assert got == [f.vertices for f in restrict_leq(Z, beta).faces]

    for n, r in [(1, 3), (2, 4), (3, 6), (3, 8), (4, 7)]:
        M = random_ideal(rng, n, r, maxdeg=4)
        G = random_generic_ideal(rng, n, r, artinian=rng.random() < 0.5)
        for X in (taylor_complex(M), scarf_complex(M), scarf_complex(G)):
            check(X, M.max_degrees())
    # stars select exactly on polyhedral input too, simplicial (the graph) or not
    M = five_gen_nongeneric()
    hull = polyhedral_from_incidence(M.gens, hull_specs())
    graph = polyhedral_from_incidence(M.gens, [s for s in hull_specs() if s["dim"] < 2])
    digon = polyhedral_from_incidence(M.gens, digon_specs())
    assert not hull.is_simplicial() and graph.is_simplicial() and not digon.is_simplicial()
    for X in (hull, graph, digon):
        check(X, M.max_degrees())
