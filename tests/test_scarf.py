import itertools
import random

import pytest

import cellres.complexes
from cellres.errors import CapExceededError, PreconditionError, VerificationError
from cellres.monomial import Monomial, MonomialIdeal
from cellres.scarf import GhostedIdeal, scarf_complex, scarf_pairs, star_ideal
from conftest import (
    five_gen_nongeneric,
    ghosted_pairs,
    mk,
    random_antichain,
    random_generic_ideal,
    random_ideal,
    random_staircase,
    three_gen_nonartinian,
    xy_square,
)


def brute_scarf_faces(M):
    """Oracle: group all subsets by lcm and keep the singleton classes."""
    r = M.num_gens
    groups = {}
    for k in range(r + 1):
        for combo in itertools.combinations(range(r), k):
            key = tuple(max(c) for c in zip(*(M.gens[i].exps for i in combo))) if combo \
                else (0,) * M.nvars
            groups.setdefault(key, []).append(combo)
    return {c[0] for c in groups.values() if len(c) == 1 and c[0]}


def faces_of(X):
    return {tuple(sorted(f.vertices)) for f in X.faces if f.dim >= 0}


def facet_sets(X):
    return {frozenset(f.vertices) for f in X.facets()}


def test_five_gen_scarf_facets_match_known_shape():
    M = five_gen_nongeneric()
    pos = {g.exps: i for i, g in enumerate(M.gens)}
    X = scarf_complex(M)
    expected = {
        frozenset({pos[(1, 1, 0)], pos[(0, 2, 0)], pos[(0, 1, 1)]}),  # the triangle
        frozenset({pos[(2, 0, 0)], pos[(1, 1, 0)]}),
        frozenset({pos[(2, 0, 0)], pos[(0, 0, 2)]}),
        frozenset({pos[(0, 1, 1)], pos[(0, 0, 2)]}),
    }
    assert facet_sets(X) == expected
    edges = {tuple(sorted(f.vertices)) for f in X.grade(2)}
    assert len(edges) == 6 and len(X.grade(3)) == 1


def test_xy_square_scarf_from_oracle():
    M = xy_square()
    assert faces_of(scarf_complex(M)) == brute_scarf_faces(M)
    # frozen: {0,2} and {0,1,2} share lcm x^2*y^2 and drop out
    assert facet_sets(scarf_complex(M)) == {frozenset({0, 1}), frozenset({1, 2})}


def test_single_generator_scarf():
    X = scarf_complex(mk(2, (3, 1)))
    assert faces_of(X) == {(0,)}


SCARF_FAMILIES = {
    "random": lambda rng, r: random_ideal(rng, rng.randint(1, 4), r, maxdeg=4),
    "generic": lambda rng, r: random_generic_ideal(rng, rng.randint(1, 4), r),
    "generic-artinian": lambda rng, r: random_generic_ideal(rng, rng.randint(1, 4), r,
                                                            artinian=True),
    # the generators above minimalize to fewer than r; these keep exactly r
    "antichain": lambda rng, r: random_antichain(rng, rng.randint(2, 4), r),
    "generic-antichain": lambda rng, r: random_antichain(rng, rng.randint(2, 4), r, generic=True),
}


def test_scarf_matches_oracle_randomly():
    # n <= 4 and r <= 10; the ghosted ideals add up to n generators
    rng = random.Random(201)
    for family, draw in SCARF_FAMILIES.items():
        for r in range(1, 11):
            for _ in range(6):
                M = draw(rng, r)
                if "antichain" in family:
                    assert M.num_gens == r
                for ideal in (M, star_ideal(M).star):
                    assert faces_of(scarf_complex(ideal)) == brute_scarf_faces(ideal), (family, ideal)


def test_scarf_work_follows_its_output():
    """A 30-generator staircase gives its path; a walk over all 2^30
    generator subsets would not finish."""
    M, _ = random_staircase(random.Random(219), 30)
    X = scarf_complex(M)
    assert len(X.grade(1)) == 30 and len(X.grade(2)) == 29 and X.dim == 1
    assert facet_sets(X) == {frozenset({i, i + 1}) for i in range(29)}


def test_scarf_dimension_bound():
    rng = random.Random(203)
    for _ in range(25):
        M = random_ideal(rng, rng.randint(1, 4), rng.randint(1, 6), maxdeg=5)
        assert scarf_complex(M).dim <= M.nvars - 1


def test_scarf_cap(monkeypatch):
    # the cap counts the faces kept, with the empty one, after each level:
    # a 21-generator staircase keeps 21 vertices, then 20 edges
    gens = [(i + 1, 25 - i) for i in range(21)]
    M = mk(2, *gens)
    assert len(scarf_complex(M).faces) == 42
    monkeypatch.setattr(cellres.complexes, "ENUMERATION_CAP", 30)
    with pytest.raises(CapExceededError, match="^42 Scarf faces exceeds the cap 30$"):
        scarf_complex(M)
    # the ghosted complex is counted the same way
    with pytest.raises(CapExceededError, match="Scarf faces exceeds the cap 30$"):
        scarf_pairs(M)


def test_scarf_rejects_unit_ideal():
    with pytest.raises(PreconditionError):
        scarf_complex(MonomialIdeal(2, [Monomial((0, 0))]))


def test_star_ideal_drops_dominated_ghosts():
    M = three_gen_nonartinian()
    gh = star_ideal(M, 5)
    assert gh.ghost_exponent == 5
    # z1^5 is dominated by z1^4: only the z2 ghost joins the base generators
    base = {g.exps for g in M.gens}
    star = {g.exps for g in gh.star.gens}
    assert star - base == {(0, 5)} and base <= star
    assert [g.exps for g in gh.star.gens] == [(0, 5), (1, 2), (2, 1), (4, 0)]


def test_star_ideal_artinian_unchanged():
    M = xy_square()
    gh = star_ideal(M)
    assert gh.star == M


def test_star_ideal_single_variable():
    M = mk(1, (1,))
    gh = star_ideal(M)
    assert gh.star == M


def test_star_ideal_default_and_too_small_D():
    M = three_gen_nonartinian()
    assert star_ideal(M).ghost_exponent == 5
    with pytest.raises(PreconditionError):
        star_ideal(M, 4)


def test_pairs_three_gen_example():
    M = three_gen_nonartinian()
    got = {(tuple(sorted(p.K)), tuple(sorted(p.tau))) for p in scarf_pairs(M)}
    # canonical order: 0 = z1*z2^2, 1 = z1^2*z2, 2 = z1^4
    assert got == {((0,), (0,)), ((0, 1), (0, 1)), ((0, 1), (1, 2))}
    anns = {tuple(sorted(p.tau)): p.annihilator().exponent.exps for p in scarf_pairs(M)}
    assert anns == {(0,): (1, 0), (0, 1): (2, 2), (1, 2): (4, 1)}


def test_pairs_artinian_generic_full_K():
    M = xy_square()
    pairs = scarf_pairs(M)
    assert {(tuple(sorted(p.K)), tuple(sorted(p.tau))) for p in pairs} == {
        ((0, 1), (0, 1)), ((0, 1), (1, 2))}
    facets = {frozenset(f.vertices) for f in scarf_complex(M).facets()}
    assert {frozenset(p.tau) for p in pairs} == facets


def test_pairs_principal_single_variable():
    pairs = scarf_pairs(mk(1, (4,)))
    assert [(sorted(p.K), sorted(p.tau)) for p in pairs] == [([0], [0])]


def test_pairs_independent_of_ghost_exponent():
    rng = random.Random(209)
    for _ in range(15):
        M = random_generic_ideal(rng, rng.randint(1, 3), rng.randint(1, 5))
        base = {p.key() for p in scarf_pairs(M)}
        top = max(M.max_degrees())
        assert {p.key() for p in ghosted_pairs(M, top + 4)} == base


def test_artinian_generic_facets_have_n_vertices():
    rng = random.Random(211)
    for _ in range(15):
        n = rng.randint(1, 3)
        M = random_generic_ideal(rng, n, rng.randint(n, 6), artinian=True)
        for f in scarf_complex(M).facets():
            assert len(f.vertices) == n


def test_generic_resolution_contains_scarf_faces():
    # any complex resolving a generic ideal carries the Scarf faces
    from cellres.complexes import taylor_complex
    rng = random.Random(213)
    for _ in range(10):
        M = random_generic_ideal(rng, 3, 4)
        taylor_faces = faces_of(taylor_complex(M))
        assert faces_of(scarf_complex(M)) <= taylor_faces


def test_staircase_scarf_is_path():
    rng = random.Random(215)
    M, _ = random_staircase(rng, 6)
    X = scarf_complex(M)
    assert facet_sets(X) == {frozenset({i, i + 1}) for i in range(5)}


def test_scarf_pairs_unknown_vertex_raises(monkeypatch):
    import cellres.scarf

    def wrong_ghost(M, D=None):
        # z2^6 with D = 5: a pure power, but not of the ghost exponent
        return GhostedIdeal(M, 5, mk(2, *(g.exps for g in M.gens), (0, 6)))

    monkeypatch.setattr(cellres.scarf, "star_ideal", wrong_ghost)
    with pytest.raises(VerificationError, match="neither a base generator nor a ghost"):
        scarf_pairs(three_gen_nonartinian())


def test_scarf_dimension_check_is_a_verification_error(tmp_path, capsys, monkeypatch):
    import cellres.scarf
    from cellres.cli import main
    from cellres.complexes import taylor_complex
    from cellres.ioformats import ideal_text

    # the Taylor triangle of (y^2, xy, x^2) has dimension 2, past n-1 = 1
    monkeypatch.setattr(cellres.scarf, "grow_simplicial",
                        lambda *args: taylor_complex(xy_square()))
    with pytest.raises(VerificationError, match="dimension exceeds n-1"):
        scarf_complex(xy_square())
    path = tmp_path / "m.txt"
    path.write_text(ideal_text(xy_square()))
    assert main(["scarf", str(path)]) == 5
    assert "dimension exceeds n-1" in capsys.readouterr().err
