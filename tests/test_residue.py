import random

import pytest

from cellres.complexes import polyhedral_from_incidence, simplicial_from_facets, taylor_complex
from cellres.decompose import decompose_brute, decompose_scarf, primary_grouping
from cellres.errors import LabelMismatchError, NotResolutionError, PreconditionError
from cellres.monomial import IrreducibleIdeal, unit_ideal
from cellres.residue import (
    NONZERO,
    UNKNOWN,
    ZERO,
    annihilator_bounds,
    classify,
    duality_check,
    residue_current,
)
from cellres.resolution import build_complex
from cellres.scarf import scarf_complex
from conftest import (
    count_calls,
    five_gen_nongeneric,
    hull_specs,
    mk,
    random_generic_ideal,
    random_ideal,
    random_staircase,
    three_gen_nonartinian,
    xy_square,
)


def classified(M, X):
    return classify(residue_current(build_complex(X, M)))


def by_tau(current):
    return {tuple(sorted(e.tau)): e for e in current.entries}


def test_three_gen_entries_and_verdict():
    M = three_gen_nonartinian()
    R = classified(M, scarf_complex(M))
    got = {(tuple(sorted(e.K)), tuple(sorted(e.tau))): (e.annihilator.exponent.exps, e.status)
           for e in R.entries}
    # canonical generator order: 0=z1*z2^2, 1=z1^2*z2, 2=z1^4
    assert got[((0,), (0,))] == ((1, 0), NONZERO)
    assert got[((0, 1), (0, 1))] == ((2, 2), NONZERO)
    assert got[((0, 1), (1, 2))] == ((4, 1), NONZERO)
    # the other two vertices carry zero entries for the codim-1 prime
    assert got[((0,), (1,))] == ((2, 0), ZERO)
    assert got[((0,), (2,))] == ((4, 0), ZERO)
    report = duality_check(build_complex(scarf_complex(M), M))
    assert report.verdict == "exact"
    assert report.lower == M == report.upper


def test_three_gen_smooth_factor_flags():
    M = three_gen_nonartinian()
    R = classified(M, scarf_complex(M))
    for e in R.entries:
        assert e.has_smooth_factor == (len(e.K) != 2)


def test_five_gen_taylor_classification():
    M = five_gen_nongeneric()
    R = classified(M, taylor_complex(M))
    # only the full prime contributes; carriers are the 3-subsets with
    # all-positive lcm; canonical order 0=z^2,1=yz,2=y^2,3=xy,4=x^2
    entries = by_tau(R)
    assert set(entries) == {
        (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4),
        (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4)}
    assert entries[(1, 2, 3)].status == NONZERO
    assert entries[(1, 2, 3)].rule == "unique-carrier"
    assert entries[(1, 2, 3)].annihilator == IrreducibleIdeal((1, 2, 1))
    for tau in ((0, 2, 3), (0, 2, 4), (1, 2, 4)):
        assert entries[tau].status == ZERO
        assert entries[tau].rule == "not-contained"
    for tau in ((0, 1, 3), (0, 1, 4), (0, 3, 4), (1, 3, 4)):
        assert entries[tau].status == UNKNOWN
        assert entries[tau].rule is None


def test_five_gen_taylor_bounds_consistent():
    M = five_gen_nongeneric()
    report = duality_check(build_complex(taylor_complex(M), M))
    assert report.verdict == "consistent"
    assert report.upper == IrreducibleIdeal((1, 2, 1)).as_ideal()
    assert report.lower.subset_of(M) and M.subset_of(report.upper)


def test_five_gen_hull_all_nonzero_exact():
    M = five_gen_nongeneric()
    hull = polyhedral_from_incidence(M.gens, hull_specs())
    report = duality_check(build_complex(hull, M))
    assert report.verdict == "exact"
    statuses = {(tuple(sorted(e.tau)), e.status, e.rule) for e in report.current.entries}
    assert statuses == {
        ((1, 2, 3), NONZERO, "minimal-resolution"),
        ((0, 1, 3, 4), NONZERO, "minimal-resolution"),
    }


def test_artinian_generic_scarf_all_entries_nonzero():
    rng = random.Random(401)
    for _ in range(15):
        n = rng.randint(1, 3)
        M = random_generic_ideal(rng, n, rng.randint(n, 6), artinian=True)
        R = classified(M, scarf_complex(M))
        assert R.entries
        assert all(e.status == NONZERO for e in R.entries)


def test_generic_scarf_nonzero_set_is_pair_set():
    # non-Artinian generic: every entry still gets decided, and the
    # nonzero ones are exactly the ghosted facet pairs
    from cellres.scarf import scarf_pairs
    rng = random.Random(402)
    for _ in range(15):
        M = random_generic_ideal(rng, rng.randint(1, 3), rng.randint(1, 5))
        R = classified(M, scarf_complex(M))
        assert not R.with_status(UNKNOWN)
        nonzero = {(e.K, e.tau) for e in R.with_status(NONZERO)}
        assert nonzero == {(p.K, p.tau) for p in scarf_pairs(M)}


def test_classification_follows_vertex_labels_not_their_order():
    # a complex may number the generators in any order: each entry keeps the
    # (status, rule) of the face with the same vertex labels
    rng = random.Random(417)
    for _ in range(20):
        M = random_generic_ideal(rng, rng.randint(1, 3), rng.randint(1, 5))
        gens = [g.exps for g in M.gens]
        rules = []
        for labels in (gens, rng.sample(gens, len(gens))):
            R = classified(M, simplicial_from_facets(labels, [range(len(labels))]))
            rules.append({(e.K, frozenset(labels[v] for v in e.tau)): (e.status, e.rule)
                          for e in R.entries})
        assert rules[0] == rules[1], M
    # the Scarf complex of (x^4, x^2*y, x*y^2) with x^4 as vertex 0: x*y^2 carries x
    M = three_gen_nonartinian()
    R = classified(M, simplicial_from_facets([(4, 0), (2, 1), (1, 2)], [(0, 1), (1, 2)]))
    x_entries = {e.tau: e.rule for e in R.entries if e.K == {0} and e.status == NONZERO}
    assert x_entries == {frozenset({2}): "scarf-facet"}


def test_generic_classification_always_completes():
    rng = random.Random(403)
    for _ in range(15):
        M = random_generic_ideal(rng, rng.randint(1, 3), rng.randint(1, 5))
        for X in (scarf_complex(M), taylor_complex(M)):
            R = classified(M, X)
            assert not R.with_status(UNKNOWN)


def test_artinian_minimal_all_facet_entries_nonzero():
    rng = random.Random(405)
    for _ in range(10):
        n = rng.randint(1, 3)
        M = random_generic_ideal(rng, n, rng.randint(n, 6), artinian=True)
        X = scarf_complex(M)
        R = classified(M, X)
        facet_ids = {f.id for f in X.facets()}
        for e in R.entries:
            if e.face_id in facet_ids:
                assert e.status == NONZERO


def test_zero_alpha_entries_never_created():
    M = five_gen_nongeneric()
    R = residue_current(build_complex(taylor_complex(M), M))
    for e in R.entries:
        assert all(e.alpha[i] > 0 for i in e.K)
    # lcm(x^2, xy, y^2) = (2,2,0) has a zero coordinate: no entry
    assert (2, 3, 4) not in by_tau(R)


def test_staircase_entry_annihilators():
    rng = random.Random(407)
    for _ in range(8):
        r = rng.randint(2, 8)
        M, outer = random_staircase(rng, r)
        R = classified(M, scarf_complex(M))
        assert len(R.entries) == r - 1
        assert sorted(e.annihilator.exponent.exps for e in R.entries) == sorted(outer)
        assert all(e.status == NONZERO for e in R.entries)


def test_generic_nonzero_annihilators_equal_scarf_components():
    rng = random.Random(409)
    for _ in range(10):
        M = random_generic_ideal(rng, rng.randint(1, 3), rng.randint(1, 5))
        R = classified(M, taylor_complex(M))
        nonzero_anns = {e.annihilator for e in R.with_status(NONZERO)}
        assert nonzero_anns == set(decompose_scarf(M).components)


def test_bounds_single_generator_one_variable():
    M = mk(1, (4,))
    X = simplicial_from_facets(M.gens, [(0,)])
    report = duality_check(build_complex(X, M))
    assert report.verdict == "exact"
    assert report.lower == M == report.upper


def test_bounds_before_classification():
    M = xy_square()
    R = residue_current(build_complex(scarf_complex(M), M))
    lower, upper = annihilator_bounds(R)
    assert lower.subset_of(M)
    assert upper.is_unit()


def two_loop_bounds(current):
    """The bounds intersected entry by entry, lower and upper each from
    the unit ideal: the reference for annihilator_bounds."""
    lower = upper = unit_ideal(current.resolution.ideal.nvars)
    for e in current.with_status(NONZERO, UNKNOWN):
        lower = lower.intersect(e.annihilator.as_ideal())
    for e in current.with_status(NONZERO):
        upper = upper.intersect(e.annihilator.as_ideal())
    return lower, upper


def test_bounds_equal_the_two_loop_form():
    rng = random.Random(431)
    classified_with_unknown = 0
    for _ in range(30):
        n, r = rng.randint(2, 3), rng.randint(2, 6)
        M = random_ideal(rng, n, r, maxdeg=4)  # some tie, and their Taylor currents keep unknowns
        G = random_generic_ideal(rng, n, r, artinian=rng.random() < 0.5)
        unclassified = residue_current(build_complex(taylor_complex(M), M))
        currents = [classified(M, taylor_complex(M)), classified(G, scarf_complex(G)),
                    classified(G, taylor_complex(G))]
        classified_with_unknown += sum(bool(R.with_status(UNKNOWN)) for R in currents)
        for R in (unclassified, *currents):
            assert annihilator_bounds(R) == two_loop_bounds(R)
    assert classified_with_unknown > 0


def test_monotone_under_adding_faces():
    # enlarging the complex never flips a nonzero face to zero
    rng = random.Random(411)
    for _ in range(10):
        M = random_generic_ideal(rng, rng.randint(2, 3), rng.randint(2, 5))
        small = classified(M, scarf_complex(M))
        big = classified(M, taylor_complex(M))
        nz_small = {(e.K, e.tau) for e in small.with_status(NONZERO)}
        nz_big = {(e.K, e.tau) for e in big.with_status(NONZERO)}
        assert nz_small <= nz_big


def test_zero_rule_soundness():
    for M, X in (
        (five_gen_nongeneric(), taylor_complex(five_gen_nongeneric())),
        (three_gen_nonartinian(), scarf_complex(three_gen_nonartinian())),
    ):
        R = classified(M, X)
        for e in R.with_status(ZERO):
            assert not M.contained_in(e.annihilator)


def test_primary_parts_three_gen():
    M = three_gen_nonartinian()
    R = classified(M, scarf_complex(M))
    groups = R.by_prime()
    assert [sorted(K) for K in groups] == [[0], [0, 1]]
    assert len(groups[frozenset({0})]) == 3
    assert len(groups[frozenset({0, 1})]) == 2
    flattened = [e for es in groups.values() for e in es]
    assert sorted(flattened, key=lambda e: (len(e.K), sorted(e.K), e.face_id)) == list(R.entries)


def test_primary_parts_match_primary_grouping():
    rng = random.Random(413)
    for _ in range(8):
        M = random_generic_ideal(rng, 2, rng.randint(2, 5))
        R = classified(M, scarf_complex(M))
        groups = R.by_prime()
        expected = primary_grouping(decompose_brute(M))
        for K, entries in groups.items():
            acc = None
            for e in entries:
                if e.status != NONZERO:
                    continue
                ideal = e.annihilator.as_ideal()
                acc = ideal if acc is None else acc.intersect(ideal)
            assert acc == expected[K]


def test_artinian_single_group():
    M = five_gen_nongeneric()
    R = classified(M, taylor_complex(M))
    assert list(R.by_prime()) == [frozenset({0, 1, 2})]


def test_nonzero_count_versus_components():
    rng = random.Random(415)
    for _ in range(10):
        n = rng.randint(1, 3)
        M = random_generic_ideal(rng, n, rng.randint(n, 5), artinian=True)
        ncomp = len(decompose_brute(M).components)
        minimal_R = classified(M, scarf_complex(M))
        assert len(minimal_R.with_status(NONZERO)) == ncomp
        taylor_R = classified(M, taylor_complex(M))
        assert not taylor_R.with_status(UNKNOWN)
        assert len(taylor_R.with_status(NONZERO)) >= ncomp


def test_residue_preconditions():
    M = xy_square()
    hollow = simplicial_from_facets(M.gens, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NotResolutionError):
        residue_current(build_complex(hollow, M))
    other = mk(2, (1, 0), (0, 1))
    with pytest.raises(LabelMismatchError):
        build_complex(taylor_complex(other), M)


def test_classify_reads_minimality_from_the_current(monkeypatch):
    import cellres.resolution

    rng = random.Random(417)
    M5 = five_gen_nongeneric()
    hull = polyhedral_from_incidence(M5.gens, hull_specs())
    cases = [(M5, hull), (M5, taylor_complex(M5))]
    cases += [(M, scarf_complex(M)) for M in
              (random_generic_ideal(rng, 3, 7, artinian=True) for _ in range(5))]
    for M, X in cases:
        current = residue_current(build_complex(X, M))
        calls = count_calls(monkeypatch, cellres.resolution, "build_complex")
        R = classify(current)
        monkeypatch.undo()
        assert calls == []
        # generic entries are decided by the Scarf rule first; Taylor is not minimal
        assert any(e.rule == "minimal-resolution" for e in R.entries) == (X is hull)


def test_duality_check_decomposes_once(monkeypatch):
    import cellres.decompose

    calls = count_calls(monkeypatch, cellres.decompose, "decompose_brute")
    for M in (three_gen_nonartinian(), five_gen_nongeneric()):
        F = build_complex(scarf_complex(M) if M.is_generic() else taylor_complex(M), M)
        calls.clear()
        report = duality_check(F)
        assert calls == [(M,)]
        dec = decompose_brute(M)
        calls.clear()
        given = duality_check(F, dec)
        assert calls == []
        assert given == report
        assert set(report.current.components) == set(dec.components)


def test_residue_refuses_a_decomposition_of_another_ideal():
    M, other = three_gen_nonartinian(), five_gen_nongeneric()
    F = build_complex(scarf_complex(M), M)
    for dec in (decompose_brute(other), decompose_brute(mk(M.nvars, *(g.exps for g in M.gens[1:])))):
        with pytest.raises(PreconditionError):
            residue_current(F, dec)
        with pytest.raises(PreconditionError):
            duality_check(F, dec)
