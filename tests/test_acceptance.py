"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS/FAIL line (visible under ``pytest -s`` or
``-v`` with output capture disabled) and then asserts.
"""

import itertools
import random

from cellres.complexes import (
    polyhedral_from_incidence,
    reduced_homology_ranks,
    simplicial_from_facets,
    taylor_complex,
)
from cellres.decompose import decompose_brute, decompose_minimal, decompose_scarf
from cellres.monomial import Monomial
from cellres.residue import (
    NONZERO,
    UNKNOWN,
    annihilator_bounds,
    classify,
    duality_check,
    residue_current,
)
from cellres.resolution import build_complex, differential, is_resolution, verify_chain
from cellres.scarf import scarf_complex, scarf_pairs
from conftest import (
    five_gen_nongeneric,
    ghosted_pairs,
    hull_specs,
    random_generic_ideal,
    random_ideal,
    random_staircase,
    three_gen_nonartinian,
)


def _report(num, ok, label):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_01_five_generator_example():
    M = five_gen_nongeneric()
    pos = {g.exps: i for i, g in enumerate(M.gens)}
    # generators in the order x^2, xy, y^2, yz, z^2
    g = [pos[(2, 0, 0)], pos[(1, 1, 0)], pos[(0, 2, 0)], pos[(0, 1, 1)], pos[(0, 0, 2)]]
    expected_facets = {
        frozenset({g[1], g[2], g[3]}),
        frozenset({g[0], g[1]}),
        frozenset({g[0], g[4]}),
        frozenset({g[3], g[4]}),
    }
    facets = {frozenset(f.vertices) for f in scarf_complex(M).facets()}
    components = {c.exponent.exps for c in decompose_brute(M).components}
    ok = facets == expected_facets and components == {(1, 2, 1), (2, 1, 2)}
    _report(1, ok, "5-generator example: Scarf facets and brute-force decomposition")


def test_criterion_02_ghosted_example():
    M = three_gen_nonartinian()
    pos = {g.exps: i for i, g in enumerate(M.gens)}
    # generators in the order z1^4, z1^2 z2, z1 z2^2
    g = [pos[(4, 0)], pos[(2, 1)], pos[(1, 2)]]
    pairs = {(tuple(sorted(p.K)), tuple(sorted(p.tau))) for p in scarf_pairs(M)}
    expected_pairs = {
        ((0, 1), tuple(sorted((g[0], g[1])))),
        ((0, 1), tuple(sorted((g[1], g[2])))),
        ((0,), (g[2],)),
    }
    from cellres.decompose import associated_primes
    primes = associated_primes(M)
    dec = {c.exponent.exps for c in decompose_scarf(M).components}
    report = duality_check(build_complex(scarf_complex(M), M))
    nonzero = {(tuple(sorted(e.K)), tuple(sorted(e.tau)), e.annihilator.exponent.exps)
               for e in report.current.with_status(NONZERO)}
    expected_entries = {
        ((0,), (g[2],), (1, 0)),
        ((0, 1), tuple(sorted((g[0], g[1]))), (4, 1)),
        ((0, 1), tuple(sorted((g[1], g[2]))), (2, 2)),
    }
    ok = (pairs == expected_pairs
          and primes == {frozenset({0}), frozenset({0, 1})}
          and dec == {(1, 0), (4, 1), (2, 2)}
          and nonzero == expected_entries
          and report.verdict == "exact")
    _report(2, ok, "ghosted example: pairs, primes, decomposition, residue, duality")


def test_criterion_03_staircase_family():
    rng = random.Random(1003)
    ok = True
    for _ in range(50):
        r = rng.randint(2, 10)
        M, outer = random_staircase(rng, r)
        dec = decompose_scarf(M)
        ok = ok and [c.exponent.exps for c in dec.components] == sorted(outer)
        X = scarf_complex(M)
        F = build_complex(X, M)
        from cellres.resolution import betti_ranks
        ok = ok and betti_ranks(F) == [1, r, r - 1]
        R = classify(residue_current(build_complex(X, M)))
        ok = ok and len(R.entries) == r - 1
        ok = ok and sorted(e.annihilator.exponent.exps for e in R.entries) == sorted(outer)
        if not ok:
            break
    _report(3, ok, "50 random staircases: outer corners, ranks [1, r, r-1], r-1 entries")


def test_criterion_04_taylor_exactness():
    rng = random.Random(1004)
    ok = True
    for _ in range(100):
        M = random_ideal(rng, rng.randint(1, 4), rng.randint(1, 6), maxdeg=6)
        X = taylor_complex(M)
        if not (is_resolution(X) and verify_chain(build_complex(X, M))):
            ok = False
            break
    _report(4, ok, "100 random ideals: Taylor complex is an exact chain complex")


def _generic_family(seed, count):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(1, 4)
        r = rng.randint(1, 6)
        artinian = i % 2 == 0 and r >= n
        out.append(random_generic_ideal(rng, n, r, artinian=artinian))
    return out


def test_criterion_05_oracle_equivalence():
    ok = True
    for M in _generic_family(1005, 100):
        scarf = decompose_scarf(M)
        brute = decompose_brute(M)
        scarf.verify()
        brute.verify()
        if set(scarf.components) != set(brute.components):
            ok = False
            break
        if M.is_artinian():
            minimal = decompose_minimal(build_complex(scarf_complex(M), M))
            if set(minimal.components) != set(brute.components):
                ok = False
                break
    _report(5, ok, "100 random generic ideals: scarf = brute (= minimal when Artinian)")


def test_criterion_06_duality_on_generic():
    ok = True
    for M in _generic_family(1006, 100):
        R = classify(residue_current(build_complex(scarf_complex(M), M)))
        lower, upper = annihilator_bounds(R)
        if not (lower == M == upper):
            ok = False
            break
        bounds = [d + 1 for d in M.max_degrees()]
        for exps in itertools.product(*(range(b + 1) for b in bounds)):
            m = Monomial(exps)
            inside = m in M
            if (m in lower) != inside or (m in upper) != inside:
                ok = False
                break
        if not ok:
            break
    _report(6, ok, "100 generic ideals: annihilator bounds equal the ideal (box-verified)")


def test_criterion_07_scarf_structure():
    rng = random.Random(1007)
    ok = True
    for _ in range(40):
        n = rng.randint(1, 4)
        M = random_ideal(rng, n, rng.randint(1, 6), maxdeg=6)
        if scarf_complex(M).dim > n - 1:
            ok = False
            break
    for _ in range(20):
        n = rng.randint(1, 3)
        M = random_generic_ideal(rng, n, rng.randint(n, 6), artinian=True)
        if not all(len(f.vertices) == n for f in scarf_complex(M).facets()):
            ok = False
            break
        top = max(M.max_degrees())
        first = {p.key() for p in ghosted_pairs(M, top + 1)}
        second = {p.key() for p in ghosted_pairs(M, top + 5)}
        if first != second:
            ok = False
            break
    for _ in range(20):
        M = random_generic_ideal(rng, rng.randint(1, 3), rng.randint(1, 5))
        top = max(M.max_degrees())
        if {p.key() for p in ghosted_pairs(M, top + 1)} != \
           {p.key() for p in ghosted_pairs(M, top + 7)}:
            ok = False
            break
    _report(7, ok, "Scarf dimension bound, Artinian facet size, ghost-exponent invariance")


def test_criterion_08_minimality_equivalences():
    rng = random.Random(1008)
    ok = True
    for _ in range(100):
        M = random_ideal(rng, rng.randint(1, 3), rng.randint(1, 5), maxdeg=5)
        X = taylor_complex(M) if rng.random() < 0.5 else scarf_complex(M)
        F = build_complex(X, M)
        by_entries = F.minimal
        by_labels = all(X.faces[sid].label != f.label
                        for f in X.faces for sid in f.boundary)
        by_units = not any(not any(quotient) for k in range(1, X.num_grades)
                           for *_, quotient in differential(F, k))
        if not (by_entries == by_labels == by_units):
            ok = False
            break
    from conftest import xy_square
    M = xy_square()
    ok = ok and not build_complex(taylor_complex(M), M).minimal
    ok = ok and build_complex(scarf_complex(M), M).minimal
    _report(8, ok, "minimality = no unit entries = no equal incident labels (100 complexes)")


def test_criterion_09_homology_sanity():
    ok = True
    for d in (1, 2, 3):
        vs = tuple(range(d + 1))
        labels = [Monomial(tuple(int(i == j) for j in range(d + 1))) for i in vs]
        X = simplicial_from_facets(labels, list(itertools.combinations(vs, d)))
        expected = [0] * d + [1]
        if reduced_homology_ranks(X) != expected:
            ok = False
    rng = random.Random(1009)
    for _ in range(20):
        nv = rng.randint(2, 6)
        labels = [Monomial(tuple(int(i == j) for j in range(nv))) for i in range(nv)]
        facets = [(0, *rng.sample(range(1, nv), rng.randint(1, nv - 1)))
                  for _ in range(rng.randint(1, 4))]
        cone = simplicial_from_facets(labels, facets)
        if any(reduced_homology_ranks(cone)):
            ok = False
            break
    _report(9, ok, "spheres have one top homology class; cones are acyclic")


def test_criterion_10_nonzero_lower_bound():
    rng = random.Random(1010)
    ok = True
    for _ in range(25):
        n = rng.randint(1, 3)
        M = random_generic_ideal(rng, n, rng.randint(n, 6), artinian=True)
        ncomp = len(decompose_brute(M).components)
        scarf_R = classify(residue_current(build_complex(scarf_complex(M), M)))
        taylor_R = classify(residue_current(build_complex(taylor_complex(M), M)))
        if scarf_R.with_status(UNKNOWN) or taylor_R.with_status(UNKNOWN):
            ok = False
            break
        if len(scarf_R.with_status(NONZERO)) != ncomp:
            ok = False
            break
        if len(taylor_R.with_status(NONZERO)) < ncomp:
            ok = False
            break
    M5 = five_gen_nongeneric()
    hull = polyhedral_from_incidence(M5.gens, hull_specs())
    R = classify(residue_current(build_complex(hull, M5)))
    ok = ok and not R.with_status(UNKNOWN)
    ok = ok and len(R.with_status(NONZERO)) == len(decompose_brute(M5).components)
    _report(10, ok, "completed classifications: nonzero count >= components, = when minimal")
