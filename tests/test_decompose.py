import itertools
import random

import pytest

from cellres.complexes import polyhedral_from_incidence, simplicial_from_facets, taylor_complex
from cellres.decompose import (
    Decomposition,
    associated_primes,
    decompose_brute,
    decompose_minimal,
    decompose_scarf,
    primary_grouping,
)
from cellres.errors import (
    CapExceededError,
    NotArtinianError,
    NotGenericError,
    NotMinimalError,
    VerificationError,
)
from cellres.monomial import IrreducibleIdeal, Monomial, MonomialIdeal
from cellres.resolution import build_complex
from cellres.scarf import scarf_complex
from conftest import (
    five_gen_nongeneric,
    hull_specs,
    mk,
    random_generic_ideal,
    random_ideal,
    random_staircase,
    three_gen_nonartinian,
    xy_square,
)


def exps(dec):
    return [c.exponent.exps for c in dec.components]


def test_scarf_three_gen_example():
    dec = decompose_scarf(three_gen_nonartinian())
    assert exps(dec) == [(1, 0), (2, 2), (4, 1)]
    assert dec.method == "scarf"
    assert dec.is_irredundant()


def test_scarf_staircase_outer_corners():
    rng = random.Random(301)
    for _ in range(10):
        r = rng.randint(2, 8)
        M, outer = random_staircase(rng, r)
        assert exps(decompose_scarf(M)) == sorted(outer)


def test_scarf_xy_square():
    assert exps(decompose_scarf(xy_square())) == [(1, 2), (2, 1)]


def test_scarf_refuses_nongeneric():
    with pytest.raises(NotGenericError):
        decompose_scarf(five_gen_nongeneric())


def test_minimal_on_hull_complex():
    M = five_gen_nongeneric()
    hull = polyhedral_from_incidence(M.gens, hull_specs())
    dec = decompose_minimal(build_complex(hull, M))
    assert exps(dec) == [(1, 2, 1), (2, 1, 2)]


def test_minimal_single_generator_one_variable():
    M = mk(1, (4,))
    X = simplicial_from_facets(M.gens, [(0,)])
    assert exps(decompose_minimal(build_complex(X, M))) == [(4,)]


def test_minimal_rejects_non_artinian():
    M = three_gen_nonartinian()
    with pytest.raises(NotArtinianError):
        decompose_minimal(build_complex(scarf_complex(M), M))


def test_minimal_rejects_non_minimal_complex():
    M = xy_square()
    with pytest.raises(NotMinimalError):
        decompose_minimal(build_complex(taylor_complex(M), M))


def test_minimal_agrees_with_scarf_on_artinian_generic():
    rng = random.Random(303)
    for _ in range(10):
        n = rng.randint(1, 3)
        M = random_generic_ideal(rng, n, rng.randint(n, 6), artinian=True)
        a = decompose_scarf(M)
        b = decompose_minimal(build_complex(scarf_complex(M), M))
        assert set(a.components) == set(b.components)


def test_brute_five_gen():
    assert exps(decompose_brute(five_gen_nongeneric())) == [(1, 2, 1), (2, 1, 2)]


def test_brute_irreducible_is_its_own_decomposition():
    assert exps(decompose_brute(IrreducibleIdeal((2, 0, 3)).as_ideal())) == [(2, 0, 3)]


def test_brute_principal_splits_by_variable():
    assert exps(decompose_brute(mk(2, (3, 2)))) == [(0, 2), (3, 0)]


def test_brute_candidate_cap():
    # seven cyclic shifts in seven variables: every variable sees seven
    # distinct positive degrees, so the candidate grid has 8^7 points
    n = 7
    gens = [tuple((i + k) % n + 1 for i in range(n)) for k in range(n)]
    M = MonomialIdeal(n, [Monomial(g) for g in gens])
    with pytest.raises(CapExceededError):
        decompose_brute(M)


def test_decomposition_invariants():
    for M in (five_gen_nongeneric(), three_gen_nonartinian(), xy_square()):
        dec = decompose_brute(M)
        assert dec.intersection() == M
        assert dec.is_irredundant()
        dec.verify()


def test_dropping_any_component_detected():
    dec = decompose_brute(five_gen_nongeneric())
    short = Decomposition(dec.ideal, dec.components[:-1], dec.method)
    assert not short.is_irredundant()


def test_scarf_equals_brute_on_generic():
    rng = random.Random(307)
    for _ in range(20):
        M = random_generic_ideal(rng, rng.randint(1, 4), rng.randint(1, 6))
        assert set(decompose_scarf(M).components) == set(decompose_brute(M).components)


def test_associated_primes_examples():
    assert associated_primes(three_gen_nonartinian()) == {frozenset({0}), frozenset({0, 1})}
    assert associated_primes(five_gen_nongeneric()) == {frozenset({0, 1, 2})}
    assert associated_primes(mk(2, (1, 1))) == {frozenset({0}), frozenset({1})}


def test_artinian_primes_are_full():
    rng = random.Random(311)
    for _ in range(10):
        n = rng.randint(1, 3)
        M = random_generic_ideal(rng, n, rng.randint(n, 6), artinian=True)
        assert associated_primes(M) == {frozenset(range(n))}


def test_primary_grouping_three_gen():
    M = three_gen_nonartinian()
    groups = primary_grouping(decompose_brute(M))
    assert set(groups) == {frozenset({0}), frozenset({0, 1})}
    assert [g.exps for g in groups[frozenset({0})].gens] == [(1, 0)]
    # (z1^4, z2) meet (z1^2, z2^2)
    assert [g.exps for g in groups[frozenset({0, 1})].gens] == [(0, 2), (2, 1), (4, 0)]


def test_primary_grouping_artinian_single_group():
    M = five_gen_nongeneric()
    groups = primary_grouping(decompose_brute(M))
    assert list(groups) == [frozenset({0, 1, 2})]
    assert groups[frozenset({0, 1, 2})] == M


def test_primary_grouping_distinct_supports():
    M = mk(2, (1, 1))
    groups = primary_grouping(decompose_brute(M))
    assert {K: [g.exps for g in I.gens] for K, I in groups.items()} == {
        frozenset({0}): [(1, 0)], frozenset({1}): [(0, 1)]}


def test_component_count_bounded_by_top_faces():
    # a resolution of an Artinian ideal cannot have fewer faces of
    # dimension n-1 (the entry carriers) than irreducible components
    rng = random.Random(313)
    for _ in range(10):
        n = rng.randint(1, 3)
        M = random_generic_ideal(rng, n, rng.randint(n, 5), artinian=True)
        ncomp = len(decompose_brute(M).components)
        for X in (taylor_complex(M), scarf_complex(M)):
            carriers = [f for f in X.grade(n) if all(f.label.exps)]
            assert ncomp <= len(carriers)


# Test-side oracles: the earlier production code, kept as references.
# They work on plain exponent tuples and use nothing from cellres but
# the ideals they are handed.

def naive_meet(nvars, ideals):
    """Generators of an intersection: pairwise lcms, then all-pairs
    divisibility minimalization; the empty intersection is the unit ideal."""
    acc = [(0,) * nvars]
    for gens in ideals:
        lcms = {tuple(max(a, b) for a, b in zip(g, h)) for g in acc for h in gens}
        acc = sorted(e for e in lcms
                     if not any(f != e and all(x <= y for x, y in zip(f, e)) for f in lcms))
    return acc


def irreducible_gens(b):
    """Generators z_i^{b_i} of the irreducible ideal with exponent b."""
    return [tuple(bi if j == i else 0 for j in range(len(b))) for i, bi in enumerate(b) if bi > 0]


def oracle_is_irredundant(dec):
    """Leave-one-out: the components meet to the ideal, and no proper
    subfamily does."""
    n = dec.ideal.nvars
    target = [g.exps for g in dec.ideal.gens]
    comps = [irreducible_gens(c.exponent.exps) for c in dec.components]
    if naive_meet(n, comps) != target:
        return False
    return all(naive_meet(n, comps[:i] + comps[i + 1:]) != target for i in range(len(comps)))


def oracle_components(M):
    """Candidate scan, O(C^2) inclusion-minimal filter, leave-one-out pass."""
    n = M.nvars
    gens = [g.exps for g in M.gens]
    value_sets = [sorted({0} | {g[i] for g in gens if g[i] > 0}) for i in range(n)]
    containing = [b for b in itertools.product(*value_sets)
                  if any(b) and all(any(bv and gv >= bv for gv, bv in zip(g, b)) for g in gens)]

    def inside(c, b):
        return all(not cv or (bv and cv >= bv) for cv, bv in zip(c, b))

    kept = sorted(b for b in containing if not any(c != b and inside(c, b) for c in containing))
    for c in list(kept):
        rest = [o for o in kept if o != c]
        if naive_meet(n, [irreducible_gens(o) for o in rest]) == gens:
            kept = rest
    return kept


def oracle_family(seed, count):
    """Seeded ideals with n <= 4 and up to 10 generators: generic,
    non-generic, non-Artinian and one-variable cases."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        kind = k % 4
        if kind == 0:
            n = rng.randint(2, 4)
            out.append(random_generic_ideal(rng, n, rng.randint(n, 10), artinian=rng.random() < 0.5))
        elif kind == 1:
            n = rng.randint(2, 4)
            out.append(random_ideal(rng, n, rng.randint(2, 10), maxdeg=4))
        elif kind == 2:
            # no pure power of the last variable: never Artinian
            n = rng.randint(2, 4)
            gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 10))]
            gens = [g for g in gens if any(g[:-1])] or [(1,) + (0,) * (n - 1)]
            out.append(mk(n, *gens))
        else:
            out.append(mk(1, *[(rng.randint(1, 9),) for _ in range(rng.randint(1, 10))]))
    return out


def test_brute_matches_oracle_decomposition():
    family = oracle_family(331, 300)
    assert {M.nvars for M in family} == {1, 2, 3, 4}
    assert any(not M.is_generic() for M in family)
    assert any(not M.is_artinian() for M in family)
    for M in family:
        assert exps(decompose_brute(M)) == oracle_components(M), M


def _planted(dec, rng):
    """Variants of a true decomposition, each with its expected verdict."""
    comps = list(dec.components)
    n = dec.ideal.nvars
    c = rng.choice(comps)
    b = list(c.exponent.exps)
    i = rng.randrange(n)
    # a larger ideal than c, nested around it: add variable i or lower its exponent
    b[i] = 1 if b[i] <= 1 else b[i] - 1
    larger = IrreducibleIdeal(b)
    variants = [(comps, True), (comps + [c], False), (comps[1:], False)]
    if larger != c:
        variants.append((comps + [larger], False))
        variants.append(([larger] + comps, False))
    return [(Decomposition(dec.ideal, tuple(cs), dec.method), ok) for cs, ok in variants]


def test_is_irredundant_matches_leave_one_out():
    rng = random.Random(337)
    seen = 0
    for M in oracle_family(337, 80):
        for dec, expected in _planted(decompose_brute(M), rng):
            assert dec.is_irredundant() == oracle_is_irredundant(dec) == expected, dec
            if not expected:
                with pytest.raises(VerificationError):
                    dec.verify()
            seen += 1
    assert seen >= 300


def test_intersect_matches_pairwise_lcm_oracle():
    rng = random.Random(347)
    for _ in range(200):
        n = rng.randint(1, 4)
        A, B = (random_ideal(rng, n, rng.randint(1, 8), maxdeg=5) for _ in range(2))
        got = [g.exps for g in A.intersect(B).gens]
        assert got == naive_meet(n, [[g.exps for g in A.gens], [g.exps for g in B.gens]])
        assert A.intersect(B) == B.intersect(A)
        raw = [g.exps for g in A.gens + B.gens]
        assert [g.exps for g in MonomialIdeal.from_generators(n, raw).gens] == \
            naive_meet(n, [raw])
    zero = MonomialIdeal(2, ())
    assert mk(2, (1, 0)).intersect(zero).is_zero() and zero.intersect(zero).is_zero()
