import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellres.errors import DimensionMismatch, ZeroIdealError
from cellres.monomial import (
    IrreducibleIdeal,
    Monomial,
    MonomialIdeal,
    lcm,
    lcm_many,
)
from conftest import five_gen_nongeneric, ideals_equal_on_box, mk, random_ideal, three_gen_nonartinian


def naive_minimalize(exps_list):
    """Oracle: quadratic pairwise divisibility scan."""
    unique = sorted(set(exps_list))
    out = []
    for e in unique:
        dominated = any(f != e and all(a <= b for a, b in zip(f, e)) for f in unique)
        if not dominated:
            out.append(e)
    return out


def test_lcm_examples():
    assert lcm(Monomial((2, 1, 0)), Monomial((0, 1, 3))).exps == (2, 1, 3)
    m = Monomial((3, 0, 7))
    assert lcm(m, Monomial((0, 0, 0))) == m
    # labels of the 5-generator example: lcm(x^2, x*y) = x^2*y
    assert lcm(Monomial((2, 0, 0)), Monomial((1, 1, 0))).exps == (2, 1, 0)
    with pytest.raises(DimensionMismatch):
        lcm(Monomial((1,)), Monomial((1, 2)))


def test_divides_examples():
    assert Monomial((1, 0)).divides(Monomial((1, 1)))
    assert not Monomial((2, 0)).divides(Monomial((1, 1)))
    assert Monomial((0, 0)).divides(Monomial((5, 3)))
    with pytest.raises(DimensionMismatch):
        Monomial((1,)).divides(Monomial((1, 2)))


def test_strictly_divides_examples():
    assert Monomial((0, 1)).strictly_divides(Monomial((2, 2)))
    assert not Monomial((1, 0)).strictly_divides(Monomial((1, 1)))
    assert Monomial((0, 0)).strictly_divides(Monomial((3, 1)))
    # no variable divides 1, so the condition is vacuous
    assert Monomial((1, 0)).strictly_divides(Monomial((0, 0)))


def test_strictly_divides_matches_definition():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 3)
        a = Monomial(tuple(rng.randint(0, 3) for _ in range(n)))
        b = Monomial(tuple(rng.randint(0, 3) for _ in range(n)))
        expected = all(
            a.divides(Monomial(tuple(e - (j == i) for j, e in enumerate(b.exps))))
            for i in range(n) if b.exps[i] > 0
        )
        assert a.strictly_divides(b) == expected


def minimalize(gens):
    return MonomialIdeal.from_generators(len(gens[0].exps), gens).gens


def test_minimalize_examples():
    # frozen from the pairwise-divisibility oracle
    got = minimalize([Monomial(e) for e in [(2, 0), (2, 2), (1, 1), (0, 2)]])
    assert [g.exps for g in got] == [(0, 2), (1, 1), (2, 0)]
    assert naive_minimalize([(2, 0), (2, 2), (1, 1), (0, 2)]) == [(0, 2), (1, 1), (2, 0)]
    assert [g.exps for g in minimalize([Monomial((3, 1))])] == [(3, 1)]
    assert [g.exps for g in minimalize([Monomial((1,)), Monomial((2,))])] == [(1,)]


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
                min_size=1, max_size=8))
def test_minimalize_matches_oracle_idempotent_order_free(exps):
    ms = [Monomial(e) for e in exps]
    got = minimalize(ms)
    assert [g.exps for g in got] == naive_minimalize(exps)
    assert minimalize(got) == got
    assert minimalize(ms[::-1]) == got


def test_member_examples():
    M = mk(2, (2, 0), (1, 1), (0, 2))
    assert Monomial((1, 1)) in M
    assert Monomial((1, 0)) not in M
    assert Monomial((3, 1)) in M


def test_intersect_five_gen_decomposition():
    # the 5-generator example arises as (x, y^2, z) meet (x^2, y, z^2)
    A = mk(3, (1, 0, 0), (0, 2, 0), (0, 0, 1))
    B = mk(3, (2, 0, 0), (0, 1, 0), (0, 0, 2))
    assert A.intersect(B) == five_gen_nongeneric()


def test_intersect_three_components():
    A = mk(2, (1, 0))
    B = mk(2, (4, 0), (0, 1))
    C = mk(2, (2, 0), (0, 2))
    assert A.intersect(B).intersect(C) == three_gen_nonartinian()


def test_intersect_self():
    M = five_gen_nongeneric()
    assert M.intersect(M) == M


def test_intersect_agrees_with_membership_on_box():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 3)
        A = random_ideal(rng, n, rng.randint(1, 4), maxdeg=3)
        B = random_ideal(rng, n, rng.randint(1, 4), maxdeg=3)
        C = A.intersect(B)
        for exps in _box(n, 4):
            m = Monomial(exps)
            assert (m in C) == ((m in A) and (m in B))
        assert B.intersect(A) == C


def _box(n, top):
    import itertools
    return itertools.product(range(top + 1), repeat=n)


def test_intersect_associative():
    rng = random.Random(13)
    for _ in range(10):
        A = random_ideal(rng, 2, 3, maxdeg=4)
        B = random_ideal(rng, 2, 3, maxdeg=4)
        C = random_ideal(rng, 2, 3, maxdeg=4)
        assert A.intersect(B).intersect(C) == A.intersect(B.intersect(C))


def test_is_artinian():
    assert mk(2, (2, 0), (1, 1), (0, 2)).is_artinian()
    assert not three_gen_nonartinian().is_artinian()
    assert mk(1, (1,)).is_artinian()


def test_is_generic():
    assert not five_gen_nongeneric().is_generic()
    assert three_gen_nonartinian().is_generic()
    rng = random.Random(17)
    for _ in range(30):
        assert random_ideal(rng, 2, 4, maxdeg=5).is_generic()


def test_is_strongly_generic():
    assert mk(2, (2, 0), (1, 1), (0, 2)).is_strongly_generic()
    # xy and yz share degree 1 in y
    assert not five_gen_nongeneric().is_strongly_generic()
    assert mk(3, (1, 2, 3)).is_strongly_generic()


def test_strongly_generic_implies_generic():
    rng = random.Random(19)
    for _ in range(60):
        M = random_ideal(rng, rng.randint(1, 3), rng.randint(1, 5), maxdeg=6)
        if M.is_strongly_generic():
            assert M.is_generic()


def test_contained_in_irreducible():
    M = five_gen_nongeneric()
    assert M.contained_in(IrreducibleIdeal((1, 2, 1)))
    assert not M.contained_in(IrreducibleIdeal((3, 0, 0)))
    assert not M.contained_in(IrreducibleIdeal((0, 0, 0)))


def test_irreducible_ideal_basics():
    irr = IrreducibleIdeal((2, 0, 1))
    assert irr.support == (0, 2)
    assert irr.as_ideal() == mk(3, (2, 0, 0), (0, 0, 1))
    assert irr.contains(IrreducibleIdeal((3, 0, 1)))
    # y generates nothing inside (x^2, z)
    assert not irr.contains(IrreducibleIdeal((3, 1, 1)))
    assert not irr.contains(IrreducibleIdeal((1, 0, 1)))
    assert not IrreducibleIdeal((1, 0)).contains(IrreducibleIdeal((1, 1)))


def test_ideal_constructor_contracts():
    with pytest.raises(ValueError):
        MonomialIdeal(1, [Monomial((1,)), Monomial((2,))])
    with pytest.raises(DimensionMismatch):
        MonomialIdeal(2, [Monomial((1,))])
    with pytest.raises(ValueError):
        Monomial((-1, 0))
    Z = MonomialIdeal(2, [])
    assert Z.is_zero()
    with pytest.raises(ZeroIdealError):
        Z.is_artinian()
    with pytest.raises(ZeroIdealError):
        Z.max_degrees()


@pytest.mark.parametrize("bad", [1.5, True, False, 2.0, "1", None])
def test_exponents_must_be_ints(bad):
    # int() would truncate a float and read a bool as 0 or 1
    with pytest.raises(TypeError):
        Monomial((bad, 1))
    with pytest.raises(TypeError):
        MonomialIdeal.from_generators(2, [(bad, 0), (0, 2)])
    with pytest.raises(ValueError):
        Monomial((1, -1))
    assert Monomial((0, 3)).exps == (0, 3)


def test_canonical_generator_order():
    M = mk(2, (4, 0), (1, 2), (2, 1))
    assert [g.exps for g in M.gens] == [(1, 2), (2, 1), (4, 0)]


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=5))
def test_from_generators_box_equivalence(exps):
    if not any(any(e) for e in exps):
        return
    M = MonomialIdeal.from_generators(2, [e for e in exps if any(e)])
    raw = [Monomial(e) for e in exps if any(e)]
    for k in _box(2, 6):
        m = Monomial(k)
        assert (m in M) == any(g.divides(m) for g in raw)


def test_lcm_many_and_box_helper():
    assert lcm_many([Monomial((1, 0)), Monomial((0, 2))], 2).exps == (1, 2)
    assert lcm_many([], 3).exps == (0, 0, 0)
    A = mk(2, (2, 0), (0, 2))
    B = mk(2, (1, 1))
    assert ideals_equal_on_box(A.intersect(B), B.intersect(A))
