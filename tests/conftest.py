"""Shared example ideals, complexes, and random generators."""

import itertools

from cellres.monomial import Monomial, MonomialIdeal


def mk(nvars, *exps):
    return MonomialIdeal.from_generators(nvars, exps)


# (x^2, xy, y^2, yz, z^2): Artinian, not generic; canonical generator
# order is 0=z^2, 1=yz, 2=y^2, 3=xy, 4=x^2.
def five_gen_nongeneric():
    return mk(3, (2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1), (0, 0, 2))


# (z1^4, z1^2 z2, z1 z2^2): generic, not Artinian; canonical order is
# 0=z1*z2^2, 1=z1^2*z2, 2=z1^4.
def three_gen_nonartinian():
    return mk(2, (4, 0), (2, 1), (1, 2))


def xy_square():
    return mk(2, (2, 0), (1, 1), (0, 2))


def hull_specs():
    """Signed face lattice of the triangle {1,2,3} + quadrilateral
    {0,1,3,4} complex that minimally resolves five_gen_nongeneric()."""
    return [
        {"id": "v0", "dim": 0, "vertex": 0},
        {"id": "v1", "dim": 0, "vertex": 1},
        {"id": "v2", "dim": 0, "vertex": 2},
        {"id": "v3", "dim": 0, "vertex": 3},
        {"id": "v4", "dim": 0, "vertex": 4},
        {"id": "e01", "dim": 1, "boundary": [["v0", -1], ["v1", 1]]},
        {"id": "e04", "dim": 1, "boundary": [["v0", -1], ["v4", 1]]},
        {"id": "e12", "dim": 1, "boundary": [["v1", -1], ["v2", 1]]},
        {"id": "e13", "dim": 1, "boundary": [["v1", -1], ["v3", 1]]},
        {"id": "e23", "dim": 1, "boundary": [["v2", -1], ["v3", 1]]},
        {"id": "e34", "dim": 1, "boundary": [["v3", -1], ["v4", 1]]},
        {"id": "T", "dim": 2, "boundary": [["e23", 1], ["e13", -1], ["e12", 1]]},
        {"id": "Q", "dim": 2, "boundary": [["e01", 1], ["e13", 1], ["e34", 1], ["e04", -1]]},
    ]


def box_monomials(M, pad=1):
    """Every monomial with exponents up to the generator maxima plus pad."""
    bounds = [d + pad for d in M.max_degrees()]
    for exps in itertools.product(*(range(b + 1) for b in bounds)):
        yield Monomial(exps)


def ideals_equal_on_box(A, B, pad=1):
    ref = A if A.num_gens else B
    bounds = [d + pad for d in ref.max_degrees()]
    for exps in itertools.product(*(range(b + 1) for b in bounds)):
        m = Monomial(exps)
        if (m in A) != (m in B):
            return False
    return True


def random_ideal(rng, n, r, maxdeg=6):
    """Random nonzero, non-unit monomial ideal with at most r generators."""
    while True:
        gens = []
        for _ in range(r):
            e = tuple(rng.randint(0, maxdeg) for _ in range(n))
            if any(e):
                gens.append(e)
        if not gens:
            continue
        M = MonomialIdeal.from_generators(n, gens)
        if not M.is_zero() and not M.is_unit():
            return M


def random_generic_ideal(rng, n, r, maxdeg=6, artinian=False):
    """Random generic ideal: within each variable the positive degrees are
    pairwise distinct, which makes the ideal strongly generic."""
    while True:
        rows = r
        if artinian:
            rows = max(0, r - n)
        cols = []
        for _ in range(n):
            k = rng.randint(0, min(rows, maxdeg))
            col = rng.sample(range(1, maxdeg + 1), k) + [0] * (rows - k)
            rng.shuffle(col)
            cols.append(col)
        gens = [tuple(cols[i][j] for i in range(n)) for j in range(rows)]
        gens = [e for e in gens if any(e)]
        if artinian:
            used = [set(c) for c in cols]
            for i in range(n):
                choices = [v for v in range(1, maxdeg + n + 2) if v not in used[i]]
                e = [0] * n
                e[i] = rng.choice(choices)
                used[i].add(e[i])
                gens.append(tuple(e))
        if not gens:
            continue
        M = MonomialIdeal.from_generators(n, gens)
        if M.is_zero() or M.is_unit():
            continue
        assert M.is_strongly_generic()
        return M


def random_antichain(rng, n, r, degree=40, generic=False):
    """r distinct monomials of one total degree in n >= 2 variables, so
    none divides another.  With generic=True no two share a positive
    degree in any variable, which makes the ideal strongly generic."""
    used = [set() for _ in range(n)]
    gens = set()
    while len(gens) < r:
        cuts = sorted(rng.choices(range(degree + 1), k=n - 1))
        e = tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))
        if e in gens or generic and any(x and x in u for x, u in zip(e, used)):
            continue
        gens.add(e)
        for x, u in zip(e, used):
            u.add(x)
    return MonomialIdeal.from_generators(n, gens)


def random_staircase(rng, r, spread=40):
    """Artinian staircase in 2 variables: generators (a_i, b_i) with
    0 = a_1 < ... < a_r and b_1 > ... > b_r = 0.  Returns the ideal and
    its outer corners (a_{i+1}, b_i)."""
    a = [0] + sorted(rng.sample(range(1, spread), r - 1))
    b = sorted(rng.sample(range(1, spread), r - 1), reverse=True) + [0]
    gens = list(zip(a, b))
    M = MonomialIdeal(2, [Monomial(e) for e in gens])
    outer = [(a[i + 1], b[i]) for i in range(r - 1)]
    return M, outer
