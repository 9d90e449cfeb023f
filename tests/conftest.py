"""Shared example ideals, complexes, random generators, the g-class scale
ideals, the polynomial chain-condition oracle, and a call counter."""

import itertools
import random
import sys
from operator import add

from cellres.monomial import Monomial, MonomialIdeal
from cellres.resolution import differential
from cellres.scarf import facet_pairs, scarf_complex, star_ideal


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


def digon_specs():
    """Two vertices joined by two edges: a circle whose edges share a
    vertex set, so each cell is a simplex but the complex is not
    simplicial."""
    return [
        {"id": "v0", "dim": 0, "vertex": 0},
        {"id": "v1", "dim": 0, "vertex": 1},
        {"id": "a", "dim": 1, "boundary": [["v0", -1], ["v1", 1]]},
        {"id": "b", "dim": 1, "boundary": [["v0", -1], ["v1", 1]]},
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


def generic_artinian_antichain(rng, n, r, degree=40):
    """r strongly generic monomials of one total degree plus the pure
    powers z_i^(degree+1+i): a strongly generic Artinian ideal."""
    gens = [g.exps for g in random_antichain(rng, n, r, degree, generic=True).gens]
    gens += [tuple(degree + 1 + i if j == i else 0 for j in range(n)) for i in range(n)]
    return MonomialIdeal.from_generators(n, gens)


def ghosted_pairs(M, D):
    """The (K, tau) pairs of M ghosted with exponent D; ``scarf_pairs``
    always ghosts with the default."""
    gh = star_ideal(M, D)
    return facet_pairs(gh, scarf_complex(gh.star))


def chain_oracle(F):
    """Whether f_k . f_{k+1} = 0 for every k, composed as matrices of
    polynomials from the maps ``differential(F, k)``, grade 1 down to 0
    first: each path's sign and summed quotient exponents are added up.
    The oracle for ``verify_chain``, which decides on face signs alone."""
    lower = {}  # the map one grade down, by column
    for k in range(1, F.complex.num_grades):
        upper = differential(F, k)
        acc = {}
        for row, col, sign, quotient in upper:
            for row1, sign1, quotient1 in lower.get(row, ()):
                key = (row1, col, tuple(map(add, quotient1, quotient)))
                acc[key] = acc.get(key, 0) + sign1 * sign
        if any(acc.values()):
            return False
        lower = {}
        for row, col, sign, quotient in upper:
            lower.setdefault(col, []).append((row, sign, quotient))
    return True


def count_calls(monkeypatch, module, name):
    """Replace module.name in every cellres module that holds it with a
    wrapper that records each call's positional arguments; returns the
    list of records.  When ``module`` is a class, the method is replaced
    on it, and each record starts with the instance."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    if isinstance(module, type):
        monkeypatch.setattr(module, name, counting)
        return calls
    for key, held in list(sys.modules.items()):
        if key.startswith("cellres") and getattr(held, name, None) is original:
            monkeypatch.setattr(held, name, counting)
    return calls


def g_class(n, r, degree, seed):
    """The g-class scale ideals: r points of total degree ``degree`` with
    every coordinate positive, drawn with random.Random(seed) and redrawn
    when a coordinate repeats one already taken in its variable, plus the
    pure powers z_i^(degree+1+i).  Strongly generic and Artinian.  g4 is
    (4, 13, 60, 5): 17 generators, 334 Scarf faces counting the empty
    one, 1,937 lcm-lattice points.  g5 is (5, 14, 80, 7): 19 generators,
    1,148 Scarf faces, 6,924 lattice points."""
    rng = random.Random(seed)
    used = [set() for _ in range(n)]
    gens = []
    while len(gens) < r:
        cuts = sorted(rng.sample(range(1, degree), n - 1))
        e = tuple(b - a for a, b in zip((0, *cuts), (*cuts, degree)))
        if any(x in u for x, u in zip(e, used)):
            continue
        for x, u in zip(e, used):
            u.add(x)
        gens.append(e)
    gens += [tuple(degree + 1 + i if j == i else 0 for j in range(n)) for i in range(n)]
    return MonomialIdeal.from_generators(n, gens)
