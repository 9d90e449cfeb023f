"""Irredundant irreducible decompositions and associated primes.

Three routes produce the same (unique) decomposition:

* ``decompose_scarf`` reads components off the ghosted Scarf facets,
  for generic ideals;
* ``decompose_minimal`` reads them off the facet labels of a minimal
  cellular resolution, for Artinian ideals;
* ``decompose_brute`` enumerates candidate exponent vectors directly
  and serves as the independent oracle for the other two.

Every result is verified on the spot: the components intersect back to
the ideal and none can be dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import ge

from cellres.errors import (
    CapExceededError,
    NotArtinianError,
    NotGenericError,
    NotMinimalError,
    NotResolutionError,
    VerificationError,
)
from cellres.monomial import IrreducibleIdeal, MonomialIdeal, unit_ideal
from cellres.resolution import FreeComplex
from cellres.scarf import scarf_pairs

CANDIDATE_CAP = 10 ** 6

METHOD_SCARF = "scarf"
METHOD_MINIMAL = "minimal_resolution"
METHOD_BRUTE = "brute_force"


@dataclass(frozen=True)
class Decomposition:
    """An irredundant list of irreducible components, with provenance."""

    ideal: MonomialIdeal
    components: tuple
    method: str

    def intersection(self) -> MonomialIdeal:
        return unit_ideal(self.ideal.nvars).intersect_irreducibles(
            c.exponent.exps for c in self.components)

    def is_irredundant(self) -> bool:
        """True iff the components intersect to the ideal and none of them
        can be dropped, that is iff ``verify`` passes."""
        try:
            self.verify()
        except VerificationError:
            return False
        return True

    def verify(self):
        """Raise ``VerificationError`` unless the components intersect to
        the ideal and none of them can be dropped.

        When the components C_j intersect to M, C_i can be dropped exactly
        when the intersection of the others lies in C_i.  An irreducible
        monomial ideal that contains an intersection of monomial ideals
        contains one of them: otherwise the lcm of one witness outside it
        per ideal lies in the intersection but escapes it.  So C_i can be
        dropped iff it contains some other C_j, and the test is pairwise
        containment of exponent vectors, O(k^2 n), after one intersection.
        """
        if self.intersection() != self.ideal:
            raise VerificationError(f"{self.method}: components do not intersect to the ideal")
        # IrreducibleIdeal.contains on exponent tuples: m^outer holds m^inner
        # iff each inner_i is 0 or at least a positive outer_i, that is iff
        # inner >= outer componentwise once a 0 (no generator) reads as inf
        exps = [tuple(e or math.inf for e in c.exponent.exps) for c in self.components]
        if any(i != j and all(map(ge, inner, outer))
               for i, outer in enumerate(exps)
               for j, inner in enumerate(exps)):
            raise VerificationError(f"{self.method}: decomposition is redundant")


def decompose_scarf(M: MonomialIdeal) -> Decomposition:
    """Components from the ghosted Scarf facets; generic ideals only."""
    if not M.is_generic():
        raise NotGenericError("Scarf decomposition requires a generic ideal")
    components = tuple(sorted(p.annihilator() for p in scarf_pairs(M)))
    if len(set(components)) != len(components):
        raise VerificationError("scarf: repeated component")
    dec = Decomposition(M, components, METHOD_SCARF)
    dec.verify()
    return dec


def decompose_minimal(F: FreeComplex) -> Decomposition:
    """Components from the facet labels of a minimal resolution F of an
    Artinian ideal."""
    if not F.ideal.is_artinian():
        raise NotArtinianError("minimal-resolution decomposition needs an Artinian ideal")
    if not F.exact:
        raise NotResolutionError("the complex does not support a resolution")
    if not F.minimal:
        raise NotMinimalError("the resolution is not minimal")
    components = tuple(sorted(IrreducibleIdeal(f.label) for f in F.complex.facets()))
    dec = Decomposition(F.ideal, components, METHOD_MINIMAL)
    dec.verify()
    return dec


def _candidate_values(M: MonomialIdeal):
    """Per-variable values of ``decompose_brute``'s candidate vectors; their
    count past ``CANDIDATE_CAP`` raises.  Cheap, so run before costly work."""
    value_sets = [sorted({0} | {g.exps[i] for g in M.gens if g.exps[i] > 0})
                  for i in range(M.nvars)]
    total = math.prod(map(len, value_sets))
    if total > CANDIDATE_CAP:
        raise CapExceededError(f"{total} candidate vectors exceeds the cap {CANDIDATE_CAP}")
    return value_sets


def decompose_brute(M: MonomialIdeal) -> Decomposition:
    """Oracle decomposition by direct enumeration.

    Scan candidate exponent vectors b (with b_i = 0 or b_i a degree some
    generator has in z_i: a component exponent can never be anything
    else, because shrinking the ideal at i must expel a generator) and
    keep those whose irreducible ideal m^b contains M.  The components
    are the inclusion-minimal ones among these.

    Containment is read off generator-coverage bitmasks.  m^b contains a
    generator g iff g_i >= b_i > 0 for some i, so for each variable i and
    value v the mask of (i, v) has bit j set iff v > 0 and g_j[i] >= v.
    m^b contains M iff every generator lies in it, that is iff the OR of
    the masks of (i, b_i) over all i has every generator's bit set: the
    same predicate, one OR per coordinate instead of a pass over the
    generators.  The zero vector has empty masks, so it never qualifies.

    Minimality is tested locally.  A one-coordinate step from b to a
    smaller ideal, at some i in supp(b), either raises b_i to the next
    value of its value set or sets b_i to 0.  If M lies in some m^c
    strictly inside m^b, a step at a coordinate where c differs from b
    lands on a grid vector b' with m^c inside m^b' inside m^b, so M lies
    in m^b' too.  Setting b_i to 0 gives an ideal inside the one raising
    it gives, so only the raise is looked up, or the step to 0 when b_i
    is the largest value.  Hence b is minimal iff none of its at most n
    neighbours contains M: a few set lookups per candidate instead of a
    comparison with every other candidate.  The minimal candidates are
    exactly the irredundant components, so nothing is left to drop;
    ``verify`` checks the result anyway.
    """
    M.require_nonzero()
    if M.is_unit():
        return Decomposition(M, (), METHOD_BRUTE)
    value_sets = _candidate_values(M)
    gens = [g.exps for g in M.gens]
    masks = [[(v, sum(1 << j for j, g in enumerate(gens) if v and g[i] >= v)) for v in vs]
             for i, vs in enumerate(value_sets)]
    containing = _covering(masks, (1 << len(gens)) - 1)

    # vs[0] is 0: each positive value steps to the next one, the largest to 0
    step = [dict(zip(vs[1:], vs[2:] + [0])) for vs in value_sets]

    def has_smaller_neighbour(b):
        for i, bv in enumerate(b):
            if bv and b[:i] + (step[i][bv],) + b[i + 1:] in containing:
                return True
        return False

    minimal = sorted(b for b in containing if not has_smaller_neighbour(b))
    dec = Decomposition(M, tuple(IrreducibleIdeal(b) for b in minimal), METHOD_BRUTE)
    dec.verify()
    return dec


def _covering(masks, full):
    """The grid vectors whose masks OR to ``full``; ``masks[i]`` lists the
    (value, mask) pairs of coordinate i.  Depth first, so each prefix's
    OR is formed once and shared by all its extensions."""
    found = set()
    *head, last = masks

    def extend(prefix, cover, i):
        if i == len(head):
            found.update(prefix + (v,) for v, m in last if cover | m == full)
            return
        for v, m in head[i]:
            extend(prefix + (v,), cover | m, i + 1)

    extend((), 0, 0)
    return found


def associated_primes(M: MonomialIdeal):
    """Supports of the irredundant components, as a set of frozensets."""
    return {frozenset(c.support) for c in decompose_brute(M).components}


def prime_key(K):
    """The canonical order of associated primes: by size, then by sorted
    variable indices."""
    return len(K), sorted(K)


def primary_grouping(dec: Decomposition):
    """Intersect components sharing a support; keyed by that support.

    The groups intersect back to the ideal (checked).
    """
    groups = {}
    for c in dec.components:
        groups.setdefault(frozenset(c.support), []).append(c)
    out = {K: unit_ideal(dec.ideal.nvars).intersect_irreducibles(
               c.exponent.exps for c in groups[K])
           for K in sorted(groups, key=prime_key)}
    acc = unit_ideal(dec.ideal.nvars)
    for ideal in out.values():
        acc = acc.intersect(ideal)
    if acc != dec.ideal:
        raise VerificationError("primary groups do not intersect to the ideal")
    return out
