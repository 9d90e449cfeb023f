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

import itertools
import math
from dataclasses import dataclass

from cellres.complexes import VERTEX_CAP
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
        acc = unit_ideal(self.ideal.nvars)
        for c in self.components:
            acc = acc.intersect(c.as_ideal())
        return acc

    def is_irredundant(self) -> bool:
        """True iff the components intersect to the ideal and none of them
        can be dropped.

        When the components C_j intersect to M, C_i can be dropped exactly
        when the intersection of the others lies in C_i.  An irreducible
        monomial ideal that contains an intersection of monomial ideals
        contains one of them: otherwise the lcm of one witness outside it
        per ideal lies in the intersection but escapes it.  So C_i can be
        dropped iff it contains some other C_j, and the test is pairwise
        containment of exponent vectors, O(k^2 n), after one intersection.
        """
        return self.intersection() == self.ideal and not self._has_nested_pair()

    def _has_nested_pair(self) -> bool:
        return any(i != j and outer.contains(inner)
                   for i, outer in enumerate(self.components)
                   for j, inner in enumerate(self.components))

    def verify(self):
        if self.intersection() != self.ideal:
            raise VerificationError(f"{self.method}: components do not intersect to the ideal")
        if self._has_nested_pair():
            raise VerificationError(f"{self.method}: decomposition is redundant")


def decompose_scarf(M: MonomialIdeal, D: int | None = None,
                    cap: int = VERTEX_CAP) -> Decomposition:
    """Components from the ghosted Scarf facets; generic ideals only."""
    if not M.is_generic():
        raise NotGenericError("Scarf decomposition requires a generic ideal")
    components = tuple(sorted(p.annihilator() for p in scarf_pairs(M, D, cap)))
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

    Minimality is tested locally.  A one-coordinate step from b to a
    smaller ideal, at some i in supp(b), either raises b_i to the next
    value of its value set or sets b_i to 0.  If M lies in some m^c
    strictly inside m^b, a step at a coordinate where c differs from b
    lands on a grid vector b' with m^c inside m^b' inside m^b, so M lies
    in m^b' too.  Hence b is minimal iff none of its at most 2n
    neighbours contains M: a few set lookups per candidate instead of a
    comparison with every other candidate.  The minimal candidates are
    exactly the irredundant components, so nothing is left to drop;
    ``verify`` checks the result anyway.
    """
    M.require_nonzero()
    if M.is_unit():
        return Decomposition(M, (), METHOD_BRUTE)
    value_sets = _candidate_values(M)
    gens_exps = [g.exps for g in M.gens]
    containing = set()
    for b in itertools.product(*value_sets):
        if any(b) and all(any(bv and gv >= bv for gv, bv in zip(g, b)) for g in gens_exps):
            containing.add(b)

    next_value = [dict(zip(vs, vs[1:])) for vs in value_sets]

    def has_smaller_neighbour(b):
        for i, bv in enumerate(b):
            if bv:
                head, tail = b[:i], b[i + 1:]
                if head + (0,) + tail in containing:
                    return True
                up = next_value[i].get(bv)
                if up is not None and head + (up,) + tail in containing:
                    return True
        return False

    minimal = sorted(b for b in containing if not has_smaller_neighbour(b))
    dec = Decomposition(M, tuple(IrreducibleIdeal(b) for b in minimal), METHOD_BRUTE)
    dec.verify()
    return dec


def associated_primes(M: MonomialIdeal):
    """Supports of the irredundant components, as a set of frozensets."""
    return {frozenset(c.support) for c in decompose_brute(M).components}


def primary_grouping(dec: Decomposition):
    """Intersect components sharing a support; keyed by that support.

    The groups intersect back to the ideal (checked).
    """
    groups = {}
    for c in dec.components:
        groups.setdefault(frozenset(c.support), []).append(c)
    out = {}
    for K in sorted(groups, key=lambda s: (len(s), sorted(s))):
        acc = unit_ideal(dec.ideal.nvars)
        for c in groups[K]:
            acc = acc.intersect(c.as_ideal())
        out[K] = acc
    acc = unit_ideal(dec.ideal.nvars)
    for ideal in out.values():
        acc = acc.intersect(ideal)
    if acc != dec.ideal:
        raise VerificationError("primary groups do not intersect to the ideal")
    return out
