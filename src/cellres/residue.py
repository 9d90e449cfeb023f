"""Symbolic residue currents from cellular resolutions.

Given an ideal M and a complex X supporting a resolution, the residue
current decomposes over the associated primes p_K.  For each K of size
l and each face of X of dimension l-1 whose label is positive on all of
K, there is one entry: an anti-holomorphic factor per variable in K,
with exponents read off the face label, whose annihilator is the
irreducible ideal on K with those exponents.  Entries whose label
vanishes somewhere on K are identically zero and never created.

The scalar coefficient in front of each entry is known only as zero /
nonzero / unknown -- its value would require the analytic machinery
that is out of scope here -- so classification is a status, with the
deciding rule recorded per entry:

* "not-contained": zero, because M is not inside the annihilator (a
  function annihilating the current must lie in M, so such an entry
  cannot survive).
* "scarf-facet": nonzero, for generic M, when (K, face) is a facet pair
  of the ghosted Scarf complex.  For generic M these two rules decide
  every entry.
* "minimal-resolution": nonzero, when M is Artinian, the resolution is
  minimal, and the face is a facet.  Applied without any genericity
  hypothesis.
* "unique-carrier": nonzero, when the entry is the only not-yet-zero
  carrier of an irredundant component of M.  Forced by duality: the
  annihilators of the surviving entries must intersect irredundantly to
  M, so every component needs a carrier.

Anything left is "unknown", and the duality verdict degrades from
"exact" to "consistent" accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from cellres.decompose import Decomposition, decompose_brute, prime_key
from cellres.errors import NotResolutionError, PreconditionError
from cellres.monomial import IrreducibleIdeal, MonomialIdeal, unit_ideal
from cellres.resolution import FreeComplex
from cellres.scarf import scarf_pairs

ZERO = "zero"
NONZERO = "nonzero"
UNKNOWN = "unknown"

RULE_NOT_CONTAINED = "not-contained"
RULE_SCARF_FACET = "scarf-facet"
RULE_MINIMAL = "minimal-resolution"
RULE_UNIQUE_CARRIER = "unique-carrier"


@dataclass(frozen=True)
class ResidueEntry:
    """One symbolic entry of the current.

    ``alpha`` is the full face label, an exponent tuple; the annihilator
    restricts it to K and zeroes the rest.  ``has_smooth_factor`` records
    the extra smooth factor present whenever K is a proper subset of the
    variables (it never affects the annihilator).
    """

    K: frozenset
    face_id: int
    tau: frozenset
    alpha: tuple
    annihilator: IrreducibleIdeal
    status: str = UNKNOWN
    rule: str | None = None

    @property
    def has_smooth_factor(self) -> bool:
        return len(self.K) != len(self.alpha)


@dataclass(frozen=True)
class ResidueCurrent:
    """All entries over the resolution they were read from, canonically
    ordered and grouped by associated prime.

    ``components`` is the irredundant irreducible decomposition the
    associated primes were read from.
    """

    resolution: FreeComplex
    entries: tuple
    components: tuple

    def by_prime(self):
        """Entries grouped by K, in canonical K order."""
        groups = {}
        for e in self.entries:
            groups.setdefault(e.K, []).append(e)
        return {K: tuple(groups[K]) for K in sorted(groups, key=prime_key)}

    def with_status(self, *statuses):
        return tuple(e for e in self.entries if e.status in statuses)


def residue_current(F: FreeComplex, dec: Decomposition | None = None) -> ResidueCurrent:
    """Build the (unclassified) current of an ideal over its resolution F.

    ``dec`` is F.ideal's irredundant irreducible decomposition, if the
    caller already has it; by default it is computed by brute force.

    Primes are taken in canonical order and each grade's faces by id, so
    the entries come out in (prime, face id) order.
    """
    if not F.exact:
        raise NotResolutionError("the complex does not support a resolution")
    if dec is None:
        dec = decompose_brute(F.ideal)
    elif dec.ideal != F.ideal:
        raise PreconditionError("the decomposition is of another ideal than the resolution's")
    components = dec.components
    primes = sorted({frozenset(c.support) for c in components}, key=prime_key)
    entries = []
    for K in primes:
        ell = len(K)
        for face in F.complex.grade(ell):
            alpha = face.label
            if any(alpha[i] == 0 for i in K):
                continue
            b = tuple(e if i in K else 0 for i, e in enumerate(alpha))
            entries.append(ResidueEntry(K=K, face_id=face.id, tau=frozenset(face.vertices),
                                        alpha=alpha, annihilator=IrreducibleIdeal(b)))
    return ResidueCurrent(F, tuple(entries), components)


def classify(current: ResidueCurrent) -> ResidueCurrent:
    """Tag every entry zero / nonzero / unknown, recording the rule."""
    F = current.resolution
    M = F.ideal
    generic = M.is_generic() and not M.is_unit()  # the unit ideal has no Scarf pairs
    pair_keys = set()
    if generic:
        # a pair's tau indexes M.gens, an entry's the vertices of F.complex:
        # they meet through the vertex labels, which are the generators
        X = F.complex
        vertex = {X.labels[v]: v for v in X.vertices()}
        pair_keys = {(p.K, frozenset(vertex[M.gens[i].exps] for i in p.tau))
                     for p in scarf_pairs(M)}
    minimal = F.minimal and M.is_artinian()
    facet_ids = {f.id for f in F.complex.facets()} if minimal else ()

    tagged = []
    for e in current.entries:
        if not M.contained_in(e.annihilator):
            tagged.append(replace(e, status=ZERO, rule=RULE_NOT_CONTAINED))
        elif generic and (e.K, e.tau) in pair_keys:
            tagged.append(replace(e, status=NONZERO, rule=RULE_SCARF_FACET))
        elif minimal and e.face_id in facet_ids:
            tagged.append(replace(e, status=NONZERO, rule=RULE_MINIMAL))
        else:
            tagged.append(e)

    # duality forces the single surviving carrier of a component; no entry
    # turns zero here, so each annihilator's carriers are listed once
    carriers = {}  # annihilator -> positions in tagged of its entries not zero
    for i, e in enumerate(tagged):
        if e.status != ZERO:
            carriers.setdefault(e.annihilator, []).append(i)
    for comp in current.components:
        if len(ids := carriers.get(comp, ())) == 1 and tagged[ids[0]].status != NONZERO:
            tagged[ids[0]] = replace(tagged[ids[0]], status=NONZERO, rule=RULE_UNIQUE_CARRIER)

    return replace(current, entries=tuple(tagged))


def annihilator_bounds(current: ResidueCurrent):
    """(lower, upper) ideals bracketing the annihilator of the current.

    Zero entries impose nothing; nonzero entries must all be
    annihilated; unknown entries might.  So intersecting annihilators of
    {nonzero, unknown} entries under-approximates and {nonzero} alone
    over-approximates: lower <= M <= upper, with equality on both sides
    when no entry is unknown.  Intersection is idempotent, so each
    distinct annihilator is intersected once, and lower extends upper.
    """
    def meet(ideal, entries):
        return ideal.intersect_irreducibles(
            dict.fromkeys(e.annihilator.exponent.exps for e in entries))

    upper = meet(unit_ideal(current.resolution.ideal.nvars), current.with_status(NONZERO))
    lower = meet(upper, current.with_status(UNKNOWN))
    return lower, upper


VERDICT_EXACT = "exact"
VERDICT_CONSISTENT = "consistent"
VERDICT_VIOLATED = "violated"


@dataclass(frozen=True)
class DualityReport:
    verdict: str
    lower: MonomialIdeal
    upper: MonomialIdeal
    current: ResidueCurrent


def duality_check(F: FreeComplex, dec: Decomposition | None = None) -> DualityReport:
    """Compare the annihilator bounds of F's classified current with M = F.ideal.

    ``dec`` is passed on to ``residue_current``.

    "exact" when both bounds equal M; "consistent" when M sits strictly
    between them (some entries stayed unknown); "violated" never happens
    unless something is broken.
    """
    M = F.ideal
    current = classify(residue_current(F, dec))
    lower, upper = annihilator_bounds(current)
    if lower == M and upper == M:
        verdict = VERDICT_EXACT
    elif lower.subset_of(M) and M.subset_of(upper):
        verdict = VERDICT_CONSISTENT
    else:
        verdict = VERDICT_VIOLATED
    return DualityReport(verdict, lower, upper, current)

