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

from cellres.complexes import VERTEX_CAP
from cellres.decompose import decompose_brute
from cellres.errors import NotResolutionError
from cellres.monomial import IrreducibleIdeal, Monomial, MonomialIdeal, unit_ideal
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

    ``alpha`` is the full face label; the annihilator restricts it to K
    and zeroes the rest.  ``has_smooth_factor`` records the extra smooth
    factor present whenever K is a proper subset of the variables (it
    never affects the annihilator).
    """

    K: frozenset
    face_id: int
    tau: frozenset
    alpha: Monomial
    annihilator: IrreducibleIdeal
    status: str = UNKNOWN
    rule: str | None = None

    @property
    def has_smooth_factor(self) -> bool:
        return len(self.K) != self.alpha.nvars


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
        return {K: tuple(groups[K])
                for K in sorted(groups, key=lambda s: (len(s), sorted(s)))}

    def with_status(self, *statuses):
        return tuple(e for e in self.entries if e.status in statuses)


def residue_current(F: FreeComplex) -> ResidueCurrent:
    """Build the (unclassified) current of an ideal over its resolution F."""
    if not F.exact:
        raise NotResolutionError("the complex does not support a resolution")
    components = decompose_brute(F.ideal).components
    primes = sorted({frozenset(c.support) for c in components},
                    key=lambda s: (len(s), sorted(s)))
    entries = []
    for K in primes:
        ell = len(K)
        for face in F.complex.grade(ell):
            alpha = face.label
            if any(alpha.exps[i] == 0 for i in K):
                continue
            b = tuple(e if i in K else 0 for i, e in enumerate(alpha.exps))
            entries.append(ResidueEntry(
                K=K,
                face_id=face.id,
                tau=face.vertices,
                alpha=alpha,
                annihilator=IrreducibleIdeal(b),
            ))
    entries.sort(key=lambda e: (len(e.K), sorted(e.K), e.face_id))
    return ResidueCurrent(F, tuple(entries), components)


def classify(current: ResidueCurrent, cap: int = VERTEX_CAP) -> ResidueCurrent:
    """Tag every entry zero / nonzero / unknown, recording the rule."""
    F = current.resolution
    M = F.ideal
    generic = M.is_generic() and not M.is_unit()  # the unit ideal has no Scarf pairs
    pair_keys = set()
    if generic:
        pair_keys = {(p.K, p.tau) for p in scarf_pairs(M, cap=cap)}
    minimal = F.minimal and M.is_artinian()
    facet_ids = {f.id for f in F.complex.facets()}

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

    # duality forces the single surviving carrier of a component
    for comp in current.components:
        carriers = [i for i, e in enumerate(tagged)
                    if e.status != ZERO and e.annihilator == comp]
        if len(carriers) == 1:
            i = carriers[0]
            if tagged[i].status != NONZERO:
                tagged[i] = replace(tagged[i], status=NONZERO, rule=RULE_UNIQUE_CARRIER)

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
        for ann in dict.fromkeys(e.annihilator for e in entries):
            ideal = ideal.intersect(ann.as_ideal())
        return ideal

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


def duality_check(F: FreeComplex, cap: int = VERTEX_CAP) -> DualityReport:
    """Compare the annihilator bounds of F's classified current with M = F.ideal.

    "exact" when both bounds equal M; "consistent" when M sits strictly
    between them (some entries stayed unknown); "violated" never happens
    unless something is broken.
    """
    M = F.ideal
    current = classify(residue_current(F), cap)
    lower, upper = annihilator_bounds(current)
    if lower == M and upper == M:
        verdict = VERDICT_EXACT
    elif lower.subset_of(M) and M.subset_of(upper):
        verdict = VERDICT_CONSISTENT
    else:
        verdict = VERDICT_VIOLATED
    return DualityReport(verdict, lower, upper, current)

