"""Scarf complexes, ghost generators, and facet pairs.

The Scarf complex of M keeps the generator subsets whose lcm no other
subset attains.  For a non-Artinian ideal, adding a high power z_i^D of
every variable (the "ghosts") produces an Artinian ideal whose Scarf
facets, read as pairs (K, tau) -- K the variables whose ghost is absent,
tau the non-ghost vertices -- encode the irreducible decomposition of
the original ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le

from cellres.complexes import LabeledComplex, grow_simplicial
from cellres.errors import PreconditionError, VerificationError
from cellres.monomial import IrreducibleIdeal, MonomialIdeal


def scarf_complex(M: MonomialIdeal) -> LabeledComplex:
    """Subsets of generators whose lcm is attained by no other subset.

    A nonempty subset sigma is a Scarf face iff (a) no generator m_j with
    j not in sigma divides lcm(sigma), and (b) no m_i with i in sigma
    divides lcm(sigma minus i).  Both are necessary: otherwise adding j,
    or dropping i, keeps the lcm.  They suffice: if tau != sigma has the
    same lcm, then tau is inside sigma by (a), and any i in sigma minus
    tau has m_i | lcm(tau) | lcm(sigma minus i), which (b) forbids.

    Scarf faces are closed under subsets and hold the singletons, as the
    generators are minimal, so ``grow_simplicial`` grows them, keeping the
    candidates that pass (a).  (b) then holds already: every sigma minus i
    is a Scarf face, so sigma, a different subset, cannot share its lcm.
    The dimension bound n-1, a theorem for any M, stays a check for bugs.
    """
    M.require_nonzero()
    if M.is_unit():
        raise PreconditionError("the unit ideal has no Scarf complex")
    exps = tuple(g.exps for g in M.gens)
    X = grow_simplicial(exps, range(len(exps)), lambda t, label: not any(
        all(map(le, e, label)) for j, e in enumerate(exps) if j not in t), "Scarf faces")
    if X.dim > M.nvars - 1:
        raise VerificationError("Scarf complex dimension exceeds n-1")
    return X


@dataclass(frozen=True)
class GhostedIdeal:
    """An ideal together with its Artinianization by ghost generators.

    ``star`` is base + (z_1^D, ..., z_n^D), minimalized: a ghost that a
    pure power of the base divides is dropped, and no base generator is,
    since D exceeds all their degrees.
    """

    base: MonomialIdeal
    ghost_exponent: int
    star: MonomialIdeal


def star_ideal(M: MonomialIdeal, D: int | None = None) -> GhostedIdeal:
    """Add ghost generators z_i^D; D defaults to 1 + the largest exponent."""
    M.require_nonzero()
    if M.is_unit():
        # it has no Scarf complex, and in no variables no largest exponent
        raise PreconditionError("the unit ideal cannot be ghosted")
    n = M.nvars
    top = max(M.max_degrees())
    if D is None:
        D = top + 1
    elif D <= top:
        raise PreconditionError(f"ghost exponent {D} must exceed every generator degree ({top})")
    ghosts = [(0,) * i + (D,) + (0,) * (n - i - 1) for i in range(n)]
    return GhostedIdeal(M, D, MonomialIdeal.from_generators(n, [*M.gens, *ghosts]))


@dataclass(frozen=True)
class ScarfPair:
    """A facet of the ghosted Scarf complex, split into (K, tau).

    K holds the variables whose ghost vertex is absent from the facet
    (dropped ghosts are absent from every facet); tau the base-generator
    indices present.  ``label`` is the exponent tuple of the facet's lcm,
    which still carries ghost degrees, so cross-D comparisons should use
    :meth:`key`.
    """

    K: frozenset
    tau: frozenset
    label: tuple

    def annihilator(self) -> IrreducibleIdeal:
        """Irreducible ideal on K with the label's exponents."""
        b = tuple(e if i in self.K else 0 for i, e in enumerate(self.label))
        return IrreducibleIdeal(b)

    def key(self):
        """D-independent content: (K, tau, annihilator exponent)."""
        return (tuple(sorted(self.K)), tuple(sorted(self.tau)), self.annihilator().exponent.exps)


def scarf_pairs(M: MonomialIdeal):
    """(K, tau) pairs for the facets of the ghosted Scarf complex, default D."""
    gh = star_ideal(M)
    return facet_pairs(gh, scarf_complex(gh.star))


def facet_pairs(gh: GhostedIdeal, delta: LabeledComplex):
    """(K, tau) pairs for the facets of delta, the Scarf complex of gh.star;
    each vertex is a base generator or a ghost, a pure D-th power."""
    base_idx = {g.exps: b for b, g in enumerate(gh.base.gens)}
    D = gh.ghost_exponent

    pairs = []
    for facet in delta.facets():
        K, tau = set(range(gh.base.nvars)), set()
        for p in facet.vertices:
            e = delta.labels[p]
            if e in base_idx:
                tau.add(base_idx[e])
            elif sum(e) == D and D in e:
                K.discard(e.index(D))
            else:
                raise VerificationError(f"facet {list(facet.vertices)} has a vertex that is "
                                        "neither a base generator nor a ghost")
        pairs.append(ScarfPair(frozenset(K), frozenset(tau), facet.label))
    pairs.sort(key=lambda p: (sorted(p.K), sorted(p.tau)))
    return tuple(pairs)
