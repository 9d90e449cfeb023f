"""Scarf complexes, ghost generators, and facet pairs.

The Scarf complex of M keeps the generator subsets whose lcm no other
subset attains.  For a non-Artinian ideal, adding a high power z_i^D of
every variable (the "ghosts") produces an Artinian ideal whose Scarf
facets, read as pairs (K, tau) -- K the variables whose ghost is absent,
tau the non-ghost vertices -- encode the irreducible decomposition of
the original ideal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cellres.complexes import VERTEX_CAP, LabeledComplex, simplicial_from_faces
from cellres.errors import CapExceededError, PreconditionError, VerificationError
from cellres.monomial import IrreducibleIdeal, Monomial, MonomialIdeal


def scarf_complex(M: MonomialIdeal, cap: int = VERTEX_CAP) -> LabeledComplex:
    """Subsets of generators whose lcm is attained by no other subset.

    Grouped by lcm exponent vector in one pass over all 2^r subsets;
    singleton classes survive.  The result is asserted to be closed
    under subsets and of dimension at most n-1 (theorems for any M, so
    violations signal a bug).
    """
    M.require_nonzero()
    if M.is_unit():
        raise PreconditionError("the unit ideal has no Scarf complex")
    r = M.num_gens
    if r > cap:
        raise CapExceededError(f"{r} generators exceeds the vertex cap {cap}")
    exps = [g.exps for g in M.gens]
    zero = (0,) * M.nvars

    classes = {}
    for s in range(1 << r):
        acc = zero
        bits = s
        i = 0
        while bits:
            if bits & 1:
                acc = tuple(max(a, b) for a, b in zip(acc, exps[i]))
            bits >>= 1
            i += 1
        if acc in classes:
            classes[acc] = -1
        else:
            classes[acc] = s

    kept = []
    for s in classes.values():
        if s > 0:
            kept.append(tuple(i for i in range(r) if s >> i & 1))

    X = simplicial_from_faces(M.gens, kept)
    if X.dim > M.nvars - 1:
        raise VerificationError("Scarf complex dimension exceeds n-1")
    return X


@dataclass(frozen=True)
class GhostedIdeal:
    """An ideal together with its Artinianization by ghost generators.

    ``star`` is base + (z_1^D, ..., z_n^D), minimalized; ghosts dominated
    by a pure-power generator of the base are dropped.  Position maps
    relate the base's generator order to the star's.
    """

    base: MonomialIdeal
    ghost_exponent: int
    star: MonomialIdeal
    ghost_positions: dict = field(compare=False)
    base_positions: dict = field(compare=False)


def star_ideal(M: MonomialIdeal, D: int | None = None) -> GhostedIdeal:
    """Add ghost generators z_i^D; D defaults to 1 + the largest exponent."""
    M.require_nonzero()
    n = M.nvars
    top = max(M.max_degrees())
    if D is None:
        D = top + 1
    elif D <= top:
        raise PreconditionError(f"ghost exponent {D} must exceed every generator degree ({top})")

    gens = list(M.gens)
    ghost_of = {}
    for i in range(n):
        e = [0] * n
        e[i] = D
        ghost = Monomial(e)
        if not any(g.divides(ghost) for g in M.gens):
            gens.append(ghost)
            ghost_of[i] = ghost
    star = MonomialIdeal(n, gens)

    pos = {g.exps: p for p, g in enumerate(star.gens)}
    ghost_positions = {i: pos[g.exps] for i, g in ghost_of.items()}
    base_positions = {b: pos[g.exps] for b, g in enumerate(M.gens)}
    return GhostedIdeal(M, D, star, ghost_positions, base_positions)


@dataclass(frozen=True)
class ScarfPair:
    """A facet of the ghosted Scarf complex, split into (K, tau).

    K holds the variables whose ghost vertex is absent from the facet
    (dropped ghosts are absent from every facet); tau the base-generator
    indices present.  ``label`` is the facet's lcm, which still carries
    ghost degrees, so cross-D comparisons should use :meth:`key`.
    """

    K: frozenset
    tau: frozenset
    label: Monomial

    def annihilator(self) -> IrreducibleIdeal:
        """Irreducible ideal on K with the label's exponents."""
        b = tuple(e if i in self.K else 0 for i, e in enumerate(self.label.exps))
        return IrreducibleIdeal(b)

    def key(self):
        """D-independent content: (K, tau, annihilator exponent)."""
        return (tuple(sorted(self.K)), tuple(sorted(self.tau)), self.annihilator().exponent.exps)


def scarf_pairs(M: MonomialIdeal, D: int | None = None, cap: int = VERTEX_CAP):
    """(K, tau) pairs for the facets of the ghosted Scarf complex."""
    gh = star_ideal(M, D)
    delta = scarf_complex(gh.star, cap)
    ghost_var = {p: i for i, p in gh.ghost_positions.items()}
    base_idx = {p: b for b, p in gh.base_positions.items()}

    pairs = []
    for facet in delta.facets():
        verts = facet.vertices
        K = frozenset(i for i in range(M.nvars) if gh.ghost_positions.get(i) not in verts)
        tau = frozenset(base_idx[p] for p in verts if p in base_idx)
        if not all(p in base_idx or p in ghost_var for p in verts):
            raise VerificationError(f"facet {sorted(verts)} has a vertex that is neither "
                                    "a base generator nor a ghost")
        pairs.append(ScarfPair(K, tau, facet.label))
    pairs.sort(key=lambda p: (sorted(p.K), sorted(p.tau)))
    return tuple(pairs)
