"""Free complexes supported on labeled cell complexes.

``build_complex`` turns a labeled complex into the graded complex of
free modules whose differential sends a face basis element to the
signed sum of its boundary faces scaled by label quotients.  X fixes
that differential, so F stores none: ``differential(F, k)`` reads one
map off X when asked.  ``build_complex`` decides exactness and
minimality once, as the ``exact`` and ``minimal`` fields every consumer
reads.  Exactness is combinatorial: the complex resolves the ideal iff
every degree-restricted subcomplex is acyclic, checked over the lcm
lattice.  Minimality means no differential entry is a unit, i.e.
incident faces never share a label.  The chain condition d∘d = 0 is
decided on X's face signs, with no map derived (``verify_chain``): every
path f -> g -> h in d∘d carries the same monomial, the quotient of f's
label by h's, so the polynomial composite vanishes iff the integer
boundary of the boundary does.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

from cellres.complexes import FaceIndex, LabeledComplex, _boundary_squares_to_zero, lcm_lattice
from cellres.errors import LabelMismatchError, NotMinimalError, NotResolutionError
from cellres.monomial import MonomialIdeal


@dataclass(frozen=True)
class FreeComplex:
    """Ranks, exactness and minimality of the free complex supported on
    ``complex``; ``differential(F, k)`` gives its maps."""

    ideal: MonomialIdeal
    complex: LabeledComplex
    ranks: tuple
    exact: bool
    minimal: bool


def build_complex(X: LabeledComplex, M: MonomialIdeal) -> FreeComplex:
    """Free complex supported on X over the generators of M, exactness
    and minimality decided.

    The vertex labels of X must be exactly the minimal generators.  An
    lcm lattice of X past the enumeration cap raises ``CapExceededError``.
    """
    if {X.labels[v] for v in X.vertices()} != {g.exps for g in M.gens}:
        raise LabelMismatchError("vertex labels are not the minimal generators of the ideal")
    ranks = tuple(len(X.grade(k)) for k in range(X.num_grades))
    return FreeComplex(M, X, ranks, exact=is_resolution(X), minimal=is_minimal(X))


def differential(F: FreeComplex, k: int) -> tuple:
    """The map from grade k to grade k-1 as (row, col, sign, quotient)
    tuples in (col, row) order, each face's boundary being sorted by id.

    Rows and columns index the canonical face order within each grade;
    ``quotient`` is the face label's exponents minus the boundary face
    label's.  It is never negative: a boundary face's vertices lie among
    its face's (by construction for simplicial complexes; a polyhedral
    face's vertex set is built bottom-up as the union of its boundary
    faces'), and labels are lcms of vertex labels, so a boundary label
    divides its face's label.
    """
    X = F.complex
    faces = X.faces
    first = X.grade(k - 1)[0].id  # a face's row is its id less the first of its grade
    return tuple((sid - first, col, sign, tuple(map(sub, f.label, faces[sid].label)))
                 for col, f in enumerate(X.grade(k)) for sid, sign in zip(f.boundary, f.signs))


def verify_chain(F: FreeComplex) -> bool:
    """Check d∘d = 0 for F's differential exactly, on X's face signs.

    The differential sends face f to the sum, over its boundary faces g,
    of s(f, g) x^(label f - label g) g.  So a path f -> g -> h of d∘d
    carries x^(label f - label g) x^(label g - label h), which telescopes
    to x^(label f - label h) whatever g is, and the (h, f) entry of d∘d
    is that one monomial times the integer sum of s(f, g) s(g, h) over g.
    The polynomial composite is zero iff that sum is, for every f and h:
    iff the boundary of the boundary of every face is zero.
    """
    faces = F.complex.faces
    return all(_boundary_squares_to_zero(faces, f) for f in faces)


def is_resolution(X: LabeledComplex) -> bool:
    """Exactness criterion: every degree restriction of X is acyclic.

    Each restriction is decided from its mask of X's face ids: strong
    collapses on star bitmasks first, then coreductions and exact rank on
    the core they leave (see ``FaceIndex``); no complex is built per
    lattice point.
    """
    points = lcm_lattice(X)  # refuses past the cap before X is indexed
    index = FaceIndex(X)
    return all(core is None or index.is_acyclic(core) for core in map(index.core, points))


def is_minimal(X: LabeledComplex) -> bool:
    """No face has the same label as one of its boundary faces;
    equivalently, no differential entry is a unit."""
    faces = X.faces
    return all(faces[sid].label != f.label for f in faces for sid in f.boundary)


def betti_ranks(F: FreeComplex):
    """Ranks of a minimal resolution (the graded Betti-number totals).

    Refuses non-minimal or non-exact complexes, whose ranks overestimate.
    """
    if not F.minimal:
        raise NotMinimalError("ranks of a non-minimal complex overestimate")
    if not F.exact:
        raise NotResolutionError("the complex is not exact")
    return list(F.ranks)
