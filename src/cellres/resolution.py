"""Free complexes supported on labeled cell complexes.

``build_complex`` turns a labeled complex into the graded complex of
free modules whose differential sends a face basis element to the
signed sum of its boundary faces scaled by label quotients.  It decides
exactness and minimality once, as the ``exact`` and ``minimal`` fields
every consumer reads.  Exactness is combinatorial: the complex resolves
the ideal iff every degree-restricted subcomplex is acyclic, checked
over the lcm lattice.  Minimality means no differential entry is a
unit, i.e. incident faces never share a label.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from cellres.complexes import VERTEX_CAP, FaceIndex, LabeledComplex, lcm_lattice
from cellres.errors import LabelMismatchError, NotMinimalError, NotResolutionError
from cellres.monomial import Monomial, MonomialIdeal


@dataclass(frozen=True)
class DiffEntry:
    """One nonzero matrix entry: sign * quotient at (row, col)."""

    row: int
    col: int
    sign: int
    quotient: Monomial


@dataclass(frozen=True)
class FreeComplex:
    """Ranks, sparse differentials, exactness, minimality.

    ``diffs[k-1]`` is the matrix from grade k to grade k-1, rows and
    columns indexed by the canonical face order within each grade.
    """

    ideal: MonomialIdeal
    complex: LabeledComplex
    ranks: tuple
    diffs: tuple
    exact: bool
    minimal: bool


def build_complex(X: LabeledComplex, M: MonomialIdeal, cap: int = VERTEX_CAP) -> FreeComplex:
    """Free complex supported on X over the generators of M, exactness
    (lcm lattice capped at ``cap`` vertices) and minimality decided.

    The vertex labels of X must be exactly the minimal generators.
    X with more than ``cap`` vertices raises ``CapExceededError``.
    """
    if {m.exps for m in X.vertex_labels()} != {g.exps for g in M.gens}:
        raise LabelMismatchError("vertex labels are not the minimal generators of the ideal")
    ranks = tuple(len(X.grade(k)) for k in range(X.num_grades))
    diffs = []
    for k in range(1, X.num_grades):
        first = X.grade(k - 1)[0].id  # a face's row is its id less the first of its grade
        entries = []  # in (col, row) order: each face's boundary is sorted by id
        for col, face in enumerate(X.grade(k)):
            for sid, sign in face.boundary:
                quotient = face.label.quotient(X.face(sid).label)
                entries.append(DiffEntry(sid - first, col, sign, quotient))
        diffs.append(tuple(entries))
    return FreeComplex(M, X, ranks, tuple(diffs),
                       exact=is_resolution(X, cap), minimal=is_minimal(diffs))


def verify_chain(F: FreeComplex) -> bool:
    """Check f_k . f_{k+1} = 0 exactly, as matrices of polynomials."""
    for k in range(len(F.diffs) - 1):
        lower = {}
        for e in F.diffs[k]:
            lower.setdefault(e.col, []).append(e)
        acc = {}
        for e2 in F.diffs[k + 1]:
            for e1 in lower.get(e2.row, ()):
                key = (e1.row, e2.col, tuple(map(add, e1.quotient.exps, e2.quotient.exps)))
                acc[key] = acc.get(key, 0) + e1.sign * e2.sign
        if any(acc.values()):
            return False
    return True


def is_resolution(X: LabeledComplex, cap: int = VERTEX_CAP) -> bool:
    """Exactness criterion: every degree restriction of X is acyclic.

    Each restriction is a set of X's face ids, reduced in place; no
    complex is built per lattice point.
    """
    points = lcm_lattice(X, cap)  # refuses past the cap before X is indexed
    index = FaceIndex(X)
    return all(index.is_acyclic(index.leq(beta.exps)) for beta in points)


def is_minimal(diffs) -> bool:
    """No unit entry in the differentials; equivalently, incident faces
    always have distinct labels."""
    return not any(e.quotient.is_unit() for diff in diffs for e in diff)


def betti_ranks(F: FreeComplex):
    """Ranks of a minimal resolution (the graded Betti-number totals).

    Refuses non-minimal or non-exact complexes, whose ranks overestimate.
    """
    if not F.minimal:
        raise NotMinimalError("ranks of a non-minimal complex overestimate")
    if not F.exact:
        raise NotResolutionError("the complex is not exact")
    return list(F.ranks)
