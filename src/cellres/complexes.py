"""Labeled cell complexes and their reduced rational homology.

A complex carries one monomial label per vertex; every face is labeled
by the lcm of its vertex labels.  Faces are graded so that grade k holds
the faces of dimension k-1 (grade 0 is the empty face alone, grade 1 the
vertices).  A complex is its tuple of faces in canonical (dim, sorted
vertices) order, ids 0, 1, ...: each grade is one range of ids, and
facets are found when asked for.  Complexes are immutable once built.

Simplicial complexes (Taylor, Scarf, JSON facets) are correct by
construction, with orientation from the vertex order; only their input
is checked.  Polyhedral input supplies the full signed face lattice,
validated once at the door: boundaries drop exactly one dimension and
two boundary steps cancel.  Degree restrictions are filters of a built
complex, chosen by vertex set, not rebuilt: a face label divides z^b iff
every vertex label does.

Homology is computed by coreductions (Mrozek and Batko, 2009): a cell
with exactly one boundary cell left is removed with that cell, and
exact rank (``cellres.rank``) runs only on the cells left.
``FaceIndex`` does this on a restriction given as a set of face ids,
picked by per-variable bitmasks, so the exactness test over the lcm
lattice builds no complex per lattice point.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import combinations, groupby
from operator import le

from cellres.errors import (
    CapExceededError,
    DimensionMismatch,
    InvalidComplexError,
    VerificationError,
)
from cellres.monomial import Monomial, MonomialIdeal, lcm_many
from cellres.rank import matrix_rank

# Taylor complexes and lcm lattices enumerate vertex subsets; they and
# Scarf complexes refuse to run past this many vertices unless overridden.
VERTEX_CAP = 20

@dataclass(frozen=True)
class Face:
    """One cell: canonical id, vertex set, dimension, signed boundary, label.

    The empty face has dimension -1 and label 1.  ``boundary`` lists
    (face id, sign) pairs one dimension down.
    """

    id: int
    vertices: frozenset
    dim: int
    boundary: tuple
    label: Monomial


class LabeledComplex:
    """A polyhedral cell complex with monomial vertex labels."""

    __slots__ = ("labels", "faces", "_starts")

    def __init__(self, labels, faces):
        # built via the factory functions below; not validated here
        self.labels = labels
        self.faces = faces
        starts = [i for i, f in enumerate(faces) if i == 0 or f.dim != faces[i - 1].dim]
        self._starts = (*starts, len(faces))

    @property
    def nvars(self) -> int:
        return self.labels[0].nvars if self.labels else 0

    @property
    def dim(self) -> int:
        return self.num_grades - 2

    def grade(self, k: int):
        """Faces of dimension k-1 (grade 0 is the empty face)."""
        if 0 <= k < self.num_grades:
            return self.faces[self._starts[k]:self._starts[k + 1]]
        return ()

    @property
    def num_grades(self) -> int:
        return len(self._starts) - 1

    def vertices(self):
        """Vertex indices present in the complex, sorted."""
        return tuple(sorted(next(iter(f.vertices)) for f in self.grade(1)))

    def facets(self):
        """Maximal nonempty faces: those in no face's boundary."""
        bounded = {i for f in self.faces for i, _ in f.boundary}
        return tuple(f for f in self.faces if f.dim >= 0 and f.id not in bounded)

    def __repr__(self):
        counts = [len(self.grade(k)) for k in range(self.num_grades)]
        return f"<LabeledComplex dim={self.dim} grade sizes={counts}>"


def _labels(labels) -> tuple:
    labels = tuple(m if isinstance(m, Monomial) else Monomial(m) for m in labels)
    if any(m.nvars != labels[0].nvars for m in labels):
        raise DimensionMismatch("vertex labels have mixed variable counts")
    return labels


def simplicial_from_facets(labels, facets) -> LabeledComplex:
    """Subset-closure of the given facets, correct by construction.

    Faces are numbered in canonical (dim, sorted vertices) order.  A
    sorted simplex drops vertex j with sign (-1)^j, so two boundary steps
    cancel; its label is max(label(face without last vertex), last vertex
    label), that face coming earlier.  Only the input is checked.
    """
    closure = set()
    # largest first, so a facet inside one already taken adds nothing
    for vs in sorted({tuple(sorted(set(f))) for f in facets}, key=len, reverse=True):
        if not vs:
            raise InvalidComplexError("empty facet")
        if vs not in closure:
            closure.update(c for k in range(1, len(vs) + 1) for c in combinations(vs, k))
    if not closure:
        raise InvalidComplexError("no facets given")
    labels = _labels(labels)

    empty = (0,) * labels[0].nvars if labels else ()
    built = {(): (0, empty)}  # vertex tuple -> (face id, label exponents)
    faces = [Face(0, frozenset(), -1, (), Monomial(empty))]
    for t in sorted(closure, key=lambda t: (len(t), t)):
        if len(t) == 1:
            if not 0 <= t[0] < len(labels):
                raise InvalidComplexError(f"vertex index {t[0]} out of range")
            label = labels[t[0]]
            boundary = ((0, 1),)
        else:
            label = Monomial(map(max, built[t[:-1]][1], labels[t[-1]].exps))
            # dropping a later vertex gives an earlier face, so descending j sorts the ids
            boundary = tuple((built[t[:j] + t[j + 1:]][0], -1 if j & 1 else 1)
                             for j in reversed(range(len(t))))
        built[t] = (len(faces), label.exps)
        faces.append(Face(len(faces), frozenset(t), len(t) - 1, boundary, label))
    return LabeledComplex(labels, tuple(faces))


def polyhedral_from_incidence(labels, face_specs) -> LabeledComplex:
    """Build from explicit faces with signed boundary lists, validated once.

    Each spec is a mapping with "id", "dim", and either "vertex" (an
    index into ``labels``, for dim 0) or "boundary" (a list of
    [face id, sign] pairs, for dim >= 1).  The empty face is implicit:
    it is every vertex's boundary, with sign +1.  A face's vertex set is
    built bottom-up as the union of its boundary faces'.
    """
    specs = {}  # face id -> (dim, vertex index for dim 0, else boundary pairs)
    for spec in face_specs:
        key = spec["id"]
        dim = _int(spec["dim"])
        if key in specs:
            raise InvalidComplexError(f"duplicate face id {key!r}")
        if dim == 0:
            specs[key] = (0, _int(spec["vertex"]))
        elif dim >= 1:
            specs[key] = (dim, tuple((b, _int(s)) for b, s in spec["boundary"]))
        else:
            raise InvalidComplexError("the empty face is implicit")
    labels = _labels(labels)

    vertices = {}
    declared = set()
    for key, (dim, part) in sorted(specs.items(), key=lambda kv: kv[1][0]):
        if dim == 0:
            if not 0 <= part < len(labels):
                raise InvalidComplexError(f"vertex index {part} out of range")
            if part in declared:
                raise InvalidComplexError(f"vertex index {part} declared twice")
            declared.add(part)
            vertices[key] = frozenset((part,))
            continue
        sub_verts = set()
        for sub, sign in part:
            if sub not in specs:
                raise InvalidComplexError(f"face {key!r}: boundary face {sub!r} missing")
            if specs[sub][0] != dim - 1:
                raise InvalidComplexError(f"face {key!r}: non-graded boundary")
            if sign not in (1, -1):
                raise InvalidComplexError(f"face {key!r}: sign must be +1 or -1")
            sub_verts |= vertices[sub]
        if len({sub for sub, _ in part}) != len(part):
            raise InvalidComplexError(f"face {key!r}: repeated boundary face")
        if len(sub_verts) < dim + 1:
            raise InvalidComplexError(f"face {key!r}: dimension exceeds vertex count")
        vertices[key] = frozenset(sub_verts)

    nvars = labels[0].nvars if labels else 0
    order = sorted(specs, key=lambda k: (specs[k][0], sorted(vertices[k]), str(k)))
    ids = {key: i for i, key in enumerate(order, 1)}  # id 0 is the empty face
    faces = [Face(0, frozenset(), -1, (), lcm_many((), nvars))]
    for key in order:
        dim, part = specs[key]
        boundary = ((0, 1),) if dim == 0 else tuple(sorted((ids[b], s) for b, s in part))
        faces.append(Face(ids[key], vertices[key], dim, boundary,
                          lcm_many((labels[v] for v in vertices[key]), nvars)))
    # two boundary steps must cancel, down to the empty face; reported in input order
    for key in specs:
        acc = {}
        for sid, sign in faces[ids[key]].boundary:
            for sid2, sign2 in faces[sid].boundary:
                acc[sid2] = acc.get(sid2, 0) + sign * sign2
        if any(acc.values()):
            raise InvalidComplexError(f"face {key!r}: boundary of boundary is nonzero")
    return LabeledComplex(labels, tuple(faces))


def _int(v) -> int:
    # face specs usually come from JSON, where a float or bool would truncate
    if type(v) is not int:
        raise TypeError(f"expected an integer, found {v!r}")
    return v


def taylor_complex(M: MonomialIdeal, cap: int = VERTEX_CAP) -> LabeledComplex:
    """Full simplex on the minimal generators (2^r faces)."""
    M.require_nonzero()
    r = M.num_gens
    if r > cap:
        raise CapExceededError(f"{r} generators exceeds the vertex cap {cap}")
    return simplicial_from_facets(M.gens, [tuple(range(r))])


def restrict_leq(X: LabeledComplex, beta: Monomial) -> LabeledComplex:
    """Subcomplex of the faces whose label divides z^beta.

    A face label is the lcm of its vertex labels, so it divides z^beta
    iff its vertex set lies in the set of vertices whose labels do.  A
    boundary face has its vertices among its face's, so the kept faces
    are closed under boundaries: with X's incidences and signs they are
    a valid complex, so nothing is validated again.  A subsequence of
    X's canonical (dim, sorted vertices) order is canonical, so the kept
    faces are renumbered in X's order, each grade still one id range.
    """
    if X.labels and beta.nvars != X.nvars:
        raise DimensionMismatch(f"{beta.nvars} variables vs {X.nvars}")
    b = beta.exps
    allowed = {v for v, m in enumerate(X.labels) if all(map(le, m.exps, b))}
    ids = {}
    faces = []
    for f in X.faces:
        if f.vertices <= allowed:
            k = ids[f.id] = len(faces)
            if f.id != k:
                f = Face(k, f.vertices, f.dim, tuple((ids[i], s) for i, s in f.boundary), f.label)
            faces.append(f)
    return LabeledComplex(X.labels, tuple(faces))


class FaceIndex:
    """The faces of X indexed for degree restriction and for homology.

    ``leq(b)`` gives the face ids of X restricted below z^b without
    building a complex: for each variable, a sorted table holds every
    label exponent there with the bitmask of the faces whose exponent is
    at most it, so the restriction is n bisections and big-integer ANDs.

    ``reduced_ranks(ids)`` gives the reduced homology of the subcomplex
    on a set of face ids closed under boundaries.  It first removes
    coreduction pairs (a, b): b has a as its only live boundary face (the
    coreduction homology algorithm of Mrozek and Batko, 2009).  By the
    Gaussian-elimination lemma of reduction homology (Kaczynski, Mrozek
    and Slusarek, 1998) such a pair with incidence +-1 can be removed
    keeping every reduced homology rank, and the other boundaries change
    only by losing a or b.  Exact rank then runs on the cells left.
    """

    __slots__ = ("_dims", "_bd", "_cob", "_num_grades", "_tables", "_all")

    def __init__(self, X: LabeledComplex):
        faces = X.faces
        n = len(faces)
        self._dims = [f.dim for f in faces]
        self._bd = [f.boundary for f in faces]
        self._cob = [[] for _ in faces]
        for f in faces:
            for i, sign in f.boundary:
                self._cob[i].append((f.id, sign))
        self._num_grades = X.num_grades
        self._all = (1 << n) - 1
        self._tables = []
        for v in range(X.nvars):
            col = [f.label.exps[v] for f in faces]
            bits = bytearray(b"0" * n)  # a binary numeral: face i is character n-1-i
            values, masks = [], []
            for x, group in groupby(sorted(range(n), key=col.__getitem__), col.__getitem__):
                for i in group:
                    bits[n - 1 - i] = 49  # "1"
                values.append(x)
                masks.append(int(bits, 2))
            self._tables.append((values, masks))

    def leq(self, b) -> list:
        """Ids, ascending, of the faces whose label divides z^b."""
        mask = self._all
        for (values, masks), x in zip(self._tables, b):
            k = bisect_right(values, x)
            mask &= masks[k - 1] if k else 0
        return [m.start() for m in re.finditer("1", format(mask, "b")[::-1])]

    def reduced_ranks(self, ids) -> list:
        """Reduced homology ranks, k = -1 .. dim X, of the subcomplex on
        ``ids``, which must be closed under boundaries."""
        bd, cob = self._bd, self._cob
        live = set(ids)
        nbd = {i: len(bd[i]) for i in live}
        # first in, first out.  With collapses paired too, last in, first
        # out stranded cells of simplices of dimension 9 and up, which then
        # went to rank; coreductions alone left no cell of a g5-class Scarf
        # complex's restrictions in either order
        todo = deque(i for i in sorted(live) if nbd[i] == 1)
        while todo:
            b = todo.popleft()
            if b not in live or nbd[b] != 1:
                continue
            a, sign = next(p for p in bd[b] if p[0] in live)
            if sign != 1 and sign != -1:
                raise VerificationError(f"faces {a} and {b}: incidence {sign} is not a unit")
            live.discard(a)
            live.discard(b)
            for c in (a, b):
                for j, _ in cob[c]:
                    if j in live:
                        nbd[j] -= 1
                        if nbd[j] == 1:
                            todo.append(j)

        grades = [[] for _ in range(self._num_grades)]
        for i in sorted(live):
            grades[self._dims[i] + 1].append(i)
        ranks = [0]  # ranks[k]: rank of the boundary map from grade k to grade k-1
        for rows, cols in zip(grades, grades[1:]):
            rank = 0
            if rows and cols:
                pos = {i: p for p, i in enumerate(rows)}
                mat = [[0] * len(cols) for _ in rows]
                for c, j in enumerate(cols):
                    for i, sign in bd[j]:
                        if i in pos:
                            mat[pos[i]][c] = sign
                rank = matrix_rank(mat, len(cols))
            ranks.append(rank)
        ranks.append(0)
        return [len(g) - ranks[k] - ranks[k + 1] for k, g in enumerate(grades)]

    def is_acyclic(self, ids) -> bool:
        """Whether the subcomplex on ``ids`` (closed under boundaries) has
        no nonempty face or zero reduced homology throughout."""
        return len(ids) <= 1 or not any(self.reduced_ranks(ids))


def reduced_homology_ranks(X: LabeledComplex):
    """Ranks of reduced homology over the rationals, for k = -1 .. dim X.

    Entry [k+1] of the result is the rank in degree k.  Coreduction
    pairs are removed first and exact rank runs on the rest; see
    ``FaceIndex``.
    """
    return FaceIndex(X).reduced_ranks(range(len(X.faces)))


def is_acyclic(X: LabeledComplex) -> bool:
    """Empty (no nonempty faces) or zero reduced homology throughout."""
    return FaceIndex(X).is_acyclic(range(len(X.faces)))


def lcm_lattice(X: LabeledComplex, cap: int = VERTEX_CAP):
    """Exponent tuples of all lcms of nonempty vertex-label subsets, plus
    the zero vector, sorted.

    Restricting X below any degree is the same as restricting below some
    lattice point, so acyclicity checks only need these degrees.  It is
    built one vertex label g at a time: the lcms of the subsets of the
    labels before g (zero for the empty subset) gain their lcms with g.
    """
    verts = X.vertices()
    if len(verts) > cap:
        raise CapExceededError(f"{len(verts)} vertices exceeds the cap {cap}")
    found = {(0,) * X.nvars}
    for v in verts:
        g = X.labels[v].exps
        found |= {tuple(map(max, x, g)) for x in found}
    return tuple(sorted(found))
