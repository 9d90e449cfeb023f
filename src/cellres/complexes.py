"""Labeled cell complexes and their reduced rational homology.

A complex carries one monomial label per vertex, held as its exponent
tuple.  A face holds its vertices as their sorted tuple, whose order
orients a simplex, the lcm of their labels as its label, and the ids of
its boundary faces beside their signs, one signs tuple per dimension in
a grown simplicial complex.  Grade k holds the faces of dimension k-1
(grade 0 is the empty face alone, grade 1 the vertices).  A complex is
its tuple of faces in canonical (dim, vertices) order, ids 0, 1, ...:
each grade is one range of ids, and facets are found when asked for.
Complexes are immutable once built.

Simplicial complexes (Taylor, Scarf, JSON facets) are grown level by
level by one builder, ``grow_simplicial``, correct by construction with
orientation from the vertex order; only their input is checked.
Polyhedral input supplies the full signed face lattice, validated once
at the door: boundaries drop exactly one dimension and two boundary
steps cancel.  Degree restrictions are filters of a built complex,
chosen by vertex set, not rebuilt: a face label divides z^b iff every
vertex label does.  A complex is simplicial when every face of
dimension d has d+1 vertices and no two faces share a vertex set.

The exactness test decides each degree restriction in three stages, each
on what the last one left; homology alone runs the last two.  First, on
a simplicial complex, strong collapses (Barmak and Minian, "Strong
homotopy types, nerves and collapses", Discrete Comput. Geom. 47, 2012)
run on per-vertex star bitmasks: a cone is acyclic, and a vertex v is
deleted when every face through v extends by one other vertex w (v is
dominated by w), which keeps the homotopy type.  Both tests are
popcounts, by one lemma: in a complex closed under subsets, F -> F - {v}
maps the faces that contain v injectively to those that do not, so the
faces containing v are at most half of all faces, exactly half iff the
complex is a cone on v; inside the star of v the same count decides
whether v is dominated.  A complex that is not simplicial, as polyhedral
input may be, skips this stage.  Second, coreductions (Mrozek and Batko,
2009): a cell with exactly one boundary cell left is removed with that
cell.  Third, exact rank (``cellres.rank``) runs only on the cells left.
``FaceIndex`` does this on a restriction given as a bitmask of face ids,
selected by vertex stars: all faces but the stars of the vertices whose
labels do not divide z^b.  So the exactness test over the lcm lattice
builds no complex per lattice point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from operator import and_, le

from cellres.errors import (
    CapExceededError,
    DimensionMismatch,
    InvalidComplexError,
    VerificationError,
)
from cellres.monomial import Monomial, MonomialIdeal
from cellres.rank import matrix_rank

# Taylor, Scarf and facet-input faces and lcm-lattice points are counted
# as they are enumerated, and an enumeration that passes this many is
# refused.  Faces are counted as each one is made, so a refusal names the
# cap plus one; the 2^r Taylor faces are refused before any is made.  On
# v vertices each count is at most 2^v, so 20 always pass.
ENUMERATION_CAP = 2 ** 20


def check_cap(count: int, what: str) -> None:
    """Raise ``CapExceededError`` when an enumeration has reached ``count``
    ``what``, past ``ENUMERATION_CAP`` (read at each call)."""
    if count > ENUMERATION_CAP:
        raise CapExceededError(f"{count} {what} exceeds the cap {ENUMERATION_CAP}")


@dataclass(frozen=True, slots=True)
class Face:
    """One cell: canonical id, vertices, dimension, boundary, signs, label.

    ``vertices`` is the sorted tuple of vertex indices, whose order orients
    a simplex: dropping vertex j has sign (-1)^j.  ``label`` is the exponent
    tuple of the lcm of their labels; the empty face has dimension -1 and
    label 1, the zero tuple.  ``boundary`` is the ascending tuple of face
    ids one dimension down and ``signs`` their incidences, position by
    position.  In a simplicial complex grown by ``grow_simplicial`` position
    p of a d-face has sign (-1)^(d - p), one ``signs`` object per grade.
    """

    id: int
    vertices: tuple
    dim: int
    boundary: tuple
    signs: tuple
    label: tuple


class LabeledComplex:
    """A polyhedral cell complex with monomial vertex labels, held as
    exponent tuples."""

    __slots__ = ("labels", "faces", "_starts")

    def __init__(self, labels, faces):
        # built via the factory functions below; not validated here
        self.labels = labels
        self.faces = faces
        starts = [i for i, f in enumerate(faces) if i == 0 or f.dim != faces[i - 1].dim]
        self._starts = (*starts, len(faces))

    @property
    def nvars(self) -> int:
        return len(self.labels[0]) if self.labels else 0

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
        return tuple(f.vertices[0] for f in self.grade(1))

    def facets(self):
        """Maximal nonempty faces: those in no face's boundary."""
        bounded = {i for f in self.faces for i in f.boundary}
        return tuple(f for f in self.faces if f.dim >= 0 and f.id not in bounded)

    def is_simplicial(self) -> bool:
        """Every face of dimension d has d+1 vertices and no two faces
        share a vertex set, as for Taylor, Scarf and JSON-facet complexes."""
        return (all(len(f.vertices) == f.dim + 1 for f in self.faces)
                and len({f.vertices for f in self.faces}) == len(self.faces))

    def __repr__(self):
        counts = [len(self.grade(k)) for k in range(self.num_grades)]
        return f"<LabeledComplex dim={self.dim} grade sizes={counts}>"


def _labels(labels) -> tuple:
    """Caller-supplied vertex labels, each a Monomial or an exponent
    sequence, checked once as a Monomial and kept as exponent tuples."""
    labels = tuple((m if isinstance(m, Monomial) else Monomial(m)).exps for m in labels)
    if any(len(m) != len(labels[0]) for m in labels):
        raise DimensionMismatch("vertex labels have mixed variable counts")
    return labels


def grow_simplicial(labels, vertices, keep, what) -> LabeledComplex:
    """The simplicial complex on the sorted ``vertices`` whose faces t, with
    the lcm of their vertex labels as label, pass ``keep(t, label)``, which
    must pass every nonempty subset of a face it passes.

    Two k-faces sharing their first k-1 vertices join into a candidate,
    dropped unless all its k-subsets are faces.  A lexicographic level
    yields the next in lexicographic order, so ids are canonical as faces
    are made, and a sorted simplex drops vertex j with sign (-1)^j, so the
    faces of a level share one signs tuple.  Faces are counted, the empty
    one included, as each one is made, so a refusal names the cap plus one.
    """
    faces = [Face(0, (), -1, (), (), (0,) * len(labels[0]) if labels else ())]
    faces += (Face(i, (v,), 0, (0,), (1,), labels[v]) for i, v in enumerate(vertices, 1))
    cap = ENUMERATION_CAP
    check_cap(len(faces), what)
    ids = {f.vertices: f.id for f in faces}  # vertex tuple -> face id
    level = [((), list(vertices))]  # faces grouped by all but their last vertex
    while level:
        k = len(level[0][0])
        # dropping a later vertex gives an earlier face, so descending j sorts the ids
        signs = tuple(-1 if j & 1 else 1 for j in reversed(range(k + 2)))
        grown = []
        for prefix, lasts in level:
            for x, a in enumerate(lasts):
                face = prefix + (a,)
                fid = ids[face]
                kept = []
                for b in lasts[x + 1:]:
                    cand = face + (b,)
                    # dropping b or a gives a joined face; the other drops must be faces too
                    drops = [ids.get(cand[:j] + cand[j + 1:]) for j in reversed(range(k))]
                    if None in drops:
                        continue
                    label = tuple(map(max, faces[fid].label, labels[b]))
                    if keep(cand, label):
                        boundary = (fid, ids[prefix + (b,)], *drops)
                        ids[cand] = len(faces)
                        faces.append(Face(len(faces), cand, k + 1, boundary, signs, label))
                        if len(faces) > cap:
                            check_cap(len(faces), what)
                        kept.append(b)
                if kept:
                    grown.append((face, kept))
        level = grown
    return LabeledComplex(labels, tuple(faces))


def simplicial_from_facets(labels, facets) -> LabeledComplex:
    """Subset closure of the given facets: ``grow_simplicial`` keeps a face
    iff some facet holds all its vertices.  Only the input is checked."""
    facets = [set(f) for f in facets]
    if not facets:
        raise InvalidComplexError("no facets given")
    if not all(facets):
        raise InvalidComplexError("empty facet")
    labels = _labels(labels)
    holders = {}  # vertex -> bitmask of the facets that hold it
    for i, facet in enumerate(facets):
        holders.update((v, holders.get(v, 0) | 1 << i) for v in facet)
    for v in sorted(holders):
        if not 0 <= v < len(labels):
            raise InvalidComplexError(f"vertex index {v} out of range")
    return grow_simplicial(labels, sorted(holders),
                           lambda t, label: reduce(and_, map(holders.__getitem__, t)), "faces")


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
            vertices[key] = (part,)
            continue
        sub_verts = set()
        for sub, sign in part:
            if sub not in specs:
                raise InvalidComplexError(f"face {key!r}: boundary face {sub!r} missing")
            if specs[sub][0] != dim - 1:
                raise InvalidComplexError(f"face {key!r}: non-graded boundary")
            if sign not in (1, -1):
                raise InvalidComplexError(f"face {key!r}: sign must be +1 or -1")
            sub_verts.update(vertices[sub])
        if len({sub for sub, _ in part}) != len(part):
            raise InvalidComplexError(f"face {key!r}: repeated boundary face")
        if len(sub_verts) < dim + 1:
            raise InvalidComplexError(f"face {key!r}: dimension exceeds vertex count")
        vertices[key] = tuple(sorted(sub_verts))

    order = sorted(specs, key=lambda k: (specs[k][0], vertices[k], str(k)))
    ids = {key: i for i, key in enumerate(order, 1)}  # id 0 is the empty face
    faces = [Face(0, (), -1, (), (), (0,) * len(labels[0]) if labels else ())]
    for key in order:
        dim, part = specs[key]
        if dim == 0:
            boundary, signs = (0,), (1,)
        else:  # not empty: a face with no boundary face was refused above
            boundary, signs = zip(*sorted((ids[b], s) for b, s in part))
        # one max per variable over the face's vertex labels, also for a single vertex
        label = tuple(map(max, zip(*(labels[v] for v in vertices[key]))))
        faces.append(Face(ids[key], vertices[key], dim, boundary, signs, label))
    # two boundary steps must cancel, down to the empty face; reported in input order
    for key in specs:
        if not _boundary_squares_to_zero(faces, faces[ids[key]]):
            raise InvalidComplexError(f"face {key!r}: boundary of boundary is nonzero")
    return LabeledComplex(labels, tuple(faces))


def _boundary_squares_to_zero(faces, f) -> bool:
    """Whether the boundary of the boundary of face f is zero: the signed
    paths f -> g -> h through ``faces`` cancel for every face h."""
    acc = {}
    for sid, sign in zip(f.boundary, f.signs):
        g = faces[sid]
        for sid2, sign2 in zip(g.boundary, g.signs):
            acc[sid2] = acc.get(sid2, 0) + sign * sign2
    return not any(acc.values())


def _int(v) -> int:
    # face specs usually come from JSON, where a float or bool would truncate
    if type(v) is not int:
        raise TypeError(f"expected an integer, found {v!r}")
    return v


def taylor_complex(M: MonomialIdeal) -> LabeledComplex:
    """Full simplex on the minimal generators (2^r faces)."""
    M.require_nonzero()
    r = M.num_gens
    check_cap(2 ** r, "Taylor faces")
    return grow_simplicial(_labels(M.gens), range(r), lambda t, label: True, "Taylor faces")


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
    allowed = {v for v, m in enumerate(X.labels) if all(map(le, m, b))}
    ids = {}
    faces = []
    for f in X.faces:
        if allowed.issuperset(f.vertices):
            k = ids[f.id] = len(faces)
            if f.id != k:
                f = Face(k, f.vertices, f.dim, tuple(ids[i] for i in f.boundary), f.signs, f.label)
            faces.append(f)
    return LabeledComplex(X.labels, tuple(faces))


class FaceIndex:
    """The faces of X indexed for degree restriction and for homology.

    The index holds X and one star bitmask per vertex, the faces that
    contain it; each face's dimension and boundary are read off X.
    ``leq(b)`` gives the face ids of X restricted below z^b without
    building a complex: a face label is the lcm of its vertex labels, so
    it divides z^b iff the face lies in no star of a vertex whose label
    does not, and the restriction is all faces but those stars.

    ``core(b)`` decides the same restriction in three stages.  First, when
    ``X.is_simplicial()``, strong collapses (Barmak and Minian, 2012) run
    on the restriction's mask m and the stars of its vertices.  A complex
    closed under subsets maps the faces that contain v injectively to
    those that do not, by F -> F - {v}: so 2 |m & star(v)| <= |m|, with
    equality exactly when m is a cone on v, which is acyclic.  Inside the
    star, 2 |m & star(v) & star(w)| <=
    |m & star(v)|, with equality exactly when every face of m containing
    v extends by w: v is dominated by w, and deleting v (m &= ~star(v))
    is a strong collapse, which keeps the homotopy type.  When one vertex
    or none is left, or a cone is found, the restriction is acyclic and
    ``core`` gives None; otherwise it gives the ids of the core, where no
    vertex is dominated.  A complex that is not simplicial, as polyhedral
    input may be, skips this stage: its core is the whole restriction.
    Polyhedral input that is simplicial is a simplicial complex: its
    validated boundaries make every cell's boundary all of its facets.

    ``reduced_ranks(ids)`` gives the reduced homology of the subcomplex
    on a set of face ids closed under boundaries.  It first gathers the
    cofaces of those cells that lie among them, in id order, and removes
    coreduction pairs (a, b), first in, first out: b has a as its only
    live boundary face (the coreduction homology algorithm of Mrozek and
    Batko, 2009).  By the Gaussian-elimination lemma of reduction
    homology (Kaczynski, Mrozek and Slusarek, 1998) such a pair with
    incidence +-1 can be removed keeping every reduced homology rank, and
    the other boundaries change only by losing a or b.  Exact rank then
    runs on the cells left.
    """

    __slots__ = ("_X", "_all", "_stars", "_simplicial")

    def __init__(self, X: LabeledComplex):
        faces = X.faces
        n = len(faces)
        self._X = X
        self._all = (1 << n) - 1
        # (vertex label, star mask) per vertex, in vertex order; each row is a
        # binary numeral where face i is character n-1-i
        rows = {v: bytearray(b"0" * n) for v in X.vertices()}
        for f in faces:
            for v in f.vertices:
                rows[v][n - 1 - f.id] = 49  # "1"
        self._stars = [(X.labels[v], int(row, 2)) for v, row in rows.items()]
        self._simplicial = X.is_simplicial()

    def _select(self, b):
        """Bitmask of the faces whose label divides z^b, and the stars of
        the vertices whose label does."""
        dropped, live = 0, []
        for label, star in self._stars:
            if all(map(le, label, b)):
                live.append(star)
            else:
                dropped |= star
        return self._all ^ dropped, live

    @staticmethod
    def _ids(mask) -> list:
        return [m.start() for m in re.finditer("1", format(mask, "b")[::-1])]

    def leq(self, b) -> list:
        """Ids, ascending, of the faces whose label divides z^b."""
        return self._ids(self._select(b)[0])

    def core(self, b):
        """None if the restriction below z^b is decided acyclic by strong
        collapses, else the ids, ascending, of the core they leave, which
        has the restriction's reduced homology (see the class docstring)."""
        mask, live = self._select(b)
        if not self._simplicial:
            return self._ids(mask)
        while len(live) > 1:
            local = [mask & star for star in live]
            counts = [m.bit_count() for m in local]
            if 2 * max(counts) == mask.bit_count():
                return None  # a cone
            # v never dominates itself: 2c != c for c >= 1
            for i, (m, c) in enumerate(zip(local, counts)):
                if any(2 * (m & other).bit_count() == c for other in local):
                    mask ^= m
                    del live[i]
                    break
            else:
                return self._ids(mask)
        return None

    def reduced_ranks(self, ids) -> list:
        """Reduced homology ranks, k = -1 .. dim X, of the subcomplex on
        ``ids``, which must be closed under boundaries."""
        faces = self._X.faces
        live = set(ids)
        order = sorted(live)
        nbd = {i: len(faces[i].boundary) for i in order}  # live boundary faces
        cob = {i: [] for i in order}  # cofaces among ids, ascending
        for i in order:
            for j in faces[i].boundary:
                cob[j].append(i)
        # first in, first out: the loop reaches the cells appended to it
        todo = [i for i in order if nbd[i] == 1]
        for b in todo:
            if b not in live or nbd[b] != 1:
                continue
            a, sign = next(p for p in zip(faces[b].boundary, faces[b].signs) if p[0] in live)
            if sign != 1 and sign != -1:
                raise VerificationError(f"faces {a} and {b}: incidence {sign} is not a unit")
            live.discard(a)
            live.discard(b)
            for c in (a, b):
                for j in cob[c]:
                    if j in live:
                        nbd[j] -= 1
                        if nbd[j] == 1:
                            todo.append(j)

        grades = [[] for _ in range(self._X.num_grades)]
        for i in sorted(live):
            grades[faces[i].dim + 1].append(i)
        ranks = [0]  # ranks[k]: rank of the boundary map from grade k to grade k-1
        for rows, cols in zip(grades, grades[1:]):
            rank = 0
            if rows and cols:
                pos = {i: p for p, i in enumerate(rows)}
                mat = [[0] * len(cols) for _ in rows]
                for c, j in enumerate(cols):
                    for i, sign in zip(faces[j].boundary, faces[j].signs):
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


def lcm_lattice(X: LabeledComplex):
    """Exponent tuples of all lcms of nonempty vertex-label subsets, plus
    the zero vector, sorted.

    Restricting X below any degree is the same as restricting below some
    lattice point, so acyclicity checks only need these degrees.  It is
    built one vertex label g at a time: the lcms of the subsets of the
    labels before g (zero for the empty subset) gain their lcms with g.
    The count is checked after each step, which at most doubles it, so no
    more than twice the cap of points are found before a refusal.
    """
    found = {(0,) * X.nvars}
    for v in X.vertices():
        g = X.labels[v]
        found |= {tuple(map(max, x, g)) for x in found}
        check_cap(len(found), "lcm-lattice points")
    return tuple(sorted(found))
