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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import le

from cellres.errors import CapExceededError, DimensionMismatch, InvalidComplexError
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

    def face(self, ident: int) -> Face:
        return self.faces[ident]

    def vertices(self):
        """Vertex indices present in the complex, sorted."""
        return tuple(sorted(next(iter(f.vertices)) for f in self.grade(1)))

    def vertex_labels(self):
        return tuple(self.labels[v] for v in self.vertices())

    def facets(self):
        """Maximal nonempty faces: those in no face's boundary."""
        bounded = {i for f in self.faces for i, _ in f.boundary}
        return tuple(f for f in self.faces if f.dim >= 0 and f.id not in bounded)

    def has_nonempty_faces(self) -> bool:
        return self.dim >= 0

    def __repr__(self):
        counts = [len(self.grade(k)) for k in range(self.num_grades)]
        return f"<LabeledComplex dim={self.dim} grade sizes={counts}>"


def _labels(labels) -> tuple:
    labels = tuple(m if isinstance(m, Monomial) else Monomial(m) for m in labels)
    if any(m.nvars != labels[0].nvars for m in labels):
        raise DimensionMismatch("vertex labels have mixed variable counts")
    return labels


def _build_complex(labels, entries) -> LabeledComplex:
    """Validate a polyhedral face table and produce the canonical complex.

    ``entries`` maps key -> (dim, vertices, boundary list of (key, sign)).
    The empty face sits under the key (); each vertex gives its one
    index and the boundary ((), +1); higher faces give None and derive
    their vertices bottom-up from their boundaries.
    """
    labels = _labels(labels)
    by_dim = sorted(entries.items(), key=lambda kv: kv[1][0])
    vertices = {}
    seen_vertices = set()
    for key, (dim, verts, boundary) in by_dim:
        if dim == -1:
            vertices[key] = frozenset()
            continue
        if dim == 0:
            v = next(iter(verts))
            if not 0 <= v < len(labels):
                raise InvalidComplexError(f"vertex index {v} out of range")
            if v in seen_vertices:
                raise InvalidComplexError(f"vertex index {v} declared twice")
            seen_vertices.add(v)
            vertices[key] = frozenset(verts)
            continue
        sub_verts = set()
        for sub_key, sign in boundary:
            if sub_key not in entries:
                raise InvalidComplexError(f"face {key!r}: boundary face {sub_key!r} missing")
            if entries[sub_key][0] != dim - 1:
                raise InvalidComplexError(f"face {key!r}: non-graded boundary")
            if sign not in (1, -1):
                raise InvalidComplexError(f"face {key!r}: sign must be +1 or -1")
            sub_verts |= vertices[sub_key]
        if len({sk for sk, _ in boundary}) != len(boundary):
            raise InvalidComplexError(f"face {key!r}: repeated boundary face")
        if len(sub_verts) < dim + 1:
            raise InvalidComplexError(f"face {key!r}: dimension exceeds vertex count")
        vertices[key] = frozenset(sub_verts)

    # two boundary steps must cancel; checked on keys for a better message
    for key, (dim, _, boundary) in entries.items():
        if dim < 1:
            continue
        acc = {}
        for sub_key, sign in boundary:
            for sub2_key, sign2 in entries[sub_key][2]:
                acc[sub2_key] = acc.get(sub2_key, 0) + sign * sign2
        if any(acc.values()):
            raise InvalidComplexError(f"face {key!r}: boundary of boundary is nonzero")

    order = sorted(entries, key=lambda k: (entries[k][0], sorted(vertices[k]), str(k)))
    ids = {key: i for i, key in enumerate(order)}
    faces = []
    for key in order:
        dim, _, boundary = entries[key]
        faces.append(Face(
            id=ids[key],
            vertices=vertices[key],
            dim=dim,
            boundary=tuple(sorted((ids[sk], s) for sk, s in boundary)),
            label=lcm_many((labels[v] for v in vertices[key]), labels[0].nvars if labels else 0),
        ))
    return LabeledComplex(labels, tuple(faces))


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
    """Build from explicit faces with signed boundary lists.

    Each spec is a mapping with "id", "dim", and either "vertex" (an
    index into ``labels``, for dim 0) or "boundary" (a list of
    [face id, sign] pairs, for dim >= 1).  The empty face is implicit.
    """
    entries = {(): (-1, None, ())}
    for spec in face_specs:
        key = spec["id"]
        dim = _int(spec["dim"])
        if isinstance(key, tuple):
            raise InvalidComplexError("face ids must be strings or integers")
        if key in entries:
            raise InvalidComplexError(f"duplicate face id {key!r}")
        if dim == 0:
            entries[key] = (0, frozenset((_int(spec["vertex"]),)), (((), 1),))
        elif dim >= 1:
            boundary = tuple((b, _int(s)) for b, s in spec["boundary"])
            entries[key] = (dim, None, boundary)
        else:
            raise InvalidComplexError("the empty face is implicit")
    return _build_complex(labels, entries)


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


def boundary_matrix(X: LabeledComplex, k: int):
    """Signed incidence matrix from grade k to grade k-1, as row lists."""
    rows = X.grade(k - 1)
    cols = X.grade(k)
    first = rows[0].id
    mat = [[0] * len(cols) for _ in rows]
    for j, f in enumerate(cols):
        for sid, sign in f.boundary:
            mat[sid - first][j] = sign
    return mat


def reduced_homology_ranks(X: LabeledComplex):
    """Ranks of reduced homology over the rationals, for k = -1 .. dim X.

    Computed from exact ranks of the augmented boundary matrices;
    entry [k+1] of the result is the rank in degree k.
    """
    sizes = [len(X.grade(k)) for k in range(X.num_grades)]
    ranks = [matrix_rank(boundary_matrix(X, k), sizes[k]) for k in range(1, X.num_grades)]
    ranks.append(0)
    out = []
    boundary_in = 0
    for k, size in enumerate(sizes):
        out.append(size - boundary_in - ranks[k])
        boundary_in = ranks[k]
    return out


def is_acyclic(X: LabeledComplex) -> bool:
    """Empty (no nonempty faces) or zero reduced homology throughout."""
    if not X.has_nonempty_faces():
        return True
    return all(r == 0 for r in reduced_homology_ranks(X))


def lcm_lattice(X: LabeledComplex, cap: int = VERTEX_CAP):
    """All lcms of nonempty vertex-label subsets, plus the zero vector.

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
    return tuple(Monomial(e) for e in sorted(found))
