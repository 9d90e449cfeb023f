"""Labeled cell complexes and their reduced rational homology.

A complex carries one monomial label per vertex; every face is labeled
by the lcm of its vertex labels.  Faces are graded so that grade k holds
the faces of dimension k-1 (grade 0 is the empty face alone, grade 1 the
vertices).  Complexes are immutable once built, and every constructor
validates the signed incidence structure once, where the complex
enters: boundaries must drop exactly one dimension and the composition
of two boundary steps must cancel.  Degree restrictions are filters of
a validated complex, so they are selected from it, not rebuilt.

Simplicial complexes get their orientation from the vertex order; for
polyhedral input the caller supplies the full signed face lattice and we
validate rather than infer signs.
"""

from __future__ import annotations

from dataclasses import dataclass

from cellres.errors import CapExceededError, DimensionMismatch, InvalidComplexError
from cellres.monomial import Monomial, MonomialIdeal, lcm_many
from cellres.rank import matrix_rank

# Taylor complexes and lcm lattices enumerate vertex subsets; they and
# Scarf complexes refuse to run past this many vertices unless overridden.
VERTEX_CAP = 20

_EMPTY_KEY = ()


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

    __slots__ = ("labels", "faces", "_grades", "_facet_ids")

    def __init__(self, labels, faces, _grades, _facet_ids):
        # built via the factory functions below; not validated here
        self.labels = labels
        self.faces = faces
        self._grades = _grades
        self._facet_ids = _facet_ids

    @property
    def nvars(self) -> int:
        return self.labels[0].nvars if self.labels else 0

    @property
    def dim(self) -> int:
        return len(self._grades) - 2

    def grade(self, k: int):
        """Faces of dimension k-1 (grade 0 is the empty face)."""
        if 0 <= k < len(self._grades):
            return self._grades[k]
        return ()

    @property
    def num_grades(self) -> int:
        return len(self._grades)

    def face(self, ident: int) -> Face:
        return self.faces[ident]

    def vertices(self):
        """Vertex indices present in the complex, sorted."""
        return tuple(sorted(next(iter(f.vertices)) for f in self.grade(1)))

    def vertex_labels(self):
        return tuple(self.labels[v] for v in self.vertices())

    def facets(self):
        """Maximal nonempty faces."""
        return tuple(self.faces[i] for i in self._facet_ids)

    def has_nonempty_faces(self) -> bool:
        return self.dim >= 0

    def __repr__(self):
        counts = [len(g) for g in self._grades]
        return f"<LabeledComplex dim={self.dim} grade sizes={counts}>"


def _build_complex(labels, entries) -> LabeledComplex:
    """Validate a face table and produce the canonical complex.

    ``entries`` maps key -> (dim, vertices or None, boundary list of
    (key, sign)).  Its two callers, the constructors below, put the
    empty face under the key () and give each vertex its one index and
    the boundary ((), +1); higher faces derive their vertices bottom-up
    when none are given.
    """
    labels = tuple(m if isinstance(m, Monomial) else Monomial(m) for m in labels)
    if labels:
        n = labels[0].nvars
        for m in labels:
            if m.nvars != n:
                raise DimensionMismatch("vertex labels have mixed variable counts")

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
        if verts is not None and frozenset(verts) != sub_verts:
            raise InvalidComplexError(f"face {key!r}: vertex set inconsistent with boundary")
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
    return _assemble(labels, tuple(faces))


def _assemble(labels, faces) -> LabeledComplex:
    """Grades and facets of canonically ordered faces (ids 0, 1, ...)."""
    max_dim = faces[-1].dim
    grades = tuple(tuple(f for f in faces if f.dim == k - 1) for k in range(max_dim + 2))
    bounded = {i for f in faces for i, _ in f.boundary}
    facet_ids = tuple(f.id for f in faces if f.dim >= 0 and f.id not in bounded)
    return LabeledComplex(labels, faces, grades, facet_ids)


def simplicial_from_facets(labels, facets) -> LabeledComplex:
    """Subset-closure of the given facets, with orientation from vertex order.

    The boundary of a sorted simplex drops its j-th vertex with sign
    (-1)^j.
    """
    subsets = {_EMPTY_KEY}
    for facet in facets:
        vs = tuple(sorted(set(facet)))
        if not vs:
            raise InvalidComplexError("empty facet")
        _add_subsets(subsets, vs)
    if len(subsets) == 1:
        raise InvalidComplexError("no facets given")

    entries = {_EMPTY_KEY: (-1, None, ())}
    for t in subsets:
        if t == _EMPTY_KEY:
            continue
        if len(t) == 1:
            entries[t] = (0, frozenset(t), ((_EMPTY_KEY, 1),))
        else:
            boundary = tuple((t[:j] + t[j + 1:], (-1) ** j) for j in range(len(t)))
            entries[t] = (len(t) - 1, frozenset(t), boundary)
    return _build_complex(labels, entries)


def _add_subsets(subsets, vs):
    # closure by recursion on one dropped vertex; cheap because revisits stop early
    if vs in subsets:
        return
    subsets.add(vs)
    if len(vs) > 1:
        for j in range(len(vs)):
            _add_subsets(subsets, vs[:j] + vs[j + 1:])


def polyhedral_from_incidence(labels, face_specs) -> LabeledComplex:
    """Build from explicit faces with signed boundary lists.

    Each spec is a mapping with "id", "dim", and either "vertex" (an
    index into ``labels``, for dim 0) or "boundary" (a list of
    [face id, sign] pairs, for dim >= 1).  The empty face is implicit.
    """
    entries = {_EMPTY_KEY: (-1, None, ())}
    for spec in face_specs:
        key = spec["id"]
        dim = _int(spec["dim"])
        if isinstance(key, tuple):
            raise InvalidComplexError("face ids must be strings or integers")
        if key in entries:
            raise InvalidComplexError(f"duplicate face id {key!r}")
        if dim == 0:
            entries[key] = (0, frozenset((_int(spec["vertex"]),)), ((_EMPTY_KEY, 1),))
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

    A boundary face g of a face f has its vertices among f's, and labels
    are lcms of vertex labels, so label(g) divides label(f).  The kept
    faces are thus closed under boundaries: with X's incidences and
    signs they are a valid complex, so nothing is validated again.  A
    subsequence of X's canonical (dim, sorted vertices) order is
    canonical, so the kept faces are renumbered in X's order.
    """
    if X.labels and beta.nvars != X.nvars:
        raise DimensionMismatch(f"{beta.nvars} variables vs {X.nvars}")
    b = beta.exps
    ids = {}
    faces = []
    for f in X.faces:
        if all(e <= c for e, c in zip(f.label.exps, b)):
            k = ids[f.id] = len(faces)
            if f.id != k:
                f = Face(k, f.vertices, f.dim, tuple((ids[i], s) for i, s in f.boundary), f.label)
            faces.append(f)
    return _assemble(X.labels, tuple(faces))


def boundary_matrix(X: LabeledComplex, k: int):
    """Signed incidence matrix from grade k to grade k-1, as row lists."""
    rows = X.grade(k - 1)
    cols = X.grade(k)
    pos = {f.id: i for i, f in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for j, f in enumerate(cols):
        for sid, sign in f.boundary:
            mat[pos[sid]][j] = sign
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
    lattice point, so acyclicity checks only need these degrees.  The
    lattice is the closure of the labels under pairwise lcm.
    """
    verts = X.vertices()
    if len(verts) > cap:
        raise CapExceededError(f"{len(verts)} vertices exceeds the cap {cap}")
    n = X.nvars
    if not verts:
        return (Monomial((0,) * n),)
    gens = [X.labels[v].exps for v in verts]
    found = set(gens)
    frontier = list(found)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple(max(a, b) for a, b in zip(x, g))
            if y not in found:
                found.add(y)
                frontier.append(y)
    found.add((0,) * n)
    return tuple(Monomial(e) for e in sorted(found))
