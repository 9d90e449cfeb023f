"""Exact arithmetic for monomials and monomial ideals.

A monomial is an exponent vector over a fixed number of variables; a
monomial ideal is stored by its unique minimal generating set, kept in
lexicographic order so equal ideals are structurally equal.  Everything
here is immutable and hashable, so values can be shared freely between
concurrent tasks.
"""

from __future__ import annotations

import itertools
from operator import le

from cellres.errors import DimensionMismatch, ZeroIdealError


class Monomial:
    """An exponent vector: ``Monomial((2, 1, 0))`` is x^2*y in three variables.

    >>> a = Monomial((2, 1, 0))
    >>> b = Monomial((0, 1, 3))
    >>> lcm(a, b).exps
    (2, 1, 3)
    >>> a.divides(Monomial((2, 2, 0)))
    True
    """

    __slots__ = ("exps",)

    def __init__(self, exps):
        exps = tuple(exps)
        for e in exps:
            if type(e) is not int:  # int() would truncate 1.5 and read True as 1
                raise TypeError(f"exponent {e!r} in {exps!r} is not an integer")
            if e < 0:
                raise ValueError(f"negative exponent in {exps!r}")
        self.exps = exps

    @property
    def nvars(self) -> int:
        return len(self.exps)

    @property
    def support(self):
        """Indices of the variables that actually divide the monomial."""
        return tuple(i for i, e in enumerate(self.exps) if e > 0)

    def is_unit(self) -> bool:
        return not any(self.exps)

    def divides(self, other: Monomial) -> bool:
        _check_dims(self, other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def strictly_divides(self, other: Monomial) -> bool:
        """True iff self divides other/z_i for every variable z_i dividing other.

        >>> Monomial((0, 1)).strictly_divides(Monomial((2, 2)))
        True
        >>> Monomial((1, 0)).strictly_divides(Monomial((1, 1)))
        False
        """
        _check_dims(self, other)
        if other.is_unit():
            # no variable divides 1, so the condition is vacuous
            return True
        return all(a < b if b else a == 0 for a, b in zip(self.exps, other.exps))

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return f"Monomial({self.exps})"


def _check_dims(a, b):
    if a.nvars != b.nvars:
        raise DimensionMismatch(f"{a.nvars} variables vs {b.nvars}")


def lcm(a: Monomial, b: Monomial) -> Monomial:
    """Componentwise maximum of the exponent vectors."""
    _check_dims(a, b)
    return Monomial(max(x, y) for x, y in zip(a.exps, b.exps))


def _monomial(exps) -> Monomial:
    # trusted: exps is already a tuple of nonnegative ints
    m = object.__new__(Monomial)
    m.exps = exps
    return m


def _minimal_exps(unique) -> list:
    """The minimal elements of a set of exponent tuples, in lex order.

    In total-degree order every proper divisor comes first, and a
    non-minimal divisor is itself divided by a kept one, so testing each
    vector against the kept ones alone is enough.
    """
    kept = []
    for e in sorted(unique, key=sum):
        if not any(all(map(le, k, e)) for k in kept):
            kept.append(e)
    kept.sort()
    return kept


class MonomialIdeal:
    """A monomial ideal, held as its minimal generating set.

    The direct constructor insists the given generators are already
    pairwise incomparable; use :meth:`from_generators` to minimalize
    arbitrary input.  Membership is the usual divisibility test:

    >>> M = MonomialIdeal.from_generators(2, [(2, 0), (1, 1), (0, 2), (2, 1)])
    >>> [g.exps for g in M.gens]
    [(0, 2), (1, 1), (2, 0)]
    >>> Monomial((3, 1)) in M
    True
    >>> Monomial((1, 0)) in M
    False
    """

    __slots__ = ("nvars", "gens")

    def __init__(self, nvars: int, gens):
        gens = tuple(g if isinstance(g, Monomial) else Monomial(g) for g in gens)
        for g in gens:
            if g.nvars != nvars:
                raise DimensionMismatch(f"generator {g!r} in {nvars} variables")
        for g, h in itertools.combinations(gens, 2):
            if g.divides(h) or h.divides(g):
                raise ValueError(f"{g!r} and {h!r} are comparable: not a minimal generating set")
        self.nvars = nvars
        self.gens = tuple(sorted(gens, key=lambda m: m.exps))

    @classmethod
    def from_generators(cls, nvars: int, gens) -> MonomialIdeal:
        unique = {(g if isinstance(g, Monomial) else Monomial(g)).exps for g in gens}
        for e in unique:
            if len(e) != nvars:
                raise DimensionMismatch(f"generator {e!r} in {nvars} variables")
        return cls._trusted(nvars, _minimal_exps(unique))

    @classmethod
    def _trusted(cls, nvars: int, exps) -> MonomialIdeal:
        """Build from lex-sorted, pairwise incomparable exponent tuples of
        length nvars, skipping the checks of ``__init__``."""
        ideal = object.__new__(cls)
        ideal.nvars = nvars
        ideal.gens = tuple(_monomial(e) for e in exps)
        return ideal

    @property
    def num_gens(self) -> int:
        return len(self.gens)

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_unit()

    def require_nonzero(self):
        if self.is_zero():
            raise ZeroIdealError("operation needs at least one generator")

    def __contains__(self, m: Monomial) -> bool:
        if m.nvars != self.nvars:
            raise DimensionMismatch(f"{m.nvars} variables vs {self.nvars}")
        return any(g.divides(m) for g in self.gens)

    def subset_of(self, other: MonomialIdeal) -> bool:
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"{self.nvars} variables vs {other.nvars}")
        return all(g in other for g in self.gens)

    def intersect(self, other: MonomialIdeal) -> MonomialIdeal:
        """Intersection, generated by pairwise lcms of the generators."""
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"{self.nvars} variables vs {other.nvars}")
        pairwise = {tuple(map(max, g.exps, h.exps)) for g in self.gens for h in other.gens}
        return MonomialIdeal._trusted(self.nvars, _minimal_exps(pairwise))

    def intersect_irreducibles(self, exponents) -> MonomialIdeal:
        """Intersection with the irreducible ideals m^b, for the exponent
        tuples b in ``exponents``, folded on exponent tuples.

        m^b is generated by the z_i^(b_i) for i in S = supp(b), so the
        intersection is generated by the lcms of each running generator g
        with them.  When g_i >= b_i for some i in S, g lies in m^b, divides
        its own lcms and stays, minimal.  Any other g gives its raises: g
        with g_i set to b_i, one per i in S.  A raise h of g is a minimal
        generator iff g is the only running generator dividing it.  If
        another one, g', does, then either g' lies in m^b and divides h
        strictly, or the raise of g' at i divides h, strictly: were the two
        equal, g and g' would differ only at i, both below b_i there, and
        be comparable.  If none does, every generator of the intersection
        dividing h is divided by g, so it is a raise of g (g is not in
        m^b), and a raise of g at another variable does not divide h.  The
        zero vector stands for the zero ideal: the intersection with it
        has no generator.
        """
        gens = [g.exps for g in self.gens]
        for b in exponents:
            if len(b) != self.nvars:
                raise DimensionMismatch(f"{len(b)} variables vs {self.nvars}")
            support = [(i, v) for i, v in enumerate(b) if v]
            kept, raised = [], []
            for g in gens:
                if any(g[i] >= v for i, v in support):
                    kept.append(g)
                else:
                    raised += (g[:i] + (v,) + g[i + 1:] for i, v in support)
            kept += (h for h in raised if sum(all(map(le, g, h)) for g in gens) == 1)
            gens = kept
        gens.sort()
        return MonomialIdeal._trusted(self.nvars, gens)

    def max_degrees(self) -> tuple:
        """Componentwise maximum exponent over all generators."""
        self.require_nonzero()
        acc = (0,) * self.nvars
        for g in self.gens:
            acc = tuple(max(x, y) for x, y in zip(acc, g.exps))
        return acc

    def is_artinian(self) -> bool:
        """True iff the ideal contains a power of each variable: it is the
        unit ideal, or some generator is a pure power of each variable."""
        self.require_nonzero()
        pure = {g.support[0] for g in self.gens if len(g.support) == 1}
        return self.is_unit() or all(i in pure for i in range(self.nvars))

    def is_generic(self) -> bool:
        """Whenever two generators share a positive degree in some variable,
        a third generator must strictly divide their lcm."""
        self.require_nonzero()
        for g, h in itertools.combinations(self.gens, 2):
            if not any(a == b > 0 for a, b in zip(g.exps, h.exps)):
                continue
            joint = lcm(g, h)
            if not any(k.exps not in (g.exps, h.exps) and k.strictly_divides(joint)
                       for k in self.gens):
                return False
        return True

    def is_strongly_generic(self) -> bool:
        """No two generators share the same positive degree in any variable."""
        self.require_nonzero()
        for g, h in itertools.combinations(self.gens, 2):
            if any(a == b > 0 for a, b in zip(g.exps, h.exps)):
                return False
        return True

    def contained_in(self, irr: IrreducibleIdeal) -> bool:
        """True iff every generator lies in the irreducible ideal."""
        if irr.exponent.nvars != self.nvars:
            raise DimensionMismatch(f"{irr.exponent.nvars} variables vs {self.nvars}")
        return all(irr.contains_monomial(g) for g in self.gens)

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.nvars == other.nvars and self.gens == other.gens

    def __hash__(self):
        return hash((self.nvars, self.gens))

    def __repr__(self):
        return f"MonomialIdeal({self.nvars}, {[g.exps for g in self.gens]})"


def unit_ideal(nvars: int) -> MonomialIdeal:
    return MonomialIdeal(nvars, (Monomial((0,) * nvars),))


class IrreducibleIdeal:
    """An ideal generated by pure variable powers z_i^{b_i} (b_i > 0).

    Represented by the exponent vector b; coordinates with b_i = 0
    contribute no generator.  The all-zero vector stands for the zero
    ideal (not the unit ideal), matching the convention that it
    contains nothing nonzero.

    >>> irr = IrreducibleIdeal((2, 0, 1))
    >>> irr.support
    (0, 2)
    >>> irr.contains_monomial(Monomial((0, 5, 1)))
    True
    """

    __slots__ = ("exponent",)

    def __init__(self, exponent):
        self.exponent = exponent if isinstance(exponent, Monomial) else Monomial(exponent)

    @property
    def nvars(self) -> int:
        return self.exponent.nvars

    @property
    def support(self):
        return self.exponent.support

    def is_zero(self) -> bool:
        return self.exponent.is_unit()

    def contains_monomial(self, m: Monomial) -> bool:
        if m.nvars != self.nvars:
            raise DimensionMismatch(f"{m.nvars} variables vs {self.nvars}")
        return any(b > 0 and e >= b for e, b in zip(m.exps, self.exponent.exps))

    def contains(self, other: IrreducibleIdeal) -> bool:
        """True iff other is contained in self (as ideals)."""
        if other.nvars != self.nvars:
            raise DimensionMismatch(f"{other.nvars} variables vs {self.nvars}")
        return all(b == 0 or (s > 0 and b >= s)
                   for b, s in zip(other.exponent.exps, self.exponent.exps))

    def as_ideal(self) -> MonomialIdeal:
        n = self.nvars
        exps = self.exponent.exps
        # pure powers of distinct variables are pairwise incomparable
        powers = sorted((0,) * i + (b,) + (0,) * (n - i - 1) for i, b in enumerate(exps) if b > 0)
        return MonomialIdeal._trusted(n, powers)

    def __eq__(self, other):
        if not isinstance(other, IrreducibleIdeal):
            return NotImplemented
        return self.exponent == other.exponent

    def __hash__(self):
        return hash(("irr", self.exponent.exps))

    def __lt__(self, other):
        return self.exponent.exps < other.exponent.exps

    def __repr__(self):
        return f"IrreducibleIdeal({self.exponent.exps})"
