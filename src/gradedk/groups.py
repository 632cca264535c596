"""Grade groups: finitely generated abelian groups and finite groups by table.

Abelian groups are written additively inside the library (the literature's
multiplicative degree composition corresponds to coordinate addition here).
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import add, mod, mul, neg

from .snf import smith_normal_form


class GroupElement:
    """An element of a GradeGroup; immutable and hashable.

    For fg-abelian groups `coords` is a normalized integer tuple; for table
    groups it is the element's index in the table.
    """

    __slots__ = ("group", "coords")

    def __init__(self, group, coords):
        self.group = group
        self.coords = coords

    def __mul__(self, other):
        return self.group.combine(self, other)

    def inverse(self):
        return self.group.inverse(self)

    def is_identity(self):
        return self == self.group.identity

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and (self.group is other.group or self.group == other.group)
                and self.coords == other.coords)

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        if self.group.kind == "finite-table":
            return "g%d" % self.coords
        return "(" + ",".join(str(c) for c in self.coords) + ")"


class GradeGroup:
    """Either Z^r x Z/n1 x ... x Z/nk, or a finite group given by its table."""

    def __init__(self, kind, rank=0, torsion=(), table=None):
        self.kind = kind
        if kind == "fg-abelian":
            self.rank = rank
            self.torsion = tuple(int(n) for n in torsion)
            if rank < 0 or any(n < 2 for n in self.torsion):
                raise ValueError("bad fg-abelian signature")
            self.dim = rank + len(self.torsion)
            self._identity_coords = (0,) * self.dim
        elif kind == "finite-table":
            self.table = [list(row) for row in table]
            self.size = len(self.table)
            self._check_table()
        else:
            raise ValueError("unknown group kind %r" % kind)

    # -- constructors -------------------------------------------------

    @staticmethod
    def fg_abelian(rank, torsion=()):
        return GradeGroup("fg-abelian", rank=rank, torsion=torsion)

    @staticmethod
    def integers():
        return GradeGroup.fg_abelian(1)

    @staticmethod
    def cyclic(n):
        return GradeGroup.fg_abelian(0, (n,))

    @staticmethod
    def product_of_cyclic(*orders):
        return GradeGroup.fg_abelian(0, orders)

    @staticmethod
    def trivial():
        return GradeGroup.fg_abelian(0)

    @staticmethod
    def from_table(table):
        return GradeGroup("finite-table", table=table)

    @staticmethod
    @functools.cache
    def symmetric_3():
        """S3 with elements ordered e, (23), (13), (12), (123), (132), where
        (p q)(x) = p(q(x)); one shared group per process."""
        return GradeGroup.from_table([[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3],
                                      [2, 5, 0, 4, 3, 1], [3, 4, 5, 0, 1, 2],
                                      [4, 3, 1, 2, 5, 0], [5, 2, 3, 1, 0, 4]])

    @staticmethod
    @functools.cache
    def dihedral(n):
        """D_n of order 2n: r^i and s r^i as table indices i and n+i; one
        shared group per n per process."""
        size = 2 * n
        table = [[0] * size for _ in range(size)]
        for i in range(n):
            for j in range(n):
                table[i][j] = (i + j) % n
                table[i][j + n] = n + (i + j) % n
                table[i + n][j] = n + (i - j) % n
                table[i + n][j + n] = (i - j) % n
        return GradeGroup.from_table(table)

    # -- structure ----------------------------------------------------

    def _check_table(self):
        m = self.size
        for row in self.table:
            if len(row) != m or any(not (0 <= x < m) for x in row):
                raise ValueError("malformed multiplication table")
        ident = None
        for i in range(m):
            if all(self.table[i][j] == j and self.table[j][i] == j for j in range(m)):
                ident = i
                break
        if ident is None:
            raise ValueError("table has no identity")
        self._identity_coords = ident
        self._inverse_table = [None] * m
        for i in range(m):
            for j in range(m):
                if self.table[i][j] == ident and self.table[j][i] == ident:
                    self._inverse_table[i] = j
                    break
            if self._inverse_table[i] is None:
                raise ValueError("element %d has no inverse" % i)
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise ValueError("table is not associative at (%d,%d,%d)" % (i, j, k))

    def element(self, coords):
        if self.kind == "finite-table":
            i = int(coords)
            if not 0 <= i < self.size:
                raise ValueError("table index out of range")
            return GroupElement(self, i)
        coords = tuple(map(int, coords))
        if len(coords) != self.dim:
            raise ValueError("expected %d coordinates, got %d" % (self.dim, len(coords)))
        return GroupElement(self, self._normalize(coords))

    def _normalize(self, coords):
        if not self.torsion:
            return coords
        return coords[:self.rank] + tuple(map(mod, coords[self.rank:], self.torsion))

    @property
    def identity(self):
        return GroupElement(self, self._identity_coords)

    def _owns(self, g):
        return g.group is self or g.group == self

    def combine(self, g, h):
        if not (self._owns(g) and self._owns(h)):
            raise ValueError("elements belong to a different group")
        return GroupElement(self, self._mul(g.coords, h.coords))

    def inverse(self, g):
        if not self._owns(g):
            raise ValueError("element belongs to a different group")
        return GroupElement(self, self._inv(g.coords))

    def _mul(self, a, b):
        """`combine` on coordinates (table indices or normalized tuples)."""
        if self.kind == "finite-table":
            return self.table[a][b]
        return self._normalize(tuple(map(add, a, b)))

    def _inv(self, a):
        if self.kind == "finite-table":
            return self._inverse_table[a]
        return self._normalize(tuple(map(neg, a)))

    def is_abelian(self):
        return self.kind == "fg-abelian" or self.centre_order() == self.size

    def centre_order(self):
        """|Z(G)| for a finite group."""
        if self.kind == "fg-abelian":
            return self.order
        t, n = self.table, self.size
        return sum(all(t[i][j] == t[j][i] for j in range(n)) for i in range(n))

    def is_finite(self):
        if self.kind == "finite-table":
            return True
        return self.rank == 0

    @property
    def order(self):
        if self.kind == "finite-table":
            return self.size
        if self.rank > 0:
            return None
        return math.prod(self.torsion)

    def elements(self):
        if self.kind == "finite-table":
            return [GroupElement(self, i) for i in range(self.size)]
        if self.rank > 0:
            raise ValueError("cannot enumerate an infinite group")
        return [self.element(c) for c in itertools.product(*[range(n) for n in self.torsion])]

    def __eq__(self, other):
        if not isinstance(other, GradeGroup) or self.kind != other.kind:
            return False
        if self.kind == "fg-abelian":
            return self.rank == other.rank and self.torsion == other.torsion
        return self.table == other.table

    def __hash__(self):
        if self.kind == "fg-abelian":
            return hash((self.rank, self.torsion))
        return hash(tuple(map(tuple, self.table)))

    def __repr__(self):
        if self.kind == "finite-table":
            return "GradeGroup(table, order=%d)" % self.size
        return "GradeGroup(%s)" % (signature_text(self.rank, self.torsion) or "1")


def signature_text(rank, torsion):
    """Z^rank x Z/n1 x ... as text, with Z for rank 1, and "" if trivial."""
    parts = ["Z" if rank == 1 else "Z^%d" % rank] if rank else []
    return " x ".join(parts + ["Z/%d" % n for n in torsion])


class SubgroupSpec:
    """A subgroup given by generators inside a fixed GradeGroup."""

    def __init__(self, group, generators):
        self.group = group
        self.generators = tuple(generators)
        for g in self.generators:
            if not group._owns(g):
                raise ValueError("generator from a different group")

    @classmethod
    def generated_by(cls, group, candidates):
        """The subgroup generated by the candidates' coordinates. Over a
        finite group its generators are the candidates that the earlier ones
        do not generate; over an infinite one, the basis of nonzero columns
        of A V for the Smith form U A V = D of the candidates and torsion
        relations A, reduced into G (at most dim G, identities dropped)."""
        if not group.is_finite():
            a = _relation_matrix(group, candidates)
            factors, _, v, _ = smith_normal_form(a)
            basis = (group.element([sum(map(mul, row, col)) for row in a])
                     for col, d in zip(zip(*v), factors) if d)
            return cls(group, [g for g in basis if not g.is_identity()])
        kept, coords = _closure(group, candidates)
        spec = cls(group, [GroupElement(group, c) for c in kept])
        spec._coords = coords
        return spec

    @functools.cached_property
    def _coords(self):
        """The coordinates of the subgroup's elements."""
        return _closure(self.group, [g.coords for g in self.generators])[1]

    @functools.cached_property
    def smith_form(self):
        """(factors, U) for an fg-abelian ambient group: the invariant factors
        of the relation lattice of G/H inside Z^dim, one per coordinate, and
        the left transform U of its Smith normal form. The lattice's columns
        are H's generators and the torsion relations n_i e_(rank+i)."""
        group = self.group
        factors, u, _, _ = smith_normal_form(
            _relation_matrix(group, [g.coords for g in self.generators]))
        return factors + [0] * (group.dim - len(factors)), u

    @property
    def order(self):
        return len(self._coords)

    def contains(self, g):
        """Whether g lies in the subgroup; False for another group's element."""
        if not self.group._owns(g):
            return False
        if self.group.is_finite():
            return g.coords in self._coords
        return not any(col[0] for col in coset_label_columns(self, [g.coords]))


def _relation_matrix(group, points):
    """The matrix with the points, then the n_i e_(rank+i), as columns."""
    cols = list(points) + [tuple(n if k == group.rank + i else 0 for k in range(group.dim))
                           for i, n in enumerate(group.torsion)]
    return [[col[k] for col in cols] for k in range(group.dim)]


def _closure(group, candidates):
    """(kept, elements) on coordinates, in a finite group: the candidates
    that the earlier ones do not generate, and the subgroup they generate.
    One closure: at each kept candidate it grows from the elements so far."""
    if not group.is_finite():
        raise ValueError("cannot enumerate subgroup of an infinite group")
    mul = group._mul
    kept, seen = [], {group._identity_coords}
    for c in candidates:
        if c not in seen:
            kept.append(c)
            frontier = list(seen)
            while frontier:
                x = frontier.pop()
                for g in kept:
                    y = mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
    return kept, frozenset(seen)


def quotient_invariants(group, subgroup):
    """(free_rank, torsion_factors) of G/H for fg-abelian G."""
    if group.kind != "fg-abelian":
        raise ValueError("quotient invariants only for fg-abelian groups")
    factors, _ = subgroup.smith_form
    return factors.count(0), [d for d in factors if d > 1]


def coset_index(group, subgroup):
    """|G:H|, either a positive integer or the string "infinite"; on a
    finite group |G| // |H|."""
    if group.is_finite():
        return group.order // subgroup.order
    free_rank, torsion = quotient_invariants(group, subgroup)
    if free_rank > 0:
        return "infinite"
    return math.prod(torsion)


def coset_label(group, subgroup, g):
    """A canonical label for the coset g + H, as a tuple comparable across
    elements; labels are equal iff the cosets coincide. An element of
    another group is a ValueError."""
    if not group._owns(g):
        raise ValueError("element belongs to a different group")
    if group.kind == "finite-table":
        row = group.table[g.coords]
        return min(row[h] for h in subgroup._coords)
    return next(zip(*coset_label_columns(subgroup, [g.coords])), ())


def coset_label_columns(subgroup, points):
    """The `coset_label`s of the coordinate tuples `points` of an fg-abelian
    group, one list per label coordinate: (U g) mod d for the Smith form
    (d, U) of the subgroup, where d = 0 leaves the coordinate as it is."""
    factors, u = subgroup.smith_form
    cols = [[sum(map(mul, row, p)) for p in points] for row in u]
    return [[y % d for y in col] if d else col for col, d in zip(cols, factors)]


def derived_subgroup(group):
    """The commutator subgroup of a finite group, with its order."""
    if not group.is_finite():
        raise ValueError("derived subgroup requires a finite group")
    mul, inv = group._mul, group._inv
    elems = [g.coords for g in group.elements()]
    spec = SubgroupSpec.generated_by(group, (mul(mul(g, h), mul(inv(g), inv(h)))
                                             for g in elems for h in elems))
    return spec, spec.order
