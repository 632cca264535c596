"""Finite-dimensional unital algebras given by structure constants.

All arithmetic is exact; structure constants are stored sparsely as
{(i, j): {k: scalar}} meaning e_i * e_j = sum_k c[k] e_k. Associativity and
the unit axiom are checked at construction.
"""

from __future__ import annotations

import itertools

from . import linalg
from .verdict import VerdictReport, TRUE, FALSE, EXHAUSTIVE

ENUMERATION_BUDGET = 1 << 20


class Algebra:
    def __init__(self, field, labels, products, unit=None, check=True):
        """products: {(i, j): {k: scalar}} with zero entries omitted.

        unit: coordinate vector of 1; if None it is located by solving the
        unit equations.
        """
        self.field = field
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.products = {}
        for (i, j), terms in products.items():
            cleaned = {k: field.scalar(v) for k, v in terms.items() if field.scalar(v)}
            if cleaned:
                self.products[(i, j)] = cleaned
        if unit is None:
            unit = self._find_unit()
        self.unit_coords = tuple(field.scalar(v) for v in unit)
        if check:
            self._check_unit()
            self._check_associativity()

    # -- construction helpers -----------------------------------------

    def _find_unit(self):
        # solve u * e_j = e_j for all j as one linear system in u
        n = self.dim
        rows = []
        rhs = []
        for j in range(n):
            for k in range(n):
                row = []
                for i in range(n):
                    row.append(self.products.get((i, j), {}).get(k, self.field.zero))
                rows.append(row)
                rhs.append(self.field.one if k == j else self.field.zero)
        u = linalg.solve(rows, rhs)
        if u is None:
            raise ValueError("algebra has no left unit")
        return u

    def _check_unit(self):
        one = self.element(self.unit_coords)
        for j in range(self.dim):
            b = self.basis_element(j)
            if one * b != b or b * one != b:
                raise ValueError("unit axiom fails on basis element %s" % self.labels[j])

    def _check_associativity(self):
        n = self.dim
        for i in range(n):
            ei = self.basis_element(i)
            for j in range(n):
                left = ei * self.basis_element(j)
                for k in range(n):
                    ek = self.basis_element(k)
                    if left * ek != ei * (self.basis_element(j) * ek):
                        raise ValueError(
                            "associativity fails on basis triple (%s, %s, %s)"
                            % (self.labels[i], self.labels[j], self.labels[k]))

    # -- elements -----------------------------------------------------

    def element(self, coords):
        coords = tuple(self.field.scalar(c) for c in coords)
        if len(coords) != self.dim:
            raise ValueError("expected %d coordinates" % self.dim)
        return AlgebraElement(self, coords)

    def basis_element(self, i):
        return self.element([self.field.one if k == i else self.field.zero
                             for k in range(self.dim)])

    @property
    def zero(self):
        return self.element([self.field.zero] * self.dim)

    @property
    def one(self):
        return self.element(self.unit_coords)

    def from_label_dict(self, terms):
        coords = [self.field.zero] * self.dim
        for label, v in terms.items():
            coords[self.labels.index(label)] = self.field.scalar(v)
        return self.element(coords)

    def random_element(self, rng, height=5):
        return self.element([self.field.random_scalar(rng, height) for _ in range(self.dim)])

    def elements(self):
        """All elements; only for prime fields within the enumeration budget."""
        if self.field.kind != "prime-field":
            raise ValueError("cannot enumerate over an infinite field")
        if self.field.order ** self.dim > ENUMERATION_BUDGET:
            raise ValueError("element space exceeds the enumeration budget")
        for coords in itertools.product(self.field.elements(), repeat=self.dim):
            yield self.element(coords)

    def subspace(self, vectors):
        rows = [list(v.coords if isinstance(v, AlgebraElement) else v) for v in vectors]
        return Subspace(self, linalg.rref(rows)[0])

    def full_subspace(self):
        return self.subspace([self.basis_element(i) for i in range(self.dim)])

    def __repr__(self):
        return "Algebra(dim=%d over %r)" % (self.dim, self.field)


class AlgebraElement:
    __slots__ = ("owner", "coords")

    def __init__(self, owner, coords):
        self.owner = owner
        self.coords = tuple(coords)

    def _same(self, other):
        if not isinstance(other, AlgebraElement) or other.owner is not self.owner:
            raise ValueError("elements of different algebras")

    def __add__(self, other):
        self._same(other)
        return AlgebraElement(self.owner, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._same(other)
        return AlgebraElement(self.owner, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return AlgebraElement(self.owner, [-a for a in self.coords])

    def scale(self, c):
        c = self.owner.field.scalar(c)
        return AlgebraElement(self.owner, [c * a for a in self.coords])

    def __rmul__(self, c):
        return self.scale(c)

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self.scale(other)
        return multiply(self, other)

    def __pow__(self, n):
        out = self.owner.one
        for _ in range(n):
            out = out * self
        return out

    def is_zero(self):
        return not any(self.coords)

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement) and other.owner is self.owner
                and self.coords == other.coords)

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        alg = self.owner
        parts = []
        for c, lab in zip(self.coords, alg.labels):
            if c:
                parts.append("%s*%s" % (alg.field.format_scalar(c), lab))
        return " + ".join(parts) if parts else "0"


class Subspace:
    """A subspace in canonical reduced echelon form; equality is data equality."""

    def __init__(self, owner, echelon_rows):
        self.owner = owner
        self.rows = [tuple(r) for r in echelon_rows]

    @property
    def dim(self):
        return len(self.rows)

    def contains(self, x):
        coords = x.coords if isinstance(x, AlgebraElement) else x
        return linalg.row_space_contains([list(r) for r in self.rows], list(coords))

    def basis_elements(self):
        return [self.owner.element(r) for r in self.rows]

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.owner is self.owner
                and self.rows == other.rows)

    def __hash__(self):
        return hash(tuple(self.rows))

    def __repr__(self):
        return "Subspace(dim=%d)" % self.dim


# -- operations -------------------------------------------------------


def multiply(x, y):
    """Bilinear product via structure constants."""
    alg = x.owner
    if y.owner is not alg:
        raise ValueError("elements of different algebras")
    out = [alg.field.zero] * alg.dim
    for i, a in enumerate(x.coords):
        if not a:
            continue
        for j, b in enumerate(y.coords):
            if not b:
                continue
            ab = a * b
            for k, c in alg.products.get((i, j), {}).items():
                out[k] = out[k] + ab * c
    return alg.element(out)


def left_regular_matrix(x):
    """L_x with column j = coordinates of x * e_j."""
    alg = x.owner
    cols = [(x * alg.basis_element(j)).coords for j in range(alg.dim)]
    return [[cols[j][i] for j in range(alg.dim)] for i in range(alg.dim)]


def right_regular_matrix(x):
    alg = x.owner
    cols = [(alg.basis_element(j) * x).coords for j in range(alg.dim)]
    return [[cols[j][i] for j in range(alg.dim)] for i in range(alg.dim)]


def try_invert(x):
    """Two-sided inverse of x, or None."""
    alg = x.owner
    y = linalg.solve(left_regular_matrix(x), list(alg.unit_coords))
    if y is None:
        return None
    y = alg.element(y)
    if x * y != alg.one or y * x != alg.one:
        return None
    return y


def center(algebra):
    """The centralizer of the whole algebra, as a canonical subspace."""
    n = algebra.dim
    rows = []
    for i in range(n):
        b = algebra.basis_element(i)
        l = left_regular_matrix(b)
        r = right_regular_matrix(b)
        for k in range(n):
            rows.append([r[k][j] - l[k][j] for j in range(n)])
    basis = linalg.nullspace(rows, algebra.field)
    return Subspace(algebra, basis)


def two_sided_ideal_closure(algebra, generators):
    """Smallest subspace containing the generators closed under left and
    right multiplication by basis elements."""
    rows = [list(g.coords) for g in generators]
    span, _ = linalg.rref(rows)
    while True:
        new_rows = [list(r) for r in span]
        for r in span:
            v = algebra.element(r)
            for i in range(algebra.dim):
                b = algebra.basis_element(i)
                new_rows.append(list((b * v).coords))
                new_rows.append(list((v * b).coords))
        grown, _ = linalg.rref(new_rows)
        if len(grown) == len(span):
            return Subspace(algebra, grown)
        span = grown


def psi_matrix(algebra):
    """The n^2 x n^2 matrix of psi: A (x) A^op -> End(A), psi(a (x) b)(x) =
    a x b, straight from the structure constants. Column i*n + j is the
    vectorization of x |-> e_i x e_j: row r*n + c holds the coefficient of
    e_r in e_i e_c e_j."""
    n = algebra.dim
    products = algebra.products
    m = [[algebra.field.zero] * (n * n) for _ in range(n * n)]
    for (i, c), left in products.items():
        for s, a in left.items():
            for j in range(n):
                for r, b in products.get((s, j), {}).items():
                    m[r * n + c][i * n + j] += a * b
    return m


def is_central_simple(algebra):
    """Exact over any field: A is central simple iff dim Z(A) = 1 and psi is
    bijective (Pierce, Associative Algebras, ch. 12). A false verdict carries
    the centre dimension or a vector in the kernel of psi."""
    z = center(algebra)
    if z.dim != 1:
        return VerdictReport("central-simple", FALSE, EXHAUSTIVE,
                             counterexample=("center-dim", z.dim))
    kernel = linalg.nullspace(psi_matrix(algebra), algebra.field)
    if kernel:
        return VerdictReport("central-simple", FALSE, EXHAUSTIVE,
                             counterexample=("psi-kernel-vector", kernel[0]))
    return VerdictReport("central-simple", TRUE, EXHAUSTIVE,
                         details={"psi-rank": algebra.dim ** 2})


def minimal_polynomial(x):
    """Least-degree monic f with f(x) = 0, ascending coefficient list."""
    alg = x.owner
    field = alg.field
    power = alg.one
    rows = [list(power.coords)]
    while True:
        power = power * x
        # the lower powers are independent, so a solution exists exactly
        # when this power depends on them, and it is unique
        mat = [[row[k] for row in rows] for k in range(alg.dim)]
        sol = linalg.solve(mat, list(power.coords))
        if sol is not None:
            return [-c for c in sol] + [field.one]
        rows.append(list(power.coords))


def evaluate_poly(coeffs, x):
    """Evaluate an ascending-coefficient polynomial at an algebra element."""
    alg = x.owner
    out = alg.zero
    power = alg.one
    for c in coeffs:
        out = out + power.scale(c)
        power = power * x
    return out


def commutator_subspace(algebra):
    """Additive span of all commutators [x, y] (basis pairs suffice)."""
    rows = []
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            a = algebra.basis_element(i)
            b = algebra.basis_element(j)
            rows.append(list((a * b - b * a).coords))
    return Subspace(algebra, linalg.rref(rows)[0])
