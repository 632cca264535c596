"""Finite-dimensional unital algebras given by structure constants.

All arithmetic is exact. The structure constants come sparsely as
{(i, j): {k: scalar}}, meaning e_i * e_j = sum_k c[k] e_k. `Algebra` keeps
one copy of them, the integer table below; `Algebra.products` is a view
of it in the input form, built on first use for where values leave.

The kernel. Construction reads each constant and unit coordinate once, by
`FieldSpec.ratio` (an int as it is, a Fraction by its slots, a GFElement by
its residue), drops the zeros and writes `Algebra.table`, with row
i = {j: ((k, c), ...)} over the nonzero products e_i e_j, their scale
`Algebra.scale`, and the unit at the same scale in `Algebra.unit_ints`.
Over GF(p) the ints are the residues, the scale is 1 and a sum is zero
when it is 0 mod p. Over Q they are the constants times the scale D, the
lcm of their denominators (and the unit's), so a sum of products of two of
them is D^2 times the true sum. The unit axiom (on the unit's table rows
and columns) and associativity are checked on this table at construction,
associativity by Light's test: the middle factor of a basis triple runs
over a generating set, from an index closure when every e_i e_j is c e_k
or 0, else the whole basis.
Every structure-constant loop runs on the table too: products (one loop,
`integer_product`), minimal polynomials on integer powers, polynomial
evaluation by Horner, the rows of L_x and R_x and ideal closure, the regular
traces and product forms, psi, the rows of the centre and of the
commutator subspace, subspace membership, and A (x) A^op on tuples of n^2
scalars, i*n + j for e_i (x) e_j: its star action and the rows of the
separability conditions. An `AlgebraElement` holds the same
format, ints over one den (residues over GF(p)): a loop reads them as they
are and hands its sums to `element_from_ints`, so one loop serves Q and
GF(p). `linalg` takes and returns sparse integer rows, and a `Subspace`
holds its echelon. Field scalars are made only where a value leaves the
library: an element's `coords`, a subspace's `rows`, a witness.

On the kernel sit the centre, the commutators, the radical J(A) (the
Cohen-Ivanyos-Wales rounds on trace forms) and central simplicity, which
is dim Z(A) = 1 and J(A) = 0: two n-sized systems, not psi's n^2.
"""

from __future__ import annotations

import functools
import itertools
import math

from . import linalg
from .verdict import VerdictReport, TRUE, FALSE, EXHAUSTIVE

ENUMERATION_BUDGET = 1 << 20


class Algebra:
    def __init__(self, field, labels, products, unit=None):
        """products: {(i, j): {k: scalar}} with zero entries omitted; labels
        name the basis, which must not be empty.

        unit: coordinate vector of 1; if None it is located by solving the
        unit equations.
        """
        self.field = field
        self.labels = list(labels)
        self.dim = n = len(self.labels)
        if not n:
            raise ValueError("an algebra needs at least one basis vector")
        ratio = field.ratio
        constants = []  # (i, j, k, numerator, den) of each nonzero constant
        for (i, j), terms in products.items():
            for k, v in terms.items():
                a, d = ratio(v)
                if a:
                    constants.append((i, j, k, a, d))
        units = [ratio(v) for v in (self._find_unit(constants) if unit is None else unit)]
        if len(units) != n:
            raise ValueError("the unit needs %d coordinates" % n)
        self.scale = scale = math.lcm(*{c[4] for c in constants}, *(d for _, d in units))
        self.table = table = [{} for _ in range(n)]
        for i, j, k, a, d in constants:
            row = table[i]
            row[j] = row.get(j, ()) + ((k, a * (scale // d)),)
        self.unit_ints = [a * (scale // d) for a, d in units]
        self.unit_coords = tuple(field.from_ints(self.unit_ints, scale))
        p = field.characteristic
        self._check_unit(p)
        self._check_associativity(p)

    @functools.cached_property
    def products(self):
        """{(i, j): {k: scalar}}: the structure constants as field scalars,
        zeros omitted, read off the table on first use."""
        return {(i, j): dict(zip([k for k, _ in terms],
                                 self.field.from_ints([c for _, c in terms], self.scale)))
                for i, row in enumerate(self.table) for j, terms in row.items()}

    # -- construction helpers -----------------------------------------

    def _find_unit(self, constants):
        # solve u * e_j = e_j for all j as one linear system in u: row (j, k)
        # holds D c_ij^k in column i and D [j = k] on the right, D the lcm of dens
        n, scale = self.dim, math.lcm(*{c[4] for c in constants})
        rows = {(j, j): {n: scale} for j in range(n)}
        for i, j, k, a, d in constants:
            rows.setdefault((j, k), {})[i] = a * (scale // d)
        u = linalg.solve(rows.values(), n, self.field)
        if u is None:
            raise ValueError("algebra has no left unit")
        return self.field.from_ints(*u)

    def _check_unit(self, p):
        """Column j of L_1 and of R_1, the sums of u e_u e_j and u e_j e_u over
        the unit's support, must be scale^2 (the scaled 1 * 1) at e_j, else 0."""
        n, table, one = self.dim, self.table, self.scale ** 2
        left = {j * n + j: -one for j in range(n)}  # L_1 - 1, column j at j*n + k
        right = dict(left)  # R_1 - 1
        for i, u in [(i, u) for i, u in enumerate(self.unit_ints) if u]:
            for j, terms in table[i].items():  # u e_i e_j
                for k, c in terms:
                    left[j * n + k] = left.get(j * n + k, 0) + u * c
            for j, row in enumerate(table):  # u e_j e_i
                for k, c in row.get(i, ()):
                    right[j * n + k] = right.get(j * n + k, 0) + u * c
        bad = [key // n for col in (left, right) for key, v in col.items() if (v % p if p else v)]
        if bad:
            raise ValueError("unit axiom fails on basis element %s" % self.labels[min(bad)])

    def _check_associativity(self, p):
        """(e_i e_j) e_k = e_i (e_j e_k) for all i, k and the middles e_j of
        `generating_set`, on the integer constants: sum_s c_ij^s c_sk^t
        against sum_u c_jk^u c_iu^t, with the differences over all k and t
        in one dict per i keyed (j*n + k)*n + t (0 = 0 where neither side
        reaches). Light's test (Clifford and Preston, Algebraic Theory of
        Semigroups I, 1.2): the b with (ab)c = a(bc) for all a, c form a
        subalgebra, which holds 1 once the unit axiom does, so generating
        middles prove every triple. A violation reruns the scan on the whole
        basis, so the triple reported is the first in basis order."""
        n, table = self.dim, self.table
        # flat[s]: (k*n + t, c_sk^t) for every nonzero constant of a row e_s e_k
        flat = [[(k * n + t, c) for k, terms in row.items() for t, c in terms]
                for row in table]

        def first_failure(middles):
            for i, left in enumerate(table):  # left: the products e_i e_u
                diff = {}
                for j in middles:
                    jn = j * n * n
                    for s, a in left.get(j, ()):
                        for key, c in flat[s]:
                            key += jn
                            diff[key] = diff.get(key, 0) + a * c
                    for k, terms in table[j].items():
                        kn = jn + k * n
                        for u, a in terms:
                            for t, c in left.get(u, ()):
                                diff[kn + t] = diff.get(kn + t, 0) - a * c
                bad = [key // n for key, v in diff.items() if (v % p if p else v)]
                if bad:
                    return (i,) + divmod(min(bad), n)

        if first_failure(self.generating_set):
            i, j, k = first_failure(range(n))
            raise ValueError("associativity fails on basis triple (%s, %s, %s)"
                             % (self.labels[i], self.labels[j], self.labels[k]))

    @functools.cached_property
    def generating_set(self):
        """Basis indices whose e_j generate A with 1. When every nonzero
        e_i e_j is one term c e_k, j joins when the product closure of the
        earlier ones (and of the unit's index, when 1 is a multiple of one
        e_u) misses it; any other table keeps the whole basis. The closure
        multiplies by generators on the right: its products span A once it
        reaches every index, as Light's test needs."""
        table, n = self.table, self.dim
        if any(sum(map(len, row.values())) > len(row) for row in table):
            return range(n)
        support = [i for i, u in enumerate(self.unit_ints) if u]
        closed, gens = set(support) if len(support) == 1 else set(), []
        for j in range(n):
            if j not in closed:
                gens.append(j)
                frontier = [j] + [k for x in closed for k, _ in table[x].get(j, ())]
                while frontier:
                    x = frontier.pop()
                    if x not in closed:
                        closed.add(x)
                        row = table[x]
                        for g in gens:
                            for k, _ in row.get(g, ()):
                                frontier.append(k)
        return gens

    # -- elements -----------------------------------------------------

    def element(self, coords):
        coords = [self.field.scalar(c) for c in coords]
        if len(coords) != self.dim:
            raise ValueError("expected %d coordinates" % self.dim)
        ints, den = self.field.to_ints(coords)  # canonical: den is the lcm of reduced dens
        return AlgebraElement(self, tuple(ints), den)

    def basis_element(self, i):
        return AlgebraElement(self, tuple([int(k == i) for k in range(self.dim)]))

    @property
    def zero(self):
        return AlgebraElement(self, (0,) * self.dim)

    @property
    def one(self):
        return element_from_ints(self, self.unit_ints, self.scale)

    def elements(self):
        """All elements; only for prime fields within the enumeration budget."""
        if self.field.kind != "prime-field":
            raise ValueError("cannot enumerate over an infinite field")
        if self.field.order ** self.dim > ENUMERATION_BUDGET:
            raise ValueError("element space exceeds the enumeration budget")
        for residues in itertools.product(range(self.field.order), repeat=self.dim):
            yield AlgebraElement(self, residues)

    def subspace(self, vectors):
        """The span of elements, or of vectors of field scalars."""
        rows = [dict(enumerate(v.ints)) if isinstance(v, AlgebraElement)
                else linalg.int_rows([v], self.field)[0] for v in vectors]
        return Subspace(self, linalg.rref(rows, self.field))

    def full_subspace(self):
        """A itself; the identity rows are already its echelon."""
        return Subspace(self, ([{i: 1} for i in range(self.dim)], 1, list(range(self.dim))))

    @functools.cached_property
    def trace_form(self):
        """(form, den): the trace form (x, y) -> Tr(L_(xy)) as
        `integer_product_form` of the regular traces, built on first use;
        it depends on the structure constants alone."""
        return integer_product_form(self, *regular_traces(self))

    def __repr__(self):
        return "Algebra(dim=%d over %r)" % (self.dim, self.field)


class AlgebraElement:
    """An element in the kernel's format, coordinates ints / den: residues
    and den 1 over GF(p); over Q, den > 0 and gcd(den, *ints) = 1, the pair
    that `==` and `hash` read. The constructor trusts its input; `coords`
    makes the field scalars, for where a value leaves the library."""

    __slots__ = ("owner", "ints", "den")

    def __init__(self, owner, ints, den=1):
        self.owner = owner
        self.ints = ints
        self.den = den

    @property
    def coords(self):
        return tuple(self.owner.field.from_ints(self.ints, self.den))

    def _same(self, other):
        if not isinstance(other, AlgebraElement) or other.owner is not self.owner:
            raise ValueError("elements of different algebras")

    def __add__(self, other):
        self._same(other)
        dx, dy = self.den, other.den
        sums = [a * dy + b * dx for a, b in zip(self.ints, other.ints)]
        return element_from_ints(self.owner, sums, dx * dy)

    def __sub__(self, other):
        self._same(other)
        return self + -other

    def __neg__(self):
        return element_from_ints(self.owner, [-a for a in self.ints], self.den)

    def scale(self, c):
        a, d = self.owner.field.ratio(c)
        return element_from_ints(self.owner, [a * v for v in self.ints], d * self.den)

    __rmul__ = scale

    def __mul__(self, other):
        return multiply(self, other) if isinstance(other, AlgebraElement) else self.scale(other)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power %d: invert with try_invert" % n)
        out = self.owner.one
        for _ in range(n):
            out = out * self
        return out

    def is_zero(self):
        return not any(self.ints)

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement) and other.owner is self.owner
                and self.ints == other.ints and self.den == other.den)

    def __hash__(self):
        return hash((self.ints, self.den))

    def __repr__(self):
        alg = self.owner
        parts = []
        for c, lab in zip(self.coords, alg.labels):
            if c:
                parts.append("%s*%s" % (alg.field.format_scalar(c), lab))
        return " + ".join(parts) if parts else "0"


class Subspace:
    """A subspace held once, as its `linalg` echelon (rows, den, pivots),
    which one space always gives alike: equality and hash read it. `rows`,
    its reduced rows as tuples of field scalars, are built on first use."""

    def __init__(self, owner, echelon):
        self.owner = owner
        self.echelon = echelon

    @property
    def dim(self):
        return len(self.echelon[2])

    @property
    def pivots(self):
        return self.echelon[2]

    @functools.cached_property
    def rows(self):
        red, den, _ = self.echelon
        n, field = self.owner.dim, self.owner.field
        return [tuple(field.from_ints([r.get(j, 0) for j in range(n)], den)) for r in red]

    def contains(self, x):
        return not linalg.reduce_row(self.echelon, dict(enumerate(x.ints)), self.owner.field)

    def basis_elements(self):
        red, den, _ = self.echelon
        n = self.owner.dim
        return [element_from_ints(self.owner, [r.get(j, 0) for j in range(n)], den) for r in red]

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.owner is self.owner
                and self.echelon == other.echelon)

    def __hash__(self):
        return hash((self.echelon[1], tuple(self.pivots)))

    def __repr__(self):
        return "Subspace(dim=%d)" % self.dim


# -- operations -------------------------------------------------------


def integer_product(table, xs, ys):
    """The product of two integer vectors through the table, unreduced: the
    value is scale * dx * dy times the product of xs / dx and ys / dy."""
    out = [0] * len(xs)
    for a, row in zip(xs, table):
        if a:
            for j, terms in row.items():
                b = ys[j]
                if b:
                    ab = a * b
                    for k, c in terms:
                        out[k] += ab * c
    return out


def element_from_ints(alg, values, den=1):
    """The element values / den of alg (ints, den != 0) made canonical:
    residues over GF(p); over Q, values and den over their gcd, den > 0."""
    p = alg.field.characteristic
    if p:
        inv = 1 if den == 1 else pow(den, -1, p)
        return AlgebraElement(alg, tuple([v * inv % p for v in values]))
    g = math.gcd(den, *values) if den > 0 else -math.gcd(den, *values)
    return AlgebraElement(alg, tuple([v // g for v in values]) if g != 1 else tuple(values),
                          den // g)


def multiply(x, y):
    """Bilinear product via the integer table, over the nonzero coordinates
    of x and the nonzero products of their rows."""
    alg = x.owner
    if y.owner is not alg:
        raise ValueError("elements of different algebras")
    return element_from_ints(alg, integer_product(alg.table, x.ints, y.ints),
                             x.den * y.den * alg.scale)


def integer_regular_rows(alg, xs, left=True):
    """Row k of L_x (left) or R_x (right) for the integer vector xs, as a
    sparse {column: int}, at scale times the scale of xs. Column j of L_x is
    x e_j = sum_i x_i c_ij, of R_x e_j x = sum_i x_i c_ji."""
    rows = [{} for _ in range(alg.dim)]
    for i, row in enumerate(alg.table):
        if left:  # x_i c_ij^k at (k, j)
            a = xs[i]
            if a:
                for j, terms in row.items():
                    for k, c in terms:
                        r = rows[k]
                        r[j] = r.get(j, 0) + a * c
        else:  # x_j c_ij^k at (k, i)
            for j, terms in row.items():
                a = xs[j]
                if a:
                    for k, c in terms:
                        r = rows[k]
                        r[i] = r.get(i, 0) + a * c
    return rows


def regular_columns(alg, xs, left):
    """The products x e_j (left) or e_j x for the integer vector xs, one
    sparse integer row per basis vector e_j: the columns of L_x or R_x."""
    cols = [{} for _ in range(alg.dim)]
    for k, row in enumerate(integer_regular_rows(alg, xs, left)):
        for j, v in row.items():
            cols[j][k] = v
    return cols


def regular_traces(algebra):
    """(t, scale) with t_k / scale = Tr(L_{e_k}) = sum_m c_km^m, so
    Tr(L_x) = sum_k t_k x_k / scale."""
    return [sum(c for m, terms in row.items() for k, c in terms if k == m)
            for row in algebra.table], algebra.scale


def integer_product_form(algebra, ws, dw):
    """(form, den): the bilinear form (x, y) -> w(xy) of the linear form
    w = ws / dw, given as ints, as {(r, c): w(e_r e_c) * den} over the
    products e_r e_c that are nonzero. Over GF(p) a value may be 0 mod p."""
    form = {}
    for r, row in enumerate(algebra.table):
        for c, terms in row.items():
            v = sum(x * ws[k] for k, x in terms)
            if v:
                form[(r, c)] = v
    return form, dw * algebra.scale


def try_invert(x):
    """Two-sided inverse of x, or None: the solution y of L_x y = 1. Then
    xy = 1, so L_x is onto (x(ya) = a), hence bijective in finite dimension,
    and x(yx) = x = x1 gives yx = 1."""
    alg = x.owner
    n = alg.dim
    # L_x = rows / (den * scale) and 1 = unit_ints / scale, so L_x y = 1
    # reads rows y = den * unit_ints
    rows = integer_regular_rows(alg, x.ints)
    for row, u in zip(rows, alg.unit_ints):
        if u:
            row[n] = x.den * u
    y = linalg.solve(rows, n, alg.field)
    return None if y is None else element_from_ints(alg, *y)


def center(algebra):
    """The centre, as a canonical subspace: the kernel of x |-> (e_m x -
    x e_m)_m for the m of `Algebra.generating_set` (whose centralizer it
    is), whose row (m, k) has entry c_jm^k - c_mj^k in column j."""
    n = algebra.dim
    gens = set(algebra.generating_set)
    rows = {}  # (m, k) -> its sparse row
    for i, row in enumerate(algebra.table):
        for j, terms in row.items():
            for k, c in terms:
                if i in gens:
                    r = rows.setdefault(i * n + k, {})
                    r[j] = r.get(j, 0) - c
                if j in gens:
                    r = rows.setdefault(j * n + k, {})
                    r[i] = r.get(i, 0) + c
    return Subspace(algebra, linalg.nullspace(rows.values(), n, algebra.field))


def _row_product(a, b, q):
    """The sparse rows of the product of the matrices of sparse integer rows
    a and b, their entries mod q (as ints for q = 0), the zeros dropped."""
    out = []
    for row in a:
        r = {}
        for k, u in row.items():
            for j, v in b[k].items():
                r[j] = r.get(j, 0) + u * v
        out.append({j: w for j, v in r.items() if (w := v % q if q else v)})
    return out


def _lifted_trace_digit(algebra, x, i):
    """g_i(x) = (Tr(L^(p^i)) mod p^(i+1)) / p^i for L the lift of L_x to [0, p),
    x a sparse residue row in I_(i-1), where p^i divides the trace: H = L^(p^i // 2)
    mod p^(i+1) by square-and-multiply on sparse rows, Tr = sum_ab H_ab (H L^(p^i % 2))_ba."""
    p = algebra.field.characteristic
    q = p ** (i + 1)
    rows = integer_regular_rows(algebra, [x.get(j, 0) for j in range(algebra.dim)])
    lift = [{j: v % p for j, v in row.items() if v % p} for row in rows]
    half, power, e = [{a: 1} for a in range(algebra.dim)], lift, p ** i // 2
    while e:  # square-and-multiply, low bit first
        half, e = _row_product(half, power, q) if e & 1 else half, e >> 1
        power = _row_product(power, power, q) if e else power
    rest = _row_product(half, lift, q) if p ** i % 2 else half
    t = sum(h * rest[b].get(a, 0) for a, row in enumerate(half) for b, h in row.items()) % q
    assert t % p ** i == 0
    return t // p ** i


def jacobson_radical(algebra):
    """The radical J as a canonical subspace (Cohen-Ivanyos-Wales, JPAA
    117/118 (1997)): I_(-1) = A, I_i = {a in I_(i-1) : g_i(ab) = 0 for all b}
    for i = 0 .. floor(log_p dim), and J is the last one. g_0 = Tr(L_x) is
    linear on A, g_i (i >= 1) on I_(i-1), where it is read on a basis, on
    ints mod p^(i+1) (`_lifted_trace_digit`), and extended to a functional w;
    a round is one nullspace of w's Gram matrix, and over Q (Dickson) or
    GF(p) with p > dim round 0 is the only one. The graded layer calls it
    on A_e, once per graded predicate."""
    field = algebra.field
    p = field.characteristic
    n = algebra.dim
    form = algebra.trace_form[0]  # w(e_r e_c) for g_0, times a constant
    basis = [{r: 1} for r in range(n)]  # R, the sparse rows of I_(i-1)
    i = 0
    while True:
        gram = [{} for _ in range(n)]  # row r of the Gram matrix G
        for (r, c), v in form.items():
            gram[r][c] = v
        # a = sum_s lam_s R_s is kept iff w(a e_t) = (lam R G)_t = 0 for all t:
        # row t of the constraints holds (R G)_st in column s
        cons = [{} for _ in range(n)]
        for s, row in enumerate(basis):
            for r, a in row.items():
                for t, v in gram[r].items():
                    cons[t][s] = cons[t].get(s, 0) + a * v
        rows = _row_product(linalg.nullspace(cons, len(basis), field)[0], basis, p)
        echelon = linalg.rref(rows, field) if rows else ([], 1, [])
        i += 1
        if not echelon[2] or not p or p ** i > n:
            return Subspace(algebra, echelon)
        basis = echelon[0]  # residue rows, 1 at their pivots: R exactly
        values = [_lifted_trace_digit(algebra, r, i) for r in basis]
        w = linalg.solve([{**r, n: v} for r, v in zip(basis, values)], n, field)
        form = integer_product_form(algebra, *w)[0]


def two_sided_ideal_closure(algebra, generators):
    """Smallest subspace containing the generators closed under left and
    right multiplication by basis elements, by spinning on integer rows:
    each product x e_j, e_j x of a vector x new to the span is reduced
    against the span's echelon, and a nonzero remainder is new: it joins
    the echelon and the queue. The spin stops as soon as the echelon spans
    A."""
    n, field = algebra.dim, algebra.field
    echelon = algebra.subspace(generators).echelon
    queue = list(echelon[0])
    while queue and len(echelon[2]) < n:
        x = queue.pop()
        for left in (True, False):
            for v in regular_columns(algebra, [x.get(j, 0) for j in range(n)], left):
                r = linalg.reduce_row(echelon, v, field)
                if r:
                    echelon = linalg.rref(echelon[0] + [r], field)
                    queue.append(r)
                    if len(echelon[2]) == n:
                        return algebra.full_subspace()
    return Subspace(algebra, echelon)


def integer_psi_matrix(algebra):
    """(rows, den): the n^2 x n^2 matrix of psi: A (x) A^op -> End(A),
    psi(a (x) b)(x) = a x b, as sparse integer rows over den, straight from
    the structure constants. Column i*n + j is the vectorization of
    x |-> e_i x e_j: row r*n + c holds the coefficient of e_r in
    e_i e_c e_j."""
    n = algebra.dim
    table = algebra.table
    m = [{} for _ in range(n * n)]
    for i, row in enumerate(table):
        for c, left in row.items():
            for s, a in left:
                for j, right in table[s].items():
                    col = i * n + j
                    for r, b in right:
                        out = m[r * n + c]
                        out[col] = out.get(col, 0) + a * b
    return m, algebra.scale ** 2


def star_action(algebra, coeffs):
    """The star action of A (x) A^op on A: the map x |-> sum_(i,j)
    coeffs[i*n + j] e_i x e_j, with e_i x e_j = sum_m sum_s x_m c_im^s
    e_s e_j, and coeffs converted to ints once, its nonzero terms kept."""
    n, table, field = algebra.dim, algebra.table, algebra.field
    cs, dc = field.to_ints(coeffs)
    terms = [divmod(t, n) + (c,) for t, c in enumerate(cs) if c]

    def act(x):
        xs = [(m, a) for m, a in enumerate(x.ints) if a]
        out = [0] * n
        for i, j, c in terms:
            for m, a in xs:
                for s, b in table[i].get(m, ()):
                    cab = c * a * b
                    for r, d in table[s].get(j, ()):
                        out[r] += cab * d
        return element_from_ints(algebra, out, dc * x.den * algebra.scale ** 2)
    return act


def separability_rows(algebra, generators):
    """The sparse integer rows, over the scale, of the conditions on e in
    A (x) A^op for a separability idempotent: rows 0..n-1 are e * 1 = 1,
    u_r in column n^2; then the n^2 rows of (e_a (x) 1 - 1 (x) e_a) e = 0
    for each basis index a in generators, with
    ((e_a (x) 1) e)_(r, j) = sum_i c_ai^r e_ij and
    ((1 (x) e_a) e)_(i, s) = sum_j c_ja^s e_ij. The b with
    (b (x) 1) e = (1 (x) b) e form a subalgebra holding 1, so the indices
    of `Algebra.generating_set` give the same solutions as the basis."""
    n, table = algebra.dim, algebra.table
    rows = [{n * n: u} if u else {} for u in algebra.unit_ints]
    for i, row in enumerate(table):
        for j, terms in row.items():
            for r, c in terms:
                rows[r][i * n + j] = c
    for a in generators:
        block = [{} for _ in range(n * n)]
        for j in range(n):
            for i, terms in table[a].items():
                for r, c in terms:
                    block[r * n + j][i * n + j] = c
            for s, c in table[j].get(a, ()):
                for i in range(n):
                    block[i * n + s][i * n + j] = block[i * n + s].get(i * n + j, 0) - c
        rows += block
    return rows


def is_central_simple(algebra):
    """Exact over any field: A is central simple iff dim Z(A) = 1 and
    J(A) = 0, since a semisimple A is a product of blocks M_n(D) and its
    centre the product of the Z(D) (Pierce, Associative Algebras, ch. 12).
    Two n-sized systems decide it, the centre's and the radical's. A false
    verdict carries the centre dimension or a nonzero element of J(A)."""
    z = center(algebra)
    if z.dim != 1:
        return VerdictReport("central-simple", FALSE, EXHAUSTIVE,
                             counterexample=("centre-dim", z.dim))
    radical = jacobson_radical(algebra)
    if radical.dim:
        return VerdictReport("central-simple", FALSE, EXHAUSTIVE,
                             counterexample=("radical-element", radical.basis_elements()[0]))
    return VerdictReport("central-simple", TRUE, EXHAUSTIVE)


def minimal_polynomial(x):
    """Least-degree monic f with f(x) = 0, ascending coefficient list.

    The powers stay integer vectors: with x = ints / den, t = den * scale,
    x^k is powers[k] / (scale * t^k), residues over GF(p) (t = 1). The
    system sum_i y_i powers[i] = powers[k] then has y_i = c_i t^(k-i) for
    x^k = sum_i c_i x^i, so the solution is rescaled once."""
    alg = x.owner
    field = alg.field
    p = field.characteristic
    t = x.den * alg.scale
    powers = [alg.unit_ints]
    while True:
        power = integer_product(alg.table, powers[-1], x.ints)
        if p:
            power = [v % p for v in power]
        k = len(powers)
        # the lower powers are independent, so a solution exists exactly
        # when this power depends on them, and it is unique
        rows = [{i: v for i, v in enumerate(col) if v} for col in zip(*powers, power)]
        sol = linalg.solve(rows, k, field)
        if sol is not None:
            ys, den = sol
            return field.from_ints([-y * t ** i for i, y in enumerate(ys)], den * t ** k) \
                + [field.one]
        powers.append(power)


def evaluate_poly(coeffs, x):
    """Evaluate an ascending-coefficient polynomial at an algebra element,
    by Horner on ints. With coeffs = cs / dc, x = ints / den and
    t = den * scale, the value after i steps is acc / (dc * scale * t^i), so
    a step is acc -> acc ints + c t^i unit_ints. Over GF(p), t = dc = 1 and
    acc is reduced at each step."""
    alg = x.owner
    field = alg.field
    p = field.characteristic
    cs, dc = field.to_ints([field.scalar(c) for c in coeffs])
    t = x.den * alg.scale
    acc, tk = [0] * alg.dim, 1
    for i, c in enumerate(reversed(cs)):
        if i:
            acc = integer_product(alg.table, acc, x.ints)
            tk *= t
        if c:
            for k, u in enumerate(alg.unit_ints):
                acc[k] += c * tk * u
        if p:
            acc = [v % p for v in acc]
    return element_from_ints(alg, acc, dc * alg.scale * tk)


def commutator_subspace(algebra):
    """Additive span of all commutators [x, y]: [ab, c] = [a, bc] + [b, ca],
    so the [e_g, e_j] = sum_k (c_gj^k - c_jg^k) e_k for g in
    `Algebra.generating_set` span it, a pair of generators written once."""
    table = algebra.table
    gens = set(algebra.generating_set)
    rows = []
    for g in sorted(gens):
        for j in range(algebra.dim):
            if j > g or j not in gens:
                row = dict(table[g].get(j, ()))
                for k, c in table[j].get(g, ()):
                    row[k] = row.get(k, 0) - c
                rows.append(row)
    return Subspace(algebra, linalg.rref(rows, algebra.field))
