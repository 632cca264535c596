"""Differential test of the integer structure-constant kernel.

The reference functions below are the scalar loops the kernel replaced: they
run on `Algebra.products` with Fraction or GFElement arithmetic, and the
polynomial ones on sympy `Poly` objects. Every kernel result must equal them
with `==` and hold the same scalar types, on random algebras over Q and
GF(2/3/5/7), on bases with non-integer constants and a non-integer unit, on
dim-1 algebras and with zero factors.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from gradedk import algebra as algebra_module, linalg
from gradedk.algebra import (Algebra, _lifted_trace_digit, center, commutator_subspace,
                             evaluate_poly, integer_product_form,
                             integer_psi_matrix, integer_regular_rows, is_central_simple,
                             jacobson_radical, minimal_polynomial, multiply, regular_traces,
                             separability_rows, star_action)
from gradedk.azumaya import standard_separability_idempotent
from gradedk.constructors import (construct_group_ring, construct_matrix_algebra,
                                  construct_quaternion, construct_symbol_algebra,
                                  construct_truncated_polynomial)
from gradedk.fields import FieldSpec
from gradedk.graded import (GradedAlgebra, graded_tensor, strongly_graded_at, support,
                            trivially_graded)
from gradedk.groups import GradeGroup
from gradedk.matrixring import ShiftedMatrixAlgebra
from gradedk.trace import reduced_char_poly
from gradedk.wedderburn import (BlockSummary, _corner_dim, _crt_idempotents,
                                _quaternion_block_splits, _rational_roots, quotient,
                                spectral_idempotents, split_identity_component)

from constructorgrid import cases as constructor_cases
from enveloping import enveloping_product
from randomdata import random_constructed, random_element, random_scalar
import scalarlinalg

Q = FieldSpec.rationals()
FIELDS = [Q] + [FieldSpec.prime_field(p) for p in (2, 3, 5, 7)]
F3 = FieldSpec.prime_field(3)


# -- the reference scalar loops ----------------------------------------


def to_poly(coeffs, field):
    """An ascending coefficient list as a sympy Poly in x over QQ or GF(p)."""
    if field.kind == "rationals":
        dom, conv = sympy.QQ, lambda c: sympy.QQ(c.numerator, c.denominator)
    else:
        dom = sympy.GF(field.characteristic)
        conv = lambda c: dom(c.v)
    return sympy.Poly.from_list([conv(c) for c in reversed(coeffs)], sympy.Symbol("x"),
                                domain=dom)


def from_poly(poly, field):
    """The ascending coefficient list, in field scalars, of a sympy Poly."""
    return [field.scalar(Fraction(int(c.p), int(c.q))) for c in reversed(poly.all_coeffs())]


def ref_is_central_simple(alg):
    """The psi criterion: dim Z(A) = 1 and psi: A (x) A^op -> End(A),
    a (x) b -> (x -> a x b), bijective."""
    kernel = linalg.nullspace(integer_psi_matrix(alg)[0], alg.dim ** 2, alg.field)[0]
    return center(alg).dim == 1 and not kernel


def ref_multiply(x, y):
    alg = x.owner
    out = [alg.field.zero] * alg.dim
    for (i, j), terms in alg.products.items():
        a, b = x.coords[i], y.coords[j]
        if a and b:
            for k, c in terms.items():
                out[k] += a * b * c
    return out


def ref_regular_matrix(x, left):
    alg = x.owner
    cols = [[alg.field.zero] * alg.dim for _ in range(alg.dim)]
    for (i, j), terms in alg.products.items():
        if not left:
            i, j = j, i
        a = x.coords[i]
        if a:
            for k, c in terms.items():
                cols[j][k] += a * c
    return [list(row) for row in zip(*cols)]


def ref_charpoly(m, field):
    """The characteristic polynomial of a square matrix of field scalars by
    sympy's `Matrix.charpoly` over QQ (GF(p) entries lifted to ints), as a
    Poly in x over QQ or GF(p)."""
    x = sympy.Symbol("x")
    if field.kind == "rationals":
        dom, lift = sympy.QQ, lambda c: sympy.Rational(c.numerator, c.denominator)
    else:
        dom, lift = sympy.GF(field.characteristic), lambda c: c.v
    cp = sympy.Matrix([[lift(c) for c in row] for row in m]).charpoly(x)
    return sympy.Poly(cp.as_expr(), x, domain=dom)


def ref_regular_traces(alg):
    t = [alg.field.zero] * alg.dim
    for (k, m), terms in alg.products.items():
        if m in terms:
            t[k] += terms[m]
    return t


def ref_product_form(alg, w):
    form = {}
    for key, terms in alg.products.items():
        v = sum((c * w[k] for k, c in terms.items() if w[k]), alg.field.zero)
        if v:
            form[key] = v
    return form


def ref_psi_matrix(alg):
    n = alg.dim
    m = [[alg.field.zero] * (n * n) for _ in range(n * n)]
    for (i, c), left in alg.products.items():
        for s, a in left.items():
            for j in range(n):
                for r, b in alg.products.get((s, j), {}).items():
                    m[r * n + c][i * n + j] += a * b
    return m


def ref_center_rows(alg):
    n = alg.dim
    rows = [[alg.field.zero] * n for _ in range(n * n)]
    for (i, j), terms in alg.products.items():
        for k, c in terms.items():
            rows[i * n + k][j] -= c
            rows[j * n + k][i] += c
    return [tuple(r) for r in scalarlinalg.nullspace(rows, n, alg.field)]


def ref_commutator_rows(alg):
    n = alg.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            row = [alg.field.zero] * n
            for k, c in alg.products.get((i, j), {}).items():
                row[k] += c
            for k, c in alg.products.get((j, i), {}).items():
                row[k] -= c
            rows.append(row)
    return [tuple(r) for r in scalarlinalg.rref(rows, n, alg.field)[0]]


def ref_reduced_char_poly(alg, a):
    field = alg.field
    n = math.isqrt(alg.dim)
    if field.characteristic == 0 or field.characteristic > n:
        form = ref_product_form(alg, ref_regular_traces(alg))
        powers = [alg.element(alg.unit_coords), a]
        for _ in range(1, (n + 1) // 2):
            powers.append(alg.element(ref_multiply(powers[-1], a)))
        inv_n = field.one / field.scalar(n)
        sums = []
        for k in range(1, n + 1):
            x, y = powers[(k + 1) // 2].coords, powers[k // 2].coords
            sums.append(inv_n * sum((v * x[r] * y[c] for (r, c), v in form.items()
                                     if x[r] and y[c]), field.zero))
        q = [field.zero] * n + [field.one]
        for k in range(1, n + 1):
            s = sum((sums[i - 1] * q[n - k + i] for i in range(1, k + 1)), field.zero)
            q[n - k] = -s / field.scalar(k)
        return q
    cp = ref_charpoly(ref_regular_matrix(a, True), field)
    return from_poly(math.prod(g ** (k // n) for g, k in cp.factor_list()[1]), field)


def ref_minimal_polynomial(x):
    alg = x.owner
    field = alg.field
    power = alg.one
    powers = [power.coords]
    while True:
        power = power * x
        sol = scalarlinalg.solve(zip(*powers, power.coords), len(powers), field)
        if sol is not None:
            return [-c for c in sol] + [field.one]
        powers.append(power.coords)


def ref_evaluate_poly(coeffs, x):
    alg = x.owner
    out = alg.zero
    power = alg.one
    for c in coeffs:
        out = out + power.scale(c)
        power = power * x
    return out


def ref_contains(subspace, x):
    """x less the multiples of the reduced rows that clear it at their pivots
    is 0."""
    v = x.coords
    for row in subspace.rows:
        f = v[next(c for c, a in enumerate(row) if a)]
        v = [a - f * b for a, b in zip(v, row)]
    return not any(v)


def ref_crt_idempotents(x, f):
    field = x.owner.field
    f = to_poly(f, field)
    out = []
    for fi, m in f.factor_list()[1]:
        q = fi ** m
        g = f.exquo(q)
        coeffs = from_poly((g * g.invert(q)) % f, field)
        out.append((ref_evaluate_poly(coeffs, x), fi.degree()))
    return out


def ref_spectral_idempotents(x):
    alg = x.owner
    field = alg.field
    f = ref_minimal_polynomial(x)
    if len(f) == 2:
        return [(alg.one, 1)]
    if f == [field.zero, -field.one, field.one]:
        pair = [(x, 1), (alg.one - x, 1)]
        return pair if field.kind == "rationals" else pair[::-1]
    return ref_crt_idempotents(x, f)


def ref_block_type(algebra, e, block_basis, cdim):
    bdim = len(block_basis)
    if algebra.field.kind == "prime-field" or bdim == cdim:
        return math.isqrt(bdim // cdim), cdim, None
    n = math.isqrt(bdim)
    if cdim > 1:
        return None, None, "proper-centre"
    ints = [algebra.field.to_ints(row)[0] for row in block_basis]
    if n == 2:
        split = _quaternion_block_splits(algebra, e, ints)
        return (2, 1, None) if split else (1, 4, None)
    for row in block_basis:
        for u, _ in ref_spectral_idempotents(algebra.element(row)):
            if _corner_dim(algebra, u, ints) == 1:
                return n, 1, None
    return None, None, "no-rank-one-corner"


def ref_split(algebra):
    """(blocks, idempotents, radical rows) by the block loop on the spans
    e b_j, with the reference spectral idempotents."""
    radical = jacobson_radical(algebra)
    semisimple = quotient(algebra, radical)
    zbasis = center(semisimple).basis_elements()
    idems = [(semisimple.one, 1)]
    for z in zbasis:
        if sum(d for _, d in idems) == len(zbasis):
            break
        parts = ref_spectral_idempotents(z)
        idems = [(eu, max(d, du)) for e, d in idems for u, du in parts
                 if not (eu := e * u).is_zero()]
    idems = [e for e, _ in idems]
    basis = [semisimple.basis_element(i) for i in range(semisimple.dim)]
    field = semisimple.field
    blocks = []
    for e in idems:
        block_basis, _ = scalarlinalg.rref([(e * b).coords for b in basis], semisimple.dim,
                                           field)
        cdim = linalg.rank(linalg.int_rows([(e * z).coords for z in zbasis], field), field)
        blocks.append(BlockSummary(len(block_basis), cdim,
                                   *ref_block_type(semisimple, e, block_basis, cdim)))
    order = sorted(range(len(blocks)), key=lambda t: (blocks[t].dim, blocks[t].centre_dim))
    return [blocks[t] for t in order], [idems[t] for t in order], radical.rows


def ref_star(alg, e, x):
    n = alg.dim
    out = [alg.field.zero] * n
    for t, c in enumerate(e):
        if not c:
            continue
        i, j = divmod(t, n)
        for m, a in enumerate(x.coords):
            if not a:
                continue
            for s, b in alg.products.get((i, m), {}).items():
                for r, d in alg.products.get((s, j), {}).items():
                    out[r] += c * a * b * d
    return out


def opposite(g):
    """The opposite graded algebra: transposed structure constants, same
    degrees."""
    products = {(j, i): dict(terms) for (i, j), terms in g.algebra.products.items()}
    alg = Algebra(g.field, list(g.algebra.labels), products, unit=list(g.algebra.unit_coords))
    return GradedAlgebra(alg, g.group, list(g.degrees))


def ref_strongly_graded_at(g, gamma):
    """The certificate from products of basis elements, as field scalars."""
    alg = g.algebra
    left = g.component_indices(gamma)
    right = g.component_indices(gamma.inverse())
    if not left or not right:
        return None
    pairs = [(i, j) for i in left for j in right]
    cols = [(alg.basis_element(i) * alg.basis_element(j)).coords for i, j in pairs]
    sol = scalarlinalg.solve(zip(*cols, alg.unit_coords), len(pairs), alg.field)
    if sol is None:
        return None
    return [(pairs[c], sol[c]) for c in range(len(pairs)) if sol[c]]


def ref_lifted_trace_digit(x, i):
    """The digit g_i(x), or None where p^i does not divide the trace."""
    p = x.owner.field.characteristic
    lift = DomainMatrix([[ZZ(c.v) for c in row] for row in ref_regular_matrix(x, True)],
                        (x.owner.dim, x.owner.dim), ZZ)
    t = int(sum((lift ** p ** i).diagonal())) % p ** (i + 1)
    return t // p ** i if t % p ** i == 0 else None


# -- inputs -------------------------------------------------------------


def rebased(alg, rng):
    """alg on a random basis f_i = sum_k P_ik e_k (P invertible, entries
    with small denominators over Q): its constants and unit are in general
    not integers."""
    field, n = alg.field, alg.dim
    while True:
        p = [[random_scalar(field, rng, 3) for _ in range(n)] for _ in range(n)]
        if linalg.rank(linalg.int_rows(p, field), field) == n:
            break
    f = [alg.element(row) for row in p]
    coords = lambda v: scalarlinalg.solve(zip(*p, v), n, field)
    products = {(i, j): dict(enumerate(coords(ref_multiply(a, b))))
                for i, a in enumerate(f) for j, b in enumerate(f)}
    return Algebra(field, ["f%d" % i for i in range(n)], products,
                   unit=coords(alg.unit_coords))


def rebased_graded(g, rng):
    """g on a random homogeneous basis: each component's basis replaced by
    random combinations of itself (an invertible block of `rebased`'s
    kind), so the constants and the unit are in general not integers."""
    alg, field, n = g.algebra, g.field, g.dim
    p = [[field.zero] * n for _ in range(n)]
    for d in support(g):
        idx = g.component_indices(d)
        while True:
            block = [[random_scalar(field, rng, 3) for _ in idx] for _ in idx]
            if linalg.rank(linalg.int_rows(block, field), field) == len(idx):
                break
        for r, i in enumerate(idx):
            for c, j in enumerate(idx):
                p[i][j] = block[r][c]
    f = [alg.element(row) for row in p]
    coords = lambda v: scalarlinalg.solve(zip(*p, v), n, field)
    products = {(i, j): dict(enumerate(coords(ref_multiply(a, b))))
                for i, a in enumerate(f) for j, b in enumerate(f)}
    return GradedAlgebra(Algebra(field, ["f%d" % i for i in range(n)], products,
                                 unit=coords(alg.unit_coords)), g.group, g.degrees)


def dual_numbers_mod2(field):
    """F[x]/(x^2) graded by Z/2 with x odd: A_1 A_1 = 0, not strongly graded."""
    group = GradeGroup.cyclic(2)
    alg = Algebra(field, ["1", "x"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                  unit=[1, 0])
    return GradedAlgebra(alg, group, [group.element((0,)), group.element((1,))])


def scaled_square_z2(field, c, a):
    """F[x]/(x^2 - a) graded by Z/2 with x odd, on the basis f = c*1, x:
    f f = c f, f x = x f = c x, x x = (a/c) f, and the unit (1/c) f."""
    group = GradeGroup.cyclic(2)
    c, a = field.scalar(c), field.scalar(a)
    alg = Algebra(field, ["f", "x"], {(0, 0): {0: c}, (0, 1): {1: c}, (1, 0): {1: c},
                                      (1, 1): {0: a / c}}, unit=[field.one / c, field.zero])
    return GradedAlgebra(alg, group, [group.element((0,)), group.element((1,))])


def matrix_units_z(field):
    """M_2 graded by Z with e12 in degree 1 and e21 in degree -1: every
    product has one term, and A_1 A_(-1) = F e11 misses e22 in 1 = e11 + e22."""
    group = GradeGroup.fg_abelian(1, [])
    products = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {0: 1}, (1, 3): {1: 1},
                (2, 0): {2: 1}, (2, 1): {3: 1}, (3, 2): {2: 1}, (3, 3): {3: 1}}
    alg = Algebra(field, ["e11", "e12", "e21", "e22"], products, unit=[1, 0, 0, 1])
    return GradedAlgebra(alg, group, [group.element((d,)) for d in (0, 1, -1, 0)])


def rescaled_graded(g, rng):
    """g on the basis f_i = s_i e_i for random nonzero scalars s_i: one term
    wherever g's table has one, now with the coefficients s_i s_j c / s_k,
    and the unit's coordinates u_i / s_i."""
    field, s = g.field, []
    while len(s) < g.dim:
        if x := random_scalar(field, rng, 3):
            s.append(x)
    products = {(i, j): {k: s[i] * s[j] * c / s[k] for k, c in terms.items()}
                for (i, j), terms in g.algebra.products.items()}
    unit = [u / x for u, x in zip(g.algebra.unit_coords, s)]
    return GradedAlgebra(Algebra(field, ["f%d" % i for i in range(g.dim)], products,
                                 unit=unit), g.group, g.degrees)


def graded_algebras():
    rng = random.Random(20112)
    out = [random_constructed(rng) for _ in range(16)]
    out = [g for g in out if g.dim <= 16]
    for field in FIELDS:
        out.append(dual_numbers_mod2(field))
        base = construct_group_ring(field, GradeGroup.cyclic(2))
        out.append(ShiftedMatrixAlgebra(base, [base.group.element((c,)) for c in (0, 1)])
                   .materialized)
    out += [construct_truncated_polynomial(Q, 3), construct_quaternion(Q, -1, 3),
            construct_group_ring(Q, GradeGroup.symmetric_3())]
    return out + [rebased_graded(g, rng) for g in out]


def scalar_line(field, c):
    """The field on the basis {c}: e e = c e, unit 1/c."""
    c = field.scalar(c)
    return Algebra(field, ["c"], {(0, 0): {0: c}}, unit=[field.one / c])


def triangular(field):
    """T_2: e11, e12, e22."""
    products = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}}
    return Algebra(field, ["e11", "e12", "e22"], products, unit=[1, 0, 1])


def algebras():
    rng = random.Random(20111)
    out = []
    for _ in range(10):
        out.append(random_constructed(rng).algebra)
    for field in FIELDS:
        out.append(construct_matrix_algebra(field, 2))
        out.append(construct_group_ring(field, GradeGroup.symmetric_3()).algebra)
        out.append(construct_truncated_polynomial(field, 3).algebra)
        out.append(triangular(field))
        out.append(rebased(triangular(field), rng))
        out.append(scalar_line(field, 1))
        out.append(scalar_line(field, 3 if field.characteristic != 3 else 2))
        out.append(rebased(construct_matrix_algebra(field, 2), rng))
    h = construct_quaternion(Q, Fraction(1, 2), Fraction(-3, 4)).algebra
    out += [h, rebased(h, rng), construct_matrix_algebra(Q, 3),
            construct_group_ring(FieldSpec.prime_field(2), GradeGroup.dihedral(4)).algebra]
    return out


ALGEBRAS = algebras()


def elements(alg, rng):
    """Random elements, a basis vector, the unit and zero."""
    return [random_element(alg, rng), random_element(alg, rng, height=30),
            alg.basis_element(rng.randrange(alg.dim)), alg.one, alg.zero]


def same(a, b):
    """Equal and of the same scalar types, entry by entry."""
    if a is None or b is None:
        return a is b
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def field_id(field):
    """The field's part of a test id: QQ for the rationals, GF(p) otherwise."""
    return "QQ" if field.kind == "rationals" else repr(field)


def ids():
    return ["%d-%s-dim%d" % (t, field_id(alg.field), alg.dim) for t, alg in enumerate(ALGEBRAS)]


# -- the comparisons -----------------------------------------------------


def kernel_regular_matrix(x, left):
    """L_x (left) or R_x as field scalars, read off `integer_regular_rows`
    at the scale of x times the algebra's scale."""
    alg, field = x.owner, x.owner.field
    xs, dx = field.to_ints(x.coords)
    return [field.from_ints([row.get(j, 0) for j in range(alg.dim)], dx * alg.scale)
            for row in integer_regular_rows(alg, xs, left)]


@pytest.mark.parametrize("alg", ALGEBRAS, ids=ids())
def test_products_and_regular_matrices(alg):
    rng = random.Random(alg.dim * 7 + alg.field.characteristic)
    xs = elements(alg, rng)
    for x in xs:
        assert same(kernel_regular_matrix(x, True), ref_regular_matrix(x, True))
        assert same(kernel_regular_matrix(x, False), ref_regular_matrix(x, False))
        for y in xs:
            assert same(multiply(x, y).coords, tuple(ref_multiply(x, y)))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=ids())
def test_traces_forms_centre_commutators_psi(alg):
    rng = random.Random(alg.dim * 11 + alg.field.characteristic)
    t = alg.field.from_ints(*regular_traces(alg))
    assert same(t, ref_regular_traces(alg))
    for w in (t, [random_scalar(alg.field, rng) for _ in range(alg.dim)],
              [alg.field.zero] * alg.dim):
        form, den = integer_product_form(alg, *alg.field.to_ints(w))
        values = zip(form, alg.field.from_ints(form.values(), den))
        assert same({key: v for key, v in values if v}, ref_product_form(alg, w))
    assert same(center(alg).rows, ref_center_rows(alg))
    assert same(commutator_subspace(alg).rows, ref_commutator_rows(alg))
    if alg.dim <= 6:
        rows, den = integer_psi_matrix(alg)
        rows = [[row.get(c, 0) for c in range(alg.dim ** 2)] for row in rows]
        assert same([alg.field.from_ints(row, den) for row in rows], ref_psi_matrix(alg))


@pytest.mark.parametrize("alg", [a for a in ALGEBRAS if math.isqrt(a.dim) ** 2 == a.dim],
                         ids=lambda a: "%s-dim%d" % (field_id(a.field), a.dim))
def test_reduced_char_poly(alg):
    rng = random.Random(alg.dim * 13 + alg.field.characteristic)
    for a in elements(alg, rng):
        q = reduced_char_poly(alg, a)
        assert same(q.coeffs, ref_reduced_char_poly(alg, a))


def enveloping(alg):
    """A (x) A^op materialized as `graded_tensor(g, opposite(g))`, the
    reference for the kernels that read it off A's table; e_i (x) e_j is
    basis vector i*n + j."""
    g = trivially_graded(alg, GradeGroup.trivial())
    return graded_tensor(g, opposite(g)).algebra


@pytest.mark.parametrize("alg", [a for a in ALGEBRAS if a.dim <= 4],
                         ids=lambda a: "%s-dim%d" % (field_id(a.field), a.dim))
def test_star(alg):
    rng = random.Random(alg.dim * 17 + alg.field.characteristic)
    tensor = enveloping(alg)
    for e in (random_element(tensor, rng), tensor.one, tensor.zero):
        for x in elements(alg, rng):
            assert same(star_action(alg, e.coords)(x).coords, tuple(ref_star(alg, e.coords, x)))


@pytest.mark.parametrize("alg", [a for a in ALGEBRAS if a.dim <= 4],
                         ids=lambda a: "%s-dim%d" % (field_id(a.field), a.dim))
def test_enveloping_product_and_separability_rows(alg):
    """The product and the rows of (e_a (x) 1 - 1 (x) e_a) e, read off A's
    table, equal the product and the left regular matrices of the
    materialized A (x) A^op; the rows of e * 1 = 1 hold the products
    e_i e_j and the unit."""
    rng = random.Random(alg.dim * 23 + alg.field.characteristic)
    tensor = enveloping(alg)
    n2 = tensor.dim
    xs = [random_element(tensor, rng), random_element(tensor, rng, height=30),
          tensor.basis_element(rng.randrange(n2)), tensor.one, tensor.zero]
    for x in xs:
        for y in xs:
            assert same(enveloping_product(alg, x.coords, y.coords), (x * y).coords)
    n, one = alg.dim, alg.one.coords
    rows = [alg.field.from_ints([row.get(c, 0) for c in range(n2 + 1)], alg.scale)
            for row in separability_rows(alg, range(alg.dim))]
    assert len(rows) == n + n * n2
    basis = [alg.basis_element(i) for i in range(n)]
    unit_rows = [list(col) + [u] for col, u in zip(zip(*[ref_multiply(a, b) for a in basis
                                                           for b in basis]), one)]
    assert same(rows[:n], unit_rows)
    for a in range(n):
        ea = basis[a].coords
        x = tensor.element([u * v for u in ea for v in one]) - tensor.element(
            [u * v for u in one for v in ea])
        block = rows[n + a * n2:n + (a + 1) * n2]
        assert all(not row[n2] for row in block)
        assert same([row[:n2] for row in block], ref_regular_matrix(x, True))


def test_strong_grading_certificates_read_off_the_table():
    """`strongly_graded_at` reads e_i e_j off `Algebra.table`; its
    certificates equal the solve on products of basis elements, and each
    one sums to 1, on bases with non-integral constants and unit too. Both
    sides of its one-term test run: blocks whose products e_i e_j all have
    at most one term (read off the table, here also with scaled constants
    and a unit whose coefficients are not 1) and blocks with a product of
    two or more terms (solved)."""
    rng = random.Random(20113)
    inputs = graded_algebras()
    monomial = [g for g in inputs
                if all(len(t) <= 1 for row in g.algebra.table for t in row.values())]
    inputs += [rescaled_graded(g, rng) for g in monomial]
    for field in (Q, F3, FieldSpec.prime_field(7)):
        inputs += [scaled_square_z2(field, 2, -1), scaled_square_z2(field, -1, 5),
                   matrix_units_z(field)]
    found = missing = rebased_non_integral = scaled_unit = 0
    blocks = {True: 0, False: 0}  # one-term block? -> how many ran
    for g in inputs:
        alg = g.algebra
        if alg.field.kind == "rationals":
            rebased_non_integral += alg.scale != 1 or any(u.denominator != 1
                                                          for u in alg.unit_coords)
        for d in support(g):
            for gamma in (d, d.inverse()):
                one_term = all(len(alg.table[i].get(j, ())) <= 1
                               for i in g.component_indices(gamma)
                               for j in g.component_indices(gamma.inverse()))
                blocks[one_term] += 1
                cert = strongly_graded_at(g, gamma)
                assert same(cert, ref_strongly_graded_at(g, gamma)), (g.algebra, gamma)
                if cert is None:
                    missing += 1
                    continue
                found += 1
                scaled_unit += one_term and any(u not in (0, 1) for u in alg.unit_coords)
                total = alg.zero
                for (i, j), c in cert:
                    total = total + (alg.basis_element(i) * alg.basis_element(j)).scale(c)
                assert total == alg.one
    assert found > 50 and missing > 5 and rebased_non_integral >= 6
    assert blocks[True] > 500 and blocks[False] >= 15 and scaled_unit > 100, (blocks, scaled_unit)


@pytest.mark.parametrize("alg", [a for a in ALGEBRAS if a.field.characteristic] + [
                             construct_matrix_algebra(F3, 3),
                             construct_group_ring(F3, GradeGroup.product_of_cyclic(3, 3)).algebra],
                         ids=lambda a: "%s-dim%d" % (field_id(a.field), a.dim))
def test_lifted_trace_digit(alg):
    """The integer lift of L_x read from the kernel's residue columns gives
    the digits of the reference lift, wherever a digit is defined: round 2
    where p^2 <= dim, on the radical's basis too (J lies in every I_i)."""
    p = alg.field.characteristic
    rng = random.Random(alg.dim * 19 + p)
    for x in elements(alg, rng) + jacobson_radical(alg).basis_elements():
        for i in (0, 1, 2) if p * p <= alg.dim else (0, 1):
            want = ref_lifted_trace_digit(x, i)
            if want is not None:
                residues = dict(enumerate(alg.field.to_ints(x.coords)[0]))
                assert _lifted_trace_digit(alg, residues, i) == want


def test_radical_of_a_45_dim_ring_matches_the_reference_digits(monkeypatch):
    """J of M_3(F_5[C_5])(0, 1, 2) (rounds 1 and 2 of Cohen-Ivanyos-Wales)
    is the same echelon with the digits from dense `DomainMatrix` powers."""
    base = construct_group_ring(FieldSpec.prime_field(5), GradeGroup.cyclic(5))
    ring = ShiftedMatrixAlgebra(base, [base.group.element((c,)) for c in (0, 1, 2)])
    alg = ring.materialized.algebra
    shipped = jacobson_radical(alg).echelon
    residues = lambda a, x: a.element(a.field.from_ints([x.get(j, 0) for j in range(a.dim)], 1))
    monkeypatch.setattr(algebra_module, "_lifted_trace_digit",
                        lambda a, x, i: ref_lifted_trace_digit(residues(a, x), i))
    assert jacobson_radical(alg).echelon == shipped
    assert len(shipped[0]) == 36


def repeated_factor(field):
    """F[t]/(t^2 (t - 1)) on 1, t, t^2: t has minimal polynomial
    x^2 (x - 1), two factors, one of them squared."""
    products = {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 0): {1: 1},
                (2, 0): {2: 1}, (1, 1): {2: 1}, (1, 2): {2: 1}, (2, 1): {2: 1},
                (2, 2): {2: 1}}
    return Algebra(field, ["1", "t", "t2"], products, unit=[1, 0, 0])


POLY_ALGEBRAS = ALGEBRAS + [repeated_factor(field) for field in FIELDS]


def idempotent_pairs(parts):
    return [(e.coords, d) for e, d in parts]


@pytest.mark.parametrize("alg", POLY_ALGEBRAS,
                         ids=lambda a: "%s-dim%d" % (field_id(a.field), a.dim))
def test_minimal_polynomials_idempotents_and_evaluation(alg):
    """Minimal polynomials on integer powers, the CRT idempotents on sympy's
    dense level and Horner on ints equal the Poly and Fraction/GFElement
    references, the idempotents in order; the t of `repeated_factor` runs
    the CRT with a squared factor."""
    rng = random.Random(alg.dim * 29 + alg.field.characteristic)
    xs = elements(alg, rng) + [alg.basis_element(i) for i in range(min(alg.dim, 3))]
    for x in xs:
        f = minimal_polynomial(x)
        assert same(f, ref_minimal_polynomial(x))
        assert same(idempotent_pairs(_crt_idempotents(x, f)),
                    idempotent_pairs(ref_crt_idempotents(x, f)))
        assert same(idempotent_pairs(spectral_idempotents(x)),
                    idempotent_pairs(ref_spectral_idempotents(x)))
        for length in range(6):
            coeffs = [random_scalar(alg.field, rng) for _ in range(length)]
            assert same(evaluate_poly(coeffs, x).coords, ref_evaluate_poly(coeffs, x).coords)


def test_repeated_factor_runs_the_crt():
    for field in FIELDS:
        t = repeated_factor(field).basis_element(1)
        f = minimal_polynomial(t)
        assert f == [field.zero, field.zero, -field.one, field.one]
        parts = _crt_idempotents(t, f)
        assert len(parts) == 2 and parts[0][0] + parts[1][0] == t.owner.one


def test_subspace_membership():
    """`Subspace.contains` on ints equals the Fraction/GFElement reduction,
    on members (random combinations of the rows) and non-members of the
    centre, the commutator subspace and the radical."""
    rng = random.Random(20114)
    members = nonmembers = 0
    for alg in ALGEBRAS:
        for sub in (center(alg), commutator_subspace(alg), jacobson_radical(alg),
                    alg.subspace([])):
            combos = []
            for _ in range(3):
                v = alg.zero
                for row in sub.rows:
                    v = v + alg.element(row).scale(random_scalar(alg.field, rng))
                combos.append(v)
            others = elements(alg, rng) + [alg.basis_element(i) for i in range(alg.dim)]
            for x in combos + others:
                got = sub.contains(x)
                assert got == ref_contains(sub, x), (alg, sub.rows, x)
                members += got
                nonmembers += not got
            assert all(sub.contains(v) for v in combos)
    assert members > 500 and nonmembers > 500


def test_subspace_equality_reads_the_canonical_echelon():
    """The echelon of a subspace is canonical over Q as over GF(p): two
    generating sets of one space (permuted, rescaled, plus a redundant
    combination) give the same (rows, den, pivots), and so equal rows, ==
    and hash, on hand-picked and rebased algebras alike."""
    alg = construct_matrix_algebra(Q, 2)
    x, y = alg.element([2, 1, 0, 1]), alg.element([0, 3, 1, 0])
    a, b = alg.subspace([x, y]), alg.subspace([y, x + y, x.scale(Fraction(1, 2))])
    assert a.echelon == b.echelon
    assert a.rows == b.rows and a == b and hash(a) == hash(b)
    rng = random.Random(20115)
    checked = 0
    for alg in ALGEBRAS:
        for sub in (center(alg), commutator_subspace(alg), alg.full_subspace()):
            gens = [v.scale(random_scalar(alg.field, rng) or alg.field.one)
                    for v in sub.basis_elements()]
            rng.shuffle(gens)
            gens += [gens[0] + gens[-1]] if gens else []
            other = alg.subspace(gens)
            assert other.echelon == sub.echelon
            assert other.rows == sub.rows and other == sub and hash(other) == hash(sub)
            assert other.pivots == sub.pivots and other.dim == sub.dim
            checked += 1
    assert checked == 3 * len(ALGEBRAS)


def split_corpus():
    rng = random.Random(20113)
    groups = [GradeGroup.symmetric_3(), GradeGroup.dihedral(4), GradeGroup.cyclic(6),
              GradeGroup.product_of_cyclic(2, 2)]
    out = []
    for field in FIELDS:
        out += [construct_group_ring(field, group).algebra for group in groups]
        out += [construct_matrix_algebra(field, 2), construct_matrix_algebra(field, 3)]
    return out + [rebased(a, rng) for a in out if a.field.kind == "rationals"]


@pytest.mark.parametrize("alg", split_corpus(),
                         ids=lambda a: "%s-dim%d-scale%d" % (field_id(a.field), a.dim, a.scale))
def test_split_identity_component(alg):
    """The block loop on the integer rows of L_e gives the blocks,
    idempotents (in order) and radical of the loop on the spans e b_j."""
    dec = split_identity_component(alg)
    blocks, idems, radical = ref_split(alg)
    assert dec.blocks == blocks
    assert same([e.coords for e in dec.idempotents], [e.coords for e in idems])
    assert same(dec.radical.rows, radical)


def central_simple_corpus():
    """The constructor grid; M_2, T_2, F[C_2] and M_3 in random bases over Q
    (M_3 only over GF(p)) and GF(2, 3, 5, 7); and algebras with
    char F <= dim, where the radical's CIW rounds run."""
    out = []
    for _, call in constructor_cases():
        try:
            out.append(call().algebra)
        except (ValueError, ArithmeticError):
            pass
    rng = random.Random(20116)
    for field in FIELDS:
        bases = [construct_matrix_algebra(field, 2), triangular(field),
                 construct_group_ring(field, GradeGroup.cyclic(2)).algebra]
        if field.characteristic:
            bases.append(construct_matrix_algebra(field, 3))
        out += [rebased(alg, rng) for alg in bases]
    F2, F3 = FieldSpec.prime_field(2), FieldSpec.prime_field(3)
    return out + [construct_matrix_algebra(F2, 2), construct_matrix_algebra(F3, 3),
                  triangular(F2), construct_group_ring(F2, GradeGroup.cyclic(2)).algebra]


def generating_set_corpus():
    """The constructor grid's algebras, whose one-term tables give proper
    generating sets, and rebased bases over Q and GF(2, 3, 5, 7), whose
    tables keep the whole basis."""
    out = []
    for _, call in constructor_cases():
        try:
            out.append(call().algebra)
        except (ValueError, ArithmeticError):
            pass
    rng = random.Random(20118)
    for field in FIELDS:
        out += [rebased(alg, rng) for alg in (
            construct_matrix_algebra(field, 2), triangular(field),
            construct_group_ring(field, GradeGroup.symmetric_3()).algebra)]
    return out


def test_centre_and_commutators_on_a_generating_set():
    """The commutation rows of a generating set cut out the centre of the
    rows of the whole basis, and the commutators [e_g, e_j] of a generating
    set span those of all basis pairs."""
    corpus = generating_set_corpus()
    assert sum(len(alg.generating_set) < alg.dim for alg in corpus) > 100
    for alg in corpus:
        assert same(center(alg).rows, ref_center_rows(alg))
        assert same(commutator_subspace(alg).rows, ref_commutator_rows(alg))


def test_central_simple_matches_the_psi_criterion(monkeypatch):
    """dim Z(A) = 1 and J(A) = 0 gives the verdict of dim Z(A) = 1 and psi
    bijective; a radical counterexample is a nonzero element of J(A). The
    CIW rounds run on the small-characteristic inputs."""
    rounds = []
    real = algebra_module._lifted_trace_digit
    monkeypatch.setattr(algebra_module, "_lifted_trace_digit",
                        lambda alg, x, i: rounds.append(alg) or real(alg, x, i))
    corpus = central_simple_corpus()
    tags = {"true": 0, "centre-dim": 0, "radical-element": 0}
    for alg in corpus:
        rep = is_central_simple(alg)
        assert (rep.verdict == "true") == ref_is_central_simple(alg), alg
        if rep.verdict == "true":
            tags["true"] += 1
            continue
        tag, x = rep.counterexample
        tags[tag] += 1
        if tag == "radical-element":
            assert not x.is_zero() and jacobson_radical(alg).contains(x)
    assert tags["true"] > 60 and tags["centre-dim"] > 30 and tags["radical-element"] >= 6
    ciw = {id(alg) for alg in rounds}
    assert all(id(alg) in ciw for alg in corpus[-4:-1])


def polynomial_quotient(f):
    """Q[t]/(f) on 1, t, ..., t^(d-1) for a monic f (ascending Fractions):
    t has minimal polynomial f."""
    d = len(f) - 1
    powers = [[int(i == k) for i in range(d)] for k in range(d)]  # t^k reduced mod f
    while len(powers) < 2 * d - 1:
        prev = powers[-1]
        powers.append([(prev[i - 1] if i else 0) - prev[-1] * f[i] for i in range(d)])
    products = {(i, j): dict(enumerate(powers[i + j])) for i in range(d) for j in range(d)}
    return Algebra(Q, ["t%d" % i for i in range(d)], products, unit=powers[0])


def poly_from_roots(roots, *factors):
    """The ascending coefficients of prod (x - r) times the given factors."""
    f = [Fraction(1)]
    for g in [[-Fraction(r), 1] for r in roots] + list(factors):
        out = [Fraction(0)] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] += a * b
        f = out
    return f


def test_lagrange_idempotents_match_the_crt():
    """On polynomials with deg f distinct rational roots (negative, zero,
    non-integer), `_rational_roots` finds them in sympy's factor order and
    the Lagrange idempotents equal the CRT reference; an irreducible
    quadratic factor, a repeated root and coefficients over the search
    bound fall back to sympy with the same result."""
    third = Fraction(1, 3)
    split = [[0, -2, third, Fraction(-3, 4), 5], [1, -1, 2], [third, Fraction(2, 3)],
             [Fraction(-7, 2), 0], [256, -256, 1]]
    fallbacks = [poly_from_roots([1], [1, 0, 1]), poly_from_roots([1, 1, -2]),
                 poly_from_roots([0, 0, 1]), poly_from_roots([65537, -1]),
                 poly_from_roots([Fraction(1, 65537), 1])]
    rng = random.Random(20117)
    for _ in range(40):
        roots, k = set(), rng.randrange(2, 6)
        while len(roots) < k:
            roots.add(Fraction(rng.randint(-12, 12), rng.randint(1, 12)))
        split.append(list(roots))
    for f in [poly_from_roots(roots) for roots in split] + fallbacks:
        t = polynomial_quotient(f)
        x = t.basis_element(1)
        assert minimal_polynomial(x) == f
        roots = _rational_roots(f)
        if f in fallbacks:
            assert roots is None
        else:
            factors = [from_poly(g, Q) for g, _ in to_poly(f, Q).factor_list()[1]]
            assert roots == [-c0 / c1 for c0, c1 in factors]
        want = idempotent_pairs(ref_crt_idempotents(x, f))
        assert same(idempotent_pairs(_crt_idempotents(x, f)), want)


SEPARABILITY = [a for a in ALGEBRAS if a.dim <= 9] + [
    construct_symbol_algebra(FieldSpec.prime_field(7), 3, 2, 3, 2).algebra,
    construct_group_ring(FieldSpec.prime_field(3), GradeGroup.symmetric_3()).algebra,
    construct_truncated_polynomial(Q, 3).algebra]


@pytest.mark.parametrize("alg", SEPARABILITY,
                         ids=lambda a: "%s-dim%d" % (field_id(a.field), a.dim))
def test_separability_solve_on_a_generating_set(alg):
    """The commutation rows of a generating set give the solution of the
    rows of the whole basis, and the standard idempotent is that
    solution."""
    n2, field = alg.dim ** 2, alg.field
    solve = lambda rows: (None if (e := linalg.solve(rows, n2, field)) is None
                          else tuple(field.from_ints(*e)))
    full = solve(separability_rows(alg, range(alg.dim)))
    assert solve(separability_rows(alg, alg.generating_set)) == full
    assert standard_separability_idempotent(trivially_graded(alg, GradeGroup.trivial())) == full
