"""Differential test of the integer structure-constant kernel.

The reference functions below are the scalar loops the kernel replaced: they
run on `Algebra.products` with Fraction or GFElement arithmetic. Every kernel
result must equal them with `==` and hold the same scalar types, on random
algebras over Q and GF(2/3/5/7), on bases with non-integer constants and a
non-integer unit, on dim-1 algebras and with zero factors.
"""

import math
import random
from fractions import Fraction

import pytest
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from gradedk import linalg
from gradedk.algebra import (Algebra, center, commutator_subspace, enveloping_product,
                             integer_product_form, integer_psi_matrix,
                             left_regular_matrix, multiply, regular_traces,
                             right_regular_matrix, sandwich, separability_rows)
from gradedk.constructors import (construct_group_ring, construct_matrix_algebra,
                                  construct_quaternion, construct_truncated_polynomial)
from gradedk.fields import FieldSpec
from gradedk.graded import (GradedAlgebra, _strongly_graded_at, graded_tensor, support,
                            trivially_graded)
from gradedk.groups import GradeGroup
from gradedk.ktheory import _lifted_trace_digit
from gradedk.matrixring import ShiftedMatrixAlgebra
from gradedk.trace import reduced_char_poly

from randomdata import random_constructed, random_element, random_scalar

Q = FieldSpec.rationals()
FIELDS = [Q] + [FieldSpec.prime_field(p) for p in (2, 3, 5, 7)]


# -- the reference scalar loops ----------------------------------------


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
    return [tuple(r) for r in linalg.nullspace(linalg.int_rows(rows, alg.field), n,
                                               alg.field)]


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
    return [tuple(r) for r in linalg.rref(linalg.int_rows(rows, alg.field), n,
                                          alg.field)[0]]


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
    cp = linalg.to_sympy_poly(linalg.charpoly(ref_regular_matrix(a, True), field), field)
    return linalg.from_sympy_poly(math.prod(g ** (k // n) for g, k in cp.factor_list()[1]),
                                  field)


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
    sol = linalg.solve(linalg.int_rows(zip(*cols, alg.unit_coords), alg.field), len(pairs),
                       alg.field)
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
    coords = lambda v: linalg.solve(linalg.int_rows(zip(*p, v), field), n, field)
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
    coords = lambda v: linalg.solve(linalg.int_rows(zip(*p, v), field), n, field)
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
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def ids():
    return ["%d-%r-dim%d" % (t, alg.field, alg.dim) for t, alg in enumerate(ALGEBRAS)]


# -- the comparisons -----------------------------------------------------


@pytest.mark.parametrize("alg", ALGEBRAS, ids=ids())
def test_products_and_regular_matrices(alg):
    rng = random.Random(alg.dim * 7 + alg.field.characteristic)
    xs = elements(alg, rng)
    for x in xs:
        assert same(left_regular_matrix(x), ref_regular_matrix(x, True))
        assert same(right_regular_matrix(x), ref_regular_matrix(x, False))
        for y in xs:
            assert same(multiply(x, y).coords, tuple(ref_multiply(x, y)))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=ids())
def test_traces_forms_centre_commutators_psi(alg):
    rng = random.Random(alg.dim * 11 + alg.field.characteristic)
    t = regular_traces(alg)
    assert same(t, ref_regular_traces(alg))
    for w in (t, [random_scalar(alg.field, rng) for _ in range(alg.dim)],
              [alg.field.zero] * alg.dim):
        form, den = integer_product_form(alg, w)
        values = zip(form, alg.field.from_ints(form.values(), den))
        assert same({key: v for key, v in values if v}, ref_product_form(alg, w))
    assert same(center(alg).rows, ref_center_rows(alg))
    assert same(commutator_subspace(alg).rows, ref_commutator_rows(alg))
    if alg.dim <= 6:
        rows, den = integer_psi_matrix(alg)
        rows = [[row.get(c, 0) for c in range(alg.dim ** 2)] for row in rows]
        assert same([alg.field.from_ints(row, den) for row in rows], ref_psi_matrix(alg))


@pytest.mark.parametrize("alg", [a for a in ALGEBRAS if math.isqrt(a.dim) ** 2 == a.dim],
                         ids=lambda a: "%r-dim%d" % (a.field, a.dim))
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
                         ids=lambda a: "%r-dim%d" % (a.field, a.dim))
def test_star(alg):
    rng = random.Random(alg.dim * 17 + alg.field.characteristic)
    tensor = enveloping(alg)
    for e in (random_element(tensor, rng), tensor.one, tensor.zero):
        for x in elements(alg, rng):
            assert same(sandwich(alg, e.coords, x).coords, tuple(ref_star(alg, e.coords, x)))


@pytest.mark.parametrize("alg", [a for a in ALGEBRAS if a.dim <= 4],
                         ids=lambda a: "%r-dim%d" % (a.field, a.dim))
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
            for row in separability_rows(alg)]
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
        assert same([row[:n2] for row in block], left_regular_matrix(x))


def test_strong_grading_certificates_read_off_the_table():
    """`_strongly_graded_at` reads e_i e_j off `Algebra.table`; its
    certificates equal the solve on products of basis elements, and each
    one sums to 1, on bases with non-integral constants and unit too."""
    found = missing = rebased_non_integral = 0
    for g in graded_algebras():
        alg = g.algebra
        if alg.field.kind == "rationals":
            rebased_non_integral += alg.scale != 1 or any(u.denominator != 1
                                                          for u in alg.unit_coords)
        for d in support(g):
            for gamma in (d, d.inverse()):
                cert = _strongly_graded_at(g, gamma)
                assert same(cert, ref_strongly_graded_at(g, gamma)), (g.algebra, gamma)
                if cert is None:
                    missing += 1
                    continue
                found += 1
                total = alg.zero
                for (i, j), c in cert:
                    total = total + (alg.basis_element(i) * alg.basis_element(j)).scale(c)
                assert total == alg.one
    assert found > 50 and missing > 5 and rebased_non_integral >= 6


@pytest.mark.parametrize("alg", [a for a in ALGEBRAS if a.field.characteristic],
                         ids=lambda a: "%r-dim%d" % (a.field, a.dim))
def test_lifted_trace_digit(alg):
    """The integer lift of L_x read from the kernel's residue columns gives
    the digits of the reference lift, wherever a digit is defined."""
    rng = random.Random(alg.dim * 19 + alg.field.characteristic)
    for x in elements(alg, rng):
        for i in (0, 1):
            want = ref_lifted_trace_digit(x, i)
            if want is not None:
                assert _lifted_trace_digit(x, i) == want
