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
from gradedk.algebra import (Algebra, center, commutator_subspace,
                             integer_product_form, left_regular_matrix, multiply,
                             psi_matrix, regular_traces, right_regular_matrix)
from gradedk.azumaya import EnvelopingAlgebra
from gradedk.constructors import (construct_group_ring, construct_matrix_algebra,
                                  construct_quaternion, construct_truncated_polynomial)
from gradedk.fields import FieldSpec
from gradedk.graded import GradedAlgebra
from gradedk.groups import GradeGroup
from gradedk.ktheory import _lifted_trace_digit
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
    return linalg.transpose(cols)


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
    return [tuple(r) for r in linalg.nullspace(rows, alg.field)]


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
    return [tuple(r) for r in linalg.rref(rows)[0]]


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
        if linalg.rank(p) == n:
            break
    f = [alg.element(row) for row in p]
    pt = linalg.transpose(p)
    coords = lambda v: linalg.solve(pt, list(v))
    products = {(i, j): dict(enumerate(coords(ref_multiply(a, b))))
                for i, a in enumerate(f) for j, b in enumerate(f)}
    return Algebra(field, ["f%d" % i for i in range(n)], products,
                   unit=coords(alg.unit_coords))


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
        assert same(psi_matrix(alg), ref_psi_matrix(alg))


@pytest.mark.parametrize("alg", [a for a in ALGEBRAS if math.isqrt(a.dim) ** 2 == a.dim],
                         ids=lambda a: "%r-dim%d" % (a.field, a.dim))
def test_reduced_char_poly(alg):
    rng = random.Random(alg.dim * 13 + alg.field.characteristic)
    for a in elements(alg, rng):
        q = reduced_char_poly(alg, a)
        assert same(q.coeffs, ref_reduced_char_poly(alg, a))


@pytest.mark.parametrize("alg", [a for a in ALGEBRAS if a.dim <= 4],
                         ids=lambda a: "%r-dim%d" % (a.field, a.dim))
def test_star(alg):
    rng = random.Random(alg.dim * 17 + alg.field.characteristic)
    group = GradeGroup.trivial()
    env = EnvelopingAlgebra(GradedAlgebra(alg, group, [group.identity] * alg.dim))
    tensor = env.tensor.algebra
    for e in (random_element(tensor, rng), tensor.one, tensor.zero):
        for x in elements(alg, rng):
            assert same(env.star(e, x).coords, tuple(ref_star(alg, e.coords, x)))


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
