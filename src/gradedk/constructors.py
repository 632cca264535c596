"""Named constructors: quaternion algebras, symbol algebras, Laurent-type
graded fields, and group rings, each delivered with its grading, which
`GradedAlgebra` checks when it is built."""

from __future__ import annotations

from .algebra import Algebra
from .graded import GradedAlgebra, TwistedGroupAlgebra
from .groups import GradeGroup, SubgroupSpec


def construct_quaternion(field, a, b, grading="Z2xZ2"):
    """(a, b / F): basis 1, i, j, k with i^2 = a, j^2 = b, ij = -ji = k.

    grading: "trivial", "Z2" (split {1, i} / {j, k}), or "Z2xZ2".
    """
    a = field.scalar(a)
    b = field.scalar(b)
    if not a or not b:
        raise ValueError("parameters must be nonzero")
    if not field.is_invertible_int(2):
        raise ValueError("characteristic 2 is not supported")
    one, neg = field.one, -field.one
    ab = a * b
    products = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
        (1, 0): {1: one}, (2, 0): {2: one}, (3, 0): {3: one},
        (1, 1): {0: a},
        (1, 2): {3: one},
        (1, 3): {2: a},
        (2, 1): {3: neg},
        (2, 2): {0: b},
        (2, 3): {1: -b},
        (3, 1): {2: -a},
        (3, 2): {1: b},
        (3, 3): {0: -ab},
    }
    alg = Algebra(field, ["1", "i", "j", "k"], products,
                  unit=[one, field.zero, field.zero, field.zero])
    if grading == "trivial":
        group = GradeGroup.trivial()
        degrees = [group.identity] * 4
    elif grading == "Z2":
        group = GradeGroup.cyclic(2)
        degrees = [group.element((0,)), group.element((0,)),
                   group.element((1,)), group.element((1,))]
    elif grading == "Z2xZ2":
        group = GradeGroup.product_of_cyclic(2, 2)
        degrees = [group.element((0, 0)), group.element((1, 0)),
                   group.element((0, 1)), group.element((1, 1))]
    else:
        raise ValueError("unknown grading %r" % grading)
    return GradedAlgebra(alg, group, degrees)


def construct_symbol_algebra(field, n, a, b, xi):
    """The symbol algebra of degree n: generators x, y with x^n = a, y^n = b,
    xy = xi * yx, graded by Z/n x Z/n on the basis x^i y^j.

    xi must be a primitive n-th root of unity in the field (so char does not
    divide n).
    """
    n = int(n)
    if n < 1:
        raise ValueError("degree must be positive")
    a = field.scalar(a)
    b = field.scalar(b)
    xi = field.scalar(xi)
    if not a or not b:
        raise ValueError("parameters must be nonzero")
    pw = field.one
    for k in range(1, n):
        pw = pw * xi
        if pw == field.one:
            raise ValueError("xi has order %d < n" % k)
    pw = pw * xi
    if pw != field.one:
        raise ValueError("xi is not an n-th root of unity")

    def index(i, j):
        return i * n + j

    labels = []
    for i in range(n):
        for j in range(n):
            if i == 0 and j == 0:
                labels.append("1")
            else:
                lab = ""
                if i:
                    lab += "x" if i == 1 else "x^%d" % i
                if j:
                    lab += "y" if j == 1 else "y^%d" % j
                labels.append(lab)
    products = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    # (x^i y^j)(x^k y^l) = xi^(-kj) x^(i+k) y^(j+l)
                    c = xi ** (-(k * j) % (n * n))
                    if i + k >= n:
                        c = c * a
                    if j + l >= n:
                        c = c * b
                    products[(index(i, j), index(k, l))] = {
                        index((i + k) % n, (j + l) % n): c}
    unit = [field.zero] * (n * n)
    unit[0] = field.one
    alg = Algebra(field, labels, products, unit=unit)
    group = GradeGroup.product_of_cyclic(n, n) if n > 1 else GradeGroup.trivial()
    if n > 1:
        degrees = [group.element((i, j)) for i in range(n) for j in range(n)]
    else:
        degrees = [group.identity]
    return GradedAlgebra(alg, group, degrees)


def construct_laurent(field, step=1, cocycle=None):
    """The Laurent-type graded field with support step*Z inside Z: components
    F * u_(step*m), trivial cocycle by default."""
    step = int(step)
    if step < 1:
        raise ValueError("step must be positive")
    group = GradeGroup.integers()
    supp = SubgroupSpec(group, [group.element((step,))])
    return TwistedGroupAlgebra(field, group, supp, cocycle=cocycle)


def construct_group_ring(field, group):
    """F[G] for a finite group, graded by G with deg(g) = g."""
    if group.kind == "finite-table":
        elems = group.elements()
    elif group.is_finite():
        elems = group.elements()
    else:
        raise ValueError("finite groups only")
    index = {g: t for t, g in enumerate(elems)}
    labels = ["u[%r]" % g for g in elems]
    products = {}
    for i, g in enumerate(elems):
        for j, h in enumerate(elems):
            products[(i, j)] = {index[g * h]: field.one}
    unit = [field.zero] * len(elems)
    unit[index[group.identity]] = field.one
    alg = Algebra(field, labels, products, unit=unit)
    return GradedAlgebra(alg, group, list(elems))


def construct_truncated_polynomial(field, m):
    """F[t]/(t^m) with deg(t^i) = i in Z: a valid grading that is never
    strongly graded for m >= 1 (the degree-1 certificate fails)."""
    m = int(m)
    if m < 2:
        raise ValueError("need m >= 2")
    group = GradeGroup.integers()
    products = {}
    for i in range(m):
        for j in range(m):
            if i + j < m:
                products[(i, j)] = {i + j: field.one}
    labels = ["1"] + ["t" if i == 1 else "t^%d" % i for i in range(1, m)]
    unit = [field.one] + [field.zero] * (m - 1)
    alg = Algebra(field, labels, products, unit=unit)
    degrees = [group.element((i,)) for i in range(m)]
    return GradedAlgebra(alg, group, degrees)


def construct_matrix_algebra(field, n):
    """M_n(F) on the matrix-unit basis e_ij (row-major), ungraded."""
    labels = ["e%d%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]
    products = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        products[(i * n + j, k * n + l)] = {i * n + l: field.one}
    unit = [field.one if i == j else field.zero
            for i in range(n) for j in range(n)]
    return Algebra(field, labels, products, unit=unit)
