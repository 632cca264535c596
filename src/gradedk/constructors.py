"""Named constructors: quaternion algebras, symbol algebras, Laurent-type
graded fields, group rings and truncated polynomial rings, each delivered
with its grading, which `GradedAlgebra` checks when it is built, and the
ungraded matrix algebras M_n(F).

Every finite one has a basis that is closed under multiplication up to a
scalar, e_s e_t = c e_u or 0, and `_basis_algebra` builds the `Algebra`
from that rule on the basis keys. The quaternion algebra (a, b) is the
symbol algebra of degree 2 with xi = -1, on the basis 1, x, y, xy named
1, i, j, k.
"""

from __future__ import annotations

from .algebra import Algebra
from .graded import GradedAlgebra, TwistedGroupAlgebra
from .groups import GradeGroup, SubgroupSpec


def _basis_algebra(field, keys, product, labels, unit):
    """The algebra with basis e_k, k in keys, named by labels:
    product(s, t) is (u, c) for e_s e_t = c e_u, or None for 0, and 1 is
    the sum of the e_k for k in unit."""
    index = {k: t for t, k in enumerate(keys)}
    products = {}
    for i, s in enumerate(keys):
        for j, t in enumerate(keys):
            uc = product(s, t)
            if uc is not None:
                products[(i, j)] = {index[uc[0]]: uc[1]}
    return Algebra(field, labels, products, unit=[int(k in unit) for k in keys])


def _power(var, i):
    """The label of var^i: "" for i = 0, var for i = 1, else var^i."""
    return "" if i == 0 else var if i == 1 else "%s^%d" % (var, i)


def _symbol_product(n, a, b, xi):
    """The product of x^i y^j, keyed (i, j), in the algebra x^n = a,
    y^n = b, xy = xi yx:
    (x^i y^j)(x^k y^l) = xi^(-kj) a^[i+k >= n] b^[j+l >= n] x^(i+k) y^(j+l)."""
    powers = [xi ** e for e in range(n)]

    def product(s, t):
        (i, j), (k, l) = s, t
        c = powers[-(k * j) % n]
        if i + k >= n:
            c = c * a
        if j + l >= n:
            c = c * b
        return ((i + k) % n, (j + l) % n), c
    return product


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
    keys = [(0, 0), (1, 0), (0, 1), (1, 1)]
    alg = _basis_algebra(field, keys, _symbol_product(2, a, b, -field.one),
                         ["1", "i", "j", "k"], [(0, 0)])
    if grading == "trivial":
        group = GradeGroup.trivial()
        degrees = [group.identity] * 4
    elif grading == "Z2":
        group = GradeGroup.cyclic(2)
        degrees = [group.element((j,)) for i, j in keys]
    elif grading == "Z2xZ2":
        group = GradeGroup.product_of_cyclic(2, 2)
        degrees = [group.element(key) for key in keys]
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
    order = next((k for k in range(1, n + 1) if xi ** k == field.one), None)
    if order is not None and order < n:
        raise ValueError("xi has order %d < n" % order)
    if order != n:
        raise ValueError("xi is not an n-th root of unity")

    keys = [(i, j) for i in range(n) for j in range(n)]
    labels = [_power("x", i) + _power("y", j) or "1" for i, j in keys]
    alg = _basis_algebra(field, keys, _symbol_product(n, a, b, xi), labels, [(0, 0)])
    if n > 1:
        group = GradeGroup.product_of_cyclic(n, n)
        degrees = [group.element(key) for key in keys]
    else:
        group = GradeGroup.trivial()
        degrees = [group.identity]
    return GradedAlgebra(alg, group, degrees)


def construct_laurent(field, step=1):
    """The Laurent-type graded field with support step*Z inside Z: components
    F * u_(step*m) with the trivial cocycle."""
    step = int(step)
    if step < 1:
        raise ValueError("step must be positive")
    group = GradeGroup.integers()
    supp = SubgroupSpec(group, [group.element((step,))])
    return TwistedGroupAlgebra(field, group, supp)


def construct_group_ring(field, group):
    """F[G] for a finite group, graded by G with deg(g) = g."""
    if not group.is_finite():
        raise ValueError("finite groups only")
    elems = group.elements()
    mul = group._mul
    alg = _basis_algebra(field, [g.coords for g in elems], lambda g, h: (mul(g, h), 1),
                         ["u[%r]" % g for g in elems], [group._identity_coords])
    return GradedAlgebra(alg, group, elems)


def construct_truncated_polynomial(field, m):
    """F[t]/(t^m) with deg(t^i) = i in Z: a valid grading that is never
    strongly graded for m >= 1 (the degree-1 certificate fails)."""
    m = int(m)
    if m < 2:
        raise ValueError("need m >= 2")
    group = GradeGroup.integers()
    labels = [_power("t", i) or "1" for i in range(m)]
    alg = _basis_algebra(field, range(m), lambda i, j: (i + j, 1) if i + j < m else None,
                         labels, [0])
    return GradedAlgebra(alg, group, [group.element((i,)) for i in range(m)])


def construct_matrix_algebra(field, n):
    """M_n(F) on the matrix-unit basis e_ij (row-major), ungraded."""
    keys = [(i, j) for i in range(n) for j in range(n)]
    return _basis_algebra(field, keys,
                          lambda s, t: ((s[0], t[1]), 1) if s[1] == t[0] else None,
                          ["e%d%d" % (i + 1, j + 1) for i, j in keys],
                          [(i, i) for i in range(n)])
