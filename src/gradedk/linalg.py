"""Exact linear algebra over a field: adapters to sympy.

Matrices are dense lists of lists of field scalars (Fraction or GFElement);
all routines return canonical exact results. Row spaces are canonicalized via
reduced row echelon form so subspace equality is a data comparison.
Elimination is sympy's sparse ``sdm`` routines, run on dict rows of these
scalars with no domain conversion. The characteristic polynomial is sympy's
``DomainMatrix.charpoly`` over QQ or GF(p), and ``to_sympy_poly``/
``from_sympy_poly`` carry a coefficient list to a sympy ``Poly`` (for
factoring) and back; no polynomial arithmetic is done here.
"""

from __future__ import annotations

from fractions import Fraction

import sympy
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.sdm import (
    sdm_irref, sdm_nullspace_from_rref, sdm_particular_from_rref)


def mat_mul(a, b):
    """a b, adding x * (row k of b) for each nonzero entry x = a_ik only."""
    zero = b[0][0] - b[0][0]
    out = []
    for ai in a:
        row = [zero] * len(b[0])
        for x, bk in zip(ai, b):
            if x:
                row = [s + x * y for s, y in zip(row, bk)]
        out.append(row)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def _dict_rows(rows):
    """(sdm dict rows of the nonzero entries, column count) of dense rows."""
    sparse, ncols = {}, 0
    for i, row in enumerate(rows):
        ncols = len(row)
        nz = {j: x for j, x in enumerate(row) if x}
        if nz:
            sparse[i] = nz
    return sparse, ncols


def _dense_rows(sparse, ncols, zero):
    out = []
    for nz in sparse:
        row = [zero] * ncols
        for j, x in nz.items():
            row[j] = x
        out.append(row)
    return out


def rref(rows):
    """Reduced row echelon form with unit pivots; returns (rows, pivot_cols).

    Zero rows are dropped, so the result is the canonical basis of the row
    space.
    """
    sparse, ncols = _dict_rows(rows)
    red, pivots, _ = sdm_irref(sparse)
    if not pivots:
        return [], []
    one = red[0][pivots[0]]
    return _dense_rows(red.values(), ncols, one - one), pivots


def rank(a):
    return len(sdm_irref(_dict_rows(a)[0])[1])


def echelon_pairs(rows):
    """(pivot column, row) for each row of an echelon basis."""
    return [(next(c for c, x in enumerate(row) if x), row) for row in rows]


def reduce_vector(echelon, vec):
    """vec less the multiples of the echelon rows that clear it at their
    pivots. echelon is (pivot, row) pairs, each row 1 at its pivot and 0 at
    the pivots of the pairs before it, so the result is 0 at every pivot,
    and it is 0 iff vec lies in the span of the rows."""
    v = vec
    for c, row in echelon:
        f = v[c]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return v


def row_space_contains(echelon, vec):
    """Membership of vec in the row space given by canonical echelon rows."""
    return not any(reduce_vector(echelon_pairs(echelon), vec))


def solve(a, b):
    """One solution of A x = b, or None if inconsistent."""
    if not a:
        return []
    sparse, cols = _dict_rows(a)
    for i, bi in enumerate(b):
        if bi:
            sparse.setdefault(i, {})[cols] = bi
    red, pivots, _ = sdm_irref(sparse)
    if pivots and pivots[-1] == cols:
        return None
    particular = sdm_particular_from_rref(red, cols + 1, pivots)
    return _dense_rows([particular], cols, b[0] - b[0])[0]


def nullspace(a, field):
    """Canonical basis (rows) of {x : A x = 0}."""
    sparse, cols = _dict_rows(a)
    red, pivots, nonzero_cols = sdm_irref(sparse)
    kernel, _ = sdm_nullspace_from_rref(red, field.one, cols, pivots, nonzero_cols)
    return _dense_rows(sdm_irref(dict(enumerate(kernel)))[0].values(), cols, field.zero)


# -- sympy domains; polynomials are ascending coefficient lists --------


_X = sympy.Symbol("x")


def _domain(field):
    """sympy's QQ or GF(p) for the field, and the map of a scalar into it."""
    if field.kind == "rationals":
        return sympy.QQ, lambda c: sympy.QQ(c.numerator, c.denominator)
    dom = sympy.GF(field.characteristic)
    return dom, lambda c: dom(c.v)


def _scalar(field, x):
    """The field scalar of a sympy Integer or Rational."""
    return field.scalar(Fraction(int(x.p), int(x.q)))


def to_sympy_poly(coeffs, field):
    """An ascending coefficient list as a sympy Poly in x over QQ or GF(p)."""
    dom, conv = _domain(field)
    return sympy.Poly.from_list([conv(c) for c in reversed(coeffs)], _X, domain=dom)


def from_sympy_poly(poly, field):
    """The ascending coefficient list, in field scalars, of a sympy Poly."""
    return [_scalar(field, c) for c in reversed(poly.all_coeffs())]


def charpoly(a, field):
    """Characteristic polynomial det(xI - A), ascending coefficients."""
    dom, conv = _domain(field)
    dm = DomainMatrix([[conv(x) for x in row] for row in a], (len(a), len(a)), dom)
    return [_scalar(field, dom.to_sympy(c)) for c in reversed(dm.charpoly())]
