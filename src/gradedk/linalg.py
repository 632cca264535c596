"""Exact linear algebra over a field.

Matrices are dense lists of lists of field scalars (Fraction or GFElement);
all routines return canonical exact results. Row spaces are canonicalized via
reduced row echelon form so subspace equality is a data comparison.
Elimination is sympy's sparse ``sdm`` routines, run on dict rows of these
scalars with no domain conversion; ``charpoly`` and the polynomial helpers
are local, and ``to_sympy_poly``/``from_sympy_poly`` carry a coefficient
list to a sympy ``Poly`` (for factoring) and back.
"""

from __future__ import annotations

from fractions import Fraction

import sympy
from sympy.polys.matrices.sdm import (
    sdm_irref, sdm_nullspace_from_rref, sdm_particular_from_rref)


def zeros(field, rows, cols):
    z = field.zero
    return [[z for _ in range(cols)] for _ in range(rows)]


def identity_matrix(field, n):
    m = zeros(field, n, n)
    for i in range(n):
        m[i][i] = field.one
    return m


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


def mat_vec(a, x):
    return [sum_scalars(row[k] * x[k] for k in range(len(x))) for row in a]


def sum_scalars(it):
    it = iter(it)
    s = next(it)
    for v in it:
        s = s + v
    return s


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


def row_space_contains(echelon, vec):
    """Membership of vec in the row space given by canonical echelon rows."""
    v = list(vec)
    for row in echelon:
        c = next(i for i, x in enumerate(row) if x)
        if v[c]:
            f = v[c]
            v = [a - f * b for a, b in zip(v, row)]
    return not any(v)


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


def inverse(a, field):
    """Matrix inverse, or None if singular."""
    n = len(a)
    red, pivots = rref([list(row) + e for row, e in zip(a, identity_matrix(field, n))])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


def trace(a):
    return sum_scalars(a[i][i] for i in range(len(a)))


# -- polynomials ------------------------------------------------------
# Polynomials are coefficient lists in ascending degree order.


def poly_trim(p, zero):
    while len(p) > 1 and not p[-1]:
        p = p[:-1]
    return p if p else [zero]


def poly_mul(p, q, field):
    z = field.zero
    out = [z] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return poly_trim(out, z)


def poly_sub(p, q, field):
    z = field.zero
    n = max(len(p), len(q))
    p = list(p) + [z] * (n - len(p))
    q = list(q) + [z] * (n - len(q))
    return poly_trim([a - b for a, b in zip(p, q)], z)


_X = sympy.Symbol("x")


def to_sympy_poly(coeffs, field):
    """An ascending coefficient list as a sympy Poly in x over QQ or GF(p)."""
    desc = list(reversed(coeffs))
    if field.kind == "rationals":
        return sympy.Poly.from_list([sympy.QQ(c.numerator, c.denominator) for c in desc],
                                    _X, domain=sympy.QQ)
    return sympy.Poly.from_list([c.v for c in desc], _X, modulus=field.characteristic)


def from_sympy_poly(poly, field):
    """The ascending coefficient list, in field scalars, of a sympy Poly."""
    return [field.scalar(Fraction(int(c.p), int(c.q))) for c in reversed(poly.all_coeffs())]


def charpoly(a, field):
    """Characteristic polynomial det(xI - A), ascending coefficients.

    Hessenberg reduction followed by the leading-minor recurrence; valid over
    any field (divisions are only by nonzero field elements).
    """
    n = len(a)
    if n == 0:
        return [field.one]
    h = [list(row) for row in a]
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if h[i][j]:
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        for i in range(j + 2, n):
            if h[i][j]:
                f = h[i][j] / h[j + 1][j]
                h[i] = [x - f * y for x, y in zip(h[i], h[j + 1])]
                for row in h:
                    row[j + 1] = row[j + 1] + f * row[i]
    # p_m = charpoly of the leading m x m block of the Hessenberg form
    polys = [[field.one]]
    for m in range(1, n + 1):
        term = poly_mul([-h[m - 1][m - 1], field.one], polys[m - 1], field)
        prod = field.one
        for i in range(1, m):
            prod = prod * h[m - i][m - i - 1]
            coeff = h[m - 1 - i][m - 1] * prod
            if coeff:
                term = poly_sub(term, [c * coeff for c in polys[m - 1 - i]], field)
        polys.append(term)
    return polys[n]

