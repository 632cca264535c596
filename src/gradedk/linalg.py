"""Exact linear algebra over Q and GF(p): integer rows in, integer rows out.

`rref`, `rank`, `nullspace`, `solve` and `charpoly` take sparse integer
rows, each a dict {column: int}, with the field, and the column count
where the result needs it. A missing column is 0, and a stored 0 (mod p)
is dropped. A row counts by its residues over GF(p), and over Q up to a
nonzero factor, except in `charpoly`, whose matrix is the rows as given. The
structure-constant kernel builds its rows so, from `Algebra.table`;
`int_rows` is the one adapter for dense rows of field scalars. `solve`
takes the rows of [A | b], with b in column ncols.

The results are ints too. `rref` and `nullspace` return an echelon (rows,
den, pivots): one sparse row per pivot, in pivot order, den times the
reduced row (1 at its pivot, 0 at the other pivots). Over GF(p) the rows
are residues and den is 1; over Q den is the least common denominator.
So one row space gives one echelon. `solve` returns (x, den) with x
dense; an `AlgebraElement` holds the same ints over a den.

There is one elimination, `_reduced`, a sparse Gauss-Jordan on the integer
rows as given, which `rref`, `rank`, `solve` and `nullspace` call. Its one
index, `holding`, names for each column the pivot rows nonzero there, from
which a new pivot's column is cleared. Four steps depend on the field: a
row is taken mod p as it is read; each entry a clearing step writes is
taken mod p; a new row is scaled to 1 at its pivot over GF(p), and over Q
divided by its content signed as its pivot entry, so rows stay primitive
and no division is made but by a gcd; and den is 1 over GF(p), the lcm
of the pivot entries over Q. Every other rescaling over Q is skipped at a
pivot entry of 1, so it never runs over GF(p).

`reduce_row` reduces an integer row against an echelon, for membership
(`Subspace.contains`), quotients and the ideal spin. `mat_mul`
multiplies ints or field scalars alike. Polynomials are sympy's dense
lists, the level of its `dup_*` functions, and `to_dense`/`from_dense`
carry an ascending list of field scalars there and back. The
characteristic polynomial of the square matrix of the rows is sympy's
``DomainMatrix.charpoly`` over QQ or GF(p), returned as field scalars; no
polynomial arithmetic is done here.
"""

from __future__ import annotations

import math
from collections import defaultdict

import sympy
from sympy.polys.matrices import DomainMatrix


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


def int_rows(rows, field):
    """Dense rows of field scalars as sparse integer rows with the same row
    space and kernel: each row's nonzero numerators over the lcm of its
    denominators."""
    return [{j: x for j, x in enumerate(field.to_ints(row)[0]) if x} for row in rows]


def _reduced(rows, field):
    """The echelon (rows, den, pivots) of sparse integer rows, their stored
    zeros dropped: one row per pivot in pivot order, den times the rref row.
    Over Q the rows are primitive with positive pivot entries: b is cleared
    at pivot c by b <- (pc/g) b - (f/g) row_c (pc = row_c[c], f = b[c],
    g = gcd(pc, f)), then divided by its content, and at the end row c
    times den / pc, den the lcm of the pivot entries, is canonical. Over
    GF(p) every pivot entry is 1, so none of this rescales, and den is 1."""
    p = field.characteristic
    pivot_row = {}  # pivot column -> its row
    holding = defaultdict(set)  # column -> the pivots whose rows are nonzero there
    for a in rows:
        a = ({j: v for j, x in a.items() if (v := x % p)} if p
             else {j: x for j, x in a.items() if x})
        for c in a.keys() & pivot_row.keys():
            b = pivot_row[c]
            f = a.pop(c)
            if (pc := b[c]) != 1:
                g = math.gcd(pc, f)
                if (s := pc // g) != 1:
                    a = {k: s * x for k, x in a.items()}
                f //= g
            for k, y in b.items():
                if k != c:
                    v = (a.get(k, 0) - f * y) % p if p else a.get(k, 0) - f * y
                    if v:
                        a[k] = v
                    else:
                        a.pop(k, None)
        if not a:
            continue
        j = min(a)
        if p:
            inv = pow(a[j], -1, p)
            a = {k: x * inv % p for k, x in a.items()}
        elif (g := math.gcd(*a.values()) * (-1 if a[j] < 0 else 1)) != 1:
            a = {k: x // g for k, x in a.items()}
        pj = a[j]
        for c in holding.pop(j, ()):
            b = pivot_row[c]
            f = b.pop(j)
            if pj != 1:
                g = math.gcd(pj, f)
                if (s := pj // g) != 1:
                    for k in b:
                        b[k] *= s
                f //= g
            for k, y in a.items():
                if k != j:
                    v = (b.get(k, 0) - f * y) % p if p else b.get(k, 0) - f * y
                    if v:
                        b[k] = v
                        holding[k].add(c)
                    elif b.pop(k, None) is not None:
                        holding[k].discard(c)
            if b[c] != 1 and (g := math.gcd(*b.values())) != 1:
                for k in b:
                    b[k] //= g
        pivot_row[j] = a
        for k in a:
            if k != j:
                holding[k].add(j)
    pivots = sorted(pivot_row)
    if p:
        return [pivot_row[c] for c in pivots], 1, pivots
    den = math.lcm(*[pivot_row[c][c] for c in pivots])
    return ([{k: s * x for k, x in b.items()} if (s := den // b[c]) != 1 else b
             for c in pivots for b in [pivot_row[c]]], den, pivots)


def rref(rows, field):
    """The echelon (rows, den, pivots) of the row space of sparse integer
    rows; zero rows are dropped."""
    return _reduced(rows, field)


def rank(rows, field):
    return len(_reduced(rows, field)[2])


def reduce_row(echelon, v, field):
    """den v less v[c] times the echelon row of each pivot c, for a sparse
    integer row v and an echelon (rows, den, pivots): den times the
    reduction of v against the rows, its nonzero entries only (residues
    over GF(p)). Each row holds den at its pivot and 0 at the other pivots,
    so the result is 0 at every pivot, and it is empty iff v lies in the
    row space."""
    rows, den, pivots = echelon
    out = {j: den * x for j, x in v.items()}
    for c, row in zip(pivots, rows):
        f = v.get(c)
        if f:
            for j, y in row.items():
                out[j] = out.get(j, 0) - f * y
    p = field.characteristic
    if p:
        return {j: r for j, x in out.items() if (r := x % p)}
    return {j: x for j, x in out.items() if x}


def solve(rows, ncols, field):
    """One solution of A x = b in ncols unknowns, given the sparse integer
    rows of [A | b] (b in column ncols), with every free variable 0: (x,
    den) with x a dense list of ints and the solution x / den; None if
    inconsistent."""
    red, den, pivots = _reduced(rows, field)
    if pivots and pivots[-1] == ncols:
        return None
    x = [0] * ncols
    for row, c in zip(red, pivots):
        x[c] = row.get(ncols, 0)
    return x, den


def nullspace(rows, ncols, field):
    """The echelon of {x : A x = 0} for sparse integer rows A of ncols
    columns: a kernel vector per free column j, den at j and minus the rref
    entries at the pivots, put in rref."""
    red, den, pivots = _reduced(rows, field)
    kernel = {j: {j: den} for j in range(ncols)}
    for c in pivots:
        del kernel[c]
    for row, c in zip(red, pivots):
        for j, x in row.items():
            if j != c:
                kernel[j][c] = -x
    return _reduced(kernel.values(), field)


# -- sympy domains; polynomials are sympy's dense lists -----------------


def _domain(field):
    """sympy's QQ or GF(p) for the field, and the map of a scalar into it."""
    if field.kind == "rationals":
        return sympy.QQ, lambda c: sympy.QQ(c.numerator, c.denominator)
    dom = sympy.GF(field.characteristic)
    return dom, lambda c: dom(c.v)


def to_dense(coeffs, field):
    """(poly, dom): an ascending coefficient list of field scalars as a
    dense polynomial of sympy's `dup_*` level, its coefficients in
    descending order as elements of dom = QQ or GF(p)."""
    dom, conv = _domain(field)
    return [conv(c) for c in reversed(coeffs)], dom


def from_dense(poly, field):
    """The ascending coefficient list, in field scalars, of a dense
    polynomial over QQ or GF(p)."""
    p = field.characteristic
    if p:
        return field.from_ints([int(c) % p for c in reversed(poly)])
    den = math.lcm(*[c.denominator for c in poly])
    return field.from_ints([c.numerator * (den // c.denominator) for c in reversed(poly)], den)


def charpoly(rows, n, field):
    """The characteristic polynomial det(xI - A), ascending coefficients in
    field scalars, of the n x n matrix A with the sparse integer rows."""
    dom = _domain(field)[0]
    dm = DomainMatrix({i: r for i, row in enumerate(rows)
                       if (r := {j: v for j, x in row.items() if (v := dom(x))})},
                      (n, n), dom)
    return from_dense(dm.charpoly(), field)
