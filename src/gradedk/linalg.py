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

There is one elimination per field, a sparse Gauss-Jordan on the integer
rows as given: over GF(p) on residues, each row taken mod p as it is read;
over Q on primitive rows, so with no division but by a gcd. Its one index,
`holding`, names for each column the pivot rows nonzero there, from which
a new pivot's column is cleared. `rank`, `solve` and `nullspace` call it.

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


def _irref_mod(rows, p):
    """(rows, pivots): the reduced row echelon form over GF(p) of integer
    dict rows, taken mod p as they come in, one row per pivot in pivot
    order, 1 at its pivot. Each new row is cleared at the pivots it holds in
    one pass: a pivot row is 0 at every other pivot, so clearing puts in no
    pivot column. Its leading entry then becomes a pivot, scaled to 1, and
    is cleared from the earlier rows that `holding` says hold its column."""
    pivot_row = {}  # pivot column -> its row
    holding = defaultdict(set)  # column -> the pivots whose rows are nonzero there
    for a in rows:
        a = {j: v for j, x in a.items() if (v := x % p)}
        for c in a.keys() & pivot_row.keys():
            f = a.pop(c)
            for k, y in pivot_row[c].items():
                if k != c:
                    v = (a.get(k, 0) - f * y) % p
                    if v:
                        a[k] = v
                    else:
                        a.pop(k, None)
        if not a:
            continue
        j = min(a)
        inv = pow(a[j], -1, p)
        a = {k: x * inv % p for k, x in a.items()}
        for c in holding.pop(j, ()):
            b = pivot_row[c]
            f = b.pop(j)
            for k, y in a.items():
                if k != j:
                    v = (b.get(k, 0) - f * y) % p
                    if v:
                        b[k] = v
                        holding[k].add(c)
                    elif b.pop(k, None) is not None:
                        holding[k].discard(c)
        pivot_row[j] = a
        for k in a:
            if k != j:
                holding[k].add(j)
    pivots = sorted(pivot_row)
    return [pivot_row[j] for j in pivots], pivots


def _irref_int(rows):
    """(rows, den, pivots): den times the rref over Q of integer dict rows,
    by the loop of `_irref_mod` on primitive rows: b is cleared at pivot c
    by b <- (p/g) b - (f/g) row_c (p = row_c[c], f = b[c], g = gcd(p, f)),
    then divided by its content. A new row is divided by its content signed
    as its pivot entry, so every p is positive (p/g > 0 keeps it so), and
    clearing at p = 1 rescales nothing. Row c times den / p, den the lcm of
    the pivot entries, is then canonical."""
    pivot_row = {}  # pivot column -> its primitive row
    holding = defaultdict(set)  # column -> the pivots whose rows are nonzero there
    for a in rows:
        a = {j: x for j, x in a.items() if x}
        for c in a.keys() & pivot_row.keys():
            b = pivot_row[c]
            f = a.pop(c)
            g = math.gcd(b[c], f)
            if (s := b[c] // g) != 1:
                a = {k: s * x for k, x in a.items()}
            f //= g
            for k, y in b.items():
                if k != c:
                    v = a.get(k, 0) - f * y
                    if v:
                        a[k] = v
                    else:
                        a.pop(k, None)
        if not a:
            continue
        j = min(a)
        g = math.gcd(*a.values()) * (-1 if a[j] < 0 else 1)
        if g != 1:
            a = {k: x // g for k, x in a.items()}
        p = a[j]
        for c in holding.pop(j, ()):
            b = pivot_row[c]
            f = b.pop(j)
            g = math.gcd(p, f)
            if (s := p // g) != 1:
                for k in b:
                    b[k] *= s
            f //= g
            for k, y in a.items():
                if k != j:
                    v = b.get(k, 0) - f * y
                    if v:
                        b[k] = v
                        holding[k].add(c)
                    elif b.pop(k, None) is not None:
                        holding[k].discard(c)
            g = math.gcd(*b.values())
            if g != 1:
                for k in b:
                    b[k] //= g
        pivot_row[j] = a
        for k in a:
            if k != j:
                holding[k].add(j)
    pivots = sorted(pivot_row)
    den = math.lcm(*[pivot_row[c][c] for c in pivots])
    return ([{k: s * x for k, x in b.items()} if (s := den // b[c]) != 1 else b
             for c in pivots for b in [pivot_row[c]]], den, pivots)


def _reduced(rows, field):
    """The echelon (rows, den, pivots) of sparse integer rows, their stored
    zeros dropped: one row per pivot in pivot order, den times the rref
    row. Over GF(p) the entries are residues and den is 1."""
    p = field.characteristic
    if p:
        red, pivots = _irref_mod(rows, p)
        return red, 1, pivots
    return _irref_int(rows)


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
