"""Exact linear algebra over Q and GF(p), eliminating on integers.

The row format: `rref`, `rank`, `nullspace` and `solve` take sparse integer
rows, each a dict {column: int}, with the field, and the column count where
the result needs it. Only the stored entries are read: a missing column is
0, and a stored 0 (mod p) is dropped. A row counts by its residues over
GF(p), and up to a nonzero factor over Q. The structure-constant kernel
builds its rows so, straight from `Algebra.table`; `int_rows` converts
dense rows of field scalars. `solve` takes the rows of [A | b], with b in
column ncols, so a row is scaled together with its right-hand side. The
results are dense rows of field scalars.

There is one elimination per field. Over GF(p) it is a sparse Gauss-Jordan
on residues, the loop of sympy's `sdm_irref` with `% p` and
`pow(a, -1, p)`. Over Q it is sympy's fraction-free `sdm_rref_den` over ZZ
(Bareiss-style), on rows divided by their content. Each output coordinate
is converted once, by `FieldSpec.from_ints`. The results are canonical:
rref rows have unit pivots and no zero rows, and a kernel basis is its own
rref, so subspace equality is a data comparison.

Membership in a row space is one comparison on ints (`integer_echelon`,
`row_space_contains`). `mat_mul` multiplies ints or field scalars alike.
Polynomials are sympy's dense lists, the level of its `dup_*` functions,
and `to_dense`/`from_dense` carry an ascending list of field scalars there
and back. The characteristic polynomial is sympy's
``DomainMatrix.charpoly`` over QQ or GF(p); no polynomial arithmetic is
done here.
"""

from __future__ import annotations

import math
from collections import defaultdict

import sympy
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.sdm import sdm_rref_den


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
    """(rows, pivots): the reduced row echelon form over GF(p) of nonzero
    residue dict rows, one row per pivot in pivot order, 1 at its pivot.
    Each new row is cleared at the earlier pivots; its leading entry then
    becomes a pivot, scaled to 1, and is cleared from the earlier rows that
    hold its column. A row that is its pivot alone needs no more work."""
    pivot_row = {}  # pivot column -> its row
    single, multi = set(), set()  # pivots of rows with one / more entries
    holding = defaultdict(set)  # column -> pivots of the multi rows nonzero there
    for a in rows:
        a = {j: x for j, x in a.items() if j not in single}
        for c in multi & a.keys():
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
            if len(b) == 1:
                multi.discard(c)
                single.add(c)
        pivot_row[j] = a
        if len(a) == 1:
            single.add(j)
        else:
            multi.add(j)
            for k in a:
                if k != j:
                    holding[k].add(j)
    pivots = sorted(pivot_row)
    return [pivot_row[j] for j in pivots], pivots


def _eliminate(rows, p):
    """(rows, den, pivots): the rref of nonzero dict rows of ints, one row
    per pivot in pivot order, holding den at its pivot. Over GF(p) (p > 0)
    the entries are residues and den is 1; over Q (p = 0) the row of
    pivots[i] is den times the rref row."""
    if p:
        red, pivots = _irref_mod(rows, p)
        return red, 1, pivots
    red, den, pivots = sdm_rref_den(dict(enumerate(rows)), sympy.ZZ)
    return list(red.values()), den, pivots


def _reduced(rows, field):
    """`_eliminate` on sparse integer rows, their stored zeros dropped."""
    p = field.characteristic
    if p:
        rows = [r for row in rows if (r := {j: v for j, x in row.items() if (v := x % p)})]
    else:
        # each row over its content, the gcd of its entries: the same line,
        # and `sdm_rref_den`'s integers grow from the entries
        rows = [{j: x // g for j, x in r.items()}
                for row in rows if (r := {j: x for j, x in row.items() if x})
                for g in [math.gcd(*r.values())]]
    return _eliminate(rows, p)


def _scalars(rows, den, ncols, field):
    """Dense rows of field scalars from dict rows of ints over den."""
    return [field.from_ints([nz.get(j, 0) for j in range(ncols)], den) for nz in rows]


def rref(rows, ncols, field):
    """Reduced row echelon form with unit pivots of sparse integer rows of
    ncols columns; returns (rows, pivot_cols). Zero rows are dropped, so
    the result is the canonical basis of the row space."""
    red, den, pivots = _reduced(rows, field)
    return _scalars(red, den, ncols, field), pivots


def rank(rows, field):
    return len(_reduced(rows, field)[2])


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


def integer_echelon(rows, field):
    """(pairs, den): canonical echelon rows of field scalars as (pivot,
    {column: int}) pairs over one common den, for `row_space_contains`."""
    ints, den = field.to_ints([x for row in rows for x in row])
    n = len(rows[0]) if rows else 0
    pairs = []
    for r in range(len(rows)):
        nz = {j: x for j, x in enumerate(ints[r * n:(r + 1) * n]) if x}
        pairs.append((min(nz), nz))
    return pairs, den


def row_space_contains(echelon, vec, field):
    """Membership of the vector vec of field scalars in the row space of
    `integer_echelon` rows. Those rows have unit pivots and 0 at the other
    pivots, so vec lies in their span iff vec = sum_i vec[pivot_i] row_i:
    on ints, den * vs = sum_i vs[pivot_i] * (den row_i), mod p over GF(p)."""
    pairs, den = echelon
    vs, _ = field.to_ints(vec)
    p = field.characteristic
    rest = [den * v for v in vs]
    for c, row in pairs:
        f = vs[c]
        if f:
            for j, y in row.items():
                rest[j] -= f * y
    return not any(v % p for v in rest) if p else not any(rest)


def solve(rows, ncols, field):
    """One solution x of A x = b in ncols unknowns, given the sparse integer
    rows of [A | b] (b in column ncols), with every free variable 0; None if
    inconsistent."""
    red, den, pivots = _reduced(rows, field)
    if pivots and pivots[-1] == ncols:
        return None
    x = [0] * ncols
    for row, c in zip(red, pivots):
        x[c] = row.get(ncols, 0)
    return field.from_ints(x, den)


def nullspace(rows, ncols, field):
    """Canonical basis (rows) of {x : A x = 0} for sparse integer rows A of
    ncols columns: a kernel vector per free column j, den at j and minus
    the rref entries at the pivots, put in rref."""
    p = field.characteristic
    red, den, pivots = _reduced(rows, field)
    kernel = {j: {j: den} for j in range(ncols)}
    for c in pivots:
        del kernel[c]
    for row, c in zip(red, pivots):
        for j, x in row.items():
            if j != c:
                kernel[j][c] = -x % p if p else -x
    basis, den, _ = _eliminate(list(kernel.values()), p)
    return _scalars(basis, den, ncols, field)


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


def charpoly(a, field):
    """Characteristic polynomial det(xI - A), ascending coefficients."""
    dom, conv = _domain(field)
    dm = DomainMatrix([[conv(x) for x in row] for row in a], (len(a), len(a)), dom)
    return from_dense(dm.charpoly(), field)
