"""Smith normal form over the integers, with unimodular transforms.

Exact arbitrary-precision arithmetic throughout; this canonicalizes every
finitely generated abelian group value in the library.
"""

from __future__ import annotations


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix):
    """Return (invariant_factors, U, V, D) with U*M*V = D = diag(d1, d2, ...).

    The invariant factors satisfy d_i >= 0 and d_i | d_{i+1}; U and V are
    unimodular. Accepts any (possibly empty) integer matrix.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    m = [list(map(int, row)) for row in matrix]
    for row in m:
        if len(row) != cols:
            raise ValueError("ragged matrix")
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        m[dst] = [a + q * b for a, b in zip(m[dst], m[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in m:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        m[i] = [-a for a in m[i]]
        u[i] = [-a for a in u[i]]

    t = 0
    while t < rows and t < cols:
        # find a nonzero pivot of least magnitude in the trailing block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                a = abs(m[i][j])
                if a and (best is None or a < best):
                    best = a
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if m[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t]:
                add_row(i, t, -(m[i][t] // m[t][t]))
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j]:
                add_col(j, t, -(m[t][j] // m[t][t]))
                if m[t][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility: pivot must divide the rest of the block
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    factors = [m[i][i] for i in range(min(rows, cols))]
    return factors, u, v, m

