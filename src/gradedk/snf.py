"""Smith normal form over the integers, with unimodular transforms.

The one adapter between the library's integer lists and sympy's exact
`DomainMatrix` decomposition; this canonicalizes every finitely generated
abelian group value in the library.
"""

from __future__ import annotations

from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import smith_normal_decomp


def smith_normal_form(matrix):
    """Return (invariant_factors, U, V, D) with U*M*V = D = diag(d1, d2, ...).

    The invariant factors satisfy d_i >= 0 and d_i | d_{i+1}; U and V are
    unimodular. Accepts any (possibly empty) integer matrix.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    m = [[ZZ(int(a)) for a in row] for row in matrix]
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    form = smith_normal_decomp(DomainMatrix(m, (rows, cols), ZZ))
    d, u, v = ([[int(a) for a in row] for row in x.to_list()] for x in form)
    return [d[i][i] for i in range(min(rows, cols))], u, v, d
