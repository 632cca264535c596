"""The Wedderburn layer: the semisimple quotient A/J of a finite-dimensional
algebra by its radical J (`algebra.jacobson_radical`), the central
primitive idempotents of A/J, and the splitting of A/J into simple blocks
M_n(D). A minimal polynomial with deg f distinct rational roots gives its
spectral idempotents as Lagrange polynomials, with no factoring; others are
factored by sympy. Block dimensions are traces of idempotent maps when
char F is 0 or above dim A/J, and ranks otherwise. A 1-dimensional A is
F.1, split at once with the values the general path computes. The graded
predicates that look inside an identity component, and graded K0, run
through it."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

import sympy
from sympy.polys.densearith import dup_exquo, dup_mul, dup_pow, dup_rem
from sympy.polys.euclidtools import dup_invert
from sympy.polys.factortools import dup_factor_list

from . import linalg
from .algebra import (Algebra, AlgebraElement, Subspace, center, evaluate_poly,
                      integer_product, integer_regular_rows, jacobson_radical,
                      minimal_polynomial, regular_columns, regular_traces)

ROOT_SEARCH_BOUND = 1 << 16


@dataclass
class BlockSummary:
    dim: int                 # dimension over the base field
    centre_dim: int          # dimension of the block's centre
    matrix_size: int = None  # n with block = M_n(division), when identified
    division_dim: int = None # dim of the division part over the base field
    reason: str = None       # why a block is untyped: "proper-centre" or
                             # "no-rank-one-corner"; None when resolved

    @property
    def resolved(self):
        return self.matrix_size is not None


@dataclass
class SemisimpleDecomposition:
    algebra: Algebra         # A/J: the input itself when its radical J is 0
    blocks: list             # list of BlockSummary
    idempotents: list        # central primitive idempotents of A/J, matching order
    radical: Subspace        # the radical J of the input

    @property
    def radical_dim(self):
        return self.radical.dim


def quotient(algebra, radical):
    """A/J on the basis vectors at the non-pivot columns of J's echelon. A
    vector is reduced against the echelon, which leaves it 0 at every pivot:
    A/J's table is A's table rows e_s e_t so reduced, for s, t off the
    pivots. For J = 0 it is A itself."""
    if not radical.dim:
        return algebra
    field, table, scale = algebra.field, algebra.table, algebra.scale
    pivots = set(radical.pivots)
    keep = [c for c in range(algebra.dim) if c not in pivots]
    den = radical.echelon[1]

    def reduce(v, dv):
        # v / dv reduced, as field scalars at the kept columns
        r = linalg.reduce_row(radical.echelon, v, field)
        return field.from_ints([r.get(c, 0) for c in keep], den * dv)

    products = {(s, t): dict(enumerate(reduce(dict(table[a].get(b, ())), scale)))
                for s, a in enumerate(keep) for t, b in enumerate(keep)}
    return Algebra(field, [algebra.labels[c] for c in keep], products,
                   unit=reduce(dict(enumerate(algebra.unit_ints)), scale))


def spectral_idempotents(x):
    """(idempotent, degree of f_i) for each irreducible factor f_i of the
    minimal polynomial f = prod f_i^(m_i) of x, in the order of sympy's
    factorization. A scalar (deg f = 1) gives 1, and an idempotent
    (f = x^2 - x) gives x and 1 - x with no factoring; otherwise see
    `_crt_idempotents`."""
    alg = x.owner
    field = alg.field
    f = minimal_polynomial(x)
    if len(f) == 2:
        return [(alg.one, 1)]
    if f == [field.zero, -field.one, field.one]:
        # sympy lists x - 1 before x over QQ and after it over GF(p)
        pair = [(x, 1), (alg.one - x, 1)]
        return pair if field.kind == "rationals" else pair[::-1]
    return _crt_idempotents(x, f)


def _crt_idempotents(x, f):
    """The CRT idempotents g_i(x) h_i(x) of the factors f_i^(m_i) of the
    minimal polynomial f of x, with g_i = f / f_i^(m_i) and h_i its inverse
    mod f_i^(m_i), reduced mod f. They are orthogonal and sum to 1. When f
    has deg f distinct rational roots r_i (`_rational_roots`), g_i h_i is
    the Lagrange polynomial prod_(j != i) (x - r_j) / (r_i - r_j), built on
    ints as prod_(j != i) (q_j x - n_j) q_i / (n_i q_j - n_j q_i), r = n / q.
    Otherwise f is factored by sympy's `dup_factor_list` over QQ or GF(p)
    and the CRT runs on its dense polynomials. `evaluate_poly` evaluates
    each g_i h_i at x on ints."""
    field = x.owner.field
    roots = _rational_roots(f) if field.kind == "rationals" else None
    if roots is not None:
        out = []
        for r in roots:
            coeffs, den = [1], 1
            for s in roots:
                if s != r:  # times (q_s x - n_s) q_r, over n_r q_s - n_s q_r
                    coeffs = [(s.denominator * a - s.numerator * b) * r.denominator
                              for a, b in zip([0] + coeffs, coeffs + [0])]
                    den *= r.numerator * s.denominator - s.numerator * r.denominator
            out.append((evaluate_poly([Fraction(c, den) for c in coeffs], x), 1))
        return out
    f, dom = linalg.to_dense(f, field)
    out = []
    for fi, m in dup_factor_list(f, dom)[1]:
        q = dup_pow(fi, m, dom)
        g = dup_exquo(f, q, dom)
        e = dup_rem(dup_mul(g, dup_invert(g, q, dom), dom), f, dom)
        out.append((evaluate_poly(linalg.from_dense(e, field), x), len(fi) - 1))
    return out


def _rational_roots(f):
    """The roots of the monic f (ascending Fractions) when it has deg f
    distinct rational roots, in sympy's factor order: ascending
    (denominator, -numerator). Else None, as also past the search bound. A
    root s/q in lowest terms of the integer multiple a_0 + ... + a_d x^d of
    f (a_0 != 0 once a root 0 is divided out) has s | a_0 and q | a_d. The
    search runs only when |a_0|, |a_d| <= ROOT_SEARCH_BOUND = 2^16: at most
    256 trial divisions per divisor list and 2 * 120^2 candidates."""
    den = lcm(*[c.denominator for c in f])
    a = [c.numerator * (den // c.denominator) for c in f]
    roots = [Fraction(0)] if not a[0] else []
    a = a[len(roots):]
    if not a[0] or max(abs(a[0]), a[-1]) > ROOT_SEARCH_BOUND:
        return None
    divisors = lambda m: {d for k in range(1, isqrt(m) + 1) if not m % k for d in (k, m // k)}
    for q in divisors(a[-1]):
        for m in divisors(abs(a[0])):
            for s in (m, -m) if gcd(m, q) == 1 else ():
                if not sum(c * s ** i * q ** (len(a) - 1 - i) for i, c in enumerate(a)):
                    roots.append(Fraction(s, q))
    if len(roots) != len(f) - 1:
        return None
    return sorted(roots, key=lambda r: (r.denominator, -r.numerator))


def central_primitive_idempotents(algebra, zbasis):
    """Refine {1} by the spectral idempotents of each centre basis element,
    keeping the nonzero products; no search is needed. Two field components
    K_1, K_2 of Z stay together only if every basis element projects to a
    pair (z_1, z_2) with equal minimal polynomials, and such pairs lie in a
    proper subspace of Z, which a basis cannot. Over Q it is the kernel of
    d_2 Tr_1 - d_1 Tr_2 (d_i = [K_i : Q]). Over GF(p), z_1 and z_2 lie in
    the largest common subfield of K_1 and K_2; when that is all of both,
    the pairs lie in the kernel of Tr_1 - Tr_2 (absolute traces). Each
    idempotent e carries a lower bound for the degree of the field Ze; once
    the bounds add up to dim Z every Ze is a field and the refinement
    stops."""
    idems = [(algebra.one, 1)]
    for z in zbasis:
        if sum(d for _, d in idems) == len(zbasis):
            break
        parts = spectral_idempotents(z)
        refined = []
        for e, d in idems:
            for u, du in parts:
                eu = e * u
                if not eu.is_zero():
                    refined.append((eu, max(d, du)))
        idems = refined
    return [e for e, _ in idems]


def split_identity_component(algebra):
    """Wedderburn splitting of A/J, with J the radical: K0(A) = K0(A/J),
    because idempotents lift modulo a nilpotent ideal. The central primitive
    idempotents of A/J cut it into simple blocks, each matched to M_n(D)
    where the type is decided. A block eA is the image of L_e and its
    centre eZ that of z -> ez on the centre Z. Both maps are idempotent, so
    their ranks are their traces when char F is 0 or above dim A/J (the
    rule of the radical's round 0): dim eA = Tr(L_e), read off the regular
    traces, and dim eZ = sum_r (e z_r)[pivot_r] / den over the echelon rows
    z_r of Z. Over a smaller GF(p) they are the ranks of the rows of L_e
    and of the e z_r.

    A unital A of dim 1 is F.1, a field: J = 0, A/J = A, the one central
    idempotent is 1 and the one block M_1(F) has dim, centre and division
    dim 1, as the general path finds. That is every A_e of a graded division
    algebra with A_e = F, such as a group ring or a symbol algebra."""
    if algebra.dim == 1:
        return SemisimpleDecomposition(algebra, [BlockSummary(1, 1, 1, 1)], [algebra.one],
                                       Subspace(algebra, ([], 1, [])))
    radical = jacobson_radical(algebra)
    semisimple = quotient(algebra, radical)
    z = center(semisimple)
    idems = central_primitive_idempotents(semisimple, z.basis_elements())
    field, n, table = semisimple.field, semisimple.dim, semisimple.table
    p = field.characteristic
    traces, scale = regular_traces(semisimple)
    zrows, zden, zpivots = z.echelon
    zrows = [[r.get(j, 0) for j in range(n)] for r in zrows]
    value = lambda v, den: v % p if p else v // den  # over GF(p) every den is 1
    blocks = []
    for e in idems:
        es, de = field.to_ints(e.coords)
        ez = [integer_product(table, es, zr) for zr in zrows]  # e z_r, spanning eZ
        if not p or p > n:
            bdim = value(sum(t * c for t, c in zip(traces, es)), scale * de)
            cdim = value(sum(v[k] for v, k in zip(ez, zpivots)), scale * de * zden)
        else:
            bdim = linalg.rank(integer_regular_rows(semisimple, es), field)
            cdim = linalg.rank([{j: x for j, x in enumerate(v) if x} for v in ez], field)
        blocks.append(BlockSummary(bdim, cdim, *_block_type(semisimple, e, bdim, cdim)))
    order = sorted(range(len(blocks)), key=lambda t: (blocks[t].dim, blocks[t].centre_dim))
    return SemisimpleDecomposition(semisimple,
                                   [blocks[t] for t in order],
                                   [idems[t] for t in order], radical)


def _block_type(algebra, e, bdim, cdim):
    """(n, dim D, None) with the block eA = M_n(D), or (None, None, reason)
    if undecided.

    A block of dim c * n^2 over its centre K of dim c is M_n(D) with D a
    division algebra central over K. Over GF(p), D = K (Wedderburn's little
    theorem). A block equal to its centre is a field. Over Q with K = Q, a
    dim-4 block is a quaternion algebra decided by Hilbert symbols, and a
    larger one is M_n(Q) when a spectral idempotent of a block basis element
    has a 1-dimensional corner; otherwise it is left undecided, as is every
    other block whose centre is bigger than Q. The block basis, the echelon
    of the columns of L_e, is built only for those two Q cases."""
    field = algebra.field
    if field.kind == "prime-field" or bdim == cdim:
        return isqrt(bdim // cdim), cdim, None
    n = isqrt(bdim)
    if cdim > 1:
        return None, None, "proper-centre"
    block, den, _ = linalg.rref(regular_columns(algebra, field.to_ints(e.coords)[0], True),
                                field)
    basis = [[r.get(j, 0) for j in range(algebra.dim)] for r in block]
    if n == 2:
        split = _quaternion_block_splits(algebra, e, basis)
        return (2, 1, None) if split else (1, 4, None)
    for b in basis:
        for u, _ in spectral_idempotents(AlgebraElement(algebra, field.from_ints(b, den))):
            if _corner_dim(algebra, u, basis) == 1:
                return n, 1, None
    return None, None, "no-rank-one-corner"


def _corner_dim(algebra, u, basis):
    """dim u B u for the block B with the integer rows basis."""
    us, t = algebra.field.to_ints(u.coords)[0], algebra.table
    return linalg.rank([dict(enumerate(integer_product(t, integer_product(t, us, b), us)))
                        for b in basis], algebra.field)


def _quaternion_block_splits(algebra, e, basis):
    """A 4-dim block B with centre Q e is the quaternion algebra (a, b): x in
    B off Q e, shifted to trace zero, has x^2 = a e, and j != 0 with
    xj = -jx has j^2 = b e. B = M_2(Q) iff a or b is 0, or the Hilbert
    symbol (a, b)_v is 1 at every place v (Serre, A Course in Arithmetic,
    ch. III). It is 1 at the odd primes not dividing ab, and by Hilbert
    reciprocity (the product over all places is 1) the place 2 follows from
    the others, so infinity and the odd primes dividing ab decide it. x and
    j are integer combinations of the integer rows basis: their scale
    multiplies a and b by squares, which leave the symbols as they are."""
    table, scale, field = algebra.table, algebra.scale, algebra.field
    es, de = field.to_ints(e.coords)
    x = next(b for b in basis
             if linalg.rank([dict(enumerate(b)), dict(enumerate(es))], field) == 2)
    # x^2 = xx / scale = c1 x + c0 e: xx = y0 x + y1 es over den
    xx = integer_product(table, x, x)
    (y0, y1), den = linalg.solve([{0: u, 1: v, 2: w} for u, v, w in zip(x, es, xx)], 2, field)
    c1, c0 = Fraction(y0, den * scale), Fraction(y1 * de, den * scale)
    a = c0 + c1 * c1 / 4
    if not a:
        return True
    # x - (c1 / 2) e, times 2 den scale de
    x = [2 * den * scale * de * u - y0 * v for u, v in zip(x, es)]
    anti = [[u + v for u, v in zip(integer_product(table, x, b), integer_product(table, b, x))]
            for b in basis]
    lam = linalg.nullspace([{t: col[k] for t, col in enumerate(anti)}
                            for k in range(algebra.dim)], len(basis), field)[0][0]
    j = [sum(c * basis[t][k] for t, c in lam.items()) for k in range(algebra.dim)]
    k = next(k for k, c in enumerate(es) if c)
    b = Fraction(integer_product(table, j, j)[k] * de, scale * es[k])
    if not b:
        return True
    a, b = a.numerator * a.denominator, b.numerator * b.denominator
    if a < 0 and b < 0:
        return False  # (a, b) is -1 at infinity
    return all(_hilbert_symbol(a, b, p) == 1 for p in sympy.primefactors(a * b) if p != 2)


def _hilbert_symbol(a, b, p):
    """(a, b)_p for nonzero integers a, b and an odd prime p (Serre, ch. III,
    Theorem 1)."""
    alpha, beta = sympy.multiplicity(p, a), sympy.multiplicity(p, b)
    u, v = a // p ** alpha, b // p ** beta
    legendre = lambda t: 0 if pow(t, (p - 1) // 2, p) == 1 else 1
    exponent = alpha * beta * (p - 1) // 2 + beta * legendre(u) + alpha * legendre(v)
    return -1 if exponent % 2 else 1
