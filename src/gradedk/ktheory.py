"""K0-level invariants computed as isomorphism types of finitely generated
abelian groups: graded K0 of strongly graded algebras through the identity
component, graded K0 of graded division rings through cosets, and the
CK0 / ZK0 exact-sequence data with torsion bounds and localization."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

import sympy
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from . import linalg
from .algebra import (Algebra, Subspace, center, evaluate_poly,
                      left_regular_matrix, minimal_polynomial)
from .groups import coset_index
from .matrixring import identity_component
from .snf import smith_normal_form
from .verdict import VerdictReport, TRUE, FALSE, EXHAUSTIVE, CONSTRUCTIVE


@dataclass(frozen=True)
class FGAbelianGroup:
    """Isomorphism type Z^rank x Z/d1 x ... x Z/dk with d1 | d2 | ... | dk."""
    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion factors must form a divisibility chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion factors must be at least 2")

    @staticmethod
    def from_presentation(rank, torsion):
        """Normalize arbitrary cyclic factors into invariant-factor form."""
        torsion = [int(t) for t in torsion if int(t) != 1]
        if not torsion:
            return FGAbelianGroup(rank)
        diag = [[torsion[i] if i == j else 0 for j in range(len(torsion))]
                for i in range(len(torsion))]
        factors, _, _, _ = smith_normal_form(diag)
        return FGAbelianGroup(rank, tuple(d for d in factors if d > 1))

    def __repr__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append("Z^%d" % self.rank)
        parts += ["Z/%d" % d for d in self.torsion]
        return " x ".join(parts) if parts else "0"


TRIVIAL_GROUP = FGAbelianGroup(0)

# graded K0 of a graded division ring with infinitely many cosets
INFINITE_RANK_FREE = "free-abelian-of-infinite-rank"


def localize(g, n):
    """G (x) Z[1/n]: the free part survives, torsion prime to n survives."""
    if g == INFINITE_RANK_FREE:
        return g
    torsion = []
    for d in g.torsion:
        while True:
            k = gcd(d, n)
            if k == 1:
                break
            d //= k
        if d > 1:
            torsion.append(d)
    return FGAbelianGroup.from_presentation(g.rank, torsion)


# -- semisimple decomposition of the identity component ----------------


@dataclass
class BlockSummary:
    dim: int                 # dimension over the base field
    centre_dim: int          # dimension of the block's centre
    matrix_size: int = None  # n with block = M_n(division), when identified
    division_dim: int = None # dim of the division part over the base field

    @property
    def resolved(self):
        return self.matrix_size is not None


@dataclass
class SemisimpleDecomposition:
    algebra: Algebra         # A/J: the input itself when its radical J is 0
    blocks: list             # list of BlockSummary
    idempotents: list        # central primitive idempotents of A/J, matching order
    radical_dim: int = 0     # dim J

    @property
    def fully_resolved(self):
        return all(b.resolved for b in self.blocks)


def _lifted_trace_digit(x, i):
    """g_i(x) = (Tr(L~^(p^i)) mod p^(i+1)) / p^i, with L~ the integer lift of
    L_x; x must lie in I_(i-1), where the trace is divisible by p^i."""
    p = x.owner.field.characteristic
    lift = DomainMatrix([[ZZ(c.v) for c in row] for row in left_regular_matrix(x)],
                        (x.owner.dim, x.owner.dim), ZZ)
    t = int(sum((lift ** p ** i).diagonal())) % p ** (i + 1)
    assert t % p ** i == 0
    return t // p ** i


def jacobson_radical(algebra):
    """The radical J as a canonical subspace (Cohen-Ivanyos-Wales, JPAA
    117/118 (1997)). I_(-1) = A and I_i = {a in I_(i-1) : g_i(ab) = 0 for all
    b}, for i = 0 .. floor(log_p dim); J is the last one. g_0 is the trace
    Tr(L_x), linear on A; g_i (i >= 1) is linear on I_(i-1), so it is read
    on a basis of I_(i-1) and extended to a functional w, and each round is
    one nullspace of the Gram matrix of w. Over Q (Dickson) and over GF(p)
    with p > dim, round 0 is the only round."""
    field = algebra.field
    n = algebra.dim
    # g_0: t_k = Tr(L_{e_k}) = sum_m c_km^m
    w = [field.zero] * n
    for (k, m), terms in algebra.products.items():
        if m in terms:
            w[k] += terms[m]
    rows = algebra.full_subspace().rows
    i = 0
    while True:
        gram = [[field.zero] * n for _ in range(n)]  # w(e_i e_j)
        for (r, c), terms in algebra.products.items():
            for k, v in terms.items():
                gram[r][c] += v * w[k]
        # a = sum_s lam_s rows_s is kept iff w(a e_t) = (lam R G)_t = 0 for all t
        kept = linalg.nullspace(linalg.transpose(linalg.mat_mul(rows, gram)), field)
        rows = linalg.rref(linalg.mat_mul(kept, rows))[0] if kept else []
        i += 1
        if not rows or field.kind == "rationals" or field.characteristic ** i > n:
            return Subspace(algebra, rows)
        values = [field.scalar(_lifted_trace_digit(algebra.element(r), i)) for r in rows]
        w = linalg.solve(rows, values)


def _quotient(algebra, radical):
    """A/J on the basis vectors at the non-pivot columns of J's echelon rows:
    a vector is reduced by the rows, which leaves it 0 at every pivot."""
    pivots = [next(c for c, a in enumerate(r) if a) for r in radical.rows]
    keep = [c for c in range(algebra.dim) if c not in pivots]

    def reduce(v):
        v = list(v)
        for c, row in zip(pivots, radical.rows):
            f = v[c]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return [v[c] for c in keep]

    basis = [algebra.basis_element(c) for c in keep]
    products = {(s, t): dict(enumerate(reduce((x * y).coords)))
                for s, x in enumerate(basis) for t, y in enumerate(basis)}
    return Algebra(algebra.field, [algebra.labels[c] for c in keep], products,
                   unit=reduce(algebra.unit_coords))


def _spectral_idempotents(x):
    """(idempotent, degree of f_i) for each irreducible factor f_i of the
    minimal polynomial f = prod f_i^(m_i) of x: the CRT idempotent g_i(x)
    h_i(x), with g_i = f / f_i^(m_i) and h_i its inverse mod f_i^(m_i). They
    are orthogonal and sum to 1; f is factored by sympy over QQ or GF(p)."""
    field = x.owner.field
    f = linalg.to_sympy_poly(minimal_polynomial(x), field)
    out = []
    for fi, m in f.factor_list()[1]:
        q = fi ** m
        g = f.exquo(q)
        coeffs = linalg.from_sympy_poly((g * g.invert(q)) % f, field)
        out.append((evaluate_poly(coeffs, x), fi.degree()))
    return out


def _central_primitive_idempotents(algebra, zbasis):
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
        parts = _spectral_idempotents(z)
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
    where the type is decided."""
    radical = jacobson_radical(algebra)
    semisimple = _quotient(algebra, radical) if radical.dim else algebra
    zbasis = center(semisimple).basis_elements()
    idems = _central_primitive_idempotents(semisimple, zbasis)
    basis = [semisimple.basis_element(i) for i in range(semisimple.dim)]
    blocks = []
    for e in idems:
        block_basis, _ = linalg.rref([list((e * b).coords) for b in basis])
        cdim = linalg.rank([list((e * z).coords) for z in zbasis])
        n, ddim = _block_type(semisimple, e, block_basis, cdim)
        blocks.append(BlockSummary(len(block_basis), cdim, n, ddim))
    order = sorted(range(len(blocks)), key=lambda t: (blocks[t].dim, blocks[t].centre_dim))
    return SemisimpleDecomposition(semisimple,
                                   [blocks[t] for t in order],
                                   [idems[t] for t in order],
                                   radical_dim=radical.dim)


def _block_type(algebra, e, block_basis, cdim):
    """(n, dim D) with the block eA = M_n(D), or (None, None) if undecided.

    A block of dim c * n^2 over its centre K of dim c is M_n(D) with D a
    division algebra central over K. Over GF(p), D = K (Wedderburn's little
    theorem). A block equal to its centre is a field. Over Q with K = Q, a
    dim-4 block is a quaternion algebra decided by Hilbert symbols, and a
    larger one is M_n(Q) when a spectral idempotent of a block basis element
    has a 1-dimensional corner; otherwise it is left undecided."""
    bdim = len(block_basis)
    if algebra.field.kind == "prime-field" or bdim == cdim:
        return isqrt(bdim // cdim), cdim
    n = isqrt(bdim)
    if cdim > 1:
        return None, None
    if n == 2:
        return (2, 1) if _quaternion_block_splits(algebra, e, block_basis) else (1, 4)
    for row in block_basis:
        for u, _ in _spectral_idempotents(algebra.element(row)):
            if _corner_dim(algebra, u, block_basis) == 1:
                return n, 1
    return None, None


def _corner_dim(algebra, u, block_basis):
    return linalg.rank([list((u * algebra.element(r) * u).coords) for r in block_basis])


def _quaternion_block_splits(algebra, e, block_basis):
    """A 4-dim block B with centre Q e is the quaternion algebra (a, b): x in
    B off Q e, shifted to trace zero, has x^2 = a e, and j != 0 with
    xj = -jx has j^2 = b e. B = M_2(Q) iff a or b is 0, or the Hilbert
    symbol (a, b)_v is 1 at every place v (Serre, A Course in Arithmetic,
    ch. III). It is 1 at the odd primes not dividing ab, and by Hilbert
    reciprocity (the product over all places is 1) the place 2 follows from
    the others, so infinity and the odd primes dividing ab decide it."""
    basis = [algebra.element(r) for r in block_basis]
    x = next(b for b in basis if linalg.rank([b.coords, e.coords]) == 2)
    # x^2 = c1 x + c0 e
    columns = [[xc, ec] for xc, ec in zip(x.coords, e.coords)]
    c1, c0 = linalg.solve(columns, list((x * x).coords))
    x = x - e.scale(c1 / 2)
    a = c0 + c1 * c1 / 4
    if not a:
        return True
    lam = linalg.nullspace(linalg.transpose([list((x * b + b * x).coords) for b in basis]),
                           algebra.field)[0]
    j = algebra.zero
    for c, b in zip(lam, basis):
        j = j + b.scale(c)
    k = next(k for k, c in enumerate(e.coords) if c)
    b = (j * j).coords[k] / e.coords[k]
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


def k0_of_semisimple(dec):
    """K0 of a semisimple algebra: free abelian on the simple blocks."""
    return FGAbelianGroup(len(dec.blocks))


# -- graded K0 ---------------------------------------------------------


def k0gr_graded_division(group, gamma_d):
    """Graded K0 of a graded division ring: free abelian on Gamma/Gamma_D."""
    idx = coset_index(group, gamma_d)
    if idx == "infinite":
        return INFINITE_RANK_FREE
    return FGAbelianGroup(idx)


def k0gr_strongly_graded(m, strongly_graded_report):
    """Graded K0 of a strongly graded algebra through its identity component;
    requires a true strong-gradedness certificate."""
    if not strongly_graded_report:
        raise ValueError("a true strongly-graded certificate is required")
    a0 = identity_component(m)
    dec = split_identity_component(a0)
    return k0_of_semisimple(dec), dec


# -- the CK0 / ZK0 sequence for central simple algebras ----------------


@dataclass(frozen=True)
class CsaShape:
    """M_n(D) with deg(D) = index over the centre."""
    n: int
    index: int = 1


@dataclass
class ExactSequenceData:
    zk0: FGAbelianGroup
    ck0: FGAbelianGroup
    map_matrix: list  # the multiplication-by-n map K0(F) -> K0(A) on Z


def ck0_zk0(shape):
    """K0(F) -> K0(M_n(D)) is multiplication by n * ind(D) on Z; ZK0 is the
    kernel (Z exactly when the map is 0) and CK0 the cokernel Z/(n ind)."""
    n = shape.n * shape.index
    d = abs(n)
    ck0 = FGAbelianGroup(1) if d == 0 else FGAbelianGroup(0, (d,) if d > 1 else ())
    return ExactSequenceData(zk0=FGAbelianGroup(1 if d == 0 else 0), ck0=ck0,
                             map_matrix=[[n]])


def torsion_bound_check(g, deg):
    """Every torsion element of CK0 is killed by deg^2 (= n^2 for M_n(F))."""
    if g == INFINITE_RANK_FREE:
        return VerdictReport("ck0-torsion-bound", TRUE, CONSTRUCTIVE,
                             details={"torsion": "none"})
    bound = deg * deg
    for d in g.torsion:
        if bound % d:
            return VerdictReport("ck0-torsion-bound", FALSE, EXHAUSTIVE,
                                 counterexample=("factor", d, "bound", bound))
    return VerdictReport("ck0-torsion-bound", TRUE, EXHAUSTIVE,
                         details={"bound": bound})


def compare_localized(g, h, n):
    """G (x) Z[1/n] =? H (x) Z[1/n]."""
    lg, lh = localize(g, n), localize(h, n)
    ok = lg == lh
    return VerdictReport("localized-isomorphic", TRUE if ok else FALSE, EXHAUSTIVE,
                         counterexample=None if ok else (lg, lh),
                         details={"left": lg, "right": lh})
