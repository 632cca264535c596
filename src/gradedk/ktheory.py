"""K0-level invariants computed as isomorphism types of finitely generated
abelian groups: graded K0 of strongly graded algebras through the identity
component, graded K0 of graded division rings through cosets, and the
CK0 / ZK0 exact-sequence data with torsion bounds and localization."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import sympy

from . import linalg
from .algebra import (Algebra, center, minimal_polynomial, evaluate_poly,
                      ENUMERATION_BUDGET)
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
    algebra: Algebra
    blocks: list             # list of BlockSummary
    idempotents: list        # central primitive idempotents, matching order

    @property
    def fully_resolved(self):
        return all(b.resolved for b in self.blocks)


def _semisimplicity_radical(algebra):
    """Radical of the trace form B(x, y) = Tr(L_xy); over char 0 or char p
    with p not dividing dim this detects any nonzero nil ideal. From the
    constants: B(e_i, e_j) = sum_k c_ij^k t_k with t_k = Tr(L_{e_k}) =
    sum_m c_km^m."""
    n = algebra.dim
    zero = algebra.field.zero
    t = [zero] * n
    for (k, m), terms in algebra.products.items():
        if m in terms:
            t[k] += terms[m]
    gram = [[zero] * n for _ in range(n)]
    for (i, j), terms in algebra.products.items():
        for k, c in terms.items():
            gram[i][j] += c * t[k]
    return linalg.nullspace(gram, algebra.field)


def _centre_algebra(algebra):
    """The centre as a commutative Algebra, plus the inclusion rows."""
    z = center(algebra)
    rows = [list(r) for r in z.rows]
    basis = [algebra.element(r) for r in rows]
    k = len(basis)
    mat = [[rows[i][c] for i in range(k)] for c in range(algebra.dim)]
    products = {}
    for i in range(k):
        for j in range(k):
            prod = basis[i] * basis[j]
            sol = linalg.solve(mat, list(prod.coords))
            products[(i, j)] = {t: c for t, c in enumerate(sol) if c}
    unit = linalg.solve(mat, list(algebra.unit_coords))
    zalg = Algebra(algebra.field, ["z%d" % i for i in range(k)], products, unit=unit)
    return zalg, basis


def _primitive_idempotents_finite(zalg):
    """All primitive idempotents of a commutative algebra over GF(p) by
    exhaustive scan."""
    if zalg.field.order ** zalg.dim > ENUMERATION_BUDGET:
        raise ValueError("centre too large to enumerate")
    idems = [x for x in zalg.elements() if not x.is_zero() and x * x == x]
    # e is primitive iff no nonzero idempotent other than e sits under it
    return [e for e in idems
            if not any(f != e and f * e == f for f in idems)]


def _primitive_idempotents_rational(zalg):
    """Primitive idempotents of a commutative semisimple Q-algebra via a
    primitive element and CRT on its factored minimal polynomial."""
    k = zalg.dim
    cand = [zalg.basis_element(i) for i in range(k)]
    x = sympy.symbols("x")
    import random
    rng = random.Random(20230711)
    for _ in range(64):
        cand.append(zalg.element([Fraction(rng.randint(-4, 4)) for _ in range(k)]))
    for z in cand:
        f = minimal_polynomial(z)
        if len(f) - 1 != k:
            continue
        poly = sympy.Poly(sum(sympy.Rational(c) * x ** i for i, c in enumerate(f)), x)
        factors = sympy.factor_list(poly)[1]
        if any(mult > 1 for _, mult in factors):
            continue  # not squarefree: z not separable enough, try another
        idems = []
        for fi, _ in factors:
            gi = sympy.Poly(poly.div(fi)[0], x)
            # e_i = g_i(z) * h_i(z) with h_i the inverse of g_i mod f_i
            h, _, d = sympy.gcdex(gi, fi)
            eh = (gi * sympy.Poly(h / d, x)) % poly
            coeffs = [Fraction(sympy.Rational(c)) for c in reversed(eh.all_coeffs())]
            idems.append(evaluate_poly(coeffs, z))
        for e in idems:
            assert e * e == e
        return idems
    raise ValueError("no primitive element found for the centre")


def split_identity_component(algebra):
    """Decompose a semisimple algebra into its simple blocks via central
    primitive idempotents, and match blocks to matrix rings when possible."""
    if algebra.field.kind == "rationals" or algebra.dim % algebra.field.order:
        if _semisimplicity_radical(algebra):
            raise ValueError("algebra is not semisimple (trace-form radical)")
    zalg, zbasis = _centre_algebra(algebra)
    if algebra.field.kind == "prime-field":
        prim_z = _primitive_idempotents_finite(zalg)
    else:
        prim_z = _primitive_idempotents_rational(zalg)
    # push idempotents back into the ambient algebra
    idems = []
    for e in prim_z:
        amb = algebra.zero
        for c, b in zip(e.coords, zbasis):
            amb = amb + b.scale(c)
        idems.append(amb)
    total = idems[0]
    for e in idems[1:]:
        total = total + e
    if total != algebra.one:
        raise ValueError("central idempotents do not sum to 1")
    blocks = []
    for e in idems:
        rows = []
        for i in range(algebra.dim):
            rows.append(list((e * algebra.basis_element(i) * e).coords))
        block_basis, _ = linalg.rref(rows)
        bdim = len(block_basis)
        # centre of the block = Z(A)e
        zrows = [list((e * zb).coords) for zb in zbasis]
        cdim = linalg.rank(zrows)
        summary = BlockSummary(dim=bdim, centre_dim=cdim)
        if cdim == 1:
            # central simple over the base field: dim = n^2 * [D:F]
            n = 1
            while n * n <= bdim:
                if n * n == bdim:
                    break
                n += 1
            if n * n == bdim and _block_is_split(algebra, e, block_basis):
                summary.matrix_size = n
                summary.division_dim = 1
        blocks.append(summary)
    order = sorted(range(len(blocks)), key=lambda t: (blocks[t].dim, blocks[t].centre_dim))
    return SemisimpleDecomposition(algebra,
                                   [blocks[t] for t in order],
                                   [idems[t] for t in order])


def _block_is_split(algebra, e, block_basis):
    """True if the block eAe is a full matrix algebra over the base field:
    certified by a rank-one idempotent, i.e. an idempotent u with dim uAu = 1.
    Squares of dimension 1 or 4 over GF(p) and Q split automatically when a
    noncentral idempotent exists; we search directly."""
    bdim = len(block_basis)
    if bdim == 1:
        return True
    field = algebra.field
    if field.kind == "prime-field" and field.order ** bdim <= ENUMERATION_BUDGET:
        for coords in itertools.product(field.elements(), repeat=bdim):
            if not any(coords):
                continue
            u = algebra.zero
            for c, row in zip(coords, block_basis):
                u = u + algebra.element(row).scale(c)
            if u * u == u and _corner_dim(algebra, u, block_basis) == 1:
                return True
        return False
    # rationals: look for separable elements whose minimal polynomial splits
    # into linear factors; their spectral idempotents cut out corners
    x = sympy.symbols("x")
    import random
    rng = random.Random(987123)
    candidates = [algebra.element(row) for row in block_basis]
    for _ in range(120):
        z = algebra.zero
        for row in block_basis:
            z = z + algebra.element(row).scale(Fraction(rng.randint(-3, 3)))
        candidates.append(z)
    for z in candidates:
        f = minimal_polynomial(z)
        poly = sympy.Poly(sum(sympy.Rational(c) * x ** i for i, c in enumerate(f)), x)
        factors = sympy.factor_list(poly)[1]
        if any(m > 1 for _, m in factors) or any(fi.degree() > 1 for fi, _ in factors):
            continue
        if len(factors) < 2:
            continue
        for fi, _ in factors:
            gi = sympy.Poly(poly.div(fi)[0], x)
            h, _, d = sympy.gcdex(gi, fi)
            eh = (gi * sympy.Poly(h / d, x)) % poly
            coeffs = [Fraction(sympy.Rational(c)) for c in reversed(eh.all_coeffs())]
            u = evaluate_poly(coeffs, z)
            if u * u == u and not u.is_zero() and _corner_dim(algebra, u, block_basis) == 1:
                return True
    return False


def _corner_dim(algebra, u, block_basis):
    return linalg.rank([list((u * algebra.element(r) * u).coords) for r in block_basis])


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
