"""Reduced characteristic polynomials, reduced trace and norm, and the
commutator-subspace lemmas they control."""

from __future__ import annotations

import math
from dataclasses import dataclass

from sympy.polys.densearith import dup_mul, dup_pow
from sympy.polys.factortools import dup_factor_list

from . import linalg
from .algebra import (Subspace, center, commutator_subspace, integer_product,
                      integer_regular_rows, regular_traces)
from .graded import support
from .verdict import VerdictReport, TRUE, FALSE, EXHAUSTIVE, CONSTRUCTIVE


@dataclass
class ReducedCharPoly:
    coeffs: list   # ascending, monic of degree deg
    deg: int       # deg(A) = sqrt(dim)
    trd: object    # reduced trace
    nrd: object    # reduced norm
    route: str     # "trace-power-sums" (char 0 or > deg) or "charpoly-factor-root"


def _degree(algebra):
    n = math.isqrt(algebra.dim)
    if n * n != algebra.dim:
        raise ValueError("dimension %d is not a perfect square" % algebra.dim)
    return n


def reduced_char_poly(algebra, a):
    """The reduced characteristic polynomial q of a in a central simple
    algebra of degree n = sqrt(dim). Over a splitting field A is M_n, which
    acts on itself as n copies of the column space, so charpoly(L_a) = q^n
    and Tr(L_a) = n Trd(a) (Reiner, Maximal Orders, section 9).

    For char 0 or char > n: the power sums Trd(a^k) = Tr(L_(a^k)) / n,
    k = 1..n, give q by Newton's identities. Otherwise: q is the product of
    g^(k/n) over the irreducible factors g^k of charpoly(L_a), factored by
    sympy's `dup_factor_list` over GF(p).
    """
    field = algebra.field
    n = _degree(algebra)
    if field.characteristic == 0 or field.characteristic > n:
        # Tr(L_(xy)) = sum_(r,c) form[r, c] x_r y_c / den, on ints
        form, den = algebra.trace_form
        p = field.characteristic
        powers = [(algebra.unit_ints, algebra.scale), (a.ints, a.den)]  # a^k as (ints, den)
        for _ in range(1, (n + 1) // 2):
            v, d = powers[-1]
            v = integer_product(algebra.table, v, a.ints)
            powers.append(([c % p for c in v] if p else v, d * a.den * algebra.scale))
        # Newton on ints: Trd(a^k) = Tr(L_(a^ceil(k/2) a^floor(k/2))) / n is
        # P_k / d^k with P_k = sums[k-1], and q's coefficient c_(n-k) is
        # C_k / (d^k k!) with C_0 = 1, C_k = -sum_(i=1..k) P_i C_(k-i) (k-1)! / (k-i)!
        d, f = n * den * a.den * algebra.scale, math.factorial
        sums, cs = [], [1]
        for k in range(1, n + 1):
            (x, dx), (y, dy) = powers[(k + 1) // 2], powers[k // 2]
            s = sum(v * x[r] * y[c] for (r, c), v in form.items())
            sums.append(s * (d ** k // (n * den * dx * dy)))
            c = -sum(sums[i - 1] * cs[k - i] * (f(k - 1) // f(k - i)) for i in range(1, k + 1))
            cs.append(c % p if p else c)
        q = field.from_ints([cs[n - i] * d ** i * (f(n) // f(n - i)) for i in range(n + 1)],
                            d ** n * f(n))
        route = "trace-power-sums"
    else:
        # 0 < p <= n: the residues of a, at den and scale 1, give L_a exactly
        rows = integer_regular_rows(algebra, a.ints)
        cp, dom = linalg.to_dense(linalg.charpoly(rows, algebra.dim, field), field)
        q = [dom.one]
        for g, k in dup_factor_list(cp, dom)[1]:
            q = dup_mul(q, dup_pow(g, k // n, dom), dom)
        q = linalg.from_dense(q, field)
        route = "charpoly-factor-root"
    trd = -q[n - 1]
    nrd = q[0] if n % 2 == 0 else -q[0]
    return ReducedCharPoly(coeffs=q, deg=n, trd=trd, nrd=nrd, route=route)


def trd(algebra, a):
    return reduced_char_poly(algebra, a).trd


def nrd(algebra, a):
    return reduced_char_poly(algebra, a).nrd


def trd_functional(algebra):
    """Coordinates of the reduced-trace linear functional on the basis: for
    char 0 or char > n, Trd(e_i) = Tr(L_(e_i)) / n read from the regular
    traces (the condition of the trace-power-sums route); otherwise one
    reduced characteristic polynomial per basis element."""
    field = algebra.field
    n = _degree(algebra)
    if field.characteristic == 0 or field.characteristic > n:
        t, scale = regular_traces(algebra)
        return field.from_ints(t, n * scale)
    return [trd(algebra, algebra.basis_element(i)) for i in range(algebra.dim)]


def trd_kernel_check(algebra):
    """ker(Trd) = [A, A], of dimension n^2 - 1, for a central simple algebra
    of degree n over a field with char not dividing n."""
    n = _degree(algebra)
    func = trd_functional(algebra)
    kernel = Subspace(algebra, linalg.nullspace(linalg.int_rows([func], algebra.field),
                                                algebra.dim, algebra.field))
    comm = commutator_subspace(algebra)
    details = {"kernel-dim": kernel.dim, "commutator-dim": comm.dim,
               "expected": n * n - 1}
    if kernel.dim == comm.dim == n * n - 1 and kernel == comm:
        return VerdictReport("trd-kernel-is-commutators", TRUE, EXHAUSTIVE,
                             details=details)
    return VerdictReport("trd-kernel-is-commutators", FALSE, EXHAUSTIVE,
                         counterexample=("dims", kernel.dim, comm.dim),
                         details=details)


def trd_graded_surjective_check(g):
    """For a graded division algebra: Trd of a homogeneous element lies in
    the same-degree component of the centre, and Trd is onto the base field
    (it is nonzero somewhere).

    Trd(b) is a base-field scalar, so it can only be nonzero on identity-degree
    elements; the check verifies exactly that, plus surjectivity.
    """
    func = trd_functional(g.algebra)
    for t, d in zip(func, g.degrees):
        if t and d != g.group.identity:
            return VerdictReport("trd-graded", FALSE, EXHAUSTIVE,
                                 counterexample=("degree", d, "trd", t))
    if not any(func):
        return VerdictReport("trd-graded", FALSE, EXHAUSTIVE,
                             counterexample="trd vanishes on every basis element")
    return VerdictReport("trd-graded", TRUE, EXHAUSTIVE)


def trd_na_plus_commutator_check(algebra, a):
    """n*a - Trd(a)*1 lies in [A, A]."""
    n = _degree(algebra)
    t = trd(algebra, a)
    v = a.scale(algebra.field.scalar(n)) - algebra.one.scale(t)
    comm = commutator_subspace(algebra)
    if comm.contains(v):
        return VerdictReport("na-minus-trd-in-commutators", TRUE, CONSTRUCTIVE,
                             witness=v)
    return VerdictReport("na-minus-trd-in-commutators", FALSE, EXHAUSTIVE,
                         counterexample=("element", v))


def commutator_support(g):
    """The set of degrees met by [A, A]."""
    return {g.degrees[j] for row in commutator_subspace(g.algebra).echelon[0] for j in row}


def supp_commutator_lemma_check(g):
    """For an unramified-or-not graded division algebra D: either [D, D]
    avoids the identity degree and Supp[D, D] is a proper subset of Supp D,
    or Supp[D, D] = Supp D; commutative D has [D, D] = 0.

    The first case is forced when D is totally ramified (D_e inside Z(D)).
    """
    alg = g.algebra
    supp_c = commutator_support(g)  # empty exactly when [D, D] = 0
    if not supp_c:
        return VerdictReport("commutator-support", TRUE, EXHAUSTIVE,
                             details={"case": "commutative"})
    supp_d = set(support(g))
    z = center(alg)
    e = g.group.identity
    totally_ramified = all(z.contains(alg.basis_element(i))
                           for i in g.component_indices(e))
    if totally_ramified:
        ok = supp_c and e not in supp_c and supp_c < supp_d
        case = "totally-ramified: proper support avoiding the identity"
    else:
        ok = supp_c == supp_d or (supp_c and e not in supp_c and supp_c < supp_d)
        case = "support equality or proper avoidance"
    details = {"case": case, "supp_commutators": supp_c, "supp": supp_d,
               "totally_ramified": totally_ramified}
    if ok:
        return VerdictReport("commutator-support", TRUE, EXHAUSTIVE, details=details)
    return VerdictReport("commutator-support", FALSE, EXHAUSTIVE,
                         counterexample=("supports", supp_c, supp_d),
                         details=details)


def central_commutators_imply_commutative_check(algebra):
    """If every commutator is central then the algebra is commutative
    (characteristic-zero or large-characteristic phenomenon for the algebras
    handled here). The hypothesis is [A, A] in Z(A); where it fails, the
    details hold an echelon basis element of [A, A] outside Z(A)."""
    comm = commutator_subspace(algebra)
    z = center(algebra)
    noncentral = next((c for c in comm.basis_elements() if not z.contains(c)), None)
    if noncentral is None:
        # hypothesis holds: conclusion must too
        if not comm.dim:
            return VerdictReport("central-commutators-commutative", TRUE, EXHAUSTIVE)
        return VerdictReport("central-commutators-commutative", FALSE, EXHAUSTIVE,
                             counterexample="central commutators but not commutative")
    return VerdictReport("central-commutators-commutative", TRUE, EXHAUSTIVE,
                         details={"vacuous": True, "noncentral-commutator": noncentral})
