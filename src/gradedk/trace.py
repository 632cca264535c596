"""Reduced characteristic polynomials, reduced trace and norm, and the
commutator-subspace lemmas they control."""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import (Subspace, center, commutator_subspace,
                      left_regular_matrix, minimal_polynomial)
from .graded import support
from .verdict import VerdictReport, TRUE, FALSE, EXHAUSTIVE, CONSTRUCTIVE


@dataclass
class ReducedCharPoly:
    coeffs: list   # ascending, monic of degree deg
    deg: int       # deg(A) = sqrt(dim)
    trd: object    # reduced trace
    nrd: object    # reduced norm
    route: str     # "min-poly-power" or "regular-charpoly-root"


def _degree(algebra):
    n = 1
    while n * n < algebra.dim:
        n += 1
    if n * n != algebra.dim:
        raise ValueError("dimension %d is not a perfect square" % algebra.dim)
    return n


def reduced_char_poly(algebra, a):
    """The reduced characteristic polynomial of a in a central simple algebra
    of degree n = sqrt(dim).

    Primary route: f_a^(n/m) when the minimal polynomial f_a is irreducible of
    degree m | n. Fallback: the regular characteristic polynomial factors as
    q^n; its n-th root is extracted when char does not divide n.
    """
    field = algebra.field
    n = _degree(algebra)
    f = minimal_polynomial(a)
    m = len(f) - 1
    if n % m == 0 and linalg.to_sympy_poly(f, field).is_irreducible:
        q = linalg.poly_pow(f, n // m, field)
        route = "min-poly-power"
    else:
        cp = linalg.charpoly(left_regular_matrix(a), field)
        q = linalg.poly_nth_root(cp, n, field)
        if q is None:
            raise ValueError("cannot extract the reduced characteristic "
                             "polynomial (char divides the degree)")
        route = "regular-charpoly-root"
    trd = -q[n - 1]
    nrd = q[0] if n % 2 == 0 else -q[0]
    return ReducedCharPoly(coeffs=q, deg=n, trd=trd, nrd=nrd, route=route)


def trd(algebra, a):
    return reduced_char_poly(algebra, a).trd


def nrd(algebra, a):
    return reduced_char_poly(algebra, a).nrd


def trd_functional(algebra):
    """Coordinates of the reduced-trace linear functional on the basis."""
    return [trd(algebra, algebra.basis_element(i)) for i in range(algebra.dim)]


def trd_kernel_check(algebra):
    """ker(Trd) = [A, A], of dimension n^2 - 1, for a central simple algebra
    of degree n over a field with char not dividing n."""
    n = _degree(algebra)
    func = trd_functional(algebra)
    kernel = Subspace(algebra, linalg.nullspace([func], algebra.field))
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
    alg = g.algebra
    hit = False
    for i in range(alg.dim):
        t = trd(alg, alg.basis_element(i))
        if t and g.degrees[i] != g.group.identity:
            return VerdictReport("trd-graded", FALSE, EXHAUSTIVE,
                                 counterexample=("degree", g.degrees[i], "trd", t))
        if t:
            hit = True
    if not hit:
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
    alg = g.algebra
    comm = commutator_subspace(alg)
    out = set()
    for row in comm.rows:
        x = alg.element(row)
        out.update(g.homogeneous_components(x))
    return out


def supp_commutator_lemma_check(g):
    """For an unramified-or-not graded division algebra D: either [D, D]
    avoids the identity degree and Supp[D, D] is a proper subset of Supp D,
    or Supp[D, D] = Supp D; commutative D has [D, D] = 0.

    The first case is forced when D is totally ramified (D_e inside Z(D)).
    """
    alg = g.algebra
    comm = commutator_subspace(alg)
    if comm.dim == 0:
        return VerdictReport("commutator-support", TRUE, EXHAUSTIVE,
                             details={"case": "commutative"})
    supp_d = set(support(g))
    supp_c = commutator_support(g)
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
    handled here); returns the contrapositive witness otherwise."""
    z = center(algebra)
    noncentral = None
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            c = (algebra.basis_element(i) * algebra.basis_element(j)
                 - algebra.basis_element(j) * algebra.basis_element(i))
            if not z.contains(c):
                noncentral = (i, j, c)
                break
        if noncentral:
            break
    commutative = commutator_subspace(algebra).dim == 0
    if noncentral is None:
        # hypothesis holds: conclusion must too
        if commutative:
            return VerdictReport("central-commutators-commutative", TRUE, EXHAUSTIVE)
        return VerdictReport("central-commutators-commutative", FALSE, EXHAUSTIVE,
                             counterexample="central commutators but not commutative")
    return VerdictReport("central-commutators-commutative", TRUE, EXHAUSTIVE,
                         details={"vacuous": True, "noncentral-commutator": noncentral})
