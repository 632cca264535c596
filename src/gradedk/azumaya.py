"""Azumaya verification: the enveloping algebra, psi, separability
idempotents, Braun's criterion, the graded-CSA route, and the group-ring
criterion."""

from __future__ import annotations

from . import linalg
from .algebra import (center, enveloping_product, integer_psi_matrix, sandwich,
                      separability_rows)
from .graded import TwistedGroupAlgebra, graded_center, is_graded_simple
from .groups import derived_subgroup
from .matrixring import (ShiftedMatrixAlgebra, is_graded_simple_matrix,
                         central_scalar_check)
from .verdict import (VerdictReport, TRUE, FALSE, EXHAUSTIVE, CONSTRUCTIVE,
                      combine)


class EnvelopingAlgebra:
    """A^e = A (x) A^op on A's structure constants: an element is n^2
    scalars, i*n + j for e_i (x) e_j; its action on A, (a (x) b) * x =
    a x b, is `sandwich`."""

    def __init__(self, graded):
        self.source = graded
        self.n = graded.algebra.dim

    def psi_matrix(self):
        """(rows, den): the n^2 x n^2 matrix of psi(a (x) b)(x) = a x b as
        integer rows over den; column (i, j) is the vectorization of
        x |-> e_i x e_j."""
        return integer_psi_matrix(self.source.algebra)


def _lazy_matrix_ring(a):
    """A twisted-group-algebra graded field R as the lazy M_1(R)(e)."""
    return ShiftedMatrixAlgebra(a, [a.group.identity]) if isinstance(a, TwistedGroupAlgebra) else a


def psi_bijective(graded):
    """Full-rank test for psi: A (x) A^op -> End(A) over the base field;
    a lazy matrix ring, or a graded field as M_1 over itself, goes to
    `psi_bijective_matrix_over_graded_field`."""
    graded = _lazy_matrix_ring(graded)
    if isinstance(graded, ShiftedMatrixAlgebra) and graded.lazy:
        return psi_bijective_matrix_over_graded_field(graded)
    env = EnvelopingAlgebra(graded)
    full = env.n * env.n
    kernel = linalg.nullspace(env.psi_matrix()[0], full, graded.field)
    details = {"rank": full - len(kernel), "size": full}
    if not kernel:
        return VerdictReport("psi-bijective", TRUE, EXHAUSTIVE, details=details)
    return VerdictReport("psi-bijective", FALSE, EXHAUSTIVE,
                         counterexample=("kernel-vector", kernel[0]),
                         details=details)


def psi_bijective_matrix_over_graded_field(m):
    """psi for a lazy M_n(R)(d) over its twisted-group-algebra graded field:
    the free homogeneous basis E_ij gives a matrix with monomial entries;
    specializing every monomial u_g to 1 gives a base-field matrix whose full
    rank certifies injectivity (R is a domain), and surjectivity follows by
    dimension count."""
    if not isinstance(m, ShiftedMatrixAlgebra) or not m.lazy:
        raise ValueError("expects a lazy shifted matrix algebra")
    if not m.base.is_commutative():
        raise ValueError("base graded field must be commutative")
    n = m.n
    # psi(E_ij (x) E_kl)(E_pq) = delta_jp delta_qk E_il -- grading-independent,
    # so the specialized matrix is the psi matrix of M_n(K): column (i, j, k, l)
    # has a single 1, in row ((i, l), (j, k)). It is a permutation matrix, of
    # rank n^4, because that index map is injective.
    return VerdictReport("psi-bijective", TRUE, CONSTRUCTIVE,
                         details={"strategy": "specialization u_g -> 1",
                                  "rank": n ** 4})


def _separability_element(src, e):
    if len(e) != src.dim ** 2:
        raise ValueError("expected %d coordinates in A (x) A^op" % src.dim ** 2)
    return tuple(src.field.scalar(c) for c in e)


def verify_separability_idempotent(graded, e):
    """e * 1 = 1, (a (x) 1) e = (1 (x) a) e for every basis a, and e^2 = e,
    for e in A (x) A^op as n^2 coefficients (see `EnvelopingAlgebra`)."""
    src = graded.algebra
    n, e = src.dim, _separability_element(src, e)
    es, de = src.field.to_ints(e)
    for t, row in enumerate(separability_rows(src)):
        v = sum(c * es[k] for k, c in row.items() if k < n * n) - row.get(n * n, 0) * de
        if any(src.field.from_ints([v])):
            bad = (("star-unit", sandwich(src, e, src.one)) if t < n
                   else ("commute-condition", src.labels[(t - n) // n ** 2]))
            return VerdictReport("separability-idempotent", FALSE, EXHAUSTIVE,
                                 counterexample=bad)
    if enveloping_product(src, e, e) != e:
        return VerdictReport("separability-idempotent", FALSE, EXHAUSTIVE,
                             counterexample=("not-idempotent", e))
    return VerdictReport("separability-idempotent", TRUE, EXHAUSTIVE)


def standard_separability_idempotent(g):
    """The solution e, free variables 0, of (a (x) 1 - 1 (x) a) e = 0 for
    basis a and e * 1 = 1; None when there is none, which proves A is not
    separable. A solution has e^2 = (e * 1 (x) 1) e = e, checked again."""
    src = g.algebra
    e = linalg.solve(separability_rows(src), src.dim ** 2, src.field)
    return tuple(e) if e is not None and enveloping_product(src, e, e) == tuple(e) else None


def braun_check(graded, e=None):
    """Braun: A is Azumaya over F iff A is central and some e in A (x) A^op
    has e * 1 = 1 and e * A inside F. Without e, the standard separability
    idempotent is solved for first. The grading plays no part."""
    src = graded.algebra
    e = standard_separability_idempotent(graded) if e is None else _separability_element(src, e)
    if e is None:
        return VerdictReport("braun-azumaya", FALSE, EXHAUSTIVE,
                             counterexample=("no-separability-idempotent",))
    z = center(src)
    if z.dim != 1:
        return VerdictReport("braun-azumaya", FALSE, EXHAUSTIVE,
                             counterexample=("centre-dim", z.dim))
    unit = sandwich(src, e, src.one)
    if unit != src.one:
        return VerdictReport("braun-azumaya", FALSE, EXHAUSTIVE,
                             counterexample=("star-unit", unit))
    for i in range(src.dim):
        v = sandwich(src, e, src.basis_element(i))
        if not z.contains(v):
            return VerdictReport("braun-azumaya", FALSE, EXHAUSTIVE,
                                 counterexample=("star-image", src.labels[i], v))
    return VerdictReport("braun-azumaya", TRUE, EXHAUSTIVE)


def is_graded_azumaya_csa(a):
    """Graded Azumaya via the graded-CSA criterion: graded simple with graded
    centre exactly the base graded field. A graded field is read as M_1
    over itself."""
    a = _lazy_matrix_ring(a)
    if isinstance(a, ShiftedMatrixAlgebra) and a.lazy:
        simple = is_graded_simple_matrix(a)
        central = central_scalar_check(a)
    else:
        simple = is_graded_simple(a)
        gc = graded_center(a)
        if gc.subspace.dim == 1 and gc.is_graded:
            central = VerdictReport("centre-is-base", TRUE, EXHAUSTIVE)
        else:
            central = VerdictReport("centre-is-base", FALSE, EXHAUSTIVE,
                                    counterexample=("centre-dim", gc.subspace.dim))
    details = {"graded-simple": simple, "centre": central}
    if simple and central:
        return VerdictReport("graded-azumaya-csa", TRUE,
                             combine(simple.strategy, central.strategy), details=details)
    bad = simple if simple.is_false else central
    return VerdictReport("graded-azumaya-csa", FALSE, bad.strategy,
                         counterexample=bad.counterexample, details=details)


def group_ring_azumaya(field, group):
    """DeMeyer-Janusz: R[G] Azumaya iff R Azumaya, [G:Z(G)] finite, and the
    commutator subgroup's order m is invertible in R. Fields are Azumaya."""
    if group.kind != "finite-table":
        raise ValueError("finite-table group required")
    elems = group.elements()
    centre = [g for g in elems
              if all(g * h == h * g for h in elems)]
    centre_index = group.size // len(centre)
    _, m = derived_subgroup(group)
    m_invertible = field.is_invertible_int(m)
    details = {"base-azumaya": True, "centre-index": centre_index,
               "commutator-order": m, "commutator-order-invertible": m_invertible}
    if m_invertible:
        return VerdictReport("group-ring-azumaya", TRUE, EXHAUSTIVE, details=details)
    return VerdictReport("group-ring-azumaya", FALSE, EXHAUSTIVE,
                         counterexample=("char-divides-commutator-order", m),
                         details=details)
