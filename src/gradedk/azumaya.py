"""Azumaya verification: the enveloping algebra, psi, separability
idempotents, Braun's criterion, the graded-CSA route, and the group-ring
criterion."""

from __future__ import annotations

from functools import cached_property

from . import linalg
from .algebra import center, integer_psi_matrix, integer_regular_rows, sandwich
from .graded import (TwistedGroupAlgebra, graded_tensor, opposite, graded_center,
                     is_graded_simple)
from .groups import derived_subgroup
from .matrixring import (ShiftedMatrixAlgebra, is_graded_simple_matrix,
                         central_scalar_check)
from .verdict import (VerdictReport, TRUE, FALSE, EXHAUSTIVE, CONSTRUCTIVE,
                      combine)


class EnvelopingAlgebra:
    """A^e = A (x) A^op with the star action (a (x) b) * x = a x b."""

    def __init__(self, graded):
        self.source = graded
        self.n = graded.algebra.dim

    @cached_property
    def tensor(self):
        """A (x) A^op, built on first use: psi and star do not need it."""
        return graded_tensor(self.source, opposite(self.source))

    def embed_left(self, a):
        """a |-> a (x) 1."""
        return self._embed(a, self.source.algebra.one)

    def embed_right(self, b):
        """b |-> 1 (x) b."""
        return self._embed(self.source.algebra.one, b)

    def _embed(self, a, b):
        n = self.n
        alg = self.tensor.algebra
        coords = [self.source.field.zero] * (n * n)
        for i, ca in enumerate(a.coords):
            if not ca:
                continue
            for j, cb in enumerate(b.coords):
                if cb:
                    coords[i * n + j] = coords[i * n + j] + ca * cb
        return alg.element(coords)

    def pure_tensor(self, a, b):
        return self._embed(a, b)

    def star(self, e, x):
        """(sum c_ij e_i (x) e_j) * x = sum c_ij e_i x e_j in A."""
        return sandwich(self.source.algebra, e.coords, x)

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


def verify_separability_idempotent(graded, e, env=None):
    """e * 1 = 1, (a (x) 1) e = (1 (x) a) e for every basis a, and e^2 = e."""
    env = env or EnvelopingAlgebra(graded)
    src = graded.algebra
    if env.star(e, src.one) != src.one:
        return VerdictReport("separability-idempotent", FALSE, EXHAUSTIVE,
                             counterexample=("star-unit", env.star(e, src.one)))
    for i in range(src.dim):
        a = src.basis_element(i)
        if env.embed_left(a) * e != env.embed_right(a) * e:
            return VerdictReport("separability-idempotent", FALSE, EXHAUSTIVE,
                                 counterexample=("commute-condition", src.labels[i]))
    if e * e != e:
        return VerdictReport("separability-idempotent", FALSE, EXHAUSTIVE,
                             counterexample=("not-idempotent", e))
    return VerdictReport("separability-idempotent", TRUE, EXHAUSTIVE)


def standard_separability_idempotent(g, env):
    """Solve the separability-idempotent equations linearly, then pick an
    actual idempotent among the affine solution set (direct solve suffices
    for the algebras handled here)."""
    alg = env.tensor.algebra
    n2 = alg.dim
    src = g.algebra
    # (a x 1 - 1 x a) e = 0 for basis a: the rows of L_(a x 1 - 1 x a)
    rows = []
    for i in range(src.dim):
        a = src.basis_element(i)
        rows += integer_regular_rows(alg, (env.embed_left(a) - env.embed_right(a)).coords)[0]
    # e * 1 = sum_(i,j) e_ij e_i e_j = 1, both sides at the table's scale
    star = [{n2: u} if u else {} for u in src.unit_ints]
    for i, row in enumerate(src.table):
        for j, terms in row.items():
            for r, c in terms:
                star[r][i * env.n + j] = c
    sol = linalg.solve(rows + star, n2, alg.field)
    if sol is None:
        return None
    e = alg.element(sol)
    if e * e != e:
        return None
    return e


def braun_check(graded, e, env=None):
    """Braun: A central over R plus e with e * 1 = 1 and e * A inside R."""
    src = graded.algebra
    z = center(src)
    one_span = src.subspace([src.one])
    if z != one_span:
        bad = next(src.element(r) for r in z.rows if not one_span.contains(src.element(r)))
        raise ValueError("centrality precondition fails; witness %r" % bad)
    env = env or EnvelopingAlgebra(graded)
    if env.star(e, src.one) != src.one:
        return VerdictReport("braun-azumaya", FALSE, EXHAUSTIVE,
                             counterexample=("star-unit", env.star(e, src.one)))
    for i in range(src.dim):
        v = env.star(e, src.basis_element(i))
        if not one_span.contains(v):
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
        one_span = a.algebra.subspace([a.algebra.one])
        if gc.subspace == one_span and gc.is_graded:
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
