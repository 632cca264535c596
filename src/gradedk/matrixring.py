"""Shifted graded matrix rings M_n(R)(d) and the classification of shifts.

One private builder, `_matrix_algebra`, lays out every matrix ring here:
entry (i, j) holds a chosen list of R's basis keys k, on the basis
(i, j, k), with (i, j, x)(j, l, y) = (i, l, xy). `materialized` takes every
key of R; the covering algebra End_gr(sum_i R(s_i)) takes the keys of
R_(s_i^-1 s_j); and the identity component of M_n(R)(d), lazy or not, is
the covering algebra of (d_1^-1, ..., d_n^-1), built once per ring.
Over a lazy graded field R, strong grading, the identity component and its
blocks are read off the Gamma_D-coset labels of the shift entries, and a
shift classification's witness pairs entries by their translated labels.

Degree conventions (abelian groups written additively):
  * the ij-entry of the lam-component lies in R_{delta_i + lam - delta_j};
  * a matrix with a single entry of degree eps at (i, j) is homogeneous of
    degree -delta_i + eps + delta_j;
  * the GL_{n x m}(R)[d][a] pattern has ij-entry in R_{-delta_i + alpha_j}.
A conformance test pins these against the lam = 0 layout of the Laurent
matrix example.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

from . import linalg
from .algebra import (Algebra, AlgebraElement, Subspace, center, element_from_ints,
                      integer_regular_rows, try_invert)
from .graded import (GradedAlgebra, TwistedGroupAlgebra, graded_radical,
                     strong_grading_report, strongly_graded_at, support_subgroup)
from .groups import SubgroupSpec, coset_label, coset_label_columns
from .verdict import VerdictReport, TRUE, FALSE, EXHAUSTIVE, CONSTRUCTIVE, combine
from .wedderburn import (BlockSummary, SemisimpleDecomposition,
                         central_primitive_idempotents, quotient)


class ShiftedMatrixAlgebra:
    """M_n(R)(d) for R a finite-dimensional GradedAlgebra (materialized) or a
    TwistedGroupAlgebra graded field (lazy, componentwise)."""

    def __init__(self, base, shift):
        self.base = base
        self.shift = tuple(shift)
        self.n = len(self.shift)
        if self.n < 1:
            raise ValueError("empty shift vector")
        self.group = base.group
        if not all(map(self.group._owns, self.shift)):
            raise ValueError("shift entries must live in the base grade group")
        self.lazy = isinstance(base, TwistedGroupAlgebra)

    # -- degree bookkeeping -------------------------------------------

    def entry_degree(self, i, j, lam):
        """Degree required of the ij-entry of the lam-component."""
        return self.shift[i] * lam * self.shift[j].inverse()

    def element_degree(self, i, j, eps):
        """Degree of the matrix with a single degree-eps entry at (i, j)."""
        return self.shift[i].inverse() * eps * self.shift[j]

    @functools.cached_property
    def _support_subgroup(self):
        """`graded.support_subgroup`: `SubgroupSpec.generated_by`'s basis of the
        base's and the d_1^-1 d_j, as d_i^-1 d_j = (d_1^-1 d_i)^-1 d_1^-1 d_j."""
        d1 = self.shift[0].inverse()
        gens = list(support_subgroup(self.base).generators) + [d1 * d for d in self.shift[1:]]
        return SubgroupSpec.generated_by(self.group, [g.coords for g in gens])

    @functools.cached_property
    def labels(self):
        """Each shift entry's coset label for the lazy base's support."""
        return _coset_labels(self.group, self.base.support, self.shift)

    @functools.cached_property
    def _identity_component(self):
        """A_e, built and checked once; see `identity_component`."""
        d, base = self.shift, self.base
        if self.lazy:
            keys = lambda i, j: [d[i] * d[j].inverse()] if self.labels[i] == self.labels[j] else []
        else:
            keys = lambda i, j: base.component_indices(d[i] * d[j].inverse())
        return _matrix_algebra(base, self.n, keys)[0]

    # -- lazy component algebra ---------------------------------------

    def component_monomials(self, lam):
        """Basis monomials (i, j, gamma) of the lam-component; lazy base."""
        if not self.lazy:
            raise ValueError("materialized base: use the GradedAlgebra view")
        out = []
        for i in range(self.n):
            for j in range(self.n):
                gamma = self.entry_degree(i, j, lam)
                if self.base.has_component(gamma):
                    out.append((i, j, gamma))
        return out

    def monomial_product(self, m1, m2):
        """Product of basis monomials; None if it vanishes structurally."""
        i, j, g1 = m1
        k, l, g2 = m2
        if j != k:
            return None
        c, g = self.base.monomial_product(self.base.field.one, g1,
                                          self.base.field.one, g2)
        return (i, l, g), c

    # -- materialized view --------------------------------------------

    @functools.cached_property
    def materialized(self):
        """The full GradedAlgebra on the basis {E_ij b_t}; finite base only."""
        if self.lazy:
            raise ValueError("infinite base components cannot be materialized")
        base = self.base
        alg, basis = _matrix_algebra(base, self.n, lambda i, j: range(base.dim))
        return GradedAlgebra(alg, self.group, [self.element_degree(i, j, base.degrees[t])
                                               for i, j, t in basis])

    def __repr__(self):
        return "M_%d(%r)%r" % (self.n, self.base, tuple(self.shift))


def _matrix_algebra(base, n, entry_keys):
    """(A, basis): the span A of the E_ij x_k inside M_n(R), with k running
    over entry_keys(i, j), on the basis [(i, j, k)] in row-major order. The
    product is (i, j, x)(j, l, y) = (i, l, xy), and 1 = sum_i E_ii 1; the
    keys chosen for (i, l) must hold every such xy. A key is a basis index
    of a GradedAlgebra R, or a support degree g of a TwistedGroupAlgebra R,
    where u_g u_h = c(g, h) u_gh and 1 = u_e."""
    field = base.field
    if isinstance(base, TwistedGroupAlgebra):
        key_product = lambda g, h: {g * h: base.cocycle(g, h)}
        one, label = {base.group.identity: field.one}, repr
    else:
        key_product = lambda k1, k2: base.algebra.products.get((k1, k2), {})
        one, label = dict(enumerate(base.algebra.unit_coords)), base.algebra.labels.__getitem__
    keys = [[list(entry_keys(i, j)) for j in range(n)] for i in range(n)]
    basis = [(i, j, k) for i in range(n) for j in range(n) for k in keys[i][j]]
    index = {b: pos for pos, b in enumerate(basis)}
    products = {}
    for x, (i, j, k1) in enumerate(basis):
        for l in range(n):
            for k2 in keys[j][l]:
                terms = key_product(k1, k2)
                if terms:
                    products[(x, index[(j, l, k2)])] = {index[(i, l, k)]: c
                                                        for k, c in terms.items()}
    unit = [one.get(k, field.zero) if i == j else field.zero for i, j, k in basis]
    labels = ["E%d%d*%s" % (i + 1, j + 1, label(k)) for i, j, k in basis]
    return Algebra(field, labels, products, unit=unit), basis


def identity_component(m):
    """The identity-degree subalgebra of M_n(R)(d) or of a GradedAlgebra
    (`GradedAlgebra.identity_component`). For M_n(R)(d), lazy or not, it is
    End_gr(sum_i R(d_i^-1)), the covering algebra of (d_1^-1, ..., d_n^-1)
    with repeated entries kept: its (i, j)-entry is R_(d_i d_j^-1), which
    for a lazy R is F u_(d_i d_j^-1) when d_i and d_j share a label, else 0.
    Either way it is built once: every call returns the same object."""
    if not isinstance(m, ShiftedMatrixAlgebra):
        return m.identity_component()
    return m._identity_component


def split_lazy_identity_component(m):
    """A_e's `SemisimpleDecomposition` for a lazy M_n(D)(d), by theorem:
    M_n(D)(d)_e = prod_c M_(n_c)(D_e) with D_e = F, one block per label
    class c of the shift entries, n_c its size (Nastasescu-Van Oystaeyen,
    Methods of Graded Rings, LNM 1836, 2.10; Hazrat, Graded Rings and Graded
    Grothendieck Groups, 2016, 1.3). The idempotent of c is sum_(i in c)
    E_ii u_e, the radical is 0, and blocks sort as in `split_identity_component`."""
    a0, label, n = identity_component(m), m.labels, m.n
    classes = sorted({x: [i for i in range(n) if label[i] == x] for x in label}.values(), key=len)
    idems = [AlgebraElement(a0, tuple(int(i == j and i in c) for i in range(n)
                                      for j in range(n) if label[i] == label[j])) for c in classes]
    return SemisimpleDecomposition(a0, [BlockSummary(len(c) ** 2, 1, len(c), 1) for c in classes],
                                   idems, Subspace(a0, ([], 1, [])))


def is_strongly_graded_matrix(m):
    """Strong gradedness of a lazy M_n(R)(d), on each support-subgroup
    generator lam and its inverse. I lies in A_lam A_(lam^-1) iff every row
    i has a j with g = d_i lam d_j^-1 in R's support, label(d_j) = label(d_i
    lam): then (E_ij u_g)(E_ji u_(g^-1)) = c(g, g^-1) E_ii, and a row with
    no such j is 0 in every product. The certificate pairs ((i, j, g), (j,
    i, g^-1)) at the first such j of each row, coefficient 1 / c(g, g^-1)."""
    if not m.lazy:
        raise ValueError("materialized algebras use graded.is_strongly_graded")
    base = m.base
    first = {x: m.labels.index(x) for x in m.labels}  # the first j of each label

    def certify(d):
        moved = _coset_labels(m.group, base.support, [di * d for di in m.shift])
        if not all(x in first for x in moved):
            return None
        return [(((i, j, g), (j, i, g.inverse())), base.field.one / base.cocycle(g, g.inverse()))
                for i, j in enumerate(map(first.get, moved))
                for g in [m.entry_degree(i, j, d)]]
    return strong_grading_report(support_subgroup(m).generators, certify)


def is_graded_simple_matrix(m):
    """Graded simplicity of M_n(R)(d) over a twisted-group-algebra graded
    field, by theorem: R is a graded division ring (its cocycle values are
    nonzero, so every monomial u_g has the inverse u_g^-1 / c(g, g^-1)), and
    a matrix ring over a graded division ring is graded simple (Hazrat,
    Graded Rings and Graded Grothendieck Groups, 2016, 1.3): matrix units and
    monomial inverses carry any nonzero homogeneous element to the identity."""
    if not m.lazy:
        raise ValueError("materialized algebras use graded.is_graded_simple")
    return VerdictReport("graded-simple", TRUE, CONSTRUCTIVE,
                         witness="matrix-unit reduction with monomial inverses")


def central_scalar_check(m):
    """Whether the centre of a lazy M_n(R)(d) is exactly R (scalar matrices
    with entries in the base graded field). A non-commuting pair of support
    generators shows a non-commutative R is not central. For commutative R
    it is, whatever the shift: Z(M_n(R)) = Z(R) I_n = R I_n, since what
    commutes with every matrix unit E_ij is a scalar matrix, and a scalar
    matrix r I_n is central iff r is."""
    if not m.lazy:
        raise ValueError("lazy base expected")
    pair = m.base.noncommuting_pair()
    if pair is not None:
        return VerdictReport("centre-is-base", FALSE, EXHAUSTIVE,
                             counterexample=("noncommuting-base",) + pair)
    return VerdictReport("centre-is-base", TRUE, EXHAUSTIVE,
                         witness="Z(M_n(R)) = Z(R) I_n")


# -- GL_{n x m}(R)[d][a] ----------------------------------------------


def covering_algebra(g, degrees):
    """(E, eps) with E = End_gr(sum_s R(s)) = sum_(s,t in S) R_(s^-1 t) for
    the distinct degrees S, on the basis (s, t, k) with k a basis vector of
    R_(s^-1 t), laid out by `_matrix_algebra`. The product is
    (s, t, x)(t, u, y) = (s, u, xy) and 0 when the middle degrees differ;
    eps[s] = (s, s, 1) is the idempotent of R(s)."""
    degrees = tuple(dict.fromkeys(degrees))
    cover, basis = _matrix_algebra(g, len(degrees), lambda i, j: g.component_indices(
        degrees[i].inverse() * degrees[j]))
    eps = {s: element_from_ints(cover, [u if i == t else 0 for u, (i, _, _) in
                                        zip(cover.unit_ints, basis)], cover.scale)
           for t, s in enumerate(degrees)}
    return cover, eps


def _top_dimensions(g, degrees):
    """({s: v(s)}, [f_b]) with f_b the central primitive idempotents of E/J,
    for E the covering algebra of the degrees and J its radical, and v(s)_b
    = dim eps_s f_b (E/J): the top eps_s (E/J) of eps_s E holds v(s)_b /
    dim(simple module) copies of the simple module of the block f_b. E/J is
    the covering algebra of R/J^gr, as J(E) has the J^gr_(s^-1 t) as its
    (s, t) entries (Peirce decomposition; Lam, GTM 131, 21)."""
    radical = graded_radical(g)
    pivots = set(radical.pivots)
    semisimple = GradedAlgebra(quotient(g.algebra, radical), g.group,
                               [d for c, d in enumerate(g.degrees) if c not in pivots])
    top, eps = covering_algebra(semisimple, degrees)
    idems = central_primitive_idempotents(top, center(top).basis_elements())
    # rank L_y is the rank of its sparse integer rows
    dims = {s: tuple(linalg.rank(integer_regular_rows(top, (x * f).ints), top.field) for f in idems)
            for s, x in eps.items()}
    return dims, idems


def _homogeneous_unit(g, degree):
    """(x, x^-1) for a unit x of the given degree: 1 in degree e, else the
    first invertible basis vector of the component; None when there is
    none."""
    alg = g.algebra
    if degree == g.group.identity:
        return alg.one, alg.one
    for k in g.component_indices(degree):
        b = alg.basis_element(k)
        b_inv = try_invert(b)
        if b_inv is not None:
            return b, b_inv
    return None


def _structured_witness(g, d, a):
    """(r, t) with r t = I and t r = I: a perfect matching i -> j of
    homogeneous units r_ij of degree d_i^-1 a_j, with t_ji = r_ij^-1; None
    when the units found do not match every i."""
    n = len(d)
    degree = {(i, j): d[i].inverse() * a[j] for i in range(n) for j in range(n)}
    unit = {deg: _homogeneous_unit(g, deg) for deg in set(degree.values())}
    units = {ij: unit[deg] for ij, deg in degree.items() if unit[deg] is not None}
    match = _perfect_matching(n, set(units))
    if match is None:
        return None
    zero = g.algebra.zero
    r = [[zero] * n for _ in range(n)]
    t = [[zero] * n for _ in range(n)]
    for i, j in enumerate(match):
        r[i][j], t[j][i] = units[(i, j)]
    return r, t


def solve_shift_matrix(base_graded, d, a):
    """Decide R^n(d) ~gr R^m(a), i.e. whether GL_{n x m}(R)[d][a] is
    nonempty, for a materialized graded base R.

    n != m is false. The structured search comes first: a permutation
    matrix of homogeneous units (1 in degree e, basis vectors) gives a
    constructive true with the witness (r, t). Otherwise the tops decide
    (Nastasescu-Van Oystaeyen, Methods of Graded Rings, LNM 1836, 2004):
    R^n(d) ~gr R^n(a) iff sum_i eps_(d_i) E ~ sum_j eps_(a_j) E
    as projective modules over the covering algebra E (see
    `covering_algebra`), and projective modules over a finite-dimensional
    algebra are isomorphic iff their tops are, i.e. iff sum_i v(d_i) =
    sum_j v(a_j), read off E/J, the covering algebra of R/J^gr (see
    `_top_dimensions`). That verdict is exhaustive. A true carries
    ("top-dimensions", S, {s: v(s)}) and a false ("top-dimensions", S,
    sum_i v(d_i), sum_j v(a_j)), with the f_b and the v(s) in details.
    """
    d = tuple(d)
    a = tuple(a)
    if len(d) != len(a):
        return VerdictReport("shift-matrix", FALSE, EXHAUSTIVE,
                             counterexample=("rank-mismatch", len(d), len(a)))
    found = _structured_witness(base_graded, d, a)
    if found is not None:
        return VerdictReport("shift-matrix", TRUE, CONSTRUCTIVE, witness=found)
    return _shift_by_tops(base_graded, d, a)


def _shift_by_tops(base_graded, d, a):
    """The exhaustive half of `solve_shift_matrix`, for tuples d and a of
    equal length: compare sum_i v(d_i) with sum_j v(a_j)."""
    cover = tuple(dict.fromkeys(d + a))
    dims, idems = _top_dimensions(base_graded, cover)
    v_d, v_a = ([sum(col) for col in zip(*(dims[s] for s in side))] for side in (d, a))
    details = {"dimensions": dims, "idempotents": idems}
    if v_d == v_a:
        return VerdictReport("shift-matrix", TRUE, EXHAUSTIVE,
                             witness=("top-dimensions", cover, dims), details=details)
    return VerdictReport("shift-matrix", FALSE, EXHAUSTIVE,
                         counterexample=("top-dimensions", cover, tuple(v_d), tuple(v_a)),
                         details=details)


def is_crossed_product(g):
    """A homogeneous unit in every degree of the support subgroup, checked
    on its generators since the degrees of the homogeneous units form a
    group. A generator is settled by a unit from the structured search of
    `solve_shift_matrix` if it finds one. Otherwise a unit u of degree
    gamma would give 1 = u u^-1 in A_gamma A_(gamma^-1), so a generator
    where that fails refutes it, with the counterexample ("degree", gamma,
    ("not-strongly-graded", gamma)). Otherwise A_gamma holds a unit iff
    A(gamma) ~gr A, the n = 1 case of `solve_shift_matrix` with d = (e) and
    a = (gamma), and its top-dimension certificate is the witness. Its
    structured search would scan the degree for units again, so only its
    tops are compared."""
    if isinstance(g, TwistedGroupAlgebra):
        return VerdictReport("crossed-product", TRUE, CONSTRUCTIVE,
                             witness="monomials u_g")
    e = g.group.identity
    witnesses = {}
    strategies = []
    for gamma in support_subgroup(g).generators or [e]:
        unit = _homogeneous_unit(g, gamma)
        if unit is not None:
            witnesses[gamma] = unit[0]
            strategies.append(CONSTRUCTIVE)
            continue
        if strongly_graded_at(g, gamma) is None:
            return VerdictReport("crossed-product", FALSE, EXHAUSTIVE,
                                 counterexample=("degree", gamma,
                                                 ("not-strongly-graded", gamma)))
        rep = _shift_by_tops(g, (e,), (gamma,))
        if not rep:
            return VerdictReport("crossed-product", FALSE, EXHAUSTIVE,
                                 counterexample=("degree", gamma, rep.counterexample))
        witnesses[gamma] = rep.witness
        strategies.append(rep.strategy)
    return VerdictReport("crossed-product", TRUE, combine(*strategies),
                         witness=witnesses)


def _perfect_matching(n, edges):
    """Assignment i -> match[i] using the given (i, j) edge set, or None."""
    match_of_j = {}

    def augment(i, seen):
        for j in range(n):
            if (i, j) in edges and j not in seen:
                seen.add(j)
                if j not in match_of_j or augment(match_of_j[j], seen):
                    match_of_j[j] = i
                    return True
        return False

    for i in range(n):
        if not augment(i, set()):
            return None
    out = [None] * n
    for j, i in match_of_j.items():
        out[i] = j
    return out


# -- classification of shift vectors ----------------------------------


@dataclass(frozen=True)
class ShiftCanonicalForm:
    """Multiset of Gamma_D-cosets normalized by a common translation."""
    labels: tuple  # sorted tuple of coset labels

    def __repr__(self):
        return "ShiftCanonicalForm%r" % (self.labels,)


def canonical_shift(group, gamma_d, shift):
    """Canonical form of a shift vector over a graded division ring with
    homogeneous-unit degrees gamma_d (a SubgroupSpec of the abelian group).

    The common translation sigma is absorbed by minimizing the sorted
    multiset of Gamma_D-coset labels over translations by the negatives of
    the entries. Entries of one coset give the same translate, so after n
    label computations only the m <= min(n, |G : Gamma_D|) distinct labels
    are tried, each a sort of m runs (label, -multiplicity); for multisets
    of one size, sorted runs compare as the expanded sorted labels do. Over
    an fg-abelian group label(s - b) = (label(s) - label(b)) mod d for the
    invariant factors d of G/Gamma_D, one pass per label coordinate.
    """
    shift = list(shift)
    if not shift:
        raise ValueError("empty shift vector")
    return ShiftCanonicalForm(_canonical_labels(group, gamma_d, shift,
                                                _coset_labels(group, gamma_d, shift))[0])


def _coset_labels(group, gamma_d, elements):
    """Each element's `coset_label` as a tuple: over an fg-abelian group read
    across `coset_label_columns`; over a finite table the 1-tuple
    (coset_label(g),)."""
    if not group.is_abelian():
        raise ValueError("classification requires an abelian grade group")
    if group.kind != "fg-abelian":
        return [(coset_label(group, gamma_d, g),) for g in elements]
    points = [g.coords for g in elements]
    return _rows(coset_label_columns(gamma_d, points), len(points))


def _rows(cols, m):
    """The m labels read across the label columns, also with no columns."""
    return list(zip(*cols)) if cols else [()] * m


def _translate(group, gamma_d, labels, reps, b):
    """The label columns of the cosets x - b for the labels x and b: over an
    fg-abelian group label arithmetic modulo the invariant factors; over a
    finite table the one column holds coset_label(reps[x] - reps[b])."""
    if group.kind != "fg-abelian":
        offset = reps[b].inverse()
        return [[coset_label(group, gamma_d, reps[x] * offset) for x in labels]]
    return [[(x - t) % d if d else x - t for x in col]
            for col, t, d in zip(zip(*labels), b, gamma_d.smith_form[0])]


def _canonical_labels(group, gamma_d, entries, labels):
    """(form, b, moved): `canonical_shift` from the entries and their
    `_coset_labels`, the label b whose translation by -b attains it, and
    moved[x], the label of x - b, for each distinct label x."""
    counts = Counter(labels)
    distinct, negs = list(counts), [-c for c in counts.values()]
    reps = dict(zip(labels, entries))
    runs, b, cols = min(((sorted(zip(*cols, negs)), b, cols) for b in distinct
                         for cols in [_translate(group, gamma_d, distinct, reps, b)]),
                        key=lambda found: found[0])
    out = tuple(run[:-1] for run in runs for _ in range(-run[-1]))
    form = out if group.kind == "fg-abelian" else tuple(x for (x,) in out)
    return form, b, dict(zip(distinct, _rows(cols, len(distinct))))


def shifted_iso_decision(group, gamma_d, lam, gam):
    """Graded-isomorphism decision for M_n(D)(lam) vs M_n(D)(gam) over a
    graded division ring with unit-degree subgroup gamma_d; on success the
    witness is (pi, tau, sigma) with gam[i] = tau[i] * lam[pi[i]] * sigma.

    Equal canonical forms, attained at the entries b of lam and c of gam,
    give the labels of the gam[i] c^-1 as those of the lam[j] b^-1, so
    sigma = c b^-1 sends each gam[i] sigma^-1 into the coset of an unused
    lam[j] whose translate by b^-1 has the label of gam[i] c^-1, which is
    pi(i), and tau[i] = gam[i] sigma^-1 lam[pi(i)]^-1 lies in Gamma_D."""
    lam = list(lam)
    gam = list(gam)
    if not lam or not gam:
        raise ValueError("empty shift vector")
    if len(lam) != len(gam):
        raise ValueError("shift vectors must have equal length (n = n')")
    lab_l = _coset_labels(group, gamma_d, lam)
    lab_g = _coset_labels(group, gamma_d, gam)
    form_l, b, moved_l = _canonical_labels(group, gamma_d, lam, lab_l)
    form_g, c, moved_g = _canonical_labels(group, gamma_d, gam, lab_g)
    cf_l, cf_g = ShiftCanonicalForm(form_l), ShiftCanonicalForm(form_g)
    if cf_l != cf_g:
        diff = (Counter(cf_g.labels) - Counter(cf_l.labels)) + \
               (Counter(cf_l.labels) - Counter(cf_g.labels))
        return VerdictReport("shifted-matrix-isomorphic", FALSE, EXHAUSTIVE,
                             counterexample=("coset-multiset", dict(diff)),
                             details={"left": cf_l, "right": cf_g})
    sigma = gam[lab_g.index(c)] * lam[lab_l.index(b)].inverse()
    sigma_inv = sigma.inverse()
    unused = {}
    for j, x in enumerate(lab_l):
        unused.setdefault(moved_l[x], []).append(j)
    unused = {x: iter(js) for x, js in unused.items()}
    pi = [next(unused[moved_g[y]]) for y in lab_g]
    tau = [g * sigma_inv * lam[j].inverse() for g, j in zip(gam, pi)]
    return VerdictReport("shifted-matrix-isomorphic", TRUE, CONSTRUCTIVE,
                         witness={"pi": pi, "tau": tau, "sigma": sigma})


def is_good_grading(g, matrix_units=None):
    """If all matrix units are homogeneous, the shift vector (g_1, ..., g_n)
    with deg(e_ij) = g_i^-1 g_j; otherwise None.

    matrix_units: n x n nested list of AlgebraElements; defaults to the basis
    in row-major order when the algebra dimension is a perfect square.
    """
    alg = g.algebra
    if matrix_units is None:
        n = math.isqrt(alg.dim)
        if n * n != alg.dim:
            raise ValueError("no designated matrix units and dim is not a square")
        matrix_units = [[alg.basis_element(i * n + j) for j in range(n)]
                        for i in range(n)]
    n = len(matrix_units)
    for row in matrix_units:
        for e in row:
            if not g.is_homogeneous(e) or e.is_zero():
                return None
    gammas = [g.group.identity]
    for j in range(1, n):
        gammas.append(g.degree_of(matrix_units[0][j]))
    for i in range(n):
        for j in range(n):
            if g.degree_of(matrix_units[i][j]) != gammas[i].inverse() * gammas[j]:
                return None
    return tuple(gammas)
