"""Gradings on algebras and the structural predicates built on them.

A GradedAlgebra is always presented on a homogeneous basis, so homogeneous
components are coordinate slices. Infinite-support graded fields (Laurent-type
twisted group algebras) get a lazy representation with one-dimensional
components.

Each predicate is one deterministic procedure over Q and GF(p); none samples.
The ones that look inside the identity component A_e (graded division,
the graded radical, graded simplicity) build A_e here, take its radical
from `algebra` and split it with `wedderburn`. Over every grade group the
support subgroup is `SubgroupSpec.generated_by` of the support degrees, and
e is never among its generators.
"""

from __future__ import annotations

import functools
import itertools
import math

from . import linalg
from .algebra import (Algebra, Subspace, center, element_from_ints, jacobson_radical,
                      try_invert)
from .groups import SubgroupSpec, quotient_invariants
from .verdict import (VerdictReport, TRUE, FALSE, UNDECIDED,
                      EXHAUSTIVE, CONSTRUCTIVE)
from .wedderburn import (central_primitive_idempotents, spectral_idempotents,
                         split_identity_component)


class GradedAlgebra:
    """An Algebra with a degree assignment on its (homogeneous) basis.

    Immutable after construction: the structure of the grading is computed
    at most once and kept, namely the degree -> basis indices index that the
    grading check builds, the support subgroup and A_e."""

    def __init__(self, algebra, group, degrees):
        """The grading is checked here, once: e_i e_j must lie in the
        component of deg_i deg_j and the unit in degree e. A failure is a
        ValueError with the counterexample ("closure", i, j, k), a term e_k
        of e_i e_j in another degree (the first in the table's row order),
        or ("unit-degree", i)."""
        self.algebra = algebra
        self.group = group
        self.degrees = list(degrees)
        if len(self.degrees) != algebra.dim:
            raise ValueError("one degree per basis vector required")
        if not all(map(group._owns, self.degrees)):
            raise ValueError("degree from a different grade group")
        coords = [d.coords for d in self.degrees]
        components = {}  # degree coords -> its basis indices, in basis order
        for i, c in enumerate(coords):
            components.setdefault(c, []).append(i)
        mul = group._mul
        for i, row in enumerate(algebra.table):
            for j, terms in row.items():
                want = mul(coords[i], coords[j])
                for k, _ in terms:
                    if coords[k] != want:
                        raise ValueError("invalid grading: %r" % (("closure", i, j, k),))
        for i, c in enumerate(algebra.unit_ints):
            if c and coords[i] != group._identity_coords:
                raise ValueError("invalid grading: %r" % (("unit-degree", i),))
        self._components = {self.degrees[idx[0]]: idx for idx in components.values()}

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

    def component_indices(self, degree):
        """The basis indices of degree `degree`, in basis order (a new list)."""
        return list(self._components.get(degree, ()))

    @functools.cached_property
    def _support_subgroup(self):
        return SubgroupSpec.generated_by(self.group, sorted(d.coords for d in self._components))

    def homogeneous_components(self, x):
        """Decompose an element into its nonzero homogeneous components."""
        out = {}
        for i, a in enumerate(x.ints):
            if a:
                out.setdefault(self.degrees[i], [0] * self.dim)[i] = a
        return {d: element_from_ints(self.algebra, v, x.den) for d, v in out.items()}

    def is_homogeneous(self, x):
        return len(self.homogeneous_components(x)) <= 1

    def degree_of(self, x):
        comps = self.homogeneous_components(x)
        if len(comps) != 1:
            raise ValueError("element is not homogeneous (or is zero)")
        return next(iter(comps))

    def component_element(self, degree, ints, den=1):
        """The element with coordinates ints / den on a component, in basis
        order, and 0 elsewhere."""
        full = [0] * self.dim
        for i, a in zip(self.component_indices(degree), ints):
            full[i] = a
        return element_from_ints(self.algebra, full, den)

    def identity_component(self):
        """A_e as an Algebra on the basis vectors of degree e, in basis order,
        built and checked once: every call returns the same object."""
        return self._identity_component

    @functools.cached_property
    def _identity_component(self):
        alg = self.algebra
        idx = self.component_indices(self.group.identity)
        pos = {i: t for t, i in enumerate(idx)}
        products = {}
        for i in idx:
            for j, terms in alg.table[i].items():
                if j in pos:
                    cs = self.field.from_ints([c for _, c in terms], alg.scale)
                    products[(pos[i], pos[j])] = {pos[k]: c for (k, _), c in zip(terms, cs)}
        return Algebra(self.field, [alg.labels[i] for i in idx], products,
                       unit=[alg.unit_coords[i] for i in idx])

    def component_elements(self, degree):
        """One nonzero element per line of a component, in the order of
        `FieldSpec.line_representatives`; prime fields only."""
        for values in self.field.line_representatives(len(self.component_indices(degree))):
            yield self.component_element(degree, values)


class TwistedGroupAlgebra:
    """A graded field with one-dimensional components F*u_g over a support
    subgroup, given by a 2-cocycle; supports infinite grade groups lazily."""

    def __init__(self, field, group, support, cocycle=None):
        if not group.is_abelian():
            raise ValueError("twisted group algebras require an abelian grade group")
        self.field = field
        self.group = group
        self.support = support
        self.cocycle = cocycle or (lambda g, h: field.one)
        self._check_cocycle()

    def _check_cocycle(self):
        gens = list(self.support.generators)
        triples = itertools.product(gens + [g.inverse() for g in gens], repeat=3)
        for a, b, c in triples:
            ab, abc, bc, a_bc = (self.cocycle(a, b), self.cocycle(a * b, c),
                                 self.cocycle(b, c), self.cocycle(a, b * c))
            if not (ab and abc and bc and a_bc):
                raise ValueError("2-cocycle vanishes on (%r, %r, %r)" % (a, b, c))
            if ab * abc != bc * a_bc:
                raise ValueError("2-cocycle identity fails on (%r, %r, %r)" % (a, b, c))

    @property
    def algebra(self):
        raise ValueError("a lazy twisted group algebra has no finite-dimensional "
                         "structure constants")

    def has_component(self, degree):
        return self.support.contains(degree)

    def monomial_product(self, cg, g, ch, h):
        """(cg*u_g)(ch*u_h) as a (coefficient, degree) pair."""
        return cg * ch * self.cocycle(g, h), g * h

    def noncommuting_pair(self):
        """Support generators a, b with u_a u_b != u_b u_a, or None."""
        gens = list(self.support.generators)
        return next(((a, b) for a in gens for b in gens
                     if self.cocycle(a, b) != self.cocycle(b, a)), None)

    def is_commutative(self):
        return self.noncommuting_pair() is None


# -- predicates -------------------------------------------------------


def validate_grading(g):
    """The report on a grading, which is valid by construction: a
    GradedAlgebra checked closure and the unit degree on every structure
    constant when it was built, and a lazy twisted group algebra is graded
    by its monomials."""
    if isinstance(g, TwistedGroupAlgebra):
        return VerdictReport("valid-grading", TRUE, CONSTRUCTIVE)
    return VerdictReport("valid-grading", TRUE, EXHAUSTIVE)


def support(g):
    """The set of degrees with a nonzero component (SubgroupSpec for lazy
    graded fields)."""
    if isinstance(g, TwistedGroupAlgebra):
        return g.support
    return set(g._components)


def support_subgroup(g):
    """The subgroup generated by the support, computed once per graded
    algebra or shifted matrix ring by `SubgroupSpec.generated_by` on the
    support degrees in coordinate order, over every grade group. A lazy
    graded field's support is its own subgroup."""
    if isinstance(g, TwistedGroupAlgebra):
        return g.support
    return g._support_subgroup


def strongly_graded_at(g, gamma):
    """Certificate that 1 lies in R_gamma * R_{gamma^-1}, or None: a
    solution of sum c_ij e_i e_j = 1 over i in R_gamma, j in R_(gamma^-1),
    on the coordinates of A_e, where every e_i e_j and 1 lie. The column of
    e_i e_j is read off `Algebra.table`, at the scale of `Algebra.unit_ints`."""
    alg = g.algebra
    left = g.component_indices(gamma)
    right = g.component_indices(gamma.inverse())
    if not left or not right:
        return None
    pairs = [(i, j) for i in left for j in right]
    m = len(pairs)
    rows = {k: {m: alg.unit_ints[k]} for k in g._components[g.group.identity]}  # [A | 1]
    for c, (i, j) in enumerate(pairs):
        for k, v in alg.table[i].get(j, ()):
            rows[k][c] = v
    sol = linalg.solve(rows.values(), m, alg.field)
    if sol is None:
        return None
    return [(pair, c) for pair, c in zip(pairs, alg.field.from_ints(*sol)) if c]


def strong_grading_report(generators, certify):
    """The strong-grading report on support-subgroup generators, valid as
    the component products compose: certify(d), a certificate that 1 lies
    in R_d R_(d^-1) or None, is asked of each generator and its inverse,
    and the first None is a false with ("degree", d)."""
    certificates = {}
    for gamma in generators:
        for d in (gamma, gamma.inverse()):
            if d in certificates:
                continue
            cert = certify(d)
            if cert is None:
                return VerdictReport("strongly-graded", FALSE, EXHAUSTIVE,
                                     counterexample=("degree", d))
            certificates[d] = cert
    return VerdictReport("strongly-graded", TRUE, CONSTRUCTIVE, witness=certificates)


def is_strongly_graded(g):
    """1 in R_gamma R_{gamma^-1} for each support-subgroup generator and its
    inverse, by `strongly_graded_at`."""
    if isinstance(g, TwistedGroupAlgebra):
        # u_g has homogeneous inverse, so 1 is in R_g R_{g^-1} for every g
        return VerdictReport("strongly-graded", TRUE, CONSTRUCTIVE,
                             witness="homogeneous units u_g")
    return strong_grading_report(support_subgroup(g).generators,
                                 functools.partial(strongly_graded_at, g))


def _non_unit(g, a0, dec):
    """A nonzero non-unit of A_e as an element of A, given the splitting dec
    of A_e = a0 when it is not one division block: a radical vector, a
    central idempotent other than 1, or a spectral idempotent other than 1 of
    a basis vector or a sum of two; None when none of these is one."""
    basis = [a0.basis_element(i) for i in range(a0.dim)]
    candidates = itertools.chain(basis, (x + y for x, y in itertools.combinations(basis, 2)))
    if dec.radical_dim:
        x = dec.radical.basis_elements()[0]
    elif len(dec.idempotents) > 1:
        x = dec.idempotents[0]
    else:
        x = next((p[0][0] for p in map(spectral_idempotents, candidates) if len(p) > 1), None)
    return None if x is None else g.component_element(g.group.identity, x.ints, x.den)


def is_graded_division(g):
    """Every nonzero homogeneous element invertible, which holds iff A_e is a
    division algebra and A is strongly graded: for nonzero x in A_g, x A_g^-1
    is a right ideal of A_e, nonzero because 1 is in A_g^-1 A_g. Checked in
    turn: the basis vectors of A_e, inverted in A_e (if xy = yx = 1, then
    x y_e = y_e x = 1 for the degree-e part y_e of y), the strong grading
    (A_d holds no unit where it fails), and the Wedderburn splitting of A_e."""
    return _graded_division(g)[0]


def _graded_division(g):
    """(the report, the splitting of A_e, or None where it was not reached)."""
    if isinstance(g, TwistedGroupAlgebra):
        return VerdictReport("graded-division", TRUE, CONSTRUCTIVE,
                             witness="closed-form monomial inverses"), None
    alg, a0 = g.algebra, g.identity_component()
    for i, k in enumerate(g._components[g.group.identity]):
        if try_invert(a0.basis_element(i)) is None:
            return VerdictReport("graded-division", FALSE, CONSTRUCTIVE, counterexample=(
                "noninvertible", alg.basis_element(k))), None
    sg = is_strongly_graded(g)
    if not sg:
        d = sg.counterexample[1]
        idx = g.component_indices(d)
        bad = ("noninvertible", alg.basis_element(idx[0])) if idx else ("degree", d)
        return VerdictReport("graded-division", FALSE, EXHAUSTIVE, counterexample=bad), None
    dec = split_identity_component(a0)
    if dec.radical_dim == 0 and len(dec.blocks) == 1:
        block = dec.blocks[0]
        if block.matrix_size == 1:
            return VerdictReport("graded-division", TRUE, EXHAUSTIVE,
                                 witness={"identity-component": block,
                                          "strongly-graded": sg.witness}), dec
        if block.matrix_size is None:
            return VerdictReport("graded-division", UNDECIDED, EXHAUSTIVE,
                                 details={"reason": "identity-component-untyped",
                                          "block-reason": block.reason}), dec
    x = _non_unit(g, a0, dec)
    bad = ("noninvertible", x) if x is not None else ("identity-component", dec.blocks)
    return VerdictReport("graded-division", FALSE, EXHAUSTIVE, counterexample=bad), dec


def graded_radical(g):
    """J^gr as a canonical subspace of A, on homogeneous echelon rows: its
    degree-d part is {x in A_d : x A_(d^-1) in J(A_e)} (Nastasescu-Van
    Oystaeyen, Methods of Graded Rings, LNM 1836, 2004, 2.9)."""
    return _graded_radical(g, jacobson_radical(g.identity_component()))


def _graded_radical(g, radical):
    """J^gr from J(A_e), which gives the functionals w_r cutting it out
    (coordinates if J(A_e) = 0) and image[k], the nonzero w_r(e_k); then one
    nullspace per support degree d of the w_r(x e_j), j in A_(d^-1)."""
    comps = g._components
    e_idx = comps[g.group.identity]
    ws = linalg.nullspace(radical.echelon[0], len(e_idx), g.field)[0]
    image = {k: [(r, w[c]) for r, w in enumerate(ws) if c in w] for c, k in enumerate(e_idx)}
    parts = []
    for d, idx in comps.items():
        rows = {}  # (j, r) -> coefficients over A_d of w_r(x e_j)
        for t, i in enumerate(idx):
            for j in comps.get(d.inverse(), ()):
                for k, a in g.algebra.table[i].get(j, ()):
                    for r, b in image[k]:
                        row = rows.setdefault((j, r), {})
                        row[t] = row.get(t, 0) + a * b
        parts += [{idx[t]: v for t, v in row.items()}
                  for row in linalg.nullspace(rows.values(), len(idx), g.field)[0]]
    return Subspace(g.algebra, linalg.rref(parts, g.field))


def is_graded_simple(g):
    """Only homogeneous two-sided ideals are 0 and R. Decided in every
    characteristic by J^gr, defined from A_e (`graded_radical`), which over
    a finite grade group is the sum of the J n A_d, the largest graded ideal
    in the radical J (Cohen-Montgomery, Trans. AMS 282 (1984)): J^gr != 0 is
    a proper graded ideal. For J^gr = 0, A is a product of graded simple
    algebras A f for central idempotents f of degree e (graded
    Wedderburn-Artin: Nastasescu-Van Oystaeyen, LNM 1836, 2.9), so A is
    graded simple iff Z(A) n A_e has one primitive idempotent. J(A_e) comes
    from the division check's splitting where that ran, so it is computed once."""
    # the division check decides group rings such as F_3[S3] alone, and
    # faster than the graded radical and the centre together
    division, dec = _graded_division(g)
    if division:
        return VerdictReport("graded-simple", TRUE, CONSTRUCTIVE,
                             witness="graded division ring")
    alg = g.algebra
    radical = _graded_radical(g, dec.radical if dec else jacobson_radical(g.identity_component()))
    if radical.dim:
        return VerdictReport("graded-simple", FALSE, EXHAUSTIVE, counterexample=(
            "proper-ideal-generator", radical.basis_elements()[0]))
    idems = central_primitive_idempotents(
        alg, _component_part(g, center(alg), g.group.identity))
    if len(idems) == 1:
        return VerdictReport("graded-simple", TRUE, EXHAUSTIVE)
    return VerdictReport("graded-simple", FALSE, EXHAUSTIVE,
                         counterexample=("proper-ideal-generator", idems[0]))


def _component_part(g, subspace, degree):
    """Elements spanning subspace n A_degree (a nonzero subspace): the
    combinations of the subspace's echelon rows that vanish off the
    component, one per row of the kernel's echelon."""
    rows, den, _ = subspace.echelon
    off = [{s: row[i] for s, row in enumerate(rows) if i in row}
           for i, d in enumerate(g.degrees) if d != degree]
    kept, dk, _ = linalg.nullspace(off, len(rows), g.field)
    return [element_from_ints(
        g.algebra, [sum(c * rows[s].get(j, 0) for s, c in lam.items()) for j in range(g.dim)],
        dk * den) for lam in kept]


def graded_tensor(a, b):
    """A (x) B with the product grading; abelian grade groups only."""
    if a.group is not b.group and a.group != b.group:
        raise ValueError("grade groups differ")
    if not a.group.is_abelian():
        raise ValueError("graded tensor product requires an abelian grade group")
    if a.field != b.field:
        raise ValueError("base fields differ")
    na, nb = a.dim, b.dim
    labels = ["%s(x)%s" % (la, lb) for la in a.algebra.labels for lb in b.algebra.labels]

    def pair(i, j):
        return i * nb + j

    products = {}
    for (i1, i2), ta in a.algebra.products.items():
        for (j1, j2), tb in b.algebra.products.items():
            terms = {}
            for k1, c1 in ta.items():
                for k2, c2 in tb.items():
                    terms[pair(k1, k2)] = c1 * c2
            products[(pair(i1, j1), pair(i2, j2))] = terms
    unit = [a.algebra.unit_coords[i] * b.algebra.unit_coords[j]
            for i in range(na) for j in range(nb)]
    alg = Algebra(a.field, labels, products, unit=unit)
    degrees = [a.degrees[i] * b.degrees[j] for i in range(na) for j in range(nb)]
    return GradedAlgebra(alg, a.group, degrees)


def trivially_graded(algebra, group):
    """The given algebra with every basis vector in degree e."""
    return GradedAlgebra(algebra, group, [group.identity] * algebra.dim)


def dimension_formula_check(d):
    """[D:F] = [D_0:F_0] |Gamma_D : Gamma_F| for F the base field, trivially
    graded, so F_0 = F, Gamma_F is trivial and the index is |Gamma_D|, with
    Gamma_D the support subgroup. Over an infinite group G it is read off
    G/Gamma_D: infinite iff G/Gamma_D has a lower free rank than G, and
    otherwise the ratio of their torsion orders. An infinite index fails
    the formula."""
    total = d.dim
    d0 = len(d.component_indices(d.group.identity))
    supp_sub = support_subgroup(d)
    if d.group.is_finite():
        index = supp_sub.order
    else:
        rank, torsion = quotient_invariants(d.group, supp_sub)
        index = ("infinite" if rank != d.group.rank
                 else math.prod(d.group.torsion) // math.prod(torsion))
    ok = index != "infinite" and total == d0 * index
    return VerdictReport(
        "dimension-formula", TRUE if ok else FALSE, EXHAUSTIVE,
        counterexample=None if ok else (total, d0, index),
        details={"total": total, "identity_component": d0, "support_index": index})
