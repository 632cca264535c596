"""Gradings on algebras and the structural predicates built on them.

A GradedAlgebra is always presented on a homogeneous basis, so homogeneous
components are coordinate slices. Infinite-support graded fields (Laurent-type
twisted group algebras) get a lazy representation with one-dimensional
components.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .algebra import (Algebra, AlgebraElement, Subspace, center,
                      try_invert, two_sided_ideal_closure,
                      ENUMERATION_BUDGET)
from .groups import SubgroupSpec, coset_index
from .verdict import (VerdictReport, TRUE, FALSE, UNDECIDED,
                      EXHAUSTIVE, CONSTRUCTIVE, SAMPLED, combine)

SAMPLES = 32  # random elements per component tried by the sampled branches


@dataclass
class HomogeneousElement:
    element: AlgebraElement
    degree: object  # GroupElement


class GradedAlgebra:
    """An Algebra with a degree assignment on its (homogeneous) basis."""

    def __init__(self, algebra, group, degrees, unit_witnesses=None):
        self.algebra = algebra
        self.group = group
        self.degrees = list(degrees)
        if len(self.degrees) != algebra.dim:
            raise ValueError("one degree per basis vector required")
        for d in self.degrees:
            if d.group is not group and d.group != group:
                raise ValueError("degree from a different grade group")
        # invertible homogeneous elements attached by constructors, degree -> element
        self.unit_witnesses = dict(unit_witnesses or {})

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

    def component_indices(self, degree):
        return [i for i, d in enumerate(self.degrees) if d == degree]

    def homogeneous_components(self, x):
        """Decompose an element into its nonzero homogeneous components."""
        out = {}
        for i, c in enumerate(x.coords):
            if c:
                d = self.degrees[i]
                if d not in out:
                    out[d] = [self.field.zero] * self.dim
                out[d][i] = c
        return {d: self.algebra.element(v) for d, v in out.items()}

    def is_homogeneous(self, x):
        return len(self.homogeneous_components(x)) <= 1

    def degree_of(self, x):
        comps = self.homogeneous_components(x)
        if len(comps) != 1:
            raise ValueError("element is not homogeneous (or is zero)")
        return next(iter(comps))

    def component_elements(self, degree):
        """One nonzero element per line of a component, in the order of
        `FieldSpec.line_representatives`; prime fields only."""
        idx = self.component_indices(degree)
        for values in self.field.line_representatives(len(idx)):
            full = [self.field.zero] * self.dim
            for i, c in zip(idx, values):
                full[i] = c
            yield AlgebraElement(self.algebra, full)

    def nonzero_homogeneous_elements(self):
        for d in support(self):
            for x in self.component_elements(d):
                yield d, x


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
            lhs = self.cocycle(a, b) * self.cocycle(a * b, c)
            rhs = self.cocycle(b, c) * self.cocycle(a, b * c)
            if lhs != rhs:
                raise ValueError("2-cocycle identity fails on (%r, %r, %r)" % (a, b, c))

    def has_component(self, degree):
        return self.support.contains(degree)

    def monomial_product(self, cg, g, ch, h):
        """(cg*u_g)(ch*u_h) as a (coefficient, degree) pair."""
        return cg * ch * self.cocycle(g, h), g * h

    def monomial_inverse(self, c, g):
        if not c:
            raise ZeroDivisionError("zero homogeneous element")
        t = self.cocycle(g, g.inverse())
        return self.field.one / (c * t), g.inverse()

    def is_commutative(self):
        gens = list(self.support.generators)
        for a in gens:
            for b in gens:
                if self.cocycle(a, b) != self.cocycle(b, a):
                    return False
        return True


# -- predicates -------------------------------------------------------


def validate_grading(g):
    """Grading closure on structure constants plus the unit-degree rule."""
    if isinstance(g, TwistedGroupAlgebra):
        return VerdictReport("valid-grading", TRUE, CONSTRUCTIVE)
    alg = g.algebra
    for (i, j), terms in alg.products.items():
        want = g.degrees[i] * g.degrees[j]
        for k in terms:
            if g.degrees[k] != want:
                return VerdictReport("valid-grading", FALSE, EXHAUSTIVE,
                                     counterexample=("closure", i, j, k))
    e = g.group.identity
    for i, c in enumerate(alg.unit_coords):
        if c and g.degrees[i] != e:
            return VerdictReport("valid-grading", FALSE, EXHAUSTIVE,
                                 counterexample=("unit-degree", i))
    return VerdictReport("valid-grading", TRUE, EXHAUSTIVE)


def support(g):
    """The set of degrees with a nonzero component (SubgroupSpec for lazy
    graded fields)."""
    if isinstance(g, TwistedGroupAlgebra):
        return g.support
    return {d for d in g.degrees}


def support_subgroup(g):
    if isinstance(g, TwistedGroupAlgebra):
        return g.support
    return SubgroupSpec(g.group, sorted(support(g), key=lambda d: d.coords))


def _strongly_graded_at(g, gamma):
    """Certificate that 1 lies in R_gamma * R_{gamma^-1}, or None."""
    alg = g.algebra
    left = g.component_indices(gamma)
    right = g.component_indices(gamma.inverse())
    if not left or not right:
        return None
    pairs = []
    cols = []
    for i in left:
        for j in right:
            prod = alg.basis_element(i) * alg.basis_element(j)
            pairs.append((i, j))
            cols.append(list(prod.coords))
    mat = [[cols[c][r] for c in range(len(cols))] for r in range(alg.dim)]
    sol = linalg.solve(mat, list(alg.unit_coords))
    if sol is None:
        return None
    return [(pairs[c], sol[c]) for c in range(len(pairs)) if sol[c]]


def is_strongly_graded(g):
    """1 in R_gamma R_{gamma^-1} for each support-subgroup generator; the
    generator reduction is valid because the component products compose."""
    if isinstance(g, TwistedGroupAlgebra):
        # u_g has homogeneous inverse, so 1 is in R_g R_{g^-1} for every g
        return VerdictReport("strongly-graded", TRUE, CONSTRUCTIVE,
                             witness="homogeneous units u_g")
    certificates = {}
    for gamma in support_subgroup(g).generators:
        for d in (gamma, gamma.inverse()):
            if d in certificates:
                continue
            cert = _strongly_graded_at(g, d)
            if cert is None:
                return VerdictReport("strongly-graded", FALSE, EXHAUSTIVE,
                                     counterexample=("degree", d))
            certificates[d] = cert
    return VerdictReport("strongly-graded", TRUE, CONSTRUCTIVE, witness=certificates)


def _invertible_in_component(g, degree, rng=None):
    """(element, strategy) with the element invertible homogeneous of the
    given degree, or (None, strategy)."""
    alg = g.algebra
    idx = g.component_indices(degree)
    if not idx:
        return None, EXHAUSTIVE
    w = g.unit_witnesses.get(degree)
    if w is not None and try_invert(w) is not None:
        return w, CONSTRUCTIVE
    if (alg.field.kind == "prime-field"
            and alg.field.order ** len(idx) <= ENUMERATION_BUDGET):
        for x in g.component_elements(degree):
            if try_invert(x) is not None:
                return x, EXHAUSTIVE
        return None, EXHAUSTIVE
    # infinite field: basis directions then seeded samples
    for i in idx:
        b = alg.basis_element(i)
        if try_invert(b) is not None:
            return b, SAMPLED
    if rng is not None:
        for _ in range(SAMPLES):
            coords = [alg.field.zero] * alg.dim
            for i in idx:
                coords[i] = alg.field.random_scalar(rng)
            x = alg.element(coords)
            if try_invert(x) is not None:
                return x, SAMPLED
    return None, SAMPLED


def is_crossed_product(g, rng=None):
    """Invertible homogeneous element in every component of the support
    subgroup; checked on generators since homogeneous-unit degrees form a
    group."""
    if isinstance(g, TwistedGroupAlgebra):
        return VerdictReport("crossed-product", TRUE, CONSTRUCTIVE,
                             witness="monomials u_g")
    witnesses = {}
    strategies = []
    gens = support_subgroup(g).generators
    if not gens:  # support {e}
        gens = [g.group.identity]
    for gamma in gens:
        x, strat = _invertible_in_component(g, gamma, rng=rng)
        if x is None:
            if strat == EXHAUSTIVE:
                return VerdictReport("crossed-product", FALSE, EXHAUSTIVE,
                                     counterexample=("degree", gamma))
            return VerdictReport("crossed-product", UNDECIDED, strat,
                                 details={"degree": gamma})
        witnesses[gamma] = x
        strategies.append(strat)
    return VerdictReport("crossed-product", TRUE, combine(*strategies),
                         witness=witnesses)


def is_graded_division(g, rng=None):
    """Every nonzero homogeneous element invertible.

    One-dimensional components with invertible basis vectors give an exact
    constructive certificate over any field; finite fields fall back to
    exhaustive component scans, infinite fields to sampling.
    """
    if isinstance(g, TwistedGroupAlgebra):
        return VerdictReport("graded-division", TRUE, CONSTRUCTIVE,
                             witness="closed-form monomial inverses")
    alg = g.algebra
    supp = support(g)
    if all(len(g.component_indices(d)) == 1 for d in supp):
        for d in supp:
            b = alg.basis_element(g.component_indices(d)[0])
            if try_invert(b) is None:
                return VerdictReport("graded-division", FALSE, CONSTRUCTIVE,
                                     counterexample=("noninvertible", b))
        return VerdictReport("graded-division", TRUE, CONSTRUCTIVE,
                             witness="1-dimensional components with invertible generators")
    if alg.field.kind == "prime-field":
        total = sum(alg.field.order ** len(g.component_indices(d)) for d in supp)
        if total <= ENUMERATION_BUDGET:
            for d, x in g.nonzero_homogeneous_elements():
                if try_invert(x) is None:
                    return VerdictReport("graded-division", FALSE, EXHAUSTIVE,
                                         counterexample=("noninvertible", x))
            return VerdictReport("graded-division", TRUE, EXHAUSTIVE)
        return VerdictReport("graded-division", UNDECIDED, EXHAUSTIVE,
                             details={"reason": "budget"})
    # infinite field: probe basis vectors and samples; sound for "false"
    for d in supp:
        for i in g.component_indices(d):
            if try_invert(alg.basis_element(i)) is None:
                return VerdictReport("graded-division", FALSE, SAMPLED,
                                     counterexample=("noninvertible", alg.basis_element(i)))
        if rng is not None:
            for _ in range(SAMPLES):
                coords = [alg.field.zero] * alg.dim
                for i in g.component_indices(d):
                    coords[i] = alg.field.random_scalar(rng)
                x = alg.element(coords)
                if not x.is_zero() and try_invert(x) is None:
                    return VerdictReport("graded-division", FALSE, SAMPLED,
                                         counterexample=("noninvertible", x))
    return VerdictReport("graded-division", TRUE, SAMPLED)


def is_graded_simple(g, rng=None):
    """Only homogeneous two-sided ideals are 0 and R; homogeneous generators
    suffice for homogeneous ideals."""
    alg = g.algebra
    full = alg.full_subspace()
    if alg.field.kind == "prime-field":
        total = sum(alg.field.order ** len(g.component_indices(d)) for d in support(g))
        if total <= ENUMERATION_BUDGET:
            for d, x in g.nonzero_homogeneous_elements():
                if two_sided_ideal_closure(alg, [x]) != full:
                    return VerdictReport("graded-simple", FALSE, EXHAUSTIVE,
                                         counterexample=("proper-ideal-generator", x))
            return VerdictReport("graded-simple", TRUE, EXHAUSTIVE)
        return VerdictReport("graded-simple", UNDECIDED, EXHAUSTIVE,
                             details={"reason": "budget"})
    division = is_graded_division(g, rng=rng)
    if division.verdict == TRUE and division.strategy in (CONSTRUCTIVE, EXHAUSTIVE):
        return VerdictReport("graded-simple", TRUE, CONSTRUCTIVE,
                             witness="graded division ring")
    candidates = []
    for d in support(g):
        for i in g.component_indices(d):
            candidates.append(alg.basis_element(i))
        if rng is not None:
            for _ in range(SAMPLES):
                coords = [alg.field.zero] * alg.dim
                for i in g.component_indices(d):
                    coords[i] = alg.field.random_scalar(rng)
                x = alg.element(coords)
                if not x.is_zero():
                    candidates.append(x)
    for x in candidates:
        if two_sided_ideal_closure(alg, [x]) != full:
            return VerdictReport("graded-simple", FALSE, SAMPLED,
                                 counterexample=("proper-ideal-generator", x))
    return VerdictReport("graded-simple", TRUE, SAMPLED)


@dataclass
class GradedCenterResult:
    subspace: Subspace
    is_graded: bool
    witness: object = None  # central element whose components are not central


def graded_center(g):
    """Z(A) plus whether it decomposes into homogeneous pieces."""
    alg = g.algebra
    z = center(alg)
    for row in z.rows:
        x = alg.element(row)
        for d, comp in g.homogeneous_components(x).items():
            if not z.contains(comp):
                return GradedCenterResult(z, False, x)
    return GradedCenterResult(z, True)


def graded_module_basis(g, generators):
    """Homogeneous basis and dimension of the span of homogeneous generators,
    viewed as a module over the (trivially graded) base field.

    Elimination proceeds per degree; pivots are nonzero base-field scalars,
    hence invertible.
    """
    by_degree = {}
    for h in generators:
        if h.element.is_zero():
            continue
        by_degree.setdefault(h.degree, []).append(list(h.element.coords))
    basis = []
    for d in sorted(by_degree, key=lambda e: e.coords):
        reduced, _ = linalg.rref(by_degree[d])
        for row in reduced:
            basis.append(HomogeneousElement(g.algebra.element(row), d))
    return basis, len(basis)


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
    out = GradedAlgebra(alg, a.group, degrees)
    v = validate_grading(out)
    if not v:
        raise ValueError("tensor grading closure failed: %r" % (v.counterexample,))
    return out


def opposite(a):
    """The opposite graded algebra: transposed structure constants, same
    degrees."""
    products = {}
    for (i, j), terms in a.algebra.products.items():
        products[(j, i)] = dict(terms)
    alg = Algebra(a.field, list(a.algebra.labels), products, unit=list(a.algebra.unit_coords))
    return GradedAlgebra(alg, a.group, list(a.degrees), unit_witnesses=a.unit_witnesses)


def trivially_graded(algebra, group):
    """The given algebra with every basis vector in degree e."""
    return GradedAlgebra(algebra, group, [group.identity] * algebra.dim)


def dimension_formula_check(d, gamma_f=None):
    """[D:F] = [D_0:F_0] |Gamma_D : Gamma_F| for F the base field (trivially
    graded, so F_0 = F and Gamma_F is trivial unless supplied)."""
    total = d.dim
    d0 = len(d.component_indices(d.group.identity))
    supp_sub = support_subgroup(d)
    if gamma_f is None:
        gamma_f = SubgroupSpec(d.group, [])
    # index |Gamma_D : Gamma_F| inside the subgroup generated by the support
    if d.group.is_finite():
        index = supp_sub.order // gamma_f.order
    else:
        ambient_index_f = coset_index(d.group, gamma_f)
        ambient_index_d = coset_index(d.group, supp_sub)
        if ambient_index_f == "infinite" and ambient_index_d == "infinite":
            return VerdictReport("dimension-formula", TRUE, CONSTRUCTIVE,
                                 details={"index": "consistent-infinite"})
        index = ambient_index_f // ambient_index_d
    ok = total == d0 * index
    return VerdictReport(
        "dimension-formula", TRUE if ok else FALSE, EXHAUSTIVE,
        counterexample=None if ok else (total, d0, index),
        details={"total": total, "identity_component": d0, "support_index": index})

