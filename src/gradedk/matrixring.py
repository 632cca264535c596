"""Shifted graded matrix rings M_n(R)(d) and the classification of shifts.

Degree conventions (abelian groups written additively):
  * the ij-entry of the lam-component lies in R_{delta_i + lam - delta_j};
  * a matrix with a single entry of degree eps at (i, j) is homogeneous of
    degree -delta_i + eps + delta_j;
  * the GL_{n x m}(R)[d][a] pattern has ij-entry in R_{-delta_i + alpha_j}.
A conformance test pins these against the lam = 0 layout of the Laurent
matrix example.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import Algebra, try_invert, ENUMERATION_BUDGET
from .graded import (GradedAlgebra, TwistedGroupAlgebra, validate_grading,
                     support_subgroup as algebra_support_subgroup)
from .groups import SubgroupSpec, coset_label
from .verdict import (VerdictReport, TRUE, FALSE, UNDECIDED,
                      EXHAUSTIVE, CONSTRUCTIVE, SAMPLED)

CENTRE_WINDOW = 2  # longest generator word in the degrees central_scalar_check visits


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
        for d in self.shift:
            if d.group is not self.group and d.group != self.group:
                raise ValueError("shift entries must live in the base grade group")
        self.lazy = isinstance(base, TwistedGroupAlgebra)
        self._materialized = None

    # -- degree bookkeeping -------------------------------------------

    def entry_degree(self, i, j, lam):
        """Degree required of the ij-entry of the lam-component."""
        return self.shift[i] * lam * self.shift[j].inverse()

    def element_degree(self, i, j, eps):
        """Degree of the matrix with a single degree-eps entry at (i, j)."""
        return self.shift[i].inverse() * eps * self.shift[j]

    def support_subgroup(self):
        gens = list(_base_support(self.base).generators)
        for i in range(self.n):
            for j in range(self.n):
                g = self.shift[i].inverse() * self.shift[j]
                if not g.is_identity():
                    gens.append(g)
        return SubgroupSpec(self.group, gens)

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

    def identity_component(self):
        """A_e as a plain Algebra over the base field; lazy base only."""
        monomials = self.component_monomials(self.group.identity)
        index = {m: t for t, m in enumerate(monomials)}
        labels = ["E%d%d[%r]" % (i + 1, j + 1, g) for (i, j, g) in monomials]
        field = self.base.field
        products = {}
        for a, m1 in enumerate(monomials):
            for b, m2 in enumerate(monomials):
                res = self.monomial_product(m1, m2)
                if res is None:
                    continue
                m3, c = res
                products[(a, b)] = {index[m3]: c}
        unit = [field.zero] * len(monomials)
        for t, (i, j, g) in enumerate(monomials):
            if i == j and g.is_identity():
                unit[t] = field.one
        return Algebra(field, labels, products, unit=unit)

    # -- materialized view --------------------------------------------

    @property
    def materialized(self):
        """The full GradedAlgebra on the basis {E_ij b_t}; finite base only."""
        if self.lazy:
            raise ValueError("infinite base components cannot be materialized")
        if self._materialized is not None:
            return self._materialized
        base = self.base
        nb = base.dim
        n = self.n
        field = base.field

        def idx(i, j, t):
            return (i * n + j) * nb + t

        labels = []
        degrees = []
        for i in range(n):
            for j in range(n):
                for t in range(nb):
                    labels.append("E%d%d*%s" % (i + 1, j + 1, base.algebra.labels[t]))
                    degrees.append(self.element_degree(i, j, base.degrees[t]))
        products = {}
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    for (t1, t2), terms in base.algebra.products.items():
                        products[(idx(i, j, t1), idx(j, l, t2))] = {
                            idx(i, l, k): c for k, c in terms.items()}
        unit = [field.zero] * (n * n * nb)
        for i in range(n):
            for t in range(nb):
                unit[idx(i, i, t)] = base.algebra.unit_coords[t]
        alg = Algebra(field, labels, products, unit=unit)
        out = GradedAlgebra(alg, self.group, degrees)
        v = validate_grading(out)
        if not v:
            raise ValueError("shifted matrix grading closure failed: %r"
                             % (v.counterexample,))
        self._materialized = out
        return out

    def __repr__(self):
        return "M_%d(%r)%r" % (self.n, self.base, tuple(self.shift))


def _base_support(base):
    if isinstance(base, TwistedGroupAlgebra):
        return base.support
    return algebra_support_subgroup(base)


def identity_component(m):
    """The identity-degree subalgebra of M_n(R)(d) or of a GradedAlgebra."""
    if isinstance(m, ShiftedMatrixAlgebra):
        if m.lazy:
            return m.identity_component()
        m = m.materialized
    g = m
    idx = g.component_indices(g.group.identity)
    pos = {i: t for t, i in enumerate(idx)}
    labels = [g.algebra.labels[i] for i in idx]
    products = {}
    for (i, j), terms in g.algebra.products.items():
        if i in pos and j in pos:
            products[(pos[i], pos[j])] = {pos[k]: c for k, c in terms.items()}
    unit = [g.algebra.unit_coords[i] for i in idx]
    return Algebra(g.field, labels, products, unit=unit)


def is_strongly_graded_matrix(m):
    """Strong gradedness of a lazy M_n(R)(d): for each support-subgroup
    generator lam, express I_n in the span of A_lam * A_{-lam} basis products."""
    if not m.lazy:
        raise ValueError("materialized algebras use graded.is_strongly_graded")
    field = m.base.field
    certificates = {}
    for lam in m.support_subgroup().generators:
        for d in (lam, lam.inverse()):
            if d in certificates:
                continue
            cert = _identity_in_product(m, d)
            if cert is None:
                return VerdictReport("strongly-graded", FALSE, EXHAUSTIVE,
                                     counterexample=("degree", d))
            certificates[d] = cert
    return VerdictReport("strongly-graded", TRUE, CONSTRUCTIVE,
                         witness=certificates)


def _identity_in_product(m, lam):
    left = m.component_monomials(lam)
    right = m.component_monomials(lam.inverse())
    if not left or not right:
        return None
    e = m.group.identity
    zero_monos = m.component_monomials(e)
    index = {mono: t for t, mono in enumerate(zero_monos)}
    field = m.base.field
    pairs = []
    cols = []
    for m1 in left:
        for m2 in right:
            res = m.monomial_product(m1, m2)
            if res is None:
                continue
            m3, c = res
            col = [field.zero] * len(zero_monos)
            col[index[m3]] = c
            pairs.append((m1, m2))
            cols.append(col)
    target = [field.zero] * len(zero_monos)
    for t, (i, j, g) in enumerate(zero_monos):
        if i == j and g.is_identity():
            target[t] = field.one
    if not pairs:
        return None
    mat = [[cols[c][r] for c in range(len(cols))] for r in range(len(zero_monos))]
    sol = linalg.solve(mat, target)
    if sol is None:
        return None
    return [(pairs[c], sol[c]) for c in range(len(pairs)) if sol[c]]


def is_graded_simple_matrix(m):
    """Graded simplicity of M_n(R)(d) over a twisted-group-algebra graded
    field: any nonzero homogeneous element is reduced to the identity through
    matrix units and homogeneous monomial inverses; the reduction steps are
    verified on every component monomial of the generating degrees."""
    if not m.lazy:
        raise ValueError("materialized algebras use graded.is_graded_simple")
    # verify the reduction on each monomial of the generator components
    degrees = [m.group.identity]
    for g in m.support_subgroup().generators:
        degrees += [g, g.inverse()]
    for lam in degrees:
        for (i, j, gamma) in m.component_monomials(lam):
            # left-multiply by E_ii u_{-gamma}: lands in a zero-degree entry
            c, g0 = m.base.monomial_product(m.base.field.one, gamma.inverse(),
                                            m.base.field.one, gamma)
            if not c or not g0.is_identity():
                return VerdictReport("graded-simple", UNDECIDED, CONSTRUCTIVE,
                                     details={"monomial": (i, j, gamma)})
    return VerdictReport("graded-simple", TRUE, CONSTRUCTIVE,
                         witness="matrix-unit reduction with monomial inverses")


def central_scalar_check(m):
    """Check that the centre of a lazy M_n(R)(d) is exactly R (scalar
    matrices with entries in the base graded field), on a finite window of
    components around the identity degree."""
    if not m.lazy:
        raise ValueError("lazy base expected")
    field = m.base.field
    gens = m.support_subgroup().generators
    # degrees to inspect: words of length <= CENTRE_WINDOW in the generators
    seen = {m.group.identity}
    frontier = [m.group.identity]
    for _ in range(CENTRE_WINDOW):
        nxt = []
        for x in frontier:
            for g in gens:
                for y in (x * g, x * g.inverse()):
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
    # generators of the algebra to centralize against: monomials of the
    # identity and generator components
    mult_degrees = [m.group.identity]
    for g in gens:
        mult_degrees += [g, g.inverse()]
    gen_monos = []
    for lam in mult_degrees:
        gen_monos.extend(m.component_monomials(lam))
    for lam in sorted(seen, key=lambda d: d.coords):
        monos = m.component_monomials(lam)
        if not monos:
            continue
        rows = []
        for gm in gen_monos:
            # commutator [x, gm] = 0 as linear constraints on x in A_lam
            prods = {}
            for t, mono in enumerate(monos):
                res = m.monomial_product(mono, gm)
                if res is not None:
                    prods.setdefault(res[0], {})[t] = res[1]
                res = m.monomial_product(gm, mono)
                if res is not None:
                    d = prods.setdefault(res[0], {})
                    d[t] = d.get(t, field.zero) - res[1]
            for target, coeffs in prods.items():
                rows.append([coeffs.get(t, field.zero) for t in range(len(monos))])
        sol = linalg.nullspace(rows, field) if rows else []
        dim = len(sol)
        in_support = m.base.has_component(lam)
        want = 1 if in_support else 0
        if dim != want:
            return VerdictReport("centre-is-base", FALSE, SAMPLED,
                                 counterexample=("component", lam, dim))
        if want == 1:
            # the central line must be the scalar matrix u_lam * I
            vec = sol[0]
            scalar = {mono: c for mono, c in zip(monos, vec)}
            diag = [scalar.get((i, i, m.entry_degree(i, i, lam)), field.zero)
                    for i in range(m.n)]
            if any(not d for d in diag):
                return VerdictReport("centre-is-base", FALSE, SAMPLED,
                                     counterexample=("nonscalar-centre", lam))
    return VerdictReport("centre-is-base", TRUE, SAMPLED,
                         details={"window": CENTRE_WINDOW})


# -- GL_{n x m}(R)[d][a] ----------------------------------------------


def _pattern_inverse(base_graded, r, d, a):
    """Two-sided inverse of r (entries AlgebraElements of a materialized
    base) within the transposed pattern, or None. Linear in the unknown t."""
    alg = base_graded.algebra
    field = alg.field
    n, m = len(d), len(a)
    # unknowns: coordinates of t[j][i] restricted to component a_j^-1 d_i
    slots = []
    for j in range(m):
        for i in range(n):
            deg = a[j].inverse() * d[i]
            for k in base_graded.component_indices(deg):
                slots.append((j, i, k))
    cols = {s: c for c, s in enumerate(slots)}
    rows = []
    rhs = []

    def add_eq(prod_terms, target):
        # prod_terms: (slot, AlgebraElement multiplier, side); one row per coordinate
        block = [[field.zero] * len(slots) for _ in range(alg.dim)]
        for (slot, mult, side) in prod_terms:
            b = alg.basis_element(slot[2])
            z = (mult * b) if side == "left" else (b * mult)
            for coord, x in enumerate(z.coords):
                if x:
                    block[coord][cols[slot]] += x
        rows.extend(block)
        rhs.extend(target.coords)

    one, zero = alg.one, alg.zero
    # r t = I_n : sum_j r[i][j] t[j][l] = delta_il
    for i in range(n):
        for l in range(n):
            terms = [((j, l, k), r[i][j], "left")
                     for j in range(m)
                     for k in base_graded.component_indices(a[j].inverse() * d[l])]
            add_eq(terms, one if i == l else zero)
    # t r = I_m : sum_i t[j][i] r[i][l] = delta_jl
    for j in range(m):
        for l in range(m):
            terms = [((j, i, k), r[i][l], "right")
                     for i in range(n)
                     for k in base_graded.component_indices(a[j].inverse() * d[i])]
            add_eq(terms, one if j == l else zero)
    sol = linalg.solve(rows, rhs) if slots else None
    if sol is None:
        return None
    t = [[alg.zero for _ in range(n)] for _ in range(m)]
    for s, c in zip(slots, sol):
        if c:
            j, i, k = s
            t[j][i] = t[j][i] + alg.basis_element(k).scale(c)
    return t


def solve_shift_matrix(base_graded, d, a):
    """Search GL_{n x m}(R)[d][a]; a witness certifies R^n(d) ~gr R^m(a).

    Strategy: permutation matrices of invertible homogeneous entries first,
    then exhaustive pattern enumeration over finite fields within budget.
    """
    d = tuple(d)
    a = tuple(a)
    n, m = len(d), len(a)
    alg = base_graded.algebra
    field = alg.field
    if n != m:
        return VerdictReport("shift-matrix", FALSE, CONSTRUCTIVE,
                             counterexample=("rank-mismatch", n, m))
    # provably empty pattern rows/columns
    for i in range(n):
        if all(not base_graded.component_indices(d[i].inverse() * a[j])
               for j in range(m)):
            return VerdictReport("shift-matrix", FALSE, EXHAUSTIVE,
                                 counterexample=("zero-row", i))
    # structured search: match each i to a j with an invertible homogeneous
    # element of degree d_i^-1 a_j
    units = {}
    for i in range(n):
        for j in range(m):
            deg = d[i].inverse() * a[j]
            for k in base_graded.component_indices(deg):
                b = alg.basis_element(k)
                if try_invert(b) is not None:
                    units[(i, j)] = b
                    break
            else:
                w = base_graded.unit_witnesses.get(deg)
                if w is not None and try_invert(w) is not None:
                    units[(i, j)] = w
    match = _perfect_matching(n, set(units))
    if match is not None:
        r = [[alg.zero for _ in range(m)] for _ in range(n)]
        for i, j in enumerate(match):
            r[i][j] = units[(i, j)]
        t = _pattern_inverse(base_graded, r, d, a)
        if t is not None:
            return VerdictReport("shift-matrix", TRUE, CONSTRUCTIVE,
                                 witness=(r, t))
    # exhaustive enumeration over finite fields
    if field.kind == "prime-field":
        slots = []
        for i in range(n):
            for j in range(m):
                for k in base_graded.component_indices(d[i].inverse() * a[j]):
                    slots.append((i, j, k))
        if field.order ** len(slots) <= ENUMERATION_BUDGET:
            # c r is invertible exactly when r is: one pattern per line
            for values in field.line_representatives(len(slots)):
                r = [[alg.zero for _ in range(m)] for _ in range(n)]
                for (i, j, k), c in zip(slots, values):
                    if c:
                        r[i][j] = r[i][j] + alg.basis_element(k).scale(c)
                t = _pattern_inverse(base_graded, r, d, a)
                if t is not None:
                    return VerdictReport("shift-matrix", TRUE, EXHAUSTIVE,
                                         witness=(r, t))
            return VerdictReport("shift-matrix", FALSE, EXHAUSTIVE,
                                 counterexample="no pattern matrix is invertible")
        return VerdictReport("shift-matrix", UNDECIDED, EXHAUSTIVE,
                             details={"reason": "budget"})
    return VerdictReport("shift-matrix", UNDECIDED, SAMPLED,
                         details={"reason": "no structured witness over an infinite field"})


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

    Entries are reduced to Gamma_D-cosets; the common translation sigma is
    absorbed by minimizing the sorted label multiset over translations by the
    negatives of the entries present. Over an fg-abelian group a label is
    linear, label(s - b) = (U s - U b) mod d for the Smith form (d, U) of
    Gamma_D, so each entry is transformed once.
    """
    if not group.is_abelian():
        raise ValueError("classification requires an abelian grade group")
    shift = list(shift)
    if group.kind == "fg-abelian":
        factors, u = gamma_d._smith_form
        ys = [[sum(a * c for a, c in zip(row, s.coords)) for row in u] for s in shift]
        forms = (sorted(tuple((a - b) % d if d else a - b
                              for a, b, d in zip(y, base, factors)) for y in ys)
                 for base in ys)
    else:
        forms = (sorted(coset_label(group, gamma_d, s * base.inverse()) for s in shift)
                 for base in shift)
    return ShiftCanonicalForm(min((tuple(f) for f in forms), default=None))


def shifted_iso_decision(group, gamma_d, lam, gam):
    """Graded-isomorphism decision for M_n(D)(lam) vs M_n(D)(gam) over a
    graded division ring with unit-degree subgroup gamma_d; on success the
    witness is (pi, tau, sigma) with gam[i] = tau[i] * lam[pi[i]] * sigma."""
    lam = list(lam)
    gam = list(gam)
    if len(lam) != len(gam):
        raise ValueError("shift vectors must have equal length (n = n')")
    cf_l = canonical_shift(group, gamma_d, lam)
    cf_g = canonical_shift(group, gamma_d, gam)
    if cf_l != cf_g:
        from collections import Counter
        diff = (Counter(cf_g.labels) - Counter(cf_l.labels)) + \
               (Counter(cf_l.labels) - Counter(cf_g.labels))
        return VerdictReport("shifted-matrix-isomorphic", FALSE, EXHAUSTIVE,
                             counterexample=("coset-multiset", dict(diff)),
                             details={"left": cf_l, "right": cf_g})
    # reconstruct (pi, tau, sigma): try sigma candidates gam[0] - lam[j]. For
    # a fixed sigma, tau[i] = gam[i] sigma^-1 lam[j]^-1 lies in Gamma_D iff
    # gam[i] sigma^-1 and lam[j] share a coset, so lam is bucketed by label.
    buckets = {}
    for j, l in enumerate(lam):
        buckets.setdefault(coset_label(group, gamma_d, l), []).append(j)
    for j0 in range(len(lam)):
        sigma = gam[0] * lam[j0].inverse()
        sigma_inv = sigma.inverse()
        unused = {label: iter(js) for label, js in buckets.items()}
        pi = []
        for g in gam:
            j = next(unused.get(coset_label(group, gamma_d, g * sigma_inv), iter(())), None)
            if j is None:
                break
            pi.append(j)
        else:
            tau = [g * sigma_inv * lam[j].inverse() for g, j in zip(gam, pi)]
            return VerdictReport("shifted-matrix-isomorphic", TRUE, CONSTRUCTIVE,
                                 witness={"pi": pi, "tau": tau, "sigma": sigma})
    raise AssertionError("canonical forms equal but no witness found")


def is_good_grading(g, matrix_units=None):
    """If all matrix units are homogeneous, the shift vector (g_1, ..., g_n)
    with deg(e_ij) = g_i^-1 g_j; otherwise None.

    matrix_units: n x n nested list of AlgebraElements; defaults to the basis
    in row-major order when the algebra dimension is a perfect square.
    """
    alg = g.algebra
    if matrix_units is None:
        n = round(len(alg.labels) ** 0.5)
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
