"""Reference checks for the shift decisions of `gradedk.matrixring`.

For the graded-isomorphism decision R^n(d) ~gr R^n(a) of
`solve_shift_matrix`: the exhaustive GF(p) pattern search it replaced, kept
here as the oracle, and re-checks of its (r, t) witnesses and of its
top-dimension certificates. For the classification of shift vectors over a
graded division ring: the direct canonical form and witness search that
`canonical_shift` and `shifted_iso_decision` replaced, which label every
translate of every entry with `coset_label`; the second pass that built
`shifted_iso_decision`'s witness before it paired entries by the translates
of the canonical forms; and a replay of their (pi, tau, sigma) witnesses."""

import itertools
from collections import Counter

from gradedk import linalg
from gradedk.algebra import center, integer_regular_rows, jacobson_radical
from gradedk.groups import coset_label
from gradedk.wedderburn import central_primitive_idempotents, quotient
from gradedk.matrixring import ShiftCanonicalForm, ShiftedMatrixAlgebra, identity_component
from gradedk.verdict import CONSTRUCTIVE, EXHAUSTIVE, FALSE, TRUE, VerdictReport

import scalarlinalg


def pattern_inverse(g, r, d, a):
    """Two-sided inverse t of r (entries in the materialized base g) with
    t_ji in R_(a_j^-1 d_i), or None. Linear in the unknown t."""
    alg = g.algebra
    field = alg.field
    n, m = len(d), len(a)
    slots = [(j, i, k) for j in range(m) for i in range(n)
             for k in g.component_indices(a[j].inverse() * d[i])]
    if not slots:
        return None
    cols = {s: c for c, s in enumerate(slots)}
    rows, rhs = [], []

    def add_eq(terms, target):
        block = [[field.zero] * len(slots) for _ in range(alg.dim)]
        for slot, mult, side in terms:
            b = alg.basis_element(slot[2])
            z = mult * b if side == "left" else b * mult
            for coord, x in enumerate(z.coords):
                block[coord][cols[slot]] += x
        rows.extend(block)
        rhs.extend(target.coords)

    for i in range(n):  # r t = I_n
        for l in range(n):
            add_eq([((j, l, k), r[i][j], "left") for j in range(m)
                    for k in g.component_indices(a[j].inverse() * d[l])],
                   alg.one if i == l else alg.zero)
    for j in range(m):  # t r = I_m
        for l in range(m):
            add_eq([((j, i, k), r[i][l], "right") for i in range(n)
                    for k in g.component_indices(a[j].inverse() * d[i])],
                   alg.one if j == l else alg.zero)
    sol = scalarlinalg.solve([row + [b] for row, b in zip(rows, rhs)], len(slots), field)
    if sol is None:
        return None
    t = [[alg.zero] * n for _ in range(m)]
    for (j, i, k), c in zip(slots, sol):
        t[j][i] = t[j][i] + alg.basis_element(k).scale(c)
    return t


def exhaustive_shift_search(g, d, a):
    """Whether GL_n(R)[d][a] is nonempty over GF(p): every r with r_ij in
    R_(d_i^-1 a_j), one per line (first nonzero coordinate 1, since c r is
    invertible exactly when r is), is tried with `pattern_inverse`."""
    alg = g.algebra
    field = alg.field
    n = len(d)
    slots = [(i, j, k) for i in range(n) for j in range(n)
             for k in g.component_indices(d[i].inverse() * a[j])]
    for values in itertools.product(field.elements(), repeat=len(slots)):
        if next((c for c in values if c), None) != field.one:
            continue
        r = [[alg.zero] * n for _ in range(n)]
        for (i, j, k), c in zip(slots, values):
            r[i][j] = r[i][j] + alg.basis_element(k).scale(c)
        if pattern_inverse(g, r, d, a) is not None:
            return True
    return False


def assert_shift_witness(g, d, a, r, t):
    """r_ij in R_(d_i^-1 a_j), t_ji in R_(a_j^-1 d_i), and r t = t r = I."""
    alg = g.algebra
    n = len(d)
    for i in range(n):
        for j in range(n):
            for x, deg in ((r[i][j], d[i].inverse() * a[j]), (t[j][i], a[j].inverse() * d[i])):
                assert x.is_zero() or g.degree_of(x) == deg
    for u, w in ((r, t), (t, r)):
        for i in range(n):
            for j in range(n):
                s = alg.zero
                for k in range(n):
                    s = s + u[i][k] * w[k][j]
                assert s == (alg.one if i == j else alg.zero)


def recompute_top_dimensions(g, cover):
    """({s: v(s)}, [f_b]) recomputed from a covering algebra built here as
    the degree-e restriction of the materialized M_|S|(R)(s_1^-1, ...): its
    (i, j) entries lie in R_(s_i^-1 s_j) and eps_i is its i-th diagonal
    unit."""
    e_alg = identity_component(ShiftedMatrixAlgebra(g, [s.inverse() for s in cover]).materialized)
    radical = jacobson_radical(e_alg)
    top = quotient(e_alg, radical)
    keep = [c for c in range(e_alg.dim) if c not in set(radical.pivots)]

    def project(x):
        # x reduced against J's echelon, read at A/J's columns
        xs, dx = e_alg.field.to_ints(x.coords)
        r = linalg.reduce_row(radical.echelon, dict(enumerate(xs)), e_alg.field)
        return top.element(e_alg.field.from_ints([r.get(c, 0) for c in keep],
                                                 radical.echelon[1] * dx))
    idems = central_primitive_idempotents(top, center(top).basis_elements())
    dims = {}
    for i, s in enumerate(cover):
        diagonal = "E%d%d*" % (i + 1, i + 1)
        eps = e_alg.element([c if label.startswith(diagonal) else 0
                             for c, label in zip(e_alg.unit_coords, e_alg.labels)])
        dims[s] = tuple(linalg.rank(integer_regular_rows(top, top.field.to_ints(
                            (project(eps) * f).coords)[0]), top.field)
                        for f in idems)
    return dims, idems


def assert_top_certificate(g, d, a, rep):
    """Recompute the v(s) of a top-test verdict of solve_shift_matrix(g, d,
    a) and check that its f_b are orthogonal central idempotents with sum 1
    and that the verdict is sum_i v(d_i) == sum_j v(a_j)."""
    assert rep.strategy == "exhaustive"
    cert = rep.witness if rep.verdict == "true" else rep.counterexample
    assert cert[0] == "top-dimensions"
    cover = cert[1]
    assert set(cover) == set(d) | set(a)
    dims, idems = recompute_top_dimensions(g, cover)
    assert rep.details["dimensions"] == dims
    top = idems[0].owner
    given = [top.element(f.coords) for f in rep.details["idempotents"]]
    assert given == idems
    basis = [top.basis_element(k) for k in range(top.dim)]
    total = top.zero
    for f in given:
        assert f * f == f and all(f * b == b * f for b in basis)
        assert all((f * h).is_zero() for h in given if h is not f)
        total = total + f
    assert total == top.one
    side = lambda degrees: tuple(map(sum, zip(*(dims[s] for s in degrees))))
    if rep.verdict == "true":
        assert cert[2] == dims and side(d) == side(a)
    else:
        assert cert[2:] == (side(d), side(a)) and side(d) != side(a)
    return dims


def reference_canonical_shift(group, gamma_d, shift):
    """The minimum over the entries b of the sorted labels of s - b, all n^2
    of them computed: over an fg-abelian group through the Smith form (d, U)
    of Gamma_D as (U s - U b) mod d, otherwise with `coset_label`."""
    if not group.is_abelian():
        raise ValueError("classification requires an abelian grade group")
    shift = list(shift)
    if group.kind == "fg-abelian":
        factors, u = gamma_d.smith_form
        ys = [[sum(a * c for a, c in zip(row, s.coords)) for row in u] for s in shift]
        forms = (sorted(tuple((a - b) % d if d else a - b
                              for a, b, d in zip(y, base, factors)) for y in ys)
                 for base in ys)
    else:
        forms = (sorted(coset_label(group, gamma_d, s * base.inverse()) for s in shift)
                 for base in shift)
    return ShiftCanonicalForm(min((tuple(f) for f in forms), default=None))


def reference_shifted_iso_decision(group, gamma_d, lam, gam):
    """Canonical forms compared, then every sigma = gam[0] lam[j0]^-1 tried
    in order of j0, matching each gam[i] greedily to the next unused j whose
    lam[j] shares the coset of gam[i] sigma^-1, each label by `coset_label`."""
    lam = list(lam)
    gam = list(gam)
    if len(lam) != len(gam):
        raise ValueError("shift vectors must have equal length (n = n')")
    cf_l = reference_canonical_shift(group, gamma_d, lam)
    cf_g = reference_canonical_shift(group, gamma_d, gam)
    if cf_l != cf_g:
        diff = (Counter(cf_g.labels) - Counter(cf_l.labels)) + \
               (Counter(cf_l.labels) - Counter(cf_g.labels))
        return VerdictReport("shifted-matrix-isomorphic", FALSE, EXHAUSTIVE,
                             counterexample=("coset-multiset", dict(diff)),
                             details={"left": cf_l, "right": cf_g})
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


def reference_shift_witness(group, gamma_d, lam, gam):
    """The (pi, tau, sigma) of `shifted_iso_decision` on shift vectors of
    equal canonical form, by its earlier second pass: sigma = c b^-1 for the
    first entries b of lam and c of gam whose translates attain the form,
    then each gam[i] sigma^-1 labelled again and matched to the next unused
    lam[j] of that label. Labels are those of `reference_canonical_shift`:
    (U x) mod d over an fg-abelian group, `coset_label` otherwise."""
    factors, u = gamma_d.smith_form if group.kind == "fg-abelian" else (None, None)

    def label(x):
        if u is None:
            return coset_label(group, gamma_d, x)
        ys = [sum(a * c for a, c in zip(row, x.coords)) for row in u]
        return tuple(y % d if d else y for y, d in zip(ys, factors))
    first_minimal = lambda shift: min(shift, key=lambda base: sorted(
        label(s * base.inverse()) for s in shift))
    sigma = first_minimal(gam) * first_minimal(lam).inverse()
    sigma_inv = sigma.inverse()
    unused = {}
    for j, x in enumerate(lam):
        unused.setdefault(label(x), []).append(j)
    unused = {x: iter(js) for x, js in unused.items()}
    pi = [next(unused[label(g * sigma_inv)]) for g in gam]
    tau = [g * sigma_inv * lam[j].inverse() for g, j in zip(gam, pi)]
    return {"pi": pi, "tau": tau, "sigma": sigma}


def assert_shift_classification_witness(gamma_d, lam, gam, witness):
    """pi is a permutation, every tau_i lies in Gamma_D, and
    gam_i = tau_i lam_pi(i) sigma for every i."""
    pi, tau, sigma = witness["pi"], witness["tau"], witness["sigma"]
    assert sorted(pi) == list(range(len(lam)))
    for i, g in enumerate(gam):
        assert gamma_d.contains(tau[i])
        assert g == tau[i] * lam[pi[i]] * sigma
