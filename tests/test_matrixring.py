import itertools
import random
from fractions import Fraction

import pytest

from gradedk import linalg
from gradedk.algebra import Algebra, try_invert
from gradedk.constructors import (construct_group_ring, construct_laurent,
                                  construct_quaternion)
from gradedk.fields import FieldSpec
from gradedk.graded import (GradedAlgebra, TwistedGroupAlgebra, trivially_graded,
                            validate_grading)
from gradedk.groups import GradeGroup, SubgroupSpec, coset_label
from gradedk.matrixring import (ShiftedMatrixAlgebra, canonical_shift,
                                central_scalar_check, covering_algebra,
                                identity_component, is_good_grading,
                                is_graded_simple_matrix,
                                is_strongly_graded_matrix,
                                shifted_iso_decision, solve_shift_matrix)
from shiftoracle import (assert_shift_classification_witness, assert_shift_witness,
                         assert_top_certificate, exhaustive_shift_search,
                         reference_canonical_shift, reference_shifted_iso_decision)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)
Z = GradeGroup.integers()


def laurent_matrix(field=Q):
    L = construct_laurent(field, step=2)
    g = L.group
    shift = [g.element((0,)), g.element((1,)), g.element((1,))]
    return ShiftedMatrixAlgebra(L, shift)


def trivially_graded_field(field, group):
    alg = Algebra(field, ["1"], {(0, 0): {0: 1}}, unit=[1])
    return trivially_graded(alg, group)


def test_entry_degree_pattern_conformance():
    # lam = 0 pattern over shift (0,1,1): [[0,-1,-1],[1,0,0],[1,0,0]]
    m = laurent_matrix()
    want = [[0, -1, -1], [1, 0, 0], [1, 0, 0]]
    for i in range(3):
        for j in range(3):
            assert m.entry_degree(i, j, Z.identity) == Z.element((want[i][j],))
    # a single entry of degree eps at (i,j) has degree -d_i + eps + d_j
    assert m.element_degree(1, 2, Z.element((4,))) == Z.element((4,))
    assert m.element_degree(0, 1, Z.element((2,))) == Z.element((3,))


def test_lazy_identity_component_dimension():
    m = laurent_matrix()
    a0 = identity_component(m)
    # only even entry-degrees survive: dim 5 = 1 + 4
    assert a0.dim == 5
    assert a0.one * a0.one == a0.one
    # associativity and the unit axiom are checked in Algebra.__init__


def replay_strong_grading(m, rep):
    """Each certificate of a true is_strongly_graded_matrix report, summed as
    sum c * (m1 m2) over its pairs, must be I_n u_e exactly."""
    field, e = m.base.field, m.group.identity
    for lam, cert in rep.witness.items():
        acc = {}
        for (m1, m2), c in cert:
            assert m1 in m.component_monomials(lam)
            assert m2 in m.component_monomials(lam.inverse())
            res = m.monomial_product(m1, m2)
            assert res is not None
            mono, coeff = res
            acc[mono] = acc.get(mono, field.zero) + c * coeff
        assert {mono: v for mono, v in acc.items() if v} == {
            (i, i, e): field.one for i in range(m.n)}


def _identity_in_product_by_solve(m, lam):
    """Reference for `is_strongly_graded_matrix` at one degree: I_n solved
    for in the span of the products of basis monomials of A_lam and
    A_(lam^-1), as [((m1, m2), c)], or None when it is not in that span."""
    left = m.component_monomials(lam)
    right = m.component_monomials(lam.inverse())
    zero_monos = m.component_monomials(m.group.identity)
    index = {mono: t for t, mono in enumerate(zero_monos)}
    field = m.base.field
    pairs, cols = [], []
    for m1 in left:
        for m2 in right:
            res = m.monomial_product(m1, m2)
            if res is not None:
                col = [field.zero] * len(zero_monos)
                col[index[res[0]]] = res[1]
                pairs.append((m1, m2))
                cols.append(col)
    if not pairs:
        return None
    target = [field.one if i == j and g.is_identity() else field.zero
              for i, j, g in zero_monos]
    sol = linalg.solve(linalg.int_rows(zip(*cols, target), field), len(cols), field)
    if sol is None:
        return None
    return [(pairs[c], sol[c]) for c in range(len(pairs)) if sol[c]]


def strongly_graded_by_solve(m):
    """(verdict, certificates or the failing degree) from one linear solve
    per support-subgroup generator and inverse, in the closed form's order."""
    certificates = {}
    for lam in m.support_subgroup().generators:
        for d in (lam, lam.inverse()):
            if d not in certificates:
                cert = _identity_in_product_by_solve(m, d)
                if cert is None:
                    return "false", ("degree", d)
                certificates[d] = cert
    return "true", certificates


def test_strongly_graded_with_replayed_certificate():
    m = laurent_matrix()
    rep = is_strongly_graded_matrix(m)
    assert rep.verdict == "true"
    replay_strong_grading(m, rep)


def lazy_matrix_rings():
    """Laurent bases of step 1-4 under shifts of length 1-4, and the quantum
    torus with cocycle 2^(a_1 b_2) on the support 2Z x Z of Z^2 under shifts
    of length 1-3."""
    z2 = GradeGroup.fg_abelian(2)
    torus = TwistedGroupAlgebra(
        Q, z2, SubgroupSpec(z2, [z2.element((2, 0)), z2.element((0, 1))]),
        lambda a, b: Fraction(2) ** (a.coords[0] * b.coords[1]))
    cases = [ShiftedMatrixAlgebra(construct_laurent(Q, step=step),
                                  [Z.element((c,)) for c in (0,) + rest])
             for step in (1, 2, 3, 4) for n in (1, 2, 3, 4)
             for rest in itertools.product(range(3), repeat=n - 1)]
    torus_shifts = [z2.element(c) for c in itertools.product(range(2), repeat=2)]
    return cases + [ShiftedMatrixAlgebra(torus, [z2.identity] + list(rest)) for n in (1, 2, 3)
                    for rest in itertools.product(torus_shifts, repeat=n - 1)]


def test_strong_grading_closed_form_matches_linear_solve():
    # the closed form gives the verdicts and certificates of the linear solve
    verdicts = []
    for m in lazy_matrix_rings():
        rep = is_strongly_graded_matrix(m)
        verdict, ref = strongly_graded_by_solve(m)
        assert rep.verdict == verdict, m
        if verdict == "true":
            assert rep.witness == ref, m
            replay_strong_grading(m, rep)
        else:
            assert rep.counterexample == ref, m
        verdicts.append(verdict)
    assert verdicts.count("true") > 20 and verdicts.count("false") > 20


def test_graded_simple_and_centre_lazy():
    m = laurent_matrix()
    assert is_graded_simple_matrix(m)
    assert central_scalar_check(m)


def reference_central_scalar_check(m):
    """(verdict, cosets inspected): the per-coset computation that
    `central_scalar_check` replaced by Z(M_n(R)) = Z(R) I_n, kept as its
    reference. For commutative R, A_lam is nonzero only for lam in a coset
    d_i^-1 d_j Gamma_R, and each u_g I (g in Gamma_R) is central and
    invertible, so it maps Z(A)_lam onto Z(A)_(lam g): one degree per coset
    decides them all. There the commutators with the matrix units E_ij u_e
    must cut out u_lam I for lam in Gamma_R and 0 elsewhere."""
    field = m.base.field
    if m.base.noncommuting_pair() is not None:
        return "false", 0
    lams = [di.inverse() * dj for di in m.shift for dj in m.shift]
    reps = {coset_label(m.group, m.base.support, lam): lam for lam in lams}
    gen_monos = [(i, j, m.group.identity) for i in range(m.n) for j in range(m.n)]
    for lam in reps.values():
        monos = m.component_monomials(lam)
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
            for coeffs in prods.values():
                rows.append([coeffs.get(t, field.zero) for t in range(len(monos))])
        dim = len(linalg.nullspace(linalg.int_rows(rows, field), len(monos), field))
        if dim != (1 if m.base.has_component(lam) else 0):
            return "false", len(reps)
    return "true", len(reps)


def test_centre_check_matches_the_per_coset_reference():
    # shift (0, 1, 1) over the support 2Z leaves two cosets for the reference
    # to inspect, however far apart the shift entries lie
    for shift in ((0, 1, 1), (0, 7, 9)):
        m = ShiftedMatrixAlgebra(construct_laurent(Q, step=2), [Z.element((c,)) for c in shift])
        rep = central_scalar_check(m)
        assert (rep.verdict, rep.strategy) == ("true", "exhaustive")
        assert reference_central_scalar_check(m) == ("true", 2)
    # the bilinear cocycle 2^(a_1 b_2) gives u_(1,0) u_(0,1) = 2 u_(0,1) u_(1,0):
    # a non-commutative base is not central in the matrix ring
    z2 = GradeGroup.fg_abelian(2)
    quantum_torus = TwistedGroupAlgebra(
        Q, z2, SubgroupSpec(z2, [z2.element((1, 0)), z2.element((0, 1))]),
        lambda a, b: Fraction(2) ** (a.coords[0] * b.coords[1]))
    rep = central_scalar_check(ShiftedMatrixAlgebra(quantum_torus, [z2.identity] * 2))
    assert (rep.verdict, rep.strategy) == ("false", "exhaustive")
    assert rep.counterexample[0] == "noncommuting-base"
    verdicts = []
    for m in lazy_matrix_rings():
        rep = central_scalar_check(m)
        assert rep.verdict == reference_central_scalar_check(m)[0], m
        verdicts.append(rep.verdict)
    assert verdicts.count("true") > 100 and verdicts.count("false") > 10


def test_shift_translation_gives_same_identity_component():
    L = construct_laurent(Q, step=2)
    m1 = ShiftedMatrixAlgebra(L, [Z.element((c,)) for c in (0, 1, 1)])
    m2 = ShiftedMatrixAlgebra(L, [Z.element((c,)) for c in (4, 5, 5)])
    a1, a2 = identity_component(m1), identity_component(m2)
    assert a1.dim == a2.dim == 5
    assert a1.products == a2.products


def test_materialized_matrix_over_quaternions():
    H = construct_quaternion(Q, -1, -1)
    g22 = H.group
    m = ShiftedMatrixAlgebra(H, [g22.identity, g22.element((1, 0))])
    mat = m.materialized
    assert mat.dim == 16
    assert validate_grading(mat)
    from gradedk.graded import is_strongly_graded
    assert is_strongly_graded(mat)


def test_solve_shift_matrix_permutation_witness():
    base = trivially_graded_field(F2, Z)
    d = [Z.element((0,)), Z.element((1,)), Z.element((1,))]
    a = [Z.element((1,)), Z.element((1,)), Z.element((0,))]
    rep = solve_shift_matrix(base, d, a)
    assert rep.verdict == "true"
    r, t = rep.witness
    # r t = I and t r = I inside M_3
    n = 3
    for i in range(n):
        for j in range(n):
            s = base.algebra.zero
            for k in range(n):
                s = s + r[i][k] * t[k][j]
            assert s == (base.algebra.one if i == j else base.algebra.zero)


def test_solve_shift_matrix_false_exhaustive():
    base = trivially_graded_field(F2, Z)
    d = [Z.element((0,)), Z.element((0,))]
    a = [Z.element((0,)), Z.element((1,))]
    rep = solve_shift_matrix(base, d, a)
    assert rep.verdict == "false"
    assert rep.strategy == "exhaustive"
    assert_top_certificate(base, d, a, rep)


def test_solve_shift_matrix_rank_mismatch():
    base = trivially_graded_field(F2, Z)
    rep = solve_shift_matrix(base, [Z.identity], [Z.identity, Z.identity])
    assert rep.verdict == "false"


def _graded(algebra, group, degrees):
    return GradedAlgebra(algebra, group, [group.element((c,)) for c in degrees])


def _differential_bases():
    """Small GF(p) bases graded over C_q, p, q in {2, 3}: F_p x F_p in
    degree 0, the group ring F_p[C_q] (p | q or not), F_p[t]/t^2 with t in
    degree 1, and M_2(F_p)(0, 1), whose units of degree 1 are not basis
    vectors."""
    for p, q in itertools.product((2, 3), repeat=2):
        f = FieldSpec.prime_field(p)
        cq = GradeGroup.cyclic(q)
        yield _graded(Algebra(f, ["a", "b"], {(0, 0): {0: 1}, (1, 1): {1: 1}}, unit=[1, 1]),
                      cq, [0, 0])
        yield _graded(Algebra(f, ["1", "t"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                              unit=[1, 0]), cq, [0, 1])
        yield construct_group_ring(f, cq)
        yield ShiftedMatrixAlgebra(trivially_graded_field(f, cq),
                                   [cq.identity, cq.element((1,))]).materialized


def test_solve_shift_matrix_matches_exhaustive_search():
    # one (d, a) per class up to permutations of d and of a and a common
    # translation: d_1 = 0, d and a sorted
    top_tests = 0
    for g in _differential_bases():
        elems = g.group.elements()
        pairs = [((elems[0],), (y,)) for y in elems]
        pairs += [((elems[0], x), a) for x in elems
                  for a in itertools.combinations_with_replacement(elems, 2)]
        for d, a in pairs:
            if g.dim == 4 and g.field.order == 3 and len(d) == 2:
                continue  # 3^8 patterns: M_2(F_3) is covered for n = 1
            rep = solve_shift_matrix(g, d, a)
            assert rep.verdict == ("true" if exhaustive_shift_search(g, d, a) else "false"), \
                (g.algebra, g.group, d, a)
            if rep.strategy == "constructive":
                assert_shift_witness(g, d, a, *rep.witness)
            else:
                assert_top_certificate(g, d, a, rep)
                top_tests += 1
    assert top_tests >= 40


def test_covering_algebra_is_the_shifted_identity_component():
    # the builder's identity component of M_n(R)(d), and its covering
    # algebra E_S = sum R_(s^-1 t) with S = {d_i^-1}, against the degree-e
    # restriction of the materialized M_n(R)(d), on the same labelled basis
    c3 = GradeGroup.cyclic(3)
    f3c3 = construct_group_ring(FieldSpec.prime_field(3), c3)
    H = construct_quaternion(Q, -1, -1)
    k4 = H.group
    s3 = GradeGroup.symmetric_3()
    r, t = s3.elements()[1], s3.elements()[3]
    cases = [(f3c3, [c3.element((2,)), c3.identity, c3.element((1,))]),
             (H, [k4.identity, k4.element((1, 0)), k4.element((1, 1))]),
             (f3c3, [c3.element((2,)), c3.identity, c3.element((2,))]),
             (construct_group_ring(FieldSpec.prime_field(3), s3), [s3.identity, r, t, r])]
    for g, shift in cases:
        m = ShiftedMatrixAlgebra(g, shift)
        ref = identity_component(m.materialized)
        got = identity_component(m)
        assert (got.labels, got.products, got.unit_coords) == (ref.labels, ref.products,
                                                               ref.unit_coords)
        cover = list(dict.fromkeys(s.inverse() for s in shift))
        e_alg, eps = covering_algebra(g, [s.inverse() for s in shift])
        ref = identity_component(
            ShiftedMatrixAlgebra(g, [s.inverse() for s in cover]).materialized)
        assert (e_alg.labels, e_alg.products, e_alg.unit_coords) == (ref.labels, ref.products,
                                                                     ref.unit_coords)
        assert list(eps) == cover
        total = e_alg.zero
        for x in eps.values():
            assert x * x == x
            total = total + x
        assert total == e_alg.one
    assert identity_component(ShiftedMatrixAlgebra(*cases[2])).dim == 9


def test_shift_matrix_over_q_times_q_is_decided():
    # Q x Q in degree 0 over C_2: 1 is a unit of degree e, so (e, o) ~ (o, e)
    # by a permutation matrix; (e, e) and (e, o) have different tops
    c2 = GradeGroup.cyclic(2)
    base = trivially_graded(Algebra(Q, ["a", "b"], {(0, 0): {0: 1}, (1, 1): {1: 1}},
                                    unit=[1, 1]), c2)
    e, o = c2.identity, c2.element((1,))
    rep = solve_shift_matrix(base, [e, o], [o, e])
    assert (rep.verdict, rep.strategy) == ("true", "constructive")
    assert_shift_witness(base, [e, o], [o, e], *rep.witness)
    rep = solve_shift_matrix(base, [e, e], [e, o])
    assert (rep.verdict, rep.strategy) == ("false", "exhaustive")
    dims = assert_top_certificate(base, [e, e], [e, o], rep)
    assert sorted(dims.values()) == [(0, 0, 1, 1), (1, 1, 0, 0)]


def test_canonical_shift_trivial_subgroup():
    triv = SubgroupSpec(Z, [])
    s1 = [Z.element((c,)) for c in (0, 1, 1)]
    s2 = [Z.element((c,)) for c in (1, 2, 2)]
    s3 = [Z.element((c,)) for c in (0, 1, 2)]
    assert canonical_shift(Z, triv, s1) == canonical_shift(Z, triv, s2)
    assert canonical_shift(Z, triv, s1) != canonical_shift(Z, triv, s3)


def test_shifted_iso_decision_witness_and_refutation():
    triv = SubgroupSpec(Z, [])
    s1 = [Z.element((c,)) for c in (0, 1, 1)]
    s2 = [Z.element((c,)) for c in (1, 2, 2)]
    rep = shifted_iso_decision(Z, triv, s1, s2)
    assert rep.verdict == "true"
    w = rep.witness
    assert w["sigma"] == Z.element((1,))
    # witness equation: s2[i] = tau[i] * s1[pi[i]] * sigma
    for i in range(3):
        assert s2[i] == w["tau"][i] * s1[w["pi"][i]] * w["sigma"]
    rep = shifted_iso_decision(Z, triv, s1, [Z.element((c,)) for c in (0, 1, 2)])
    assert rep.verdict == "false"
    with pytest.raises(ValueError):
        shifted_iso_decision(Z, triv, s1, s1[:2])


def test_empty_shift_vector_rejected():
    triv = SubgroupSpec(Z, [])
    with pytest.raises(ValueError, match="empty shift vector"):
        canonical_shift(Z, triv, [])
    with pytest.raises(ValueError, match="empty shift vector"):
        shifted_iso_decision(Z, triv, [], [])


def test_canonical_shift_torsion_translation_invariance():
    # regression: common translation in Z/4 must not change the class
    Z4 = GradeGroup.cyclic(4)
    triv = SubgroupSpec(Z4, [])
    s = [Z4.element((0,)), Z4.element((3,))]
    t = [Z4.element((1,)), Z4.element((0,))]  # s translated by 1
    assert canonical_shift(Z4, triv, s) == canonical_shift(Z4, triv, t)


def test_shift_classification_computes_one_smith_form(monkeypatch):
    # both vectors are labelled entry by entry, and every translate and
    # witness check after that is label arithmetic; all of it reads the
    # subgroup's one cached Smith form
    import gradedk.groups as groups
    real = groups.smith_normal_form
    calls = []
    monkeypatch.setattr(groups, "smith_normal_form",
                        lambda matrix: calls.append(matrix) or real(matrix))
    G = GradeGroup.fg_abelian(2, (6,))
    gamma_d = SubgroupSpec(G, [G.element((2, 0, 0)), G.element((0, 1, 3))])
    lam = [G.element(c) for c in [(0, 0, 0), (1, 0, 1), (1, 2, 5), (3, 1, 2),
                                  (0, 5, 4), (2, 2, 2)]]
    tau = [G.element(c) for c in [(2, 0, 0), (0, 1, 3), (-2, 2, 0), (0, 0, 0),
                                  (4, -1, 3), (2, 3, 3)]]
    sigma = G.element((1, -1, 5))
    pi = [3, 0, 5, 1, 4, 2]
    gam = [tau[i] * lam[pi[i]] * sigma for i in range(6)]
    assert canonical_shift(G, gamma_d, lam) == canonical_shift(G, gamma_d, gam)
    rep = shifted_iso_decision(G, gamma_d, lam, gam)
    assert rep.verdict == "true"
    w = rep.witness
    for i in range(6):
        assert gamma_d.contains(w["tau"][i])
        assert gam[i] == w["tau"][i] * lam[w["pi"][i]] * w["sigma"]
    assert len(calls) == 1


def _cyclic_table(n):
    return GradeGroup.from_table([[(i + j) % n for j in range(n)] for i in range(n)])


def _classification_spaces():
    """(name, group, Gamma_D generators) over the groups and Gamma_D kinds
    of the differential test: trivial, finite-index and infinite-index
    Gamma_D, finite-table cyclic groups, and the trivial group, whose
    labels have no coordinates."""
    Z2 = GradeGroup.fg_abelian(2)
    Z2T6 = GradeGroup.fg_abelian(2, (6,))
    Z4Z6 = GradeGroup.product_of_cyclic(4, 6)
    ZT2 = GradeGroup.fg_abelian(1, (2,))
    C6, C8 = _cyclic_table(6), _cyclic_table(8)
    el = lambda G, *cs: [G.element(c) for c in cs]
    return [
        ("Z/1", Z, []), ("Z/3", Z, el(Z, (3,))), ("Z/4+6", Z, el(Z, (4,), (6,))),
        ("Z2/1", Z2, []), ("Z2/fin", Z2, el(Z2, (2, 1), (0, 3))),
        ("Z2/inf", Z2, el(Z2, (2, 2))),
        ("Z2xZ6/1", Z2T6, []), ("Z2xZ6/fin", Z2T6, el(Z2T6, (2, 0, 0), (0, 1, 3))),
        ("Z2xZ6/inf", Z2T6, el(Z2T6, (1, 1, 2))),
        ("Z4xZ6/1", Z4Z6, []), ("Z4xZ6/sub", Z4Z6, el(Z4Z6, (2, 3))),
        ("ZxZ2/1", ZT2, []), ("ZxZ2/fin", ZT2, el(ZT2, (2, 1))),
        ("ZxZ2/inf", ZT2, el(ZT2, (0, 1))),
        ("C6/1", C6, []), ("C6/3", C6, el(C6, 2)), ("C8/2", C8, el(C8, 4)),
        ("1/1", GradeGroup.trivial(), []),
    ]


def _random_shift_pair(rng, group, gens, n):
    """(lam, gam) with gam drawn afresh, or made from lam by permuting,
    moving each entry within its coset and translating by one sigma, then
    possibly moving one entry by a random element."""
    if group.kind == "finite-table":
        rand = lambda: group.element(rng.randrange(group.size))
    else:
        rand = lambda: group.element([rng.randint(-6, 6) for _ in range(group.dim)])
    lam = [rand() for _ in range(n)]
    kind = rng.randrange(3)
    if kind == 0:
        return lam, [rand() for _ in range(n)]
    sigma = rand()
    gam = []
    for x in lam:
        for g in gens:
            k = rng.randint(-2, 2)
            for _ in range(abs(k)):
                x = x * (g if k > 0 else g.inverse())
        gam.append(x * sigma)
    rng.shuffle(gam)
    if kind == 2:
        k = rng.randrange(n)
        gam[k] = gam[k] * rand()
    return lam, gam


def test_shift_classification_matches_reference():
    # canonical forms, verdicts, strategies, counterexamples and details
    # agree in repr with the direct O(n^2) reference on 1,530 seeded pairs,
    # and every witness replays: the reference may reach another (pi, tau,
    # sigma) for the same pair
    unwitnessed = lambda r: repr((r.predicate, r.verdict, r.strategy, r.counterexample,
                                  r.details))
    rng = random.Random(1405)
    spaces = _classification_spaces()
    for t in range(1530):
        name, group, gens = spaces[t % len(spaces)]
        gamma_d = SubgroupSpec(group, gens)
        n = rng.choice([1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 40]) if t % 5 else rng.randint(1, 40)
        lam, gam = _random_shift_pair(rng, group, gens, n)
        for vec in (lam, gam):
            assert repr(canonical_shift(group, gamma_d, vec)) == \
                repr(reference_canonical_shift(group, gamma_d, vec)), (name, vec)
        rep = shifted_iso_decision(group, gamma_d, lam, gam)
        ref = reference_shifted_iso_decision(group, gamma_d, lam, gam)
        assert unwitnessed(rep) == unwitnessed(ref), (name, lam, gam)
        if rep:
            assert_shift_classification_witness(gamma_d, lam, gam, ref.witness)
            assert_shift_classification_witness(gamma_d, lam, gam, rep.witness)
    S3 = GradeGroup.symmetric_3()
    for classify in (canonical_shift, reference_canonical_shift):
        with pytest.raises(ValueError):
            classify(S3, SubgroupSpec(S3, []), S3.elements())


def test_shift_classification_labels_each_entry_once(monkeypatch):
    # n = 40 over Z^2 with |G : Gamma_D| = 9: every entry is labelled once,
    # and coset_label runs at most once per distinct label tried for sigma
    import gradedk.groups as groups
    import gradedk.matrixring as matrixring
    real_labels, real_coset_label = matrixring._coset_labels, groups.coset_label
    labelled, coset_calls = [], []

    def count_labels(group, gamma_d, elements):
        elements = list(elements)
        labelled.extend(elements)
        return real_labels(group, gamma_d, elements)

    def count_coset_label(*args):
        coset_calls.append(args)
        return real_coset_label(*args)

    monkeypatch.setattr(matrixring, "_coset_labels", count_labels)
    monkeypatch.setattr(matrixring, "coset_label", count_coset_label)
    monkeypatch.setattr(groups, "coset_label", count_coset_label)
    G = GradeGroup.fg_abelian(2)
    gamma_d = SubgroupSpec(G, [G.element((3, 0)), G.element((0, 3))])
    rng = random.Random(9)
    lam = [G.element((rng.randint(-9, 9), rng.randint(-9, 9))) for _ in range(40)]
    sigma = G.element((4, -7))
    gam = [G.element((3 * rng.randint(-2, 2), 3 * rng.randint(-2, 2))) * x * sigma
           for x in reversed(lam)]
    rep = shifted_iso_decision(G, gamma_d, lam, gam)
    assert rep.verdict == "true"
    assert len(labelled) == 80
    assert len(coset_calls) <= 9
    assert_shift_classification_witness(gamma_d, lam, gam, rep.witness)


# -- brute-force oracle over GF(2), n = 2 ------------------------------


def _mat_of(coords):
    return [[coords[0], coords[1]], [coords[2], coords[3]]]


def _inverse_2x2(m):
    """m^-1 by the adjugate, or None if det m = 0."""
    (a, b), (c, d) = m
    det = a * d - b * c
    if not det:
        return None
    return [[d / det, -b / det], [-c / det, a / det]]


def _gl2_f2():
    one, zero = F2.one, F2.zero
    out = []
    for bits in itertools.product([zero, one], repeat=4):
        m = _mat_of(list(bits))
        if _inverse_2x2(m) is not None:
            out.append(m)
    return out


def _brute_force_graded_iso(d, a):
    """Conjugation search: all algebra autos of M_2(GF(2)) are inner and fix
    the base field, so a graded iso exists iff some invertible P conjugates
    d-homogeneous matrix units to a-homogeneous elements of equal degree."""
    def deg_entries(shift, mat):
        degs = set()
        for i in range(2):
            for j in range(2):
                if mat[i][j]:
                    degs.add(shift[j].coords[0] - shift[i].coords[0])
        return degs

    for p in _gl2_f2():
        pinv = _inverse_2x2(p)
        ok = True
        for i in range(2):
            for j in range(2):
                e = [[F2.one if (r, c) == (i, j) else F2.zero for c in range(2)]
                     for r in range(2)]
                img = linalg.mat_mul(linalg.mat_mul(p, e), pinv)
                want = d[j].coords[0] - d[i].coords[0]
                degs = deg_entries(a, img)
                if degs and degs != {want}:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def test_brute_force_oracle_agrees_on_random_pairs():
    triv = SubgroupSpec(Z, [])
    rng = random.Random(42)
    checked = 0
    while checked < 25:
        d = [Z.element((rng.randint(-2, 2),)) for _ in range(2)]
        a = [Z.element((rng.randint(-2, 2),)) for _ in range(2)]
        rep = shifted_iso_decision(Z, triv, d, a)
        brute = _brute_force_graded_iso(d, a)
        assert (rep.verdict == "true") == brute, (d, a, rep.verdict, brute)
        checked += 1


# -- good gradings -----------------------------------------------------


def _m2_in_basis(field, basis_mats, degrees, group):
    """M_2(K) presented on an arbitrary matrix basis with assigned degrees."""
    def flat(m):
        return [m[0][0], m[0][1], m[1][0], m[1][1]]

    def coords(m):  # of m on the basis
        aug = [[flat(b)[r] for b in basis_mats] + [flat(m)[r]] for r in range(4)]
        return linalg.solve(linalg.int_rows(aug, field), len(basis_mats), field)

    products = {}
    for i, x in enumerate(basis_mats):
        for j, y in enumerate(basis_mats):
            sol = coords(linalg.mat_mul(x, y))
            products[(i, j)] = {k: c for k, c in enumerate(sol) if c}
    unit = coords([[field.one, field.zero], [field.zero, field.one]])
    alg = Algebra(field, ["v%d" % (t + 1) for t in range(4)], products, unit=unit)
    return GradedAlgebra(alg, group, degrees)


def _paper_gradings(field):
    Z2 = GradeGroup.cyclic(2)
    z0, z1 = Z2.element((0,)), Z2.element((1,))
    one, zero = field.one, field.zero

    def m(a, b, c, d):
        return [[field.scalar(a), field.scalar(b)],
                [field.scalar(c), field.scalar(d)]]

    # R: diagonal in degree 0, antidiagonal in degree 1 (matrix-unit basis)
    r = _m2_in_basis(field,
                     [m(1, 0, 0, 0), m(0, 1, 0, 0), m(0, 0, 1, 0), m(0, 0, 0, 1)],
                     [z0, z1, z1, z0], Z2)
    # S: degree 0 = {(a, b-a; 0, b)}, degree 1 = {(d, c; d, -d)}
    s = _m2_in_basis(field,
                     [m(1, -1, 0, 0), m(0, 1, 0, 1), m(0, 1, 0, 0), m(1, 0, 1, -1)],
                     [z0, z0, z1, z1], Z2)
    return r, s


def test_good_grading_r_and_not_s():
    r, s = _paper_gradings(Q)
    assert validate_grading(r) and validate_grading(s)
    # R is good: matrix units live on the basis, gammas (0, 1)
    units_r = [[r.algebra.basis_element(0), r.algebra.basis_element(1)],
               [r.algebra.basis_element(2), r.algebra.basis_element(3)]]
    gammas = is_good_grading(r, units_r)
    assert gammas is not None
    assert [g.coords for g in gammas] == [(0,), (1,)]
    # S is not good: e11 = v1 + v3 is not homogeneous
    alg = s.algebra
    e11 = alg.element([1, 0, 1, 0])
    e12 = alg.element([0, 0, 1, 0])
    e22 = alg.element([0, 1, -1, 0])
    e21 = alg.element([-1, 1, -2, 1])
    # sanity: these really are matrix units
    assert e11 * e11 == e11 and e12 * e21 == e11 and e21 * e12 == e22
    assert e11 + e22 == alg.one
    units_s = [[e11, e12], [e21, e22]]
    assert is_good_grading(s, units_s) is None
    assert not s.is_homogeneous(e11)


def test_paper_map_is_graded_isomorphism():
    r, s = _paper_gradings(Q)
    # f(a,b;c,d) = (a+c, b+d-a-c; c, d-c) sends matrix units to:
    # e11 -> v1, e12 -> v3, e21 -> v4 - v3, e22 -> v2
    img = {0: s.algebra.element([1, 0, 0, 0]),
           1: s.algebra.element([0, 0, 1, 0]),
           2: s.algebra.element([0, 0, -1, 1]),
           3: s.algebra.element([0, 1, 0, 0])}

    def f(x):
        out = s.algebra.zero
        for t, c in enumerate(x.coords):
            if c:
                out = out + img[t].scale(c)
        return out

    # exact matrix identity on all four basis elements: multiplicative, unital,
    # bijective, and degree-preserving
    for i in range(4):
        for j in range(4):
            x, y = r.algebra.basis_element(i), r.algebra.basis_element(j)
            assert f(x * y) == f(x) * f(y)
        assert s.is_homogeneous(img[i])
        assert s.degree_of(img[i]) == r.degrees[i]
    assert f(r.algebra.one) == s.algebra.one
    assert linalg.rank(linalg.int_rows([img[t].coords for t in range(4)], s.field),
                       s.field) == 4
