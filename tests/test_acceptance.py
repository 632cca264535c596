"""End-to-end acceptance run: ten criteria, one printed pass/fail line each.

The lines also go to the terminal-summary section (via conftest) so they
survive pytest's output capture.
"""

import random
import sys
from fractions import Fraction

from gradedk import linalg
from gradedk.algebra import center, commutator_subspace
from gradedk.azumaya import (braun_check,
                             group_ring_azumaya, is_graded_azumaya_csa,
                             psi_bijective, verify_separability_idempotent)
from gradedk.constructors import (construct_group_ring, construct_laurent,
                                  construct_quaternion,
                                  construct_symbol_algebra)
from gradedk.fields import FieldSpec
from gradedk.graded import (is_graded_division, is_strongly_graded, support,
                            support_subgroup,
                            validate_grading)
from gradedk.groups import GradeGroup, SubgroupSpec, derived_subgroup
from gradedk.ktheory import (CsaShape, FGAbelianGroup, ck0_zk0,
                             compare_localized, k0gr_graded_division,
                             k0gr_strongly_graded, localize,
                             torsion_bound_check)
from gradedk.matrixring import (ShiftedMatrixAlgebra, is_crossed_product, is_good_grading,
                                is_strongly_graded_matrix,
                                shifted_iso_decision)
from gradedk.trace import (nrd, trd, trd_graded_surjective_check,
                           trd_kernel_check, trd_na_plus_commutator_check,
                           supp_commutator_lemma_check)

import test_matrixring
import test_properties
from randomdata import random_element
from test_kernel import ref_regular_matrix

Q = FieldSpec.rationals()
F5 = FieldSpec.prime_field(5)
F7 = FieldSpec.prime_field(7)
Z = GradeGroup.integers()


def _line(n, ok, msg):
    import conftest
    tag = "PASS" if ok else "FAIL"
    text = "criterion %d: %s - %s" % (n, tag, msg)
    print(text, file=sys.__stdout__, flush=True)
    conftest.acceptance_lines.append(text)


def _run(n, msg, body):
    try:
        body()
    except BaseException:
        _line(n, False, msg)
        raise
    _line(n, True, msg)


def _quaternion_idempotent(H):
    # 1/4 (1 (x) 1 - i (x) i - j (x) j - k (x) k), coordinate i*4 + j for e_i (x) e_j
    q = Fraction(1, 4)
    return tuple(q if t == 0 else -q if t in (5, 10, 15) else Fraction(0)
                 for t in range(16))


def test_criterion_1_quaternion_azumaya_chain():
    def body():
        H = construct_quaternion(Q, -1, -1)
        rep = psi_bijective(H)
        assert rep.verdict == "true"
        assert rep.details["rank"] == 16 and rep.details["size"] == 16
        e = _quaternion_idempotent(H)
        assert verify_separability_idempotent(H, e).verdict == "true"
        assert braun_check(H, e).verdict == "true"
    _run(1, "psi full rank 16, separability idempotent, Braun test", body)


def test_criterion_2_graded_quaternions_k0():
    def body():
        H = construct_quaternion(Q, -1, -1)
        assert validate_grading(H).verdict == "true"
        gd = is_graded_division(H)
        assert gd.verdict == "true" and gd.witness
        assert is_crossed_product(H).verdict == "true"
        assert is_strongly_graded(H).verdict == "true"
        assert is_graded_azumaya_csa(H).verdict == "true"
        left = k0gr_graded_division(H.group, support_subgroup(H))
        right = k0gr_graded_division(H.group, SubgroupSpec(H.group, []))
        assert left == FGAbelianGroup(1) and right == FGAbelianGroup(4)
        assert compare_localized(left, right, 2).verdict == "false"
    _run(2, "graded division/crossed/strong/azumaya; Z vs Z^4 differ at 2", body)


def test_criterion_3_laurent_matrix_k0():
    def body():
        for field in (Q, F5):
            L = construct_laurent(field, step=2)
            g = L.group
            m = ShiftedMatrixAlgebra(
                L, [g.element((0,)), g.element((1,)), g.element((1,))])
            sg = is_strongly_graded_matrix(m)
            assert sg.verdict == "true" and sg.witness
            k0, dec = k0gr_strongly_graded(m, sg)
            assert k0 == FGAbelianGroup(2)
            assert sorted((b.dim, b.matrix_size) for b in dec.blocks) \
                == [(1, 1), (4, 2)]
    _run(3, "3x3 Laurent shift (0,1,1): A_0 = K x M_2(K), K0gr = Z^2", body)


def test_criterion_4_symbol_algebras():
    def body():
        for field, n, xi in ((F5, 2, 4), (F7, 3, 2)):
            D = construct_symbol_algebra(field, n, 2, 3, xi)
            assert is_graded_division(D).verdict == "true"
            # exhaustive scan: every nonzero homogeneous element inverts; the
            # scan yields one element per line, so take every multiple
            from gradedk.algebra import try_invert
            for x in (x for d in support(D) for x in D.component_elements(d)):
                for c in field.elements()[1:]:
                    assert try_invert(x.scale(c)) is not None
            assert len(support(D)) == n * n
            lemma = supp_commutator_lemma_check(D)
            assert lemma.verdict == "true"
            assert lemma.details["totally_ramified"]
            supp_c = lemma.details["supp_commutators"]
            assert D.group.identity not in supp_c
            assert supp_c < lemma.details["supp"]
            assert commutator_subspace(D.algebra).dim == n * n - 1
            assert trd_kernel_check(D.algebra).verdict == "true"
    _run(4, "symbol algebras: graded division, ramified, ker(Trd)=[D,D]", body)


def test_criterion_5_shift_classification():
    def body():
        triv = SubgroupSpec(Z, [])
        s011 = [Z.element((c,)) for c in (0, 1, 1)]
        s122 = [Z.element((c,)) for c in (1, 2, 2)]
        rep = shifted_iso_decision(Z, triv, s011, s122)
        assert rep.verdict == "true"
        w = rep.witness
        for i in range(3):
            assert s122[i] == w["tau"][i] * s011[w["pi"][i]] * w["sigma"]
        for perm in ((1, 1, 0), (1, 0, 1)):
            assert shifted_iso_decision(
                Z, triv, s011, [Z.element((c,)) for c in perm]).verdict == "true"
        assert shifted_iso_decision(
            Z, triv, s011, [Z.element((c,)) for c in (0, 1, 2)]).verdict == "false"
        rng = random.Random(99)
        for _ in range(20):
            d = [Z.element((rng.randint(-2, 2),)) for _ in range(2)]
            a = [Z.element((rng.randint(-2, 2),)) for _ in range(2)]
            got = shifted_iso_decision(Z, triv, d, a).verdict == "true"
            assert got == test_matrixring._brute_force_graded_iso(d, a)
    _run(5, "shift iso decision with verified witnesses, brute-force agreement", body)


def test_criterion_6_exact_sequence_values():
    def body():
        for n in range(1, 13):
            data = ck0_zk0(CsaShape(n))
            assert data.zk0 == FGAbelianGroup(0)
            want = FGAbelianGroup(0) if n == 1 else FGAbelianGroup(0, (n,))
            assert data.ck0 == want
            assert torsion_bound_check(data.ck0, n).verdict == "true"
            assert localize(data.ck0, n) == FGAbelianGroup(0)
    _run(6, "CK0(M_n) = Z/n for n=1..12, torsion bound, kills under 1/n", body)


def test_criterion_7_group_rings():
    def body():
        S3 = GradeGroup.symmetric_3()
        A = construct_group_ring(Q, S3)
        z = center(A.algebra)
        assert z.dim == 3
        # the centre is not graded: a central element has a homogeneous
        # component outside it
        assert any(not z.contains(c) for x in z.basis_elements()
                   for c in A.homogeneous_components(x).values())
        assert group_ring_azumaya(Q, S3).verdict == "true"
        assert group_ring_azumaya(FieldSpec.prime_field(3), S3).verdict == "false"
        assert derived_subgroup(S3)[1] == 3
    _run(7, "Q[S3] centre 3-dim not graded; Azumaya over Q, not GF(3)", body)


def test_criterion_8_good_gradings():
    def body():
        r, s = test_matrixring._paper_gradings(Q)
        units_r = [[r.algebra.basis_element(0), r.algebra.basis_element(1)],
                   [r.algebra.basis_element(2), r.algebra.basis_element(3)]]
        gammas = is_good_grading(r, units_r)
        assert gammas is not None
        assert [g.coords for g in gammas] == [(0,), (1,)]
        alg = s.algebra
        e11 = alg.element([1, 0, 1, 0])
        e12 = alg.element([0, 0, 1, 0])
        e21 = alg.element([-1, 1, -2, 1])
        e22 = alg.element([0, 1, -1, 0])
        assert is_good_grading(s, [[e11, e12], [e21, e22]]) is None
        assert not s.is_homogeneous(e11)
        img = {0: alg.element([1, 0, 0, 0]), 1: alg.element([0, 0, 1, 0]),
               2: alg.element([0, 0, -1, 1]), 3: alg.element([0, 1, 0, 0])}

        def f(x):
            out = alg.zero
            for t, c in enumerate(x.coords):
                if c:
                    out = out + img[t].scale(c)
            return out

        for i in range(4):
            for j in range(4):
                x, y = r.algebra.basis_element(i), r.algebra.basis_element(j)
                assert f(x * y) == f(x) * f(y)
            assert s.degree_of(img[i]) == r.degrees[i]
        assert f(r.algebra.one) == alg.one
        assert linalg.rank(linalg.int_rows([img[t].coords for t in range(4)], alg.field),
                           alg.field) == 4
    _run(8, "good grading detected for R, refuted for S, graded iso R -> S", body)


def test_criterion_9_trace_identities():
    def body():
        rng = random.Random(11)
        for g in (construct_quaternion(Q, -1, -1),
                  construct_symbol_algebra(F5, 2, 2, 3, 4),
                  construct_symbol_algebra(F7, 3, 2, 3, 2)):
            alg = g.algebra
            n = round(alg.dim ** 0.5)
            for _ in range(100):
                a = random_element(alg, rng, height=4)
                b = random_element(alg, rng, height=4)
                assert trd(alg, a + b) == trd(alg, a) + trd(alg, b)
                assert nrd(alg, a * b) == nrd(alg, a) * nrd(alg, b)
                diagonal = (row[i] for i, row in enumerate(ref_regular_matrix(a, True)))
                assert alg.field.scalar(n) * trd(alg, a) == sum(diagonal, alg.field.zero)
            for i in range(alg.dim):
                rep = trd_na_plus_commutator_check(alg, alg.basis_element(i))
                assert rep.verdict == "true"
            assert trd_graded_surjective_check(g).verdict == "true"
    _run(9, "Trd linear, Nrd multiplicative, n*a - Trd(a) in [D,D], Trd graded", body)


def test_criterion_10_property_suites():
    def body():
        test_properties.test_associativity_of_constructed_algebras()
        test_properties.test_crossed_product_implies_strongly_graded()
        test_properties.test_graded_module_dimension_additivity()
        test_properties.test_canonical_shift_three_move_invariance()
        # hypothesis-backed suites (SNF invariance, localize laws) run as part
        # of their own modules; re-invoke them here so this criterion stands
        # alone as well
        import test_ktheory
        import test_snf
        test_snf.test_random_3x3()
        test_ktheory.test_localize_idempotent_and_multiplicative()
    _run(10, "200-instance property suites all green", body)
