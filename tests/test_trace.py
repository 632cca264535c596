import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy

from gradedk.algebra import Algebra, center, commutator_subspace
from gradedk.constructors import (construct_group_ring,
                                  construct_matrix_algebra,
                                  construct_quaternion,
                                  construct_symbol_algebra)
from gradedk.fields import FieldSpec
from gradedk.graded import GradedAlgebra, trivially_graded
from gradedk.groups import GradeGroup
from gradedk.trace import (central_commutators_imply_commutative_check,
                           commutator_support, nrd, reduced_char_poly,
                           supp_commutator_lemma_check, trd, trd_functional,
                           trd_kernel_check, trd_graded_surjective_check,
                           trd_na_plus_commutator_check)
from randomdata import random_element, random_scalar
from test_kernel import central_simple_corpus, ref_charpoly, ref_regular_matrix

Q = FieldSpec.rationals()
F5 = FieldSpec.prime_field(5)
F7 = FieldSpec.prime_field(7)
F11 = FieldSpec.prime_field(11)


def sympy_poly(coeffs, field):
    """An ascending coefficient list of field scalars as a sympy Poly over
    QQ or GF(p)."""
    if field.kind == "rationals":
        dom, conv = sympy.QQ, lambda c: sympy.QQ(c.numerator, c.denominator)
    else:
        dom = sympy.GF(field.characteristic)
        conv = lambda c: dom(c.v)
    return sympy.Poly.from_list([conv(c) for c in reversed(coeffs)], sympy.Symbol("x"),
                                domain=dom)


def algebras():
    return [construct_quaternion(Q, -1, -1),
            construct_symbol_algebra(F5, 2, 2, 3, 4),
            construct_symbol_algebra(F7, 3, 2, 3, 2)]


def test_reduced_char_poly_quaternion_generators():
    H = construct_quaternion(Q, -1, -1)
    alg = H.algebra
    for t, want_nrd in ((1, 1), (2, 1), (3, 1)):
        rc = reduced_char_poly(alg, alg.basis_element(t))
        assert rc.coeffs == [Fraction(1), Fraction(0), Fraction(1)]
        assert rc.trd == 0 and rc.nrd == want_nrd
        assert rc.route == "trace-power-sums"
    x = alg.element([1, 2, 3, 4])
    rc = reduced_char_poly(alg, x)
    assert rc.trd == 2            # 2 * real part
    assert rc.nrd == 30           # 1 + 4 + 9 + 16


def test_reduced_char_poly_scalars():
    H = construct_quaternion(Q, -1, -1)
    rc = reduced_char_poly(H.algebra, H.algebra.one.scale(Fraction(3)))
    assert rc.trd == 6 and rc.nrd == 9  # q = (x-3)^2


def test_reduced_char_poly_fallback_route():
    # e11 in M_2(Q): a split element takes the same power-sum route
    m2 = construct_matrix_algebra(Q, 2)
    rc = reduced_char_poly(m2, m2.basis_element(0))
    assert rc.route == "trace-power-sums"
    assert rc.coeffs == [Fraction(0), Fraction(-1), Fraction(1)]  # x^2 - x
    assert rc.trd == 1 and rc.nrd == 0


def test_reduced_char_poly_power_sums_against_regular_charpoly():
    # q^n = charpoly(L_a) and n Trd(a) = Tr(L_a) on 220 random elements;
    # xi is a primitive n-th root of unity: -1, 2 in GF(7), 3 in GF(11)
    cases = [(construct_quaternion(Q, -1, 3).algebra, 30),
             (construct_matrix_algebra(Q, 2), 30),
             (construct_matrix_algebra(Q, 3), 30),
             (construct_matrix_algebra(Q, 4), 20),
             (construct_symbol_algebra(F5, 2, 2, 3, -1).algebra, 25),
             (construct_symbol_algebra(F7, 2, 3, 5, -1).algebra, 25),
             (construct_symbol_algebra(F11, 2, 2, 7, -1).algebra, 25),
             (construct_symbol_algebra(F7, 3, 2, 3, 2).algebra, 20),
             (construct_symbol_algebra(F11, 5, 2, 3, 3).algebra, 15)]
    rng = random.Random(47)
    for alg, count in cases:
        field, n = alg.field, round(alg.dim ** 0.5)
        for _ in range(count):
            a = random_element(alg, rng, height=4)
            rc = reduced_char_poly(alg, a)
            assert rc.route == "trace-power-sums"
            lx = ref_regular_matrix(a, True)
            assert sympy_poly(rc.coeffs, field) ** n == ref_charpoly(lx, field)
            assert field.scalar(n) * rc.trd \
                == sum((row[i] for i, row in enumerate(lx)), field.zero)


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)])
def test_reduced_char_poly_small_characteristic(p, n):
    # char p <= n: q is the charpoly of the n x n coordinate matrix, also
    # for e11 and e12, which the old n-th-root extraction could not handle
    field = FieldSpec.prime_field(p)
    alg = construct_matrix_algebra(field, n)
    rng = random.Random(p * 10 + n)
    x = sympy.Symbol("x")
    for a in [alg.basis_element(0), alg.basis_element(1)] \
            + [random_element(alg, rng) for _ in range(8)]:
        rc = reduced_char_poly(alg, a)
        assert rc.route == "charpoly-factor-root"
        mat = sympy.Matrix(n, n, [c.v for c in a.coords])
        want = [int(c) % p for c in reversed(mat.charpoly(x).all_coeffs())]
        assert [c.v for c in rc.coeffs] == want


def test_trd_linear_nrd_multiplicative():
    rng = random.Random(31)
    for g in algebras():
        alg = g.algebra
        n = round(alg.dim ** 0.5)
        for _ in range(100):
            a = random_element(alg, rng, height=4)
            b = random_element(alg, rng, height=4)
            s = random_scalar(alg.field, rng, height=4)
            assert trd(alg, a + b) == trd(alg, a) + trd(alg, b)
            assert trd(alg, a.scale(s)) == s * trd(alg, a)
            assert nrd(alg, a * b) == nrd(alg, a) * nrd(alg, b)
            # n * Trd(a) = trace of the regular representation
            diagonal = (row[i] for i, row in enumerate(ref_regular_matrix(a, True)))
            assert alg.field.scalar(n) * trd(alg, a) == sum(diagonal, alg.field.zero)


def test_trd_functional_matches_per_element_trd():
    # from the regular traces where char is 0 or > n; M_2(GF(2)) keeps the
    # per-element route
    cases = [construct_matrix_algebra(Q, n) for n in (2, 3, 4)]
    cases += [construct_symbol_algebra(F5, 2, 2, 3, 4).algebra,
              construct_symbol_algebra(F7, 3, 2, 3, 2).algebra,
              construct_symbol_algebra(F7, 2, 3, 5, -1).algebra,
              construct_matrix_algebra(FieldSpec.prime_field(2), 2)]
    for alg in cases:
        assert trd_functional(alg) == [trd(alg, alg.basis_element(i)) for i in range(alg.dim)]


def test_trd_kernel_is_commutator_space():
    for g in algebras():
        rep = trd_kernel_check(g.algebra)
        assert rep.verdict == "true", rep
        n = round(g.algebra.dim ** 0.5)
        assert rep.details["kernel-dim"] == n * n - 1


def test_trd_graded():
    for g in algebras():
        assert trd_graded_surjective_check(g)


def test_na_minus_trd_in_commutators():
    rng = random.Random(7)
    for g in algebras():
        alg = g.algebra
        for i in range(alg.dim):
            assert trd_na_plus_commutator_check(alg, alg.basis_element(i))
        for _ in range(10):
            assert trd_na_plus_commutator_check(alg, random_element(alg, rng))


def test_commutator_support_lemma_symbol_algebras():
    for g in algebras()[1:]:
        rep = supp_commutator_lemma_check(g)
        assert rep.verdict == "true"
        assert rep.details["totally_ramified"]
        supp_c = rep.details["supp_commutators"]
        assert g.group.identity not in supp_c
        assert supp_c < rep.details["supp"]
        n = round(g.algebra.dim ** 0.5)
        assert commutator_subspace(g.algebra).dim == n * n - 1


def test_commutator_support_quaternions():
    H = construct_quaternion(Q, -1, -1)
    supp_c = commutator_support(H)
    assert sorted(d.coords for d in supp_c) == [(0, 1), (1, 0), (1, 1)]
    rep = supp_commutator_lemma_check(H)
    assert rep.verdict == "true"
    # Z/2-graded H: H_e = Q(i) is not central, so the lemma's second case
    rep = supp_commutator_lemma_check(construct_quaternion(Q, -1, -1, grading="Z2"))
    assert rep.verdict == "true"
    assert not rep.details["totally_ramified"]
    assert rep.details["case"] == "support equality or proper avoidance"


def test_commutative_case():
    products = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: -1}}
    c = Algebra(Q, ["1", "i"], products)
    g = trivially_graded(c, GradeGroup.trivial())
    rep = supp_commutator_lemma_check(g)
    assert rep.verdict == "true"
    assert rep.details["case"] == "commutative"
    assert central_commutators_imply_commutative_check(c).verdict == "true"


def test_central_commutators_vacuous_for_matrix_ring():
    m2 = construct_matrix_algebra(Q, 2)
    rep = central_commutators_imply_commutative_check(m2)
    assert rep.verdict == "true"
    assert rep.details.get("vacuous")


def ref_central_commutators(alg):
    """(verdict, vacuous) of `central_commutators_imply_commutative_check`
    by its earlier loop: the basis commutators [e_i, e_j], i < j, formed
    element by element and tested against the centre one at a time, with
    commutativity read off the same products."""
    z = center(alg)
    basis = [alg.basis_element(i) for i in range(alg.dim)]
    commutators = [x * y - y * x for i, x in enumerate(basis) for y in basis[i + 1:]]
    if any(not z.contains(c) for c in commutators):
        return "true", True
    return ("true" if all(c.is_zero() for c in commutators) else "false"), False


def test_central_commutators_match_the_elementwise_loop():
    # [A, A] in Z(A) on one commutator subspace and one centre gives the
    # verdict and the vacuous flag of the element-by-element loop, on the
    # constructor grid and rebased M_2, T_2, F[C_2] and M_3; the detail is
    # an element of [A, A] outside Z(A)
    seen = Counter()
    for alg in central_simple_corpus():
        rep = central_commutators_imply_commutative_check(alg)
        vacuous = bool(rep.details.get("vacuous"))
        assert (rep.verdict, vacuous) == ref_central_commutators(alg), alg
        seen[rep.verdict, vacuous] += 1
        if vacuous:
            x = rep.details["noncentral-commutator"]
            assert commutator_subspace(alg).contains(x) and not center(alg).contains(x)
    assert seen["true", True] > 90 and seen["true", False] > 40 and seen["false", False], seen


def test_group_ring_commutator_support_equals_support():
    # Q[D4]: not totally ramified (identity component is central? no: the
    # grading by D4 itself has 1-dim components; centre is bigger than Q)
    A = construct_group_ring(Q, GradeGroup.dihedral(3))
    rep = supp_commutator_lemma_check(A)
    assert rep.verdict in ("true", "false")  # structural smoke: must not raise
    assert commutator_subspace(A.algebra).dim > 0


def product_of_four_lines():
    """Q^4 = Q x Q x Q x Q on its primitive idempotents a, b, c, d."""
    return Algebra(Q, list("abcd"), {(i, i): {i: 1} for i in range(4)}, unit=[1] * 4)


def test_trace_checks_fail_on_a_commutative_product():
    # Q^4 read as degree 2: Trd(e_i) = Tr(L_(e_i)) / 2 = 1/2, so ker Trd has
    # dimension 3 while [A, A] = 0, and 2a - Trd(a) 1 is not a commutator
    alg = product_of_four_lines()
    rep = trd_kernel_check(alg)
    assert (rep.verdict, rep.counterexample) == ("false", ("dims", 3, 0))
    rep = trd_na_plus_commutator_check(alg, alg.basis_element(0))
    assert rep.verdict == "false"
    assert rep.counterexample == ("element", alg.element([Fraction(3, 2)] + [Fraction(-1, 2)] * 3))
    assert repr(rep.counterexample) == "('element', 3/2*a + -1/2*b + -1/2*c + -1/2*d)"


def test_commutator_support_of_the_exterior_algebra():
    # Lambda(Q^2) = <1, a, b, ab> with a, b odd over Z/2: D_e = <1, ab> is
    # central, [a, b] = 2ab, so Supp[D, D] = {e} meets the identity
    products = {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
                (1, 0): {1: 1}, (2, 0): {2: 1}, (3, 0): {3: 1},
                (1, 2): {3: 1}, (2, 1): {3: -1}}
    ext = Algebra(Q, ["1", "a", "b", "ab"], products, unit=[1, 0, 0, 0])
    z2 = GradeGroup.cyclic(2)
    even, odd = z2.identity, z2.element((1,))
    rep = supp_commutator_lemma_check(GradedAlgebra(ext, z2, [even, odd, odd, even]))
    assert rep.verdict == "false" and rep.details["totally_ramified"]
    assert rep.counterexample == ("supports", {even}, {even, odd})
    assert repr(rep.counterexample) == "('supports', {(0)}, {(0), (1)})"
