import itertools
from fractions import Fraction

import pytest

from gradedk import linalg
from gradedk.algebra import (Algebra, center, left_regular_matrix, try_invert,
                             two_sided_ideal_closure)
from gradedk.constructors import (construct_group_ring, construct_laurent,
                                  construct_matrix_algebra,
                                  construct_quaternion,
                                  construct_symbol_algebra,
                                  construct_truncated_polynomial)
from gradedk.fields import FieldSpec
from gradedk.graded import (GradedAlgebra, HomogeneousElement,
                            dimension_formula_check, graded_center,
                            graded_module_basis, graded_tensor,
                            is_crossed_product, is_graded_division,
                            is_graded_simple, is_strongly_graded, opposite,
                            support, support_subgroup, trivially_graded,
                            validate_grading)
from gradedk.groups import GradeGroup
from gradedk.matrixring import ShiftedMatrixAlgebra

Q = FieldSpec.rationals()
F3 = FieldSpec.prime_field(3)
F5 = FieldSpec.prime_field(5)


def test_homogeneous_decomposition():
    H = construct_quaternion(Q, -1, -1)
    x = H.algebra.element([1, 2, 0, 5])
    comps = H.homogeneous_components(x)
    assert len(comps) == 3
    total = H.algebra.zero
    for v in comps.values():
        total = total + v
    assert total == x
    assert H.is_homogeneous(H.algebra.basis_element(2))
    assert not H.is_homogeneous(x)
    with pytest.raises(ValueError):
        H.degree_of(x)


def test_validate_grading_catches_bad_degree():
    H = construct_quaternion(Q, -1, -1)
    degs = list(H.degrees)
    degs[3] = H.group.identity  # k moved to the wrong component
    bad = GradedAlgebra(H.algebra, H.group, degs)
    rep = validate_grading(bad)
    assert rep.verdict == "false"
    assert rep.counterexample[0] == "closure"


def test_quaternion_both_gradings():
    for grading in ("Z2", "Z2xZ2"):
        H = construct_quaternion(Q, -1, -1, grading=grading)
        assert validate_grading(H)
        assert is_strongly_graded(H)
        assert is_crossed_product(H)
        assert is_graded_division(H)
    # Z2 grading: components span{1,i} and span{j,k}
    H = construct_quaternion(Q, -1, -1, grading="Z2")
    e = H.group.identity
    assert H.component_indices(e) == [0, 1]
    assert len(H.component_indices(H.group.element((1,)))) == 2


def test_strongly_graded_certificate_verifies():
    H = construct_quaternion(Q, -1, -1)
    rep = is_strongly_graded(H)
    assert rep.verdict == "true"
    # replay each certificate: the weighted pair products must sum to 1
    for deg, cert in rep.witness.items():
        total = H.algebra.zero
        for (i, j), c in cert:
            total = total + (H.algebra.basis_element(i)
                             * H.algebra.basis_element(j)).scale(c)
        assert total == H.algebra.one


def test_truncated_polynomial_not_strongly_graded():
    T = construct_truncated_polynomial(Q, 3)
    assert validate_grading(T)
    rep = is_strongly_graded(T)
    assert rep.verdict == "false"
    assert rep.counterexample[0] == "degree"
    assert not is_crossed_product(T)
    assert is_graded_division(T).verdict == "false"


def test_laurent_twisted_group_algebra():
    L = construct_laurent(Q, step=2)
    g2 = L.group.element((2,))
    g1 = L.group.element((1,))
    assert L.has_component(g2)
    assert not L.has_component(g1)  # odd degrees vanish
    c, g = L.monomial_product(Fraction(2), g2, Fraction(3), g2)
    assert c == 6 and g == L.group.element((4,))
    ci, gi = L.monomial_inverse(Fraction(2), g2)
    assert ci == Fraction(1, 2) and gi == L.group.element((-2,))
    assert is_strongly_graded(L)
    assert is_graded_division(L)
    assert L.is_commutative()


def test_graded_division_vs_simple_symbol():
    S = construct_symbol_algebra(F5, 2, 2, 3, 4)
    assert is_graded_division(S)
    assert is_graded_simple(S)
    assert support(S) == set(S.group.elements())


def test_graded_simple_finds_ideal():
    # Q x Q trivially graded is not graded simple
    prod = {(0, 0): {0: 1}, (1, 1): {1: 1}}
    qq = Algebra(FieldSpec.prime_field(3), ["a", "b"], prod, unit=[1, 1])
    g = trivially_graded(qq, GradeGroup.trivial())
    rep = is_graded_simple(g)
    assert rep.verdict == "false"
    assert rep.counterexample[0] == "proper-ideal-generator"


def _full_scan(g, d):
    """Every nonzero element of the degree-d component, in itertools.product
    order over its coordinates."""
    alg = g.algebra
    idx = g.component_indices(d)
    for coords in itertools.product(alg.field.elements(), repeat=len(idx)):
        if any(coords):
            full = [alg.field.zero] * alg.dim
            for i, c in zip(idx, coords):
                full[i] = c
            yield alg.element(full)


def _first_failing(g, fails):
    return next(x for d in support(g) for x in _full_scan(g, d) if fails(x))


def _shifted_matrix_f3(shift):
    z2 = GradeGroup.cyclic(2)
    scalars = trivially_graded(Algebra(F3, ["1"], {(0, 0): {0: 1}}, unit=[1]), z2)
    return ShiftedMatrixAlgebra(scalars, [z2.element((s,)) for s in shift]).materialized


def _f3_cyclic3_trivially_graded():
    # F_3[Z/3] = F_3[x]/(x - 1)^3 is local: x is a unit iff its augmentation is
    return trivially_graded(construct_group_ring(F3, GradeGroup.cyclic(3)).algebra,
                            GradeGroup.trivial())


def test_graded_simple_witness_matches_full_scan():
    f3xf3 = trivially_graded(Algebra(F3, ["a", "b"], {(0, 0): {0: 1}, (1, 1): {1: 1}},
                                     unit=[1, 1]), GradeGroup.trivial())
    for g in (f3xf3, _f3_cyclic3_trivially_graded()):
        alg = g.algebra
        full = alg.full_subspace()
        rep = is_graded_simple(g)
        assert rep.verdict == "false"
        x = rep.counterexample[1]
        assert x == _first_failing(g, lambda y: two_sided_ideal_closure(alg, [y]) != full)
        # both algebras are commutative, so the ideal of x is x*A, the
        # column space of L_x
        assert linalg.rank(left_regular_matrix(x)) < alg.dim


def test_graded_division_witness_matches_full_scan():
    for g in (_shifted_matrix_f3([0, 1]), _f3_cyclic3_trivially_graded()):
        rep = is_graded_division(g)
        assert rep.verdict == "false"
        x = rep.counterexample[1]
        assert x == _first_failing(g, lambda y: try_invert(y) is None)
        assert try_invert(x) is None
    g = _f3_cyclic3_trivially_graded()
    rep = is_crossed_product(g)
    unit = _first_failing(g, lambda y: try_invert(y) is not None)
    assert rep.witness == {g.group.identity: unit}


def test_component_elements_one_per_line():
    for g in (_shifted_matrix_f3([0, 1]), _shifted_matrix_f3([0, 1, 1]),
              _f3_cyclic3_trivially_graded()):
        for d in support(g):
            k = len(g.component_indices(d))
            lines = list(g.component_elements(d))
            assert len(lines) == (3 ** k - 1) // 2
            for x in lines:
                assert next(c for c in x.coords if c) == 1
            multiples = {x.scale(c) for x in lines for c in (1, 2)}
            assert len(multiples) == 2 * len(lines)
            assert multiples == set(_full_scan(g, d))


def test_graded_center_group_ring_s3():
    A = construct_group_ring(Q, GradeGroup.symmetric_3())
    res = graded_center(A)
    assert res.subspace.dim == 3
    assert not res.is_graded
    assert res.witness is not None
    # the witness is central but has a non-central homogeneous component
    z = center(A.algebra)
    assert z.contains(res.witness)
    comps = A.homogeneous_components(res.witness)
    assert any(not z.contains(v) for v in comps.values())


def test_graded_center_of_quaternions():
    H = construct_quaternion(Q, -1, -1)
    res = graded_center(H)
    assert res.subspace.dim == 1
    assert res.is_graded


def test_opposite_quaternions():
    H = construct_quaternion(Q, -1, -1)
    op = opposite(H)
    i, j, k = (op.algebra.basis_element(t) for t in (1, 2, 3))
    # i *op j = j*i = -k
    assert i * j == -k
    assert j * i == k
    assert validate_grading(op)


def test_graded_tensor_degrees_and_dim():
    H = construct_quaternion(Q, -1, -1)
    t = graded_tensor(H, opposite(H))
    assert t.dim == 16
    assert validate_grading(t)
    # deg(i (x) j) = (1,0)+(0,1)
    idx = t.algebra.labels.index("i(x)j")
    assert t.degrees[idx] == t.group.element((1, 1))


def test_graded_module_basis_dimension():
    H = construct_quaternion(Q, -1, -1)
    gens = [HomogeneousElement(H.algebra.basis_element(1), H.degrees[1]),
            HomogeneousElement(H.algebra.basis_element(1).scale(2), H.degrees[1]),
            HomogeneousElement(H.algebra.basis_element(2), H.degrees[2])]
    basis, dim = graded_module_basis(H, gens)
    assert dim == 2


def test_dimension_formula():
    H = construct_quaternion(Q, -1, -1)
    assert dimension_formula_check(H)  # 4 = 1 * 4
    L_like = construct_symbol_algebra(F5, 2, 2, 3, 4)
    assert dimension_formula_check(L_like)
    T = trivially_graded(construct_matrix_algebra(Q, 2), GradeGroup.trivial())
    assert dimension_formula_check(T)  # 4 = 4 * 1


def test_support_subgroup():
    H = construct_quaternion(Q, -1, -1, grading="Z2")
    s = support_subgroup(H)
    assert s.order == 2
