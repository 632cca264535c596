import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gradedk.algebra import Algebra
from gradedk.constructors import (construct_group_ring, construct_laurent,
                                  construct_matrix_algebra)
from gradedk.fields import FieldSpec
from gradedk.graded import support_subgroup
from gradedk.groups import GradeGroup, SubgroupSpec
from gradedk.ktheory import (INFINITE_RANK_FREE, CsaShape, FGAbelianGroup,
                             ck0_zk0, compare_localized, k0_of_semisimple,
                             k0gr_graded_division, k0gr_strongly_graded,
                             localize, split_identity_component,
                             torsion_bound_check)
from gradedk.matrixring import ShiftedMatrixAlgebra, identity_component, \
    is_strongly_graded_matrix

Q = FieldSpec.rationals()
F5 = FieldSpec.prime_field(5)


def test_fg_abelian_canonical_form():
    assert FGAbelianGroup.from_presentation(1, [4, 6]) == FGAbelianGroup(1, (2, 12))
    assert FGAbelianGroup.from_presentation(0, [1, 1]) == FGAbelianGroup(0)
    assert FGAbelianGroup.from_presentation(2, [3, 5]) == FGAbelianGroup(2, (15,))
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (4, 2))  # not a divisibility chain
    assert repr(FGAbelianGroup(1, (2,))) == "Z x Z/2"
    assert repr(FGAbelianGroup(0)) == "0"


def test_localize():
    assert localize(FGAbelianGroup(1, (2,)), 2) == FGAbelianGroup(1)
    assert localize(FGAbelianGroup(0, (12,)), 2) == FGAbelianGroup(0, (3,))
    assert localize(FGAbelianGroup(0, (12,)), 6) == FGAbelianGroup(0)
    assert localize(FGAbelianGroup(2), 5) == FGAbelianGroup(2)
    assert localize(INFINITE_RANK_FREE, 3) == INFINITE_RANK_FREE


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 3),
       st.lists(st.integers(2, 30), max_size=3),
       st.integers(1, 30), st.integers(1, 30))
def test_localize_idempotent_and_multiplicative(rank, torsion, n, m):
    g = FGAbelianGroup.from_presentation(rank, torsion)
    ln = localize(g, n)
    assert localize(ln, n) == ln
    assert localize(g, n * m) == localize(localize(g, n), m)


def test_k0gr_graded_division_cosets():
    Z22 = GradeGroup.product_of_cyclic(2, 2)
    full = SubgroupSpec(Z22, [Z22.element((1, 0)), Z22.element((0, 1))])
    triv = SubgroupSpec(Z22, [])
    assert k0gr_graded_division(Z22, full) == FGAbelianGroup(1)
    assert k0gr_graded_division(Z22, triv) == FGAbelianGroup(4)
    Z = GradeGroup.integers()
    assert k0gr_graded_division(Z, SubgroupSpec(Z, [Z.element((2,))])) == FGAbelianGroup(2)
    assert k0gr_graded_division(Z, SubgroupSpec(Z, [])) == INFINITE_RANK_FREE


def test_quaternion_vs_trivial_grading_localized():
    # Z vs Z^4; still different after inverting 2
    rep = compare_localized(FGAbelianGroup(1), FGAbelianGroup(4), 2)
    assert rep.verdict == "false"
    # torsion-only differences can disappear
    rep = compare_localized(FGAbelianGroup(1, (2,)), FGAbelianGroup(1, (4,)), 2)
    assert rep.verdict == "true"


def _laurent_block_pipeline(field):
    L = construct_laurent(field, step=2)
    g = L.group
    m = ShiftedMatrixAlgebra(L, [g.element((0,)), g.element((1,)), g.element((1,))])
    sg = is_strongly_graded_matrix(m)
    assert sg.verdict == "true"
    k0, dec = k0gr_strongly_graded(m, sg)
    return k0, dec


def test_laurent_matrix_k0_over_q_and_gf5():
    for field in (Q, F5):
        k0, dec = _laurent_block_pipeline(field)
        assert k0 == FGAbelianGroup(2)
        assert [(b.dim, b.matrix_size) for b in dec.blocks] == [(1, 1), (4, 2)]
        assert dec.fully_resolved


def test_k0gr_requires_certificate():
    from gradedk.verdict import VerdictReport, UNDECIDED, EXHAUSTIVE
    bogus = VerdictReport("strongly-graded", UNDECIDED, EXHAUSTIVE)
    with pytest.raises(ValueError):
        k0gr_strongly_graded(None, bogus)


def test_split_identity_component_products():
    # Q x M_2(Q) built directly
    m2 = construct_matrix_algebra(Q, 2)
    labels = ["a"] + list(m2.labels)
    products = {(0, 0): {0: 1}}
    for (i, j), terms in m2.products.items():
        products[(i + 1, j + 1)] = {k + 1: c for k, c in terms.items()}
    alg = Algebra(Q, labels, products, unit=[1, 1, 0, 0, 1])
    dec = split_identity_component(alg)
    assert [(b.dim, b.centre_dim, b.matrix_size) for b in dec.blocks] \
        == [(1, 1, 1), (4, 1, 2)]
    assert k0_of_semisimple(dec) == FGAbelianGroup(2)


def test_split_identity_component_field_extension_block():
    # Q(i): one block, centre dim 2, not a matrix ring over Q
    products = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: -1}}
    c = Algebra(Q, ["1", "i"], products)
    dec = split_identity_component(c)
    assert len(dec.blocks) == 1
    assert dec.blocks[0].centre_dim == 2
    assert k0_of_semisimple(dec) == FGAbelianGroup(1)


def test_split_rejects_non_semisimple():
    # dual numbers Q[t]/(t^2)
    products = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    dual = Algebra(Q, ["1", "t"], products)
    with pytest.raises(ValueError):
        split_identity_component(dual)


def test_split_group_ring_s3():
    # Q[S3] = Q x Q x M_2(Q)
    A = construct_group_ring(Q, GradeGroup.symmetric_3())
    dec = split_identity_component(A.algebra)
    assert [(b.dim, b.matrix_size) for b in dec.blocks] == [(1, 1), (1, 1), (4, 2)]
    # GF(5)[S3] splits the same way (5 does not divide 6)
    A5 = construct_group_ring(F5, GradeGroup.symmetric_3())
    dec5 = split_identity_component(A5.algebra)
    assert [(b.dim, b.matrix_size) for b in dec5.blocks] == [(1, 1), (1, 1), (4, 2)]


def test_ck0_zk0_small_values():
    for n in range(1, 13):
        data = ck0_zk0(CsaShape(n))
        assert data.zk0 == FGAbelianGroup(0)
        if n == 1:
            assert data.ck0 == FGAbelianGroup(0)
        else:
            assert data.ck0 == FGAbelianGroup(0, (n,))
        assert torsion_bound_check(data.ck0, n)
        assert localize(data.ck0, n) == FGAbelianGroup(0)
    # index of the division part multiplies in
    assert ck0_zk0(CsaShape(2, 3)).ck0 == FGAbelianGroup(0, (6,))


def test_torsion_bound_violation_detected():
    rep = torsion_bound_check(FGAbelianGroup(0, (8,)), 2)
    assert rep.verdict == "false"


def test_coset_formula_vs_brute_force_module_classes():
    # trivially graded GF(2) base over finite Gamma: the number of iso classes
    # of rank-1 graded free modules equals the coset count driving the rank of
    # graded K0; the iso oracle is solve_shift_matrix
    from gradedk.graded import trivially_graded
    from gradedk.matrixring import solve_shift_matrix
    F2 = FieldSpec.prime_field(2)
    for orders in ((2,), (3,), (2, 2)):
        G = GradeGroup.product_of_cyclic(*orders)
        base = trivially_graded(
            Algebra(F2, ["1"], {(0, 0): {0: 1}}, unit=[1]), G)
        elems = G.elements()
        classes = []
        for g in elems:
            placed = False
            for cls in classes:
                if solve_shift_matrix(base, [cls[0]], [g]).verdict == "true":
                    cls.append(g)
                    placed = True
                    break
            if not placed:
                classes.append([g])
        # trivial unit-degree subgroup: every degree is its own class
        assert len(classes) == len(elems)
        assert k0gr_graded_division(G, SubgroupSpec(G, [])).rank == len(classes)
