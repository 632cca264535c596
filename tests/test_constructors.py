import random
from fractions import Fraction
from pathlib import Path

import pytest

from gradedk.constructors import (construct_group_ring, construct_laurent,
                                  construct_quaternion,
                                  construct_symbol_algebra,
                                  construct_truncated_polynomial)
from gradedk.fields import FieldSpec
from gradedk.graded import is_graded_division, support, validate_grading
from gradedk.groups import GradeGroup
from gradedk.matrixring import _homogeneous_unit

from constructorgrid import grid_text

Q = FieldSpec.rationals()
F5 = FieldSpec.prime_field(5)


def test_quaternion_relations():
    H = construct_quaternion(Q, 2, 5)
    one, i, j, k = (H.algebra.basis_element(t) for t in range(4))
    assert i * i == one.scale(2)
    assert j * j == one.scale(5)
    assert i * j == k
    assert j * i == -k
    # k^2 = -ab
    assert k * k == one.scale(-10)


def test_quaternion_rejects_bad_input():
    with pytest.raises(ValueError):
        construct_quaternion(Q, 0, 1)
    with pytest.raises(ValueError):
        construct_quaternion(FieldSpec.prime_field(2), 1, 1)
    with pytest.raises(ValueError):
        construct_quaternion(Q, -1, -1, grading="Z3")


def test_quaternion_is_the_degree_2_symbol_algebra():
    # 1, i, j, k are 1, x, y, xy: basis vectors 0, 2, 1, 3 of the symbol
    # algebra, whose basis x^i y^j is in row-major order
    to_symbol = [0, 2, 1, 3]
    for field in (Q, FieldSpec.prime_field(3), F5, FieldSpec.prime_field(7)):
        for a, b in [(-1, -1), (2, -2), (Fraction(1, 2), 11)]:
            H = construct_quaternion(field, a, b)
            S = construct_symbol_algebra(field, 2, a, b, -1)
            assert H.algebra.labels == ["1", "i", "j", "k"]
            assert [H.algebra.unit_coords[t] for t in range(4)] \
                == [S.algebra.unit_coords[to_symbol[t]] for t in range(4)]
            assert H.degrees == [S.degrees[to_symbol[t]] for t in range(4)]
            for s in range(4):
                for t in range(4):
                    assert {to_symbol[k]: c for k, c in H.algebra.products[(s, t)].items()} \
                        == S.algebra.products[(to_symbol[s], to_symbol[t])]


def test_constructor_grid_matches_golden_text():
    """The dump text or the error of each constructor call on the grid of
    `constructorgrid` equals the golden file byte for byte."""
    with open(Path(__file__).parent / "golden" / "constructors.txt", encoding="utf-8") as fh:
        assert grid_text() == fh.read()


def assert_homogeneous_units(g):
    """Every support degree holds the unit that `_homogeneous_unit` finds,
    with its inverse in the inverse degree."""
    for deg in support(g):
        w, w_inv = _homogeneous_unit(g, deg)
        assert g.degree_of(w) == deg and g.degree_of(w_inv) == deg.inverse()
        assert w * w_inv == g.algebra.one == w_inv * w


def test_quaternion_witnesses_verified_by_multiplication():
    for grading in ("Z2xZ2", "Z2", "trivial"):
        assert_homogeneous_units(construct_quaternion(Q, -1, -1, grading=grading))
    # on the Z2 grading the odd degree's unit is the first basis vector, j
    H = construct_quaternion(Q, -1, -1, grading="Z2")
    assert _homogeneous_unit(H, H.degrees[2])[0] == H.algebra.basis_element(2)


def test_symbol_algebra_relations():
    S = construct_symbol_algebra(F5, 2, 2, 3, 4)
    x = S.algebra.basis_element(S.algebra.labels.index("x"))
    y = S.algebra.basis_element(S.algebra.labels.index("y"))
    assert x * x == S.algebra.one.scale(2)
    assert y * y == S.algebra.one.scale(3)
    # xy = xi yx with xi = 4
    assert x * y == (y * x).scale(F5.scalar(4))


def test_symbol_algebra_gf7():
    S = construct_symbol_algebra(FieldSpec.prime_field(7), 3, 2, 3, 2)
    assert S.dim == 9
    x = S.algebra.basis_element(S.algebra.labels.index("x"))
    y = S.algebra.basis_element(S.algebra.labels.index("y"))
    assert x ** 3 == S.algebra.one.scale(2)
    assert y ** 3 == S.algebra.one.scale(3)
    assert x * y == (y * x).scale(FieldSpec.prime_field(7).scalar(2))
    assert is_graded_division(S)


def test_symbol_algebra_rejects_non_primitive_root():
    with pytest.raises(ValueError):
        construct_symbol_algebra(F5, 2, 2, 3, 1)   # 1 is not primitive
    with pytest.raises(ValueError):
        construct_symbol_algebra(F5, 4, 2, 3, 4)   # 4 has order 2 < 4
    with pytest.raises(ValueError):
        construct_symbol_algebra(F5, 2, 0, 3, 4)


def test_symbol_algebra_n1_is_field():
    S = construct_symbol_algebra(Q, 1, 2, 3, 1)
    assert S.dim == 1
    assert S.algebra.one * S.algebra.one == S.algebra.one


def test_symbol_witness_inverses():
    for S in (construct_symbol_algebra(F5, 2, 2, 3, 4),
              construct_symbol_algebra(FieldSpec.prime_field(7), 3, 2, 3, 2)):
        assert_homogeneous_units(S)


def test_laurent_components():
    L = construct_laurent(Q, step=2)
    assert L.has_component(L.group.element((0,)))
    assert L.has_component(L.group.element((-4,)))
    assert not L.has_component(L.group.element((3,)))
    L1 = construct_laurent(Q, step=1)
    assert L1.has_component(L1.group.element((3,)))
    with pytest.raises(ValueError):
        construct_laurent(Q, step=0)


def test_group_ring_z2_commutative():
    A = construct_group_ring(Q, GradeGroup.cyclic(2))
    assert A.dim == 2
    g = A.algebra.basis_element(1)
    assert g * g == A.algebra.one
    assert validate_grading(A)


def test_group_ring_s3_structure():
    A = construct_group_ring(Q, GradeGroup.symmetric_3())
    assert A.dim == 6
    # transposition squared = identity
    t = A.algebra.basis_element(1)
    assert t * t == A.algebra.one
    # noncommutative
    a, b = A.algebra.basis_element(1), A.algebra.basis_element(4)
    assert a * b != b * a
    assert_homogeneous_units(A)


def test_truncated_polynomial():
    T = construct_truncated_polynomial(Q, 4)
    t = T.algebra.basis_element(1)
    assert (t ** 4).is_zero()
    assert not (t ** 3).is_zero()
    with pytest.raises(ValueError):
        construct_truncated_polynomial(Q, 1)


def test_random_quaternions_are_graded_division_over_q():
    # i, j, k are always invertible for nonzero a, b over Q
    rng = random.Random(77)
    for _ in range(25):
        a = Fraction(rng.choice([-5, -3, -2, -1, 2, 3, 5, 7]))
        b = Fraction(rng.choice([-5, -3, -2, -1, 2, 3, 5, 7]))
        H = construct_quaternion(Q, a, b)
        assert validate_grading(H)
        assert is_graded_division(H)
