import random
from fractions import Fraction

import pytest

from gradedk.algebra import Algebra
from gradedk.azumaya import (EnvelopingAlgebra, braun_check,
                             group_ring_azumaya, is_graded_azumaya_csa,
                             psi_bijective,
                             psi_bijective_matrix_over_graded_field,
                             verify_separability_idempotent)
from gradedk.constructors import (construct_laurent, construct_quaternion,
                                  construct_symbol_algebra)
from gradedk.fields import FieldSpec
from gradedk.graded import trivially_graded
from gradedk.groups import GradeGroup
from gradedk.matrixring import ShiftedMatrixAlgebra
from randomdata import random_element

Q = FieldSpec.rationals()


def quaternion_idempotent(H, env):
    # e = 1/4 (1 (x) 1 - i (x) i - j (x) j - k (x) k)
    q = Fraction(1, 4)
    basis = [H.algebra.basis_element(t) for t in range(4)]
    e = env.pure_tensor(basis[0], basis[0]).scale(q)
    for t in (1, 2, 3):
        e = e - env.pure_tensor(basis[t], basis[t]).scale(q)
    return e


def test_psi_full_rank_quaternions():
    H = construct_quaternion(Q, -1, -1)
    rep = psi_bijective(H)
    assert rep.verdict == "true"
    assert rep.details["rank"] == 16 and rep.details["size"] == 16


def test_psi_fails_for_commutative_extension():
    # Q(i) (x) Q(i)^op -> End(Q(i)) cannot be onto: 4 -> 4 but not injective
    products = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: -1}}
    c = Algebra(Q, ["1", "i"], products)
    g = trivially_graded(c, GradeGroup.trivial())
    rep = psi_bijective(g)
    assert rep.verdict == "false"
    assert rep.counterexample[0] == "kernel-vector"


def test_separability_idempotent_checks():
    H = construct_quaternion(Q, -1, -1)
    env = EnvelopingAlgebra(H)
    e = quaternion_idempotent(H, env)
    assert verify_separability_idempotent(H, e, env)
    # star action really averages: e * x = Trd-like projection onto the centre
    assert env.star(e, H.algebra.one) == H.algebra.one
    # perturbed element fails
    bad = e + env.pure_tensor(H.algebra.basis_element(1), H.algebra.basis_element(2))
    rep = verify_separability_idempotent(H, bad, env)
    assert rep.verdict == "false"


def test_braun_criterion_quaternions():
    H = construct_quaternion(Q, -1, -1)
    env = EnvelopingAlgebra(H)
    e = quaternion_idempotent(H, env)
    assert braun_check(H, e, env)


def test_braun_rejects_noncentral_precondition():
    products = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: -1}}
    c = Algebra(Q, ["1", "i"], products)
    g = trivially_graded(c, GradeGroup.trivial())
    env = EnvelopingAlgebra(g)
    with pytest.raises(ValueError):
        braun_check(g, env.pure_tensor(c.one, c.one), env)


def test_graded_csa_route():
    H = construct_quaternion(Q, -1, -1)
    assert is_graded_azumaya_csa(H)
    S5 = construct_symbol_algebra(FieldSpec.prime_field(5), 2, 2, 3, 4)
    assert is_graded_azumaya_csa(S5)
    S7 = construct_symbol_algebra(FieldSpec.prime_field(7), 3, 2, 3, 2)
    assert is_graded_azumaya_csa(S7)


def test_graded_csa_route_lazy_matrix():
    L = construct_laurent(Q, step=2)
    g = L.group
    m = ShiftedMatrixAlgebra(L, [g.element((0,)), g.element((1,)), g.element((1,))])
    rep = is_graded_azumaya_csa(m)
    assert rep
    # the centre check decides every component from one degree per coset of
    # the base support, so the combined verdict is exhaustive
    assert rep.details["graded-simple"].strategy == "constructive"
    assert rep.details["centre"].strategy == "exhaustive"
    assert rep.strategy == "exhaustive"
    assert psi_bijective_matrix_over_graded_field(m)
    m5 = ShiftedMatrixAlgebra(L, [g.element((c,)) for c in (0, 1, 1, 3, 4)])
    rep = psi_bijective_matrix_over_graded_field(m5)
    assert rep.verdict == "true" and rep.details["rank"] == 5 ** 4


def test_psi_bijective_does_not_build_the_enveloping_algebra(monkeypatch):
    seen = []
    psi = EnvelopingAlgebra.psi_matrix
    monkeypatch.setattr(EnvelopingAlgebra, "psi_matrix",
                        lambda env: seen.append(env) or psi(env))
    assert psi_bijective(construct_quaternion(Q, -1, -1))
    assert len(seen) == 1
    assert "tensor" not in vars(seen[0])


def test_group_ring_azumaya_s3():
    S3 = GradeGroup.symmetric_3()
    rep = group_ring_azumaya(Q, S3)
    assert rep.verdict == "true"
    assert rep.details["commutator-order"] == 3
    rep3 = group_ring_azumaya(FieldSpec.prime_field(3), S3)
    assert rep3.verdict == "false"
    assert rep3.counterexample == ("char-divides-commutator-order", 3)
    # GF(2)[S3]: commutator order 3 invertible mod 2
    assert group_ring_azumaya(FieldSpec.prime_field(2), S3)


def test_group_ring_azumaya_dihedral():
    D4 = GradeGroup.dihedral(4)
    # derived subgroup of D4 is {1, r^2}, order 2
    assert group_ring_azumaya(Q, D4)
    assert group_ring_azumaya(FieldSpec.prime_field(2), D4).verdict == "false"
    assert group_ring_azumaya(FieldSpec.prime_field(3), D4)


def test_enveloping_star_action():
    H = construct_quaternion(Q, -1, -1)
    env = EnvelopingAlgebra(H)
    rng = random.Random(5)
    for _ in range(20):
        a = random_element(H.algebra, rng)
        b = random_element(H.algebra, rng)
        x = random_element(H.algebra, rng)
        assert env.star(env.pure_tensor(a, b), x) == a * x * b
