import random
from fractions import Fraction

import pytest

from gradedk.algebra import Algebra, is_central_simple, sandwich
from gradedk.azumaya import (EnvelopingAlgebra, braun_check,
                             group_ring_azumaya, is_graded_azumaya_csa,
                             psi_bijective,
                             psi_bijective_matrix_over_graded_field,
                             standard_separability_idempotent,
                             verify_separability_idempotent)
from gradedk.constructors import (construct_group_ring, construct_laurent,
                                  construct_matrix_algebra, construct_quaternion,
                                  construct_symbol_algebra)
from gradedk.fields import FieldSpec
from gradedk.graded import trivially_graded
from gradedk.groups import GradeGroup
from gradedk.matrixring import ShiftedMatrixAlgebra
from randomdata import random_element
from test_kernel import ALGEBRAS, graded_algebras

Q = FieldSpec.rationals()


def pure_tensor(a, b):
    """a (x) b as the n^2 coefficients of A (x) A^op."""
    return tuple(x * y for x in a.coords for y in b.coords)


def quaternion_idempotent(H):
    # e = 1/4 (1 (x) 1 - i (x) i - j (x) j - k (x) k)
    q = Fraction(1, 4)
    basis = [H.algebra.basis_element(t) for t in range(4)]
    terms = [pure_tensor(b, b) for b in basis]
    return tuple(q * (x - y - z - w) for x, y, z, w in zip(*terms))


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
    e = quaternion_idempotent(H)
    assert verify_separability_idempotent(H, e)
    # the solve finds the same idempotent
    assert standard_separability_idempotent(H) == e
    # star action really averages: e * x = Trd-like projection onto the centre
    assert sandwich(H.algebra, e, H.algebra.one) == H.algebra.one
    # perturbed element fails
    ij = pure_tensor(H.algebra.basis_element(1), H.algebra.basis_element(2))
    rep = verify_separability_idempotent(H, [x + y for x, y in zip(e, ij)])
    assert rep.verdict == "false"
    assert rep.counterexample[0] == "star-unit"
    # 1 (x) 1 has e * 1 = 1, but (i (x) 1) e != (1 (x) i) e
    one = pure_tensor(H.algebra.one, H.algebra.one)
    rep = verify_separability_idempotent(H, one)
    assert rep.counterexample == ("commute-condition", "i")


def test_braun_criterion_quaternions():
    H = construct_quaternion(Q, -1, -1)
    assert braun_check(H, quaternion_idempotent(H))
    assert braun_check(H)


def test_braun_rejects_noncentral_precondition():
    products = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: -1}}
    c = Algebra(Q, ["1", "i"], products)
    g = trivially_graded(c, GradeGroup.trivial())
    for e in (pure_tensor(c.one, c.one), None):
        rep = braun_check(g, e)
        assert rep.verdict == "false" and rep.counterexample == ("centre-dim", 2)
    with pytest.raises(ValueError):
        braun_check(g, pure_tensor(c.one, c.one)[:3])


def test_braun_without_separability_idempotent_is_false():
    """The solve is exact, so an inconsistent system proves A is not
    separable: Q[t]/t^2 and GF(3)[S3], graded by the non-abelian S3."""
    dual = Algebra(Q, ["1", "t"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}})
    for g in (trivially_graded(dual, GradeGroup.trivial()),
              construct_group_ring(FieldSpec.prime_field(3), GradeGroup.symmetric_3())):
        assert standard_separability_idempotent(g) is None
        rep = braun_check(g)
        assert rep.verdict == "false"
        assert rep.counterexample == ("no-separability-idempotent",)
    rep = braun_check(construct_group_ring(Q, GradeGroup.symmetric_3()))
    assert rep.verdict == "false" and rep.counterexample == ("centre-dim", 3)


def braun_inputs():
    """Trivially and non-trivially graded inputs over Q and GF(p): random
    constructed ones, bases with non-integral constants, non-abelian
    gradings, p | n, and the degree-4 symbol algebra over GF(13)."""
    trivial = GradeGroup.trivial()
    gf = FieldSpec.prime_field
    out = [trivially_graded(a, trivial) for a in ALGEBRAS] + graded_algebras()
    out += [trivially_graded(construct_matrix_algebra(gf(3), 3), trivial),
            construct_group_ring(gf(3), GradeGroup.cyclic(3)),
            construct_group_ring(gf(2), GradeGroup.dihedral(4)),
            construct_symbol_algebra(gf(13), 4, 2, 3, 5)]
    return out


def test_braun_verdict_matches_psi_and_central_simplicity():
    """Over a field, Azumaya = central separable = central simple: the
    three routes agree on every input."""
    seen = {"true": 0, "false": 0}
    for g in braun_inputs():
        want = is_central_simple(g.algebra).verdict
        assert psi_bijective(g).verdict == want, g.algebra
        rep = braun_check(g)
        assert rep.verdict == want, (g.algebra, rep)
        seen[want] += 1
        if rep:
            assert verify_separability_idempotent(g, standard_separability_idempotent(g))
    assert seen["true"] > 20 and seen["false"] > 20, seen


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
    # psi reads A's table: one psi matrix, and no algebra built on the way
    H = construct_quaternion(Q, -1, -1)
    seen, built = [], []
    psi, init = EnvelopingAlgebra.psi_matrix, Algebra.__init__
    monkeypatch.setattr(EnvelopingAlgebra, "psi_matrix",
                        lambda env: seen.append(env) or psi(env))
    monkeypatch.setattr(Algebra, "__init__",
                        lambda alg, *args, **kwargs: built.append(alg) or init(alg, *args, **kwargs))
    assert psi_bijective(H)
    assert len(seen) == 1
    assert built == []


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
    rng = random.Random(5)
    for _ in range(20):
        a = random_element(H.algebra, rng)
        b = random_element(H.algebra, rng)
        x = random_element(H.algebra, rng)
        assert sandwich(H.algebra, pure_tensor(a, b), x) == a * x * b
