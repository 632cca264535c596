import random
from fractions import Fraction

import pytest

from gradedk.algebra import Algebra, is_central_simple, star_action
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
from enveloping import enveloping_product
from randomdata import random_element
from test_kernel import ALGEBRAS, graded_algebras, rebased

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
    assert star_action(H.algebra, e)(H.algebra.one) == H.algebra.one
    # perturbed element fails
    ij = pure_tensor(H.algebra.basis_element(1), H.algebra.basis_element(2))
    rep = verify_separability_idempotent(H, [x + y for x, y in zip(e, ij)])
    assert rep.verdict == "false"
    assert rep.counterexample[0] == "star-unit"
    # 1 (x) 1 has e * 1 = 1, but (i (x) 1) e != (1 (x) i) e
    one = pure_tensor(H.algebra.one, H.algebra.one)
    rep = verify_separability_idempotent(H, one)
    assert rep.counterexample == ("commute-condition", "i")


def _first_noncommuting(alg, e):
    """The label of the first basis a, in basis order, with
    (a (x) 1) e != (1 (x) a) e, or None."""
    for i in range(alg.dim):
        a = alg.basis_element(i)
        if (enveloping_product(alg, pure_tensor(a, alg.one), e)
                != enveloping_product(alg, pure_tensor(alg.one, a), e)):
            return alg.labels[i]
    return None


def test_separability_verifier_reports_the_first_failing_basis_element():
    # the standard idempotent plus b_i (x) b_j - b_i b_j (x) 1, which keeps
    # e * 1 = 1, checked on generators first and reported in basis order
    rng = random.Random(3607)
    graded = [trivially_graded(construct_matrix_algebra(Q, 3), GradeGroup.trivial()),
              construct_quaternion(Q, -1, -1),
              construct_group_ring(Q, GradeGroup.symmetric_3()),
              construct_group_ring(FieldSpec.prime_field(5), GradeGroup.dihedral(4))]
    labels = set()
    for g in graded:
        alg = g.algebra
        e = standard_separability_idempotent(g)
        for _ in range(6):
            bi, bj = (alg.basis_element(rng.randrange(alg.dim)) for _ in range(2))
            moved = [x + y - z for x, y, z in
                     zip(e, pure_tensor(bi, bj), pure_tensor(bi * bj, alg.one))]
            want = _first_noncommuting(alg, moved)
            rep = verify_separability_idempotent(g, moved)
            assert rep.verdict == ("false" if want else "true")
            assert rep.counterexample == (("commute-condition", want) if want else None)
            labels.add(want)
    assert len(labels) > 4
    # M_3(Q) generated by e12, e21, e23, e32: 1 (x) 1 fails first at e11,
    # outside that set; the generator pass stops at e12 and the rescan of the
    # basis reports e11
    m3 = construct_matrix_algebra(Q, 3)
    m3.generating_set = [1, 3, 5, 7]
    one = pure_tensor(m3.one, m3.one)
    assert _first_noncommuting(m3, one) == "e11"
    rep = verify_separability_idempotent(trivially_graded(m3, GradeGroup.trivial()), one)
    assert rep.counterexample == ("commute-condition", "e11")


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


def test_braun_star_conditions_name_their_counterexample():
    # on M_2(Q), 1 (x) 1 acts as the identity: e * 1 = 1, and e * e11 = e11
    # lies outside the centre; 2 (1 (x) 1) already sends 1 to 2
    g = trivially_graded(construct_matrix_algebra(Q, 2), GradeGroup.trivial())
    alg = g.algebra
    e11 = alg.basis_element(0)
    one = pure_tensor(alg.one, alg.one)
    assert [k for k, c in enumerate(one) if c] == [0, 3, 12, 15]
    rep = braun_check(g, one)
    assert (rep.verdict, rep.counterexample) == ("false", ("star-image", "e11", e11))
    assert repr(rep.counterexample) == "('star-image', 'e11', 1*e11)"
    rep = braun_check(g, [2 * c for c in one])
    assert (rep.verdict, rep.counterexample) == ("false", ("star-unit", alg.one.scale(Q.scalar(2))))
    assert repr(rep.counterexample) == "('star-unit', 2*e11 + 2*e22)"


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


def test_psi_and_braun_on_rebased_m3_rationals():
    """M_3(Q) on a random basis with fractional constants: the 81 x 81 psi
    system and Braun's solve, whose integer rows grow under elimination."""
    g = trivially_graded(rebased(construct_matrix_algebra(Q, 3), random.Random(5)),
                         GradeGroup.trivial())
    rep = psi_bijective(g)
    assert rep.verdict == "true" and rep.details == {"rank": 81, "size": 81}
    assert braun_check(g).verdict == "true"


def test_braun_m6_rationals():
    g = trivially_graded(construct_matrix_algebra(Q, 6), GradeGroup.trivial())
    assert braun_check(g).verdict == "true"


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
    # the centre check is a closed form over the commutative base, so the
    # combined verdict is exhaustive
    assert rep.details["graded-simple"].strategy == "constructive"
    assert rep.details["centre"].strategy == "exhaustive"
    assert rep.strategy == "exhaustive"
    assert psi_bijective_matrix_over_graded_field(m)
    m5 = ShiftedMatrixAlgebra(L, [g.element((c,)) for c in (0, 1, 1, 3, 4)])
    rep = psi_bijective_matrix_over_graded_field(m5)
    assert rep.verdict == "true" and rep.details["rank"] == 5 ** 4


def test_psi_and_graded_csa_on_a_materialized_base_matrix_ring():
    # M_2(GF(3))(0, 1) over Z/2 on a trivially graded base: the predicates
    # decide its materialization, as they do when handed that directly
    z2 = GradeGroup.cyclic(2)
    base = trivially_graded(Algebra(FieldSpec.prime_field(3), ["1"], {(0, 0): {0: 1}},
                                    unit=[1]), z2)
    m = ShiftedMatrixAlgebra(base, [z2.element((0,)), z2.element((1,))])
    assert not m.lazy
    for predicate in (psi_bijective, is_graded_azumaya_csa):
        rep = predicate(m)
        assert rep.verdict == "true"
        assert rep == predicate(m.materialized)


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
        assert star_action(H.algebra, pure_tensor(a, b))(x) == a * x * b
