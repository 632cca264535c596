import functools
import itertools
import random
from fractions import Fraction

import pytest

from gradedk import linalg
from gradedk.algebra import (Algebra, center, integer_regular_rows, jacobson_radical,
                             try_invert, two_sided_ideal_closure)
from gradedk.constructors import (construct_group_ring, construct_laurent,
                                  construct_matrix_algebra,
                                  construct_quaternion,
                                  construct_symbol_algebra,
                                  construct_truncated_polynomial)
from gradedk.fields import FieldSpec
from gradedk.graded import (GradedAlgebra, TwistedGroupAlgebra,
                            dimension_formula_check, graded_radical, graded_tensor, is_graded_division,
                            is_graded_simple, is_strongly_graded, strong_grading_report,
                            support, support_subgroup, trivially_graded,
                            validate_grading)
from gradedk.groups import GradeGroup, SubgroupSpec, coset_label_columns, quotient_invariants
from gradedk.matrixring import ShiftedMatrixAlgebra, is_crossed_product, solve_shift_matrix
from constructorgrid import cases
from randomdata import random_constructed
import scalarlinalg
from shiftoracle import assert_top_certificate
from test_groups import brute_closure
from test_kernel import opposite
from test_ktheory import (cyclic_cubic_division_algebra, m2_over_q_sqrt2,
                          product_algebra, scalars, upper_triangular)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)
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
    with pytest.raises(ValueError, match="closure"):
        GradedAlgebra(H.algebra, H.group, degs)


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


def test_strong_grading_report_asks_each_generator_and_its_inverse():
    # 1 in R_g R_(g^-1) says nothing of R_(g^-1) R_g: a certificate at g
    # alone is a false at g^-1, and no degree is asked twice
    G = GradeGroup.cyclic(3)
    g, h = G.element((1,)), G.element((2,))
    asked = []

    def certify(d):
        asked.append(d)
        return None if d == h else ("certificate", d)
    rep = strong_grading_report([g], certify)
    assert rep.verdict == "false" and rep.counterexample == ("degree", h)
    assert asked == [g, h]
    asked.clear()
    rep = strong_grading_report([g, h], lambda d: asked.append(d) or ("certificate", d))
    assert rep.verdict == "true" and rep.strategy == "constructive"
    assert rep.witness == {g: ("certificate", g), h: ("certificate", h)}
    assert asked == [g, h]


def test_laurent_twisted_group_algebra():
    L = construct_laurent(Q, step=2)
    g2 = L.group.element((2,))
    g1 = L.group.element((1,))
    assert L.has_component(g2)
    assert not L.has_component(g1)  # odd degrees vanish
    c, g = L.monomial_product(Fraction(2), g2, Fraction(3), g2)
    assert c == 6 and g == L.group.element((4,))
    assert is_strongly_graded(L)
    assert is_graded_division(L)
    assert L.is_commutative()


def test_zero_cocycle_value_is_rejected():
    # u_g u_(g^-1) = 0 would make every u_g a zero divisor, not a unit
    z = GradeGroup.integers()
    with pytest.raises(ValueError, match="vanishes"):
        TwistedGroupAlgebra(Q, z, SubgroupSpec(z, [z.element((1,))]),
                            cocycle=lambda g, h: 0)


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
    """The first nonzero homogeneous element, in a full scan of every
    component, for which fails holds; None if there is none. With try_invert
    and the two-sided ideal closure this is the exhaustive GF(p) scan the
    graded predicates once ran, kept here as their reference."""
    return next((x for d in support(g) for x in _full_scan(g, d) if fails(x)), None)


def _non_unit(g):
    return _first_failing(g, lambda y: try_invert(y) is None)


def _proper_ideal_generator(g):
    full = g.algebra.full_subspace()
    return _first_failing(g, lambda y: two_sided_ideal_closure(g.algebra, [y]) != full)


def _shifted_matrix(base, shift):
    return ShiftedMatrixAlgebra(base, [base.group.element((s,)) for s in shift]).materialized


def _shifted_matrix_f3(shift):
    z2 = GradeGroup.cyclic(2)
    return _shifted_matrix(trivially_graded(scalars(F3), z2), shift)


def _f3_cyclic3_trivially_graded():
    # F_3[Z/3] = F_3[x]/(x - 1)^3 is local: x is a unit iff its augmentation is
    return trivially_graded(construct_group_ring(F3, GradeGroup.cyclic(3)).algebra,
                            GradeGroup.trivial())


def _group_ring_tensor(p, factor):
    # F_p[C_p] (x) B with B in degree e: the radical contains (1 - g) (x) B,
    # which is not graded
    cp = GradeGroup.cyclic(p)
    return graded_tensor(construct_group_ring(FieldSpec.prime_field(p), cp),
                         trivially_graded(factor, cp))


def _f2_cyclic2_pair():
    # the radical (1 + g) (x) (F_2 x F_2) has graded part 0, so the central
    # idempotents of degree e decide
    return _group_ring_tensor(2, product_algebra(scalars(F2), scalars(F2)))


def _assert_division_witness(g, rep):
    kind, x = rep.counterexample[:2]
    if kind == "noninvertible":
        assert g.is_homogeneous(x) and not x.is_zero()
        assert try_invert(x) is None
    else:
        assert kind in ("degree", "identity-component")


def _assert_simple_witness(g, rep):
    kind, x = rep.counterexample
    assert kind == "proper-ideal-generator"
    assert g.is_homogeneous(x) and not x.is_zero()
    assert two_sided_ideal_closure(g.algebra, [x]) != g.algebra.full_subspace()


def test_graded_simple_witness_matches_full_scan():
    f3xf3 = trivially_graded(Algebra(F3, ["a", "b"], {(0, 0): {0: 1}, (1, 1): {1: 1}},
                                     unit=[1, 1]), GradeGroup.trivial())
    for g in (f3xf3, _f3_cyclic3_trivially_graded(), _f2_cyclic2_pair()):
        rep = is_graded_simple(g)
        assert rep.verdict == "false"
        _assert_simple_witness(g, rep)
    # an ungraded radical with graded part 0 leaves Z(A) n A_e to decide; its
    # first primitive idempotent is the full scan's first failing element
    g = _f2_cyclic2_pair()
    assert is_graded_simple(g).counterexample[1] == _proper_ideal_generator(g)
    # F_3[Z/3] is commutative, so the ideal of x is x*A, the column space of L_x
    x = is_graded_simple(_f3_cyclic3_trivially_graded()).counterexample[1]
    assert linalg.rank(integer_regular_rows(x.owner, x.owner.field.to_ints(x.coords)[0]),
                       x.owner.field) < 3


def test_group_ring_tensor_over_the_line_budget_is_decided():
    # F_3[C_3] (x) F_3^12 has 3 * 3^12 homogeneous elements, past the
    # enumeration budget; J^gr = 0 and 1 (x) F_3^12 is Z(A) n A_e
    g = _group_ring_tensor(3, functools.reduce(product_algebra, [scalars(F3)] * 12))
    assert g.dim == 36
    rep = is_graded_simple(g)
    assert rep.verdict == "false"
    _assert_simple_witness(g, rep)
    f = rep.counterexample[1]
    assert f * f == f and g.degree_of(f) == g.group.identity
    assert center(g.algebra).contains(f)


def test_graded_division_witness_matches_full_scan():
    for g in (_shifted_matrix_f3([0, 1]), _f3_cyclic3_trivially_graded()):
        rep = is_graded_division(g)
        assert rep.verdict == "false"
        _assert_division_witness(g, rep)
    # degree e holds 1; A_1 = span(E12, E21) holds the unit E12 + E21, but
    # no basis unit, so the covering-algebra tops decide it
    g = _f3_cyclic3_trivially_graded()
    assert is_crossed_product(g).witness == {g.group.identity: g.algebra.one}
    g = _shifted_matrix_f3([0, 1])
    odd = g.group.element((1,))
    assert any(try_invert(x) is not None for x in _full_scan(g, odd))
    rep = is_crossed_product(g)
    assert (rep.verdict, rep.strategy, list(rep.witness)) == ("true", "exhaustive", [odd])
    _assert_crossed_product_certificates(g, rep)


def _assert_crossed_product_certificates(g, rep):
    """Each degree's witness is a homogeneous unit of that degree or a top
    certificate that the covering-algebra test recomputes; a false names
    the degree gamma, where A(gamma) and A are not isomorphic, and carries
    either the recomputed certificate of A(gamma) vs A or the degree where 1
    lies outside A_gamma A_(gamma^-1), a span recomputed here."""
    e = g.group.identity
    if rep.is_false:
        _, gamma, cert = rep.counterexample
        shift = solve_shift_matrix(g, [e], [gamma])
        assert shift.is_false
        if cert[0] == "not-strongly-graded":
            assert cert == ("not-strongly-graded", gamma)
            alg = g.algebra
            products = [(alg.basis_element(i) * alg.basis_element(j)).coords
                        for i in g.component_indices(gamma)
                        for j in g.component_indices(gamma.inverse())]
            rank = lambda rows: linalg.rank(linalg.int_rows(rows, g.field), g.field)
            assert rank(products + [alg.unit_coords]) == rank(products) + 1
            return
        assert shift.counterexample == cert
        assert_top_certificate(g, [e], [gamma], shift)
        return
    for gamma, w in rep.witness.items():
        if isinstance(w, tuple):
            shift = solve_shift_matrix(g, [e], [gamma])
            assert shift.witness == w
            assert_top_certificate(g, [e], [gamma], shift)
        else:
            assert g.degree_of(w) == gamma and try_invert(w) is not None


def _oracle_inputs():
    """Small GF(p) inputs for the differential test against the full scans."""
    rng = random.Random(8080)
    drawn = (random_constructed(rng) for _ in range(150))
    out = [g for g in drawn if g.field.kind == "prime-field"][:80]
    for p in (2, 3, 5):
        f = FieldSpec.prime_field(p)
        trivial = GradeGroup.trivial()
        out += [trivially_graded(a, trivial)
                for a in (product_algebra(scalars(f), scalars(f)),
                          construct_matrix_algebra(f, 2), upper_triangular(f))]
        for q in (2, 3):
            base = trivially_graded(scalars(f), GradeGroup.cyclic(q))
            out += [_shifted_matrix(base, s) for s in itertools.product(range(q), repeat=2)]
            # a common translation of the shift gives the same grading
            if p ** 2 * q <= 18:
                out += [_shifted_matrix(base, (0,) + s)
                        for s in itertools.product(range(q), repeat=2) if p < 3 or any(s)]
        cp = GradeGroup.cyclic(p)
        group_ring = construct_group_ring(f, cp)
        out += [group_ring, _group_ring_tensor(p, product_algebra(scalars(f), scalars(f)))]
        if p < 5:
            out += [_shifted_matrix(group_ring, s) for s in ((0, 0), (0, 1))]
            # F_p[t]/(t^2) in degree e: J is not graded, J^gr = F_p[C_p] (x) t
            out.append(_group_ring_tensor(p, construct_truncated_polynomial(f, 2).algebra))
        # over F_p[C_q], p prime to q, J = 0 and Z(A) has idempotents outside A_e
        coprime = construct_group_ring(f, GradeGroup.cyclic(3 if p == 2 else 2))
        out += [_shifted_matrix(coprime, s) for s in ((0, 0), (0, 1))]
    return out


def test_graded_predicates_match_full_scan_oracle():
    inputs = _oracle_inputs()
    assert len(inputs) >= 150
    for g in inputs:
        division, simple = is_graded_division(g), is_graded_simple(g)
        assert division.verdict == ("false" if _non_unit(g) else "true"), g.algebra
        assert simple.verdict == ("false" if _proper_ideal_generator(g) else "true"), g.algebra
        if division.is_false:
            _assert_division_witness(g, division)
        if simple.is_false:
            _assert_simple_witness(g, simple)


def test_crossed_product_matches_full_scan_oracle():
    # A is a crossed product iff every support degree holds a unit
    for g in _oracle_inputs():
        rep = is_crossed_product(g)
        units = all(any(try_invert(x) is not None for x in _full_scan(g, d))
                    for d in support(g))
        assert rep.verdict == ("true" if units else "false"), g.algebra
        _assert_crossed_product_certificates(g, rep)


def reference_graded_radical(g):
    """J^gr as the sum of the J n A_d, from the radical J of all of A: the
    computation `graded_radical` replaced, kept as its reference. Each
    J n A_d is the combinations of J's rows that vanish off A_d."""
    alg, field = g.algebra, g.field
    rows = jacobson_radical(alg).rows
    parts = []
    for d in support(g) if rows else ():
        off = [[row[i] for row in rows] for i, e in enumerate(g.degrees) if e != d]
        kept = scalarlinalg.nullspace(off, len(rows), field)
        parts += linalg.mat_mul(kept, rows) if kept else []
    return alg.subspace(parts)


def _random_shifted_matrices(count):
    """Materialized M_2(R)(s) over random constructed bases R of dimension
    at most 6, with s drawn from the support of R, or from -2..2 over Z."""
    rng = random.Random(5)
    out = []
    while len(out) < count:
        base = random_constructed(rng)
        if base.dim > 6:
            continue
        if base.group.is_finite():
            degrees = sorted(support(base), key=lambda d: d.coords)
            shift = [rng.choice(degrees) for _ in range(2)]
        else:
            shift = [base.group.element((rng.randrange(-2, 3),)) for _ in range(2)]
        out.append(ShiftedMatrixAlgebra(base, shift).materialized)
    return out


def test_graded_radical_matches_the_graded_part_of_the_radical():
    # Cohen-Montgomery for finite groups; over Z (truncated polynomials and
    # matrix rings over them) the comparison is the evidence
    rng = random.Random(17)
    inputs = (_oracle_inputs() + [random_constructed(rng) for _ in range(200)]
              + _random_shifted_matrices(100))
    assert len(inputs) >= 312
    nonzero = 0
    for g in inputs:
        radical = graded_radical(g)
        assert radical == reference_graded_radical(g), g.algebra
        assert all(g.is_homogeneous(x) for x in radical.basis_elements())
        nonzero += radical.dim > 0
    assert nonzero >= 52


def test_crossed_product_over_gf3_reads_the_identity_component():
    # M_3(M_3(F_3))(0, 0, 1) over C_2: 3 divides both block sizes of
    # A_e = M_6(F_3) x M_3(F_3), so its trace form vanishes, and the radical
    # of the whole 162-dim covering algebra once took minutes
    c2 = GradeGroup.cyclic(2)
    g = _shifted_matrix(trivially_graded(construct_matrix_algebra(F3, 3), c2), (0, 0, 1))
    assert g.dim == 81
    rep = is_crossed_product(g)
    assert rep.verdict == "false"
    e, one = c2.identity, c2.element((1,))
    assert rep.counterexample == ("degree", one,
                                  ("top-dimensions", (e, one), (27, 54), (54, 27)))
    shift = solve_shift_matrix(g, [e], [one])
    assert shift.counterexample == rep.counterexample[2]
    idems = shift.details["idempotents"]
    top = idems[0].owner
    basis = [top.basis_element(k) for k in range(top.dim)]
    total = top.zero
    for f in idems:
        assert f * f == f and all(f * b == b * f for b in basis)
        assert all((f * h).is_zero() for h in idems if h is not f)
        total = total + f
    assert total == top.one
    # the eps_s sum to 1, so the v(s)_b add up to dim E/J
    assert sum(map(sum, shift.details["dimensions"].values())) == top.dim


def test_graded_simple_on_a_45_dim_shifted_matrix_ring():
    # M_3(F_5[C_5])(0, 1, 2): its radical is 36-dim, its graded radical 0
    c5 = GradeGroup.cyclic(5)
    g = _shifted_matrix(construct_group_ring(F5, c5), (0, 1, 2))
    assert g.dim == 45
    assert graded_radical(g).dim == 0
    assert is_graded_simple(g).verdict == "true"


def test_split_quaternions_are_not_graded_division_over_q():
    # (1, 1), (1, -1) and (2, -1) are M_2(Q), which has zero divisors
    for a, b in ((1, 1), (1, -1), (2, -1)):
        H = construct_quaternion(Q, a, b, grading="trivial")
        rep = is_graded_division(H)
        assert rep.verdict == "false"
        assert rep.counterexample[0] == "noninvertible"
        _assert_division_witness(H, rep)
        assert is_graded_simple(H).verdict == "true"
    # Z2 grading: A_0 = Q[i] is Q x Q for i^2 = 1 and the field Q(sqrt 2) for i^2 = 2
    H = construct_quaternion(Q, 1, 1, grading="Z2")
    rep = is_graded_division(H)
    assert rep.verdict == "false"
    _assert_division_witness(H, rep)
    assert is_graded_division(construct_quaternion(Q, 2, -1, grading="Z2")).verdict == "true"


def test_untyped_identity_component_is_undecided_with_reason():
    # (1, 1 / Q) (x) Q(sqrt 2) is M_2(Q(sqrt 2)) on a basis of units; the
    # splitter leaves blocks with a centre larger than Q untyped
    g = trivially_graded(m2_over_q_sqrt2(), GradeGroup.trivial())
    rep = is_graded_division(g)
    assert rep.verdict == "undecided"
    assert rep.details == {"reason": "identity-component-untyped",
                           "block-reason": "proper-centre"}
    assert is_graded_simple(g).verdict == "true"
    # a degree-3 division algebra over Q: no block basis element has a
    # spectral idempotent with a rank-one corner
    g = trivially_graded(cyclic_cubic_division_algebra(), GradeGroup.trivial())
    rep = is_graded_division(g)
    assert rep.verdict == "undecided"
    assert rep.details["block-reason"] == "no-rank-one-corner"


def test_q_times_q_is_neither_graded_division_nor_simple():
    # basis u = (1, 1), v = (1, 2): v^2 = -2u + 3v
    qq = Algebra(Q, ["u", "v"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                                 (1, 1): {0: -2, 1: 3}}, unit=[1, 0])
    g = trivially_graded(qq, GradeGroup.trivial())
    for predicate in (is_graded_division, is_graded_simple):
        rep = predicate(g)
        assert rep.verdict == "false"
        f = rep.counterexample[1]
        assert f * f == f and f not in (qq.zero, qq.one)


def test_crossed_product_over_q_is_exact():
    # Q[t]/t^3: A_1 A_-1 = 0, since A_-1 = 0, so A_1 holds no unit
    g = construct_truncated_polynomial(Q, 3)
    rep = is_crossed_product(g)
    assert (rep.verdict, rep.strategy) == ("false", "exhaustive")
    one = g.group.element((1,))
    assert rep.counterexample == ("degree", one, ("not-strongly-graded", one))
    _assert_crossed_product_certificates(g, rep)
    # M_3(Q)(0,0,1) over C_2 is strongly graded (E13 E31 = E11, E23 E32 =
    # E22, E31 E13 = E33 lie in A_1 A_1), but every element of A_1 =
    # span(E13, E23, E31, E32) has rank <= 2; the tops of E = End_gr(A +
    # A(1)) tell A(1) from A
    c2 = GradeGroup.cyclic(2)
    g = _shifted_matrix(trivially_graded(scalars(Q), c2), [0, 0, 1])
    assert is_strongly_graded(g)
    rep = is_crossed_product(g)
    assert (rep.verdict, rep.strategy) == ("false", "exhaustive")
    odd = c2.element((1,))
    assert rep.counterexample == ("degree", odd, ("top-dimensions", (c2.identity, odd),
                                                  (6, 3), (3, 6)))
    _assert_crossed_product_certificates(g, rep)
    # M_2(Q)[C_2] graded by C_2: no basis vector e_ij g of A_1 is invertible;
    # the tops of E = End_gr(A + A(1)) decide it
    c2 = GradeGroup.cyclic(2)
    g = graded_tensor(trivially_graded(construct_matrix_algebra(Q, 2), c2),
                      construct_group_ring(Q, c2))
    rep = is_crossed_product(g)
    assert (rep.verdict, rep.strategy) == ("true", "exhaustive")
    assert list(rep.witness) == [c2.element((1,))]
    _assert_crossed_product_certificates(g, rep)


def test_crossed_product_unit_search_budget():
    # M_3(F_5)[C_2] graded by C_2: A_1 = M_3(F_5) g has 5^9 lines and no
    # basis unit; the 36-dim covering algebra is M_6(F_5), one block
    c2 = GradeGroup.cyclic(2)
    g = graded_tensor(trivially_graded(construct_matrix_algebra(F5, 3), c2),
                      construct_group_ring(F5, c2))
    rep = is_crossed_product(g)
    assert (rep.verdict, rep.strategy) == ("true", "exhaustive")
    odd = c2.element((1,))
    assert rep.witness == {odd: ("top-dimensions", (c2.identity, odd),
                                 {c2.identity: (18,), odd: (18,)})}
    _assert_crossed_product_certificates(g, rep)
    # the same size, with basis units h g in A_1: F_5[C_9][C_2]
    g = graded_tensor(trivially_graded(construct_group_ring(F5, GradeGroup.cyclic(9)).algebra,
                                       c2),
                      construct_group_ring(F5, c2))
    rep = is_crossed_product(g)
    assert (rep.verdict, rep.strategy) == ("true", "constructive")


def test_crossed_product_identity_degree_holds_one():
    # no matrix unit of M_3(F_5) is invertible and its 5^9 lines exceed the
    # budget, but degree e always holds 1
    for group in (GradeGroup.trivial(), GradeGroup.cyclic(2)):
        g = trivially_graded(construct_matrix_algebra(F5, 3), group)
        rep = is_crossed_product(g)
        assert (rep.verdict, rep.strategy) == ("true", "constructive")
        assert rep.witness == {group.identity: g.algebra.one}


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


def test_dimension_formula():
    H = construct_quaternion(Q, -1, -1)
    assert dimension_formula_check(H)  # 4 = 1 * 4
    L_like = construct_symbol_algebra(F5, 2, 2, 3, 4)
    assert dimension_formula_check(L_like)
    T = trivially_graded(construct_matrix_algebra(Q, 2), GradeGroup.trivial())
    assert dimension_formula_check(T)  # 4 = 4 * 1


def test_dimension_formula_index_over_an_infinite_group():
    # |Gamma_D| is infinite when G/Gamma_D has a lower free rank than G, and
    # the ratio of their torsion orders otherwise
    for m in (2, 3, 4):
        rep = dimension_formula_check(construct_truncated_polynomial(Q, m))
        assert (rep.verdict, rep.counterexample) == ("false", (m, 1, "infinite"))
    z2 = GradeGroup.fg_abelian(2)
    dual = Algebra(Q, ["1", "t"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                   unit=[1, 0])
    rep = dimension_formula_check(GradedAlgebra(dual, z2, [z2.identity, z2.element((1, 0))]))
    assert (rep.verdict, rep.details["support_index"]) == ("false", "infinite")
    # Q(sqrt 2) with sqrt 2 in degree (0, 2) of Z x Z/4: 2 = 1 * |<(0, 2)> : 0|
    g = GradeGroup.fg_abelian(1, (4,))
    sqrt2 = Algebra(Q, ["1", "r"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                                    (1, 1): {0: 2}}, unit=[1, 0])
    rep = dimension_formula_check(GradedAlgebra(sqrt2, g, [g.identity, g.element((0, 2))]))
    assert (rep.verdict, rep.details["support_index"]) == ("true", 2)


def test_graded_division_reads_the_radical_of_the_splitting(monkeypatch):
    # Q[t]/t^2 on the basis 1, u = 1 + t, both units, trivially graded: the
    # non-unit t is the radical vector the splitting already computed
    import gradedk.wedderburn as wb
    calls = []
    real = wb.jacobson_radical
    monkeypatch.setattr(wb, "jacobson_radical", lambda a: calls.append(a) or real(a))
    dual = Algebra(Q, ["1", "u"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                                   (1, 1): {0: -1, 1: 2}}, unit=[1, 0])
    rep = is_graded_division(trivially_graded(dual, GradeGroup.cyclic(2)))
    assert (rep.verdict, rep.strategy) == ("false", "exhaustive")
    kind, x = rep.counterexample
    assert kind == "noninvertible" and (x * x).is_zero() and not x.is_zero()
    assert len(calls) == 1


def test_support_subgroup():
    H = construct_quaternion(Q, -1, -1, grading="Z2")
    s = support_subgroup(H)
    assert s.order == 2


def reference_support_subgroup(g):
    """(generators, elements) by the per-generator loop over a finite group:
    a fresh closure of the generators so far for each support degree, in
    coordinate order. Over an infinite group, (None, the subgroup on the
    whole support), which the basis must generate."""
    degrees = sorted(set(g.degrees), key=lambda d: d.coords)
    if not g.group.is_finite():
        return None, SubgroupSpec(g.group, degrees)
    gens = []
    for d in degrees:
        if d not in brute_closure(g.group, gens):
            gens.append(d)
    return gens, brute_closure(g.group, gens)


def _shifted_scalars(group, shift):
    """M_n(F_5)(shift) with trivially graded scalars: its support is the
    set of differences of the shift entries."""
    base = trivially_graded(Algebra(F5, ["1"], {(0, 0): {0: 1}}, unit=[1]), group)
    return ShiftedMatrixAlgebra(base, [group.element(c) for c in shift]).materialized


def _support_subgroup_inputs():
    from test_kernel import graded_algebras
    S3, D4, D5 = GradeGroup.symmetric_3(), GradeGroup.dihedral(4), GradeGroup.dihedral(5)
    Z, Z2Z4, ZZ2 = GradeGroup.integers(), GradeGroup.product_of_cyclic(2, 4), \
        GradeGroup.fg_abelian(1, (2,))
    out = [construct_group_ring(F3, group) for group in (S3, D4, D5, GradeGroup.dihedral(3))]
    out += [_shifted_scalars(S3, [0, 4]), _shifted_scalars(S3, [0, 1, 4]),
            _shifted_scalars(D4, [0, 2]), _shifted_scalars(D4, [0, 4, 1]),
            _shifted_scalars(D5, [0, 5, 1]), _shifted_scalars(Z2Z4, [(0, 0), (0, 2), (1, 0)]),
            _shifted_scalars(Z2Z4, [(0, 0), (1, 1)]), construct_quaternion(Q, -1, -1),
            construct_truncated_polynomial(Q, 3), _shifted_scalars(Z, [(0,), (2,), (3,)]),
            _shifted_scalars(ZZ2, [(0, 0), (1, 1), (2, 0)])]
    return out + [g for g in graded_algebras() if isinstance(g, GradedAlgebra)]


def test_support_subgroup_matches_per_generator_loop():
    inputs = _support_subgroup_inputs()
    assert {g.group.is_finite() for g in inputs} == {True, False}
    for g in inputs:
        gens, ref = reference_support_subgroup(g)
        got = support_subgroup(g)
        if gens is None:
            # a basis of at most dim G degrees, generating the support's subgroup
            assert len(got.generators) <= g.group.dim
            assert all(ref.contains(x) for x in got.generators)
            assert all(got.contains(d) for d in ref.generators)
            assert quotient_invariants(g.group, got) == quotient_invariants(g.group, ref)
            continue
        assert list(got.generators) == gens
        assert [d.coords for d in got.generators] == [d.coords for d in gens]
        assert {x for x in g.group.elements() if got.contains(x)} == ref
        assert got.order == len(ref)


def all_support_generators(g):
    """The strong-grading generators of the earlier rule: over a finite
    group the per-generator loop's, over an infinite group every support
    degree in coordinate order, the identity included."""
    gens, _ = reference_support_subgroup(g)
    return gens if gens is not None else sorted(set(g.degrees), key=lambda d: d.coords)


def z_graded_sweep():
    """The graded algebras over infinite groups that the support rule is
    checked on besides the truncated polynomials: M_2(Q)(0, s) over Z for
    s = 0, 1, 3, Q(sqrt 2) with sqrt 2 in degree (0, 1) of Z x Z/2, and the
    dual numbers with t in degree (1, 0) of Z^2."""
    Z, ZZ2, Z2 = GradeGroup.integers(), GradeGroup.fg_abelian(1, (2,)), GradeGroup.fg_abelian(2)
    base = trivially_graded(Algebra(Q, ["1"], {(0, 0): {0: 1}}, unit=[1]), Z)
    out = [ShiftedMatrixAlgebra(base, [Z.element((0,)), Z.element((s,))]).materialized
           for s in (0, 1, 3)]
    sqrt2 = Algebra(Q, ["1", "r"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                                    (1, 1): {0: 2}}, unit=[1, 0])
    dual = Algebra(Q, ["1", "t"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                   unit=[1, 0])
    return out + [GradedAlgebra(sqrt2, ZZ2, [ZZ2.identity, ZZ2.element((0, 1))]),
                  GradedAlgebra(dual, Z2, [Z2.identity, Z2.element((1, 0))])]


def _grid_and_sweep():
    out = []
    for _, call in cases():
        try:
            out.append(call())
        except (ValueError, ArithmeticError):
            pass
    return out + z_graded_sweep()


def test_support_subgroup_generates_the_all_support_subgroup():
    # the one generated_by rule against the earlier one on every grade group:
    # the same subgroup, never the identity among the generators, and the
    # same strong-grading, crossed-product and graded-division verdicts
    inputs = _grid_and_sweep()
    assert sum(not g.group.is_finite() for g in inputs) >= 20
    for g in inputs:
        group, got = g.group, support_subgroup(g)
        old = SubgroupSpec(group, all_support_generators(g))
        assert group.identity not in got.generators
        if group.is_finite():
            assert [got.contains(x) for x in group.elements()] == \
                [old.contains(x) for x in group.elements()]
        else:
            assert quotient_invariants(group, got) == quotient_invariants(group, old)
            points = [d.coords for d in g.degrees]
            assert coset_label_columns(got, points) == coset_label_columns(old, points)
        ref = GradedAlgebra(g.algebra, group, g.degrees)
        ref.__dict__["_support_subgroup"] = old
        for predicate in (is_strongly_graded, is_crossed_product, is_graded_division):
            assert predicate(g).verdict == predicate(ref).verdict, (predicate, g)


def test_grading_structure_is_built_once_and_kept():
    g = construct_group_ring(F3, GradeGroup.symmetric_3())
    e = g.group.identity
    idx = g.component_indices(e)
    idx.append(5)
    assert g.component_indices(e) == [0]
    assert support_subgroup(g) is support_subgroup(g)
    a0 = g.identity_component()
    assert g.identity_component() is a0
    fresh = GradedAlgebra(g.algebra, g.group, g.degrees).identity_component()
    assert fresh is not a0
    assert (a0.labels, a0.products, a0.unit_coords) == \
        (fresh.labels, fresh.products, fresh.unit_coords)


def test_identity_component_associativity_checked_once(monkeypatch):
    import gradedk.algebra as algebra_module
    calls = []
    real = algebra_module.Algebra._check_associativity
    monkeypatch.setattr(algebra_module.Algebra, "_check_associativity",
                        lambda self, p: calls.append(self) or real(self, p))
    g = construct_group_ring(F3, GradeGroup.dihedral(4))
    for _ in range(3):
        is_graded_division(g)
        is_graded_simple(g)
    a0 = g.identity_component()
    assert [a for a in calls if a is a0] == [a0]


def test_invalid_grading_raises_before_any_cache(monkeypatch):
    Z2 = GradeGroup.cyclic(2)
    alg = Algebra(Q, ["1", "x"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                                  (1, 1): {1: 1}}, unit=[1, 0])
    built = []
    real_init = GradedAlgebra.__init__

    def spy(self, *args):
        built.append(self)
        real_init(self, *args)
    monkeypatch.setattr(GradedAlgebra, "__init__", spy)
    with pytest.raises(ValueError, match="closure"):
        GradedAlgebra(alg, Z2, [Z2.element((0,)), Z2.element((1,))])
    assert len(built) == 1
    assert not {"_components", "_support_subgroup", "_identity_component"} & \
        vars(built[0]).keys()
