import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gradedk import ktheory as ktheory_module
from gradedk.algebra import Algebra, jacobson_radical, minimal_polynomial
from gradedk.constructors import (construct_group_ring, construct_laurent,
                                  construct_matrix_algebra, construct_quaternion,
                                  construct_truncated_polynomial)
from gradedk.fields import FieldSpec
from gradedk.graded import graded_tensor, support_subgroup, trivially_graded
from gradedk.groups import GradeGroup, SubgroupSpec, quotient_invariants
from gradedk.ktheory import (INFINITE_RANK_FREE, CsaShape, FGAbelianGroup,
                             ck0_zk0, compare_localized,
                             k0_of_semisimple, k0gr_graded_division,
                             k0gr_strongly_graded, localize, torsion_bound_check)
from gradedk.matrixring import ShiftedMatrixAlgebra, identity_component, \
    is_strongly_graded_matrix
from gradedk.wedderburn import (_crt_idempotents, spectral_idempotents,
                                split_identity_component)

from test_matrixring import lazy_matrix_rings

Q = FieldSpec.rationals()
F5 = FieldSpec.prime_field(5)


def product_algebra(a, b):
    """A x B on the concatenated bases."""
    n = a.dim
    products = dict(a.products)
    for (i, j), terms in b.products.items():
        products[(i + n, j + n)] = {k + n: c for k, c in terms.items()}
    return Algebra(a.field, list(a.labels) + ["%s'" % lab for lab in b.labels],
                   products, unit=list(a.unit_coords) + list(b.unit_coords))


def m2_over_q_sqrt2():
    """M_2(Q(sqrt 2)) = (1, 1 / Q) (x) Q(sqrt 2) on a basis of units."""
    root2 = Algebra(Q, ["1", "r"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                                    (1, 1): {0: 2}}, unit=[1, 0])
    trivial = GradeGroup.trivial()
    return graded_tensor(trivially_graded(construct_quaternion(Q, 1, 1).algebra, trivial),
                         trivially_graded(root2, trivial)).algebra


def cyclic_cubic_division_algebra():
    """(K/Q, sigma, 2) on the basis a^i u^j (index 3i + j), with K = Q(a),
    a = 2 cos(2 pi / 7), a^3 = 2a + 1 - a^2, sigma(a) = a^2 - 2, u^3 = 2 and
    u x = sigma(x) u. The prime 2 is inert in K, so the local invariant at 2
    is 1/3 and the algebra is a division algebra of degree 3."""
    x = sympy.Symbol("x")
    f = sympy.Poly(x ** 3 + x ** 2 - 2 * x - 1, x, domain=sympy.QQ)
    sigma = [sympy.Poly(x, x, domain=sympy.QQ)]
    for _ in range(2):
        sigma.append(sigma[-1].compose(sympy.Poly(x ** 2 - 2, x, domain=sympy.QQ)).rem(f))
    products = {}
    for i, j, k, l in itertools.product(range(3), repeat=4):
        # a^i u^j a^k u^l = a^i sigma^j(a)^k u^(j+l)
        coeffs = (sympy.Poly(x ** i, x, domain=sympy.QQ) * sigma[j] ** k).rem(f).all_coeffs()
        scale, m = (2, j + l - 3) if j + l >= 3 else (1, j + l)
        products[(3 * i + j, 3 * k + l)] = {
            3 * e + m: scale * Fraction(int(c.p), int(c.q))
            for e, c in enumerate(reversed(coeffs)) if c}
    labels = ["a%du%d" % (i, j) for i in range(3) for j in range(3)]
    return Algebra(Q, labels, products, unit=[1] + [0] * 8)


def scalars(field):
    return Algebra(field, ["1"], {(0, 0): {0: 1}}, unit=[1])


def upper_triangular(field):
    """T_2 on the basis e11, e12, e22."""
    return Algebra(field, ["e11", "e12", "e22"],
                   {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}},
                   unit=[1, 0, 1])


def checked_split(alg):
    return check_decomposition(alg, split_identity_component(alg))


def check_decomposition(alg, dec):
    """Re-verify a decomposition of alg on A/J: every e is an idempotent
    central in A/J, they are pairwise orthogonal and sum to 1, and the block
    dimensions add up to dim A - dim J."""
    quot = dec.algebra
    assert quot.dim == alg.dim - dec.radical_dim
    basis = [quot.basis_element(i) for i in range(quot.dim)]
    for s, e in enumerate(dec.idempotents):
        assert e.owner is quot and not e.is_zero() and e * e == e
        assert all(e * b == b * e for b in basis)
        for f in dec.idempotents[s + 1:]:
            assert (e * f).is_zero() and (f * e).is_zero()
    total = quot.zero
    for e in dec.idempotents:
        total = total + e
    assert total == quot.one
    assert sum(b.dim for b in dec.blocks) == quot.dim
    return dec


def invariant_factor_form(rank, torsion):
    """Z^rank x the Z/t as an FGAbelianGroup in invariant-factor form, read
    off `groups.quotient_invariants` of the trivial subgroup of the product
    of the cyclic factors."""
    torsion = [t for t in torsion if t != 1]
    if not torsion:
        return FGAbelianGroup(rank)
    group = GradeGroup.product_of_cyclic(*torsion)
    return FGAbelianGroup(rank, tuple(quotient_invariants(group, SubgroupSpec(group, []))[1]))


def test_fg_abelian_canonical_form():
    assert invariant_factor_form(1, [4, 6]) == FGAbelianGroup(1, (2, 12))
    assert invariant_factor_form(0, [1, 1]) == FGAbelianGroup(0)
    assert invariant_factor_form(2, [3, 5]) == FGAbelianGroup(2, (15,))
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
    g = invariant_factor_form(rank, torsion)
    ln = localize(g, n)
    assert localize(ln, n) == ln
    assert localize(g, n * m) == localize(localize(g, n), m)


def test_localize_matches_the_smith_normalization():
    # each factor of a chain stripped of n's primes gives the invariant
    # factors that the Smith form of the stripped factors gives
    rng = random.Random(20119)
    for _ in range(300):
        chain, d = [], 1
        for _ in range(rng.randint(0, 4)):
            d *= rng.choice([1, 2, 3, 4, 5, 6, 9, 10])
            if d > 1:
                chain.append(d)
        g, n = FGAbelianGroup(rng.randint(0, 2), tuple(chain)), rng.randint(1, 40)
        stripped = [d // gcd(d, n ** d.bit_length()) for d in chain]
        assert localize(g, n) == invariant_factor_form(g.rank, stripped)


def test_lazy_k0_by_theorem_matches_the_general_split(monkeypatch):
    # K0 of each strongly graded lazy ring is free on its label classes, as
    # the general split of A_e finds, and no general split runs for it
    rings = [m for m in lazy_matrix_rings() if is_strongly_graded_matrix(m)]
    want = [k0_of_semisimple(split_identity_component(identity_component(m))) for m in rings]

    def general_split(alg):
        raise AssertionError("a lazy ring went through the general split")
    monkeypatch.setattr(ktheory_module, "split_identity_component", general_split)
    for m, k0_ref in zip(rings, want):
        k0, dec = k0gr_strongly_graded(m, is_strongly_graded_matrix(m))
        assert k0 == k0_ref == FGAbelianGroup(len(set(m.labels)))
        check_decomposition(dec.algebra, dec)
    assert len(rings) > 20


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
    return k0, check_decomposition(identity_component(m), dec)


def test_laurent_matrix_k0_over_q_and_gf5():
    for field in (Q, F5):
        k0, dec = _laurent_block_pipeline(field)
        assert k0 == FGAbelianGroup(2)
        assert [(b.dim, b.matrix_size) for b in dec.blocks] == [(1, 1), (4, 2)]
        assert all(b.resolved for b in dec.blocks)


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
    dec = checked_split(alg)
    assert [(b.dim, b.centre_dim, b.matrix_size) for b in dec.blocks] \
        == [(1, 1, 1), (4, 1, 2)]
    assert k0_of_semisimple(dec) == FGAbelianGroup(2)


def test_split_identity_component_field_extension_block():
    # Q(i): one block, centre dim 2, not a matrix ring over Q
    products = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: -1}}
    c = Algebra(Q, ["1", "i"], products)
    dec = checked_split(c)
    assert len(dec.blocks) == 1
    assert dec.blocks[0].centre_dim == 2
    # a block equal to its centre is a field: M_1(Q(i))
    assert (dec.blocks[0].matrix_size, dec.blocks[0].division_dim) == (1, 2)
    assert k0_of_semisimple(dec) == FGAbelianGroup(1)


def test_split_quotients_the_radical():
    # dual numbers Q[t]/(t^2): J = Qt, A/J = Q
    products = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    dual = Algebra(Q, ["1", "t"], products)
    dec = checked_split(dual)
    assert dec.radical_dim == 1 and dec.radical.rows == [(0, 1)]
    assert [(b.dim, b.matrix_size) for b in dec.blocks] == [(1, 1)]


def test_split_group_ring_s3():
    # Q[S3] = Q x Q x M_2(Q)
    A = construct_group_ring(Q, GradeGroup.symmetric_3())
    dec = checked_split(A.algebra)
    assert [(b.dim, b.matrix_size) for b in dec.blocks] == [(1, 1), (1, 1), (4, 2)]
    # GF(5)[S3] splits the same way (5 does not divide 6)
    A5 = construct_group_ring(F5, GradeGroup.symmetric_3())
    dec5 = checked_split(A5.algebra)
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


def test_torsion_bound_on_infinite_rank_is_constructive():
    rep = torsion_bound_check(INFINITE_RANK_FREE, 3)
    assert (rep.verdict, rep.strategy) == ("true", "constructive")


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


def _blocks(dec):
    return [(b.dim, b.centre_dim, b.matrix_size, b.division_dim) for b in dec.blocks]


def test_split_over_gfp_without_search():
    F2, F3 = FieldSpec.prime_field(2), FieldSpec.prime_field(3)
    s3 = GradeGroup.symmetric_3()
    cases = [
        # M_3(GF(5)): 5^9 is past any scan budget
        (construct_matrix_algebra(F5, 3), 0, [(9, 1, 3, 1)]),
        # T_2(GF(3)): p divides dim, J = GF(3) e12, A/J = GF(3)^2
        (upper_triangular(F3), 1, [(1, 1, 1, 1), (1, 1, 1, 1)]),
        # GF(3)[S3]: dim J = 4, A/J = GF(3)^2
        (construct_group_ring(F3, s3).algebra, 4, [(1, 1, 1, 1), (1, 1, 1, 1)]),
        # semisimple, though the trace form of an M_p block vanishes
        (product_algebra(scalars(F2), construct_matrix_algebra(F2, 2)), 0,
         [(1, 1, 1, 1), (4, 1, 2, 1)]),
        (product_algebra(scalars(F3), construct_matrix_algebra(F3, 3)), 0,
         [(1, 1, 1, 1), (9, 1, 3, 1)]),
        # GF(2)[C3] = GF(2) x GF(4): a block with a 2-dimensional centre
        (construct_group_ring(F2, GradeGroup.cyclic(3)).algebra, 0,
         [(1, 1, 1, 1), (2, 2, 1, 2)]),
    ]
    for alg, radical_dim, blocks in cases:
        dec = checked_split(alg)
        assert dec.radical_dim == radical_dim
        assert _blocks(dec) == blocks
        assert all(b.resolved for b in dec.blocks)
        assert k0_of_semisimple(dec) == FGAbelianGroup(len(blocks))


def _radical_corpus():
    """(algebra, dim J, number of blocks of A/J) for T_2, F x M_2, F[C2],
    F[C3], F[t]/t^3, F[S3] and F[C2 x C2] over GF(2), GF(3), GF(5), wherever
    p^dim <= 729."""
    expected = {2: [(1, 2), (0, 2), (1, 1), (0, 2), (2, 1), (1, 2), (3, 1)],
                3: [(1, 2), (0, 2), (0, 2), (2, 1), (2, 1), (4, 2), (0, 4)],
                5: [(1, 2), None, (0, 2), (0, 2), (2, 1), None, (0, 4)]}
    for p, shapes in expected.items():
        field = FieldSpec.prime_field(p)
        algebras = [upper_triangular(field),
                    product_algebra(scalars(field), construct_matrix_algebra(field, 2)),
                    construct_group_ring(field, GradeGroup.cyclic(2)).algebra,
                    construct_group_ring(field, GradeGroup.cyclic(3)).algebra,
                    construct_truncated_polynomial(field, 3).algebra,
                    construct_group_ring(field, GradeGroup.symmetric_3()).algebra,
                    construct_group_ring(field, GradeGroup.product_of_cyclic(2, 2)).algebra]
        for alg, shape in zip(algebras, shapes):
            assert (shape is None) == (p ** alg.dim > 729)
            if shape is not None:
                yield (alg,) + shape


def _echelon_mod_p(rows, p, n):
    """Nonzero reduced rows spanning the same space over GF(p), in plain
    integers."""
    rows = [list(r) for r in rows]
    out = []
    for c in range(n):
        piv = next((r for r in rows if r[c]), None)
        if piv is None:
            continue
        rows.remove(piv)
        inv = pow(piv[c], -1, p)
        piv = [v * inv % p for v in piv]
        rows = [[(a - r[c] * b) % p for a, b in zip(r, piv)] for r in rows]
        out = [[(a - r[c] * b) % p for a, b in zip(r, piv)] for r in out] + [piv]
    return out


def _span_mod_p(rows, p, n):
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        yield tuple(sum(c * r[k] for c, r in zip(coeffs, rows)) % p for k in range(n))


def _radical_by_units(alg):
    """{x : 1 - yx is a unit for every y}, enumerated in integer arithmetic
    mod p: u is a unit iff L_u has full rank, and yx runs over the span of
    the e_i x."""
    p, n = alg.field.characteristic, alg.dim
    consts = {key: {k: c.v for k, c in terms.items()} for key, terms in alg.products.items()}

    def mul(x, y):
        out = [0] * n
        for (i, j), terms in consts.items():
            if x[i] and y[j]:
                for k, c in terms.items():
                    out[k] = (out[k] + x[i] * y[j] * c) % p
        return out

    basis = [[int(i == k) for k in range(n)] for i in range(n)]
    elements = list(itertools.product(range(p), repeat=n))
    units = {u for u in elements
             if len(_echelon_mod_p([mul(u, b) for b in basis], p, n)) == n}
    one = [c.v for c in alg.unit_coords]
    radical = set()
    for x in elements:
        left_ideal = _echelon_mod_p([mul(b, x) for b in basis], p, n)
        if all(tuple((a - b) % p for a, b in zip(one, w)) in units
               for w in _span_mod_p(left_ideal, p, n)):
            radical.add(x)
    return radical


def test_radical_matches_quasi_regular_oracle():
    corpus = list(_radical_corpus())
    assert len(corpus) == 19
    for alg, radical_dim, nblocks in corpus:
        p = alg.field.characteristic
        rows = [[c.v for c in r] for r in jacobson_radical(alg).rows]
        assert set(_span_mod_p(rows, p, alg.dim)) == _radical_by_units(alg), alg.labels
        dec = checked_split(alg)
        assert (dec.radical_dim, len(dec.blocks)) == (radical_dim, nblocks), (p, alg.labels)


def test_quaternion_blocks_over_q():
    # (2, -1): no basis element has a split minimal polynomial
    for a, b, shape in ((2, -1, (2, 1)), (1, 3, (2, 1)), (-1, -1, (1, 4)),
                        (3, 5, (1, 4)), (-1, 3, (1, 4)), (5, 2, (1, 4))):
        alg = construct_quaternion(Q, a, b, grading="trivial").algebra
        dec = checked_split(alg)
        assert [(bl.dim, bl.matrix_size, bl.division_dim) for bl in dec.blocks] \
            == [(4,) + shape], (a, b)


def _norm_form_has_solution(a, b, bound):
    """z^2 = a x^2 + b y^2 with (x, y, z) != 0 in the box |.| <= bound."""
    squares = {t * t for t in range(bound * 10)}
    return any(a * x * x + b * y * y in squares
               for x in range(bound + 1) for y in range(bound + 1) if x or y)


def test_quaternion_split_agrees_with_norm_form_search():
    # (a, b) splits iff z^2 = a x^2 + b y^2 has a nontrivial rational
    # solution; for |a|, |b| <= 5 the smallest solutions are tiny
    for a in range(-5, 6):
        for b in range(a, 6):
            if not a or not b:
                continue
            dec = split_identity_component(
                construct_quaternion(Q, a, b, grading="trivial").algebra)
            split = dec.blocks[0].matrix_size == 2
            assert split == _norm_form_has_solution(a, b, 12), (a, b)


def test_split_rational_group_rings_block_counts():
    # one block per rational class: Q[D4] = Q^4 x M_2(Q),
    # Q[C2 x C2] = Q^4, Q[C3] = Q x Q(w)
    for group, blocks in ((GradeGroup.dihedral(4), [(1, 1, 1, 1)] * 4 + [(4, 1, 2, 1)]),
                          (GradeGroup.product_of_cyclic(2, 2), [(1, 1, 1, 1)] * 4),
                          (GradeGroup.cyclic(3), [(1, 1, 1, 1), (2, 2, 1, 2)])):
        dec = checked_split(construct_group_ring(Q, group).algebra)
        assert _blocks(dec) == blocks


def test_split_larger_rational_block_by_basis_idempotents():
    dec = checked_split(construct_matrix_algebra(Q, 3))
    assert _blocks(dec) == [(9, 1, 3, 1)]


def test_untyped_blocks_carry_a_reason():
    dec = checked_split(m2_over_q_sqrt2())
    assert [(b.dim, b.centre_dim, b.matrix_size, b.reason) for b in dec.blocks] \
        == [(8, 2, None, "proper-centre")]
    dec = checked_split(cyclic_cubic_division_algebra())
    assert [(b.dim, b.centre_dim, b.matrix_size, b.reason) for b in dec.blocks] \
        == [(9, 1, None, "no-rank-one-corner")]
    assert all(b.reason is None for b in checked_split(construct_matrix_algebra(Q, 3)).blocks)


def test_spectral_idempotents_shortcuts_match_factoring():
    # scalars and idempotents skip sympy; the result, order included, is
    # the one the factoring path gives
    for field in (Q, F5, FieldSpec.prime_field(2)):
        m2 = construct_matrix_algebra(field, 2)
        e11 = m2.basis_element(0)
        elements = [m2.one, m2.zero, m2.one.scale(3), e11, m2.one - e11,
                    e11 + m2.basis_element(1)]
        for x in elements:
            got = spectral_idempotents(x)
            assert got == _crt_idempotents(x, minimal_polynomial(x))
            assert len(got) == (1 if len(minimal_polynomial(x)) == 2 else 2)
