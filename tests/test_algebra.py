import itertools
import random
from fractions import Fraction

import pytest

from gradedk import algebra as algebra_module, constructors, linalg
from gradedk.algebra import (center, commutator_subspace, integer_psi_matrix,
                             is_central_simple, minimal_polynomial,
                             try_invert,
                             two_sided_ideal_closure, evaluate_poly)
from gradedk.constructors import (construct_group_ring, construct_matrix_algebra,
                                  construct_quaternion,
                                  construct_symbol_algebra)
from gradedk.azumaya import (braun_check, graded_group_ring_azumaya,
                             is_graded_azumaya_csa, psi_bijective)
from gradedk.fields import FieldSpec
from gradedk.fileformat import dump_graded_algebra, parse_graded_algebra
from gradedk.algebra import Algebra
from gradedk.graded import is_strongly_graded
from gradedk.groups import GradeGroup
from constructorgrid import cases as constructor_cases
from randomdata import random_constructed, random_element, random_scalar
import scalarlinalg
from test_kernel import ref_regular_matrix

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)


def test_unit_located_automatically():
    # C as a Q-algebra on {1, i}, unit not supplied
    products = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: -1}}
    alg = Algebra(Q, ["1", "i"], products)
    assert alg.unit_coords == (Fraction(1), Fraction(0))


def test_empty_basis_rejected():
    for unit in (None, []):
        with pytest.raises(ValueError, match="at least one basis vector"):
            Algebra(Q, [], {}, unit=unit)


def test_nonassociative_rejected():
    # e1*e1 = e2, e2*e1 = e1 but e1*(e1*e1) != (e1*e1)*e1 style failure
    products = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                (1, 1): {0: 1, 1: 1}}
    # x^2 = 1 + x on span{1,x}: this one IS associative (quadratic extension)
    Algebra(Q, ["1", "x"], products)
    bad = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 1}}
    # x*x = x with 1 != x breaks associativity? it doesn't; build a real failure:
    bad = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {0: 1}, (1, 1): {1: 1}}
    with pytest.raises(ValueError):
        Algebra(Q, ["1", "x"], bad)


def _with_unit(labels, products):
    """Products among the labels after the first, with label 0 as the unit."""
    table = {}
    for i in range(len(labels)):
        table[(0, i)] = {i: 1}
        table[(i, 0)] = {i: 1}
    table.update(products)
    return table


def test_nonassociative_rejected_where_one_side_is_absent():
    # a*b = 0 (no key), but a*(b*c) = a*a = a
    table = _with_unit(["1", "a", "b", "c"], {(1, 1): {1: 1}, (2, 3): {1: 1}})
    with pytest.raises(ValueError, match=r"basis triple \(a, b, c\)"):
        Algebra(Q, ["1", "a", "b", "c"], table, unit=[1, 0, 0, 0])


def test_nonassociative_rejected_where_one_side_vanishes_mod_p():
    # over GF(3): (x*x)*y = x*y + y*y = y + 2y = 0, but x*(x*y) = y; the
    # triple (x, x, x) holds, so (x, x, y) is the first failure
    table = _with_unit(["1", "x", "y"], {(1, 1): {1: 1, 2: 1}, (1, 2): {2: 1},
                                         (2, 1): {2: 1}, (2, 2): {2: 2}})
    with pytest.raises(ValueError, match=r"basis triple \(x, x, y\)"):
        Algebra(FieldSpec.prime_field(3), ["1", "x", "y"], table, unit=[1, 0, 0])


def _reference_construction_error(field, labels, products, unit):
    """The construction checks on field scalars, triple by triple: the
    message `Algebra` must raise, or None."""
    n = len(labels)
    zero = field.zero
    table = {key: {k: field.scalar(c) for k, c in terms.items()}
             for key, terms in products.items()}

    def times(x, y):
        out = [zero] * n
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                if a and b:
                    for k, c in table.get((i, j), {}).items():
                        out[k] = out[k] + a * b * c
        return out

    basis = [[field.one if k == i else zero for k in range(n)] for i in range(n)]
    one = [field.scalar(c) for c in unit]
    for j in range(n):
        if times(one, basis[j]) != basis[j] or times(basis[j], one) != basis[j]:
            return "unit axiom fails on basis element %s" % labels[j]
    pairs = [[times(basis[i], basis[j]) for j in range(n)] for i in range(n)]
    for i, j, k in itertools.product(range(n), repeat=3):
        if times(pairs[i][j], basis[k]) != times(basis[i], pairs[j][k]):
            return ("associativity fails on basis triple (%s, %s, %s)"
                    % (labels[i], labels[j], labels[k]))
    return None


def _construction_error(field, labels, products, unit):
    try:
        Algebra(field, labels, products, unit=unit)
    except ValueError as exc:
        return str(exc)
    return None


def test_integer_checks_match_scalar_reference():
    # each random instance as built, then with one structure constant c_ij^k
    # moved by a random nonzero scalar (a new key when (i, j) or k was absent)
    rng = random.Random(424242)
    rejected = 0
    for _ in range(200):
        alg = random_constructed(rng).algebra
        field, labels, unit = alg.field, alg.labels, alg.unit_coords
        assert _reference_construction_error(field, labels, alg.products, unit) is None
        assert _construction_error(field, labels, alg.products, unit) is None
        i, j, k = (rng.randrange(alg.dim) for _ in range(3))
        delta = field.zero
        while not delta:
            delta = random_scalar(field, rng)
        perturbed = {key: dict(terms) for key, terms in alg.products.items()}
        terms = perturbed.setdefault((i, j), {})
        terms[k] = terms.get(k, field.zero) + delta
        want = _reference_construction_error(field, labels, perturbed, unit)
        assert _construction_error(field, labels, perturbed, unit) == want
        rejected += want is not None
    assert rejected > 150


def _group_tables():
    """Multiplication tables with identity 0: Z/n, Z/2 x Z/2, S3, D4."""
    cyclic = [[[(i + j) % n for j in range(n)] for i in range(n)] for n in (2, 3, 4, 5)]
    klein = [[i ^ j for j in range(4)] for i in range(4)]
    return cyclic + [klein, GradeGroup.symmetric_3().table, GradeGroup.dihedral(4).table]


def _twisted_group_algebra(field, table, sigma):
    """F^sigma[G]: u_g u_h = sigma[g][h] u_gh, labelled g0, g1, ..."""
    m = len(table)
    products = {(g, h): {table[g][h]: sigma[g][h]} for g in range(m) for h in range(m)}
    return ["g%d" % g for g in range(m)], products


def _nonzero_scalar(field, rng):
    c = field.zero
    while not c:
        c = random_scalar(field, rng, height=4)
    return c


def test_generating_set_check_matches_scalar_reference():
    # twisted group algebras with sigma a coboundary f(g) f(h) / f(gh),
    # which is associative with unit u_e / f(e) (the unit's row scaled when
    # f(e) != 1), then with one entry moved, or random off the unit's row and
    # column, or with one entry of the unit's row moved (the unit axiom fails)
    rng = random.Random(2811)
    fields = [Q, FieldSpec.prime_field(3), FieldSpec.prime_field(5), FieldSpec.prime_field(7)]
    tables = _group_tables()
    verdicts = {"accepted": 0, "associativity": 0, "unit": 0}
    for t in range(300):
        field, table = rng.choice(fields), rng.choice(tables)
        m = len(table)
        f = [_nonzero_scalar(field, rng) for _ in range(m)]
        sigma = [[f[g] * f[h] / f[table[g][h]] for h in range(m)] for g in range(m)]
        mode = t % 4
        if mode == 1:
            g, h = rng.randrange(1, m), rng.randrange(1, m)
            sigma[g][h] = sigma[g][h] * _nonzero_scalar(field, rng)
        elif mode == 2:
            for g, h in itertools.product(range(1, m), repeat=2):
                sigma[g][h] = _nonzero_scalar(field, rng)
        elif mode == 3:
            c = field.one
            while c == field.one:
                c = _nonzero_scalar(field, rng)
            sigma[0][rng.randrange(1, m)] *= c
        labels, products = _twisted_group_algebra(field, table, sigma)
        unit = [field.one / f[0]] + [field.zero] * (m - 1)
        want = _reference_construction_error(field, labels, products, unit)
        assert _construction_error(field, labels, products, unit) == want
        verdicts["accepted" if want is None else want.split()[0]] += 1
    assert min(verdicts.values()) >= 40, verdicts


def _closure_of(alg, indices):
    """The basis indices reached from `indices` and the unit's support by
    products of basis vectors, for a table of single-term products."""
    closed = set(indices) | {i for i, u in enumerate(alg.unit_coords) if u}
    while True:
        new = {k for (i, j), terms in alg.products.items()
               if i in closed and j in closed for k in terms} - closed
        if not new:
            return closed
        closed |= new


def test_generating_set_generates_the_basis():
    F5, F7 = FieldSpec.prime_field(5), FieldSpec.prime_field(7)
    for alg in (construct_group_ring(Q, GradeGroup.symmetric_3()).algebra,
                construct_group_ring(F5, GradeGroup.dihedral(4)).algebra,
                construct_matrix_algebra(Q, 3),
                construct_symbol_algebra(F7, 3, 2, 3, 2).algebra):
        gens = alg.generating_set
        assert len(gens) < alg.dim
        assert _closure_of(alg, gens) == set(range(alg.dim))
    # a product with two terms: every basis vector stays a middle
    quadratic = Algebra(Q, ["1", "x"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                                        (1, 1): {0: 1, 1: 1}}, unit=[1, 0])
    assert list(quadratic.generating_set) == [0, 1]


def test_unit_on_two_basis_vectors_does_not_seed_the_generating_set():
    # T_2 on a = e11, b = e22, c = e12, with c^2 = c put in: the unit a + b
    # still holds, and only the middle a sees the failure (ca)c = 0 != c = c(ac)
    labels = ["a", "b", "c"]
    products = {(0, 0): {0: 1}, (1, 1): {1: 1}, (0, 2): {2: 1}, (2, 1): {2: 1},
                (2, 2): {2: 1}}
    with pytest.raises(ValueError, match=r"basis triple \(c, a, c\)"):
        Algebra(Q, labels, products, unit=[1, 1, 0])
    assert (_reference_construction_error(Q, labels, products, [1, 1, 0])
            == "associativity fails on basis triple (c, a, c)")


def test_rational_constants_with_different_denominators():
    H = construct_quaternion(Q, Fraction(1, 2), Fraction(-1, 3)).algebra
    assert H.products[(3, 3)] == {0: Fraction(1, 6)}  # k^2 = -ab
    products = {key: dict(terms) for key, terms in H.products.items()}
    products[(3, 3)][0] += Fraction(1, 6)
    # (ij)k = k^2 = 1/3 but i(jk) = i(-bi) = -ab = 1/6
    with pytest.raises(ValueError, match=r"basis triple \(i, j, k\)"):
        Algebra(Q, H.labels, products, unit=H.unit_coords)
    assert (_reference_construction_error(Q, H.labels, products, H.unit_coords)
            == "associativity fails on basis triple (i, j, k)")


def test_products_view_is_the_coerced_input():
    # the quaternions (1/2, -3/4) on 1, i, j, k, and T_2 on e11, e12, e22
    # with two products that are zero, each product padded with a zero term
    # (7 over GF(7)); the unit is solved for
    a, b = Fraction(1, 2), Fraction(-3, 4)
    quaternion = {(0, t): {t: 1} for t in range(4)}
    quaternion.update({(t, 0): {t: 1} for t in range(1, 4)})
    quaternion.update({(1, 1): {0: a}, (2, 2): {0: b}, (3, 3): {0: -a * b},
                       (1, 2): {3: 1}, (2, 1): {3: -1}, (1, 3): {2: a},
                       (3, 1): {2: -a}, (2, 3): {1: -b}, (3, 2): {1: b}})
    triangular = {(0, 0): {0: 1}, (0, 1): {1: Fraction(3, 3)}, (1, 2): {1: 1}, (2, 2): {2: 1},
                  (1, 0): {1: 0}, (2, 1): {0: 0}}
    for field, zero in ((Q, Fraction(0, 5)), (FieldSpec.prime_field(7), 7)):
        for n, given in ((4, quaternion), (3, triangular)):
            padded = {key: {**terms, (min(terms) + 1) % n: zero} for key, terms in given.items()}
            alg = Algebra(field, ["e%d" % t for t in range(n)], padded)
            want = {key: {k: field.scalar(c) for k, c in terms.items() if field.scalar(c)}
                    for key, terms in padded.items()}
            assert alg.products == {key: terms for key, terms in want.items() if terms}
            assert {type(c) for terms in alg.products.values()
                    for c in terms.values()} == {type(field.one)}


def _reference_table(field, n, products, unit):
    """(table, scale, unit_ints, products) by way of field scalars: each
    constant through `FieldSpec.scalar`, the zeros dropped, then one
    `FieldSpec.to_ints` pass over the constants and the unit."""
    constants = {}
    for key, terms in products.items():
        kept = {k: c for k, c in ((k, field.scalar(v)) for k, v in terms.items()) if c}
        if kept:
            constants[key] = kept
    ints, scale = field.to_ints([c for terms in constants.values() for c in terms.values()]
                                + [field.scalar(v) for v in unit])
    ints = iter(ints)
    table = [{} for _ in range(n)]
    for (i, j), terms in constants.items():
        table[i][j] = tuple((k, next(ints)) for k in terms)
    return table, scale, list(ints), constants


def _reference_generating_set(table, unit_ints):
    """`Algebra.generating_set` by the closure under every product of two
    closed indices."""
    n = len(table)
    if any(len(terms) > 1 for row in table for terms in row.values()):
        return list(range(n))
    support = [i for i, u in enumerate(unit_ints) if u]
    closed, gens = set(support) if len(support) == 1 else set(), []
    for j in range(n):
        if j not in closed:
            gens.append(j)
            closed.add(j)
            frontier = [j]
            while frontier:
                x = frontier.pop()
                for y in list(closed):
                    for k, _ in table[x].get(y, ()) + table[y].get(x, ()):
                        if k not in closed:
                            closed.add(k)
                            frontier.append(k)
    return gens


def _assert_matches_reference(field, labels, products, unit, find_unit=False):
    alg = Algebra(field, labels, products, unit=None if find_unit else unit)
    table, scale, unit_ints, constants = _reference_table(field, len(labels), products, unit)
    assert (alg.table, alg.scale, alg.unit_ints) == (table, scale, unit_ints)
    assert alg.products == constants
    assert alg.unit_coords == tuple(field.scalar(u) for u in unit)
    assert list(alg.generating_set) == _reference_generating_set(table, unit_ints)
    return alg


def test_table_matches_reference_on_the_constructor_grid(monkeypatch):
    # the inputs each constructor of the grid hands to Algebra, ints and
    # field scalars mixed; every fifth one with its unit solved for
    inputs = []

    def recording(field, labels, products, unit=None):
        alg = Algebra(field, labels, products, unit=unit)
        inputs.append((field, labels, products, unit))
        return alg

    monkeypatch.setattr(constructors, "Algebra", recording)
    for _, call in constructor_cases():
        try:
            call()
        except (ValueError, ArithmeticError):
            pass
    assert len(inputs) > 100
    assert {type(c) for _, _, products, _ in inputs
            for terms in products.values() for c in terms.values()} >= {int, Fraction}
    for t, (field, labels, products, unit) in enumerate(inputs):
        _assert_matches_reference(field, labels, products, unit, find_unit=t % 5 == 0)


def test_table_matches_reference_on_fractional_constants():
    # random algebras over Q on a rescaled basis d_i e_i, so that the
    # constants c_ij^k d_i d_j / d_k have denominators (scale > 1), an
    # integral constant given as an int and zero terms put in
    rng = random.Random(3737)
    scales = []
    while len(scales) < 60:
        alg = random_constructed(rng).algebra
        if alg.field != Q:
            continue
        d = [_nonzero_scalar(Q, rng) for _ in range(alg.dim)]
        products = {}
        for (i, j), terms in alg.products.items():
            row = {k: c * d[i] * d[j] / d[k] for k, c in terms.items()}
            products[(i, j)] = {k: int(c) if c.denominator == 1 else c for k, c in row.items()}
            if rng.random() < 0.2:
                products[(i, j)].setdefault(rng.randrange(alg.dim), Fraction(0, 3))
        unit = [u / dk for u, dk in zip(alg.unit_coords, d)]
        scales.append(_assert_matches_reference(Q, alg.labels, products, unit,
                                                find_unit=len(scales) % 3 == 0).scale)
    assert len(set(scales)) > 10 and sum(s > 1 for s in scales) > 50


def test_generating_set_takes_left_products_with_a_new_generator():
    # 1, a, b, ab with a^2 = b^2 = ba = 0: ab is reached as a b only, a
    # closed index times the later generator b
    products = {(0, t): {t: 1} for t in range(4)}
    products.update({(t, 0): {t: 1} for t in range(1, 4)})
    products[(1, 2)] = {3: 1}
    alg = _assert_matches_reference(Q, ["1", "a", "b", "ab"], products, [1, 0, 0, 0])
    assert alg.generating_set == [1, 2]


def _residue_as(field, c, rng):
    """The GF(p) value c given as an int, a Fraction or a GFElement."""
    p, kind = field.characteristic, rng.randrange(3)
    if kind == 0:
        return c.v + p * rng.randint(-3, 3)
    if kind == 1:
        d = rng.randrange(1, p)
        return Fraction(c.v * d + p * rng.randint(-3, 3), d)
    return c


def test_table_matches_reference_on_mixed_residue_inputs():
    rng = random.Random(4949)
    kinds = set()
    for t in range(150):
        alg = random_constructed(rng).algebra
        field = alg.field
        if field == Q:
            continue
        p = field.characteristic
        products = {key: {k: _residue_as(field, c, rng) for k, c in terms.items()}
                    for key, terms in alg.products.items()}
        for terms in list(products.values())[::3]:  # a term that is 0 mod p
            terms.setdefault(rng.randrange(alg.dim), p * rng.randint(-2, 2))
        unit = [_residue_as(field, u, rng) for u in alg.unit_coords]
        kinds |= {type(c) for terms in products.values() for c in terms.values()}
        got = _assert_matches_reference(field, alg.labels, products, unit, find_unit=t % 4 == 0)
        assert (got.table, got.unit_ints) == (alg.table, alg.unit_ints)
    assert kinds == {int, Fraction, type(F2.one)}


def test_repeated_lines_summing_to_zero_mod_p_leave_the_table():
    rng = random.Random(5151)
    for p in (3, 5, 7):
        g = construct_group_ring(FieldSpec.prime_field(p), GradeGroup.symmetric_3())
        text = dump_graded_algebra(g)
        extra = ["%d %d %d %d\n%d %d %d %d" % (i, j, k, a, i, j, k, p - a)
                 for i, j, k, a in ((rng.randrange(6), rng.randrange(6), rng.randrange(6),
                                     rng.randrange(1, p)) for _ in range(5))]
        loaded = parse_graded_algebra(text + "\n".join(extra) + "\n").algebra
        assert (loaded.table, loaded.scale, loaded.unit_ints) == \
            (g.algebra.table, g.algebra.scale, g.algebra.unit_ints)


def test_constants_outside_the_field_rejected():
    F5, F7 = FieldSpec.prime_field(5), FieldSpec.prime_field(7)
    square = {(0, 0): {0: 1}}
    for field, message in ((F5, "wrong characteristic"), (Q, "cannot coerce GF element")):
        with pytest.raises(ValueError, match=message):
            Algebra(field, ["e"], {(0, 0): {0: F7.one}}, unit=[1])
        with pytest.raises(ValueError, match=message):
            Algebra(field, ["e"], square, unit=[F7.one])
    with pytest.raises(ZeroDivisionError, match="denominator divisible by 5"):
        Algebra(F5, ["e"], {(0, 0): {0: Fraction(1, 5)}}, unit=[1])
    with pytest.raises(ValueError, match="the unit needs 2 coordinates"):
        Algebra(Q, ["e", "f"], {(0, 0): {0: 1}, (1, 1): {1: 1}}, unit=[1])


def test_routes_on_a_loaded_file_read_only_the_table():
    quaternion = dump_graded_algebra(construct_quaternion(Q, -1, 3))
    group_ring = "[construct]\nkind = group-ring\nfield = GF(5)\ngroup = S3\n"
    for text in (quaternion, group_ring):
        g = parse_graded_algebra(text)
        for route in (psi_bijective, braun_check, is_graded_azumaya_csa, is_strongly_graded):
            route(g)
        assert "products" not in g.algebra.__dict__
    graded_group_ring_azumaya(g)  # g is the group ring
    assert "products" not in g.algebra.__dict__


def test_left_unit_that_is_not_a_right_unit_rejected():
    # u*u = u, u*v = v, v*u = 0: u is a left unit only
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}}
    for unit in ([1, 0], None):
        with pytest.raises(ValueError, match="unit axiom fails on basis element v"):
            Algebra(Q, ["u", "v"], table, unit=unit)


def test_matrix_algebra_products():
    m2 = construct_matrix_algebra(Q, 2)
    e11, e12, e21, e22 = (m2.basis_element(i) for i in range(4))
    assert e11 * e12 == e12
    assert e12 * e21 == e11
    assert (e12 * e12).is_zero()
    assert e11 + e22 == m2.one


def test_center_of_matrix_algebra():
    for n in (2, 3):
        mn = construct_matrix_algebra(Q, n)
        z = center(mn)
        assert z.dim == 1
        assert z.contains(mn.one)


def test_try_invert():
    m2 = construct_matrix_algebra(Q, 2)
    x = m2.element([1, 1, 0, 1])  # unipotent
    y = try_invert(x)
    assert y is not None and x * y == m2.one
    assert try_invert(m2.basis_element(1)) is None  # e12 nilpotent
    # over Q and GF(p): an inverse exactly when L_x has full rank, and then
    # two-sided, which try_invert itself no longer multiplies out
    rng = random.Random(3636)
    seen = {"Q": [0, 0], "GF(p)": [0, 0]}
    for _ in range(60):
        alg = random_constructed(rng).algebra
        xs = [random_element(alg, rng) for _ in range(3)]
        for i in range(alg.dim):
            xs += [alg.basis_element(i), alg.one - alg.basis_element(i)]
        xs.append(xs[0] * alg.basis_element(rng.randrange(alg.dim)))
        for x in xs:
            y = try_invert(x)
            lx = ref_regular_matrix(x, True)
            assert (y is None) == (len(scalarlinalg.rref(lx, alg.dim, alg.field)[1]) < alg.dim)
            if y is not None:
                assert x * y == alg.one and y * x == alg.one
            seen["Q" if alg.field.kind == "rationals" else "GF(p)"][y is None] += 1
    assert all(units > 20 and non_units > 20 for units, non_units in seen.values()), seen


def test_ideal_closure():
    m2 = construct_matrix_algebra(Q, 2)
    # any nonzero element generates everything in a simple algebra
    ideal = two_sided_ideal_closure(m2, [m2.basis_element(1)])
    assert ideal.dim == 4
    # in Q x Q the first idempotent generates a proper ideal
    prod = {(0, 0): {0: 1}, (1, 1): {1: 1}}
    qq = Algebra(Q, ["a", "b"], prod, unit=[1, 1])
    ideal = two_sided_ideal_closure(qq, [qq.basis_element(0)])
    assert ideal.dim == 1


def test_ideal_closure_stops_at_full_dimension(monkeypatch):
    m3 = construct_matrix_algebra(FieldSpec.prime_field(5), 3)
    calls = []
    regular_columns = algebra_module.regular_columns

    def counted(*args, **kwargs):
        calls.append(args)
        return regular_columns(*args, **kwargs)

    monkeypatch.setattr(algebra_module, "regular_columns", counted)
    ideal = two_sided_ideal_closure(m3, [m3.one])
    # the left products of 1 already span A
    assert len(calls) <= 2
    assert ideal == m3.full_subspace()


def _reference_ideal_closure(alg, x):
    """The rref fixed-point loop: close the span under products with every
    basis element until the dimension stops growing."""
    basis = [alg.basis_element(i) for i in range(alg.dim)]
    rref = lambda vectors: scalarlinalg.rref(vectors, alg.dim, alg.field)[0]
    span = rref([x.coords])
    while True:
        rows = [alg.element(r) for r in span]
        grown = rref(span + [(v * b).coords for v in rows for b in basis]
                     + [(b * v).coords for v in rows for b in basis])
        if len(grown) == len(span):
            return span
        span = grown


@pytest.mark.parametrize("field", [FieldSpec.prime_field(5), Q])
def test_ideal_closure_of_proper_ideal_in_triangular(field):
    # T_2 on {E11, E12, E22}: E12 spans an ideal, E11 generates {E11, E12}
    products = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}}
    t2 = Algebra(field, ["E11", "E12", "E22"], products, unit=[1, 0, 1])
    for gen, dim in ((t2.basis_element(1), 1), (t2.basis_element(0), 2)):
        ideal = two_sided_ideal_closure(t2, [gen])
        assert ideal.dim == dim
        assert ideal.rows == [tuple(r) for r in _reference_ideal_closure(t2, gen)]


def test_central_simple_exhaustive_gf2():
    for p in (2, 5, 7):
        m2 = construct_matrix_algebra(FieldSpec.prime_field(p), 2)
        rep = is_central_simple(m2)
        assert rep.verdict == "true" and rep.strategy == "exhaustive"
    prod = {(0, 0): {0: 1}, (1, 1): {1: 1}}
    qq = Algebra(F2, ["a", "b"], prod, unit=[1, 1])
    rep = is_central_simple(qq)
    assert rep.verdict == "false"
    assert rep.counterexample is not None


def test_central_simple_quaternions_sampled():
    H = construct_quaternion(Q, -1, -1)
    rep = is_central_simple(H.algebra)
    assert rep.verdict == "true"


def upper_triangular_algebra(field, basis):
    """T_2(F) on a basis of upper-triangular matrices given as (m11, m12, m22)."""
    cols = [[field.scalar(b[r]) for b in basis] for r in range(3)]
    products = {}
    for i, (a11, a12, a22) in enumerate(basis):
        for j, (b11, b12, b22) in enumerate(basis):
            ab = [a11 * b11, a11 * b12 + a12 * b22, a22 * b22]
            coords = scalarlinalg.solve([row + [field.scalar(x)] for row, x in zip(cols, ab)],
                                        3, field)
            products[(i, j)] = dict(enumerate(coords))
    return Algebra(field, ["b0", "b1", "b2"], products)


def test_central_simple_false_on_triangular_units():
    # every basis vector is a unit, so each generates the whole algebra as a
    # two-sided ideal; the radical shows T_2 is not simple: the ideal that
    # the counterexample generates is nilpotent
    for field in (Q, FieldSpec.prime_field(5)):
        t2 = upper_triangular_algebra(field, [(1, 0, 1), (1, 0, 2), (1, 1, 1)])
        rep = is_central_simple(t2)
        assert rep.verdict == "false" and rep.strategy == "exhaustive"
        tag, x = rep.counterexample
        assert tag == "radical-element" and not x.is_zero()
        ideal = two_sided_ideal_closure(t2, [x]).basis_elements()
        assert 0 < len(ideal) < t2.dim
        power = ideal
        for _ in range(t2.dim):
            power = t2.subspace([a * b for a in power for b in ideal]).basis_elements()
        assert not power


def test_psi_matrix_matches_regular_representations():
    for alg in (construct_quaternion(Q, -2, 5).algebra,
                construct_symbol_algebra(FieldSpec.prime_field(7), 3, 2, 3, 2).algebra):
        n = alg.dim
        reference = [[None] * (n * n) for _ in range(n * n)]
        for i in range(n):
            li = ref_regular_matrix(alg.basis_element(i), True)
            for j in range(n):
                m = linalg.mat_mul(li, ref_regular_matrix(alg.basis_element(j), False))
                for r in range(n):
                    for c in range(n):
                        reference[r * n + c][i * n + j] = m[r][c]
        rows, den = integer_psi_matrix(alg)
        rows = [[row.get(c, 0) for c in range(n * n)] for row in rows]
        assert [alg.field.from_ints(row, den) for row in rows] == reference


def test_minimal_polynomial():
    H = construct_quaternion(Q, -1, -1)
    i = H.algebra.basis_element(1)
    f = minimal_polynomial(i)
    assert f == [Fraction(1), Fraction(0), Fraction(1)]  # x^2 + 1
    assert evaluate_poly(f, i).is_zero()
    assert minimal_polynomial(H.algebra.one) == [Fraction(-1), Fraction(1)]
    m2 = construct_matrix_algebra(Q, 2)
    assert minimal_polynomial(m2.basis_element(1)) == [Fraction(0), Fraction(0),
                                                       Fraction(1)]  # x^2


def test_regular_representations_commute_correctly():
    rng = random.Random(9)
    m2 = construct_matrix_algebra(Q, 2)
    from gradedk import linalg
    for _ in range(30):
        x = random_element(m2, rng)
        y = random_element(m2, rng)
        # L_x and R_y always commute (associativity in matrix form)
        lx, ry = ref_regular_matrix(x, True), ref_regular_matrix(y, False)
        assert linalg.mat_mul(lx, ry) == linalg.mat_mul(ry, lx)
        # L_{xy} = L_x L_y
        assert ref_regular_matrix(x * y, True) == linalg.mat_mul(lx, ref_regular_matrix(y, True))


def test_commutator_subspace_matrix_algebra():
    m3 = construct_matrix_algebra(Q, 3)
    comm = commutator_subspace(m3)
    assert comm.dim == 8  # trace-zero matrices
    assert not comm.contains(m3.one)


def test_enumeration_budget_guard():
    big = construct_matrix_algebra(FieldSpec.prime_field(5), 3)
    with pytest.raises(ValueError):
        list(big.elements())


def test_negative_power_rejected():
    m2 = construct_matrix_algebra(Q, 2)
    x = m2.element([2, 0, 0, 3])
    with pytest.raises(ValueError):
        x ** -1
    assert x ** 0 == m2.one
    assert x ** 2 == m2.element([4, 0, 0, 9])


def test_element_operations_run_without_field_scalars(monkeypatch):
    # an element is the kernel's ints: products, sums, negation, inversion
    # and membership convert nothing to or from field scalars
    algebras = [construct_matrix_algebra(Q, 3),
                construct_group_ring(FieldSpec.prime_field(5), GradeGroup.dihedral(4)).algebra]

    def refuse(*args, **kwargs):
        raise AssertionError("field scalar conversion")

    monkeypatch.setattr(FieldSpec, "to_ints", refuse)
    monkeypatch.setattr(FieldSpec, "from_ints", refuse)
    for alg in algebras:
        xs = [alg.basis_element(i) for i in range(alg.dim)] + [alg.one]
        for x in xs:
            for y in xs:
                assert x * y + -(x * y) == alg.zero and x + y == y + x
            inverse = try_invert(x)
            assert inverse is None or x * inverse == alg.one
        assert center(alg).contains(alg.one)
