"""Seeded property suites, >= 200 instances each."""

import math
import random
from fractions import Fraction

from gradedk import linalg
from gradedk.algebra import center, commutator_subspace, two_sided_ideal_closure
from gradedk.fields import GFElement
from gradedk.graded import is_strongly_graded
from gradedk.groups import GradeGroup, SubgroupSpec
from gradedk.matrixring import canonical_shift, is_crossed_product
from randomdata import random_constructed, random_element
import scalarlinalg
from test_kernel import kernel_regular_matrix


def test_associativity_of_constructed_algebras():
    rng = random.Random(20260823)
    for _ in range(200):
        g = random_constructed(rng)
        alg = g.algebra
        # builder already enumerated all basis triples; re-check random ones
        for _ in range(3):
            x = random_element(alg, rng, height=3)
            y = random_element(alg, rng, height=3)
            z = random_element(alg, rng, height=3)
            assert (x * y) * z == x * (y * z)
            assert alg.one * x == x and x * alg.one == x


def _dense_product(alg, x, y):
    """x*y = sum_ijk x_i y_j c_ij^k e_k, coordinate by coordinate (a pair
    with a zero factor adds nothing and is skipped)."""
    n = alg.dim
    zero = alg.field.zero
    out = [zero] * n
    for i in range(n):
        for j in range(n):
            if not (x[i] and y[j]):
                continue
            for k in range(n):
                c = alg.products.get((i, j), {}).get(k, zero)
                out[k] = out[k] + x[i] * y[j] * c
    return out


def _is_field_scalar(alg, c):
    if alg.field.kind == "rationals":
        return type(c) is Fraction
    return type(c) is GFElement and c.p == alg.field.characteristic


def test_sparse_kernel_matches_dense_reference():
    rng = random.Random(737373)
    for _ in range(200):
        alg = random_constructed(rng).algebra
        n = alg.dim
        basis = [alg.basis_element(i).coords for i in range(n)]
        x = random_element(alg, rng, height=3)
        y = random_element(alg, rng, height=3)
        # column j of L_x is x e_j, of R_x e_j x
        lx = [list(r) for r in zip(*(_dense_product(alg, x.coords, b) for b in basis))]
        rx = [list(r) for r in zip(*(_dense_product(alg, b, x.coords) for b in basis))]
        outputs = {
            "multiply": ([(x * y).coords], [_dense_product(alg, x.coords, y.coords)]),
            "left": (kernel_regular_matrix(x, True), lx),
            "right": (kernel_regular_matrix(x, False), rx),
        }
        for name, (got, want) in outputs.items():
            assert [list(r) for r in got] == want, name
        # centre: kernel of x |-> e_m x - x e_m over all m
        rows = []
        for b in basis:
            diff = [[p - q for p, q in zip(_dense_product(alg, b, e),
                                           _dense_product(alg, e, b))]
                    for e in basis]
            rows += [list(r) for r in zip(*diff)]
        comm = [[p - q for p, q in zip(_dense_product(alg, a, b),
                                       _dense_product(alg, b, a))]
                for a in basis for b in basis]
        rref = lambda vectors: scalarlinalg.rref(vectors, alg.dim, alg.field)[0]
        span = rref([x.coords])
        while True:
            grown = rref(span + [_dense_product(alg, *pair)
                                 for v in span for b in basis
                                 for pair in ((b, v), (v, b))])
            if len(grown) == len(span):
                break
            span = grown
        subspaces = {
            "center": (center(alg), scalarlinalg.nullspace(rows, alg.dim, alg.field)),
            "commutator": (commutator_subspace(alg), comm),
            "ideal": (two_sided_ideal_closure(alg, [x]), span),
        }
        for name, (got, want) in subspaces.items():
            assert rref(got.rows) == rref(want), name
        produced = [(x * y).coords, (x * alg.zero).coords]
        produced += [r for got, _ in subspaces.values() for r in got.rows]
        assert all(_is_field_scalar(alg, c) for row in produced for c in row)


def test_crossed_product_implies_strongly_graded():
    rng = random.Random(424242)
    hits = 0
    for _ in range(200):
        g = random_constructed(rng)
        cp = is_crossed_product(g)
        if cp.verdict == "true":
            hits += 1
            sg = is_strongly_graded(g)
            assert sg.verdict == "true", (cp, sg)
    assert hits >= 50  # the implication must not hold vacuously


def test_graded_module_dimension_additivity():
    # dim N + dim(M/N) = dim M for random subspaces N of random algebras,
    # with the quotient dimension computed independently by reducing the
    # ambient basis modulo an echelon basis of N
    rng = random.Random(515151)
    for _ in range(200):
        g = random_constructed(rng)
        alg = g.algebra
        k = rng.randrange(alg.dim + 1)
        vectors = [list(random_element(alg, rng, height=3).coords)
                   for _ in range(k)]
        n_rows = scalarlinalg.rref(vectors, alg.dim, alg.field)[0]
        dim_n = len(n_rows)
        # quotient: ambient basis vectors reduced mod N, then count the rank
        reduced = []
        for i in range(alg.dim):
            v = [alg.field.one if j == i else alg.field.zero
                 for j in range(alg.dim)]
            for row in n_rows:
                pivot = next(c for c, x in enumerate(row) if x)
                if v[pivot]:
                    f = v[pivot]
                    v = [a - f * b for a, b in zip(v, row)]
            reduced.append(v)
        dim_quot = linalg.rank(linalg.int_rows(reduced, alg.field), alg.field)
        assert dim_n + dim_quot == alg.dim


def _random_group_and_subgroup(rng):
    choice = rng.randrange(4)
    if choice == 0:
        G = GradeGroup.integers()
        gens = [] if rng.random() < 0.3 else [G.element((rng.randrange(1, 5),))]
    elif choice == 1:
        G = GradeGroup.cyclic(rng.randrange(2, 9))
        gens = [G.element((rng.randrange(G.torsion[0]),))
                for _ in range(rng.randrange(2))]
    elif choice == 2:
        G = GradeGroup.product_of_cyclic(2, 4)
        gens = [G.element((rng.randrange(2), rng.randrange(4)))
                for _ in range(rng.randrange(3))]
    else:
        G = GradeGroup.fg_abelian(1, [3])
        gens = [G.element((rng.randrange(-2, 3), rng.randrange(3)))
                for _ in range(rng.randrange(2))]
    return G, SubgroupSpec(G, gens)


def _random_element(G, rng):
    if G.kind == "fg-abelian":
        coords = [rng.randrange(-4, 5) for _ in range(G.rank)]
        coords += [rng.randrange(n) for n in G.torsion]
        return G.element(coords)
    return G.element(rng.randrange(G.order))


def test_canonical_shift_three_move_invariance():
    rng = random.Random(606060)
    for _ in range(200):
        G, gd = _random_group_and_subgroup(rng)
        n = rng.randrange(1, 5)
        shift = [_random_element(G, rng) for _ in range(n)]
        base = canonical_shift(G, gd, shift)
        # move 1: permutation of the entries
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = [shift[i] for i in perm]
        assert canonical_shift(G, gd, permuted) == base
        # move 2: common translation by any group element
        sigma = _random_element(G, rng)
        translated = [d * sigma for d in shift]
        assert canonical_shift(G, gd, translated) == base
        # move 3: per-entry multiplication by elements of Gamma_D
        def gd_element():
            out = G.identity
            for _ in range(rng.randrange(4)):
                gen = rng.choice(gd.generators) if gd.generators else G.identity
                out = out * (gen if rng.random() < 0.5 else gen.inverse())
            return out
        twisted = [d * gd_element() for d in shift]
        assert canonical_shift(G, gd, twisted) == base
        # and all three at once
        mixed = [shift[perm[i]] * gd_element() * sigma for i in range(n)]
        assert canonical_shift(G, gd, mixed) == base


def test_element_format_matches_field_scalar_arithmetic():
    # (ints, den) is canonical: equal exactly when the coordinates are, and
    # equal elements reached by different routes hash alike
    rng = random.Random(383838)
    fields = set()
    for _ in range(200):
        alg = random_constructed(rng).algebra
        fields.add(alg.field.kind)
        x, y, z = (random_element(alg, rng, height=4) for _ in range(3))
        c = rng.choice([2, 3, -1, Fraction(2, 3)]) if alg.field.kind == "rationals" else 2
        xc, yc = x.coords, y.coords
        assert (x + y).coords == tuple(a + b for a, b in zip(xc, yc))
        assert (x - y).coords == tuple(a - b for a, b in zip(xc, yc))
        assert (-x).coords == tuple(-a for a in xc)
        assert x.scale(c).coords == tuple(alg.field.scalar(c) * a for a in xc)
        assert (x * y).coords == tuple(_dense_product(alg, xc, yc))
        cube = _dense_product(alg, _dense_product(alg, xc, xc), xc)
        assert (x ** 3).coords == tuple(cube) and x ** 0 == alg.one
        # x again from unreduced input: 'p/q' strings over a common multiple
        # over Q, ints off the residue range over GF(p)
        p = alg.field.characteristic
        again = alg.element([a.v - 2 * p for a in xc] if p else
                            ["%d/%d" % (6 * a.numerator, 6 * a.denominator) for a in xc])
        same = [(x + x, x.scale(2)), (x + x, 2 * x), ((x * y) * z, x * (y * z)), (x, again)]
        for a, b in same:
            assert (a.ints, a.den) == (b.ints, b.den) and a == b and hash(a) == hash(b)
        elements = [x, y, z, again, x + y, y + x, x * y, x.scale(c), alg.zero, alg.one]
        for a in elements:
            if alg.field.kind == "rationals":
                assert a.den > 0 and math.gcd(a.den, *a.ints) == 1
            else:
                assert a.den == 1 and all(0 <= v < alg.field.characteristic for v in a.ints)
            for b in elements:
                assert ((a.ints, a.den) == (b.ints, b.den)) == (a.coords == b.coords)
    assert fields == {"rationals", "prime-field"}
