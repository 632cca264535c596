import itertools
import math
import random
from fractions import Fraction

import sympy
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.sdm import (
    sdm_irref, sdm_nullspace_from_rref, sdm_particular_from_rref, sdm_rref_den)

from gradedk import linalg
from gradedk.algebra import is_central_simple
from gradedk.azumaya import psi_bijective
from gradedk.constructors import construct_matrix_algebra, construct_symbol_algebra
from gradedk.fields import FieldSpec
from gradedk.graded import trivially_graded
from gradedk.groups import GradeGroup
from randomdata import random_scalar
import scalarlinalg
from scalarlinalg import scalar_rows

Q = FieldSpec.rationals()
F5 = FieldSpec.prime_field(5)


def rand_matrix(rng, field, rows, cols, height=6):
    return [[random_scalar(field, rng, height) for _ in range(cols)]
            for _ in range(rows)]


def mat_vec(field, a, x):
    return [sum((r * y for r, y in zip(row, x)), field.zero) for row in a]


def width(m):
    return len(m[0]) if m else 0


def rref(m, field):
    return scalarlinalg.rref(m, width(m), field)


def nullspace(m, field):
    return scalarlinalg.nullspace(m, width(m), field)


def solve(a, b, field):
    return scalarlinalg.solve([row + [x] for row, x in zip(a, b)], width(a), field)


def test_results_are_integer_echelons():
    """rref and nullspace return (rows, den, pivots), sparse integer rows
    holding den at their pivots and 0 at the other pivots; solve returns
    (x, den) with x dense."""
    rng = random.Random(3)
    for field in (Q, F5):
        p = field.characteristic
        for _ in range(30):
            m = rand_matrix(rng, field, rng.randint(1, 5), rng.randint(1, 5))
            ints = linalg.int_rows(m, field)
            for rows, den, pivots in (linalg.rref(ints, field),
                                      linalg.nullspace(ints, width(m), field)):
                assert len(rows) == len(pivots) and pivots == sorted(pivots)
                assert den == 1 or not p
                for row, c in zip(rows, pivots):
                    assert all(type(x) is int and x for x in row.values())
                    assert all(0 <= x < p for x in row.values()) or not p
                    assert row[c] == den and not any(row.get(d) for d in pivots if d != c)
            x = [random_scalar(field, rng) for _ in m[0]]
            b = mat_vec(field, m, x)
            sol, den = linalg.solve(linalg.int_rows([row + [y] for row, y in zip(m, b)], field),
                                    width(m), field)
            assert len(sol) == width(m) and all(type(v) is int for v in sol)
            assert mat_vec(field, m, field.from_ints(sol, den)) == b


def test_rref_canonical_and_idempotent():
    rng = random.Random(1)
    for _ in range(50):
        m = rand_matrix(rng, Q, rng.randint(1, 5), rng.randint(1, 5))
        red, pivots = rref(m, Q)
        again, pivots2 = rref(red, Q)
        assert red == again and pivots == pivots2
        for row, c in zip(red, pivots):
            assert row[c] == 1
            # pivot columns are cleared elsewhere
            for other in red:
                if other is not row:
                    assert other[c] == 0


def test_solve_and_nullspace_agree():
    rng = random.Random(2)
    for field in (Q, F5):
        for _ in range(40):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            a = rand_matrix(rng, field, rows, cols)
            x = [random_scalar(field, rng) for _ in range(cols)]
            b = mat_vec(field, a, x)
            sol = solve(a, b, field)
            assert sol is not None
            assert mat_vec(field, a, sol) == b
            # nullspace vectors really annihilate
            for v in nullspace(a, field):
                assert not any(mat_vec(field, a, v))
            # rank-nullity
            assert linalg.rank(linalg.int_rows(a, field), field) + len(nullspace(a, field)) \
                == cols


def test_solve_inconsistent():
    a = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert solve(a, [Fraction(1), Fraction(2)], Q) is None


def test_mat_mul_skips_zero_entries_and_matches_the_dense_sum():
    rng = random.Random(11)
    for field in (Q, F5):
        for rows, inner, cols in ((1, 1, 1), (3, 4, 2), (5, 5, 5)):
            a = [[random_scalar(field, rng, 3) if rng.random() < 0.4 else field.zero
                  for _ in range(inner)] for _ in range(rows)]
            a[0] = [field.zero] * inner
            b = rand_matrix(rng, field, inner, cols, 3)
            want = [[sum((a[i][k] * b[k][j] for k in range(inner)), field.zero)
                     for j in range(cols)] for i in range(rows)]
            got = linalg.mat_mul(a, b)
            assert got == want
            assert all(type(x) is type(field.zero) for row in got for x in row)


def _leibniz_det(m, field):
    """det m as the signed sum over permutations, sharing no code with sympy."""
    n = len(m)
    total = field.zero
    for perm in itertools.permutations(range(n)):
        term = field.one
        for i, j in enumerate(perm):
            term = term * m[i][j]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def _assert_charpoly_by_leibniz(ints, field):
    """charpoly of the integer rows of ints, their zeros stored, is monic of
    degree n and equals det(tI - A) at t = 0..n, A the ints as field scalars."""
    n = len(ints)
    got = linalg.charpoly([dict(enumerate(row)) for row in ints], n, field)
    a = [[field.scalar(x) for x in row] for row in ints]
    assert len(got) == n + 1 and got[-1] == field.one
    for t in map(field.scalar, range(n + 1)):
        shifted = [[(t if i == j else field.zero) - x for j, x in enumerate(row)]
                   for i, row in enumerate(a)]
        assert sum((c * t ** k for k, c in enumerate(got)), field.zero) \
            == _leibniz_det(shifted, field)


def test_charpoly_against_sympy():
    # the oracle is the Leibniz determinant, not sympy, since charpoly is sympy's
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 4)
        _assert_charpoly_by_leibniz([[rng.randint(-5, 5) for _ in range(n)]
                                     for _ in range(n)], Q)


def test_charpoly_gf():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        # residues and not: a row may hold -7..7
        _assert_charpoly_by_leibniz([[rng.randint(-7, 7) for _ in range(n)]
                                     for _ in range(n)], F5)


# -- differential test against sympy's dense elimination ---------------


def _oracle_rref(m, field):
    """(rows, pivots) of m from sympy's dense DomainMatrix elimination.

    The dense methods share no code with the sparse ``sdm`` path linalg
    runs on: over GF(p) Gauss-Jordan ``ddm_irref``, over Q fraction-free
    elimination after clearing denominators. (``sympy.Matrix.rref`` hands
    rational matrices to ``DomainMatrix.rref`` in auto mode, which picks
    ``sdm_irref`` for sparse inputs, so it is not used here.)
    """
    if field.kind == "rationals":
        dom, method = sympy.QQ, "CD_dense"
        to_dom = lambda x: dom(x.numerator, x.denominator)
        back = lambda e: Fraction(int(e.numerator), int(e.denominator))
    else:
        dom, method = sympy.GF(field.characteristic), "GJ_dense"
        to_dom = lambda x: dom(x.v)
        back = lambda e: field.scalar(int(e))
    dm = DomainMatrix([[to_dom(x) for x in row] for row in m],
                      (len(m), len(m[0])), dom)
    red, pivots = dm.rref(method=method)
    return [[back(e) for e in row] for row in red.to_list()[:len(pivots)]], list(pivots)


def _oracle_nullspace(m, field):
    """Kernel basis read off the oracle rref, put in canonical form by it."""
    red, pivots = _oracle_rref(m, field)
    cols = len(m[0])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [field.zero] * cols
        v[fc] = field.one
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return _oracle_rref(basis, field)[0] if basis else []


def _differential_cases():
    rng = random.Random(2011)
    shapes = [(1, 1), (1, 6), (6, 1), (3, 7), (7, 3), (5, 5), (8, 8)]
    for field in (Q, FieldSpec.prime_field(2), F5, FieldSpec.prime_field(11)):
        yield field, [[field.zero] * 6 for _ in range(4)]  # the all-zero matrix
        for rows, cols in shapes * 8:
            density = rng.choice((0.15, 0.4, 0.7, 1.0))
            m = [[random_scalar(field, rng, 4) if rng.random() < density else field.zero
                  for _ in range(cols)] for _ in range(rows)]
            if rows > 1 and rng.random() < 0.5:
                m[rng.randrange(rows)] = [field.zero] * cols  # a zero row
            if cols > 1 and rng.random() < 0.5:
                c = rng.randrange(cols)  # a zero column
                for row in m:
                    row[c] = field.zero
            if rows > 2 and rng.random() < 0.3:
                m[-1] = [a + b for a, b in zip(m[0], m[1])]  # a dependent row
            yield field, m


def test_rref_nullspace_solve_match_dense_sympy():
    rng = random.Random(17)
    count = 0
    for field, m in _differential_cases():
        count += 1
        want_rows, want_pivots = _oracle_rref(m, field)
        assert rref(m, field) == (want_rows, want_pivots)
        assert linalg.rank(linalg.int_rows(m, field), field) == len(want_pivots)
        assert nullspace(m, field) == _oracle_nullspace(m, field)
        b = [random_scalar(field, rng, 4) for _ in m]
        aug = [row + [bi] for row, bi in zip(m, b)]
        consistent = len(want_pivots) == len(_oracle_rref(aug, field)[1])
        sol = solve(m, b, field)
        assert (sol is not None) == consistent
        if consistent:
            assert mat_vec(field, m, sol) == b
        x = [random_scalar(field, rng, 4) for _ in m[0]]
        sol = solve(m, mat_vec(field, m, x), field)
        assert sol is not None and mat_vec(field, m, sol) == mat_vec(field, m, x)
    assert count > 200


# -- differential test against the scalar elimination -------------------
#
# The reference functions are the elimination that the integer one replaced:
# sympy's sparse `sdm_irref` run on dict rows of the Fraction or GFElement
# scalars themselves. The integer elimination must give the same rref, rank,
# kernel basis and particular solution, with `==` and the same scalar types.


def _ref_dict_rows(rows):
    sparse, ncols = {}, 0
    for i, row in enumerate(rows):
        ncols = len(row)
        nz = {j: x for j, x in enumerate(row) if x}
        if nz:
            sparse[i] = nz
    return sparse, ncols


def _ref_dense_rows(sparse, ncols, zero):
    out = []
    for nz in sparse:
        row = [zero] * ncols
        for j, x in nz.items():
            row[j] = x
        out.append(row)
    return out


def ref_rref(rows):
    sparse, ncols = _ref_dict_rows(rows)
    red, pivots, _ = sdm_irref(sparse)
    if not pivots:
        return [], []
    one = red[0][pivots[0]]
    return _ref_dense_rows(red.values(), ncols, one - one), pivots


def ref_rank(rows):
    return len(sdm_irref(_ref_dict_rows(rows)[0])[1])


def ref_solve(a, b):
    if not a:
        return []
    sparse, cols = _ref_dict_rows(a)
    for i, bi in enumerate(b):
        if bi:
            sparse.setdefault(i, {})[cols] = bi
    red, pivots, _ = sdm_irref(sparse)
    if pivots and pivots[-1] == cols:
        return None
    particular = sdm_particular_from_rref(red, cols + 1, pivots)
    return _ref_dense_rows([particular], cols, b[0] - b[0])[0]


def ref_nullspace(a, field):
    sparse, cols = _ref_dict_rows(a)
    red, pivots, nonzero_cols = sdm_irref(sparse)
    kernel, _ = sdm_nullspace_from_rref(red, field.one, cols, pivots, nonzero_cols)
    return _ref_dense_rows(sdm_irref(dict(enumerate(kernel)))[0].values(), cols, field.zero)


def same(a, b):
    """Equal and of the same scalar types, entry by entry."""
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


ELIMINATION_FIELDS = [Q] + [FieldSpec.prime_field(p) for p in (2, 3, 5, 7, 101)]


def _wide_scalar(field, rng):
    """A field scalar; over Q with numerators and denominators up to 10^12,
    so that the rows of one matrix have large, unequal denominators."""
    if field.kind == "prime-field":
        return random_scalar(field, rng)
    return Fraction(rng.randint(-10 ** rng.randint(0, 12), 10 ** rng.randint(0, 12)),
                    rng.randint(1, 10 ** rng.randint(0, 12)))


def _elimination_cases(field, rng):
    """(kind, matrix) pairs: the edge shapes, then random matrices of every
    shape, some with zero rows and dependent rows."""
    zero = field.zero
    yield "empty", []
    yield "zero-rows", [[zero] * 4 for _ in range(3)]
    yield "one-zero-entry", [[zero]]
    yield "one-row", [[_wide_scalar(field, rng) for _ in range(5)]]
    for kind, (rows, cols) in (("tall", (9, 3)), ("wide", (3, 9)), ("square", (6, 6)),
                               ("one-column", (5, 1))) * 6:
        density = rng.choice((0.2, 0.5, 1.0))
        m = [[_wide_scalar(field, rng) if rng.random() < density else zero
              for _ in range(cols)] for _ in range(rows)]
        yield kind, m
        if rows > 2:  # rank deficient: a zero row and a sum of two rows
            deficient = [list(row) for row in m]
            deficient[0] = [zero] * cols
            deficient[-1] = [a + b for a, b in zip(m[1], m[2])]
            yield kind + "-deficient", deficient


def test_elimination_matches_the_scalar_sdm_irref():
    rng = random.Random(181)
    kinds = set()
    inconsistent = 0
    for field in ELIMINATION_FIELDS:
        for kind, m in _elimination_cases(field, rng):
            kinds.add(kind)
            red, pivots = rref(m, field)
            want_red, want_pivots = ref_rref(m)
            assert same(red, want_red) and pivots == want_pivots, (field, kind, m)
            assert linalg.rank(linalg.int_rows(m, field), field) == ref_rank(m)
            assert same(nullspace(m, field), ref_nullspace(m, field))
            rhs = [[_wide_scalar(field, rng) for _ in m]]  # in general inconsistent
            if m and m[0]:
                x = [_wide_scalar(field, rng) for _ in m[0]]
                rhs.append(mat_vec(field, m, x))  # consistent
            for b in rhs:
                got = solve(m, b, field)
                want = ref_solve(m, b)
                assert same(got, want), (field, kind, m, b)
                inconsistent += got is None
    assert kinds >= {"empty", "zero-rows", "one-row", "tall", "wide",
                     "square-deficient", "tall-deficient"}
    assert inconsistent > 20


def test_solve_particular_solution_sets_free_variables_to_zero():
    # x + 2y = 3 over Q with unequal row denominators: y is free, x = 3
    half, third = Fraction(1, 2), Fraction(1, 3)
    a = [[half, Fraction(1)], [third, Fraction(2, 3)]]
    b = [Fraction(3, 2), Fraction(1)]
    sol = solve(a, b, Q)
    assert same(sol, [Fraction(3), Fraction(0)]) and same(sol, ref_solve(a, b))
    f7 = FieldSpec.prime_field(7)
    sol = linalg.solve([{1: 2, 2: 4, 3: 6}, {}], 3, f7)  # 2y + 4z = 6: y = 3, z = 0
    assert sol == ([0, 3, 0], 1)


# -- differential test against the dense integer-row path ---------------
#
# The reference functions are the entry points that sparse rows replaced:
# they took dense integer rows, read the column count off their length and
# scanned every entry for the nonzero ones before the shared elimination.
# Sparse rows must give the same rref, rank, kernel basis and particular
# solution, with `==` and the same scalar types.


def _dense_reduced(rows, field):
    p = field.characteristic
    sparse, ncols = [], 0
    for row in rows:
        ncols = len(row)
        if p:
            nz = {j: r for j, x in enumerate(row) if x and (r := x % p)}
        else:
            nz = {j: x for j, x in enumerate(row) if x}
        if nz:
            sparse.append(nz)
    return (*linalg._reduced(sparse, field), ncols)


def dense_rref(rows, field):
    red, den, pivots, ncols = _dense_reduced(rows, field)
    return scalar_rows((red, den, pivots), ncols, field), pivots


def dense_rank(rows, field):
    return len(_dense_reduced(rows, field)[2])


def dense_solve(rows, field):
    if not rows:
        return []
    red, den, pivots, ncols = _dense_reduced(rows, field)
    cols = ncols - 1
    if pivots and pivots[-1] == cols:
        return None
    x = [0] * cols
    for row, c in zip(red, pivots):
        x[c] = row.get(cols, 0)
    return field.from_ints(x, den)


def dense_nullspace(rows, field):
    p = field.characteristic
    red, den, pivots, ncols = _dense_reduced(rows, field)
    kernel = {j: {j: den} for j in range(ncols)}
    for c in pivots:
        del kernel[c]
    for row, c in zip(red, pivots):
        for j, x in row.items():
            if j != c:
                kernel[j][c] = -x % p if p else -x
    return scalar_rows(linalg._reduced(list(kernel.values()), field), ncols, field)


def _sparse(row, rng, p):
    """row as a dict of its nonzero entries, with some stored zeros: 0, or
    a multiple of p over GF(p)."""
    out = {j: x for j, x in enumerate(row) if x}
    for j, x in enumerate(row):
        if not x and rng.random() < 0.3:
            out[j] = p * rng.randint(-3, 3)
    return out


def _integer_cases(p, rng):
    """(kind, dense integer rows, column count): the edge shapes, then
    random matrices, some with multiples of p, zero rows and dependent
    rows."""
    yield "empty", [], 0
    yield "empty-rows-wide", [], 4
    yield "zero-width", [[], []], 0
    yield "zero-rows", [[0] * 5 for _ in range(3)], 5
    for rows, cols in ((1, 1), (1, 6), (6, 1), (4, 7), (7, 4), (6, 6)) * 5:
        density = rng.choice((0.2, 0.5, 1.0))
        m = [[rng.randint(-10 ** 6, 10 ** 6) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
        if p and rng.random() < 0.5:
            m[0] = [p * x for x in m[0]]  # 0 mod p, stored as nonzero ints
        if rows > 2 and rng.random() < 0.5:
            m[1] = [0] * cols
            m[-1] = [a - b for a, b in zip(m[0], m[2])]
        yield "random", m, cols


def test_sparse_rows_match_the_dense_integer_path():
    rng = random.Random(1468)
    kinds = set()
    for field in [Q] + [FieldSpec.prime_field(p) for p in (2, 3, 5, 7)]:
        p = field.characteristic
        for kind, m, cols in _integer_cases(p, rng):
            kinds.add(kind)
            sparse = [_sparse(row, rng, p) for row in m]
            # an empty row list carries no width; the dense path needed a zero row
            dense = m or [[0] * cols]
            echelon = linalg.rref(sparse, field)
            assert same((scalar_rows(echelon, cols, field), echelon[2]),
                        dense_rref(dense, field)), (field, m)
            assert linalg.rank(sparse, field) == dense_rank(dense, field)
            assert same(scalar_rows(linalg.nullspace(sparse, cols, field), cols, field),
                        dense_nullspace(dense, field))
            for b in ([rng.randint(-9, 9) for _ in dense], [0] * len(dense)):
                aug = [row + [c] for row, c in zip(dense, b)]
                got = linalg.solve([{**r, cols: c} if c or rng.random() < 0.5 else r
                                    for r, c in zip(sparse or [{}] * len(dense), b)],
                                   cols, field)
                got = None if got is None else field.from_ints(*got)
                assert same(got, dense_solve(aug, field)), (field, m, b)
    assert kinds == {"empty", "empty-rows-wide", "zero-width", "zero-rows", "random"}


# -- the Q elimination against sympy's fraction-free one ----------------
#
# The reference is sympy's Bareiss-style `sdm_rref_den` over ZZ, the Q
# elimination that the primitive-row loop replaced: the same reduced rows,
# read as Fractions, and the same pivots.


def _rational_cases(rng):
    """Sparse integer row sets: the edge cases, then random sparse and dense
    ones of 2- to 80-bit entries, each with a row of content > 1, some with
    negative leading entries, stored zeros, and duplicate and dependent
    rows."""
    yield []
    yield [{}, {0: 0, 3: 0}]
    yield [{0: 3}]
    yield [{2: -6, 5: 4}]
    yield [{0: 2, 1: 4}, {0: 2, 1: 4}, {0: -1, 1: -2}]
    big = 2 ** 64
    yield [{1: big + 1, 2: -4 * big}, {0: 3 ** 50, 2: 1},
           {0: 3 ** 50, 1: big + 1, 2: 1 - 4 * big}]
    for _ in range(400):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        density = rng.choice((0.2, 0.5, 1.0))
        h = 2 ** rng.choice((2, 8, 64, 80))
        rows = [{j: rng.randint(-h, h) for j in range(ncols) if rng.random() < density}
                for _ in range(nrows)]
        k = rng.randint(2, 12)
        rows[0] = {j: k * x for j, x in rows[0].items()}
        if rng.random() < 0.5:
            rows[-1] = {j: -abs(x) for j, x in rows[-1].items()}
        if nrows > 2:
            rows.append(dict(rows[1]))
            rows.append({j: 3 * rows[1].get(j, 0) - k * rows[2].get(j, 0) for j in range(ncols)})
        rng.shuffle(rows)
        yield rows


def _fractions(rows, den):
    return [{j: Fraction(x, den) for j, x in row.items()} for row in rows]


def test_rational_elimination_matches_sdm_rref_den():
    for rows in _rational_cases(random.Random(1101)):
        red, den, pivots = linalg.rref(rows, Q)
        nonzero = [r for row in rows if (r := {j: x for j, x in row.items() if x})]
        want, want_den, want_pivots = sdm_rref_den(dict(enumerate(nonzero)), sympy.ZZ)
        assert pivots == want_pivots, rows
        assert _fractions(red, den) == _fractions(want.values(), int(want_den)), rows


def test_rational_echelon_is_canonical():
    """Each row holds den at its pivot and 0 at the other pivots, gcd(den,
    every entry) = 1, and a shuffled, rescaled generating set plus a
    redundant combination gives the identical echelon and kernel."""
    rng = random.Random(1468)
    for rows in _rational_cases(rng):
        echelon = linalg.rref(rows, Q)
        red, den, pivots = echelon
        assert den > 0 and math.gcd(den, *[x for row in red for x in row.values()]) == 1
        for row, c in zip(red, pivots):
            assert row[c] == den and not any(row.get(d) for d in pivots if d != c)
        gens = [{j: k * x for j, x in row.items()}
                for row in rows for k in [rng.choice((-3, -1, 1, 2, 7))]]
        rng.shuffle(gens)
        if len(gens) > 1:
            gens.append({j: gens[0].get(j, 0) - 5 * gens[1].get(j, 0)
                         for j in gens[0].keys() | gens[1].keys()})
        assert linalg.rref(gens, Q) == echelon, rows
        ncols = 1 + max((j for row in rows for j in row), default=0)
        assert linalg.nullspace(gens, ncols, Q) == linalg.nullspace(rows, ncols, Q)


# -- exactness on large sparse eliminations ----------------------------


def test_central_simple_m5_rationals():
    alg = construct_matrix_algebra(Q, 5)
    assert is_central_simple(alg).verdict == "true"
    rep = psi_bijective(trivially_graded(alg, GradeGroup.trivial()))
    assert rep.verdict == "true" and rep.details["rank"] == 625


def test_psi_bijective_degree5_symbol_gf11():
    g = construct_symbol_algebra(FieldSpec.prime_field(11), 5, 2, 3, 3)
    rep = psi_bijective(g)
    assert rep.verdict == "true" and rep.details["rank"] == 625
