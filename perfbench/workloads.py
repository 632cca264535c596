"""The four benchmark workloads.

Each workload is a set-up function `workload(seed, workdir)`. It generates
its inputs from the seed, writes the definition files the CLI reads, builds
the algebras that are made ahead of time, and returns one batch: the list of
operations that every batch of the run repeats. The composition of a batch
(how many operations of each kind, and their sizes) is fixed; the seed
chooses parameters, elements, shift vectors and permutations.

An operation is a call into gradedk plus a check against an expected value
from `oracles`, which does not use gradedk. Only the call is timed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import gradedk as gk
import gradedk.cli  # noqa: F401  (binds gk.cli)

import oracles as orc

Q = gk.FieldSpec.rationals()
T2_DEFECT = ("is_central_simple answers true (sampled) on T_2(Q), which is not "
             "simple; ROADMAP open item 3")


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], object]   # None when the result is right, else a reason
    known_defect: str = ""


def run_cli(argv):
    """gradedk's CLI in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = gk.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_op(kind, argv, expected_rc, extra_check=None):
    """expected_rc is an exit code, or a function computing it at check time."""
    def check(res):
        rc = expected_rc() if callable(expected_rc) else expected_rc
        return orc.check_exit(res, rc) or (extra_check and extra_check(res[1]))
    return Op(kind, lambda: run_cli(argv), check)


def verdict_is(expected):
    def check(report):
        if report.verdict != expected:
            return "verdict %s (%s), expected %s" % (report.verdict, report.strategy, expected)
        return None
    return check


def small_rational(rng):
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2)))


def nonzero(rng, lo, hi):
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# -- definition files, written without gradedk ----------------------------


QUATERNION_GRADINGS = {
    "Z2xZ2": ("Z/2 x Z/2", "(0,0) (1,0) (0,1) (1,1)"),
    "Z2": ("Z/2", "(0) (0) (1) (1)"),
    "trivial": ("trivial", "() () () ()"),
    "broken": ("Z/2 x Z/2", "(0,0) (1,0) (1,0) (0,1)"),   # i*j = k breaks closure
}


def quaternion_file(a, b, grading):
    group, degrees = QUATERNION_GRADINGS[grading]
    products = [(0, t, t, 1) for t in range(4)] + [(t, 0, t, 1) for t in range(1, 4)]
    products += [(1, 1, 0, a), (1, 2, 3, 1), (1, 3, 2, a), (2, 1, 3, -1),
                 (2, 2, 0, b), (2, 3, 1, -b), (3, 1, 2, -a), (3, 2, 1, b),
                 (3, 3, 0, -a * b)]
    lines = ["[algebra]", "field = Q", "group = %s" % group, "basis = 1 i j k",
             "degrees = %s" % degrees, "unit = 1 0 0 0", "[products]"]
    lines += ["%d %d %d %s" % p for p in products]
    return "\n".join(lines) + "\n"


def matrix2_file(s):
    """M_2(Q) on e11 e12 e21 e22 graded by Z with deg e_ij = s_j - s_i, shift (0, s)."""
    lines = ["[algebra]", "field = Q", "group = Z", "basis = e11 e12 e21 e22",
             "degrees = (0) (%d) (%d) (0)" % (s, -s), "unit = 1 0 0 1", "[products]"]
    for i in range(2):
        for j in range(2):
            for l in range(2):
                lines.append("%d %d %d 1" % (2 * i + j, 2 * j + l, 2 * i + l))
    return "\n".join(lines) + "\n"


def construct_file(**kv):
    return "[construct]\n" + "".join("%s = %s\n" % item for item in kv.items())


# -- seeded algebras ------------------------------------------------------


def triangular_basis_algebra(field, rng, units=None):
    """T_2(F), the upper-triangular 2x2 matrices, on a seeded random basis.

    A basis vector (m11, m12, m22) is a unit iff m11 m22 != 0, and a non-unit
    generates a proper two-sided ideal. units=True draws a basis of units
    only, units=False a basis with at least one non-unit, None either."""
    p = field.characteristic
    while True:
        basis = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]   # (m11, m12, m22)
        if units is not None and units != all(b[0] * b[2] for b in basis):
            continue
        mat = [[Fraction(basis[c][r]) for c in range(3)] for r in range(3)]
        det = (mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
               - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
               + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0]))
        if det % p if p else det:
            break

    def coords(v):
        # solve mat * c = v by Cramer's rule over Q; GF(p) coerces the fractions
        out = []
        for k in range(3):
            m = [row[:] for row in mat]
            for r in range(3):
                m[r][k] = Fraction(v[r])
            d = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                 - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                 + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
            out.append(d / det)
        return out

    def mul(x, y):   # (x11, x12, x22) * (y11, y12, y22)
        return [x[0] * y[0], x[0] * y[1] + x[1] * y[2], x[2] * y[2]]

    products = {}
    for i in range(3):
        for j in range(3):
            c = coords(mul(basis[i], basis[j]))
            products[(i, j)] = {k: field.scalar(v) for k, v in enumerate(c)}
    unit = [field.scalar(v) for v in coords([1, 0, 1])]
    return gk.Algebra(field, ["b0", "b1", "b2"], products, unit=unit)


def laurent_matrix_ring(rng, step, residues):
    """M_n(K[t^step, t^-step])(shift) with the shift residues mod step given;
    the seed picks the representatives and their order. When the residues
    cover Z/step the ring is strongly graded."""
    base = gk.construct_laurent(Q, step=step)
    z = base.group
    shift = [r + step * rng.randint(-2, 2) for r in residues]
    rng.shuffle(shift)
    return gk.ShiftedMatrixAlgebra(base, [z.element((s,)) for s in shift]), shift


# -- azumaya-routes -------------------------------------------------------


def azumaya_routes(seed, workdir):
    s3, d4 = (orc.FiniteGroupFacts(orc.dihedral_perms(n)) for n in (3, 4))
    opt = ["--seed", str(seed)]

    def check(pred, file, rc, via=None):
        path, kind = file
        argv = opt + ["check", pred, path] + (["--via", via] if via else [])
        return cli_op("cli.%s.%s" % (via or pred, kind), argv, rc)

    rng = random.Random("azumaya-routes/%d" % seed)

    def file(kind, t, text):
        return write(os.path.join(workdir, "%s%d.alg" % (kind, t)), text), kind

    quats, broken, syms, mats, truncs, rings = [], [], [], [], [], []
    for t in range(4):
        a, b = nonzero(rng, -9, 9), nonzero(rng, -9, 9)
        quats.append(file("quaternion", t, quaternion_file(a, b, "Z2xZ2")))
        broken.append(file("broken", t, quaternion_file(a, b, "broken")))
        p = (3, 5, 7, 11)[t]   # exhaustive graded-csa scans grow with p
        syms.append(file("symbol", t, construct_file(
            kind="symbol", field="GF(%d)" % p, n=2, a=rng.randrange(1, p),
            b=rng.randrange(1, p), xi=p - 1)))
        s = rng.randint(1, 5) if t == 0 else rng.choice((0, rng.randint(1, 5)))
        mats.append((file("M2", t, matrix2_file(s)), s))
        truncs.append(file("truncated", t, construct_file(kind="truncated", field="Q",
                                                          m=2 + t % 2)))
    for t, (group, facts) in enumerate([("S3", s3), ("S3", s3), ("D4", d4), ("S3", s3)]):
        p = (0, 3, 5, 7)[t]
        rings.append((file(group, t, construct_file(
            kind="group-ring", field="Q" if p == 0 else "GF(%d)" % p, group=group)),
            facts, p))
    lazy = [laurent_matrix_ring(rng, rng.randint(1, 3), [rng.randint(0, 2) for _ in range(n)])[0]
            for n in (3, 3, 3, 3, 4)]
    csa_lazy = laurent_matrix_ring(rng, 3, [0, 1, 2])[0]

    # truncs[0] and truncs[2] are F[t]/(t^2): psi stays cheap and is false
    ops = [check("azumaya", quats[0], 0, "psi"), check("azumaya", syms[0], 0, "braun"),
           check("azumaya", truncs[0], 1, "psi"), check("azumaya", truncs[2], 1, "psi"),
           check("azumaya", mats[0][0], 0, "graded-csa")]
    for t in range(4):
        ops += [check("azumaya", quats[t], 0, "graded-csa"),
                check("azumaya", syms[t], 0, "graded-csa"),
                check("azumaya", truncs[t], 1, "graded-csa")]
    for t in (0, 1, 2, 3, 0, 1, 3):
        ring, facts, p = rings[t]
        if t < 3:
            ops.append(check("azumaya", ring, 1 if facts.classes > 1 else 0, "graded-csa"))
        ops.append(check("azumaya", ring, 0 if orc.group_ring_azumaya(facts, p) else 1,
                         "group-ring"))
    for t in range(8):
        ops += [check("grading", quats[t % 4], 0), check("grading", syms[t % 4], 0),
                check("strongly-graded", quats[t % 4], 0),
                check("strongly-graded", syms[t % 4], 0)]
    for t in range(4):
        m2, s = mats[t]
        ops += [check("grading", m2, 0), check("strongly-graded", m2, 0 if s == 0 else 1),
                check("grading", broken[t], 3), check("grading", truncs[t], 0),
                check("strongly-graded", truncs[t], 1)]
    ops += [check(pred, rings[t][0], 0) for t in (0, 1) for pred in ("grading", "strongly-graded")]
    for m in lazy[:4] * 4 + lazy[4:]:
        ops.append(Op("lib.psi_graded_field.n%d" % m.n,
                      lambda m=m: gk.psi_bijective_matrix_over_graded_field(m),
                      verdict_is("true")))
    ops.append(Op("lib.graded_csa_lazy.n3", lambda: gk.is_graded_azumaya_csa(csa_lazy),
                  verdict_is("true")))
    return ops


# -- trace-k0-q -------------------------------------------------------------


def trace_k0_q(seed, workdir):
    mats = {n: gk.construct_matrix_algebra(Q, n) for n in (2, 3, 4)}
    rings = {"S3": (gk.construct_group_ring(Q, gk.GradeGroup.symmetric_3()),
                    orc.FiniteGroupFacts(orc.dihedral_perms(3))),
             "D4": (gk.construct_group_ring(Q, gk.GradeGroup.dihedral(4)),
                    orc.FiniteGroupFacts(orc.dihedral_perms(4)))}
    rng = random.Random("trace-k0-q/%d" % seed)
    quats = []
    for _ in range(3):
        a, b = nonzero(rng, -9, 9), nonzero(rng, -9, 9)
        quats.append((gk.construct_quaternion(Q, a, b).algebra, a, b))
    # three bases of units, three with a non-unit: the same number of each
    # on every seed, so the count of T_2 failures does not depend on the seed
    t2 = [triangular_basis_algebra(Q, rng, units=k % 2 == 0) for k in range(6)]
    lazy = [(laurent_matrix_ring(rng, step, residues), step)
            for step, residues in ((3, [0, 1, 2]), (2, [0, 1, 1]), (4, [0, 1, 2, 3]))]
    ops = []
    for t in range(30):
        alg, a, b = quats[t % 3]
        x = [small_rational(rng) for _ in range(4)]
        ops.append(Op("lib.trd_nrd.quaternion",
                      lambda alg=alg, x=x: gk.reduced_char_poly(alg, alg.element(x)),
                      _check_trd_nrd(lambda a=a, b=b, x=x: orc.quaternion_trd_nrd(a, b, x))))
    for n, count in ((3, 30), (4, 20)):
        for _ in range(count):
            x = [small_rational(rng) for _ in range(n * n)]
            ops.append(Op("lib.trd_nrd.M%d" % n,
                          lambda n=n, x=x: gk.reduced_char_poly(mats[n], mats[n].element(x)),
                          _check_trd_nrd(lambda n=n, x=x: orc.matrix_trd_nrd(n, x))))
    csas = [("quaternion", quats[0][0], 2), ("quaternion", quats[1][0], 2),
            ("M3", mats[3], 3), ("M3", mats[3], 3), ("M4", mats[4], 4)]
    for name, alg, n in csas:
        ops.append(Op("lib.trd_kernel_check.%s" % name,
                      lambda alg=alg: gk.trd_kernel_check(alg), verdict_is("true")))
    for name, alg, n in csas + csas[:4] + [csas[4]]:
        x = [small_rational(rng) for _ in range(alg.dim)]
        ops.append(Op("lib.trd_na_commutator.%s" % name,
                      lambda alg=alg, x=x: gk.trd_na_plus_commutator_check(alg, alg.element(x)),
                      _check_na_commutator(name, n)))
    for n in (3, 3, 4):
        ops.append(Op("lib.center.M%d" % n, lambda n=n: gk.center(mats[n]),
                      _check_matrix_center(n)))
        ops.append(Op("lib.commutator_subspace.M%d" % n,
                      lambda n=n: gk.commutator_subspace(mats[n]),
                      _check_matrix_commutators(n)))
    for (m, shift), step in lazy:
        # K0 is free on the distinct shift residues mod step
        ops.append(Op("lib.k0gr_laurent.n%d" % m.n, lambda m=m: strongly_graded_k0(m),
                      _check_k0_rank(len({s % step for s in shift}))))
    for name in ("S3", "S3", "D4"):
        alg, facts = rings[name][0].algebra, rings[name][1]
        ops.append(Op("lib.split_identity_component.%s" % name,
                      lambda alg=alg: gk.split_identity_component(alg),
                      _check_split(facts)))
    for n in (2, 2, 3):
        ops.append(Op("lib.is_central_simple.M%d" % n,
                      lambda n=n: gk.is_central_simple(mats[n]), verdict_is("true")))
    for alg in t2:
        ops.append(Op("lib.is_central_simple.T2", lambda alg=alg: gk.is_central_simple(alg),
                      verdict_is("false"), known_defect=T2_DEFECT))
    return ops


def _check_trd_nrd(oracle):
    """oracle() gives the expected (Trd, Nrd); it runs at check time, outside set-up."""
    def check(rcp):
        expected = oracle()
        if (rcp.trd, rcp.nrd) != expected:
            return "Trd/Nrd %r, expected %r" % ((rcp.trd, rcp.nrd), expected)
        return None
    return check


def _check_na_commutator(name, n):
    def check(report):
        if report.verdict != "true":
            return "verdict %s" % report.verdict
        w = report.witness.coords
        trace = w[0] if name == "quaternion" else sum(w[i * n + i] for i in range(n))
        return "witness n*a - Trd(a) has nonzero trace" if trace else None
    return check


def _check_matrix_center(n):
    identity = tuple(Fraction(int(i == j)) for i in range(n) for j in range(n))

    def check(sub):
        if [tuple(r) for r in sub.rows] != [identity]:
            return "centre of M_%d is not the scalars: %r" % (n, sub.rows)
        return None
    return check


def _check_matrix_commutators(n):
    def check(sub):
        if sub.dim != n * n - 1:
            return "[M_%d, M_%d] has dimension %d" % (n, n, sub.dim)
        if any(sum(r[i * n + i] for i in range(n)) for r in sub.rows):
            return "a commutator row has nonzero trace"
        return None
    return check


def _check_split(facts):
    def check(dec):
        dims = [b.dim for b in dec.blocks]
        if len(dims) != facts.rational_classes or sum(dims) != facts.order:
            return "blocks %r, expected %d summing to %d" % (dims, facts.rational_classes,
                                                             facts.order)
        return None
    return check


# -- finite-field-scan ------------------------------------------------------


def finite_field_scan(seed, workdir):
    fields = {p: gk.FieldSpec.prime_field(p) for p in (3, 5, 7)}
    z2 = gk.GradeGroup.cyclic(2)
    m2 = {p: gk.construct_matrix_algebra(f, 2) for p, f in fields.items()}
    s3 = {p: gk.construct_group_ring(f, gk.GradeGroup.symmetric_3()) for p, f in fields.items()}
    d4 = {p: gk.construct_group_ring(f, gk.GradeGroup.dihedral(4)) for p, f in fields.items()}
    scalars = {p: gk.trivially_graded(gk.Algebra(f, ["1"], {(0, 0): {0: 1}}, unit=[1]), z2)
               for p, f in fields.items()}
    split = {p: gk.trivially_graded(gk.Algebra(f, ["e1", "e2"], {(0, 0): {0: 1}, (1, 1): {1: 1}},
                                               unit=[1, 1]), z2)
             for p, f in fields.items()}
    materialized = {}

    def materialize(p, shift):
        """M_n(F_p)(shift) over Z/2 as a GradedAlgebra, built once per (p, shift)."""
        key = (p, tuple(shift))
        if key not in materialized:
            m = gk.ShiftedMatrixAlgebra(scalars[p], [z2.element((s,)) for s in shift])
            materialized[key] = m.materialized
        return materialized[key]

    rng = random.Random("finite-field-scan/%d" % seed)
    cycle = itertools.cycle((3, 5, 7))   # the seed does not pick p: scans grow with it
    prime = lambda: next(cycle)
    syms = []
    for p in (5, 7):
        syms.append(gk.construct_symbol_algebra(fields[p], 2, rng.randrange(1, p),
                                                rng.randrange(1, p), p - 1))
    shifted = []
    for shift in ([0, 1], [0, 1], [0, 1], [0, 1, 1], [0, 0, 1]):
        # both residues occur, so the identity component has small blocks
        rng.shuffle(shift)
        shifted.append((materialize(prime(), shift), shift))
    t2 = [triangular_basis_algebra(fields[prime()], rng) for _ in range(12)]
    ops = []
    for p in (3, 3, 5, 7):
        ops.append(Op("lib.is_central_simple.M2_GF%d" % p,
                      lambda p=p: gk.is_central_simple(m2[p]), verdict_is("true")))
    for alg in t2 + t2:
        ops.append(Op("lib.is_central_simple.T2_GFp",
                      lambda alg=alg: gk.is_central_simple(alg), verdict_is("false")))
    # the eighteen alike F_3[S3] scans hold the p90; the M_2 scans, F_3[D4]
    # and the false solve_shift_matrix searches lie above them, the rest below
    simple = ([("S3", s3[3])] * 18 + [("D4", d4[3])] + [("symbol", g) for g in syms + syms]
              + [("shiftedM2", materialize(3, [0, 1])), ("shiftedM2", materialize(3, [1, 0]))] * 2)
    for name, g in simple:
        ops.append(Op("lib.is_graded_simple.%s" % name,
                      lambda g=g: gk.is_graded_simple(g), verdict_is("true")))
    division = ([("S3", s3[p]) for p in (3, 5, 7)] + [("D4", d4[p]) for p in (3, 5, 7)]
                + [("symbol", g) for g in syms] + [("shiftedM2", g) for g, _ in shifted])
    # the twenty-four alike F_p[D4] checks hold the median latency
    for name, g in division * 2 + division[:6] + [("D4", d4[p]) for p in (3, 5, 7)] * 6:
        # 1-dimensional components with unit generators are graded division
        # rings; the shifted M_2(F_p) has E11 in its identity component
        ops.append(Op("lib.is_graded_division.%s" % name,
                      lambda g=g: gk.is_graded_division(g),
                      verdict_is("false" if name == "shiftedM2" else "true")))
    k0_inputs = ([(g, len(set(shift))) for g, shift in shifted] * 2
                 + [(s3[prime()], 1) for _ in range(8)] + [(g, 1) for g in syms + syms])
    for g, rank in k0_inputs:
        ops.append(Op("lib.k0gr_strongly_graded.GFp",
                      lambda g=g: strongly_graded_k0(g), _check_k0_rank(rank)))
    e, o = z2.identity, z2.element((1,))
    for d, a, p in ([([e], [e], prime()) for _ in range(4)]
                    + [([e, o], [o, e], 3), ([o, e], [o, e], 3)]
                    + [([e, e], [e, o], 3), ([o, o], [e, o], 3)]):
        iso = sorted(x.coords for x in d) == sorted(x.coords for x in a)
        ops.append(Op("lib.solve_shift_matrix.GF%d" % p,
                      lambda d=d, a=a, p=p: gk.solve_shift_matrix(split[p], d, a),
                      _check_shift_matrix(split[p], d, a, iso)))
    return ops


def strongly_graded_k0(g):
    """(strong-grading certificate, K0) for a lazy matrix ring or a
    materialized graded algebra, which have separate strong-grading tests."""
    if isinstance(g, gk.ShiftedMatrixAlgebra):
        sg = gk.is_strongly_graded_matrix(g)
    else:
        sg = gk.is_strongly_graded(g)
    return sg, gk.k0gr_strongly_graded(g, sg)[0]


def _check_k0_rank(rank):
    """Strongly graded, and K0 free of the given rank."""
    def check(res):
        sg, k0 = res
        if not sg:
            return "not strongly graded: %s" % sg.summary()
        if (k0.rank, k0.torsion) != (rank, ()):
            return "K0 %r, expected Z^%d" % (k0, rank)
        return None
    return check


def _check_shift_matrix(base, d, a, iso):
    """R^n(d) ~ R^n(a) over R = F_p x F_p (all in degree 0) iff the degree
    multisets agree; a witness (r, t) must satisfy r t = t r = I with r_ij in
    R_{a_j - d_i}. Products use the base's structure constants directly."""
    alg = base.algebra
    p = alg.field.characteristic
    ints = lambda coords: [c.v for c in coords]
    constants = {key: {k: c.v for k, c in terms.items()} for key, terms in alg.products.items()}

    def mul(x, y):
        out = [0] * alg.dim
        for (i, j), terms in constants.items():
            for k, c in terms.items():
                out[k] = (out[k] + x[i] * y[j] * c) % p
        return out

    def matmul(r, t):
        n = len(r)
        out = [[[0] * alg.dim for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    prod = mul(ints(r[i][k].coords), ints(t[k][j].coords))
                    out[i][j] = [(u + w) % p for u, w in zip(out[i][j], prod)]
        return out

    def check(report):
        if report.verdict != ("true" if iso else "false"):
            return "verdict %s, expected %s" % (report.verdict, "true" if iso else "false")
        if not iso:
            return None
        r, t = report.witness
        n = len(d)
        for i in range(n):
            for j in range(n):
                deg = (a[j].coords[0] - d[i].coords[0]) % 2
                if deg and any(ints(r[i][j].coords)):
                    return "r[%d][%d] is outside its pattern component" % (i, j)
        one = ints(alg.unit_coords)
        for prod in (matmul(r, t), matmul(t, r)):
            for i in range(n):
                for j in range(n):
                    if prod[i][j] != (one if i == j else [0] * alg.dim):
                        return "witness is not a two-sided inverse pair"
        return None
    return check


# -- shift-classify -----------------------------------------------------------


# (group text, free rank, torsion moduli)
SHIFT_GROUPS = [("Z", 1, ()), ("Z^2", 2, ()), ("Z^2 x Z/6", 2, (6,))]


class ShiftSpace:
    """A seeded Gamma_D inside one of SHIFT_GROUPS: a triangular basis for the
    oracle and a unimodular remix of it for the program."""

    def __init__(self, rng, spec, trivial=False):
        self.text, self.free, self.torsion = spec
        d = self.free + len(self.torsion)
        rows = []
        for i in range(d):
            if trivial:
                rows.append([0] * d)
                continue
            # index 2 or 3 on every axis (dividing 6 on the torsion axis), so
            # the cost of a coset label does not depend on the seed
            diag = rng.choice((2, 3))
            rows.append([0] * i + [diag] + [rng.randint(-2, 2) for _ in range(d - i - 1)])
        self.lattice = orc.TriangularLattice(rows)
        mixed = [list(r) for r in rows if any(r)]
        for _ in range(2 * len(mixed)):
            if len(mixed) > 1:
                i, j = rng.sample(range(len(mixed)), 2)
                c = rng.choice((-1, 1))
                mixed[i] = [x + c * y for x, y in zip(mixed[i], mixed[j])]
        rng.shuffle(mixed)
        self.generators = [tuple(self.normalize(r)) for r in mixed]
        self.group = gk.fileformat.parse_group(self.text)
        self.spec = gk.SubgroupSpec(self.group, [self.group.element(g)
                                                 for g in self.generators])
        self.rng = rng

    def normalize(self, x):
        x = list(x)
        for c, n in enumerate(self.torsion):
            x[self.free + c] %= n
        return tuple(x)

    def random_element(self, span=20):
        x = [self.rng.randint(-span, span) for _ in range(self.free)]
        return tuple(x + [self.rng.randrange(n) for n in self.torsion])

    def lattice_element(self):
        out = [0] * len(self.lattice.rows)
        for row in self.lattice.rows:
            c = self.rng.randint(-2, 2)
            out = [x + c * y for x, y in zip(out, row)]
        return tuple(out)

    def pair(self, n, iso):
        """(lam, gam): gam permutes lam, perturbs each entry by Gamma_D and
        translates by sigma; a non-iso pair then moves one entry off its coset."""
        lam = [self.random_element() for _ in range(n)]
        sigma = self.random_element()
        gam = [tuple(a + b + c for a, b, c in zip(x, self.lattice_element(), sigma))
               for x in lam]
        self.rng.shuffle(gam)
        if not iso:
            # move one entry off its coset along one axis
            axis = self.rng.randrange(len(sigma))
            step = [0] * len(sigma)
            step[axis] = self.rng.randint(1, self.lattice.rows[axis][axis] - 1)
            k = self.rng.randrange(n)
            gam[k] = tuple(x + y for x, y in zip(gam[k], step))
        return lam, [self.normalize(x) for x in gam]

    def elements(self, vec):
        return [self.group.element(x) for x in vec]

    def text_of(self, vec):
        return " ".join("(%s)" % ",".join(str(c) for c in x) for x in vec)

    def argv(self, *vecs):
        return (["classify-shift", "--group", self.text, "--subgroup",
                 self.text_of(self.generators)] + [self.text_of(v) for v in vecs])


def shift_classify(seed, workdir):
    rng = random.Random("shift-classify/%d" % seed)
    ops = []
    # (length, group, isomorphic by construction): fifty alike non-isomorphic
    # decisions over Z hold the median latency, twenty-eight alike isomorphic
    # n = 16 decisions over Z^2 hold the p90, and six long ones lie above
    # them. Z^2 x Z/6 costs vary more with the lattice, so it appears only in
    # the shorter CLI calls.
    iso_inputs = ([(12, 0, False)] * 50
                  + [(16, 1, True)] * 28
                  + [(n, 1, t % 2 == 0) for t, n in enumerate((24, 32, 40) * 2)])
    for n, group, iso in iso_inputs:
        space = ShiftSpace(rng, SHIFT_GROUPS[group])
        lam, gam = space.pair(n, iso)
        ops.append(Op("lib.shifted_iso_decision.n%d" % n,
                      lambda s=space, lam=lam, gam=gam: gk.shifted_iso_decision(
                          s.group, s.spec, s.elements(lam), s.elements(gam)),
                      _check_iso_report(space, lam, gam)))
    for t, n in enumerate((8, 12) * 5):
        space = ShiftSpace(rng, SHIFT_GROUPS[t % 2])
        lam, gam = space.pair(n, iso=t % 2 == 0)
        ops.append(Op("lib.canonical_shift.pair",
                      lambda s=space, lam=lam, gam=gam: (
                          gk.canonical_shift(s.group, s.spec, s.elements(lam)),
                          gk.canonical_shift(s.group, s.spec, s.elements(gam))),
                      _check_canonical_pair(space, lam, gam)))
    for t, n in enumerate((8, 10, 12, 12) * 2):
        space = ShiftSpace(rng, SHIFT_GROUPS[t % 3])
        lam, gam = space.pair(n, iso=t % 2 == 0)
        expect = lambda s=space, lam=lam, gam=gam: 0 if orc.shift_iso(s.lattice, lam, gam) else 1
        ops.append(cli_op("cli.classify-shift.pair", space.argv(lam, gam), expect,
                          _check_cli_witness(space, lam, gam)))
    for t in range(4):
        space = ShiftSpace(rng, SHIFT_GROUPS[t % 3])
        lam, gam = space.pair(8, iso=t % 2 == 0)
        ops.append(Op("cli.classify-shift.canonical",
                      lambda a=space.argv(lam), b=space.argv(gam): (run_cli(a), run_cli(b)),
                      _check_cli_canonical(space, lam, gam)))
    files = []
    for t, grading in enumerate(("Z2xZ2", "Z2", "trivial", "Z2xZ2")):
        a, b = nonzero(rng, -9, 9), nonzero(rng, -9, 9)
        order = {"Z2xZ2": 4, "Z2": 2, "trivial": 1}[grading]
        f = write(os.path.join(workdir, "quat%d.alg" % t),
                  quaternion_file(a, b, grading))
        files.append((f, "Z", orc.fg_abelian_repr(order)))
    f = write(os.path.join(workdir, "ring.alg"),
              construct_file(kind="group-ring", field="Q", group="S3"))
    files.append((f, "Z", orc.fg_abelian_repr(6)))
    for t in range(10):
        f, left, right = files[t % len(files)]
        n = rng.choice((2, 3, 6))
        ops.append(cli_op("cli.k0.compare-localized", ["k0", "--compare-localized", str(n), f],
                          0 if left == right else 1, _check_compare(left, right, n)))
    for t in range(12):
        n, m = rng.randint(1, 60), rng.choice((2, 3, 5, 6, 10))
        ops.append(cli_op("cli.k0.exact-sequence",
                          ["k0", "--exact-sequence", str(n), "--localize", str(m)], 0,
                          _check_exact_sequence(n, m)))
    for t in range(16):
        space = ShiftSpace(rng, SHIFT_GROUPS[t % 3], trivial=t % 8 == 7)
        ops.append(Op("lib.k0gr_graded_division",
                      lambda s=space: gk.k0gr_graded_division(s.group, s.spec),
                      _check_k0_division(space.lattice.index())))
    return ops


def _reported_shift_witness(space, lam, gam, report):
    w = report.witness
    return orc.check_shift_witness(space.lattice, lam, gam, list(w["pi"]),
                                   [t.coords for t in w["tau"]], w["sigma"].coords,
                                   space.torsion)


def _check_iso_report(space, lam, gam):
    def check(report):
        expect = "true" if orc.shift_iso(space.lattice, lam, gam) else "false"
        if report.verdict != expect:
            return "verdict %s, expected %s" % (report.verdict, expect)
        return _reported_shift_witness(space, lam, gam, report) if expect == "true" else None
    return check


def _check_canonical_pair(space, lam, gam):
    def check(res):
        same = res[0] == res[1]
        if same != orc.shift_iso(space.lattice, lam, gam):
            return "canonical forms %s but the shifts are %s" % (
                "agree" if same else "differ", "not isomorphic" if same else "isomorphic")
        return None
    return check


def _check_cli_witness(space, lam, gam):
    def check(out):
        if "verdict=true" not in out:
            return None
        w = orc.parse_shift_witness(out)
        if w is None:
            return "no witness printed with verdict=true"
        return orc.check_shift_witness(space.lattice, lam, gam, *w, space.torsion)
    return check


def _check_cli_canonical(space, lam, gam):
    def check(res):
        for r in res:
            bad = orc.check_exit(r, 0)
            if bad:
                return bad
        forms = [orc.parse_canonical(r[1]) for r in res]
        if None in forms:
            return "no canonical form printed"
        if (forms[0] == forms[1]) != orc.shift_iso(space.lattice, lam, gam):
            return "canonical forms disagree with the isomorphism class"
        return None
    return check


def _check_compare(left, right, n):
    want = "%s: %s vs %s (localized at %d)" % (
        "isomorphic" if left == right else "NOT isomorphic", left, right, n)

    def check(out):
        return None if out.strip() == want else "printed %r, expected %r" % (out.strip(), want)
    return check


def _check_exact_sequence(n, m):
    want = "zk0=0; ck0=%s\nck0_localized=%s" % (orc.ck0_of_matrix_ring(n),
                                                orc.ck0_of_matrix_ring(n, m))

    def check(out):
        return None if out.strip() == want else "printed %r, expected %r" % (out.strip(), want)
    return check


def _check_k0_division(index):
    def check(k0):
        if index is None:
            return None if k0 == gk.INFINITE_RANK_FREE else "K0 %r, expected infinite rank" % (k0,)
        if k0 == gk.INFINITE_RANK_FREE or (k0.rank, k0.torsion) != (index, ()):
            return "K0 %r, expected Z^%d" % (k0, index)
        return None
    return check


WORKLOADS = {
    "azumaya-routes": azumaya_routes,
    "trace-k0-q": trace_k0_q,
    "finite-field-scan": finite_field_scan,
    "shift-classify": shift_classify,
}
