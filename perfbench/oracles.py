"""Expected values computed without gradedk.

Every check in the benchmark compares a gradedk result with a value derived
here from first principles: closed formulas, sympy matrices, permutation
groups written out by hand, and lattices given in triangular form. Nothing in
this module imports gradedk.
"""

from __future__ import annotations

import ast
import re
from fractions import Fraction
from math import gcd

import sympy


# -- reduced trace and norm ---------------------------------------------


def quaternion_trd_nrd(a, b, x):
    """(a, b / F) on 1, i, j, k: Trd = 2 x0, Nrd = x0^2 - a x1^2 - b x2^2 + ab x3^2."""
    x0, x1, x2, x3 = x
    return 2 * x0, x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3


def matrix_trd_nrd(n, coords):
    """M_n(Q) on the row-major matrix units: Trd = trace, Nrd = determinant."""
    m = sympy.Matrix(n, n, [sympy.Rational(c.numerator, c.denominator)
                            for c in map(Fraction, coords)])
    return Fraction(str(m.trace())), Fraction(str(m.det()))


# -- finite groups as permutations ----------------------------------------


def _compose(p, q):
    return tuple(p[q[x]] for x in range(len(p)))


def _inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _generate(gens):
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = _compose(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def dihedral_perms(n):
    """D_n (order 2n) acting on the vertices of an n-gon; D_3 is S3."""
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    return _generate([rot, ref])


class FiniteGroupFacts:
    """Order, derived-subgroup order, conjugacy classes and rational classes
    (classes of cyclic subgroups) of a permutation group."""

    def __init__(self, elements):
        elems = list(elements)
        self.order = len(elems)
        comms = [_compose(_compose(g, h), _compose(_inverse(g), _inverse(h)))
                 for g in elems for h in elems]
        self.derived_order = len(_generate(comms))
        classes = set()
        for x in elems:
            classes.add(frozenset(_compose(_compose(g, x), _inverse(g)) for g in elems))
        self.classes = len(classes)
        cyclic = set()
        for x in elems:
            cyc = frozenset(_generate([x]))
            cyclic.add(frozenset(frozenset(_compose(_compose(g, y), _inverse(g)) for y in cyc)
                                 for g in elems))
        self.rational_classes = len(cyclic)


def group_ring_azumaya(facts, characteristic):
    """DeMeyer-Janusz over a field: F[G] is Azumaya iff |G'| is invertible in F."""
    return characteristic == 0 or facts.derived_order % characteristic != 0


# -- lattices in Z^r x Z/n: coset labels by back-substitution --------------


class TriangularLattice:
    """The subgroup generated by upper-triangular rows g_0, ..., g_{d-1} of
    Z^d (g_i[i] = diagonal[i] >= 0, zero before position i). Torsion
    coordinates are covered by choosing diagonal entries that divide the
    torsion order."""

    def __init__(self, rows):
        self.rows = [tuple(r) for r in rows]

    def label(self, t):
        t = list(t)
        for i, row in enumerate(self.rows):
            a = row[i]
            if a:
                k = t[i] // a
                t = [x - k * y for x, y in zip(t, row)]
        return tuple(t)

    def contains(self, t):
        return not any(self.label(t))

    def index(self):
        """[Z^d : L], or None when infinite."""
        n = 1
        for i, row in enumerate(self.rows):
            if not row[i]:
                return None
            n *= row[i]
        return n


def shift_iso(lattice, lam, gam):
    """M_n(D)(lam) ~ M_n(D)(gam): some translation sigma matches the multisets
    of Gamma_D-cosets. Brute force over sigma = gam[0] - lam[j]."""
    if len(lam) != len(gam):
        return False
    target = sorted(lattice.label(x) for x in lam)
    for y in lam:
        sigma = tuple(a - b for a, b in zip(gam[0], y))
        shifted = sorted(lattice.label(tuple(a - s for a, s in zip(x, sigma))) for x in gam)
        if shifted == target:
            return True
    return False


def check_shift_witness(lattice, lam, gam, pi, tau, sigma, torsion_moduli):
    """gam[i] = tau[i] + lam[pi[i]] + sigma with tau[i] in Gamma_D and pi a
    permutation; coordinates past the free rank are compared modulo
    torsion_moduli. Returns None or a reason."""
    n = len(lam)
    if sorted(pi) != list(range(n)):
        return "pi is not a permutation: %r" % (pi,)
    free = len(lam[0]) - len(torsion_moduli)
    for i in range(n):
        if not lattice.contains(tau[i]):
            return "tau[%d] = %r is not in Gamma_D" % (i, tau[i])
        total = [t + l + s for t, l, s in zip(tau[i], lam[pi[i]], sigma)]
        for c, (x, y) in enumerate(zip(total, gam[i])):
            diff = x - y
            if c >= free:
                diff %= torsion_moduli[c - free]
            if diff:
                return "gam[%d] != tau + lam[pi] + sigma" % i
    return None


# -- K0 ------------------------------------------------------------------


def fg_abelian_repr(rank, torsion=()):
    """The text gradedk prints for Z^rank x Z/d1 x ...; used to read CLI output."""
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append("Z^%d" % rank)
    parts += ["Z/%d" % d for d in torsion]
    return " x ".join(parts) if parts else "0"


def ck0_of_matrix_ring(n, localize=None):
    """CK0(M_n(F)) = Z/n (0 for n = 1), optionally with the primes of
    `localize` inverted."""
    if localize:
        while gcd(n, localize) > 1:
            n //= gcd(n, localize)
    return fg_abelian_repr(0, (n,) if n > 1 else ())


# -- CLI output ------------------------------------------------------------


EXIT_OF_VERDICT = {"true": 0, "false": 1, "undecided": 2}


def check_exit(result, expected):
    """The exit-code contract: 0-3 only, consistent with any verdict line, and
    equal to the expected code."""
    rc, out, _ = result
    if rc not in (0, 1, 2, 3):
        return "exit code %r outside 0-3" % (rc,)
    m = re.search(r"verdict=(\w+)", out)
    if m and EXIT_OF_VERDICT.get(m.group(1)) != rc:
        return "exit %d disagrees with verdict=%s" % (rc, m.group(1))
    if rc != expected:
        return "exit %d, expected %d" % (rc, expected)
    return None


def _as_tuple(v):
    return tuple(v) if isinstance(v, tuple) else (v,)


def parse_shift_witness(out):
    """(pi, tau, sigma) from a classify-shift `witness={...}` field."""
    m = re.search(r"witness=(\{.*?\})(;|$)", out, re.M)
    if not m:
        return None
    w = ast.literal_eval(m.group(1))
    return (list(w["pi"]), [_as_tuple(t) for t in w["tau"]], _as_tuple(w["sigma"]))


def parse_canonical(out):
    m = re.search(r"canonical=ShiftCanonicalForm(\(.*\))\s*$", out, re.M)
    return ast.literal_eval(m.group(1)) if m else None
