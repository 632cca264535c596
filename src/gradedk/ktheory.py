"""K0-level invariants computed as isomorphism types of finitely generated
abelian groups: graded K0 of strongly graded algebras through the Wedderburn
splitting of the identity component (`wedderburn.split_identity_component`,
by theorem for a lazy matrix ring), graded K0 of graded division rings
through cosets, and the CK0 / ZK0 exact-sequence data with torsion bounds
and localization. Invariant factors are computed only in `groups`."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .groups import coset_index, signature_text
from .matrixring import ShiftedMatrixAlgebra, identity_component, split_lazy_identity_component
from .verdict import VerdictReport, TRUE, FALSE, EXHAUSTIVE, CONSTRUCTIVE
from .wedderburn import split_identity_component


@dataclass(frozen=True)
class FGAbelianGroup:
    """Isomorphism type Z^rank x Z/d1 x ... x Z/dk with d1 | d2 | ... | dk."""
    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion factors must form a divisibility chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion factors must be at least 2")

    def __repr__(self):
        return signature_text(self.rank, self.torsion) or "0"


# graded K0 of a graded division ring with infinitely many cosets
INFINITE_RANK_FREE = "free-abelian-of-infinite-rank"


def localize(g, n):
    """G (x) Z[1/n]: the free part survives, torsion prime to n survives.
    Each factor loses the primes of n, which keeps the divisibility chain."""
    if g == INFINITE_RANK_FREE:
        return g
    torsion = []
    for d in g.torsion:
        while (k := gcd(d, n)) > 1:
            d //= k
        if d > 1:
            torsion.append(d)
    return FGAbelianGroup(g.rank, tuple(torsion))


def k0_of_semisimple(dec):
    """K0 of a semisimple algebra: free abelian on the simple blocks."""
    return FGAbelianGroup(len(dec.blocks))


# -- graded K0 ---------------------------------------------------------


def k0gr_graded_division(group, gamma_d):
    """Graded K0 of a graded division ring: free abelian on Gamma/Gamma_D."""
    idx = coset_index(group, gamma_d)
    if idx == "infinite":
        return INFINITE_RANK_FREE
    return FGAbelianGroup(idx)


def k0gr_strongly_graded(m, strongly_graded_report):
    """Graded K0 of a strongly graded algebra through its identity component;
    requires a true strong-gradedness certificate. A lazy M_n(D)(d) has it
    split by theorem (`split_lazy_identity_component`)."""
    if not strongly_graded_report:
        raise ValueError("a true strongly-graded certificate is required")
    lazy = isinstance(m, ShiftedMatrixAlgebra) and m.lazy
    dec = split_lazy_identity_component(m) if lazy else split_identity_component(
        identity_component(m))
    return k0_of_semisimple(dec), dec


# -- the CK0 / ZK0 sequence for central simple algebras ----------------


@dataclass(frozen=True)
class CsaShape:
    """M_n(D) with deg(D) = index over the centre."""
    n: int
    index: int = 1


@dataclass
class ExactSequenceData:
    zk0: FGAbelianGroup
    ck0: FGAbelianGroup


def ck0_zk0(shape):
    """K0(F) -> K0(M_n(D)) is multiplication by n * ind(D) on Z; ZK0 is the
    kernel (Z exactly when the map is 0) and CK0 the cokernel Z/(n ind)."""
    n = shape.n * shape.index
    d = abs(n)
    ck0 = FGAbelianGroup(1) if d == 0 else FGAbelianGroup(0, (d,) if d > 1 else ())
    return ExactSequenceData(zk0=FGAbelianGroup(1 if d == 0 else 0), ck0=ck0)


def torsion_bound_check(g, deg):
    """Every torsion element of CK0 is killed by deg^2 (= n^2 for M_n(F))."""
    if g == INFINITE_RANK_FREE:
        return VerdictReport("ck0-torsion-bound", TRUE, CONSTRUCTIVE,
                             details={"torsion": "none"})
    bound = deg * deg
    for d in g.torsion:
        if bound % d:
            return VerdictReport("ck0-torsion-bound", FALSE, EXHAUSTIVE,
                                 counterexample=("factor", d, "bound", bound))
    return VerdictReport("ck0-torsion-bound", TRUE, EXHAUSTIVE,
                         details={"bound": bound})


def compare_localized(g, h, n):
    """G (x) Z[1/n] =? H (x) Z[1/n]."""
    lg, lh = localize(g, n), localize(h, n)
    ok = lg == lh
    return VerdictReport("localized-isomorphic", TRUE if ok else FALSE, EXHAUSTIVE,
                         counterexample=None if ok else (lg, lh),
                         details={"left": lg, "right": lh})
