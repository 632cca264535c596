import random

import pytest

from gradedk.azumaya import group_ring_azumaya
from gradedk.fields import FieldSpec
from gradedk.groups import (GradeGroup, SubgroupSpec, coset_index, coset_label,
                            derived_subgroup, quotient_invariants)


def test_fg_abelian_normalization():
    G = GradeGroup.fg_abelian(1, (4,))
    g = G.element((3, 7))
    assert g.coords == (3, 3)
    assert (g * g).coords == (6, 2)
    assert g.inverse().coords == (-3, 1)
    assert (g * g.inverse()).is_identity()


def test_s3_matches_permutation_composition():
    # independent oracle: recompute the table from the permutations directly
    perms = [(0, 1, 2), (0, 2, 1), (2, 1, 0), (1, 0, 2), (1, 2, 0), (2, 0, 1)]
    S3 = GradeGroup.symmetric_3()
    index = {p: i for i, p in enumerate(perms)}
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            comp = tuple(p[q[x]] for x in range(3))
            got = (S3.element(i) * S3.element(j)).coords
            assert got == index[comp]
    assert not S3.is_abelian()
    assert S3.order == 6


def test_bad_tables_rejected():
    with pytest.raises(ValueError):
        GradeGroup.from_table([[0, 1], [1, 1]])  # no inverse for element 1
    with pytest.raises(ValueError):
        GradeGroup.from_table([[1, 0], [1, 0]])  # no identity


def test_dihedral_relations():
    D4 = GradeGroup.dihedral(4)
    r = D4.element(1)
    s = D4.element(4)
    assert (r * r * r * r).is_identity()
    assert (s * s).is_identity()
    # s r s = r^-1
    assert s * r * s == r.inverse()
    assert not D4.is_abelian()


def test_quotient_invariants_oracle():
    # Z^2 / <(2,0),(0,2)> = Z/2 x Z/2
    G = GradeGroup.fg_abelian(2)
    H = SubgroupSpec(G, [G.element((2, 0)), G.element((0, 2))])
    assert quotient_invariants(G, H) == (0, [2, 2])
    # Z^2 / <(1,1)> = Z
    H2 = SubgroupSpec(G, [G.element((1, 1))])
    assert quotient_invariants(G, H2) == (1, [])
    # Z / <2> = Z/2
    Z = GradeGroup.integers()
    assert quotient_invariants(Z, SubgroupSpec(Z, [Z.element((2,))])) == (0, [2])
    # Z/4 x Z/6 quotient by nothing
    T = GradeGroup.product_of_cyclic(4, 6)
    free, tor = quotient_invariants(T, SubgroupSpec(T, []))
    assert free == 0 and sorted(tor) == [2, 12]  # invariant-factor form of 4x6


def test_coset_index():
    Z = GradeGroup.integers()
    assert coset_index(Z, SubgroupSpec(Z, [Z.element((2,))])) == 2
    assert coset_index(Z, SubgroupSpec(Z, [])) == "infinite"
    S3 = GradeGroup.symmetric_3()
    a3 = SubgroupSpec(S3, [S3.element(4)])
    assert coset_index(S3, a3) == 2


def test_coset_label_separates_cosets():
    G = GradeGroup.fg_abelian(1, (4,))
    H = SubgroupSpec(G, [G.element((2, 1))])
    elems = [G.element((a, b)) for a in range(-3, 4) for b in range(4)]
    for g in elems:
        for h in elems:
            same_label = coset_label(G, H, g) == coset_label(G, H, h)
            # oracle: same coset iff g - h is in H; enumerate multiples
            diff = g * h.inverse()
            in_h = any((G.element((2 * k, k)) == diff) for k in range(-12, 13))
            assert same_label == in_h


def test_coset_label_finite_table():
    S3 = GradeGroup.symmetric_3()
    a3 = SubgroupSpec(S3, [S3.element(4)])
    labels = {coset_label(S3, a3, g) for g in S3.elements()}
    assert len(labels) == 2


def test_derived_subgroup_s3():
    S3 = GradeGroup.symmetric_3()
    spec, order = derived_subgroup(S3)
    assert order == 3
    elems = spec.element_set()
    assert S3.element(4) in elems and S3.element(5) in elems


def test_derived_subgroup_abelian_table():
    Z4 = GradeGroup.from_table([[(i + j) % 4 for j in range(4)] for i in range(4)])
    _, order = derived_subgroup(Z4)
    assert order == 1


def test_subgroup_closure():
    S3 = GradeGroup.symmetric_3()
    full = SubgroupSpec(S3, [S3.element(1), S3.element(4)])
    assert full.order == 6
    assert all(full.contains(g) for g in S3.elements())


def test_infinite_subgroup_contains():
    Z2 = GradeGroup.fg_abelian(2)
    H = SubgroupSpec(Z2, [Z2.element((2, 0)), Z2.element((0, 3))])
    assert H.contains(Z2.element((4, 3)))
    assert not H.contains(Z2.element((1, 0)))


def test_random_quotients_vs_enumeration():
    # finite fg-abelian ambient: index from SNF equals brute-force coset count
    rng = random.Random(23)
    for _ in range(40):
        t1, t2 = rng.choice([2, 3, 4]), rng.choice([2, 3, 6])
        G = GradeGroup.product_of_cyclic(t1, t2)
        gens = [G.element((rng.randrange(t1), rng.randrange(t2)))
                for _ in range(rng.randint(0, 2))]
        H = SubgroupSpec(G, gens)
        labels = {coset_label(G, H, g) for g in G.elements()}
        assert coset_index(G, H) == len(labels)
        hset = H.element_set() if gens else {G.identity}
        assert len(labels) * len(hset) == t1 * t2


def brute_closure(group, gens):
    """The subgroup generated by gens, by GroupElement products."""
    seen, frontier = {group.identity}, [group.identity]
    steps = list(gens) + [g.inverse() for g in gens]
    while frontier:
        x = frontier.pop()
        for s in steps:
            y = x * s
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


@pytest.mark.parametrize("group", [
    GradeGroup.symmetric_3(), GradeGroup.dihedral(4), GradeGroup.dihedral(5),
    GradeGroup.from_table([[(i + j) % 3 for j in range(3)] for i in range(3)]),
    GradeGroup.product_of_cyclic(2, 4)], ids=["S3", "D4", "D5", "Z3-table", "Z2xZ4"])
def test_derived_subgroup_and_centre_against_brute_force(group):
    elems = group.elements()
    commutators = [g * h * g.inverse() * h.inverse() for g in elems for h in elems]
    derived = brute_closure(group, commutators)
    spec, order = derived_subgroup(group)
    assert order == len(derived) and spec.element_set() == derived
    assert set(spec.generators) <= set(commutators)
    centre = [g for g in elems if all(g * h == h * g for h in elems)]
    assert group.centre_order() == len(centre)
    index = group.order // len(centre)
    rep = group_ring_azumaya(FieldSpec.prime_field(3), group)
    assert rep.details["centre-index"] == index
    assert rep.details["commutator-order"] == len(derived)
