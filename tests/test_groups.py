import math
import random

import pytest

from gradedk.azumaya import group_ring_azumaya
from gradedk.fields import FieldSpec
from gradedk.fileformat import format_group, load_graded_algebra
from gradedk.groups import (GradeGroup, SubgroupSpec, coset_index, coset_label,
                            derived_subgroup, quotient_invariants, signature_text)
from gradedk.ktheory import FGAbelianGroup


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


def test_builtin_groups_are_shared():
    assert GradeGroup.symmetric_3() is GradeGroup.symmetric_3()
    assert GradeGroup.dihedral(4) is GradeGroup.dihedral(4)
    assert GradeGroup.dihedral(4) is not GradeGroup.dihedral(5)


def test_table_checked_once_per_builtin_group(monkeypatch, tmp_path):
    # repeated loads of S3 and D4 files check each builtin table once; a
    # [group-table] is checked on every load
    checked = []
    real = GradeGroup._check_table

    def count(self):
        checked.append(self.size)
        real(self)
    monkeypatch.setattr(GradeGroup, "_check_table", count)
    GradeGroup.symmetric_3.cache_clear()
    GradeGroup.dihedral.cache_clear()
    for group in ("S3", "D4"):
        (tmp_path / (group + ".alg")).write_text(
            "[construct]\nkind = group-ring\nfield = GF(5)\ngroup = %s\n" % group)
    (tmp_path / "z2.alg").write_text(
        "[algebra]\nfield = Q\ngroup = table\nbasis = a b\ndegrees = 0 1\n"
        "unit = 1 0\n[group-table]\n0 1\n1 0\n"
        "[products]\n0 0 0 1\n0 1 1 1\n1 0 1 1\n1 1 0 1\n")
    for _ in range(3):
        for name in ("S3.alg", "D4.alg", "z2.alg"):
            load_graded_algebra(str(tmp_path / name))
    assert sorted(checked) == [2, 2, 2, 6, 8]


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


def test_coset_index_of_a_finite_group_is_the_order_quotient():
    rng = random.Random(29)
    for _ in range(60):
        torsion = [rng.choice([2, 3, 4, 6]) for _ in range(rng.randint(1, 3))]
        G = GradeGroup.product_of_cyclic(*torsion)
        H = SubgroupSpec(G, [G.element([rng.randrange(t) for t in torsion])
                             for _ in range(rng.randint(0, 3))])
        free, tor = quotient_invariants(G, H)
        assert free == 0 and coset_index(G, H) == math.prod(tor)


def test_generated_by_keeps_a_basis_on_an_infinite_group():
    rng = random.Random(31)
    for _ in range(60):
        G = GradeGroup.fg_abelian(rng.randint(1, 3),
                                  [rng.choice([2, 3, 4]) for _ in range(rng.randint(0, 2))])
        cands = [G.element([rng.randint(-6, 6) for _ in range(G.dim)])
                 for _ in range(rng.randint(0, 6))]
        basis = SubgroupSpec.generated_by(G, [g.coords for g in cands]).generators
        assert len(basis) <= G.dim and not any(g.is_identity() for g in basis)
        full, fresh = SubgroupSpec(G, cands), SubgroupSpec(G, basis)
        assert all(fresh.contains(g) for g in cands)
        assert all(full.contains(g) for g in basis)


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


def test_coset_label_rejects_another_groups_element():
    Z2 = GradeGroup.fg_abelian(2)
    H = SubgroupSpec(Z2, [Z2.element((2, 0))])
    V4 = GradeGroup.product_of_cyclic(2, 2)
    with pytest.raises(ValueError, match="element belongs to a different group"):
        coset_label(Z2, H, V4.element((1, 1)))
    assert not H.contains(V4.element((1, 1)))
    S3, D3 = GradeGroup.symmetric_3(), GradeGroup.dihedral(3)
    a3 = SubgroupSpec(S3, [S3.element(4)])
    with pytest.raises(ValueError, match="element belongs to a different group"):
        coset_label(S3, a3, D3.element(1))
    assert not a3.contains(D3.element(1))


def test_derived_subgroup_s3():
    S3 = GradeGroup.symmetric_3()
    spec, order = derived_subgroup(S3)
    assert order == 3
    elems = [g for g in S3.elements() if spec.contains(g)]
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
        hset = [g for g in G.elements() if H.contains(g)]
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
    assert order == len(derived) and {g for g in elems if spec.contains(g)} == derived
    assert set(spec.generators) <= set(commutators)
    centre = [g for g in elems if all(g * h == h * g for h in elems)]
    assert group.centre_order() == len(centre)
    index = group.order // len(centre)
    rep = group_ring_azumaya(FieldSpec.prime_field(3), group)
    assert rep.details["centre-index"] == index
    assert rep.details["commutator-order"] == len(derived)


def reference_signature(rank, torsion, empty):
    """The earlier renderers' text of Z^rank x Z/n1 x ...: "Z" or "Z^r",
    then each "Z/n", joined by " x ", and `empty` for the trivial group."""
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append("Z^%d" % rank)
    parts += ["Z/%d" % n for n in torsion]
    return " x ".join(parts) if parts else empty


def test_signature_text_matches_the_earlier_renderers():
    chains = [(), (2,), (6,), (2, 4), (3, 6), (2, 2, 4), (2, 6, 12)]
    for rank in range(4):
        for torsion in chains:
            text = signature_text(rank, torsion)
            assert text == reference_signature(rank, torsion, "")
            assert format_group(GradeGroup.fg_abelian(rank, torsion)) == \
                reference_signature(rank, torsion, "trivial")
            assert repr(FGAbelianGroup(rank, torsion)) == reference_signature(rank, torsion, "0")
            assert repr(GradeGroup.fg_abelian(rank, torsion)) == "GradeGroup(%s)" % (text or "1")
    assert repr(GradeGroup.fg_abelian(2, (2,))) == "GradeGroup(Z^2 x Z/2)"
