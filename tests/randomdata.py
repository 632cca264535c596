"""Seeded random scalars and algebra elements for the property tests."""

from fractions import Fraction

from gradedk.constructors import (construct_group_ring,
                                  construct_quaternion,
                                  construct_symbol_algebra,
                                  construct_truncated_polynomial)
from gradedk.fields import FieldSpec, GFElement
from gradedk.groups import GradeGroup

Q = FieldSpec.rationals()


def random_scalar(field, rng, height=10):
    """A uniform element of GF(p), or a fraction with numerator in
    [-height, height] and denominator in [1, height]."""
    if field.kind == "prime-field":
        return GFElement(field.characteristic, rng.randrange(field.characteristic))
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def random_element(algebra, rng, height=5):
    return algebra.element([random_scalar(algebra.field, rng, height)
                            for _ in range(algebra.dim)])


SMALL_FIELDS = [Q, FieldSpec.prime_field(3), FieldSpec.prime_field(5),
                FieldSpec.prime_field(7), FieldSpec.prime_field(11)]


def random_constructed(rng):
    """A random instance from the constructor families (construction itself
    re-checks associativity and the unit axiom)."""
    kind = rng.randrange(5)
    if kind == 0:
        field = rng.choice([Q, FieldSpec.prime_field(3),
                            FieldSpec.prime_field(5), FieldSpec.prime_field(7)])
        a = rng.choice([-3, -2, -1, 1, 2, 3])
        b = rng.choice([-3, -2, -1, 1, 2, 3])
        if not (field.is_invertible_int(a) and field.is_invertible_int(b)):
            a = b = 1
        return construct_quaternion(field, field.scalar(a), field.scalar(b))
    if kind == 1:
        # n = 2 over GF(5): xi must be the primitive square root of unity, 4
        return construct_symbol_algebra(FieldSpec.prime_field(5), 2,
                                        rng.choice([1, 2, 3, 4]),
                                        rng.choice([1, 2, 3, 4]), 4)
    if kind == 2:
        group = rng.choice([GradeGroup.cyclic(rng.randrange(2, 6)),
                            GradeGroup.product_of_cyclic(2, 2),
                            GradeGroup.symmetric_3(),
                            GradeGroup.dihedral(4)])
        return construct_group_ring(rng.choice(SMALL_FIELDS), group)
    if kind == 3:
        return construct_truncated_polynomial(rng.choice(SMALL_FIELDS),
                                              rng.randrange(2, 6))
    field = FieldSpec.prime_field(7)
    return construct_symbol_algebra(field, 3, rng.choice([1, 2, 3]),
                                    rng.choice([1, 2, 3]), rng.choice([2, 4]))
