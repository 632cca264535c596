"""Seeded random scalars and algebra elements for the property tests."""

from fractions import Fraction

from gradedk.fields import GFElement


def random_scalar(field, rng, height=10):
    """A uniform element of GF(p), or a fraction with numerator in
    [-height, height] and denominator in [1, height]."""
    if field.kind == "prime-field":
        return GFElement(field.characteristic, rng.randrange(field.characteristic))
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def random_element(algebra, rng, height=5):
    return algebra.element([random_scalar(algebra.field, rng, height)
                            for _ in range(algebra.dim)])
