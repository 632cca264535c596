"""Exact base fields: the rationals and prime fields GF(p).

All scalar arithmetic in the library goes through these types; there is no
floating point anywhere.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import sympy


class GFElement:
    """An element of GF(p), stored as a residue in [0, p)."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def _coerce(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise ValueError("mixed characteristics %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return GFElement(self.p, other)
        if isinstance(other, Fraction):
            if other.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % self.p)
            return GFElement(self.p, other.numerator) / GFElement(self.p, other.denominator)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GFElement(self.p, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GFElement(self.p, self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GFElement(self.p, o.v - self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GFElement(self.p, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return GFElement(self.p, self.v * pow(o.v, self.p - 2, self.p))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GFElement(self.p, -self.v)

    def __pow__(self, n):
        if n < 0 and not self.v:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return GFElement(self.p, pow(self.v, n, self.p))

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        if isinstance(other, Fraction):
            return other.denominator % self.p != 0 and self == self._coerce(other)
        return NotImplemented

    def __bool__(self):
        return self.v != 0

    def __hash__(self):
        return hash((self.p, self.v))

    def __repr__(self):
        return "GF(%d:%d)" % (self.p, self.v)


class FieldSpec:
    """The base field of an algebra: either the rationals or GF(p)."""

    def __init__(self, kind, characteristic=0):
        if kind not in ("rationals", "prime-field"):
            raise ValueError("unknown field kind %r" % kind)
        if kind == "rationals":
            if characteristic != 0:
                raise ValueError("rationals have characteristic 0")
        else:
            p = characteristic
            # sympy's isprime is a proof below 2^64, and BPSW above
            if not 2 <= p < 1 << 64 or not sympy.isprime(p):
                raise ValueError("prime-field characteristic must be a prime below 2^64, "
                                 "got %r" % p)
        self.kind = kind
        self.characteristic = characteristic
        self.zero = self.scalar(0)
        self.one = self.scalar(1)

    @staticmethod
    def rationals():
        return FieldSpec("rationals")

    @staticmethod
    def prime_field(p):
        return FieldSpec("prime-field", p)

    def scalar(self, x):
        """Coerce an int, Fraction, 'p/q' string, or field element."""
        if self.kind == "rationals":
            if isinstance(x, Fraction):
                return x  # immutable, so no copy is needed
            if isinstance(x, GFElement):
                raise ValueError("cannot coerce GF element into the rationals")
            return Fraction(x)
        p = self.characteristic
        if isinstance(x, GFElement):
            if x.p != p:
                raise ValueError("wrong characteristic")
            return x
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, Fraction):
            return GFElement(p, 1)._coerce(x)
        return GFElement(p, x)

    def ratio(self, x):
        """(numerator, den) of `scalar(x)`, with its errors: the residue and 1
        over GF(p). An int, a Fraction over Q or a GFElement is read as it is."""
        p = self.characteristic
        if type(x) is int:
            return (x % p if p else x), 1
        if type(x) is not (GFElement if p else Fraction) or p and x.p != p:
            x = self.scalar(x)
        return (x.v, 1) if p else (x._numerator, x._denominator)

    def to_ints(self, coords):
        """(numerators, den) with coords[i] = numerators[i] / den: the
        residues and 1 over GF(p); over Q, den is the lcm of the
        denominators, and when that is 1 the numerators are taken as they
        are, with no rescaling pass. Reads Fraction's slots directly: the
        public properties cost a Python call each."""
        if self.kind == "prime-field":
            return [c.v for c in coords], 1
        den = math.lcm(*[c._denominator for c in coords])
        if den == 1:
            return [c._numerator for c in coords], 1
        return [c._numerator * (den // c._denominator) for c in coords], den

    def from_ints(self, values, den=1):
        """The scalars values[i] / den, one conversion each; a zero is
        `self.zero`."""
        zero = self.zero
        if self.kind == "prime-field":
            p = self.characteristic
            if den != 1:
                inv = pow(den, -1, p)
                values = [v * inv for v in values]
            return [GFElement(p, v) if v % p else zero for v in values]
        if den == 1:
            return [Fraction(v) if v else zero for v in values]
        return [Fraction(v, den) if v else zero for v in values]

    def is_invertible_int(self, m):
        """Whether the integer m is invertible in this field."""
        if self.kind == "rationals":
            return m != 0
        return m % self.characteristic != 0

    def elements(self):
        """All field elements; only available for finite fields."""
        if self.kind != "prime-field":
            raise ValueError("cannot enumerate an infinite field")
        p = self.characteristic
        return [GFElement(p, v) for v in range(p)]

    def line_representatives(self, k):
        """One nonzero vector of residues per line of GF(p)^k, the one whose
        first nonzero coordinate is 1, as tuples. They come in the order of all
        nonzero vectors in `itertools.product` order with the other multiples
        left out; a line's first vector in that order is this one, so a scan
        for a property shared by each line finds the same first vector as a
        scan over all vectors."""
        if self.kind != "prime-field":
            raise ValueError("cannot enumerate an infinite field")
        for t in reversed(range(k)):
            for tail in itertools.product(range(self.characteristic), repeat=k - 1 - t):
                yield (0,) * t + (1,) + tail

    @property
    def order(self):
        if self.kind != "prime-field":
            return None
        return self.characteristic

    def format_scalar(self, x):
        if self.kind == "rationals":
            f = Fraction(x)
            return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)
        return str(x.v if isinstance(x, GFElement) else x % self.characteristic)

    def __eq__(self, other):
        return (isinstance(other, FieldSpec) and self.kind == other.kind
                and self.characteristic == other.characteristic)

    def __hash__(self):
        return hash((self.kind, self.characteristic))

    def __repr__(self):
        """The file notation: Q or GF(p)."""
        return "Q" if self.kind == "rationals" else "GF(%d)" % self.characteristic
