"""Exact scalars: Gaussian rationals a + b*i with arbitrary-precision parts,
and the sparse sums of basis keys with such coefficients that both algebras
of the package (word elements and coordinate polynomials) are built on."""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm


class GaussianRational:
    """An element of Q(i), held as (a + b*i) / d over Python ints in lowest
    terms: d > 0 and gcd(a, b, d) = 1.  Each number has one such triple, so
    equality and hashing compare fields, and products and sums are integer
    arithmetic with one gcd.  ``re`` and ``im`` give the parts as Fractions.
    Immutable by convention; all arithmetic is exact."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        # already in lowest terms: a prime dividing d divides one of the two
        # denominators as often as it divides d, so not that numerator
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def conjugate(self) -> "GaussianRational":
        return _reduced(self.a, -self.b, self.d)

    def to_complex(self) -> complex:
        # int / int rounds correctly, so this equals the parts' float values
        return complex(self.a / self.d, self.b / self.d)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            try:
                other = GaussianRational.coerce(other)
            except TypeError:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            try:
                other = GaussianRational.coerce(other)
            except TypeError:
                return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        nrm = c * c + e * e
        if nrm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        f = other.d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self.d * nrm)

    def __neg__(self):
        return _reduced(-self.a, -self.b, self.d)

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            try:
                other = GaussianRational.coerce(other)
            except TypeError:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __str__(self):
        if not self:
            return "0"
        re, im = self.re, self.im
        if not im:
            return str(re)
        imag = "i" if abs(im) == 1 else f"{abs(im)} i"
        if not re:
            return imag if im > 0 else f"-{imag}"
        sign = "+" if im > 0 else "-"
        return f"{re} {sign} {imag}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__


def _reduced(a, b, d):
    """The Gaussian rational (a + b*i) / d, for ints with d > 0, in lowest terms."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    out = _new(GaussianRational)
    out.a = a
    out.b = b
    out.d = d
    return out


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def reduce_terms(pairs) -> dict:
    """Merge ``(key, coeff)`` pairs with equal keys; drop keys whose sum is zero."""
    acc = {}
    for key, c in pairs:
        prev = acc.get(key)
        acc[key] = c if prev is None else prev + c
    return {k: c for k, c in acc.items() if c}


class SparseSum:
    """A finite sum of basis keys with Gaussian-rational coefficients.

    ``terms`` maps normal keys to nonzero coefficients.  A subclass names the
    attribute holding its space in ``SPACE``, the error and message for mixed
    spaces in ``MISMATCH``, normalises one key in ``_normal_key`` (returning
    None for a key that vanishes) and multiplies two keys in ``key_mul``; its
    constructor takes the space and a dict or an iterable of ``(key, coeff)``
    pairs, which ``_reduce`` turns into ``terms``.

    An element checks its keys once, when the constructor builds it from
    outside input.  Closed operations on elements (sums, products, and a
    subclass's own maps) only renormalise: sums go through ``_like``, and
    merged key products through ``_from_products``, which a subclass
    overrides when a product of normal keys need not be normal.
    """

    __slots__ = ()
    SPACE: str
    MISMATCH: tuple

    @classmethod
    def zero(cls, space):
        return cls._over(space, {})

    @classmethod
    def _over(cls, space, terms):
        """An element of ``space`` over ``terms``, whose keys are already
        normal and whose coefficients are nonzero: no key is checked again."""
        out = object.__new__(cls)
        setattr(out, cls.SPACE, space)
        out.terms = terms
        return out

    @property
    def space(self):
        return getattr(self, self.SPACE)

    @property
    def is_zero(self):
        return not self.terms

    def _reduce(self, terms) -> dict:
        if isinstance(terms, dict):
            terms = terms.items()
        normal = self._normal_key

        def pairs():
            for key, coeff in terms or ():
                c = GaussianRational.coerce(coeff)
                if c:
                    key = normal(key)
                    if key is not None:
                        yield key, c

        return reduce_terms(pairs())

    def _like(self, terms):
        """An element of the same space over ``terms`` (see ``_over``)."""
        return self._over(self.space, terms)

    # the element over the merged results of a closed operation, whose
    # coefficients are nonzero: by default a product of normal keys is
    # normal, so the terms are taken as they are
    _from_products = _like

    def _check(self, other):
        if self.space != other.space:
            error, message = self.MISMATCH
            raise error(message.format(self.space, other.space))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self._like(reduce_terms(chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other):
        """self - other in one pass, with the key order of ``self + (-other)``."""
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            prev = terms.get(key)
            if prev is None:
                terms[key] = -c
            elif prev == c:
                del terms[key]
            else:
                terms[key] = prev - c
        return self._like(terms)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, type(self)):
            self._check(other)
            # reduce_terms over the products, inlined: this loop is the
            # innermost of every product and every norm
            key_mul = self.key_mul
            right = other.terms.items()
            acc = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in right:
                    key = key_mul(k1, k2)
                    c = c1 * c2
                    prev = acc.get(key)
                    acc[key] = c if prev is None else prev + c
            return self._from_products({k: c for k, c in acc.items() if c})
        try:
            c = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self._like({k: c0 * c for k, c0 in self.terms.items()} if c else {})

    def __rmul__(self, other):
        try:
            c = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self * c

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms
