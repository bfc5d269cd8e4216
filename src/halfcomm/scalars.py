"""Exact scalars: Gaussian rationals a + b*i with arbitrary-precision parts,
and the sparse sums of basis keys with such coefficients that both algebras
of the package (word elements and coordinate polynomials) are built on."""

from __future__ import annotations

from fractions import Fraction
from itertools import chain


class GaussianRational:
    """An element of Q(i).  Immutable by convention; all arithmetic is exact."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __add__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        nrm = other.re * other.re + other.im * other.im
        if nrm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * GaussianRational(other.re / nrm, -other.im / nrm)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __str__(self):
        if not self:
            return "0"
        if not self.im:
            return str(self.re)
        imag = "i" if abs(self.im) == 1 else f"{abs(self.im)} i"
        if not self.re:
            return imag if self.im > 0 else f"-{imag}"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {imag}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


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
    """

    __slots__ = ()
    SPACE: str
    MISMATCH: tuple

    @classmethod
    def zero(cls, space):
        return cls(space, {})

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
        """An element of the same space over ``terms``, whose keys are already
        normal and whose coefficients are nonzero."""
        out = object.__new__(type(self))
        setattr(out, self.SPACE, self.space)
        out.terms = terms
        return out

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
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, type(self)):
            self._check(other)
            key_mul = self.key_mul
            products = (
                (key_mul(k1, k2), c1 * c2)
                for k1, c1 in self.terms.items()
                for k2, c2 in other.terms.items()
            )
            # a key product need not be normal (a concatenated word), so it
            # goes back through the constructor
            return type(self)(self.space, reduce_terms(products))
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
