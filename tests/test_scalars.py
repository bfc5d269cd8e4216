import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from halfcomm.crossed import FunElement, FunMonomial
from halfcomm.scalars import GaussianRational, I, ONE, ZERO, reduce_terms
from halfcomm.words import Letter, WordElement, ao_star


def test_basic_arithmetic():
    a = GaussianRational(Fraction(3, 2), Fraction(1, 2))
    b = GaussianRational(1, -1)
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(-1, 2))
    assert a - a == ZERO
    assert a * b == GaussianRational(2, -1)
    assert -b == GaussianRational(-1, 1)
    assert I * I == GaussianRational(-1)


def test_division_and_conjugation():
    a = GaussianRational(1, 2)
    assert a / a == ONE
    assert (a * a.conjugate()).im == 0
    assert a.conjugate() == GaussianRational(1, -2)
    with pytest.raises(ZeroDivisionError):
        a / ZERO


def test_coercion_and_comparison():
    assert GaussianRational(2) == 2
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert 3 * GaussianRational(0, 1) == GaussianRational(0, 3)
    assert bool(ZERO) is False and bool(I) is True
    with pytest.raises(TypeError):
        GaussianRational.coerce(1.5)


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(GaussianRational(Fraction(3, 2))) == "3/2"
    assert str(I) == "i"
    assert str(-I) == "-i"
    assert str(GaussianRational(0, Fraction(3, 2))) == "3/2 i"
    assert str(GaussianRational(Fraction(3, 2), Fraction(1, 2))) == "3/2 + 1/2 i"
    assert str(GaussianRational(1, -1)) == "1 - i"


def test_repr_forms():
    assert repr(ZERO) == "GaussianRational(Fraction(0, 1), Fraction(0, 1))"
    assert repr(GaussianRational(Fraction(3, 2), Fraction(1, 2))) == "GaussianRational(Fraction(3, 2), Fraction(1, 2))"
    assert repr(GaussianRational(1, -1)) == "GaussianRational(Fraction(1, 1), Fraction(-1, 1))"


def test_equal_values_share_fields_and_hash():
    x, y = GaussianRational(Fraction(2, 4)), GaussianRational(1) / 2
    assert (x.a, x.b, x.d) == (y.a, y.b, y.d) == (1, 0, 2)
    assert x == y and hash(x) == hash(y)
    z = GaussianRational(Fraction(1, 6), Fraction(1, 4))
    assert (z.a, z.b, z.d) == (2, 3, 12)
    assert GaussianRational(1.5) == GaussianRational(Fraction(3, 2))


# -- properties, against (re, im) pairs of Fractions ---------------------------

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)
parts = st.one_of(st.integers(-30, 30), st.fractions(min_value=-8, max_value=8, max_denominator=24))
pairs = st.tuples(parts, parts).map(lambda p: (Fraction(p[0]), Fraction(p[1])))


def ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_div(x, y):
    nrm = y[0] * y[0] + y[1] * y[1]
    return ref_mul(x, (y[0] / nrm, -y[1] / nrm))


def ref_str(re, im):
    """The string form of re + im*i as the Fraction-pair class wrote it."""
    if not re and not im:
        return "0"
    if not im:
        return str(re)
    imag = "i" if abs(im) == 1 else f"{abs(im)} i"
    if not re:
        return imag if im > 0 else f"-{imag}"
    return f"{re} {'+' if im > 0 else '-'} {imag}"


def assert_is(z, pair):
    """z is the number of ``pair``, in canonical form."""
    assert (z.re, z.im) == pair
    assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1
    assert str(z) == ref_str(*pair)
    assert repr(z) == f"GaussianRational({pair[0]!r}, {pair[1]!r})"
    assert z.to_complex() == complex(float(pair[0]), float(pair[1]))


@PROPERTY
@given(pairs, pairs)
def test_arithmetic_matches_fraction_pairs(x, y):
    gx, gy = GaussianRational(*x), GaussianRational(*y)
    assert_is(gx, x)
    assert_is(gx + gy, ref_add(x, y))
    assert_is(gx - gy, ref_sub(x, y))
    assert_is(gx * gy, ref_mul(x, y))
    assert_is(gx.conjugate(), (x[0], -x[1]))
    assert_is(-gx, (-x[0], -x[1]))
    assert bool(gx) == any(x)
    assert (gx == gy) == (x == y)
    if any(y):
        assert_is(gx / gy, ref_div(x, y))
    else:
        with pytest.raises(ZeroDivisionError):
            gx / gy


@PROPERTY
@given(pairs, parts)
def test_mixed_arithmetic_with_plain_numbers(x, c):
    gx, rc = GaussianRational(*x), (Fraction(c), Fraction(0))
    assert_is(gx + c, ref_add(x, rc))
    assert_is(c + gx, ref_add(x, rc))
    assert_is(gx - c, ref_sub(x, rc))
    assert_is(c - gx, ref_sub(rc, x))
    assert_is(gx * c, ref_mul(x, rc))
    assert_is(c * gx, ref_mul(x, rc))
    assert (gx == c) == (x == rc)
    if c:
        assert_is(gx / c, ref_div(x, rc))


@PROPERTY
@given(pairs, st.integers(-40, 40).filter(bool), pairs)
def test_equal_values_hash_equal(x, k, y):
    # the same number reached by different routes
    gx = GaussianRational(*x)
    scaled = GaussianRational(x[0] * k, x[1] * k) / k
    assert scaled == gx and hash(scaled) == hash(gx)
    gy = GaussianRational(*y)
    assert (gx + gy) - gy == gx and hash((gx + gy) - gy) == hash(gx)


def test_reduce_terms_merges_and_drops_zero_sums():
    # the coefficients are nonzero, as reduce_terms requires
    pairs = [("a", ONE), ("b", I), ("a", ONE), ("b", -I)]
    assert reduce_terms(pairs) == {"a": GaussianRational(2)}
    assert reduce_terms([]) == {}
    # keys keep the order they are first seen in, also after a cancelled one
    pairs = [("c", ONE), ("b", I), ("a", ONE), ("b", -I), ("b", ONE), ("c", I)]
    assert list(reduce_terms(pairs).items()) == [("c", GaussianRational(1, 1)), ("b", ONE), ("a", ONE)]


def _word(*rows):
    return tuple(Letter(r, 1, False) for r in rows)


@pytest.mark.parametrize(
    "make, key, other",
    [
        (lambda t: FunElement(2, t), FunMonomial({(1, 1, False): 1}), FunMonomial({(1, 2, True): 2})),
        (lambda t: WordElement(ao_star(2), t), _word(1), _word(2, 1)),
    ],
)
def test_sparse_sum_from_pairs(make, key, other):
    x = make([(key, 1), (other, I), (key, GaussianRational(0, 2)), (other, -I)])
    assert x.terms == {key: GaussianRational(1, 2)}
    assert x == make({key: GaussianRational(1, 2)})
    assert make([(key, 1), (key, -1)]).is_zero
    # zero coefficients enter only here, and the constructor drops them
    assert make([(key, 0), (other, ZERO)]).is_zero


@pytest.mark.parametrize(
    "x",
    [
        FunElement(2, {FunMonomial({(1, 2, False): 1}): GaussianRational(1, 1)}),
        WordElement(ao_star(2), {_word(2, 1): GaussianRational(1, 1)}),
    ],
)
def test_sparse_sum_scalar_on_either_side(x):
    for c in (2, Fraction(1, 3), I):
        assert c * x == x * c
        assert (x * c).terms == {k: v * c for k, v in x.terms.items()}
    assert (0 * x).is_zero and (x * ZERO).is_zero
    assert x - x == type(x).zero(x.space)


def test_sparse_sum_mixed_types_raise_type_error():
    f = FunElement.coordinate(2, 1, 1)
    w = WordElement.generator(ao_star(2), 1, 1)
    for a, b in ((f, w), (w, f)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
        with pytest.raises(TypeError):
            a * b
    assert f != w
