from fractions import Fraction

import pytest

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


def test_reduce_terms_merges_and_drops_zero_sums():
    pairs = [("a", ONE), ("b", I), ("a", ONE), ("b", -I), ("c", ZERO)]
    assert reduce_terms(pairs) == {"a": GaussianRational(2)}
    assert reduce_terms([]) == {}


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
