from fractions import Fraction

import pytest

from halfcomm import expressions
from halfcomm.crossed import CrossedElement, FunElement, format_crossed_element
from halfcomm.errors import ParseError
from halfcomm.expressions import MAX_NESTING, CrossedContext, parse_context, parse_expression
from halfcomm.scalars import GaussianRational
from halfcomm.words import WordElement, ao_star, au_star_star, format_word_element, letter


def test_parse_context():
    assert parse_context("ao-star:2") == ao_star(2)
    assert parse_context("crossed:3") == CrossedContext(3)
    with pytest.raises(ParseError):
        parse_context("weird:2")
    with pytest.raises(ParseError):
        parse_context("ao-star")


def test_parse_simple_word():
    pres = ao_star(2)
    x = parse_expression("v[1,2] v[1,1] v[2,1]", pres)
    expected = WordElement.from_word(
        pres, (letter(pres, 1, 2), letter(pres, 1, 1), letter(pres, 2, 1))
    )
    assert x == expected
    assert parse_expression("v[1,2]*v[1,1]*v[2,1]", pres) == expected


def test_parse_coefficients():
    pres = ao_star(2)
    x = parse_expression("3/2 + 1/2 i", pres)
    assert x == GaussianRational(Fraction(3, 2), Fraction(1, 2)) * WordElement.one(pres)
    y = parse_expression("- v[1,1] + 2 v[1,2]", pres)
    assert y == -WordElement.generator(pres, 1, 1) + 2 * WordElement.generator(pres, 1, 2)
    z = parse_expression("(1 + i)(1 - i)", pres)
    assert z == 2 * WordElement.one(pres)


def test_parse_crossed_flip_counting():
    ctx = CrossedContext(2)
    x = parse_expression("u[1,1] s u[2,2] s", ctx)
    expected = CrossedElement.even(
        FunElement.coordinate(2, 1, 1) * FunElement.coordinate(2, 2, 2, bar=True)
    )
    assert x == expected
    s = parse_expression("s", ctx)
    assert s == CrossedElement.flip(2)
    assert parse_expression("s s", ctx) == CrossedElement.one(2)
    assert parse_expression("u*[1,2]", ctx) == CrossedElement.even(
        FunElement.coordinate(2, 1, 2, bar=True)
    )


def test_parse_errors():
    pres = ao_star(2)
    with pytest.raises(ParseError):
        parse_expression("v[1,3]", pres)  # bounds
    with pytest.raises(ParseError):
        parse_expression("v*[1,1]", pres)  # star on orthogonal generator
    with pytest.raises(ParseError):
        parse_expression("u[1,1]", pres)  # wrong generator family
    with pytest.raises(ParseError):
        parse_expression("s", pres)  # flip outside crossed context
    with pytest.raises(ParseError):
        parse_expression("v[1,1] +", pres)
    with pytest.raises(ParseError):
        parse_expression("v[1,1]]", pres)
    with pytest.raises(ParseError):
        parse_expression("q[1,1]", pres)
    err = None
    try:
        parse_expression("v[1,1] @", pres)
    except ParseError as exc:
        err = exc
    assert err is not None and err.position == 7


@pytest.mark.parametrize("ctx", [ao_star(2), CrossedContext(2)])
def test_nesting_is_capped_before_the_recursion_limit(ctx):
    # 100 levels parse; 400 would overflow the interpreter's stack, so the
    # parser refuses the first parenthesis past its depth cap
    assert MAX_NESTING == 100
    one = parse_expression("1", ctx)
    assert parse_expression("(" * 100 + "1" + ")" * 100, ctx) == one
    assert parse_expression("(1) " * 400, ctx) == one
    for depth in (101, 400):
        with pytest.raises(ParseError) as exc:
            parse_expression("(" * depth + "1" + ")" * depth, ctx)
        assert exc.value.position == 100
        assert str(exc.value) == "parentheses nested deeper than 100 (at position 100)"


@pytest.mark.parametrize("ctx, factors", [(ao_star(2), "(v[1,1]+v[1,2]) (v[2,1]+v[2,2])"),
                                          (CrossedContext(2), "(u[1,1]+u[1,2]) (u[2,1]+u[2,2])")])
def test_products_are_capped_by_their_term_pairs(ctx, factors, monkeypatch):
    # one product of two 2-term sums forms 4 term pairs: at the cap it parses
    monkeypatch.setattr(expressions, "MAX_PRODUCT_PAIRS", 4)
    parse_expression(factors, ctx)
    monkeypatch.setattr(expressions, "MAX_PRODUCT_PAIRS", 3)
    with pytest.raises(ValueError, match="products form 4 term pairs, above the cap of 3"):
        parse_expression(factors, ctx)


def test_parse_unitary_presentation():
    pres = au_star_star(2)
    x = parse_expression("u[1,2] u*[2,1]", pres)
    expected = WordElement.from_word(
        pres, (letter(pres, 1, 2), letter(pres, 2, 1, starred=True))
    )
    assert x == expected
    with pytest.raises(ParseError):
        parse_expression("v[1,1]", pres)


def test_roundtrip_word_elements():
    pres = ao_star(2)
    for text in (
        "v[1,1]",
        "v[1,2] v[1,1] + 2 v[2,1]",
        "(3/2 + 1/2 i) v[1,1] v[2,2] - v[1,2]",
        "1 - i",
        "0",
    ):
        x = parse_expression(text, pres)
        printed = format_word_element(x)
        assert parse_expression(printed, pres) == x
        assert format_word_element(parse_expression(printed, pres)) == printed


def test_roundtrip_crossed_elements():
    ctx = CrossedContext(2)
    for text in (
        "u[1,1] s",
        "u[1,1] u*[2,2] + 3 s",
        "i u[1,2] s - 2/3 u[2,1]",
        "1 + s",
    ):
        x = parse_expression(text, ctx)
        printed = format_crossed_element(x)
        assert parse_expression(printed, ctx) == x
        assert format_crossed_element(parse_expression(printed, ctx)) == printed
