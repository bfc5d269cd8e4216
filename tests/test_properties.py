"""Property tests: seeded Hypothesis runs over small words, polynomials and
permutations."""

from hypothesis import given, settings, strategies as st

from halfcomm.crossed import (
    CrossedElement,
    FunElement,
    FunMonomial,
    crossed_antipode,
    crossed_coproduct,
    crossed_mul,
    crossed_star,
    embed_pi,
    format_crossed_element,
)
from halfcomm.expressions import CrossedContext, parse_expression
from halfcomm.fusion import lr_tensor
from halfcomm.haar import _compose, _inverse, weingarten_table
from halfcomm.scalars import GaussianRational
from halfcomm.verify import _concatenations, _reversed_words, schur_tensor_oracle
from halfcomm.words import (
    WordElement,
    ah_star,
    antipode_element,
    ao_star,
    au_star_star,
    coproduct_element,
    counit_element,
    format_word_element,
    hc_normal_form,
    letter,
    rewrite_closure_oracle,
    star_element,
)

from tests_helpers import embed_by_products, ref_crossed_coproduct, ref_monomial, ref_word_coproduct

SEEDED = settings(max_examples=40, derandomize=True, deadline=None)

PRESENTATIONS = (ao_star(2), ah_star(2), au_star_star(2), ao_star(3))

coefficients = st.builds(
    lambda a, b, d: GaussianRational(a, b) / d, st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4)
)


def letters_over(pres):
    return st.builds(
        lambda r, c, starred: letter(pres, r, c, starred and not pres.orthogonal),
        st.integers(1, pres.n),
        st.integers(1, pres.n),
        st.booleans(),
    )


def words_over(pres, max_len):
    return st.lists(letters_over(pres), max_size=max_len).map(tuple)


def repeating_words(pres, max_len):
    # words over a pool of at most four letters, so that letters recur
    pools = st.lists(letters_over(pres), min_size=1, max_size=4)
    return pools.flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=max_len).map(tuple))


def word_elements(pres, max_len=4):
    return st.dictionaries(words_over(pres, max_len), coefficients, max_size=4).map(
        lambda terms: WordElement(pres, terms)
    )


def crossed_elements(n, max_exp=2):
    symbols = st.tuples(st.integers(1, n), st.integers(1, n), st.booleans())
    monomials = st.dictionaries(symbols, st.integers(1, max_exp), max_size=3).map(FunMonomial)
    funs = st.dictionaries(monomials, coefficients, max_size=3).map(lambda terms: FunElement(n, terms))
    return st.builds(CrossedElement, funs, funs)


def monomials(n, max_exp=3):
    symbols = st.tuples(st.integers(1, n), st.integers(1, n), st.booleans())
    return st.dictionaries(symbols, st.integers(1, max_exp), max_size=5).map(FunMonomial)


presentations = st.sampled_from(PRESENTATIONS)
word_pairs = presentations.flatmap(lambda pres: st.tuples(word_elements(pres), word_elements(pres)))
crossed_pairs = st.integers(1, 3).flatmap(lambda n: st.tuples(crossed_elements(n), crossed_elements(n)))


@SEEDED
@given(presentations.flatmap(word_elements))
def test_word_format_parse_round_trip(x):
    assert parse_expression(format_word_element(x), x.presentation) == x


@SEEDED
@given(st.integers(1, 3).flatmap(crossed_elements))
def test_crossed_format_parse_round_trip(x):
    assert parse_expression(format_crossed_element(x), CrossedContext(x.n)) == x


@SEEDED
@given(presentations.flatmap(lambda pres: st.tuples(st.just(pres), words_over(pres, 6))))
def test_normal_form_is_idempotent_and_names_the_rewrite_class(case):
    pres, word = case
    nf = hc_normal_form(word)
    assert hc_normal_form(nf) == nf
    # half-commutation only permutes the letters within each parity class
    assert sorted(nf[0::2]) == sorted(word[0::2]) and sorted(nf[1::2]) == sorted(word[1::2])
    closure = rewrite_closure_oracle(word, pres)
    assert nf in closure
    assert {hc_normal_form(w) for w in closure} == {nf}


@SEEDED
@given(word_pairs)
def test_word_star_is_an_involutive_anti_homomorphism(pair):
    x, y = pair
    assert star_element(star_element(x)) == x
    assert star_element(x * y) == star_element(y) * star_element(x)
    assert counit_element(star_element(x)) == counit_element(x).conjugate()


def assert_built_alike(got, pres, raw):
    """``got`` equals the validating constructor over ``raw``, term for term
    and in key order."""
    assert list(got.terms.items()) == list(WordElement(pres, raw).terms.items())


@SEEDED
@given(
    st.sampled_from((ao_star(2), ah_star(2), au_star_star(2))).flatmap(
        lambda pres: st.tuples(*[
            st.dictionaries(repeating_words(pres, 4), coefficients, max_size=3).map(
                lambda terms, pres=pres: WordElement(pres, terms))
            for _ in range(3)
        ])
    )
)
def test_products_star_and_antipode_match_the_validating_constructor(elements):
    # (x - y)(x + y) cancels xy against yx where they half-commute (two
    # words of even length always do), and over ah-star many products die
    x, y, z = elements
    pres = x.presentation
    for left, right in ((x, y), (y, x), (x - y, x + y), (x, y + z), (x * y, z)):
        product = left * right
        assert_built_alike(product, pres, _concatenations(left, right))
        for element in (left, product):
            assert_built_alike(star_element(element), pres, _reversed_words(element))
            assert_built_alike(antipode_element(element), pres, _reversed_words(element, transpose=True))


def test_products_cancel_and_die_as_the_constructor_says():
    # the property test above, on products known to cancel and to die
    ao, ah = ao_star(2), ah_star(2)
    # ab and ba share their letters at odd and at even positions
    a = WordElement.from_word(ao, (letter(ao, 1, 1), letter(ao, 1, 2)))
    b = WordElement.from_word(ao, (letter(ao, 2, 1), letter(ao, 2, 2)))
    square = (a - b) * (a + b)
    assert square == a * a - b * b and len(_concatenations(a - b, a + b)) == 4 and len(square.terms) == 2
    assert_built_alike(square, ao, _concatenations(a - b, a + b))
    # v11 v12 dies in ah-star; v11 v22 does not
    u = WordElement.from_word(ah, (letter(ah, 1, 1),), 2)
    v = WordElement(ah, {(letter(ah, 1, 2),): 1, (letter(ah, 2, 2),): -1})
    assert u * v == WordElement.from_word(ah, (letter(ah, 1, 1), letter(ah, 2, 2)), -2)
    assert_built_alike(u * v, ah, _concatenations(u, v))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(monomials(n), monomials(n))))
def test_merged_monomial_products_match_the_constructor(pair):
    # over n <= 3 the factors often share symbols, whose exponents add
    m1, m2 = pair
    cases = [
        (m1.mul(m2), ref_monomial(m1, m2)),
        (m2.mul(m1), ref_monomial(m1, m2)),
        (m1.bar(), ref_monomial(m1, flip=True)),
        (m1.bar().mul(m2), ref_monomial(ref_monomial(m1, flip=True), m2)),
    ]
    for got, ref in cases:
        assert type(got) is FunMonomial and got == ref and hash(got) == hash(ref)


@SEEDED
@given(crossed_pairs)
def test_crossed_star_is_an_involutive_anti_homomorphism(pair):
    x, y = pair
    assert crossed_star(crossed_star(x)) == x
    assert crossed_star(crossed_mul(x, y)) == crossed_mul(crossed_star(y), crossed_star(x))


@SEEDED
@given(presentations.flatmap(word_elements), st.integers(1, 3).flatmap(crossed_elements))
def test_antipode_squares_to_the_identity(x, y):
    assert antipode_element(antipode_element(x)) == x
    assert crossed_antipode(crossed_antipode(y)) == y


@SEEDED
@given(
    st.integers(1, 5).flatmap(lambda p: st.tuples(st.permutations(range(p)), st.permutations(range(p)))),
    st.integers(1, 4),
)
def test_weingarten_is_a_class_function(perms, n):
    sigma, pi = (tuple(s) for s in perms)
    table = weingarten_table(len(sigma), n)
    assert table.wg(sigma) == table.wg(_compose(_compose(pi, sigma), _inverse(pi)))


@SEEDED
@given(
    presentations.flatmap(
        lambda pres: st.dictionaries(repeating_words(pres, 7), coefficients, min_size=1, max_size=2).map(
            lambda terms: WordElement(pres, terms)
        )
    )
)
def test_word_coproduct_matches_the_term_by_term_expansion(x):
    assert coproduct_element(x) == ref_word_coproduct(x)


@SEEDED
@given(st.integers(1, 3).flatmap(lambda n: crossed_elements(n, max_exp=3)))
def test_crossed_coproduct_matches_the_term_by_term_expansion(x):
    assert crossed_coproduct(x) == ref_crossed_coproduct(x)


def weights(n):
    return st.lists(st.integers(-2, 3), min_size=n, max_size=n).map(lambda w: tuple(sorted(w, reverse=True)))


@SEEDED
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), weights(n), weights(n))))
def test_lr_tensor_matches_the_schur_product_oracle(case):
    n, lam, mu = case
    assert lr_tensor(lam, mu, n) == schur_tensor_oracle(lam, mu, n)


@SEEDED
@given(
    st.sampled_from((ao_star(2), ah_star(2), au_star_star(1), au_star_star(2))).flatmap(
        lambda pres: st.dictionaries(repeating_words(pres, 6), coefficients, min_size=1, max_size=3).map(
            lambda terms: WordElement(pres, terms)
        )
    )
)
def test_embedding_matches_the_generator_products(x):
    assert embed_pi(x) == embed_by_products(x)
