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
from halfcomm.verify import schur_tensor_oracle
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
