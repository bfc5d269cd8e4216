import itertools
import math
import random

import pytest

from halfcomm.crossed import (
    CrossedElement,
    FunElement,
    FunMonomial,
    _monomial,
    _run_splits,
    _word_image,
    coinvariant_test,
    crossed_antipode,
    crossed_coproduct,
    crossed_counit,
    crossed_mul,
    crossed_star,
    embed_pi,
    pun_generator,
)
from halfcomm.errors import DegreeCapError, DimensionMismatchError, IndexRangeError
from halfcomm.haar import haar_integral
from halfcomm.scalars import GaussianRational, I
from halfcomm.verify import (
    _all_letters,
    _all_words,
    _basis_elem,
    _crossed_counit_sides,
    _random_crossed,
    _random_fun,
    coinvariant_by_coproduct,
)
from halfcomm.words import WordElement, ah_star, ao_star, au_star_star, letter
from tests_helpers import (
    assert_pair_tuple,
    assert_reduced,
    crossed_parities,
    embed_by_products,
    lean_cases,
    ref_bar,
    ref_crossed_mul,
    ref_crossed_coproduct,
    ref_crossed_star,
    ref_mul,
    ref_sum,
    u,
    ub,
)


def g(n, i, j):
    return CrossedElement.generator(n, i, j)


def word_elem(pres, *pairs):
    return WordElement.from_word(pres, tuple(letter(pres, r, c) for r, c in pairs))


# -- flip automorphism ---------------------------------------------------------


def test_bar_examples():
    assert u(2, 1, 2).bar() == ub(2, 1, 2)
    assert (u(2, 1, 1) * ub(2, 2, 2)).bar() == ub(2, 1, 1) * u(2, 2, 2)
    f = I * u(2, 1, 1) * u(2, 1, 1)
    assert f.bar().bar() == f


def test_bar_is_algebra_map():
    rng = random.Random(3)
    for _ in range(25):
        f1, f2 = _random_fun(rng, 2, max_degree=3), _random_fun(rng, 2, max_degree=3)
        assert (f1 * f2).bar() == f1.bar() * f2.bar()


# -- multiplication --------------------------------------------------------------


def test_crossed_mul_examples():
    x = CrossedElement.odd(u(2, 1, 1))
    y = CrossedElement.odd(u(2, 2, 2))
    assert crossed_mul(x, y) == CrossedElement.even(u(2, 1, 1) * ub(2, 2, 2))
    one = CrossedElement.one(2)
    z = _random_crossed(random.Random(0), 2, max_degree=3)
    assert crossed_mul(one, z) == z and crossed_mul(z, one) == z
    a = CrossedElement.even(u(2, 1, 1))
    b = CrossedElement.odd(u(2, 1, 2))
    assert crossed_mul(a, b) == CrossedElement.odd(u(2, 1, 1) * u(2, 1, 2))


def test_crossed_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        crossed_mul(CrossedElement.one(2), CrossedElement.one(3))


@pytest.mark.parametrize("n", [2, 3])
def test_crossed_mul_associative_distributive(n):
    rng = random.Random(n)
    for _ in range(20):
        x, y, z = (_random_crossed(rng, n, max_degree=3) for _ in range(3))
        assert crossed_mul(crossed_mul(x, y), z) == crossed_mul(x, crossed_mul(y, z))
        assert crossed_mul(x, y + z) == crossed_mul(x, y) + crossed_mul(x, z)


# -- star and antipode -------------------------------------------------------------


def test_crossed_star_examples():
    gen = CrossedElement.odd(u(2, 1, 2))
    assert crossed_star(gen) == gen  # the generators u_ij s are self-adjoint
    x = CrossedElement.even(I * u(2, 1, 1))
    assert crossed_star(x) == CrossedElement.even(-I * ub(2, 1, 1))
    a, b = CrossedElement.odd(u(2, 1, 1)), CrossedElement.odd(u(2, 2, 1))
    assert crossed_star(crossed_mul(a, b)) == crossed_mul(crossed_star(b), crossed_star(a))


def test_crossed_antipode_examples():
    assert crossed_antipode(CrossedElement.even(u(2, 1, 2))) == CrossedElement.even(ub(2, 2, 1))
    assert crossed_antipode(CrossedElement.odd(u(2, 1, 2))) == CrossedElement.odd(u(2, 2, 1))
    x = CrossedElement(u(2, 1, 1) * ub(2, 1, 2), u(2, 2, 2))
    assert crossed_antipode(crossed_antipode(x)) == x


def test_crossed_antipode_antimultiplicative():
    rng = random.Random(5)
    for _ in range(25):
        x, y = _random_crossed(rng, 2, max_degree=3), _random_crossed(rng, 2, max_degree=3)
        assert crossed_antipode(crossed_mul(x, y)) == crossed_mul(
            crossed_antipode(y), crossed_antipode(x)
        )


# -- coproduct -----------------------------------------------------------------------


def test_crossed_coproduct_generator():
    delta = crossed_coproduct(g(2, 1, 1))
    mono = lambda i, j: FunMonomial({(i, j, False): 1})
    expected = {
        ((mono(1, 1), 1), (mono(1, 1), 1)): GaussianRational(1),
        ((mono(1, 2), 1), (mono(2, 1), 1)): GaussianRational(1),
    }
    assert delta == expected


def test_crossed_coproduct_unit():
    one = CrossedElement.one(2)
    assert crossed_coproduct(one) == {((FunMonomial(), 0), (FunMonomial(), 0)): GaussianRational(1)}


def test_crossed_coproduct_merges_terms_of_two_monomials_in_first_order():
    # the determinant u11 u22 - u12 u21 is group-like: of the 4 + 4 terms of
    # its monomials' coproducts, the 2 pairs with legs u1k u2k (x) uk1 uk2
    # cancel, and det (x) det keeps the others in the order they came; the
    # odd copy merges nothing with the even one
    mono = lambda *pairs: FunMonomial({(i, j, False): 1 for i, j in pairs})
    m1, m2 = mono((1, 1), (2, 2)), mono((1, 2), (2, 1))
    det = FunElement(2, {m1: 1, m2: -1})
    assert list(det.terms) == [m1, m2]
    for x, parities in ((CrossedElement.even(det), (0,)), (CrossedElement(det, det), (0, 1))):
        expected = []
        for parity in parities:
            d1 = crossed_coproduct(_basis_elem(2, m1, parity))
            d2 = crossed_coproduct(_basis_elem(2, m2, parity))
            shared = d1.keys() & d2.keys()
            assert len(d1) == len(d2) == 4 and len(shared) == 2
            expected += [(key, c) for key, c in d1.items() if key not in shared]
            expected += [(key, -c) for key, c in d2.items() if key not in shared]
        assert list(crossed_coproduct(x).items()) == expected
        signs = {((a, parity), (b, parity)): s * t for parity in parities
                 for a, s in ((m1, 1), (m2, -1)) for b, t in ((m1, 1), (m2, -1))}
        assert dict(expected) == signs


def test_crossed_coproduct_coassociative():
    x = g(2, 1, 2)
    delta = crossed_coproduct(x)
    left, right = {}, {}
    for ((lm, lp), (rm, rp)), c in delta.items():
        for (k1, k2), c2 in crossed_coproduct(_basis_elem(2, lm, lp)).items():
            key = (k1, k2, (rm, rp))
            left[key] = left.get(key, GaussianRational(0)) + c * c2
        for (k1, k2), c2 in crossed_coproduct(_basis_elem(2, rm, rp)).items():
            key = ((lm, lp), k1, k2)
            right[key] = right.get(key, GaussianRational(0)) + c * c2
    assert {k: v for k, v in left.items() if v} == {k: v for k, v in right.items() if v}


def test_crossed_coproduct_of_a_power_is_binomial():
    # Delta(u11) = u11 (x) u11 + u12 (x) u21 over n = 2, so Delta(u11^e) is
    # sum_k C(e, k) u11^(e-k) u12^k (x) u11^(e-k) u21^k; e = 16 sits at the cap
    for e in range(1, 17):
        delta = crossed_coproduct(_basis_elem(2, FunMonomial({(1, 1, False): e}), 0))
        expected = {
            (
                (FunMonomial({(1, 1, False): e - k, (1, 2, False): k}), 0),
                (FunMonomial({(1, 1, False): e - k, (2, 1, False): k}), 0),
            ): GaussianRational(math.comb(e, k))
            for k in range(e + 1)
        }
        assert delta == expected, e


def test_crossed_coproduct_degree_cap():
    # the cap bounds the splits made, a product of C(e + n - 1, n - 1) over
    # the symbols: u12^5 u*34^4 u11^3 u*22^2 over n = 4 makes
    # 56 * 35 * 20 * 10 = 392,000, above 4**8
    f = FunElement(4, {FunMonomial({(1, 2, False): 5, (3, 4, True): 4, (1, 1, False): 3, (2, 2, True): 2}): 1})
    with pytest.raises(DegreeCapError, match="392000 terms"):
        crossed_coproduct(CrossedElement.even(f))
    # u12^5 u*34^4 alone makes 56 * 35 = 1,960 splits, although its 4**9
    # index choices are above the cap
    x = CrossedElement.even(FunElement(4, {FunMonomial({(1, 2, False): 5, (3, 4, True): 4}): 1}))
    assert _crossed_counit_sides(4, crossed_coproduct(x)) == (x, x)


def test_crossed_coproduct_expands_below_the_term_cap():
    # u11^10 over n = 2 (1,024 terms) and an odd degree-11 monomial (2,048)
    # were refused by the former degree-8 cap
    f = FunElement(2, {FunMonomial({(1, 1, False): 10}): 1})
    for x in (CrossedElement.even(f), CrossedElement.odd(f * ub(2, 2, 1))):
        assert _crossed_counit_sides(2, crossed_coproduct(x)) == (x, x)


def test_crossed_coproduct_matches_brute_force_expansion():
    rng = random.Random(29)
    for _ in range(200):
        x = _random_crossed(rng, rng.randint(1, 3), max_degree=3)
        assert crossed_coproduct(x) == ref_crossed_coproduct(x)


def test_crossed_counit():
    assert crossed_counit(g(2, 1, 1)) == 1
    assert crossed_counit(g(2, 1, 2)) == 0
    assert crossed_counit(CrossedElement.even(u(2, 1, 1) * ub(2, 2, 2))) == 1


# -- embedding -----------------------------------------------------------------------


def test_embed_examples():
    pres = ao_star(2)
    assert embed_pi(word_elem(pres, (1, 1), (2, 2))) == CrossedElement.even(
        u(2, 1, 1) * ub(2, 2, 2)
    )
    assert embed_pi(WordElement.one(pres)) == CrossedElement.one(2)
    x = embed_pi(word_elem(pres, (1, 1), (2, 2), (1, 2)))
    y = embed_pi(word_elem(pres, (1, 2), (2, 2), (1, 1)))
    assert x == y  # exact symbolic equality through commutativity


def test_embed_is_star_homomorphism():
    pres = ao_star(2)
    rng = random.Random(31)
    for _ in range(20):
        words = []
        for _ in range(2):
            length = rng.randint(0, 3)
            words.append(
                WordElement.from_word(
                    pres,
                    tuple(letter(pres, rng.randint(1, 2), rng.randint(1, 2)) for _ in range(length)),
                )
            )
        x, y = words
        assert embed_pi(x * y) == crossed_mul(embed_pi(x), embed_pi(y))
        from halfcomm.words import star_element

        assert embed_pi(star_element(x)) == crossed_star(embed_pi(x))


def test_embed_parity():
    pres = ao_star(2)
    even = embed_pi(word_elem(pres, (1, 1), (2, 1)))
    odd = embed_pi(word_elem(pres, (1, 1), (2, 1), (2, 2)))
    assert even.f1.is_zero and not odd.f1.is_zero


def test_embed_unitary_presentation():
    # u_ij goes to x_ij s + i x_(n+i)j s over the doubled dimension
    au1 = au_star_star(1)
    image = embed_pi(WordElement.generator(au1, 1, 1))
    expected = CrossedElement.odd(u(2, 1, 1)) + I * CrossedElement.odd(u(2, 2, 1))
    assert image == expected
    starred = embed_pi(
        WordElement.from_word(au1, (letter(au1, 1, 1, starred=True),))
    )
    assert starred == crossed_star(image)
    # multiplicativity through the rewriting
    au2 = au_star_star(2)
    x = WordElement.generator(au2, 1, 2)
    y = WordElement.generator(au2, 2, 1)
    assert embed_pi(x * y) == crossed_mul(embed_pi(x), embed_pi(y))


def embed_letter_by_letter(x):
    """Reference image, term by term: each letter of a unitary-presentation
    word takes its plain symbol or its shifted one (times i, or -i when
    starred), 2^L choices per word, run through in binary order; an
    orthogonal letter takes its plain symbol only."""
    n = x.presentation.n
    shift = 0 if x.presentation.orthogonal else n
    parts = ([], [])
    for word, coeff in x.terms.items():
        for shifts in itertools.product(sorted({0, shift}), repeat=len(word)):
            exps = {}
            c = coeff
            for pos, (l, shift) in enumerate(zip(word, shifts)):
                sym = (l.row + shift, l.col, pos % 2 == 1)
                exps[sym] = exps.get(sym, 0) + 1
                if shift:
                    c = c * (-I if l.starred else I)
            parts[len(word) % 2].append((FunMonomial(exps), c))
    dim = n if x.presentation.orthogonal else 2 * n
    return CrossedElement(FunElement(dim, parts[0]), FunElement(dim, parts[1]))


AU1, AU2 = au_star_star(1), au_star_star(2)

# letter sets whose words repeat a (row, col, position parity) class, with
# plain and starred letters mixed in the unitary presentation, and the
# longest word taken from each
CLASS_CASES = [
    (AU1, _all_letters(AU1), 6),
    (AU2, [letter(AU2, 1, 1), letter(AU2, 1, 1, starred=True), letter(AU2, 1, 2)], 5),
    (AU2, _all_letters(AU2), 3),
    (ao_star(2), _all_letters(ao_star(2)), 5),
    (ah_star(2), _all_letters(ah_star(2)), 5),
    (ao_star(3), _all_letters(ao_star(3)), 3),
]


@pytest.mark.parametrize("pres, letters, max_len", CLASS_CASES,
                         ids=("au1-all", "au2-v11-v11*-v12", "au2-all", "ao2-all", "ah2-all", "ao3-all"))
def test_embed_splits_letter_classes_like_the_letter_expansion(pres, letters, max_len):
    for length in range(max_len + 1):
        for word in itertools.product(letters, repeat=length):
            x = WordElement.from_word(pres, word)
            image = embed_pi(x)
            assert image == embed_by_products(x) == embed_letter_by_letter(x), word
    # a sum's terms come out word by word, in the order of its words; the
    # terms of unitary words whose stars differ can meet, and keep the place
    # of the first
    rng = random.Random(f"class cases {pres}")
    for _ in range(40):
        x = WordElement(pres, {tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len))):
                               GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) / rng.randint(1, 3)
                               for _ in range(rng.randint(1, 5))})
        images = [embed_pi(WordElement(pres, {w: c})) for w, c in x.terms.items()]
        image = embed_pi(x)
        reference = CrossedElement(FunElement(image.n, [t for y in images for t in y.f0.terms.items()]),
                                   FunElement(image.n, [t for y in images for t in y.f1.terms.items()]))
        assert image == reference == embed_by_products(x) == embed_letter_by_letter(x)
        assert list(image.f0.terms) == list(reference.f0.terms)
        assert list(image.f1.terms) == list(reference.f1.terms)


WORD_CACHE_CASES = [ao_star(2), ao_star(3), ao_star(4), AU1, AU2]


def _over(pres, word):
    """The letters of ``word`` over ``pres``: the stars dropped in an
    orthogonal presentation, None when an index is out of its range."""
    if any(max(l.row, l.col) > pres.n for l in word):
        return None
    return tuple(letter(pres, l.row, l.col, l.starred and not pres.orthogonal) for l in word)


def test_cached_word_images_match_the_letter_expansion():
    # seeded elements over each presentation, embedded from a cold word
    # cache and again from a warm one, and their words embedded over every
    # other presentation they fit: the same word over two n (au-star-star:1
    # and :2) or as an unstarred word of both kinds meets the cache again
    _word_image.cache_clear()
    rng = random.Random(2301)
    shared = 0
    for _ in range(150):
        pres = rng.choice(WORD_CACHE_CASES)
        letters = _all_letters(pres)
        x = WordElement(pres, {tuple(rng.choice(letters) for _ in range(rng.randint(0, 5))):
                               GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) / rng.randint(1, 3)
                               for _ in range(rng.randint(1, 4))})
        expected = embed_letter_by_letter(x)
        image = embed_pi(x)
        again = embed_pi(x)
        assert image == again == expected
        # a warm image is built from the very monomials of the cold one
        for part, warm in ((image.f0, again.f0), (image.f1, again.f1)):
            assert all(a is b for a, b in zip(part.terms, warm.terms))
        for other in WORD_CACHE_CASES:
            moved = {_over(other, w): c for w, c in x.terms.items()}
            if other is not pres and None not in moved:
                y = WordElement(other, moved)
                assert embed_pi(y) == embed_letter_by_letter(y), (pres, other, x)
                shared += any(w in x.terms for w in y.terms)
    assert shared >= 20, shared
    # the same words over au-star-star:1 and :2, in both orders
    words = list(_all_words(AU1, 3))
    for order in ((AU1, AU2), (AU2, AU1)):
        _word_image.cache_clear()
        for pres in order:
            for w in words:
                x = WordElement.from_word(pres, w)
                assert embed_pi(x) == embed_letter_by_letter(x), (pres, w)


def test_embed_leaves_out_a_class_weight_that_cancels():
    # v11 and v11* share the class (1, 1, even position): shifting just one
    # of them weighs i - i = 0, so no monomial holds x_11 x_31
    word = (letter(AU2, 1, 1), letter(AU2, 1, 2), letter(AU2, 1, 1, starred=True))
    image = embed_pi(WordElement.from_word(AU2, word))
    squares = u(4, 1, 1) * u(4, 1, 1) + u(4, 3, 1) * u(4, 3, 1)
    assert image == CrossedElement.odd(squares * (ub(4, 1, 2) + I * ub(4, 3, 2)))
    for bar_sym in ((1, 2, True), (3, 2, True)):
        assert FunMonomial({(1, 1, False): 1, (3, 1, False): 1, bar_sym: 1}) not in image.f1.terms


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cached_unitary_runs_match_the_letter_by_letter_expansion(n):
    # a run of e letters (row, col) at positions of one parity, q of them
    # starred, is the product of x + i x' over its plain letters and x - i x'
    # over its starred ones, for x = (row, col, odd), x' = (row + n, col, odd)
    for row, col in itertools.product(range(1, n + 1), repeat=2):
        for odd in (False, True):
            x = FunElement.coordinate(2 * n, row, col, bar=odd)
            shifted = FunElement.coordinate(2 * n, row + n, col, bar=odd)
            for e in range(1, 5):
                for q in range(e + 1):
                    expected = FunElement.one(2 * n)
                    for k in range(e):
                        expected = expected * (x + shifted * (-I if k < q else I))
                    splits = _run_splits(row, col, odd, e, q, n)
                    assert all(list(plain + more) == sorted(plain + more) for plain, more, _re, _im in splits)
                    got = FunElement(2 * n, [(FunMonomial(plain + more), GaussianRational(re, im))
                                             for plain, more, re, im in splits])
                    assert got == expected, (row, col, odd, e, q)
                    assert len(splits) == len(expected.terms)


# -- coinvariants and the even part ---------------------------------------------------


def test_coinvariant_examples():
    assert coinvariant_test(CrossedElement.even(u(2, 1, 1) * ub(2, 2, 2))) is True
    assert coinvariant_test(CrossedElement.odd(u(2, 1, 1))) is False
    pres = ao_star(2)
    assert coinvariant_test(embed_pi(word_elem(pres, (1, 2), (2, 1)))) is True


def test_coinvariant_routes_on_random_elements():
    rng = random.Random(13)
    for _ in range(20):
        x = _random_crossed(rng, 2, max_degree=2)
        for y in (x, CrossedElement.even(x.f0), CrossedElement.odd(x.f1)):
            assert coinvariant_test(y) == coinvariant_by_coproduct(y)


def test_pun_generator():
    assert pun_generator(2, 1, 1, 1, 1) == u(2, 1, 1) * ub(2, 1, 1)
    assert pun_generator(2, 1, 2, 1, 2).star() == pun_generator(2, 2, 1, 2, 1)
    with pytest.raises(IndexRangeError):
        pun_generator(2, 0, 1, 1, 1)


def test_generator_half_commutation_all_triples():
    for n in (2, 3):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for a, b, c in itertools.product(pairs, repeat=3):
            lhs = crossed_mul(crossed_mul(g(n, *a), g(n, *b)), g(n, *c))
            rhs = crossed_mul(crossed_mul(g(n, *c), g(n, *b)), g(n, *a))
            assert lhs == rhs


# -- the lean path: results built once, equal to constructor references ---------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fun_operations_match_constructor_references(n):
    rng = random.Random(1700 + n)
    merged = 0
    for f, g in lean_cases(rng, n, 30):
        product = f * g
        merged += len(product.terms) < len(f.terms) * len(g.terms)
        # the cross terms of (f + g)(f - g) cancel
        assert (f + g) * (f - g) == ref_sum(ref_mul(f, f), ref_mul(g, g), -1)
        results = [(product, ref_mul(f, g)), (f - g, ref_sum(f, g, -1)), (f - f, FunElement.zero(n)),
                   (f.bar(), ref_bar(f)), (f.star(), ref_bar(f, conjugate=True)),
                   (g.bar() * f, ref_mul(f, g, twist=True))]
        for got, expected in results:
            assert got == expected
            assert_reduced(got)
        # a difference keeps the key order of merging f with -g
        assert list((f - g).terms) == list(ref_sum(f, g, -1).terms)
    assert merged


def test_products_drop_the_sums_that_cancel():
    # (u11 + u12)(u11 - u12) = u11^2 - u12^2: the two u11 u12 terms cancel
    f, g = u(2, 1, 1) + u(2, 1, 2), u(2, 1, 1) - u(2, 1, 2)
    assert set((f * g).terms) == {*(u(2, 1, 1) * u(2, 1, 1)).terms, *(u(2, 1, 2) * u(2, 1, 2)).terms}
    assert ((f * g) - (u(2, 1, 1) * u(2, 1, 1) - u(2, 1, 2) * u(2, 1, 2))).terms == {}
    # a key that comes out of two products keeps the sum of their coefficients
    h = (u(2, 1, 1) + ub(2, 1, 1)) * (u(2, 1, 1) + ub(2, 1, 1))
    assert h.terms[next(iter((u(2, 1, 1) * ub(2, 1, 1)).terms))] == 2
    assert_reduced(h)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_crossed_operations_match_constructor_references(n):
    rng = random.Random(1800 + n)
    for f, g in lean_cases(rng, n, 12):
        for x in crossed_parities(f, g):
            for y in crossed_parities(g, f):
                for got, expected in ((crossed_mul(x, y), ref_crossed_mul(x, y)), (x - y, CrossedElement(
                        ref_sum(x.f0, y.f0, -1), ref_sum(x.f1, y.f1, -1)))):
                    assert got == expected
                    assert_reduced(got.f0)
                    assert_reduced(got.f1)
            star = crossed_star(x)
            assert star == ref_crossed_star(x)
            assert_reduced(star.f0)
            assert_reduced(star.f1)


def test_monomials_are_their_pair_tuples_on_every_route():
    rng = random.Random(19)
    for n in (1, 2, 3, 4):
        for _ in range(40):
            exps = {}
            for _ in range(rng.randint(0, 5)):
                sym = (rng.randint(1, n), rng.randint(1, n), rng.random() < 0.5)
                exps[sym] = exps.get(sym, 0) + rng.randint(1, 3)
            m = FunMonomial(exps)
            other = FunMonomial({(rng.randint(1, n), rng.randint(1, n), True): rng.randint(1, 2)})
            made = [m, _monomial(tuple(m)), m.mul(other), other.mul(m), m.mul(FunMonomial()), m.bar(), m.bar().bar(),
                    m.transpose(), m.transpose().bar()]
            for k in made:
                assert_pair_tuple(k)
            # a route may share a monomial, never its hash with a different one
            assert m.bar() == FunMonomial({(i, j, not b): e for (i, j, b), e in m})
            assert m.transpose() == FunMonomial({(j, i, b): e for (i, j, b), e in m})
            assert m.mul(other) == FunMonomial({**dict(m), **{s: dict(m).get(s, 0) + e for s, e in other}})
            # a dict, shuffled pairs and pairs with each exponent split into
            # repeats of its symbol all build the same monomial
            shuffled = list(exps.items())
            rng.shuffle(shuffled)
            split = []
            for sym, e in shuffled:
                cut = rng.randint(0, e)
                split += [(sym, cut), (sym, e - cut)]
            rng.shuffle(split)
            for built in (FunMonomial(shuffled), FunMonomial(split)):
                assert_pair_tuple(built)
                assert built == m
            with pytest.raises(TypeError):
                FunElement(n, {tuple(m): 1})
    for pres in (ao_star(2), ao_star(3), au_star_star(1), au_star_star(2)):
        letters = _all_letters(pres)
        for _ in range(30):
            words = {tuple(rng.choice(letters) for _ in range(rng.randint(0, 5))): rng.randint(1, 3) for _ in range(3)}
            for word in words:
                for k, _re, _im in _word_image(word, pres.n, not pres.orthogonal):
                    assert_pair_tuple(k)
            x = embed_pi(WordElement(pres, words))
            assert_reduced(x.f0)
            assert_reduced(x.f1)


def test_monomial_sums_the_exponents_of_a_repeated_symbol():
    repeated = FunMonomial([((1, 1, False), 1), ((1, 1, False), 1), ((1, 1, True), 2)])
    assert repeated == FunMonomial({(1, 1, False): 2, (1, 1, True): 2})
    assert repeated == (((1, 1, False), 2), ((1, 1, True), 2))
    # |u_11|^4 integrates to 2 / (n (n + 1)) = 1/3 over U(2)
    assert haar_integral(FunElement(2, {repeated: 1})) == GaussianRational(1, 0) / 3


@pytest.mark.parametrize("exponent, message",
                         [(1.7, "not an int"), (2.0, "not an int"), (True, "not an int"), ("1", "not an int"),
                          (-1, "negative")])
def test_monomial_rejects_an_exponent_that_is_not_a_nonnegative_int(exponent, message):
    with pytest.raises(ValueError, match=message):
        FunMonomial({(1, 1, False): exponent})
    with pytest.raises(ValueError, match=message):
        FunMonomial([((1, 1, False), 1), ((1, 1, False), exponent)])
