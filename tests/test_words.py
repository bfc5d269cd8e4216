import itertools
import random
from collections import Counter

import pytest

from halfcomm.crossed import _MONOMIAL_SPLITS, CrossedElement, FunElement, FunMonomial, _word_image, crossed_coproduct
from halfcomm.errors import ClosureSizeError, DegreeCapError, IndexRangeError, PresentationError
from halfcomm.expressions import parse_expression
from halfcomm.scalars import BoundedMemo, GaussianRational, I
from halfcomm.verify import (
    _ah_relation_pairs,
    _all_letters,
    _all_words,
    _closures,
    _holds_relation_pair,
    _random_crossed,
    _random_word_element,
    _word_coassociativity_sides,
    _word_counit_sides,
)
from halfcomm.words import (
    _CLASS_SPLITS,
    COPRODUCT_MAX_TERMS,
    LETTER_TABLE_CAP,
    Letter,
    _class_splits,
    _letter,
    WordElement,
    ah_star,
    ah_zero_test,
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
from tests_helpers import coproduct_legs, ref_word_coproduct

AO2 = ao_star(2)
AH2 = ah_star(2)


def w(pres, *pairs):
    return tuple(letter(pres, r, c) for r, c in pairs)


def elem(pres, *pairs):
    return WordElement.from_word(pres, w(pres, *pairs))


# -- normal forms against the brute-force oracle -----------------------------


def test_orthogonal_word_elements_refuse_starred_letters():
    # letter() refuses a starred orthogonal letter, and so does a word element
    # made from Letters directly, with letter()'s message; orthogonal
    # generators are self-adjoint, so v*[1,1] v[1,2] is not a new word
    with pytest.raises(PresentationError) as made:
        letter(AO2, 1, 1, True)
    for pres in (AO2, AH2, ao_star(3)):
        with pytest.raises(PresentationError) as direct:
            WordElement(pres, {(Letter(1, 1, True), Letter(1, 2, False)): 1})
        assert str(direct.value) == str(made.value)
    unitary = WordElement(au_star_star(2), {(Letter(1, 1, True), Letter(1, 2, False)): 1})
    assert list(unitary.terms) == [(Letter(1, 1, True), Letter(1, 2, False))]


def test_normal_form_frozen_examples():
    assert hc_normal_form(w(AO2, (2, 1), (1, 1), (1, 2))) == w(AO2, (1, 2), (1, 1), (2, 1))
    assert hc_normal_form(w(AO2, (1, 1))) == w(AO2, (1, 1))
    assert hc_normal_form(w(AO2, (2, 2), (2, 1), (1, 2), (1, 1))) == w(
        AO2, (1, 2), (1, 1), (2, 2), (2, 1)
    )


def test_closure_frozen_examples():
    word = w(AO2, (1, 1), (1, 2), (2, 1))
    cls = rewrite_closure_oracle(word, AO2)
    assert cls == {word, w(AO2, (2, 1), (1, 2), (1, 1))}
    short = w(AO2, (1, 1), (2, 2))
    assert rewrite_closure_oracle(short, AO2) == {short}
    for word in itertools.islice(_all_words(AO2, 4), 40):
        assert len(rewrite_closure_oracle(word, AO2)) <= 4  # 2! * 2!


def test_closure_size_guard():
    word = w(AO2, (1, 1), (1, 2), (2, 1), (2, 2), (1, 1))
    with pytest.raises(ClosureSizeError):
        rewrite_closure_oracle(word, AO2, max_size=2)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
def test_closure_matches_normal_form(n, length):
    # reachability by rewrites is exactly equality of canonical forms, on
    # every rewrite class
    pres = ao_star(n)
    by_nf = {}
    for word in _all_words(pres, length):
        by_nf.setdefault(hc_normal_form(word), set()).add(word)
    for word, closure in _closures(pres, length):
        assert closure == by_nf[hc_normal_form(word)]


# -- the hyperoctahedral zero rule -------------------------------------------


def test_ah_zero_frozen_examples():
    assert ah_zero_test(w(AH2, (1, 1), (1, 2)), AH2) is True
    assert ah_zero_test(w(AH2, (1, 1), (2, 2)), AH2) is False
    assert ah_zero_test(w(AH2, (1, 1), (2, 2), (1, 2)), AH2) is True


def test_ah_zero_requires_presentation():
    with pytest.raises(PresentationError):
        ah_zero_test(w(AO2, (1, 1)), AO2)


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_ah_zero_matches_closure_search(length):
    relations = _ah_relation_pairs(AH2)
    for _, closure in _closures(AH2, length):
        brute = _holds_relation_pair(closure, relations)
        assert all(ah_zero_test(word, AH2) == brute for word in closure), closure


# -- element normalization ----------------------------------------------------


def test_normalize_cancels_equivalent_words():
    x = WordElement(
        AO2,
        {
            w(AO2, (2, 1), (1, 1), (1, 2)): 1,
            w(AO2, (1, 2), (1, 1), (2, 1)): -1,
        },
    )
    assert x.is_zero


def test_normalize_examples():
    y = WordElement(AH2, {w(AH2, (1, 1), (1, 2)): 1, w(AH2, (2, 2)): 1})
    assert y == WordElement(AH2, {w(AH2, (2, 2)): 1})


def test_element_rejects_letter_outside_range():
    with pytest.raises(IndexRangeError):
        WordElement(AO2, {(letter(ao_star(3), 3, 1),): 1})
    with pytest.raises(IndexRangeError):
        WordElement(AO2, {(letter(AO2, 1, 1), Letter(1, 0, False)): 1})


def test_multiplication_concatenates():
    x = elem(AO2, (1, 1)) * elem(AO2, (2, 2))
    assert x == elem(AO2, (1, 1), (2, 2))
    # scalar action from either side
    assert 2 * x == x * 2


# -- star, counit, antipode ----------------------------------------------------


def test_star_examples():
    x = I * elem(AO2, (1, 2), (1, 1))
    assert star_element(x) == -I * elem(AO2, (1, 1), (1, 2))
    g = elem(AO2, (1, 1))
    assert star_element(g) == g
    au1 = au_star_star(1)
    u = WordElement.generator(au1, 1, 1)
    assert star_element(u) == WordElement.from_word(au1, (letter(au1, 1, 1, starred=True),))


def test_counit_examples():
    assert counit_element(elem(AO2, (1, 1), (2, 2))) == 1
    assert counit_element(elem(AO2, (1, 2))) == 0
    x = GaussianRational(3) / 2 * elem(AO2, (1, 1)) + I * elem(AO2, (1, 2), (2, 1))
    assert counit_element(x) == GaussianRational(3) / 2


def test_antipode_examples():
    assert antipode_element(elem(AO2, (1, 2))) == elem(AO2, (2, 1))
    x = elem(AO2, (1, 2), (2, 1))
    assert antipode_element(x) == x  # S(v12 v21) = S(v21) S(v12) = v12 v21
    y = elem(AO2, (1, 2), (1, 1))
    assert antipode_element(antipode_element(y)) == y
    au2 = au_star_star(2)
    u = WordElement.generator(au2, 1, 2)
    assert antipode_element(u) == WordElement.from_word(
        au2, (letter(au2, 2, 1, starred=True),)
    )


# -- coproduct ------------------------------------------------------------------


def test_coproduct_generator():
    g = elem(AO2, (1, 1))
    expected = {
        (w(AO2, (1, 1)), w(AO2, (1, 1))): GaussianRational(1),
        (w(AO2, (1, 2)), w(AO2, (2, 1))): GaussianRational(1),
    }
    assert coproduct_element(g) == expected


def test_coproduct_unit_grouplike():
    one = WordElement.one(AO2)
    assert coproduct_element(one) == {((), ()): GaussianRational(1)}


def test_coproduct_square_expansion():
    x = elem(AO2, (1, 1), (1, 1))
    direct = coproduct_element(x)
    expected = {}
    for k in (1, 2):
        for l in (1, 2):
            key = (w(AO2, (1, k), (1, l)), w(AO2, (k, 1), (l, 1)))
            expected[key] = GaussianRational(1)
    assert direct == expected
    assert len(direct) == 4


def test_coproduct_merges_terms_of_two_words_in_first_order():
    # Delta(v11 v11 v22) and Delta(v12 v11 v21) share the terms whose odd
    # legs are v1k v2k (x) vk1 vk2: 2 values of k times the 2 splits of the
    # even letter.  A difference drops them; other coefficients keep them,
    # summed, where the first word put them, and the rest of the second
    # word's terms follow in its order
    first, second = w(AO2, (1, 1), (1, 1), (2, 2)), w(AO2, (1, 2), (1, 1), (2, 1))
    d1 = coproduct_element(WordElement.from_word(AO2, first))
    d2 = coproduct_element(WordElement.from_word(AO2, second))
    shared = d1.keys() & d2.keys()
    assert len(d1) == len(d2) == 8 and len(shared) == 4
    for a, b in ((1, -1), (2, -1), (-1, 1)):
        x = WordElement(AO2, {first: a, second: b})
        assert list(x.terms) == [first, second]
        merged = {key: a * c + b * d2.get(key, 0) for key, c in d1.items()}
        merged.update((key, b * c) for key, c in d2.items() if key not in shared)
        expected = [(key, c) for key, c in merged.items() if c]
        assert list(coproduct_element(x).items()) == expected
        assert len(expected) == (8 if a == -b else 12)


def test_coassociativity_on_generators():
    for pres in (AO2, ao_star(3)):
        for i in range(1, pres.n + 1):
            for j in range(1, pres.n + 1):
                delta = coproduct_element(WordElement.generator(pres, i, j))
                left, right = _word_coassociativity_sides(pres, delta)
                assert left == right


def test_coproduct_degree_cap():
    # the cap bounds the splits made, a product of C(e + n - 1, n - 1) over
    # the symbols of each parity class: v11^2 v12 v13 v14 at the odd
    # positions and v21^2 v22 v23 v24 at the even ones over n = 4 make
    # (10 * 4**3)**2 = 409,600, above 4**8 (and below the 4**10 index choices)
    pres = ao_star(4)
    word = tuple(letter(pres, r, c) for c in (1, 1, 2, 3, 4) for r in (1, 2))
    with pytest.raises(DegreeCapError, match="409600 terms"):
        coproduct_element(WordElement.from_word(pres, word))


def test_coproduct_cap_admits_repeated_letters():
    # v11^17 over n = 2 makes 10 * 9 splits of its two parity classes,
    # although its 2**17 index choices are above the cap
    x = WordElement.from_word(AO2, tuple(letter(AO2, 1, 1) for _ in range(17)))
    delta = coproduct_element(x)
    assert len(delta) == 90
    assert _word_counit_sides(AO2, delta) == (x, x)


def test_coproduct_cap_fires_before_expanding():
    # 4**40 terms could never be enumerated: the call itself raises
    word = tuple(letter(ao_star(4), 1, 2) for _ in range(40))
    with pytest.raises(DegreeCapError):
        coproduct_legs(word, 4)
    with pytest.raises(DegreeCapError):
        coproduct_element(WordElement.from_word(ao_star(4), word))


def test_coproduct_expands_up_to_the_term_cap():
    # degree 9 over n = 2 (512 terms) was refused by the former degree-8 cap
    for word in (
        w(AO2, *[(1, 1)] * 9),
        w(AO2, (1, 2), (2, 1), (1, 1), (2, 2), (2, 1), (1, 2), (2, 2), (1, 1), (1, 2)),
    ):
        x = WordElement.from_word(AO2, word)
        assert _word_counit_sides(AO2, coproduct_element(x)) == (x, x)
    # degree 8 over n = 4 sits exactly at the cap
    word = w(ao_star(4), (1, 2), (3, 4), (2, 2), (4, 1), (1, 3), (2, 4), (3, 3), (4, 2))
    assert sum(1 for _ in coproduct_legs(word, 4)) == COPRODUCT_MAX_TERMS


def test_coproduct_matches_brute_force_expansion():
    for pres in (AO2, AH2, au_star_star(1)):
        for length in range(6):
            for word in _all_words(pres, length):
                x = WordElement.from_word(pres, word)
                assert coproduct_element(x) == ref_word_coproduct(x), (pres, word)


def test_coproduct_adds_splits_that_meet_on_one_pair():
    # the odd positions hold v11 v12 v21 v22, whose splits k = (1,2,2,1) and
    # (2,1,1,2) give the same pair of legs: their weights must add
    word = w(AO2, (1, 1), (2, 2), (1, 2), (1, 1), (2, 1), (1, 2), (2, 2))
    x = WordElement.from_word(AO2, word)
    delta = coproduct_element(x)
    assert delta == ref_word_coproduct(x)
    assert max(c.re for c in delta.values()) > 1


def test_counit_axiom_short_words():
    for length in (0, 1, 2):
        for word in _all_words(AO2, length):
            x = WordElement.from_word(AO2, word)
            assert _word_counit_sides(AO2, coproduct_element(x)) == (x, x)


# -- shared letters --------------------------------------------------------------


def _presentations_up_to_3():
    return [make(n) for make in (ao_star, ah_star, au_star_star) for n in (1, 2, 3)]


def _shared(word):
    return all(_letter(*l) is l for l in word)


def test_letter_returns_one_object_per_value():
    for pres in _presentations_up_to_3():
        for made in _all_letters(pres):
            assert letter(pres, *made) is made
    au = au_star_star(2)
    assert letter(au, 1, 2, True) is not letter(au, 1, 2)
    # identity is an implementation detail: a Letter made directly is equal
    assert Letter(1, 2, True) == letter(au, 1, 2, True) and hash(Letter(1, 2, True)) == hash(letter(au, 1, 2, True))


def test_library_letters_are_the_shared_objects():
    for pres, text in ((AO2, "v[1,2] v[2,1] v[2,2] + 2 v[1,1] v[1,2] - v[2,1]"),
                       (au_star_star(2), "u[1,2] u*[2,1] u[2,2] + i u*[1,1] u[1,2] - u[2,1]")):
        x = parse_expression(text, pres)
        assert all(map(_shared, x.terms))
        assert all(map(_shared, star_element(x).terms))
        assert all(map(_shared, antipode_element(x).terms))
        assert all(_shared(left) and _shared(right) for left, right in coproduct_element(x))


def _old_star_letter(l, pres):
    return l if pres.orthogonal else Letter(l.row, l.col, not l.starred)


def _old_antipode_letter(l, pres):
    return Letter(l.col, l.row, l.starred if pres.orthogonal else not l.starred)


def test_star_and_antipode_match_the_per_letter_definitions():
    for pres in _presentations_up_to_3():
        letters = _all_letters(pres)
        for word in [(l,) for l in letters] + [tuple(letters)]:
            x = WordElement.from_word(pres, word, 2 + I)
            assert star_element(x) == WordElement.from_word(
                pres, [_old_star_letter(l, pres) for l in reversed(word)], 2 - I)
            assert antipode_element(x) == WordElement.from_word(
                pres, [_old_antipode_letter(l, pres) for l in reversed(word)], 2 + I)


def test_a_letter_adds_one_entry_to_the_intern_table():
    before = _letter.cache_info()
    made = letter(ao_star(1000), 999, 998)
    assert _letter.cache_info().misses == before.misses + 1
    assert letter(ao_star(1000), 999, 998) is made and _letter.cache_info().misses == before.misses + 1


@pytest.fixture
def fresh_letter_memos():
    """Empty the letter table, and the memos that hold its letters, after
    the test, so that later tests see one consistent shared table again."""
    yield
    for memo in (_letter, _word_image):
        memo.cache_clear()
    for memo in (_CLASS_SPLITS, _MONOMIAL_SPLITS):
        memo.clear()


def test_a_refused_index_leaves_the_intern_table_alone(fresh_letter_memos):
    # 1.0 and True equal 1 as memo keys: had either reached the table, every
    # later v_11 would be that letter, and print as v[1.0,1]
    _letter.cache_clear()
    for row, col in ((1.0, 1), (True, 1), (1, 1.0)):
        with pytest.raises(IndexRangeError, match="is not a pair of ints"):
            letter(AO2, row, col)
    x = parse_expression("v[1,1] v[2,1]", AO2)
    assert format_word_element(x) == "v[1,1] v[2,1]"
    assert all(type(l.row) is int and type(l.col) is int for word in x.terms for l in word)


def test_the_intern_table_is_bounded(fresh_letter_memos):
    assert _letter.cache_info().maxsize == LETTER_TABLE_CAP
    pres = ao_star(1000)
    made = [letter(pres, 1 + k // 1000, 1 + k % 1000) for k in range(LETTER_TABLE_CAP + 1)]
    assert _letter.cache_info().currsize == LETTER_TABLE_CAP
    # the least recently used letter was dropped, and only stops being
    # shared: a letter made again keeps its value; the newest stays shared
    again = letter(pres, made[0].row, made[0].col)
    assert again == made[0] and again is not made[0]
    assert letter(pres, made[-1].row, made[-1].col) is made[-1]


def _memo_inputs():
    """Word and crossed elements whose coproducts meet repeated classes."""
    rng = random.Random(33)
    words = [_random_word_element(rng, pres, max_len=6, terms=3)
             for pres in (AO2, AH2, au_star_star(2), ao_star(3)) for _ in range(10)]
    crossed = [_random_crossed(rng, n, 3) for n in (1, 2, 3) for _ in range(10)]
    return words, crossed


def _coproduct_items(words, crossed):
    return ([list(coproduct_element(x).items()) for x in words]
            + [list(crossed_coproduct(x).items()) for x in crossed])


def test_cleared_split_memos_give_the_warm_answers_in_order(fresh_letter_memos):
    inputs = _memo_inputs()
    _coproduct_items(*inputs)
    warm = _coproduct_items(*inputs)
    assert len(_CLASS_SPLITS) and len(_MONOMIAL_SPLITS)
    for memo in (_CLASS_SPLITS, _MONOMIAL_SPLITS):
        memo.clear()
        assert not memo and memo.held == 0
    assert _coproduct_items(*inputs) == warm


def test_a_split_memo_holds_at_most_its_cap_of_splits():
    made = []

    def expand(cls, n):
        made.append((cls, n))
        return _class_splits(cls, n)

    memo = BoundedMemo(expand, 5)
    cube, single = (((1, 1, False), 3),), (((1, 1, False), 1),)
    assert len(memo[cube, 2]) == 4 and memo.held == 4
    # two more splits would pass the cap: answered, not stored
    assert memo[single, 2] == memo[single, 2] == _class_splits(single, 2)
    assert (single, 2) not in memo and made.count((single, 2)) == 2
    assert len(memo[single, 1]) == 1 and memo.held == 5 and len(memo) == 2
    assert memo[cube, 2] is memo[cube, 2] and made.count((cube, 2)) == 1
    memo.clear()
    assert not memo and memo.held == 0


def test_split_memos_past_their_cap_give_the_same_answers(monkeypatch, fresh_letter_memos):
    inputs = _memo_inputs()
    for memo in (_CLASS_SPLITS, _MONOMIAL_SPLITS):
        memo.clear()
    expected = _coproduct_items(*inputs)
    for memo in (_CLASS_SPLITS, _MONOMIAL_SPLITS):
        assert memo.held > 40  # so the cap below turns classes away
        memo.clear()
        monkeypatch.setattr(memo, "cap", 40)
    assert _coproduct_items(*inputs) == expected
    assert _coproduct_items(*inputs) == expected
    for memo in (_CLASS_SPLITS, _MONOMIAL_SPLITS):
        assert 0 < memo.held == sum(len(splits) for splits in memo.values()) <= 40


def _interleave(odd, even):
    word = [None] * (len(odd) + len(even))
    word[0::2], word[1::2] = odd, even
    return tuple(word)


def test_the_coproduct_cap_holds_whether_or_not_the_memo_holds_the_classes(fresh_letter_memos):
    # over n = 2 the odd class v11^4 v12^3 v21^3 v22^3 makes 5 * 4**3 = 320
    # splits and the even class v11^3 v12^3 v21^3 v22^3 makes 4**4 = 256:
    # 81,920 together, above the cap, while each fits beside twelve v11s
    odd = w(AO2, *[(1, 1)] * 4, *[(1, 2)] * 3, *[(2, 1)] * 3, *[(2, 2)] * 3)
    even = w(AO2, *[(1, 1)] * 3, *[(1, 2)] * 3, *[(2, 1)] * 3, *[(2, 2)] * 3)
    word = WordElement.from_word(AO2, _interleave(odd, even))
    message = "coproduct of a degree-25 term over n=2 expands to 81920 terms, above the cap of 65536"
    _CLASS_SPLITS.clear()
    with pytest.raises(DegreeCapError) as cold:
        coproduct_element(word)
    assert str(cold.value) == message and not _CLASS_SPLITS
    v11 = w(AO2, (1, 1))
    for helper in (_interleave(odd, v11 * 12), _interleave(v11 * 12, even)):
        coproduct_element(WordElement.from_word(AO2, helper))
    classes = [(tuple(Counter(cls).items()), 2) for cls in (odd, even)]
    assert all(key in _CLASS_SPLITS for key in classes)
    with pytest.raises(DegreeCapError) as warm:
        coproduct_element(word)
    assert str(warm.value) == message
    # a crossed monomial past the cap is never stored, and raises again
    mono = FunMonomial({(1, 2, False): 5, (3, 4, True): 4, (1, 1, False): 3, (2, 2, True): 2})
    x = CrossedElement.even(FunElement(4, {mono: 1}))
    for _ in range(2):
        with pytest.raises(DegreeCapError, match="392000 terms"):
            crossed_coproduct(x)
        assert (mono, 4) not in _MONOMIAL_SPLITS
