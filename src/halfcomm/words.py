"""Words in matrix-entry generators modulo half-commutation.

Three presentations are supported: self-adjoint generators v_ij subject to
half-commutation abc = cba (``ao-star``), the hyperoctahedral quotient where
additionally v_ij v_ik = 0 = v_ki v_ji for k != j (``ah-star``), and the
unitary flavor on generators u_ij together with their stars (``au-star-star``).

The rewrite abc -> cba exchanges the letters two positions apart and fixes the
middle one, so a congruence class is determined by the word length together
with the multisets of letters sitting in odd and in even positions.  The
canonical representative sorts each parity class ascending and interleaves
them.  ``rewrite_closure_oracle`` is the brute-force check of that fact and of
everything built on it.

Orthogonality relations are deliberately not rewrite rules here; equality
modulo them is decided through the crossed-product embedding and the exact
Haar state (see ``crossed`` and ``haar``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ClosureSizeError, DegreeCapError, IndexRangeError, PresentationError, check_count
from .scalars import ZERO, BoundedMemo, GaussianRational, SparseSum, reduce_terms

AO_STAR = "ao-star"
AH_STAR = "ah-star"
AU_STAR_STAR = "au-star-star"

_KINDS = (AO_STAR, AH_STAR, AU_STAR_STAR)

# most terms a coproduct may make: 4**8, as many as a degree-8 word of
# distinct letters over n = 4 makes
COPRODUCT_MAX_TERMS = 65_536


@dataclass(frozen=True)
class Presentation:
    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise PresentationError(f"unknown presentation kind {self.kind!r}")
        check_count(self.n, error=PresentationError)
        # an attribute, not a property: ``letter()`` reads it on every call
        object.__setattr__(self, "orthogonal", self.kind in (AO_STAR, AH_STAR))

    def __str__(self):
        return f"{self.kind}:{self.n}"


def ao_star(n: int) -> Presentation:
    return Presentation(AO_STAR, n)


def ah_star(n: int) -> Presentation:
    return Presentation(AH_STAR, n)


def au_star_star(n: int) -> Presentation:
    return Presentation(AU_STAR_STAR, n)


class Letter(NamedTuple):
    """The generator in row ``row`` and column ``col``, or its star.

    A letter is a plain value: it compares, hashes and orders as the tuple
    (row, col, starred).  The library makes each value once, through the
    ``_letter`` memo, and shares that object among every word that holds the
    letter; which object a letter is stays an implementation detail, so a
    ``Letter`` made directly works everywhere a shared one does.
    """

    row: int
    col: int
    starred: bool

    def key(self):
        return (self.row, self.col, self.starred)


# most letters ``_letter`` keeps; one presentation has 2·n² letters, so
# every letter of any n up to 181 fits
LETTER_TABLE_CAP = 65_536


@functools.lru_cache(maxsize=LETTER_TABLE_CAP)
def _letter(row, col, starred):
    """The one shared ``Letter`` of value (row, col, starred), made the first
    time it is asked for; past ``LETTER_TABLE_CAP`` letters the least
    recently used one is dropped, and stays a valid value that is only no
    longer shared with letters made after it."""
    return Letter(row, col, starred)


_SELF_ADJOINT = "orthogonal generators are self-adjoint; no starred letters"


def _check_letter(n, orthogonal, row, col, starred):
    """The one letter rule, of ``letter()`` and of ``WordElement``: int
    indices in 1..n, a bool star flag, and no star on an orthogonal letter."""
    # an index 1.0 or True would equal 1 as a memo key, and every later
    # letter of that value would share its object
    if type(row) is not int or type(col) is not int:
        raise IndexRangeError(f"letter index ({row!r},{col!r}) is not a pair of ints")
    if not (1 <= row <= n and 1 <= col <= n):
        raise IndexRangeError(f"letter index ({row},{col}) outside 1..{n}")
    if type(starred) is not bool:  # 2 would print as a star, but not equal one
        raise PresentationError(f"letter star flag {starred!r} is not a bool")
    if starred and orthogonal:
        raise PresentationError(_SELF_ADJOINT)


def letter(presentation: Presentation, row: int, col: int, starred: bool = False) -> Letter:
    """The letter v_ij (``u_ij``, or ``u*_ij`` when ``starred``) of
    ``presentation``, checked by ``_check_letter``; equal calls return the
    same shared object (see ``Letter``)."""
    _check_letter(presentation.n, presentation.orthogonal, row, col, starred)
    return _letter(row, col, starred)


# A Word is a tuple of Letters; the empty tuple is the unit.


def hc_normal_form(word):
    """Canonical representative of the half-commutation class of ``word``.

    Sorts the odd-position and even-position letters separately and
    interleaves them; a ``Letter`` orders like its ``key()``.
    """
    return _weaver((len(word) + 1) // 2, len(word) // 2)(sorted(word[0::2]) + sorted(word[1::2]))


# length pairs whose weavers ``_weaver`` keeps: every word of up to 256 letters
WEAVER_CACHE = 256


@functools.lru_cache(maxsize=WEAVER_CACHE)
def _weaver(odd, even):
    """The callable that weaves a word from its ``odd`` odd-position letters
    followed by its ``even`` even-position ones: one ``operator.itemgetter``
    per length pair, or ``tuple`` for a word of fewer than two letters, where
    an itemgetter would return a letter, not a word."""
    if odd + even < 2:
        return tuple
    return operator.itemgetter(*[i // 2 + (i % 2) * odd for i in range(odd + even)])


def _forbidden(a: Letter, b: Letter) -> bool:
    # vanishing adjacency in the hyperoctahedral quotient; symmetric in (a, b)
    return (a.row == b.row and a.col != b.col) or (a.col == b.col and a.row != b.row)


def word_has_forbidden_pair(word) -> bool:
    return any(_forbidden(a, b) for a, b in zip(word, word[1:]))


def ah_zero_test(word, presentation: Presentation) -> bool:
    """True iff some word in the half-commutation class of ``word`` contains a
    vanishing adjacent pair.

    Adjacent positions always have opposite parity, and any cross-parity pair
    of letters can be brought adjacent by resorting within its parity class,
    so it suffices to scan the two letter multisets against each other.
    """
    if presentation.kind != AH_STAR:
        raise PresentationError(f"ah_zero_test needs an {AH_STAR} presentation, got {presentation}")
    return _dead_classes(word[0::2], word[1::2])


def _dead_classes(odd, even) -> bool:
    # ``ah_zero_test`` on the word with these odd- and even-position letters
    return any(_forbidden(a, b) for a in odd for b in even)


def rewrite_closure_oracle(word, presentation: Presentation, max_size: int = 10000):
    """Breadth-first closure of ``word`` under single rewrites abc <-> cba.

    Test oracle only: exponential in principle, guarded by ``max_size``.
    """
    del presentation  # the rewrite rule is the same for every presentation
    word = tuple(word)
    seen = {word}
    frontier = [word]
    while frontier:
        fresh = []
        for w in frontier:
            for k in range(len(w) - 2):
                u = w[:k] + (w[k + 2], w[k + 1], w[k]) + w[k + 3 :]
                if u not in seen:
                    if len(seen) >= max_size:
                        raise ClosureSizeError(
                            f"rewrite closure exceeded max_size={max_size}"
                        )
                    seen.add(u)
                    fresh.append(u)
        frontier = fresh
    return seen


class WordElement(SparseSum):
    """Linear combination of words with Gaussian-rational coefficients.

    Instances are always normalized: every word is in canonical form, words
    that vanish in the ah-star quotient are dropped, like terms are merged and
    zero coefficients removed.

    An element checks its letters once, when the constructor builds it from
    outside input: each item of a word must be a ``Letter`` that passes
    ``letter()``'s own rule, ``_check_letter`` (int indices in 1..n, a bool
    star flag, no star on an orthogonal letter).  Products, stars and
    antipodes of elements hold only letters that were checked, so they go
    through ``_merge`` alone, which only renormalises.
    """

    __slots__ = ("presentation", "terms")
    SPACE = "presentation"
    MISMATCH = (PresentationError, "mixed presentations {} and {}")
    key_mul = staticmethod(operator.add)

    def __init__(self, presentation: Presentation, terms=None):
        self.presentation = presentation
        self.terms = self._reduce(terms)

    def _check_key(self, word):
        word = tuple(word)
        n = self.presentation.n
        orthogonal = self.presentation.orthogonal
        for l in word:
            if not isinstance(l, Letter):  # a plain tuple equals and hashes like one
                raise TypeError(f"a word's item must be a Letter, not {l!r}")
            _check_letter(n, orthogonal, l.row, l.col, l.starred)
        return word

    def _merge(self, pairs):
        """The terms over ``pairs`` of checked words and nonzero
        coefficients: each word is put in normal form and dropped when it
        dies in the ah-star quotient, and like words merge in the order first
        seen (``reduce_terms``)."""
        dies = self.presentation.kind == AH_STAR
        return reduce_terms((hc_normal_form(word), c) for word, c in pairs
                            if not (dies and _dead_classes(word[0::2], word[1::2])))

    @classmethod
    def one(cls, presentation):
        return cls(presentation, {(): 1})

    @classmethod
    def from_word(cls, presentation, word, coeff=1):
        return cls(presentation, {tuple(word): coeff})

    @classmethod
    def generator(cls, presentation, row, col, starred=False):
        return cls.from_word(presentation, (letter(presentation, row, col, starred),))

    def __repr__(self):
        return f"<{self.presentation}| {format_word_element(self)}>"


def star_element(x: WordElement) -> WordElement:
    """Antilinear involution: reverse words, conjugate coefficients, star
    letters (orthogonal letters are self-adjoint); each distinct letter's
    image is looked up once, as in ``antipode_element``."""
    if x.presentation.orthogonal:
        return x._like(x._merge((word[::-1], coeff.conjugate()) for word, coeff in x.terms.items()))
    image = {(row, col, starred): _letter(row, col, not starred) for row, col, starred in set().union(*x.terms)}
    return x._like(x._merge((tuple(map(image.__getitem__, reversed(word))), coeff.conjugate())
                            for word, coeff in x.terms.items()))


def antipode_element(x: WordElement) -> WordElement:
    """Antipode: anti-multiplicative, transposes indices (and stars unitary
    letters), linear on coefficients.  The image of each distinct letter of
    ``x`` is looked up in ``_letter`` once, not once per occurrence."""
    unitary = not x.presentation.orthogonal
    image = {(row, col, starred): _letter(col, row, starred != unitary) for row, col, starred in set().union(*x.terms)}
    return x._like(x._merge((tuple(map(image.__getitem__, reversed(word))), coeff)
                            for word, coeff in x.terms.items()))


def counit_element(x: WordElement) -> GaussianRational:
    total = ZERO
    for word, coeff in x.terms.items():
        if all(l.row == l.col for l in word):
            total = total + coeff
    return total


def _check_coproduct_cap(degree, n, terms):
    if terms > COPRODUCT_MAX_TERMS:
        raise DegreeCapError(
            f"coproduct of a degree-{degree} term over n={n} expands to {terms} terms, "
            f"above the cap of {COPRODUCT_MAX_TERMS}"
        )


def _symbol_splits(r, c, f, e, n):
    """The (left, right, weight) splits of the symbol (r, c, f) to the power e.

    A composition (e_1..e_n) of e, drawn as the sorted multiset of summation
    indices, gives (r, k, f)**e_k on the left and (k, c, f)**e_k on the
    right, both sorted, with weight multinomial(e; e_1..e_n).
    """
    out = []
    for ks in itertools.combinations_with_replacement(range(1, n + 1), e):
        weight = math.factorial(e)
        for ek in Counter(ks).values():
            weight //= math.factorial(ek)
        out.append((tuple(_letter(r, k, f) for k in ks), tuple(_letter(k, c, f) for k in ks), weight))
    return out


def _class_splits(counts, n):
    """The generator rule on one class of commuting symbols, by multiplicity.

    ``counts`` holds ``((row, col, flag), e)`` pairs, each expanded by
    ``_symbol_splits``.  Returns the ``((left, right), weight)`` items, in
    the order of their first split, with each leg a sorted tuple of
    ``Letter``s; distinct splits of several symbols can meet on one pair
    (u11 u12 u21 u22 over n = 2 does), so their weights add.
    """
    options = {((), ()): 1}
    for (r, c, f), e in counts:
        splits = _symbol_splits(r, c, f, e, n)
        grown = {}
        for (left, right), w in options.items():
            for sl, sr, sw in splits:
                key = (left + sl, right + sr)
                grown[key] = grown.get(key, 0) + w * sw
        options = grown
    out = {}
    legs = {}  # equal legs share one tuple, which halves what a memo holds
    for (left, right), w in options.items():
        left, right = tuple(sorted(left)), tuple(sorted(right))
        key = (legs.setdefault(left, left), legs.setdefault(right, right))
        out[key] = out.get(key, 0) + w
    return tuple(out.items())


# most splits one split memo holds over all its classes: as many as one
# coproduct may make.  Full of legs of eight letters, words' memo holds
# about 9.5 MB and crossed's about 14 MB (tracemalloc, Python 3.11)
SPLIT_MEMO_CAP = COPRODUCT_MAX_TERMS


@functools.lru_cache(maxsize=SPLIT_MEMO_CAP)
def _split_count(cls, n):
    """The splits ``_class_splits`` makes of ``cls`` before equal pairs
    merge: C(e + n - 1, n - 1) compositions per symbol of multiplicity e.
    Cached, so that the cap is checked on a memo hit without counting
    again."""
    return math.prod(math.comb(e + n - 1, n - 1) for _sym, e in cls)


# The splits of the parity classes of words, made the first time a class
# is asked for: classes are small multisets of letters, so they recur
# across the terms of one element, across elements and across fresh
# inputs.  On the benchmark's ``symbolic`` word coproducts with a new seed
# every round, it answered 87% of 3,868 lookups over 40 rounds (94% in the
# 40th), then held 502 classes of 6,690 splits, and rounds 20-40 took 0.73
# times as long as without it (median of 6 alternated processes, 2-vCPU
# VM).
_CLASS_SPLITS = BoundedMemo(_class_splits, SPLIT_MEMO_CAP)


def coproduct_splits(classes, n, memo=_CLASS_SPLITS):
    """The generator rule Delta(v_ij) = sum_k v_ik (x) v_kj on a term whose
    symbols commute within each of ``classes``, expanded by multiplicities.

    Each class is a tuple of ``((row, col, flag), multiplicity)`` pairs: a
    word has two, its odd and its even positions (``hc_normal_form``), a
    crossed monomial one.  Returns one tuple of ``((left, right), weight)``
    items per class, from ``memo`` (see ``_class_splits`` for the default
    memo's legs); a term of the coproduct picks one item from each, and over
    all picks the weights add up to the ``n ** degree`` terms of the
    term-by-term expansion, one per choice of the summation indices.  The
    splits made are the compositions of each symbol's multiplicity e into n
    parts, C(e + n - 1, n - 1) of them; raises ``DegreeCapError`` before
    expanding anything when their product over all symbols exceeds
    ``COPRODUCT_MAX_TERMS``, whether or not ``memo`` holds the classes.
    """
    keys = [(cls, n) for cls in classes]
    terms = 1
    for key in keys:
        terms *= _split_count(*key)
    if terms > COPRODUCT_MAX_TERMS:
        _check_coproduct_cap(sum(e for cls in classes for _sym, e in cls), n, terms)
    return [memo[key] for key in keys]


def _runs(letters):
    """``tuple(Counter(letters).items())`` for sorted ``letters``, in one
    pass: each letter with its multiplicity, in order."""
    out = []
    prev, k = None, 0
    for l in letters:
        if l == prev:
            k += 1
        else:
            if k:
                out.append((prev, k))
            prev, k = l, 1
    if k:
        out.append((prev, k))
    return tuple(out)


def coproduct_element(x: WordElement):
    """Coproduct as a dict {(left word, right word): coefficient}.

    The generator rule, stars preserved, expanded by ``coproduct_splits`` over
    the odd- and even-position letters of each word; both legs come out in
    normal form, and terms whose legs die in the quotient are dropped.  The
    dict is filled in one pass: the terms of one word have distinct keys, and
    legs are as long as their word, so a term can meet an earlier one only
    when an earlier word has its length; zero sums are dropped at the end, and
    keys keep the order of their first term.  It is not ``reduce_terms``,
    which looks every key up: most elements of the benchmark's ``symbolic``
    coproducts hold two words of different lengths, and there that took
    1.35-1.9 times as long (in process, seeds 1-3, 2-vCPU VM).
    """
    pres = x.presentation
    ah = pres.kind == AH_STAR
    out = {}
    lengths = set()  # the lengths of the words expanded so far
    cancelled = False
    for word, coeff in x.terms.items():
        odd, even = coproduct_splits((_runs(word[0::2]), _runs(word[1::2])), pres.n)
        weave = _weaver((len(word) + 1) // 2, len(word) // 2)
        fresh = len(word) not in lengths
        lengths.add(len(word))
        scaled = {}  # coeff times each weight, computed once
        for (lo, ro), wo in odd:
            for (le, re), we in even:
                if ah and (_dead_classes(lo, le) or _dead_classes(ro, re)):
                    continue
                weight = wo * we
                c = scaled.get(weight)
                if c is None:
                    c = scaled[weight] = coeff * weight
                key = (weave(lo + le), weave(ro + re))
                if not fresh:
                    prev = out.get(key)
                    if prev is not None:
                        c = prev + c
                        cancelled = cancelled or not c
                out[key] = c
    return {key: c for key, c in out.items() if c} if cancelled else out


def format_word(word, symbol: str = "v") -> str:
    if not word:
        return "1"
    parts = []
    for l in word:
        name = f"{symbol}*" if l.starred else symbol
        parts.append(f"{name}[{l.row},{l.col}]")
    return " ".join(parts)


def _term_strings(items):
    """Render a list of (coefficient, body-or-None) pairs as a signed sum."""
    rendered = []
    for coeff, body in items:
        if coeff.im == 0:
            negative = coeff.re < 0
            mag = abs(coeff.re)
            coeff_text = None if mag == 1 else str(mag)
        elif coeff.re == 0:
            negative = coeff.im < 0
            mag = abs(coeff.im)
            coeff_text = "i" if mag == 1 else f"{mag} i"
        else:
            negative = False
            coeff_text = f"({coeff})"
        text = " ".join(p for p in (coeff_text, body) if p) or "1"
        rendered.append((negative, text))
    if not rendered:
        return "0"
    first_neg, first = rendered[0]
    out = ("-" if first_neg else "") + first
    for negative, text in rendered[1:]:
        out += (" - " if negative else " + ") + text
    return out


def format_word_element(x: WordElement) -> str:
    symbol = "v" if x.presentation.orthogonal else "u"
    items = []
    for word in sorted(x.terms, key=lambda w: (len(w), w)):
        body = format_word(word, symbol) if word else None
        items.append((x.terms[word], body))
    return _term_strings(items)
