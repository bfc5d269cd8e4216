"""Crossed product of coordinate polynomials by the order-two conjugation flip.

Elements are pairs (f0, f1) standing for f0 + f1*s, where f0, f1 are
commutative *-polynomials in coordinate symbols u_ij and their conjugates
ubar_ij, and s is the flip that exchanges the two symbol families.  A
polynomial maps monomials, each the sorted tuple of its (symbol, exponent)
pairs, to coefficients.  The product twists the right factor of the odd part:

    (f + g s)(f' + g' s) = (f f' + g bar(g')) + (f g' + g bar(f')) s

The symbols are kept free: unitarity (and any subgroup relations) are not
quotiented here.  Equality modulo them is decided analytically, exactly via
the Weingarten state in ``haar`` for the full unitary group, or by sampling
through ``groups`` for the other models.
"""

from __future__ import annotations

import functools
import math

from .errors import DimensionMismatchError, IndexRangeError, check_count
from .scalars import ZERO, GaussianRational, SparseSum, _reduced, reduce_terms
from .words import AU_STAR_STAR, SplitMemo, WordElement, _class_splits, _term_strings, coproduct_splits

# A symbol is (row, col, bar); bar=True marks the conjugate coordinate.


class FunMonomial(tuple):
    """Commutative monomial in coordinate symbols: the tuple of its (symbol,
    exponent) pairs, sorted, with positive exponents, so it hashes and
    compares as that tuple does, in C.  The constructor sums the exponents of
    a repeated symbol and rejects one that is negative or not an ``int``, and
    a symbol that is not ``(row, col, bar)`` with ``int`` indices and a
    ``bool`` bar (a ``Letter`` is one), since ``(1, 2, 'x')`` or
    ``(1.0, 2, False)`` would print like a symbol and hash like another.
    ``mul``, ``bar`` and ``transpose`` build their results with
    ``_monomial``, without validating again.  They keep indices in range: a
    product has only its factors' symbols, and bar and transpose permute
    (row, col, bar).  Since Q(i) has no zero divisors, the product of two
    terms with nonzero coefficients is again a term in normal form with a
    nonzero coefficient (see ``FunElement``).  The constant monomial is the
    empty tuple, which is falsy: test ``degree``, not truth.
    """

    __slots__ = ()

    def __new__(cls, exps=()):
        items = exps.items() if isinstance(exps, dict) else exps
        summed = {}
        for sym, e in items:
            if not (isinstance(sym, tuple) and len(sym) == 3
                    and type(sym[0]) is int and type(sym[1]) is int and type(sym[2]) is bool):
                raise ValueError(f"symbol {sym!r} is not (row, col, bar) with int indices and a bool bar")
            if type(e) is not int:
                raise ValueError(f"exponent {e!r} on {sym} is not an int")
            if e < 0:
                raise ValueError(f"negative exponent on {sym}")
            if e:
                summed[sym] = summed.get(sym, 0) + e
        return tuple.__new__(cls, sorted(summed.items()))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self)

    def symbols(self):
        """Symbols with multiplicity, as a flat list."""
        out = []
        for sym, e in self:
            out.extend([sym] * e)
        return out

    def mul(self, other: "FunMonomial") -> "FunMonomial":
        """The product, merging the two sorted pair tuples in one pass."""
        a, b = self, other
        la, lb = len(a), len(b)
        if not la:
            return other
        if not lb:
            return self
        out = []
        i = j = 0
        while i < la and j < lb:
            (sa, ea), (sb, eb) = a[i], b[j]
            if sa < sb:
                out.append(a[i])
                i += 1
            elif sb < sa:
                out.append(b[j])
                j += 1
            else:
                out.append((sa, ea + eb))
                i += 1
                j += 1
        return _monomial(tuple(out) + a[i:] + b[j:])

    def bar(self) -> "FunMonomial":
        # flipping bar keeps the order of the cells (i, j) and swaps the two
        # symbols of a cell that holds both
        out = []
        last_i = last_j = 0  # indices start at 1
        for (i, j, b), e in self:
            if b and i == last_i and j == last_j:
                out.insert(-1, ((i, j, False), e))
            else:
                out.append(((i, j, not b), e))
                last_i, last_j = i, j
        return _monomial(out)

    def transpose(self) -> "FunMonomial":
        return _monomial(sorted([((j, i, b), e) for (i, j, b), e in self]))

    def is_diagonal(self) -> bool:
        return all(i == j for (i, j, _b), _e in self)

    def __repr__(self):
        return f"FunMonomial({tuple.__repr__(self)})"


def _monomial(exps) -> FunMonomial:
    """The monomial over ``(symbol, exponent)`` pairs that are already sorted
    and positive."""
    return tuple.__new__(FunMonomial, exps)


MONO_ONE = FunMonomial()


def format_monomial(mono: FunMonomial) -> str:
    parts = []
    for (i, j, b) in mono.symbols():
        name = "u*" if b else "u"
        parts.append(f"{name}[{i},{j}]")
    return " ".join(parts) or "1"


class FunElement(SparseSum):
    """Polynomial in the coordinate symbols over dimension n; always reduced.

    The validating constructor rejects a dimension that is not a positive
    ``int`` with ``ValueError`` (``check_count``), and a key that is not a
    ``FunMonomial`` with ``TypeError``: a plain tuple of its pairs equals
    and hashes like it.
    Products (merged by ``SparseSum._merge``, which is ``reduce_terms``
    here), ``bar``, ``star``, the crossed antipode and differences of
    reduced elements are built with ``_like``, not the validating
    constructor.  That is sound for two reasons.  A product of two monomials
    over n, and the bar or transpose of one, is a monomial over n (see
    ``FunMonomial``), so every key stays normal and in range.  And Q(i) has
    no zero divisors, so a product of two nonzero coefficients is nonzero;
    only a sum of them can vanish, and ``reduce_terms`` drops those.
    """

    __slots__ = ("n", "terms")
    SPACE = "n"
    MISMATCH = (DimensionMismatchError, "dimensions {} and {} differ")
    key_mul = staticmethod(FunMonomial.mul)

    def __init__(self, n: int, terms=None):
        self.n = check_count(n)
        self.terms = self._reduce(terms)

    def _check_key(self, mono):
        if type(mono) is not FunMonomial:
            raise TypeError(f"a term's key must be a FunMonomial, not {type(mono).__name__}")
        n = self.n
        for (i, j, _b), _e in mono:
            if not (1 <= i <= n and 1 <= j <= n):
                raise IndexRangeError(f"symbol index ({i},{j}) outside 1..{n}")
        return mono

    @classmethod
    def one(cls, n):
        return cls(n, {MONO_ONE: 1})

    @classmethod
    def coordinate(cls, n, i, j, bar=False):
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexRangeError(f"coordinate index ({i},{j}) outside 1..{n}")
        return cls(n, {FunMonomial({(i, j, bar): 1}): 1})

    def bar(self) -> "FunElement":
        """The flip s: exchange u and ubar symbols, coefficients untouched."""
        # bar is a bijection on monomials, so no two terms merge
        return self._like({m.bar(): c for m, c in self.terms.items()})

    def star(self) -> "FunElement":
        return self._like({m.bar(): c.conjugate() for m, c in self.terms.items()})

    def counit(self) -> GaussianRational:
        total = ZERO
        for mono, coeff in self.terms.items():
            if mono.is_diagonal():
                total = total + coeff
        return total

    def __repr__(self):
        return f"<fun n={self.n}| {format_fun_element(self)}>"


class CrossedElement:
    """Pair (f0, f1) representing f0 + f1*s; the grading is structural."""

    __slots__ = ("f0", "f1", "n")

    def __init__(self, f0: FunElement, f1: FunElement):
        if f0.n != f1.n:
            raise DimensionMismatchError(f"components over n={f0.n} and n={f1.n}")
        self.f0 = f0
        self.f1 = f1
        self.n = f0.n

    @classmethod
    def zero(cls, n):
        return cls(FunElement.zero(n), FunElement.zero(n))

    @classmethod
    def one(cls, n):
        return cls(FunElement.one(n), FunElement.zero(n))

    @classmethod
    def even(cls, f: FunElement):
        return cls(f, FunElement.zero(f.n))

    @classmethod
    def odd(cls, f: FunElement):
        return cls(FunElement.zero(f.n), f)

    @classmethod
    def flip(cls, n):
        """The group-like element s itself."""
        return cls.odd(FunElement.one(n))

    @classmethod
    def generator(cls, n, i, j):
        """The self-adjoint generator u_ij * s."""
        return cls.odd(FunElement.coordinate(n, i, j))

    @property
    def is_zero(self):
        return self.f0.is_zero and self.f1.is_zero

    def __add__(self, other):
        if not isinstance(other, CrossedElement):
            return NotImplemented
        return CrossedElement(self.f0 + other.f0, self.f1 + other.f1)

    def __sub__(self, other):
        if not isinstance(other, CrossedElement):
            return NotImplemented
        return CrossedElement(self.f0 - other.f0, self.f1 - other.f1)

    def __neg__(self):
        return CrossedElement(-self.f0, -self.f1)

    def __mul__(self, other):
        if isinstance(other, CrossedElement):
            return crossed_mul(self, other)
        try:
            c = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return CrossedElement(self.f0 * c, self.f1 * c)

    def __rmul__(self, other):
        try:
            c = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self * c

    def __eq__(self, other):
        if not isinstance(other, CrossedElement):
            return NotImplemented
        return self.n == other.n and self.f0 == other.f0 and self.f1 == other.f1

    def star(self):
        return crossed_star(self)

    def __repr__(self):
        return f"<crossed n={self.n}| {format_crossed_element(self)}>"


def crossed_mul(x: CrossedElement, y: CrossedElement) -> CrossedElement:
    if x.n != y.n:
        raise DimensionMismatchError(f"dimensions {x.n} and {y.n} differ")

    def half(f, g, f_odd, g_odd):
        # f g + f_odd bar(g_odd); an empty product is neither formed nor added
        out = f * g if f.terms and g.terms else None
        if f_odd.terms and g_odd.terms:
            twisted = f_odd * g_odd.bar()
            out = twisted if out is None else out + twisted
        return FunElement.zero(x.n) if out is None else out

    return CrossedElement(half(x.f0, y.f0, x.f1, y.f1), half(x.f0, y.f1, x.f1, y.f0))


def crossed_star(x: CrossedElement) -> CrossedElement:
    # (f + g s)^* = f^* + s g^* = f^* + bar(g)^* s; bar(g)^* bars each
    # monomial of g twice, so it keeps them and conjugates the coefficients
    f1 = x.f1
    return CrossedElement(x.f0.star(), f1._like({m: c.conjugate() for m, c in f1.terms.items()}))


def crossed_antipode(x: CrossedElement) -> CrossedElement:
    # On the even part S transposes and bars every symbol; on the odd part the
    # extra flip cancels the bar, leaving the plain transpose.  Both are
    # bijections on monomials over n, so no two terms merge.
    f0, f1 = x.f0, x.f1
    return CrossedElement(f0._like({m.transpose().bar(): c for m, c in f0.terms.items()}),
                          f1._like({m.transpose(): c for m, c in f1.terms.items()}))


def crossed_counit(x: CrossedElement) -> GaussianRational:
    return x.f0.counit() + x.f1.counit()


def _monomial_splits(mono, n) -> tuple:
    """``words._class_splits`` on the one class of ``mono``, with both legs
    made into monomials; equal legs share one monomial object."""
    made = {}

    def monomial(leg):
        out = made.get(leg)
        if out is None:
            # a leg is sorted, so its symbols come in order
            out = made[leg] = _monomial([(sym, leg.count(sym)) for sym in dict.fromkeys(leg)])
        return out

    return tuple(((monomial(left), monomial(right)), weight) for (left, right), weight in _class_splits(mono, n))


# The splits of monomials, legs made.  On the benchmark's ``symbolic``
# crossed coproducts with a new seed every round, it answered 96% of 2,854
# lookups over 40 rounds (all of them from the 20th), then held 120
# monomials of 816 splits, and rounds 20-40 took 0.23 times as long as
# without it (median of 6 alternated processes, 2-vCPU VM).
_MONOMIAL_SPLITS = SplitMemo(_monomial_splits)


def crossed_coproduct(x: CrossedElement):
    """Coproduct as a dict {((mono, parity), (mono, parity)): coefficient}.

    The generator rule, expanded by ``words.coproduct_splits`` over the
    exponents of each monomial, all of whose symbols commute: a symbol of
    exponent e splits by the compositions of e with multinomial weights.  The
    legs are monomials whose symbols are ``Letter``s, equal and hash-equal to
    the plain (row, col, bar) triples, made once per monomial and n in the
    ``_MONOMIAL_SPLITS`` memo; both tensor legs inherit the parity of the
    term they came from.  Like terms merge by ``reduce_terms``, in the order
    first seen.
    """

    def terms():
        for parity, f in ((0, x.f0), (1, x.f1)):
            for mono, coeff in f.terms.items():
                (splits,) = coproduct_splits((mono,), x.n, _MONOMIAL_SPLITS)
                scaled = {}  # coeff times each weight, computed once
                for (left, right), weight in splits:
                    c = scaled.get(weight)
                    if c is None:
                        c = scaled[weight] = coeff * weight
                    yield ((left, parity), (right, parity)), c

    return reduce_terms(terms())


def coinvariant_test(x: CrossedElement) -> bool:
    """True iff x is coinvariant, (id (x) q) Delta(x) = x (x) 1, for the
    quotient q onto the order-two grading.

    q keeps only the flip grading, so the coinvariants are exactly the even
    part and the test reads it off the grading: f1 = 0.  The ``sequence``
    verify suite checks this against the coproduct route.
    """
    return x.f1.is_zero


def pun_generator(n: int, i: int, j: int, k: int, l: int) -> FunElement:
    """The even-part generator w_[ij,kl] = u_ik * ubar_jl."""
    return FunElement.coordinate(n, i, k) * FunElement.coordinate(n, j, l, bar=True)


_POWERS_OF_I = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _run_splits(row, col, odd, e, q, n) -> tuple:
    """The expansion of one unitary run over dimension 2n, as
    ``(plain, shifted, re, im)`` tuples.

    A run of e commuting letters (row, col) at positions of parity ``odd``,
    p = e - q plain and q starred, expands to sum_k w_k x^(e-k) x'^k, with
    x = (row, col, odd), the shifted symbol x' = (row + n, col, odd), and
    w_k = sum_(a+b=k) C(p,a) C(q,b) i^(a-b): a shifted plain letter brings i
    and a shifted starred one -i.  ``plain`` and ``shifted`` are the
    exponent pieces of x and x' (empty at exponent 0), and (re, im) is w_k;
    w_0 = 1, and w_k = 0 is left out.  It is not memoised: it runs only
    when ``_word_image`` misses.
    """
    p = e - q
    sym, shifted = (row, col, odd), (row + n, col, odd)
    out = []
    for k in range(e + 1):
        re = im = 0
        for a in range(max(0, k - q), min(p, k) + 1):
            c = math.comb(p, a) * math.comb(q, k - a)
            r, s = _POWERS_OF_I[(2 * a - k) % 4]
            re += c * r
            im += c * s
        if re or im:
            out.append((((sym, e - k),) if k < e else (), ((shifted, k),) if k else (), re, im))
    return tuple(out)


@functools.lru_cache(maxsize=4096)
def _word_image(word, n, unitary) -> tuple:
    """The image of one word under ``embed_pi``, as ``(monomial, re, im)``
    tuples: the monomial times the weight re + im i.

    Letters of one class, (row, col, position parity), commute in the image.
    A word in normal form has each parity class sorted (``hc_normal_form``),
    so a class is one run of equal (row, col) there, and one pass over the
    word reads the runs in symbol order; its letters are in range, as a
    ``WordElement`` checks them when it is made.  An orthogonal word is one
    monomial, a run's symbol to the run's length, of weight 1.

    A unitary-presentation letter expands over dimension 2n: u_ij to
    x_ij + i*x_(n+i)j and its star to x_ij - i*x_(n+i)j.  A run of p plain
    and q starred letters splits by its count of shifted letters
    (``_run_splits``), so a word makes prod(e_run + 1) terms at most, not
    2^k, in the product order of its runs, and distinct terms; a shifted row
    exceeds n, so the shifted pieces sort after the plain ones.

    The image depends on n only through the shifted rows, and a unitary
    word with no starred letter equals the orthogonal word of its letters,
    so n and ``unitary`` are part of the key.  The cache keeps at most
    4,096 entries; a repeated word returns the same monomial objects, so
    dicts that meet them again match keys by identity.
    """
    runs = []  # (symbol, length, starred letters) of each run
    for odd in (False, True):
        letters = word[odd::2]
        end, size = 0, len(letters)
        while end < size:
            first = end
            row, col, q = letters[end]
            end += 1
            while end < size and letters[end][0] == row and letters[end][1] == col:
                q += letters[end][2]
                end += 1
            runs.append(((row, col, odd), end - first, q))
    runs.sort()
    if not unitary:
        return ((_monomial(tuple([(sym, e) for sym, e, _q in runs])), 1, 0),)
    terms = (((), (), 1, 0),)  # (plain pieces, shifted pieces, weight re, weight im)
    for k, ((row, col, odd), e, q) in enumerate(runs):
        splits = _run_splits(row, col, odd, e, q, n)
        # the first run's splits times the unit term are the splits themselves
        terms = splits if not k else [
            (plain + more, shifted + more_shifted, re * r - im * s, re * s + im * r)
            for plain, shifted, re, im in terms
            for more, more_shifted, r, s in splits
        ]
    return tuple((_monomial(plain + shifted), re, im) for plain, shifted, re, im in terms)


def embed_pi(x: WordElement) -> CrossedElement:
    """The *-homomorphism sending the generator v_ij to u_ij * s.

    Since s f = bar(f) s, a word v_a1 v_a2 ... v_ak goes to the single
    monomial u_a1 ubar_a2 u_a3 ... s^k: letters at odd positions stay plain,
    letters at even positions are conjugated, and the term is odd iff k is.
    A unitary-presentation letter expands over dimension 2n.  Each word's
    image comes from the ``_word_image`` cache, and this only scales its
    weights by the word's coefficient, integer arithmetic on (a + b i) / d,
    and sums them per part.  Distinct orthogonal normal forms have distinct
    letter multisets per parity, so their images are distinct; unitary
    words that differ only in their stars can meet in one monomial.
    """
    n = x.presentation.n
    unitary = x.presentation.kind == AU_STAR_STAR
    pairs = ([], [])  # (monomial, coefficient) of the even and the odd part
    for word, coeff in x.terms.items():
        out = pairs[len(word) % 2]
        a, b, d = coeff.a, coeff.b, coeff.d
        scaled = {(1, 0): coeff}  # the coefficient times each weight, once
        for mono, re, im in _word_image(word, n, unitary):
            c = scaled.get((re, im))
            if c is None:
                c = scaled[re, im] = _reduced(a * re - b * im, a * im + b * re, d)
            out.append((mono, c))
    space = 2 * n if unitary else n
    parts = []
    for items in pairs:
        part = dict(items)
        if len(part) < len(items):  # two words met in a monomial, whose sum may vanish
            part = reduce_terms(items)
        parts.append(FunElement._over(space, part))
    return CrossedElement(*parts)


def _display_items(f: FunElement, flip=False):
    """(coefficient, body) pairs of f in display order; ``flip`` appends s."""
    items = []
    for mono in sorted(f.terms, key=lambda m: (m.degree, m)):
        body = format_monomial(mono) if mono.degree else None
        if flip:
            body = f"{body} s" if body else "s"
        items.append((f.terms[mono], body))
    return items


def format_fun_element(f: FunElement) -> str:
    return _term_strings(_display_items(f))


def format_crossed_element(x: CrossedElement) -> str:
    return _term_strings(_display_items(x.f0) + _display_items(x.f1, flip=True))
