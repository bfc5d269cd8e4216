"""Shared helpers for the test modules, and the brute-force references that
only the tests read: each reference is defined here once, and no test
module imports another.  The references that ``verify`` also needs (random
draws, counit sides, the witness value, every letter and word of a
presentation) live in ``halfcomm.verify``, and the tests import them from
there."""

import itertools
from collections import Counter

from halfcomm.crossed import CrossedElement, FunElement, FunMonomial, crossed_mul
from halfcomm.scalars import GaussianRational, I, reduce_terms
from halfcomm.verify import _random_fun
from halfcomm.words import Letter, WordElement, _check_coproduct_cap


def u(n, i, j):
    return FunElement.coordinate(n, i, j)


def ub(n, i, j):
    return FunElement.coordinate(n, i, j, bar=True)


# References for the lean exact path: each result is rebuilt term by term
# through the validating constructor ``FunElement(n, pairs)``, with monomials
# made from plain exponent dicts, never by ``FunMonomial.mul`` or ``bar``.


def ref_monomial(*monos, flip=False):
    """The product of ``monos`` (each bar-flipped when ``flip``), via the constructor."""
    exps = {}
    for m in monos:
        for (i, j, b), e in m:
            sym = (i, j, b != flip)
            exps[sym] = exps.get(sym, 0) + e
    return FunMonomial(exps)


def ref_mul(f, g, twist=False):
    """f g, or f bar(g) when ``twist``."""
    return FunElement(
        f.n,
        [(ref_monomial(m1, ref_monomial(m2, flip=twist)), c1 * c2) for m1, c1 in f.terms.items() for m2, c2 in g.terms.items()],
    )


def ref_sum(f, g, sign=1):
    """f + g, or f - g when ``sign`` is -1."""
    return FunElement(f.n, [*f.terms.items(), *((m, c * sign) for m, c in g.terms.items())])


def ref_bar(f, conjugate=False):
    """bar(f), or f^* when ``conjugate``."""
    return FunElement(f.n, [(ref_monomial(m, flip=True), c.conjugate() if conjugate else c) for m, c in f.terms.items()])


def ref_crossed_mul(x, y):
    """(f + g s)(f' + g' s) = (f f' + g bar(g')) + (f g' + g bar(f')) s."""
    return CrossedElement(
        ref_sum(ref_mul(x.f0, y.f0), ref_mul(x.f1, y.f1, twist=True)),
        ref_sum(ref_mul(x.f0, y.f1), ref_mul(x.f1, y.f0, twist=True)),
    )


def ref_crossed_star(x):
    """(f + g s)^* = f^* + bar(g)^* s."""
    return CrossedElement(ref_bar(x.f0, conjugate=True), ref_bar(ref_bar(x.f1), conjugate=True))


def assert_pair_tuple(m):
    """m is a monomial that equals, and hashes like, the tuple of its pairs."""
    assert type(m) is FunMonomial and m == tuple(m) and hash(m) == hash(tuple(m)), m


def assert_reduced(f):
    """f's terms are what the constructor makes: sorted positive exponents
    over indices 1..n, equal and hash-equal to the tuple of its pairs, and
    nonzero Gaussian-rational coefficients."""
    for m, c in f.terms.items():
        assert_pair_tuple(m)
        assert list(m) == sorted(m), m
        assert all(type(e) is int and e > 0 and 1 <= i <= f.n and 1 <= j <= f.n for (i, j, _b), e in m), m
        assert type(c) is GaussianRational and c, (m, c)


def lean_cases(rng, n, count, max_degree=3):
    """Pairs of random polynomials over n with Gaussian coefficients, and
    for each pair also (f + g, f - g), whose product f^2 - g^2 loses its
    cross terms, so that sums of products cancel."""
    for _ in range(count):
        f, g = _random_fun(rng, n, max_degree, terms=3), _random_fun(rng, n, max_degree, terms=3)
        yield f, g
        yield f + g, f - g


def crossed_parities(f, g):
    """Crossed elements from f and g: both parts, the even and the odd part."""
    return CrossedElement(f, g), CrossedElement.even(f), CrossedElement.odd(g)


def coproduct_legs(symbols, n):
    """The generator rule Delta(v_ij) = sum_k v_ik (x) v_kj, expanded term by term.

    The brute-force reference for ``words.coproduct_splits``.  ``symbols``
    is a sequence of ``(row, col, flag)`` triples: a word's letters or a
    monomial's ``symbols()``.  Returns an iterator over the
    ``n ** len(symbols)`` ``(left, right)`` pairs, one per choice of the
    summation indices; each leg is a tuple of ``Letter``s in the order of
    ``symbols``, and the flag rides along.  Raises ``DegreeCapError`` before
    expanding anything when that term count exceeds
    ``words.COPRODUCT_MAX_TERMS``.
    """
    _check_coproduct_cap(len(symbols), n, n ** len(symbols))
    choices = [[(Letter(r, k, f), Letter(k, c, f)) for k in range(1, n + 1)] for r, c, f in symbols]
    # zip(*picks) transposes the picked pairs into the two legs; it is empty
    # only for the empty word, whose one term is the unit on both sides
    return (tuple(zip(*picks)) or ((), ()) for picks in itertools.product(*choices))


def ref_word_coproduct(x):
    """Every one of the n**L terms of ``coproduct_legs``, legs normalized as words."""
    pres = x.presentation

    def pairs():
        for word, coeff in x.terms.items():
            for left, right in coproduct_legs(word, pres.n):
                for a in WordElement.from_word(pres, left).terms:
                    for b in WordElement.from_word(pres, right).terms:
                        yield (a, b), coeff

    return reduce_terms(pairs())


def ref_crossed_coproduct(x):
    """Every one of the n**degree terms of ``coproduct_legs``, legs counted into monomials."""

    def pairs():
        for parity, f in ((0, x.f0), (1, x.f1)):
            for mono, coeff in f.terms.items():
                for left, right in coproduct_legs(mono.symbols(), x.n):
                    yield ((FunMonomial(Counter(left)), parity), (FunMonomial(Counter(right)), parity)), coeff

    return reduce_terms(pairs())


def embed_by_products(x):
    """Reference image of ``embed_pi``: the iterated crossed product of the
    generator images.

    Unitary letters map to x_ij s +- i x_(n+i)j s over dimension 2n.
    """
    n = x.presentation.n
    unitary = not x.presentation.orthogonal
    dim = 2 * n if unitary else n
    out = CrossedElement.zero(dim)
    for word, coeff in x.terms.items():
        elem = CrossedElement.one(dim)
        for l in word:
            image = CrossedElement.generator(dim, l.row, l.col)
            if unitary:
                image = image + (-I if l.starred else I) * CrossedElement.generator(dim, l.row + n, l.col)
            elem = crossed_mul(elem, image)
        out = out + coeff * elem
    return out
