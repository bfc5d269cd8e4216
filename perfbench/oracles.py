"""Output oracles: each decides whether one operation's answer is right.

Every oracle runs outside the timed region and leans on a route that is
independent of the code under test where one exists: rewrite closures for
normal forms, sampled group points for equality and Haar values, the counit
identity for coproducts, dimension counts for fusion, and an involution for
the Hopf maps.
"""

from __future__ import annotations

import math

import numpy as np

from halfcomm.crossed import MONO_ONE, CrossedElement, FunElement
from halfcomm.expressions import parse_expression
from halfcomm.fusion import SU2Fusion, TorusFusion, UnFusion
from halfcomm.groups import evaluate_fun_batch, matrix_model_eval, parse_model, sample_batch
from halfcomm.haar import mc_integral
from halfcomm.scalars import GaussianRational
from halfcomm.words import (
    AH_STAR,
    WordElement,
    antipode_element,
    counit_element,
    rewrite_closure_oracle,
    star_element,
    word_has_forbidden_pair,
)

MC_CHECK_SAMPLES = 20000
MC_CHECK_SIGMAS = 6.0


def _word_order(word):
    return [l.key() for l in word]


def closure_canonical(terms, presentation):
    """Canonical dict of a word combination computed by brute force.

    Each word is replaced by the least word of its rewrite closure; in the
    ah-star quotient a word vanishes when some word of its closure contains a
    forbidden adjacent pair.  Independent of ``hc_normal_form`` and
    ``ah_zero_test``; exponential, so only for short words.
    """
    out = {}
    for word, coeff in terms.items():
        closure = rewrite_closure_oracle(word, presentation)
        if presentation.kind == AH_STAR and any(word_has_forbidden_pair(u) for u in closure):
            continue
        key = min(closure, key=_word_order)
        out[key] = out.get(key, GaussianRational(0)) + GaussianRational.coerce(coeff)
    return {w: c for w, c in out.items() if c}


def word_element_matches(value, terms, presentation):
    """``value`` is the element whose brute-force canonical form is ``terms``'s."""
    return (
        isinstance(value, WordElement)
        and value.presentation == presentation
        and value.terms == closure_canonical(terms, presentation)
    )


def normal_form_ok(word, nf):
    """``nf`` is a least word of the half-commutation class of ``word``.

    Short words are checked against the rewrite closure; long ones by the
    class invariant (length and the letter multisets at odd and even
    positions) plus sortedness inside each parity class.
    """
    if len(word) <= 8:
        closure = rewrite_closure_oracle(word, None)
        return nf in closure and nf == min(closure, key=_word_order)
    same_class = len(nf) == len(word) and all(
        sorted(_word_order(nf[k::2])) == sorted(_word_order(word[k::2])) for k in (0, 1)
    )
    return same_class and all(_word_order(nf[k::2]) == sorted(_word_order(nf[k::2])) for k in (0, 1))


def coproduct_counit_ok(x, delta):
    """(eps (x) id) Delta x = x = (id (x) eps) Delta x for a word element."""
    pres = x.presentation
    left, right = {}, {}
    for (w1, w2), c in delta.items():
        e1 = counit_element(WordElement.from_word(pres, w1))
        e2 = counit_element(WordElement.from_word(pres, w2))
        if e1:
            left[w2] = left.get(w2, GaussianRational(0)) + e1 * c
        if e2:
            right[w1] = right.get(w1, GaussianRational(0)) + e2 * c
    return WordElement(pres, left) == x and WordElement(pres, right) == x


def crossed_coproduct_counit_ok(x, delta):
    """(eps (x) id) Delta x = x for a crossed element; eps(s) = 1."""
    n = x.n
    f = [{}, {}]
    for ((lm, _lp), (rm, rp)), c in delta.items():
        if lm.is_diagonal():
            f[rp][rm] = f[rp].get(rm, GaussianRational(0)) + c
    return CrossedElement(FunElement(n, f[0]), FunElement(n, f[1])) == x


def involution_ok(kind, x, y):
    """Applying the star or the antipode to ``y`` gives back ``x``."""
    fn = star_element if kind == "star" else antipode_element
    return fn(y) == x


def _letter_matrix(gs, row, col):
    # the image of v_ij = u_ij s in the two-dimensional matrix model, batched
    entry = gs[:, row - 1, col - 1]
    out = np.zeros((len(gs), 2, 2), dtype=complex)
    out[:, 0, 1] = entry
    out[:, 1, 0] = entry.conj()
    return out


def embedding_ok(x, image, points=3, seed=0, rtol=1e-9):
    """``image`` equals embed_pi(x), compared in the matrix model.

    The word element is evaluated letter by letter as products of 2x2
    matrices at random complex points, without the crossed-product
    arithmetic; unitary letters expand as u_ij -> x_ij + i x_(n+i)j over the
    doubled dimension.
    """
    pres = x.presentation
    n = pres.n if pres.orthogonal else 2 * pres.n
    if image.n != n:
        return False
    rng = np.random.default_rng(seed)
    gs = rng.standard_normal((points, n, n)) + 1j * rng.standard_normal((points, n, n))
    expect = np.zeros((points, 2, 2), dtype=complex)
    for word, coeff in x.terms.items():
        acc = np.broadcast_to(np.eye(2, dtype=complex), (points, 2, 2)) * coeff.to_complex()
        for l in word:
            m = _letter_matrix(gs, l.row, l.col)
            if not pres.orthogonal:
                phase = -1j if l.starred else 1j
                m = m + phase * _letter_matrix(gs, l.row + pres.n, l.col)
            acc = acc @ m
        expect = expect + acc
    got = np.stack([matrix_model_eval(image, g) for g in gs])
    scale = max(1.0, float(np.max(np.abs(expect))))
    return float(np.max(np.abs(got - expect))) <= rtol * scale


def model_equal(x, y, model, samples=64, seed=0, tol=1e-9):
    """Function equality of two crossed elements at sampled points of a model."""
    d = x - y
    gs = sample_batch(parse_model(model), np.random.default_rng(seed), samples)
    return all(
        f.is_zero or float(np.max(np.abs(evaluate_fun_batch(f, gs)))) < tol for f in (d.f0, d.f1)
    )


def haar_value_ok(x, value, model, seed=0):
    """An exact Haar value agrees with a Monte Carlo estimate within 6 stderr."""
    est = mc_integral(x, parse_model(model), MC_CHECK_SAMPLES, seed)
    return abs(complex(value) - est.mean) <= MC_CHECK_SIGMAS * est.stderr + 1e-9


def mc_estimates_agree(x, mean, stderr, model, seed=0):
    """Two independent Monte Carlo estimates agree within 6 combined stderr."""
    est = mc_integral(x, parse_model(model), MC_CHECK_SAMPLES, seed)
    return abs(mean - est.mean) <= MC_CHECK_SIGMAS * math.hypot(stderr, est.stderr) + 1e-9


def fusion_data(group):
    if group == "su2":
        return SU2Fusion()
    kind, n = group.split(":")
    return UnFusion(int(n)) if kind == "un" else TorusFusion(int(n))


def fusion_ok(data, x, y, decomposition, graded):
    """A tensor decomposition of flagged labels x, y: non-empty, sum of
    mult * dim equal to dim(x) * dim(y), result flags the XOR of the factors',
    and, for graded labels, grade = flag mod 2."""
    flag = (x[1] + y[1]) % 2
    total = sum(mult * data.dim(label) for (label, _f), mult in decomposition.items())
    return (
        bool(decomposition)
        and total == data.dim(x[0]) * data.dim(y[0])
        and all(f == flag and (not graded or data.grade(label) % 2 == f) for label, f in decomposition)
    )


def _weight(label):
    # "([2,0,-1],s)" -> (2, 0, -1)
    return tuple(int(v) for v in label[label.index("[") + 1 : label.index("]")].split(","))


def table_ok(data, table):
    """Every product of an exported U(n) fusion table balances dimensions."""
    if not table["products"]:
        return False
    for prod in table["products"]:
        total = sum(r["mult"] * data.dim(_weight(r["label"])) for r in prod["result"])
        if total != data.dim(_weight(prod["x"])) * data.dim(_weight(prod["y"])):
            return False
    return True


def printed_scalar(text):
    """Parse a printed Gaussian rational such as ``-1/6 + 1/3 i``."""
    value = parse_expression(text, "crossed:1")
    if value.f1.terms or any(m != MONO_ONE for m in value.f0.terms):
        raise ValueError(f"not a scalar: {text!r}")
    return value.f0.terms.get(MONO_ONE, GaussianRational(0)).to_complex()
