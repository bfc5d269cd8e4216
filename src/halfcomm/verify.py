"""Named verification suites behind the CLI ``verify`` subcommand.

Each suite is a generator of ``(check_id, rule, check)`` triples, registered
with ``@_suite(name)``; one runner executes the checks in order, times them,
and returns a machine-readable report.  The acceptance tests drive the same
functions.  A check that raises, on a resource cap or otherwise, fails
without aborting its suite or the battery; when a suite's own code raises
between checks, one failed check ``<set-up>`` ends that suite and the
battery goes on.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import fusion as fus
from .crossed import (
    CrossedElement,
    FunElement,
    FunMonomial,
    crossed_coproduct,
    crossed_counit,
    crossed_antipode,
    crossed_mul,
    crossed_star,
    coinvariant_test,
    embed_pi,
    pun_generator,
)
from .errors import ClosureSizeError, DegreeCapError
from .groups import (
    DEFAULT_TOL,
    check_draw,
    contains,
    evaluate_fun_batch,
    matrix_model_eval,
    parse_model,
    predicate,
    sample_batch,
)
from .haar import (
    PMAX_DEFAULT,
    haar_integral,
    mc_integrals,
    norm_equal,
    norm_squared,
    weingarten_table,
    witness_refutes,
    _compose,
    _cycle_type,
    _inverse,
    _partitions,
    _permutations,
    _witness,
)
from .scalars import GaussianRational, reduce_terms
from .words import (
    AH_STAR,
    COPRODUCT_MAX_TERMS,
    Letter,
    WordElement,
    ah_star,
    ah_zero_test,
    ao_star,
    au_star_star,
    antipode_element,
    coproduct_element,
    counit_element,
    hc_normal_form,
    letter,
    rewrite_closure_oracle,
    star_element,
)

DEFAULT_SEED = 1234
CLOSURE_MAX_SIZE = 20000  # words one rewrite closure may reach
CLOSURE_MAX_LETTERS = 250_000  # letters the closure walks of rewrite-oracle and ah-zero may handle, all words together
HALF_COMM_MAX_TRIPLES = 50_000  # generator triples half-comm may multiply out
HOPF_MAX_PRODUCTS = 500_000  # basis products hopf's coproduct-multiplicative check may form
PUN_MAX_PRODUCTS = 1_000  # index tuples pun's biunitarity check may sum
POINTWISE_SAMPLES = 48  # Haar unitaries pointwise_equal evaluates at
POINTWISE_TOL = 1e-9
FAITHFULNESS_MAXLEN = 3  # word length up to which faithfulness compares normal forms
FAITHFULNESS_MAX_PAIRS = 200_000  # pairs of normal forms faithfulness may compare
HOPF_ELEMENTS = 25  # random elements per hopf involution check
# the presentations of hopf's word-maps-closure check, each with the longest
# word it lists: fixed, as the check's products grow as n^(4 * length)
WORD_MAP_SIZES = ((ao_star(2), 2), (ah_star(2), 2), (au_star_star(1), 3))
SEQUENCE_WORDS = 20  # random embedded words the coinvariance check tests
STRUCTURAL_DRAWS = 1000  # samples the kn and u2n model checks draw
KN_TOL = 1e-12  # largest |value| a vanishing kn monomial may take at a sample
UNITARITY_TOL = 1e-9  # largest entry of U U* - I the u2n generator matrix may have
FUSION_TRIPLES = 50  # random labels, pairs or triples per fusion check
LR_SIZE_CAP = 4  # the largest |lam|, |mu| the fusion suite's Schur oracle multiplies
MOMENT_CASES = ((2, 1), (2, 2), (3, 1))  # the (n, k) the moments suite cross-checks
MIXED_DIMS = (2, 3)  # the dimensions of faithfulness's mixed-degree identities


@dataclass
class Check:
    check_id: str
    rule: str
    passed: bool
    detail: str = ""
    elapsed_s: float = 0.0

    @property
    def status(self):
        return "pass" if self.passed else "fail"


@dataclass
class VerifyReport:
    suite: str
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def json_lines(self):
        lines = []
        for c in sorted(self.checks, key=lambda c: c.check_id):
            lines.append(
                json.dumps(
                    {
                        "suite": self.suite,
                        "check": c.check_id,
                        "rule": c.rule,
                        "status": c.status,
                        "detail": c.detail,
                        "elapsed_s": round(c.elapsed_s, 6),
                    },
                    sort_keys=True,
                )
            )
        return lines


SUITES = {}
CAPS = {}  # suite name -> the cap check of a suite that has one; takes its parameters
# the failed check that stands for a suite whose own code raised between checks
SETUP_CHECK = "<set-up>"
SETUP_RULE = "the suite's set-up code runs without raising"


def _failure(exc):
    """The detail of a failed check that raised ``exc``."""
    if isinstance(exc, (DegreeCapError, ClosureSizeError)):
        return f"resource cap: {exc}"
    return f"{type(exc).__name__}: {exc}"


def _suite(name, caps=None):
    """Register a generator of ``(check_id, rule, check)`` triples as the
    suite ``name``; ``check()`` returns ``(passed, detail)``.

    The registered function keeps the generator's name and signature and
    returns a ``VerifyReport``.  Each check runs as soon as it is yielded,
    before the generator resumes, so a check may read the loop variables of
    the generator.  A check's ``elapsed_s`` runs from the end of the previous
    check, so it includes the set-up code the generator ran for it, and the
    timings of a suite add up to its run time.

    ``caps``, when given, takes every parameter of the suite, defaults
    filled in, and raises ``ValueError`` when they ask for more than a
    resource cap allows; it runs before the first check, and ``check_caps``
    runs it on its own, so that a battery refuses before any suite runs.
    """

    def register(gen):
        signature = inspect.signature(gen)

        def check_params(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            caps(**bound.arguments)

        @functools.wraps(gen)
        def run(*args, **kwargs):
            if caps is not None:
                check_params(*args, **kwargs)
            report = VerifyReport(name)
            start = time.perf_counter()
            checks = gen(*args, **kwargs)
            while True:
                try:
                    check_id, rule, check = next(checks)
                except StopIteration:
                    break
                except Exception as exc:  # set-up code raised: one failed check, and the generator is done
                    check_id, rule, passed, detail = SETUP_CHECK, SETUP_RULE, False, _failure(exc)
                else:
                    try:
                        passed, detail = check()
                    except Exception as exc:  # a check that raises fails; the suite goes on
                        passed, detail = False, _failure(exc)
                end = time.perf_counter()
                report.checks.append(Check(check_id, rule, passed, detail, end - start))
                start = end
            return report

        SUITES[name] = run
        if caps is not None:
            CAPS[name] = check_params
        return run

    return register


def _all_letters(pres):
    """Every letter of ``pres``: by row, column, and then star in a unitary
    presentation."""
    stars = (False,) if pres.orthogonal else (False, True)
    idx = range(1, pres.n + 1)
    return [letter(pres, r, c, s) for r in idx for c in idx for s in stars]


def _all_words(pres, length):
    return itertools.product(_all_letters(pres), repeat=length)


def _index_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def _abc_cba(gens):
    """``(passed, detail)`` of abc = cba as exact identities, for every triple
    of the values of the dict ``gens``, in the order of its sorted keys."""
    keys = sorted(gens)
    for a, b, c in itertools.product(keys, repeat=3):
        x = crossed_mul(crossed_mul(gens[a], gens[b]), gens[c])
        y = crossed_mul(crossed_mul(gens[c], gens[b]), gens[a])
        if x != y:
            return False, f"abc != cba at {a},{b},{c}"
    return True, f"{len(keys) ** 3} triples exact"


# -- rewriting ---------------------------------------------------------------


def _closures(pres, length):
    """``(word, closure)`` for the first word of each rewrite class of the
    words of ``length`` over ``pres``, in listing order.  A rewrite is its own
    inverse, so every word of a closure has that closure: the words of the
    closures already walked are skipped, and each word is visited once."""
    walked = set()
    for w in _all_words(pres, length):
        if w not in walked:
            closure = rewrite_closure_oracle(w, pres, CLOSURE_MAX_SIZE)
            walked |= closure
            yield w, closure


def _closure_caps(suite, n, maxlen):
    """Refuse more than ``CLOSURE_MAX_LETTERS`` letters in the closure walks
    of the words of lengths 1..maxlen, counted before any word is listed: each
    of the n^(2L) words of length L is visited once and forms L - 2 rewrites
    of L letters, counted as L^2.  Counting stops once past the cap."""
    count = 0
    for length in range(1, maxlen + 1):
        count += n ** (2 * length) * length**2
        if count > CLOSURE_MAX_LETTERS:
            least = "" if length == maxlen else "at least "
            raise ValueError(f"{suite} over n={n} up to length {maxlen} walks {least}{count} closure letters; "
                             f"the cap is {CLOSURE_MAX_LETTERS}")


def _ah_relation_pairs(pres):
    """The letter pairs (v_ij, v_ik) and (v_ji, v_ki), j != k, whose products
    the defining relations of ah-star set to zero, listed from the relations
    themselves."""
    idx = range(1, pres.n + 1)
    return {pair for i, j, k in itertools.product(idx, repeat=3) if j != k
            for pair in ((letter(pres, i, j), letter(pres, i, k)), (letter(pres, j, i), letter(pres, k, i)))}


def _holds_relation_pair(words, relations):
    """Whether some word of ``words`` has two adjacent letters in ``relations``."""
    return any(pair in relations for u in words for pair in zip(u, u[1:]))


@_suite("rewrite-oracle", caps=functools.partial(_closure_caps, "rewrite-oracle"))
def suite_rewrite_oracle(n=2, maxlen=5):
    pres = ao_star(n)
    for length in range(1, maxlen + 1):

        def check():
            by_nf = {}
            words = [tuple(w) for w in _all_words(pres, length)]
            for w in words:
                by_nf.setdefault(hc_normal_form(w), set()).add(w)
            for w, cls in _closures(pres, length):
                if cls != by_nf[hc_normal_form(w)]:
                    return False, f"closure mismatch at {w}"
            return True, f"{len(words)} words, {len(by_nf)} classes"

        yield f"closure-len-{length}", "closure reachability coincides with equality of canonical forms", check


@_suite("ah-zero", caps=functools.partial(_closure_caps, "ah-zero"))
def suite_ah_zero(n=2, maxlen=5):
    pres = ah_star(n)
    relations = _ah_relation_pairs(pres)
    for length in range(1, maxlen + 1):

        def check():
            brute = {}  # word -> whether some word of its closure holds a vanishing pair
            for _, closure in _closures(pres, length):
                brute.update(dict.fromkeys(closure, _holds_relation_pair(closure, relations)))
            zeros = 0
            for w in _all_words(pres, length):
                fast = ah_zero_test(w, pres)
                if fast != brute[w]:
                    return False, f"disagreement at {w}: rule={fast} closure={brute[w]}"
                zeros += fast
            return True, f"{len(brute)} words, {zeros} vanish"

        yield f"zero-rule-len-{length}", "parity-class adjacency rule agrees with closure adjacency search", check


# -- crossed product ---------------------------------------------------------


def _half_comm_caps(n):
    if n**6 > HALF_COMM_MAX_TRIPLES:
        raise ValueError(f"half-comm over n={n} checks {n**6} generator triples; the cap is {HALF_COMM_MAX_TRIPLES}")


@_suite("half-comm", caps=_half_comm_caps)
def suite_half_comm(n=2):
    pairs = _index_pairs(n)

    def check_triples():
        return _abc_cba({e: CrossedElement.generator(n, *e) for e in pairs})

    yield f"abc-cba-n{n}", "images of generator triples satisfy abc = cba as exact polynomial identities", check_triples

    def check_star():
        for i, j in pairs:
            g = CrossedElement.generator(n, i, j)
            if crossed_star(g) != g:
                return False, f"generator ({i},{j}) not self-adjoint"
        return True, f"{len(pairs)} generators self-adjoint"

    yield f"self-adjoint-n{n}", "generator images are self-adjoint", check_star


@functools.lru_cache(maxsize=8)
def _haar_points(n, seed):
    """The seeded batch of Haar unitaries over U(n) that ``pointwise_equal``
    evaluates at: drawn once per (n, seed) and shared read-only."""
    gs = sample_batch(parse_model(f"un:{n}"), np.random.default_rng(seed), POINTWISE_SAMPLES)
    gs.flags.writeable = False
    return gs


def pointwise_equal(x, y, seed=DEFAULT_SEED):
    """Function equality of crossed elements, decided at Haar sample points.

    Independent of the Weingarten machinery: two polynomial functions agreeing
    at a batch of random unitaries agree everywhere (up to the vanishing
    probability of landing in the zero set).
    """
    d = x - y
    gs = _haar_points(d.n, seed)
    worst = 0.0
    for f in (d.f0, d.f1):
        if not f.is_zero:
            worst = max(worst, float(np.max(np.abs(evaluate_fun_batch(f, gs)))))
    return worst < POINTWISE_TOL


def _normal_form_count(n, maxlen):
    """The number of normal forms of the ao-star:n words of length at most
    ``maxlen``, counted, not listed: half-commutation permutes the letters
    at odd positions and those at even positions, so a form of length L is
    a multiset of ceil(L/2) and one of floor(L/2) of the n^2 letters."""
    k = n * n
    return sum(math.comb(k + (size + 1) // 2 - 1, (size + 1) // 2) * math.comb(k + size // 2 - 1, size // 2)
               for size in range(maxlen + 1))


def _faithfulness_caps(n, **_):
    """Refuse more than ``FAITHFULNESS_MAX_PAIRS`` pairs of normal forms,
    counted before any is listed."""
    count = _normal_form_count(n, FAITHFULNESS_MAXLEN)
    pairs = count * (count + 1) // 2
    if pairs > FAITHFULNESS_MAX_PAIRS:
        raise ValueError(
            f"faithfulness over n={n} compares {count} normal forms, {pairs} pairs; "
            f"the cap is {FAITHFULNESS_MAX_PAIRS}"
        )


@_suite("faithfulness", caps=_faithfulness_caps)
def suite_faithfulness(n=2, p_max=PMAX_DEFAULT, seed=DEFAULT_SEED):
    pres = ao_star(n)

    forms = {()}
    for length in range(1, FAITHFULNESS_MAXLEN + 1):
        for w in _all_words(pres, length):
            forms.add(hc_normal_form(tuple(w)))
    forms = sorted(forms, key=lambda w: (len(w), w))

    def check_pairs():
        # the exact norm decides *function* equality; the independent oracle is
        # pointwise evaluation at sampled unitaries.  Distinct normal forms may
        # coincide as functions (for n=2 unitarity forces |u11| = |u22| and
        # |u12| = |u21|, so e.g. v11 v11 and v22 v22 have equal images).
        # norm_equal must agree too, refuting most pairs at its witness point.
        images = [embed_pi(WordElement.from_word(pres, w)) for w in forms]
        coincidences = refuted = 0
        for a in range(len(forms)):
            for b in range(a, len(forms)):
                d = images[a] - images[b]
                got = norm_squared(d, p_max=p_max) == 0
                if got != pointwise_equal(images[a], images[b], seed=seed):
                    return False, f"norm vs pointwise disagree for {forms[a]} vs {forms[b]}"
                if got != norm_equal(images[a], images[b], p_max=p_max):
                    return False, f"norm vs norm_equal disagree for {forms[a]} vs {forms[b]}"
                if a == b and not got:
                    return False, f"norm not reflexive at {forms[a]}"
                if a != b and got:
                    coincidences += 1
                refuted += witness_refutes(d)
        return True, (
            f"{len(forms)} normal forms; norm agrees with pointwise sampling and norm_equal on all "
            f"pairs; {coincidences} distinct-form pairs coincide as functions; the witness point "
            f"refutes {refuted} pairs"
        )

    yield (
        "norm-decides-function-equality",
        "vanishing Haar norm of a difference of embedded words iff pointwise equality on the group",
        check_pairs,
    )

    def check_orthogonality():
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        if not pairs:
            return True, f"no pairs of distinct rows or columns at n={n}"
        for a, b in pairs:
            for direction in ("row", "col"):
                total = CrossedElement.zero(n)
                for k in range(1, n + 1):
                    if direction == "row":
                        w = (letter(pres, a, k), letter(pres, b, k))
                    else:
                        w = (letter(pres, k, a), letter(pres, k, b))
                    total = total + embed_pi(WordElement.from_word(pres, w))
                nrm = norm_squared(total, p_max=p_max)
                if nrm != 0:
                    return False, f"{direction} orthogonality sum over ({a},{b}) has norm {nrm}"
        return True, "row and column orthogonality sums vanish exactly"

    yield "orthogonality-in-image", "sum over k of pi(v[1,k] v[2,k]) has exact Haar norm zero", check_orthogonality

    def check_mixed_degrees():
        identities = blind = 0
        for dim in MIXED_DIMS:
            pres_d = ao_star(dim)

            def word(*idx):
                return WordElement.from_word(pres_d, [letter(pres_d, i, j) for i, j in idx])

            for i, j in _index_pairs(dim):
                # x (sum_k v_ik v_jk - delta_ij) y = 0: the delta term has one
                # barred factor fewer than the sum's
                mid = sum((word((i, k), (j, k)) for k in range(1, dim + 1)), WordElement(pres_d))
                if i == j:
                    mid = mid - WordElement.one(pres_d)
                for xw, yw in itertools.product(((), ((1, 1),), ((1, 2), (2, 1))), ((), ((2, 1),))):
                    if len(xw) + 2 + len(yw) > p_max:
                        continue
                    if not norm_equal(embed_pi(word(*xw) * mid * word(*yw)), CrossedElement.zero(dim), p_max=p_max):
                        return False, f"x (sum_k v{i}k v{j}k - delta) y != 0 over {pres_d} for x={xw}, y={yw}"
                    identities += 1
            row = sum((FunElement.coordinate(dim, 1, j) * FunElement.coordinate(dim, 1, j, bar=True)
                       for j in range(1, dim + 1)), FunElement.zero(dim))
            u = functools.partial(FunElement.coordinate, dim)
            for m in (FunElement.one(dim), u(1, 1), u(1, 2, bar=True), u(2, 1) * u(2, 2, bar=True),
                      u(1, 1) * u(1, 2) * u(2, 1, bar=True)):
                degree = max(mono.degree for mono in m.terms)
                power = row
                for k in range(1, (p_max - degree) // 2 + 1):
                    # (sum_j u1j ubar1j)^k m = m on U(n), mixing barred degrees
                    if not norm_equal(CrossedElement.even(power * m), CrossedElement.even(m), p_max=p_max):
                        return False, f"(sum_j u1j ubar1j)^{k} m != m over U({dim}) for m = {m}"
                    identities += 1
                    power = power * row
                if degree + 1 > p_max:
                    continue
                # m and m u11 differ by one in plain minus barred degree; this
                # combination of them vanishes at the witness point but not on
                # U(n), so the witness must leave it to the norm
                m2 = m * u(1, 1)
                d = _at_witness(m2) * m - _at_witness(m) * m2
                if witness_refutes(CrossedElement.even(d)):
                    return False, f"the witness point refutes {d}, which vanishes there"
                if norm_equal(CrossedElement.even(d), CrossedElement.zero(dim), p_max=p_max):
                    return False, f"{d} decided equal to 0"
                blind += 1
        return True, (f"{identities} identities over dimensions {MIXED_DIMS} equal; "
                      f"{blind} differences vanishing at the witness point only are unequal")

    yield (
        "mixed-degree-identities",
        "true identities whose terms differ in barred degree decide equal through norm_equal, and the witness "
        "point refutes no difference that vanishes there",
        check_mixed_degrees,
    )


def _at_witness(f: FunElement) -> GaussianRational:
    """The exact value of f at the witness point of ``haar._witness``: u_ij
    to g_ij and ubar_ij to (g^-1)_ji, each factor a Fraction, with none of
    the common scaling that ``witness_refutes`` applies."""
    values, den = _witness(f.n)
    total = GaussianRational(0)
    for mono, c in f.terms.items():
        v = Fraction(1)
        for sym, e in mono:
            v *= Fraction(values[sym], den if sym[2] else 1) ** e
        total = total + c * GaussianRational(v)
    return total


def _tensor_components(x):
    for m, c in x.f0.terms.items():
        yield (m, 0), c
    for m, c in x.f1.terms.items():
        yield (m, 1), c


def _basis_elem(n, mono, parity):
    f = FunElement(n, {mono: 1})
    return CrossedElement.even(f) if parity == 0 else CrossedElement.odd(f)


def _word_counit_sides(pres, delta):
    """(eps (x) id) Delta and (id (x) eps) Delta, as word elements, of a word
    coproduct ``delta``."""
    left = right = WordElement.zero(pres)
    for (w1, w2), c in delta.items():
        left = left + counit_element(WordElement.from_word(pres, w1)) * c * WordElement.from_word(pres, w2)
        right = right + counit_element(WordElement.from_word(pres, w2)) * c * WordElement.from_word(pres, w1)
    return left, right


def _word_coassociativity_sides(pres, delta):
    """(Delta (x) id) Delta and (id (x) Delta) Delta, as dicts of word triples,
    of a word coproduct ``delta``."""
    left = reduce_terms(
        ((a, b, w2), c * c2)
        for (w1, w2), c in delta.items()
        for (a, b), c2 in coproduct_element(WordElement.from_word(pres, w1)).items()
    )
    right = reduce_terms(
        ((w1, b, c3), c * c2)
        for (w1, w2), c in delta.items()
        for (b, c3), c2 in coproduct_element(WordElement.from_word(pres, w2)).items()
    )
    return left, right


def _crossed_counit_sides(n, delta):
    """(eps (x) id) Delta and (id (x) eps) Delta, as crossed elements over n,
    of a crossed coproduct ``delta``."""
    left = right = CrossedElement.zero(n)
    for ((lm, lp), (rm, rp)), c in delta.items():
        left = left + crossed_counit(_basis_elem(n, lm, lp)) * c * _basis_elem(n, rm, rp)
        right = right + crossed_counit(_basis_elem(n, rm, rp)) * c * _basis_elem(n, lm, lp)
    return left, right


def _tensor_mul(n, t1, t2):
    def pairs():
        for (l1, r1), c1 in t1.items():
            for (l2, r2), c2 in t2.items():
                left = crossed_mul(_basis_elem(n, *l1), _basis_elem(n, *l2))
                right = crossed_mul(_basis_elem(n, *r1), _basis_elem(n, *r2))
                for kl, cl in _tensor_components(left):
                    for kr, cr in _tensor_components(right):
                        yield (kl, kr), c1 * c2 * cl * cr

    return reduce_terms(pairs())


def _random_fun(rng, n, max_degree, terms=2):
    # coefficients with parts in -2..2; the tests draw from it too
    f = FunElement.zero(n)
    for _ in range(terms):
        exps = {}
        for _ in range(rng.randint(0, max_degree)):
            sym = (rng.randint(1, n), rng.randint(1, n), rng.random() < 0.5)
            exps[sym] = exps.get(sym, 0) + 1
        coeff = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
        f = f + FunElement(n, {FunMonomial(exps): coeff})
    return f


def _random_crossed(rng, n, max_degree):
    return CrossedElement(_random_fun(rng, n, max_degree), _random_fun(rng, n, max_degree))


def _hopf_caps(n, **_):
    # coproduct-multiplicative multiplies the n^2-term coproducts of n^4
    # generator pairs, n^8 basis products in all
    if n**8 > HOPF_MAX_PRODUCTS:
        raise ValueError(f"hopf over n={n} forms {n**8} basis products; the cap is {HOPF_MAX_PRODUCTS}")


@_suite("hopf", caps=_hopf_caps)
def suite_hopf(n=2, seed=DEFAULT_SEED, p_max=PMAX_DEFAULT):
    pres = ao_star(n)
    rng = random.Random(seed)
    pairs = _index_pairs(n)

    def check_coassoc_words():
        for i, j in pairs:
            left, right = _word_coassociativity_sides(pres, coproduct_element(WordElement.generator(pres, i, j)))
            if left != right:
                return False, f"coassociativity fails on generator ({i},{j})"
        return True, f"{len(pairs)} generators"

    yield "coassociativity-words", "both iterated coproducts of a generator agree", check_coassoc_words

    def check_counit_words():
        for length in range(0, 3):
            for w in _all_words(pres, length):
                x = WordElement.from_word(pres, tuple(w))
                if _word_counit_sides(pres, coproduct_element(x)) != (x, x):
                    return False, f"counit axiom fails on {w}"
        return True, "all words of length <= 2"

    yield "counit-words", "(eps (x) id) Delta = id = (id (x) eps) Delta on short words", check_counit_words

    def check_coproduct_multiplicative():
        for i, j in pairs:
            for k, l in pairs:
                x = CrossedElement.generator(n, i, j)
                y = CrossedElement.generator(n, k, l)
                direct = crossed_coproduct(crossed_mul(x, y))
                composed = _tensor_mul(n, crossed_coproduct(x), crossed_coproduct(y))
                if direct != composed:
                    return False, f"Delta not multiplicative at ({i},{j}),({k},{l})"
        return True, f"{len(pairs) ** 2} generator pairs"

    yield (
        "coproduct-multiplicative",
        "Delta(xy) = Delta(x) Delta(y) on the generator span",
        check_coproduct_multiplicative,
    )

    def check_counit_crossed():
        samples = [CrossedElement.generator(n, i, j) for i, j in pairs]
        samples.append(crossed_mul(samples[0], samples[-1]))
        for x in samples:
            if _crossed_counit_sides(n, crossed_coproduct(x)) != (x, x):
                return False, "counit axiom fails in the crossed product"
        return True, f"{len(samples)} elements"

    yield "counit-crossed", "counit axiom in the crossed product", check_counit_crossed

    def check_antipode_convolution():
        unit = CrossedElement.one(n)
        for i, j in pairs:
            expect = unit if i == j else CrossedElement.zero(n)
            conv_left = CrossedElement.zero(n)
            conv_right = CrossedElement.zero(n)
            g = CrossedElement.generator(n, i, j)
            for ((lm, lp), (rm, rp)), c in crossed_coproduct(g).items():
                conv_left = conv_left + c * crossed_mul(crossed_antipode(_basis_elem(n, lm, lp)), _basis_elem(n, rm, rp))
                conv_right = conv_right + c * crossed_mul(_basis_elem(n, lm, lp), crossed_antipode(_basis_elem(n, rm, rp)))
            if not norm_equal(conv_left, expect, p_max=p_max):
                return False, f"m(S (x) id) Delta fails at ({i},{j})"
            if not norm_equal(conv_right, expect, p_max=p_max):
                return False, f"m(id (x) S) Delta fails at ({i},{j})"
        return True, f"{len(pairs)} generators, both convolution orders"

    yield (
        "antipode-convolution",
        "m(S (x) id) Delta = eps 1 = m(id (x) S) Delta modulo the unitarity ideal",
        check_antipode_convolution,
    )

    def check_antipode_squared():
        for _ in range(HOPF_ELEMENTS):
            x = _random_crossed(rng, n, 2)
            if crossed_antipode(crossed_antipode(x)) != x:
                return False, "S^2 != id"
        for i, j in pairs:
            w = WordElement.generator(pres, i, j)
            if antipode_element(antipode_element(w)) != w:
                return False, "S^2 != id on words"
        return True, f"{HOPF_ELEMENTS} random elements of degree <= 2"

    yield "antipode-squared", "the antipode is an involution", check_antipode_squared

    def check_star():
        for _ in range(HOPF_ELEMENTS):
            x = _random_crossed(rng, n, 2)
            y = _random_crossed(rng, n, 2)
            if crossed_star(crossed_star(x)) != x:
                return False, "star not involutive"
            if crossed_star(crossed_mul(x, y)) != crossed_mul(crossed_star(y), crossed_star(x)):
                return False, "star not anti-multiplicative"
            w = _random_word_element(rng, pres)
            if star_element(star_element(w)) != w:
                return False, "word star not involutive"
            if counit_element(star_element(w)) != counit_element(w).conjugate():
                return False, "counit does not intertwine star and conjugation"
        return True, f"{HOPF_ELEMENTS} random pairs"

    yield "star-structure", "star is an involutive anti-homomorphism compatible with the counit", check_star

    def check_word_maps():
        count = 0
        for pres_w, maxlen in WORD_MAP_SIZES:
            failed, compared = _word_map_mismatch(pres_w, maxlen)
            if failed:
                return False, f"{failed} differs from the rewrite-closure form"
            count += compared
        sizes = ", ".join(f"{p} (words of length <= {maxlen})" for p, maxlen in WORD_MAP_SIZES)
        return True, f"{count} products, stars and antipodes over {sizes}"

    yield (
        "word-maps-closure",
        "word products, star and antipode equal the least word of the rewrite closure, "
        "vanish when the closure holds an ah-star relation, and hold no zero coefficient",
        check_word_maps,
    )

    def check_embedding():
        # the unitary presentation embeds over 2n, where the crossed antipode
        # is not the image of the word antipode
        count = 0
        for pres_e in (pres, au_star_star(n)):
            for length in range(3):
                for w in _all_words(pres_e, length):
                    x = WordElement.from_word(pres_e, w)
                    image = embed_pi(x)
                    if embed_pi(star_element(x)) != crossed_star(image):
                        return False, f"pi does not intertwine the stars at {w} over {pres_e}"
                    if counit_element(x) != crossed_counit(image):
                        return False, f"pi does not intertwine the counits at {w} over {pres_e}"
                    if pres_e.orthogonal and embed_pi(antipode_element(x)) != crossed_antipode(image):
                        return False, f"pi does not intertwine the antipodes at {w} over {pres_e}"
                    count += 1
        return True, f"{count} words of length <= 2 over {pres} and {au_star_star(n)}"

    yield (
        "embedding-intertwines",
        "pi intertwines the word and crossed star and counit, and the antipode over ao-star",
        check_embedding,
    )

    def check_coproduct_intertwines():
        # the crossed coproduct of an embedded word against the word
        # coproduct with each leg embedded: the one check that sees which
        # leg of the crossed coproduct is which
        elements = [WordElement.from_word(pres, w) for length in range(3) for w in _all_words(pres, length)]
        if n >= 2:
            # v11 v11 v22 - v12 v11 v21, both of whose coproducts cancel terms
            v11, v12, v21, v22 = (letter(pres, i, j) for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)))
            elements.append(WordElement(pres, {(v11, v11, v22): 1, (v12, v11, v21): -1}))
        for x in elements:
            word_delta = coproduct_element(x)
            embedded = reduce_terms(
                ((kl, kr), c * cl * cr)
                for (w1, w2), c in word_delta.items()
                for kl, cl in _tensor_components(embed_pi(WordElement.from_word(pres, w1)))
                for kr, cr in _tensor_components(embed_pi(WordElement.from_word(pres, w2)))
            )
            delta = crossed_coproduct(embed_pi(x))
            if delta != embedded:
                return False, f"pi does not intertwine the coproducts at {x}"
            if not (all(delta.values()) and all(word_delta.values())):
                return False, f"a coproduct of {x} holds a zero coefficient"
        return True, (f"{len(elements)} elements over {pres}: its words of length <= 2, "
                      "and for n >= 2 one whose coproducts cancel")

    yield (
        "coproduct-intertwines",
        "Delta(pi(x)) = (pi (x) pi) Delta(x), neither holding a zero coefficient, "
        "on the words of length <= 2 over ao-star and one element whose coproducts cancel",
        check_coproduct_intertwines,
    )


def _closure_form(pres):
    """The canonical form of a word over ``pres`` by brute force, memoised
    per word: the least word of its rewrite closure, or None when some word
    of the closure holds a pair that the ah-star relations set to zero."""
    relations = _ah_relation_pairs(pres) if pres.kind == AH_STAR else set()

    @functools.cache
    def form(word):
        closure = rewrite_closure_oracle(word, pres, CLOSURE_MAX_SIZE)
        return None if _holds_relation_pair(closure, relations) else min(closure)

    return form


def _closure_terms(form, pairs):
    """``(word, coeff)`` pairs with each word put in ``form`` and dropped when
    it vanishes, like words merged."""
    return reduce_terms((form(w), c) for w, c in pairs if form(w) is not None)


def _concatenations(x, y):
    """The words of x * y before normalising, with their coefficients: one
    ``(word, coeff)`` pair per pair of terms, in the order of the product."""
    return [(w1 + w2, c1 * c2) for w1, c1 in x.terms.items() for w2, c2 in y.terms.items()]


def _reversed_words(x, transpose=False):
    """The words of the star of x, or of its antipode when ``transpose``,
    before normalising, as ``(word, coeff)`` pairs: each word reversed, its
    letters starred over a unitary presentation and transposed for the
    antipode, and the coefficients conjugated for the star."""
    unitary = not x.presentation.orthogonal
    if transpose:
        return [(tuple(Letter(c, r, s != unitary) for r, c, s in reversed(w)), coeff) for w, coeff in x.terms.items()]
    return [(tuple(Letter(r, c, s != unitary) for r, c, s in reversed(w)), coeff.conjugate())
            for w, coeff in x.terms.items()]


def _word_map_mismatch(pres, maxlen):
    """Compare products, stars and antipodes of word elements over ``pres``
    with ``_closure_form``: every product of two words of length <=
    ``maxlen``, the square of the element holding all those words, the
    product (a + cb)(bc - a) for every three letters a, b, c, where a(bc)
    and (cb)a cancel, and the star and antipode of each word, each product
    and that element.  A result that holds a zero coefficient fails too,
    since the reference, merged by the same ``reduce_terms``, would hold it
    as well.  Returns ``(what failed or None, maps compared)``."""
    form = _closure_form(pres)
    words = [tuple(w) for length in range(maxlen + 1) for w in _all_words(pres, length)]
    elements = [WordElement.from_word(pres, w) for w in words]
    # varied coefficients, so that its square merges terms with unequal ones
    total = WordElement(pres, {w: GaussianRational(1 + k % 3, (-1) ** k) for k, w in enumerate(words)})
    cancelling = [(WordElement(pres, {a: 1, c + b: 1}), WordElement(pres, {b + c: 1, a: -1}))
                  for a, b, c in itertools.product([w for w in words if len(w) == 1], repeat=3)]
    products = []
    for x, y in itertools.chain(itertools.product(elements, repeat=2), [(total, total)], cancelling):
        xy = x * y
        if xy.terms != _closure_terms(form, _concatenations(x, y)) or not all(xy.terms.values()):
            return f"product {x} * {y} over {pres}", len(products)
        products.append(xy)
    count = len(products)
    for x in elements + products + [total]:
        star, antipode = star_element(x).terms, antipode_element(x).terms
        if star != _closure_terms(form, _reversed_words(x)) or not all(star.values()):
            return f"star of {x} over {pres}", count
        if antipode != _closure_terms(form, _reversed_words(x, transpose=True)) or not all(antipode.values()):
            return f"antipode of {x} over {pres}", count
        count += 2
    return None, count


def _random_word_element(rng, pres, max_len=3, terms=2):
    out = WordElement.zero(pres)
    for _ in range(terms):
        length = rng.randint(0, max_len)
        w = tuple(
            letter(pres, rng.randint(1, pres.n), rng.randint(1, pres.n)) for _ in range(length)
        )
        coeff = GaussianRational(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        out = out + WordElement(pres, {w: coeff})
    return out


def _pun_caps(n, **_):
    if n**6 > PUN_MAX_PRODUCTS:
        raise ValueError(f"pun over n={n} forms {n**6} biunitarity products; the cap is {PUN_MAX_PRODUCTS}")


@_suite("pun", caps=_pun_caps)
def suite_pun(n=2, p_max=PMAX_DEFAULT):
    rng_indices = range(1, n + 1)

    def check_row_sums():
        for i, k in itertools.product(rng_indices, repeat=2):
            target = FunElement.one(n) if i == k else FunElement.zero(n)
            left = FunElement.zero(n)
            right = FunElement.zero(n)
            for j in rng_indices:
                left = left + pun_generator(n, i, k, j, j)
                right = right + pun_generator(n, j, j, i, k)
            if norm_squared(CrossedElement.even(left - target), p_max=p_max) != 0:
                return False, f"sum_j w[{i}{k},jj] != delta"
            if norm_squared(CrossedElement.even(right - target), p_max=p_max) != 0:
                return False, f"sum_j w[jj,{i}{k}] != delta"
        return True, f"{n * n} index pairs, both sum families"

    yield (
        "partial-isometry-sums",
        "sum_j w[ik,jj] = delta(i,k) = sum_j w[jj,ik] with exact Haar norm zero",
        check_row_sums,
    )

    def check_star_symbol():
        for i, j, k, l in itertools.product(rng_indices, repeat=4):
            if pun_generator(n, i, j, k, l).star() != pun_generator(n, j, i, l, k):
                return False, f"w*[{i}{j},{k}{l}] mismatch"
        return True, f"{n ** 4} generators, exact symbol identity"

    yield "star-exchange", "w[ij,kl]* = w[ji,lk] as exact polynomials", check_star_symbol

    def check_biunitarity():
        for i, j, p, q in itertools.product(rng_indices, repeat=4):
            total = FunElement.zero(n)
            for k, l in itertools.product(rng_indices, repeat=2):
                total = total + pun_generator(n, i, j, k, l) * pun_generator(n, p, q, k, l).star()
            target = FunElement.one(n) if (i == p and j == q) else FunElement.zero(n)
            if norm_squared(CrossedElement.even(total - target), p_max=p_max) != 0:
                return False, f"biunitarity fails at ({i},{j},{p},{q})"
        return True, f"{n ** 4} index tuples"

    yield (
        "biunitarity",
        "sum_kl w[ij,kl] w[pq,kl]* = delta(i,p) delta(j,q) with exact Haar norm zero",
        check_biunitarity,
    )


# -- group models ------------------------------------------------------------


def shipped_models():
    names = [
        "un:2",
        "un:3",
        "on:2",
        "on:3",
        "sun:2",
        "sun:3",
        "torus:1",
        "torus:2",
        "kn:2",
        "kn:3",
        "u2n:1",
        "u2n:2",
    ]
    return [parse_model(t) for t in names]


def _predicates_caps(trials, **_):
    # the doubly-non-real checks draw one sample at a time; transpose-closure
    # draws ``trials`` over each shipped model, in this order
    for model in shipped_models():
        check_draw(model, trials)


@_suite("predicates", caps=_predicates_caps)
def suite_predicates(trials=1000, seed=DEFAULT_SEED):
    def check_on_real():
        res = predicate(parse_model("on:3"), "non_real", trials=10, rng_seed=seed)
        return (not res.value and res.witness is None), "structurally real"

    yield "on-non-real", "the orthogonal group has no non-real witness", check_on_real

    # u2n:2 is the smallest doubly-non-real member of its family: at n=1 the
    # block unitarity forces every entry-pair product to be real
    for name in ("un:2", "kn:2", "u2n:2"):

        def check_doubly():
            model = parse_model(name)
            res = predicate(model, "doubly_non_real", trials=trials, rng_seed=seed)
            if not res.value or res.witness is None:
                return False, "no witness found"
            g = res.witness["matrix"]
            i, j, k, l = res.witness["indices"]
            val = g[i - 1, j - 1] * np.conj(g[k - 1, l - 1])
            if abs(val.imag) <= 1e-9:
                return False, "witness does not certify"
            if abs(res.witness["value"] - val) > 1e-12:
                return False, f"witness value {res.witness['value']} is not the product {val} at its indices"
            return True, f"witness indices {res.witness['indices']}"

        yield (
            f"doubly-non-real-{name.replace(':', '')}",
            "a sampled element with a non-real entry product certifies the predicate",
            check_doubly,
        )

    def check_transpose():
        rng = np.random.default_rng(seed)
        for model in shipped_models():
            gs = sample_batch(model, rng, trials)
            if not contains(model, np.swapaxes(gs, -2, -1)).all():
                return False, f"transpose escapes {model}"
        return True, f"{trials} samples per model, {len(shipped_models())} models"

    yield "transpose-closure", "the transpose of every sample stays in its model", check_transpose


def _kn_caps(n, **_):
    check_draw(parse_model(f"kn:{n}"), STRUCTURAL_DRAWS)


@_suite("kn", caps=_kn_caps)
def suite_kn(n=3, seed=DEFAULT_SEED):
    model = parse_model(f"kn:{n}")

    def check_vanishing():
        rng = np.random.default_rng(seed)
        gs = sample_batch(model, rng, STRUCTURAL_DRAWS)
        worst = 0.0
        count = 0
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    if j == k:
                        continue
                    for bar in (False, True):
                        row_mono = FunElement.coordinate(n, i, j) * FunElement.coordinate(n, i, k, bar=bar)
                        col_mono = FunElement.coordinate(n, k, i) * FunElement.coordinate(n, j, i, bar=bar)
                        for f in (row_mono, col_mono):
                            vals = np.abs(evaluate_fun_batch(f, gs))
                            worst = max(worst, float(vals.max()))
                            count += 1
        return worst < KN_TOL, f"{count} monomial families, max |value| = {worst:.2e}"

    yield (
        "monomial-vanishing",
        "same-row and same-column entry products vanish identically on monomial matrices",
        check_vanishing,
    )


def _u2n_caps(n, points, **_):
    model = parse_model(f"u2n:{n}")
    check_draw(model, STRUCTURAL_DRAWS)  # sampler-pattern
    check_draw(model, points)  # unitary-generators


@_suite("u2n", caps=_u2n_caps)
def suite_u2n(n=1, points=100, seed=DEFAULT_SEED):
    model = parse_model(f"u2n:{n}")

    def check_sampler():
        rng = np.random.default_rng(seed)
        if not contains(model, sample_batch(model, rng, STRUCTURAL_DRAWS)).all():
            return False, "sample escapes the block pattern"
        return True, f"{STRUCTURAL_DRAWS} samples, block pattern and unitarity within {DEFAULT_TOL}"

    yield "sampler-pattern", "samples are unitary with the [[A,B],[-B,A]] block pattern", check_sampler

    pres = au_star_star(n)
    gens = {}
    for i, j in _index_pairs(n):
        u = embed_pi(WordElement.generator(pres, i, j))
        gens[i, j, False], gens[i, j, True] = u, crossed_star(u)

    def check_unitarity():
        rng = np.random.default_rng(seed + 1)
        gs = sample_batch(model, rng, points)
        worst = 0.0
        for starred in (False, True):
            m = np.block(
                [[matrix_model_eval(gens[(i, j, starred)], gs) for j in range(1, n + 1)] for i in range(1, n + 1)]
            )
            mh = np.swapaxes(m.conj(), -2, -1)
            eye = np.eye(2 * n)
            worst = max(worst, float(np.max(np.abs(m @ mh - eye))), float(np.max(np.abs(mh @ m - eye))))
        return worst < UNITARITY_TOL, f"max unitarity defect {worst:.2e} at {points} points"

    yield (
        "unitary-generators",
        "the evaluated generator matrix and its conjugate are unitary at sampled points",
        check_unitarity,
    )

    yield (
        "half-commutation-at-points",
        "abc = cba for generators and their stars, as exact polynomial identities",
        lambda: _abc_cba(gens),
    )


# -- exact integration -------------------------------------------------------


def _balanced_monomials(rng, n, count):
    out = []
    degrees = [1, 1, 2, 2, 2, 2, 3, 3, 1, 2]
    for t in range(count):
        p = degrees[t % len(degrees)]
        exps = {}
        for _ in range(p):
            sym = (rng.randint(1, n), rng.randint(1, n), False)
            exps[sym] = exps.get(sym, 0) + 1
        for _ in range(p):
            sym = (rng.randint(1, n), rng.randint(1, n), True)
            exps[sym] = exps.get(sym, 0) + 1
        out.append(FunElement(n, {FunMonomial(exps): 1}))
    return out


def class_convolution(f, h, p):
    """(f*h)(s) = sum_t f(s t^-1) h(t) over S_p, for class functions f and h.

    f*h is again a class function, so it is returned as a dict from cycle type
    to value, evaluated at one representative of each type.
    """
    perms = _permutations(p)
    reps = {}
    for s in perms:
        reps.setdefault(_cycle_type(s), s)
    return {ct: sum(f(_compose(s, _inverse(t))) * h(t) for t in perms) for ct, s in reps.items()}


@_suite("weingarten")
def suite_weingarten(samples=100000, seed=DEFAULT_SEED, p_max=PMAX_DEFAULT):
    # G[s, t] = g(s t^-1) with g(s) = n^cycles(s), and W[t, r] = wg(t r^-1),
    # so (G W)[s, r] = (g*w)(s r^-1) and (G W G)[s, r] = (g*w*g)(s r^-1):
    # G W = I iff g*w = delta_e, and G W G = G iff g*w*g = g.

    def gram(n):
        return lambda s: Fraction(n ** len(_cycle_type(s)))

    def check_inverse():
        cells = ((1, 3), (1, 4), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6))
        for p, n in cells:
            gw = class_convolution(gram(n), weingarten_table(p, n, p_max).wg, p)
            if any(v != (1 if len(ct) == p else 0) for ct, v in gw.items()):
                return False, f"inverse identity fails at p={p}, n={n}"
        return True, f"(p, n) in {cells}, every cycle type"

    yield "gram-inverse-identity", "sum_t n^cycles(s t^-1) Wg(t r^-1) = delta(s,r)", check_inverse

    def check_pseudo():
        cells = ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4))
        for p, n in cells:
            table = weingarten_table(p, n, p_max)
            if not table.pseudo:
                return False, f"(p={p}, n={n}) should be in the singular regime"
            g = gram(n)
            gw = class_convolution(g, table.wg, p)
            gwg = class_convolution(lambda s: gw[_cycle_type(s)], g, p)
            if any(v != n ** len(ct) for ct, v in gwg.items()):
                return False, f"G W G != G at p={p}, n={n}"
        return True, f"singular-regime tables satisfy G W G = G at (p, n) in {cells}"

    yield (
        "pseudo-inverse-consistency",
        "below-dimension tables are exact generalized inverses of the Gram matrix",
        check_pseudo,
    )

    def check_moments():
        # E |u_11|^(2k) = 1 / binom(n-1+k, k), a Beta-moment identity
        for n in (2, 3):
            for k in (1, 2, 3, 4):
                mono = FunMonomial({(1, 1, False): k, (1, 1, True): k})
                val = haar_integral(FunElement(n, {mono: 1}), p_max=p_max)
                expect = Fraction(1, math.comb(n - 1 + k, k))
                if val != GaussianRational(expect):
                    return False, f"|u11|^{2 * k} over n={n}: {val} != {expect}"
        return True, "entry moments match the Beta-moment closed form"

    yield "entry-moments", "E|u11|^(2k) = 1/C(n-1+k, k) for k <= 4, n in {2,3}", check_moments

    def check_mc():
        # one seeded draw per n serves all ten monomials, so the estimates are
        # correlated; each comparison is still a 5-stderr test of its own
        rng = random.Random(seed)
        worst = 0.0
        for n in (2, 3):
            monos = _balanced_monomials(rng, n, 10)
            estimates = mc_integrals(monos, parse_model(f"un:{n}"), samples, seed)
            for t, (f, est) in enumerate(zip(monos, estimates)):
                exact = haar_integral(f, p_max=p_max).to_complex()
                err = abs(est.mean - exact)
                if est.stderr == 0:
                    if err > 1e-12:
                        return False, f"zero-variance mismatch on {f}"
                    continue
                worst = max(worst, err / est.stderr)
                if err >= 5 * est.stderr:
                    return False, f"|exact - mc| = {err:.3e} >= 5 stderr on n={n} monomial {t}"
        return True, f"20 balanced monomials at {samples} samples, worst deviation {worst:.2f} stderr"

    yield "mc-agreement", "Monte Carlo estimates match exact integrals within five standard errors", check_mc


def coinvariant_by_coproduct(x):
    """Whether (id (x) q) Delta(x) = x (x) 1: the coalgebraic oracle for
    ``crossed.coinvariant_test``, which reads the grading instead.

    q kills polynomial content by the counit and keeps the s-grading, so
    (id (x) q) Delta(x) is a pair of crossed elements indexed by the group
    coordinates 1 and s; equality with x (x) 1 means the unit coordinate
    reproduces x and the flip coordinate vanishes.
    """
    at = [CrossedElement.zero(x.n), CrossedElement.zero(x.n)]
    for ((lm, lp), (rm, rp)), coeff in crossed_coproduct(x).items():
        if rm.is_diagonal():
            at[rp] = at[rp] + _basis_elem(x.n, lm, lp) * coeff
    return at[0] == x and at[1].is_zero


def _sequence_caps(n, **_):
    # coinvariants-are-even expands the coproducts of embedded words of up to
    # four letters, n^4 terms each
    if n**4 > COPRODUCT_MAX_TERMS:
        raise ValueError(f"sequence over n={n} expands a degree-4 term into {n**4} coproduct terms; "
                         f"the cap is {COPRODUCT_MAX_TERMS}")


@_suite("sequence", caps=_sequence_caps)
def suite_sequence(n=2, seed=DEFAULT_SEED):
    rng = random.Random(seed)
    pres = ao_star(n)

    def check_quotient_map():
        for i, j in _index_pairs(n):
            g = CrossedElement.generator(n, i, j)
            image = (g.f0.counit(), g.f1.counit())
            expect = (GaussianRational(0), GaussianRational(1 if i == j else 0))
            if image != expect:
                return False, f"q(g_{i}{j}) wrong"
        return True, "q sends the generator (i,j) to delta(i,j) s"

    yield "quotient-on-generators", "the grading quotient kills polynomial content", check_quotient_map

    def check_coinvariants():
        for _ in range(SEQUENCE_WORDS):
            length = rng.randint(0, 4)
            w = tuple(letter(pres, rng.randint(1, n), rng.randint(1, n)) for _ in range(length))
            x = embed_pi(WordElement.from_word(pres, w))
            even = length % 2 == 0
            if coinvariant_test(x) != even or coinvariant_by_coproduct(x) != even:
                return False, f"coinvariance wrong for length {length}"
        mixed = _random_crossed(rng, n, 2)
        if coinvariant_test(mixed) != coinvariant_by_coproduct(mixed):
            return False, "the grading and the coproduct disagree on a random mixed element"
        return True, f"{SEQUENCE_WORDS} embedded words plus a random mixed element"

    yield (
        "coinvariants-are-even",
        "embedded words are coinvariant exactly when their length is even",
        check_coinvariants,
    )

    def check_even_generators():
        for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
            w = (letter(pres, i, j), letter(pres, k, l))
            image = embed_pi(WordElement.from_word(pres, w))
            if image != CrossedElement.even(pun_generator(n, i, k, j, l)):
                return False, f"pair image mismatch at ({i},{j},{k},{l})"
        return True, f"{n ** 4} pair products match the even-part generators"

    yield (
        "even-part-generators",
        "images of length-two words are exactly the even-part generators",
        check_even_generators,
    )


# -- fusion ------------------------------------------------------------------


def _ssyt_contents(shape, n):
    """Contents of all semistandard tableaux of the given partition shape."""
    shape = [r for r in shape if r > 0]
    if not shape:
        yield (0,) * n
        return
    rows = len(shape)
    tableau = [[0] * r for r in shape]

    def rec(r, c):
        if r == rows:
            content = [0] * n
            for row in tableau:
                for v in row:
                    content[v - 1] += 1
            yield tuple(content)
            return
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = max(lo, tableau[r][c - 1])
        if r > 0 and c < shape[r - 1]:
            lo = max(lo, tableau[r - 1][c] + 1)
        for v in range(lo, n + 1):
            tableau[r][c] = v
            yield from rec(nr, nc)

    yield from rec(0, 0)


def schur_monomials(shape, n):
    """Monomial expansion of a Schur polynomial as {content: coefficient}."""
    out = {}
    for content in _ssyt_contents(shape, n):
        out[content] = out.get(content, 0) + 1
    return out


def schur_tensor_oracle(lam, mu, n):
    """Tensor decomposition via Schur polynomial products, independent of the
    tableau-counting engine: multiply monomial expansions and strip dominant
    terms greedily."""
    sl = max(0, -lam[-1])
    sm = max(0, -mu[-1])
    lp = tuple(x + sl for x in lam)
    mp = tuple(x + sm for x in mu)
    prod = {}
    right = schur_monomials(mp, n)
    for c1, v1 in schur_monomials(lp, n).items():
        for c2, v2 in right.items():
            key = tuple(a + b for a, b in zip(c1, c2))
            prod[key] = prod.get(key, 0) + v1 * v2
    out = {}
    while prod:
        top = max(prod)
        mult = prod[top]
        assert mult > 0 and tuple(sorted(top, reverse=True)) == top
        out[tuple(x - sl - sm for x in top)] = mult
        for content, v in schur_monomials(top, n).items():
            prod[content] = prod.get(content, 0) - mult * v
            if not prod[content]:
                del prod[content]
    return out


def _partitions_upto(total, max_rows):
    """All partitions of every size up to ``total`` with at most ``max_rows``
    rows, padded to weight tuples of length max_rows."""
    padded = (
        lam + (0,) * (max_rows - len(lam))
        for p in range(total + 1)
        for lam in _partitions(p, max_rows)
    )
    return sorted(padded, reverse=True)


def _shifted(lam, a):
    return tuple(x - a for x in lam)


FUSION_NAMES = ("un:2", "un:3", "su2", "torus:2")  # the fusion data the fusion suite checks


@_suite("fusion")
def suite_fusion(seed=DEFAULT_SEED):
    for n in (2, 3):

        def check_lr():
            # each pair of partitions, then shifted by -a(1,...,1) and
            # -b(1,...,1) down to weights whose first entries are 0, most of
            # them with negative entries: the oracle multiplies the partitions
            # once, its constituents shift by -(a + b), and the two are
            # compared in their decreasing order
            parts = _partitions_upto(LR_SIZE_CAP, n)
            count = 0
            for lam in parts:
                for mu in parts:
                    expected = list(schur_tensor_oracle(lam, mu, n).items())
                    for a in range(lam[0] + 1):
                        for b in range(mu[0] + 1):
                            got = fus.lr_tensor(_shifted(lam, a), _shifted(mu, b), n)
                            if list(got.items()) != [(_shifted(nu, a + b), m) for nu, m in expected]:
                                return False, f"mismatch at {lam} (x) {mu} shifted by -{a}, -{b}"
                            count += 1
            return True, f"{count} pairs: |lam|,|mu| <= {LR_SIZE_CAP}, shifted by -a, -b, a <= lam_1, b <= mu_1"

        yield f"lr-vs-schur-n{n}", "tableau counting agrees with the Schur polynomial product oracle", check_lr

    rng = random.Random(seed)
    for name in FUSION_NAMES:
        data = fus.fusion_instance(name)

        def check_assoc():
            for _ in range(FUSION_TRIPLES):
                a, b, c = (data.random_label(rng) for _ in range(3))
                left = {}
                for l1, m1 in data.tensor(a, b).items():
                    for l2, m2 in data.tensor(l1, c).items():
                        left[l2] = left.get(l2, 0) + m1 * m2
                right = {}
                for l1, m1 in data.tensor(b, c).items():
                    for l2, m2 in data.tensor(a, l1).items():
                        right[l2] = right.get(l2, 0) + m1 * m2
                if left != right:
                    return False, f"associativity fails at {a},{b},{c}"
            return True, f"{FUSION_TRIPLES} random triples"

        yield f"associativity-{name}", "tensor decompositions associate", check_assoc

        def check_dim():
            for _ in range(FUSION_TRIPLES):
                a, b = (data.random_label(rng) for _ in range(2))
                dec = data.tensor(a, b)
                if sum(m * data.dim(l) for l, m in dec.items()) != data.dim(a) * data.dim(b):
                    return False, f"dimension count fails at {a},{b}"
            return True, f"{FUSION_TRIPLES} random pairs"

        yield f"dimension-hom-{name}", "dimensions are multiplicative through decompositions", check_dim

        def check_frobenius():
            for _ in range(FUSION_TRIPLES):
                a, b = (data.random_label(rng) for _ in range(2))
                dec = data.tensor(a, b)
                probes = list(dec) + [data.random_label(rng)]
                for c in probes:
                    lhs = dec.get(c, 0)
                    rhs = 0
                    for l1, m1 in dec.items():
                        rhs += m1 * data.tensor(l1, data.dual(c)).get(data.unit, 0)
                    if lhs != rhs:
                        return False, f"Frobenius fails at {a},{b},{c}"
            return True, f"{FUSION_TRIPLES} random pairs"

        yield f"frobenius-{name}", "constituent multiplicity equals unit multiplicity against the dual", check_frobenius

        def check_duality():
            for _ in range(FUSION_TRIPLES):
                a = data.random_label(rng)
                if data.tensor(a, data.dual(a)).get(data.unit, 0) != 1:
                    return False, f"unit multiplicity != 1 at {a}"
                if data.dual(data.dual(a)) != a:
                    return False, f"dual not involutive at {a}"
            return True, f"{FUSION_TRIPLES} random labels"

        yield f"duality-{name}", "the unit appears once against the dual; the dual is involutive", check_duality

    def check_graded():
        for name in FUSION_NAMES:
            data = fus.fusion_instance(name)
            for _ in range(FUSION_TRIPLES):
                a = data.random_label(rng)
                b = data.random_label(rng)
                xa = (a, data.grade(a) % 2)
                xb = (b, data.grade(b) % 2)
                out = fus.astar_tensor(data, xa, xb)
                for (lbl, parity), _m in out.items():
                    if parity != (xa[1] + xb[1]) % 2:
                        return False, "parity is not the XOR of the inputs"
                    if data.grade(lbl) % 2 != parity:
                        return False, "output violates the parity invariant"
                    # the twist on b, when a is odd, negates its integer grade
                    if data.integer_graded and data.grade(lbl) != data.grade(a) + (-1) ** xa[1] * data.grade(b):
                        return False, f"integer grade wrong on {name}"
                dual = fus.astar_dual(data, xa)
                if fus.astar_dual(data, dual) != xa:
                    return False, "graded dual not involutive"
                if fus.crossed_tensor(data, xa, dual).get((data.unit, 0), 0) != 1:
                    return False, "unit multiplicity != 1 against the graded dual"
        return True, "parities, integer grades, graded duals"

    yield "graded-structure", "graded products respect parity and integer grades; graded duality holds", check_graded

    def check_witness():
        data = fus.UnFusion(3)
        x = ((1, 0, 0), 1)
        y = ((1, 1, 0), 0)
        xy = fus.astar_tensor(data, x, y)
        yx = fus.astar_tensor(data, y, x)
        return xy != yx, f"x(x)y = {sorted(xy)} vs y(x)x = {sorted(yx)}"

    yield "noncommutative-witness", "the graded fusion ring is noncommutative for n = 3", check_witness


@_suite("moments")
def suite_moments(p_max=PMAX_DEFAULT):
    expected = {1: 1, 2: 2}

    for n, k in MOMENT_CASES:

        def check():
            count, value = fus.moment_crosscheck(n, k, p_max=p_max)
            if value != GaussianRational(count):
                return False, f"fusion count {count} != Haar value {value}"
            if k in expected and count != expected[k]:
                return False, f"count {count} != expected {expected[k]}"
            return True, f"both engines give {count}"

        yield f"moment-n{n}-k{k}", "trivial multiplicity from fusion equals the exact character moment", check


def suite_params(suite: str):
    """The parameter names of a named suite; an unknown suite raises
    ``ValueError``."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; available: {', '.join(sorted(SUITES))}")
    return inspect.signature(SUITES[suite]).parameters


def _accepted(suite, params):
    """Those of ``params`` that the named suite takes; an unknown suite
    raises ``ValueError``."""
    accepted = suite_params(suite)
    return {k: v for k, v in params.items() if k in accepted}


def run_verify(suite: str, **params) -> VerifyReport:
    """Run a named suite with those of ``params`` that it accepts; the rest
    are ignored, so one set of parameters serves every suite of ``verify
    --suite all``.  An unknown suite raises ``ValueError``."""
    return SUITES[suite](**_accepted(suite, params))


def check_caps(suite: str, **params) -> None:
    """Raise the ``ValueError`` that ``run_verify(suite, **params)`` raises
    for parameters over a resource cap, without running any check: the
    closure letters of rewrite-oracle and ah-zero, the generator triples of
    half-comm, the faithfulness pair count, the basis products of hopf, the
    biunitarity products of pun, the coproduct terms of sequence, and the
    draws of kn, predicates and u2n."""
    params = _accepted(suite, params)
    if suite in CAPS:
        CAPS[suite](**params)
