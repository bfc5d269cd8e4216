import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from halfcomm.crossed import (
    CrossedElement,
    FunElement,
    FunMonomial,
    crossed_coproduct,
    crossed_mul,
    crossed_star,
    embed_pi,
)
from halfcomm.errors import DegreeCapError, DimensionMismatchError
from halfcomm.groups import evaluate_fun_batch, parse_model, sample_batch
from halfcomm.haar import (
    MC_CHUNK,
    _TABLE_CACHE,
    haar_integral,
    haar_state,
    mc_integral,
    mc_integrals,
    norm_equal,
    norm_squared,
    weingarten_table,
    witness_refutes,
    _compose,
    _cycle_type,
    _integral,
    _inverse,
    _partitions,
    _permutations,
    _type_code,
    _witness,
)
from halfcomm.scalars import GaussianRational
from halfcomm.verify import _all_words, _at_witness, _random_crossed, _random_fun
from halfcomm.words import WordElement, ao_star, au_star_star, hc_normal_form, letter
from tests_helpers import (
    crossed_parities,
    lean_cases,
    ref_crossed_mul,
    ref_crossed_star,
    u,
    ub,
)


def mono(n, us, ubars):
    exps = {}
    for i, j in us:
        exps[(i, j, False)] = exps.get((i, j, False), 0) + 1
    for i, j in ubars:
        exps[(i, j, True)] = exps.get((i, j, True), 0) + 1
    return FunElement(n, {FunMonomial(exps): 1})


# -- the Weingarten table -----------------------------------------------------


def test_table_p1():
    for n in (1, 2, 5):
        t = weingarten_table(1, n)
        assert t.wg((0,)) == Fraction(1, n)
        assert not t.pseudo


def test_table_p2_frozen():
    # invert [[n^2, n], [n, n^2]] by hand
    for n in (2, 3):
        t = weingarten_table(2, n)
        assert t.wg((0, 1)) == Fraction(1, n * n - 1)
        assert t.wg((1, 0)) == Fraction(-1, n * (n * n - 1))


def test_table_row_sums():
    # sum_s Wg(s) n^cycles(s) = 1, the identity column of the inverse; only
    # meaningful in the invertible regime (below it G G+ is a projection)
    for p, n in ((2, 2), (3, 3), (2, 4)):
        t = weingarten_table(p, n)
        total = sum(t.wg(s) * Fraction(n ** len(_cycle_type(s))) for s in _permutations(p))
        assert total == 1


def test_table_class_function_and_inversion_symmetry():
    for p, n in ((3, 3), (3, 2), (4, 3)):
        t = weingarten_table(p, n)
        by_type = {}
        for s in _permutations(p):
            key = tuple(sorted(_cycle_lengths(s)))
            by_type.setdefault(key, set()).add(t.wg(s))
        assert all(len(vals) == 1 for vals in by_type.values())
        for s in _permutations(p):
            assert t.wg(s) == t.wg(_inverse(s))


def _cycle_lengths(s):
    seen = [False] * len(s)
    out = []
    for a in range(len(s)):
        if seen[a]:
            continue
        length = 0
        b = a
        while not seen[b]:
            seen[b] = True
            b = s[b]
            length += 1
        out.append(length)
    return out


def test_table_inverse_identity():
    # the Gram product summed permutation by permutation, the brute-force
    # check of verify.class_convolution, which the convolution-form test reads
    for p in (1, 2, 3):
        for n in (3, 4):
            t = weingarten_table(p, n)
            for s in _permutations(p):
                for r in _permutations(p):
                    total = sum(
                        Fraction(n ** len(_cycle_type(_compose(s, _inverse(tt))))) * t.wg(_compose(tt, _inverse(r)))
                        for tt in _permutations(p)
                    )
                    assert total == (1 if s == r else 0)


def test_table_gram_identities_convolution_form():
    # G W = I (n >= p) and G W G = G (n < p) as class-function convolutions,
    # g*w = delta_e and g*w*g = g with g(s) = n^cycles(s); see suite_weingarten
    from halfcomm.verify import class_convolution

    for p, n in ((5, 2), (5, 3), (5, 5), (6, 3), (6, 6)):
        t = weingarten_table(p, n, p_max=6)
        assert t.pseudo == (n < p)
        g = lambda s: Fraction(n ** len(_cycle_type(s)))
        gw = class_convolution(g, t.wg, p)
        if not t.pseudo:
            assert gw == {ct: int(len(ct) == p) for ct in gw}, (p, n)
        gwg = class_convolution(lambda s: gw[_cycle_type(s)], g, p)
        assert gwg == {ct: n ** len(ct) for ct in gwg}, (p, n)


def test_table_pseudo_regime_flag():
    assert weingarten_table(3, 2).pseudo
    assert weingarten_table(4, 3).pseudo
    assert not weingarten_table(3, 3).pseudo


def test_table_degree_cap():
    with pytest.raises(DegreeCapError):
        weingarten_table(6, 6)


def test_memoised_characters_give_the_tables_of_the_plain_recursion(fresh_tables, monkeypatch):
    from halfcomm import haar

    memoised = {(p, n): weingarten_table(p, n, p).values for p in range(1, 9) for n in range(1, p + 2)}
    _TABLE_CACHE.clear()
    # the recursion looks its subproblems up by the module name, so every level is unmemoised
    monkeypatch.setattr(haar, "_character", haar._character.__wrapped__)
    assert {(p, n): weingarten_table(p, n, p).values for p, n in memoised} == memoised


# -- exact integrals ------------------------------------------------------------


def test_integral_frozen_examples():
    assert haar_integral(u(2, 1, 1) * ub(2, 1, 1)) == GaussianRational(Fraction(1, 2))
    assert haar_integral(u(2, 1, 1)) == GaussianRational(0)
    for n in (2, 3):
        total = FunElement.zero(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                total = total + mono(n, [(i, i)], [(j, j)])
        assert haar_integral(total) == GaussianRational(1)


def test_integral_degree_two_frozen():
    # |u11|^2 |u12|^2 integrates to 1/(n(n+1)); |u11 u22|^2 to Wg(e) = 1/(n^2-1)
    val = haar_integral(mono(2, [(1, 1), (1, 2)], [(1, 1), (1, 2)]))
    assert val == GaussianRational(Fraction(1, 6))
    val = haar_integral(mono(2, [(1, 1), (2, 2)], [(1, 1), (2, 2)]))
    assert val == GaussianRational(Fraction(1, 3))
    val = haar_integral(mono(3, [(1, 1), (1, 2)], [(1, 1), (1, 2)]))
    assert val == GaussianRational(Fraction(1, 12))


def test_entry_moments_closed_form():
    # E|u11|^(2k) = k! (n-1)! / (k+n-1)! = 1/C(n-1+k, k); k >= n exercises
    # the singular-regime pseudo-inverse, and k up to 10 a double coset of
    # all of S_k
    for n in (2, 3):
        for k in range(1, 11):
            f = mono(n, [(1, 1)] * k, [(1, 1)] * k)
            expect = Fraction(1, math.comb(n - 1 + k, k))
            assert haar_integral(f, p_max=k) == GaussianRational(expect), (n, k)


def test_full_entry_product_moment():
    # int |u11 u12 u21 u22|^2 over U(2) = E[t^2 (1-t)^2] with t uniform on
    # [0,1] (the squared moduli of a 2x2 unitary are t, 1-t, 1-t, t), which is
    # the Beta integral B(3,3) = 1/30; exercises the p=4 singular-regime table
    exps = {}
    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
        exps[(i, j, False)] = 1
        exps[(i, j, True)] = 1
    f = FunElement(2, {FunMonomial(exps): 1})
    assert haar_integral(f) == GaussianRational(Fraction(1, 30))


@pytest.mark.parametrize("p, n", [(p, n) for p in range(1, 6) for n in range(1, 6)])
def test_table_numerators_over_common_denominator(p, n):
    table = weingarten_table(p, n)
    # one code per cycle type, so the walk's counts find their numerators
    assert table.numerators.keys() == {_type_code(mu, p) for mu in table.values}
    assert len(table.numerators) == len(table.values) == len(list(_partitions(p, p)))
    assert all(Fraction(table.numerators[_type_code(mu, p)], table.denominator) == v for mu, v in table.values.items())
    # the denominator is the least common one
    assert math.gcd(table.denominator, *table.numerators.values()) == 1


def test_partitions_match_a_brute_force_enumeration():
    # every multiset of positive parts summing to the total, in descending
    # lexicographic order, so the skipped first parts hide no partition
    for total in range(9):
        for parts in range(total + 2):
            every = sorted(
                (tuple(sorted(c, reverse=True))
                 for k in range(min(parts, total) + 1)
                 for c in itertools.combinations_with_replacement(range(1, total + 1), k)
                 if sum(c) == total),
                reverse=True,
            )
            assert list(_partitions(total, parts)) == every, (total, parts)
            for largest in range(1, total + 1):
                assert list(_partitions(total, parts, largest)) == [lam for lam in every if lam[0] <= largest]


def _filtered_monomial_integral(mono, n):
    """The integral as a sum over matching (sigma, tau) pairs filtered from all
    of S_p, one Weingarten lookup per pair; the reference for the
    double-coset sum."""
    us = [(i, j) for (i, j, b) in mono.symbols() if not b]
    ubars = [(i, j) for (i, j, b) in mono.symbols() if b]
    if len(us) != len(ubars):
        return Fraction(0)
    p = len(us)
    if p == 0:
        return Fraction(1)
    table = weingarten_table(p, n, p_max=p)
    perms = _permutations(p)
    sigmas = [s for s in perms if all(us[a][0] == ubars[s[a]][0] for a in range(p))]
    taus = [t for t in perms if all(us[a][1] == ubars[t[a]][1] for a in range(p))]
    return sum((table.wg(_compose(t, _inverse(s))) for s in sigmas for t in taus), Fraction(0))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_monomial_integral_matches_filtered_permutations(n):
    # p <= 5 on both sides of n = p; the conjugate factors mostly permute the
    # plain ones, so that most integrals are nonzero
    rng = random.Random(700 + n)
    nonzero = 0
    for p in range(1, 6):
        for _ in range(12):
            us = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(p)]
            ubars = rng.sample(us, p) if rng.random() < 0.7 else [(rng.randint(1, n), rng.randint(1, n)) for _ in range(p)]
            f = mono(n, us, ubars)
            (m,) = f.terms
            got = _integral(m, n, 5)
            # the integer sum over the table's common denominator, one Fraction
            assert type(got) is Fraction
            assert got == _filtered_monomial_integral(m, n), (n, us, ubars)
            nonzero += got != 0
    assert nonzero >= 30
    if n == 2:
        (m,) = mono(2, [(1, 1)] * 5, [(1, 1)] * 5).terms
        assert _integral(m, 2, 5) == _filtered_monomial_integral(m, 2) == Fraction(1, 6)
    # few classes of many equal factors, and degree 6 over n > 1, where the
    # pairs to filter stay few
    for p in range(2, 6):
        for _ in range(6):
            pool = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(2)]
            us = [rng.choice(pool) for _ in range(p)]
            (m,) = mono(n, us, rng.sample(us, p)).terms
            assert _integral(m, n, 5) == _filtered_monomial_integral(m, n), (n, us)
    for _ in range(4 if n > 1 else 0):
        us = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(6)]
        (m,) = mono(n, us, rng.sample(us, 6)).terms
        assert _integral(m, n, 6) == _filtered_monomial_integral(m, n), (n, us)


def _relabelled(m, rows, cols):
    """m with row i renamed rows[i - 1] and column j renamed cols[j - 1]."""
    return FunMonomial({(rows[i - 1], cols[j - 1], b): e for (i, j, b), e in m})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integral_cold_and_warm_match_filtered_permutations(n):
    # each balanced monomial, under random row and column relabellings and
    # under bar, integrates like the filtered reference with its table's
    # memo emptied first and again with the memo full
    rng = random.Random(900 + n)
    for p in range(1, 6):
        table = weingarten_table(p, n)
        for _ in range(8):
            us = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(p)]
            ubars = rng.sample(us, p) if rng.random() < 0.7 else [(rng.randint(1, n), rng.randint(1, n)) for _ in range(p)]
            (m,) = mono(n, us, ubars).terms
            variants = [m, m.bar()]
            for _ in range(3):
                r = _relabelled(m, rng.sample(range(1, n + 1), n), rng.sample(range(1, n + 1), n))
                variants += [r, r.bar()]
            expected = _filtered_monomial_integral(m, n)
            table.monomials.clear()
            assert [_integral(v, n, 5) for v in variants] == [expected] * len(variants), (n, us, ubars)
            assert [_integral(v, n, 5) for v in variants] == [expected] * len(variants), (n, us, ubars)


def test_monomial_memo_is_per_dimension():
    # the same monomials over n = 1..4 in turn, each integrated after the
    # smaller dimensions have memoised it
    monos = [([(1, 1)] * p, [(1, 1)] * p) for p in range(1, 6)]
    monos += [([(1, 1), (1, 1), (2, 2)], [(1, 2), (2, 1), (1, 1)]), ([(1, 2), (2, 1)], [(1, 1), (2, 2)])]
    for n in (1, 2, 3, 4):
        for us, ubars in monos:
            if max(max(ij) for ij in us + ubars) <= n:
                (m,) = mono(n, us, ubars).terms
                assert _integral(m, n, 5) == _filtered_monomial_integral(m, n), (n, us, ubars)


def test_integral_keeps_plain_and_conjugate_apart():
    # equal totals per cell, split differently between plain and conjugate
    # factors: |u11|^2 |u12|^2 against u11^2 ubar12^2 and u11 u12^2 ubar11^2 ubar12
    n = 2
    weingarten_table(4, n).monomials.clear()
    pairs = [
        ([(1, 1), (1, 1), (1, 2), (1, 2)], [(1, 1), (1, 1), (1, 2), (1, 2)]),
        ([(1, 1), (1, 1), (1, 1), (1, 1)], [(1, 2), (1, 2), (1, 2), (1, 2)]),
        ([(1, 1), (1, 2), (1, 2), (2, 1)], [(1, 1), (1, 1), (1, 2), (2, 2)]),
        ([(1, 1), (1, 1), (1, 2), (2, 2)], [(1, 1), (1, 2), (1, 2), (2, 1)]),
    ]
    values = []
    for us, ubars in pairs:
        (m,) = mono(n, us, ubars).terms
        values.append(_integral(m, n, 5))
        assert values[-1] == _filtered_monomial_integral(m, n), (us, ubars)
    assert values[0] != 0 and values[1] == 0


@pytest.fixture
def fresh_tables():
    """An empty ``_TABLE_CACHE`` for the test, the saved tables put back after."""
    saved = dict(_TABLE_CACHE)
    _TABLE_CACHE.clear()
    yield
    _TABLE_CACHE.clear()
    _TABLE_CACHE.update(saved)


def test_degree_cap_holds_on_a_miss_and_on_a_hit(fresh_tables):
    (m,) = mono(2, [(1, 1)] * 3 + [(1, 2)] * 3, [(1, 1)] * 3 + [(1, 2)] * 3).terms
    with pytest.raises(DegreeCapError):
        _integral(m, 2, 5)
    value = _integral(m, 2, 6)
    assert value == _filtered_monomial_integral(m, 2)
    assert weingarten_table(6, 2, p_max=6).monomials == {m: value}
    with pytest.raises(DegreeCapError):
        _integral(m, 2, 5)


def test_cleared_tables_start_with_empty_memos(fresh_tables):
    (m,) = mono(2, [(1, 1), (1, 2)], [(1, 1), (1, 2)]).terms
    value = _integral(m, 2, 5)
    before = weingarten_table(2, 2)
    assert before.monomials == {m: value}
    _TABLE_CACHE.clear()
    after = weingarten_table(2, 2)
    assert after is not before and after.monomials == {}
    assert _integral(m, 2, 5) == value == _filtered_monomial_integral(m, 2)
    assert after.monomials == {m: value}


def _margin_matched(rng, us):
    """Conjugate cells with the rows and the columns of ``us``, each list
    shuffled on its own, so that most integrals are non-zero and most
    monomials differ from their conjugates."""
    rows, cols = [i for i, _ in us], [j for _, j in us]
    rng.shuffle(rows)
    rng.shuffle(cols)
    return list(zip(rows, cols))


def _counting_walks(monkeypatch):
    """Count the calls of ``haar._coset_integral`` from now on."""
    from halfcomm import haar

    walks, walk = [], haar._coset_integral
    monkeypatch.setattr(haar, "_coset_integral", lambda *args: walks.append(args) or walk(*args))
    return walks


def test_monomial_memo_hit_keeps_the_degree_cap(fresh_tables):
    # the degree-3 table holds the monomial, yet a cap below 3 refuses it,
    # alone and inside a polynomial, as it refuses a monomial never seen
    (m,) = mono(2, [(1, 1), (1, 2), (2, 1)], [(1, 1), (1, 2), (2, 1)]).terms
    answer = _integral(m, 2, 5)
    assert weingarten_table(3, 2).monomials == {m: answer}
    assert _integral(m, 2, 3) == answer
    for p_max in (1, 2):
        with pytest.raises(DegreeCapError):
            _integral(m, 2, p_max)
        with pytest.raises(DegreeCapError):
            haar_integral(FunElement(2, {m: 1}), p_max=p_max)


def test_monomial_memo_goes_with_its_table(fresh_tables, monkeypatch):
    walks = _counting_walks(monkeypatch)
    (m,) = mono(3, [(1, 1), (2, 3)], [(1, 3), (2, 1)]).terms
    value = _integral(m, 3, 5)
    assert value == _filtered_monomial_integral(m, 3) != 0
    assert len(walks) == 1
    assert _integral(m, 3, 5) == value and len(walks) == 1  # a memo hit walks nothing
    _TABLE_CACHE.clear()
    assert _integral(m, 3, 5) == value and len(walks) == 2  # the new table walks again
    assert set(weingarten_table(2, 3).monomials) == {m}


def test_monomial_memo_stops_growing_at_its_cap(fresh_tables, monkeypatch):
    from halfcomm import haar

    monkeypatch.setattr(haar, "MONOMIAL_MEMO_CAP", 4)
    rng = random.Random(2311)
    monos = []
    while len(monos) < 12:
        us = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(3)]
        (m,) = mono(3, us, _margin_matched(rng, us)).terms
        if m not in monos:
            monos.append(m)
    expected = [_filtered_monomial_integral(m, 3) for m in monos]
    assert sum(v != 0 for v in expected) >= 6
    table = weingarten_table(3, 3)
    for rep in range(2):
        assert [_integral(m, 3, 5) for m in monos] == expected, rep
        assert list(table.monomials) == monos[:4]
    assert haar_integral(FunElement(3, {m: k + 1 for k, m in enumerate(monos)})) == sum(
        (GaussianRational(k + 1) * v for k, v in enumerate(expected)), GaussianRational(0))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cold_pass_walks_once_per_distinct_monomial_per_table(n, fresh_tables, monkeypatch):
    # random balanced monomials of degrees 1..4, with repeats, conjugates and
    # row and column relabellings among them, next to unbalanced ones and the
    # constant: a cold pass walks each distinct balanced monomial of degree
    # >= 1 once, and a warm pass walks none and gives the same values
    walks = _counting_walks(monkeypatch)
    rng = random.Random(2400 + n)
    monos = [FunMonomial({})]
    for _ in range(40):
        p = rng.randint(1, 4)
        us = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(p)]
        (m,) = mono(n, us, _margin_matched(rng, us) if rng.random() < 0.8 else us[1:]).terms
        monos += [m, rng.choice([m, m.bar(), _relabelled(m, rng.sample(range(1, n + 1), n), list(range(1, n + 1)))])]
    balanced = {m for m in monos if m.degree and 2 * sum(e for (_i, _j, b), e in m if b) == m.degree}
    assert len(balanced) >= 20 and len(balanced) < len(monos) - 1
    cold = [_integral(m, n, 5) for m in monos]
    assert cold == [_filtered_monomial_integral(m, n) for m in monos]
    assert len(walks) == len(balanced)
    assert sum(len(weingarten_table(p, n).monomials) for p in range(1, 5)) == len(balanced)
    assert [_integral(m, n, 5) for m in monos] == cold and len(walks) == len(balanced)


def test_integral_of_a_monomial_next_to_its_conjugate(fresh_tables):
    # a miss and then a hit give one value; a polynomial that holds a
    # monomial and its conjugate integrates like the sum of its terms
    rng = random.Random(2312)
    paired = 0
    for _ in range(60):
        n = rng.randint(2, 3)
        us = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(2, 3))]
        (m,) = mono(n, us, _margin_matched(rng, us)).terms
        value = _filtered_monomial_integral(m, n)
        assert _integral(m, n, 5) == _integral(m, n, 5) == _integral(m.bar(), n, 5) == value
        paired += m.bar() != m and value != 0
        f = FunElement(n, {m: GaussianRational(2, 1), m.bar(): GaussianRational(Fraction(1, 3))})
        expected = sum((c * _filtered_monomial_integral(t, n) for t, c in f.terms.items()), GaussianRational(0))
        assert haar_integral(f) == haar_integral(f) == expected
    assert paired >= 10, paired


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integral_of_bar_and_of_self_conjugate_monomials(n, monkeypatch):
    # a balanced monomial and its conjugate integrate alike, each walked once
    # from an empty memo; so does bar(h) h, its own conjugate
    walks = _counting_walks(monkeypatch)
    rng = random.Random(1900 + n)
    distinct = 0
    for p in range(1, 5):
        table = weingarten_table(p, n)
        for _ in range(15):
            us = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(p)]
            ubars = rng.sample(us, p) if rng.random() < 0.5 else [(rng.randint(1, n), rng.randint(1, n)) for _ in range(p)]
            (m,) = mono(n, us, ubars).terms
            distinct += m.bar() != m
            table.monomials.clear()
            walks.clear()
            value = _integral(m, n, 5)
            assert value == _filtered_monomial_integral(m, n), (us, ubars)
            assert _integral(m.bar(), n, 5) == value
            assert len(walks) == len({m, m.bar()}), (us, ubars)
        for _ in range(10):
            (half,) = mono(n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(1, p))], []).terms
            (m,) = (FunElement(n, {half.bar(): 1}) * FunElement(n, {half: 1})).terms
            assert m.bar() == m
            assert _integral(m, n, 5) == _filtered_monomial_integral(m, n)
    # over n = 1 every balanced monomial is its own conjugate
    assert distinct or n == 1


def test_degree_cap_precedes_label_mismatch():
    # rows and columns of the plain and conjugate factors differ, so the
    # integral is 0 below the cap; above it the cap is raised all the same
    (m,) = mono(2, [(1, 1)] * 6, [(2, 2)] * 6).terms
    assert _integral(m, 2, 6) == 0
    with pytest.raises(DegreeCapError):
        _integral(m, 2, 5)


def test_unbalanced_monomials_vanish():
    assert haar_integral(mono(2, [(1, 1), (1, 2)], [(2, 1)])) == GaussianRational(0)
    assert haar_integral(mono(3, [], [(2, 1)])) == GaussianRational(0)


def test_integral_degree_cap():
    f = mono(2, [(1, 1)] * 6, [(1, 1)] * 6)
    with pytest.raises(DegreeCapError):
        haar_integral(f)


# -- the state and the norm -------------------------------------------------------


def test_state_examples():
    assert haar_state(CrossedElement.one(2)) == GaussianRational(1)
    assert haar_state(CrossedElement.odd(u(2, 1, 1) * ub(2, 1, 1))) == GaussianRational(0)
    pres = ao_star(2)
    w = WordElement.from_word(pres, (letter(pres, 1, 1), letter(pres, 1, 1)))
    assert haar_state(embed_pi(w)) == GaussianRational(Fraction(1, 2))


def test_state_positivity():
    rng = random.Random(19)
    for n in (2, 3):
        for _ in range(50):
            x = _random_crossed(rng, n, max_degree=2)
            val = haar_state(crossed_mul(crossed_star(x), x))
            assert val.im == 0 and val.re >= 0


def test_norm_equal_examples():
    pres = ao_star(2)

    def img(*pairs):
        return embed_pi(WordElement.from_word(pres, tuple(letter(pres, r, c) for r, c in pairs)))

    assert norm_equal(img((1, 1), (2, 2), (1, 2)), img((1, 2), (2, 2), (1, 1)))
    assert not norm_equal(img((1, 1), (2, 2)), img((2, 2), (1, 1)))
    assert norm_squared(img((1, 1), (2, 2)) - img((2, 2), (1, 1))) == Fraction(2, 3)
    total = CrossedElement.zero(2)
    for k in (1, 2):
        total = total + img((1, k), (2, k))
    assert norm_equal(total, CrossedElement.zero(2))


def _norm_by_expansion(x, p_max=5):
    val = haar_state(crossed_mul(crossed_star(x), x), p_max=p_max)
    assert val.im == 0
    return val.re


@pytest.mark.parametrize("n", [2, 3])
def test_norm_squared_matches_full_expansion_on_random_elements(n):
    rng = random.Random(610 + n)
    for _ in range(100):
        x = _random_crossed(rng, n, max_degree=4)
        assert norm_squared(x) == _norm_by_expansion(x)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_norm_squared_matches_the_constructor_reference(n):
    # the lean x* x expansion against one rebuilt term by term through the
    # constructor, on elements of both parities whose sums cancel
    rng = random.Random(2000 + n)
    for f, g in lean_cases(rng, n, 8, max_degree=2):
        for x in crossed_parities(f, g):
            expected = haar_integral(ref_crossed_mul(ref_crossed_star(x), x).f0)
            assert expected.im == 0
            assert norm_squared(x) == expected.re


@pytest.mark.parametrize("pres", [ao_star(2), au_star_star(1)], ids=str)
def test_norm_squared_matches_full_expansion_on_embedded_words(pres):
    for length in range(1, 5):
        for word in _all_words(pres, length):
            x = embed_pi(WordElement(pres, {word: GaussianRational(1, length)}))
            assert norm_squared(x) == _norm_by_expansion(x), word


def test_norm_squared_matches_full_expansion_on_word_sums():
    # many terms of equal torus weight: (v11 + v12 + v21 + v22)^3 minus
    # (v11 + v12 + v21 + v22)^2 v11 over ao-star:2
    pres = ao_star(2)
    total = WordElement(pres, {(letter(pres, r, c),): 1 for r in (1, 2) for c in (1, 2)})
    square = total * total
    x = embed_pi(square * total - square * WordElement(pres, {(letter(pres, 1, 1),): 1}))
    assert norm_squared(x) == _norm_by_expansion(x) > 0


def test_norm_squared_degree_cap():
    x = CrossedElement.odd(u(2, 1, 1) * u(2, 1, 2) * ub(2, 2, 1) * u(2, 2, 2) * u(2, 1, 1) * ub(2, 1, 1))
    assert norm_squared(x, p_max=6) == _norm_by_expansion(x, p_max=6)
    with pytest.raises(DegreeCapError):
        norm_squared(x)
    # beyond the cap, norm_equal answers a pair the witness point refutes and
    # raises for one it cannot: y equals x on U(2), the first row being a unit
    zero = CrossedElement.zero(2)
    assert witness_refutes(x) and not norm_equal(x, zero)
    y = x * CrossedElement.even(u(2, 1, 1) * ub(2, 1, 1) + u(2, 1, 2) * ub(2, 1, 2))
    assert not witness_refutes(x - y)
    with pytest.raises(DegreeCapError):
        norm_equal(x, y)


# -- the witness point -------------------------------------------------------------


def _exact_det(rows):
    """The determinant of a square matrix, by elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        r = next((r for r in range(c, len(m)) if m[r][c]), None)
        if r is None:
            return Fraction(0)
        if r != c:
            m[c], m[r], det = m[r], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


@pytest.mark.parametrize("n", range(1, 9))
def test_witness_point_is_an_integer_matrix_and_its_transposed_inverse(n):
    # the symbols map to g and D g^-T: integers, D the least denominator of
    # g^-1; g is off SL_n, and its n^2 entries are pairwise distinct
    values, den = _witness(n)
    assert _witness(n)[0] is values
    assert all(type(v) is int for v in values.values())
    idx = range(1, n + 1)
    g = [[values[i, j, False] for j in idx] for i in idx]
    inv = [[Fraction(values[j, i, True], den) for j in idx] for i in idx]
    assert [[sum(g[a][k] * inv[k][b] for k in range(n)) for b in range(n)] for a in range(n)] == [
        [int(a == b) for b in range(n)] for a in range(n)
    ]
    assert math.lcm(*(v.denominator for row in inv for v in row)) == den
    assert abs(_exact_det(g)) >= 2
    assert len({v for row in g for v in row}) == n * n


def _det_u(n):
    """det u, the sum over S_n of sign(s) u_{1 s(1)} ... u_{n s(n)}."""
    total = FunElement.zero(n)
    for s in itertools.permutations(range(n)):
        term = FunElement.one(n) * (-1) ** sum(s[a] > s[b] for a, b in itertools.combinations(range(n), 2))
        for i in range(n):
            term = term * u(n, i + 1, s[i] + 1)
        total = total + term
    return total


def test_witness_refutes_identities_of_special_unitary_groups():
    # u11 = 1 on SU(1), u11 = conj(u22) on SU(2), det u = 1 on SU(n): none
    # holds on U(n), and the witness point, off SL_n, refutes each of them
    cases = [u(1, 1, 1) - FunElement.one(1), u(2, 1, 1) - ub(2, 2, 2)]
    cases += [_det_u(n) - FunElement.one(n) for n in (2, 3)]
    for f in cases:
        for x in (CrossedElement.even(f), CrossedElement.odd(f)):
            assert witness_refutes(x), f
            assert norm_squared(x) > 0 and not norm_equal(x, CrossedElement.zero(f.n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_witness_refutes_like_a_gaussian_rational_evaluation(n):
    # f, and f minus its own value at the point, which vanishes there; the
    # coefficients have denominators and the terms mixed degrees, so a term
    # scaled by the wrong power of the point's denominator shows
    rng = random.Random(2000 + n)
    zeros = 0
    for _ in range(40):
        f = _random_fun(rng, n, max_degree=4, terms=4) * GaussianRational(Fraction(1, rng.randint(1, 6)), Fraction(1, 3))
        g = f - FunElement.one(n) * _at_witness(f)
        for h in (f, g):
            for x in (CrossedElement.even(h), CrossedElement.odd(h), CrossedElement(g, h)):
                expected = bool(_at_witness(x.f0)) or bool(_at_witness(x.f1))
                assert witness_refutes(x) == expected, x
                zeros += not expected
    assert zeros >= 40


def _unitarity_relations(n):
    """The entries of u u* - 1 and u* u - 1, which vanish on U(n)."""
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            rows = sum((u(n, a, k) * ub(n, b, k) for k in range(1, n + 1)), FunElement.zero(n))
            cols = sum((ub(n, k, a) * u(n, k, b) for k in range(1, n + 1)), FunElement.zero(n))
            unit = FunElement.one(n) * (a == b)
            yield rows - unit
            yield cols - unit


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_witness_never_refutes_unitarity_relations(n):
    for f in _unitarity_relations(n):
        for x in (CrossedElement.even(f), CrossedElement.odd(f)):
            assert norm_squared(x) == 0
            assert not witness_refutes(x)


def _word_relations(pres):
    """Word elements whose images vanish on the group: the entries of v v* - 1
    over ao-star, and the column norms (v v* + v* v)/2 - 1 over au-star-star,
    the unitary presentation embedded over the doubled dimension."""
    n = pres.n
    for a in range(1, n + 1):
        if pres.orthogonal:
            for b in range(1, n + 1):
                terms = {(letter(pres, a, k), letter(pres, b, k)): 1 for k in range(1, n + 1)}
                yield WordElement(pres, {**terms, (): -int(a == b)})
        else:
            terms = {(): -1}
            for i in range(1, n + 1):
                v, vs = letter(pres, i, a), letter(pres, i, a, True)
                terms[v, vs] = terms[vs, v] = Fraction(1, 2)
            yield WordElement(pres, terms)


def _random_word(rng, pres, length):
    n = pres.n
    return tuple(letter(pres, rng.randint(1, n), rng.randint(1, n), not pres.orthogonal and rng.random() < 0.5)
                 for _ in range(length))


@pytest.mark.parametrize("pres", [ao_star(2), ao_star(3), ao_star(4), au_star_star(1), au_star_star(2)], ids=str)
def test_norm_equal_matches_the_norm_on_seeded_pairs(pres):
    # y is x plus a relation sandwiched between random words (equal on the
    # group, so the witness point must not refute it) or x plus a random word
    # (unequal); norm_equal agrees with the vanishing of the norm either way
    rng = random.Random(f"seeded pairs {pres}")
    relations = list(_word_relations(pres))
    coeffs = (1, -1, 2, Fraction(1, 2), GaussianRational(1, -1))
    refuted = 0
    for k in range(16):
        equal = k % 2 == 0
        x = WordElement(pres, {_random_word(rng, pres, length): rng.choice(coeffs) for length in (3, 2)})
        if equal:
            room = rng.randint(0, 2)
            left = rng.randint(0, room)
            a, b = _random_word(rng, pres, left), _random_word(rng, pres, room - left)
            c = rng.choice(coeffs)
            extra = WordElement(pres, {a + w + b: c * t for w, t in rng.choice(relations).terms.items()})
        else:
            extra = WordElement(pres, {_random_word(rng, pres, 4): rng.choice(coeffs)})
        d = embed_pi(extra)
        assert (norm_squared(d) == 0) == equal
        if witness_refutes(d):
            assert not equal
            refuted += 1
        xs, ys = embed_pi(x), embed_pi(x + extra)
        assert norm_equal(xs, ys) == (norm_squared(xs - ys) == 0) == equal
    assert refuted == 8


def test_faithfulness_small_battery():
    # the exact norm decides function equality on the group.  Distinct normal
    # forms can coincide as functions: 2x2 unitarity forces |u11| = |u22| and
    # |u12| = |u21|, giving exactly two coinciding pairs at length <= 2.
    from halfcomm.verify import pointwise_equal

    pres = ao_star(2)
    forms = {()}
    for length in (1, 2):
        forms.update(hc_normal_form(word) for word in _all_words(pres, length))
    forms = sorted(forms, key=lambda w: (len(w), w))
    images = [embed_pi(WordElement.from_word(pres, w)) for w in forms]
    coinciding = []
    for a in range(len(forms)):
        for b in range(a, len(forms)):
            got = norm_equal(images[a], images[b])
            assert got == pointwise_equal(images[a], images[b])
            if a == b:
                assert got
            elif got:
                coinciding.append((forms[a], forms[b]))

    def w(*pairs):
        return tuple(letter(pres, r, c) for r, c in pairs)

    assert coinciding == [
        (w((1, 1), (1, 1)), w((2, 2), (2, 2))),
        (w((1, 2), (1, 2)), w((2, 1), (2, 1))),
    ]


def test_pointwise_points_drawn_once_and_read_only():
    from halfcomm.verify import _haar_points

    gs = _haar_points(2, 1234)
    assert _haar_points(2, 1234) is gs
    assert not gs.flags.writeable
    fresh = sample_batch(parse_model("un:2"), np.random.default_rng(1234), 48)
    assert np.array_equal(gs, fresh)


def test_bi_invariance_through_norm():
    # (id (x) h) Delta x = h(x) 1 and (h (x) id) Delta x = h(x) 1 as functions
    n = 2
    samples = [
        CrossedElement.even(u(n, 1, 1) * ub(n, 1, 1)),
        CrossedElement.even(u(n, 1, 2) * ub(n, 1, 1)),
        CrossedElement.even(u(n, 1, 1) * ub(n, 2, 2)),
        CrossedElement.odd(u(n, 1, 1)),
    ]
    for x in samples:
        target = CrossedElement.one(n) * haar_state(x)
        left = CrossedElement.zero(n)
        right = CrossedElement.zero(n)
        for ((lm, lp), (rm, rp)), c in crossed_coproduct(x).items():
            lelem = CrossedElement.even(FunElement(n, {lm: 1})) if lp == 0 else CrossedElement.odd(FunElement(n, {lm: 1}))
            relem = CrossedElement.even(FunElement(n, {rm: 1})) if rp == 0 else CrossedElement.odd(FunElement(n, {rm: 1}))
            left = left + c * haar_state(relem) * lelem
            right = right + c * haar_state(lelem) * relem
        assert norm_equal(left, target)
        assert norm_equal(right, target)


# -- Monte Carlo -------------------------------------------------------------------


def test_mc_against_exact():
    f = u(2, 1, 1) * ub(2, 1, 1)
    est = mc_integral(f, parse_model("un:2"), 20000, seed=7)
    assert abs(est.mean - 0.5) < 5 * est.stderr
    assert est.samples == 20000


def test_mc_deterministic():
    f = u(2, 1, 1) * ub(2, 1, 1)
    a = mc_integral(f, parse_model("un:2"), 5000, seed=3)
    b = mc_integral(f, parse_model("un:2"), 5000, seed=3)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_mc_constant():
    one = CrossedElement.one(2)
    est = mc_integral(one, parse_model("un:2"), 100, seed=1)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_mc_kn_exact_zero():
    f = u(2, 1, 1) * u(2, 1, 2)
    est = mc_integral(f, parse_model("kn:2"), 2000, seed=5)
    assert est.mean == 0.0 and est.stderr == 0.0


def test_mc_crossed_even_component():
    x = CrossedElement(u(2, 1, 1) * ub(2, 1, 1), u(2, 1, 2))
    est = mc_integral(x, parse_model("un:2"), 20000, seed=9)
    assert abs(est.mean - 0.5) < 5 * est.stderr


def _single_mc(f, model, samples, seed):
    # the estimator of one element by itself: draw a chunk, evaluate, sum
    rng = np.random.default_rng(seed)
    total, total_sq, done = 0j, 0.0, 0
    while done < samples:
        count = min(MC_CHUNK, samples - done)
        vals = evaluate_fun_batch(f, sample_batch(model, rng, count))
        total += complex(vals.sum())
        total_sq += float(np.sum(np.abs(vals) ** 2))
        done += count
    var = max(0.0, (total_sq - abs(total) ** 2 / samples) / (samples - 1))
    return total / samples, math.sqrt(var / samples)


@pytest.mark.parametrize("name", ["un:2", "un:3", "kn:2"])
def test_mc_integrals_share_draws_bit_for_bit(name):
    # 4,097 samples cross a chunk boundary (MC_CHUNK = 4,096); each
    # shared-draw estimate equals the estimate of its element alone, exactly
    model = parse_model(name)
    n = model.ambient_dim
    fs = [u(n, 1, 1) * ub(n, 1, 1), u(n, 1, 2) * ub(n, 2, 1) + u(n, 2, 2), _random_crossed(random.Random(n), n, max_degree=3)]
    ests = mc_integrals(fs, model, 4097, seed=11)
    for f, est in zip(fs, ests):
        assert est == mc_integral(f, model, 4097, seed=11)
        even = f.f0 if isinstance(f, CrossedElement) else f
        assert (est.mean, est.stderr) == _single_mc(even, model, 4097, 11)
        assert est.samples == 4097 and est.seed == 11
    assert len({e.mean for e in ests}) == len(fs)


def test_mc_validation():
    with pytest.raises(ValueError):
        mc_integral(u(2, 1, 1), parse_model("un:2"), 1, seed=0)
    with pytest.raises(DimensionMismatchError):
        mc_integral(u(3, 1, 1), parse_model("un:2"), 10, seed=0)


def test_mc_special_unitary_degree_zero_agrees():
    # degree-zero monomials factor through the common central quotient, so the
    # special unitary moments match the full unitary Weingarten values
    for f in (u(2, 1, 1) * ub(2, 1, 1), u(2, 1, 2) * ub(2, 1, 2)):
        exact = haar_integral(f).to_complex()
        est = mc_integral(f, parse_model("sun:2"), 30000, seed=21)
        assert abs(est.mean - exact) < 5 * est.stderr
