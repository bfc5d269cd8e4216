import itertools
import os
import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from halfcomm import fusion
from halfcomm.crossed import _MONOMIAL_SPLITS, FunMonomial
from halfcomm.errors import DegreeCapError, ParseError
from halfcomm.fusion import (
    SU2Fusion,
    TorusFusion,
    UnFusion,
    _l1_ball,
    astar_dual,
    astar_tensor,
    crossed_tensor,
    fusion_instance,
    lr_tensor,
    moment_crosscheck,
    un_dim,
)
from halfcomm.scalars import GaussianRational
from halfcomm.verify import schur_tensor_oracle, _partitions_upto
from halfcomm.words import _CLASS_SPLITS


# -- Littlewood-Richardson engine ---------------------------------------------


def test_lr_frozen_examples():
    assert lr_tensor((1, 0), (1, 0), 2) == {(2, 0): 1, (1, 1): 1}
    assert lr_tensor((1, 0), (0, -1), 2) == {(1, -1): 1, (0, 0): 1}
    assert lr_tensor((2, 1, 0), (0, 0, 0), 3) == {(2, 1, 0): 1}


def test_lr_known_su3_style_products():
    # adjoint times adjoint for three variables, shifted into partitions:
    # (1,0,-1) (x) (1,0,-1) = 1 + 2 adj + (2,0,-2) + (2,-1,-1) + (1,1,-2)
    dec = lr_tensor((1, 0, -1), (1, 0, -1), 3)
    assert dec == {
        (0, 0, 0): 1,
        (1, 0, -1): 2,
        (2, 0, -2): 1,
        (2, -1, -1): 1,
        (1, 1, -2): 1,
    }
    assert sum(m * un_dim(l, 3) for l, m in dec.items()) == 64


def test_lr_validation():
    with pytest.raises(ValueError):
        lr_tensor((0, 1), (1, 0), 2)  # not weakly decreasing
    with pytest.raises(ValueError):
        lr_tensor((1, 0, 0), (1, 0), 3)  # wrong length


@pytest.mark.parametrize("cls", [UnFusion, TorusFusion])
@pytest.mark.parametrize("n, message", [
    (2.5, "dimension 2.5 is not an int"), (2.0, "dimension 2.0 is not an int"),
    (True, "dimension True is not an int"), ("2", "dimension '2' is not an int"), (0, "dimension must be >= 1, got 0"),
])
def test_fusion_data_refuse_a_dimension_that_is_not_a_positive_int(cls, n, message):
    with pytest.raises(ValueError) as exc:
        cls(n)
    assert str(exc.value) == message


@pytest.mark.parametrize("n", [2, 3])
def test_lr_against_schur_oracle(n):
    parts = _partitions_upto(3, n)
    for lam in parts:
        for mu in parts:
            assert lr_tensor(lam, mu, n) == schur_tensor_oracle(lam, mu, n), (lam, mu)


def test_lr_shift_invariance():
    # tensoring with the determinant power only shifts every constituent
    rng = random.Random(2)
    for _ in range(20):
        lam = tuple(sorted((rng.randint(-2, 2) for _ in range(3)), reverse=True))
        mu = tuple(sorted((rng.randint(-2, 2) for _ in range(3)), reverse=True))
        base = lr_tensor(lam, mu, 3)
        shifted = lr_tensor(tuple(x + 1 for x in lam), mu, 3)
        assert shifted == {tuple(x + 1 for x in nu): m for nu, m in base.items()}


def _strips_by_brute_force(shape, size, prev):
    # every composition of size into len(shape) parts, in lexicographic
    # order, kept when it adds at most shape[r-1] - shape[r] cells to each
    # row r >= 1 and, under prev, puts no more cells in rows <= r than prev
    # has in rows < r
    n = len(shape)
    return [
        a for a in itertools.product(range(size + 1), repeat=n)
        if sum(a) == size
        and all(a[r] <= shape[r - 1] - shape[r] for r in range(1, n))
        and (prev is None or all(sum(a[: r + 1]) <= sum(prev[:r]) for r in range(n)))
    ]


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
def test_strip_walk_matches_brute_force(rows):
    # every partition in a 4 x 4 box, padded to ``rows`` rows, every size up
    # to 4, with no lattice bound and under every previous layer of at most
    # 2 cells a row: the one-cell path and the walk alike
    shapes = [s for s in itertools.product(range(5), repeat=rows) if list(s) == sorted(s, reverse=True)]
    for shape in shapes:
        for size in range(5):
            for prev in (None, *itertools.product(range(3), repeat=rows)):
                assert fusion._lattice_strips(shape, size, prev) == _strips_by_brute_force(shape, size, prev), (
                    shape, size, prev)


def test_lr_reaches_the_lattice_bound_of_a_layer_of_several_cells(monkeypatch):
    # mu = (2,2,0,0) grows a layer of two twos under the layer of two ones,
    # so the lattice bound of a multi-cell layer decides the answer; the
    # pairs of at most 3 cells over n <= 3 never reach it
    calls, strips = [], fusion._lattice_strips
    monkeypatch.setattr(fusion, "_lattice_strips",
                        lambda shape, size, prev: calls.append((size, prev)) or strips(shape, size, prev))
    for lam, mu in (((3, 2, 1, 0), (2, 2, 0, 0)), ((3, 2, 1, 0), (2, 2, 1, 0)),
                    ((4, 2, 1, 0), (3, 2, 0, 0)), ((2, 2, 1, 0), (2, 2, 1, 0))):
        assert list(lr_tensor(lam, mu, 4).items()) == list(schur_tensor_oracle(lam, mu, 4).items()), (lam, mu)
    assert any(prev is not None and size >= 2 for size, prev in calls)


@pytest.mark.parametrize("n", [2, 3])
def test_lr_with_full_columns_against_schur_oracle(n):
    # partitions raised by one or two full columns of height n, which the
    # single shift to weights ending in 0 factors out of every constituent
    parts = _partitions_upto(2, n)
    for lam in parts:
        for mu in parts:
            for a, b in ((1, 0), (0, 2), (1, 1)):
                lam_a, mu_b = tuple(x + a for x in lam), tuple(x + b for x in mu)
                expected = list(schur_tensor_oracle(lam_a, mu_b, n).items())
                assert list(lr_tensor(lam_a, mu_b, n).items()) == expected, (lam_a, mu_b)


def test_lr_takes_the_pair_with_fewer_cells_and_both_routes_agree_with_the_oracle(monkeypatch):
    # partitions of at most 2 cells over U(5) and their duals: a pair of
    # partitions is counted as it is, a pair of duals on the dual pair.  The
    # memo is emptied before each product, so that each one runs, on the
    # pair as the memo keys it: shifted to end in 0, larger first
    n = 5
    parts = _partitions_upto(2, n)
    weights = sorted({*parts, *(tuple(-x for x in reversed(p)) for p in parts)}, reverse=True)
    pairs, count = [], fusion._lr_count
    monkeypatch.setattr(fusion, "_lr_count", lambda pair, cells: pairs.append(pair) or count(pair, cells))
    routes = set()
    for a in weights:
        for b in weights:
            fusion._LR_PRODUCTS.clear()
            assert list(lr_tensor(a, b, n).items()) == list(schur_tensor_oracle(a, b, n).items()), (a, b)
            lam, mu = sorted((tuple(x - a[-1] for x in a), tuple(x - b[-1] for x in b)), reverse=True)
            plain = tuple(x - lam[-1] for x in lam), tuple(x - mu[-1] for x in mu)
            dual = tuple(lam[0] - x for x in reversed(lam)), tuple(mu[0] - x for x in reversed(mu))
            route = "dual" if min(map(sum, dual)) < min(map(sum, plain)) else "plain"
            assert pairs.pop() == (dual if route == "dual" else plain), (a, b)
            routes.add(route)
    assert routes == {"plain", "dual"}


@pytest.mark.parametrize("n", range(1, 7))
def test_un_dim_matches_the_fraction_product(n):
    # the Weyl product taken factor by factor in Fractions, on seeded
    # dominant weights with repeated entries and runs of several lengths
    rng = random.Random(2200 + n)
    for _ in range(40):
        lam = tuple(sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True))
        expected = Fraction(1)
        for i in range(n):
            for j in range(i + 1, n):
                expected *= Fraction(lam[i] - lam[j] + j - i, j - i)
        assert un_dim(lam, n) == expected, lam


def test_un_dim():
    assert un_dim((1, 0), 2) == 2
    assert un_dim((1, 1), 2) == 1
    assert un_dim((2, 0), 2) == 3
    assert un_dim((1, 0, 0), 3) == 3
    assert un_dim((1, 0, -1), 3) == 8
    assert un_dim((2, 1, 0), 3) == 8
    # dimension identity on a product
    dec = lr_tensor((1, 0), (1, 0), 2)
    assert sum(m * un_dim(l, 2) for l, m in dec.items()) == 4


# -- structure maps -------------------------------------------------------------


def test_structure_maps_un():
    data = UnFusion(2)
    dual, sigma, grade = data.dual((1, 0)), data.sigma((1, 0)), data.grade((1, 0))
    assert dual == (0, -1) and sigma == (0, -1) and grade == 1
    assert data.grade((1, 1)) == 2
    assert data.dual((2, -1)) == (1, -2)


def test_sigma_negates_integer_grade():
    rng = random.Random(9)
    for data in (UnFusion(2), UnFusion(3), TorusFusion(2)):
        for _ in range(20):
            if isinstance(data, UnFusion):
                a = tuple(sorted((rng.randint(-3, 3) for _ in range(data.n)), reverse=True))
            else:
                a = tuple(rng.randint(-3, 3) for _ in range(data.n))
            assert data.grade(data.sigma(a)) == -data.grade(a)
    s = SU2Fusion()
    for k in range(7):
        j = Fraction(k, 2)
        assert s.grade(s.sigma(j)) == s.grade(j)


def test_structure_maps_torus_su2():
    t = TorusFusion(1)
    assert (t.dual((3,)), t.sigma((3,)), t.grade((3,))) == ((-3,), (-3,), 3)
    s = SU2Fusion()
    j = Fraction(3, 2)
    assert (s.dual(j), s.sigma(j), s.grade(j)) == (j, j, 1)
    assert s.dim(j) == 4
    assert s.tensor(Fraction(1, 2), Fraction(1, 2)) == {Fraction(0): 1, Fraction(1): 1}


# -- crossed and graded tensor rules ---------------------------------------------


def test_crossed_tensor_rules():
    data = UnFusion(2)
    assert crossed_tensor(data, ((1, 1), 0), ((1, 0), 1)) == {((2, 1), 1): 1}
    assert crossed_tensor(data, ((1, 0), 1), ((1, 0), 1)) == {
        ((1, -1), 0): 1,
        ((0, 0), 0): 1,
    }
    assert crossed_tensor(data, ((0, 0), 1), ((0, 0), 1)) == {((0, 0), 0): 1}
    # twist hits the right factor exactly when the left flag is odd
    assert crossed_tensor(data, ((1, 0), 1), ((1, 1), 0)) == {((0, -1), 1): 1}
    assert crossed_tensor(data, ((1, 1), 0), ((1, 0), 0)) == {((2, 1), 0): 1}
    # unit laws
    for x in (((1, 0), 1), ((1, 1), 0)):
        assert crossed_tensor(data, ((0, 0), 0), x) == {x: 1}
        assert crossed_tensor(data, x, ((0, 0), 0)) == {x: 1}


def test_astar_tensor_parity_enforced():
    data = UnFusion(2)
    with pytest.raises(ValueError):
        astar_tensor(data, ((1, 0), 0), ((0, 0), 0))  # grade 1 with flag 0
    out = astar_tensor(data, ((1, 0), 1), ((1, 0), 1))
    assert out == {((1, -1), 0): 1, ((0, 0), 0): 1}
    for (lbl, parity) in out:
        assert data.grade(lbl) % 2 == parity


@pytest.mark.parametrize("n, runs", [(3, 21), (4, 28)])
def test_tensor_memo_is_keyed_up_to_order_and_shift(n, runs, monkeypatch):
    # the graded table up to grade 2 asks for 64 products; keyed by the two
    # weights shifted to end in 0, in a fixed order, they need 21 and 28
    # Littlewood-Richardson runs on a cold memo, and each product, with its
    # dict order, is the one a run on the product's own weights gives
    calls, run = [], fusion._lr_tensor
    fusion._LR_PRODUCTS.clear()
    monkeypatch.setattr(fusion._LR_PRODUCTS, "compute", lambda lam, mu: calls.append((lam, mu)) or run(lam, mu))
    data = UnFusion(n)
    labels = [(w, data.grade(w) % 2) for w in data.labels(2)]
    assert len(labels) ** 2 == 64
    for x in labels:
        for y in labels:
            right = data.sigma(y[0]) if x[1] else y[0]
            expected = [((nu, (x[1] + y[1]) % 2), m) for nu, m in run(x[0], right).items()]
            assert list(astar_tensor(data, x, y).items()) == expected, (x, y)
    assert len(calls) == runs and len(set(calls)) == runs
    assert all(lam[-1] == mu[-1] == 0 and lam >= mu for lam, mu in calls)


def _random_weight(rng, n):
    return tuple(sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True))


@pytest.mark.parametrize("n", range(1, 6))
def test_memoised_products_equal_uncached_runs(n):
    # seeded pairs, in both orders and under several shifts of each weight:
    # the memo, filled from cold, answers each product as a run of
    # _lr_tensor on the product's own weights does, dict order included,
    # and holds one entry per pair up to order and shift
    rng = random.Random(3700 + n)
    fusion._LR_PRODUCTS.clear()
    keys = set()
    for _ in range(12):
        lam, mu = _random_weight(rng, n), _random_weight(rng, n)
        for s, t in ((0, 0), (1, 0), (0, -2), (3, -1), (-2, -2)):
            a, b = tuple(x + s for x in lam), tuple(x + t for x in mu)
            for x, y in ((a, b), (b, a)):
                expected = list(fusion._lr_tensor(x, y).items())
                assert list(lr_tensor(x, y, n).items()) == expected, (x, y)
                assert list(UnFusion(n).tensor(x, y).items()) == expected, (x, y)
        keys.add(tuple(sorted((tuple(x - lam[-1] for x in lam), tuple(x - mu[-1] for x in mu)), reverse=True)))
    assert set(fusion._LR_PRODUCTS) == keys
    assert fusion._LR_PRODUCTS.held == sum(map(len, fusion._LR_PRODUCTS.values()))


def _answers(data):
    # products whose weights end in 0, whose memo entry _lr_product returns
    # unshifted, and products that shift it
    yield lambda: lr_tensor((1, 0, 0), (1, 1, 0), 3)
    yield lambda: lr_tensor((2, 1, 1), (1, 0, -1), 3)
    yield lambda: data.tensor((1, 0, 0), (1, 1, 0))
    yield lambda: data.tensor((2, 1, 1), (1, 0, -1))
    yield lambda: crossed_tensor(data, ((1, 0, 0), 0), ((1, 1, 0), 0))
    yield lambda: crossed_tensor(data, ((2, 1, 1), 1), ((1, 0, -1), 1))
    yield lambda: astar_tensor(data, ((1, 0, 0), 1), ((1, 1, 0), 0))
    yield lambda: astar_tensor(data, ((2, 1, 1), 0), ((1, 0, -1), 0))


def test_changing_an_answer_leaves_later_answers_unchanged():
    data = UnFusion(3)
    for answer in _answers(data):
        fusion._LR_PRODUCTS.clear()
        first = answer()
        expected = list(first.items())
        first[next(iter(first))] += 5
        first[(9, 9, 9)] = 1
        assert list(answer().items()) == expected
        answer().clear()
        assert list(answer().items()) == expected


def test_past_its_cap_the_memo_answers_without_storing(monkeypatch):
    fusion._LR_PRODUCTS.clear()
    two, three = ((1, 0, 0), (1, 0, 0)), ((1, 0, 0), (1, 1, 0))  # 2 and 2 constituents
    monkeypatch.setattr(fusion._LR_PRODUCTS, "cap", 3)
    assert lr_tensor(*two, 3) == {(2, 0, 0): 1, (1, 1, 0): 1}
    assert fusion._LR_PRODUCTS.held == 2 and len(fusion._LR_PRODUCTS) == 1
    # two more constituents would pass the cap: answered, not stored
    for _ in range(2):
        assert lr_tensor(*three, 3) == {(2, 1, 0): 1, (1, 1, 1): 1}
        assert fusion._LR_PRODUCTS.held == 2 and set(fusion._LR_PRODUCTS) == {two}
    fusion._LR_PRODUCTS.clear()
    assert not fusion._LR_PRODUCTS and fusion._LR_PRODUCTS.held == 0
    assert lr_tensor(*three, 3) == {(2, 1, 0): 1, (1, 1, 1): 1}
    assert set(fusion._LR_PRODUCTS) == {((1, 1, 0), (1, 0, 0))}


def _lr_keys(rng):
    # pairs of U(4) weights as the memo keys them: shifted to end in 0,
    # larger first
    return [tuple(sorted((fusion._ending_in_0(_random_weight(rng, 4)) for _ in range(2)), reverse=True))
            for _ in range(60)]


def _class_keys(rng):
    # classes of commuting symbols over n = 2, by multiplicity
    symbols = [(r, c, False) for r in (1, 2) for c in (1, 2)]
    return [(tuple((sym, rng.randint(1, 3)) for sym in sorted(rng.sample(symbols, rng.randint(1, 4)))), 2)
            for _ in range(60)]


def _monomial_keys(rng):
    return [(FunMonomial(cls), n) for cls, n in _class_keys(rng)]


@pytest.mark.parametrize("memo, keys", [
    (fusion._LR_PRODUCTS, _lr_keys),
    (_CLASS_SPLITS, _class_keys),
    (_MONOMIAL_SPLITS, _monomial_keys),
], ids=["lr-products", "class-splits", "monomial-splits"])
def test_threads_filling_the_memo_count_what_it_holds(memo, keys, monkeypatch):
    # more threads than cores, switching often, each asking for the same
    # keys at once, and each run sleeping so that the others miss the same
    # key meanwhile: a key stored twice, or a lost update of the count,
    # would leave ``held`` off
    keys = keys(random.Random(3701))
    run = memo.compute
    expected = [run(*key) for key in keys]
    monkeypatch.setattr(memo, "compute", lambda *key: time.sleep(1e-4) or run(*key))
    memo.clear()
    answers = []
    workers = 2 * (os.cpu_count() or 1) + 2
    start = threading.Barrier(workers)

    def work():
        start.wait(timeout=60)
        answers.append([memo[key] for key in keys])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [expected] * len(threads)
    assert memo.held == sum(map(len, memo.values()))


# U(3) weights that are not labels, each with the flag its grade asks for,
# so that only its shape, or the type of an entry, is wrong: int() would
# truncate 1.5 and 1.9, and 1.0 and True equal 1
BAD_WEIGHTS = [
    ((1, 0), 1), ((1, 0, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 2), 0),
    ((1.5, 0, 0), 1), ((1.9, 0, 0), 1), ((1.0, 0, 0), 1), ((True, 0, 0), 1), ((1, 1, "0"), 0),
]


def _entry_points(data, bad, good=((1, 0, 0), 1)):
    weight, flag = bad
    yield lambda: un_dim(weight, 3)
    yield lambda: data.dim(weight)
    yield lambda: lr_tensor(weight, good[0], 3)
    yield lambda: lr_tensor(good[0], weight, 3)
    yield lambda: data.tensor(weight, good[0])
    yield lambda: data.tensor(good[0], weight)
    for x, y in ((bad, good), (good, bad)):
        yield lambda x=x, y=y: crossed_tensor(data, x, y)
        yield lambda x=x, y=y: astar_tensor(data, x, y)
    yield lambda: astar_dual(data, bad)


@pytest.mark.parametrize("bad", BAD_WEIGHTS, ids=str)
def test_every_public_entry_point_validates_its_weights(bad):
    cold = UnFusion(3)
    warm = UnFusion(3)  # its memo holds every product of the labels up to grade 2
    labels = [(w, warm.grade(w) % 2) for w in warm.labels(2)]
    for x in labels:
        for y in labels:
            astar_tensor(warm, x, y)
            warm.tensor(x[0], y[0])
    for data in (cold, warm):
        for call in _entry_points(data, bad):
            with pytest.raises(ValueError, match="length|weakly decreasing|not an int"):
                call()


def test_every_datum_validates_its_tensor_labels():
    with pytest.raises(ValueError):
        TorusFusion(2).tensor((1,), (0, 0))
    for bad in ((0.5, 0), (1.0, 0), (False, 0)):
        with pytest.raises(ValueError, match="not an int"):
            TorusFusion(2).tensor(bad, (1, 0))
        with pytest.raises(ValueError, match="not an int"):
            TorusFusion(2).tensor((1, 0), bad)
    with pytest.raises(ValueError):
        SU2Fusion().tensor(Fraction(-1, 2), Fraction(0))
    with pytest.raises(ValueError):
        SU2Fusion().tensor(Fraction(1, 3), Fraction(0))


def test_astar_noncommutativity_witness():
    data = UnFusion(3)
    x = ((1, 0, 0), 1)
    y = ((1, 1, 0), 0)
    xy = astar_tensor(data, x, y)
    yx = astar_tensor(data, y, x)
    assert xy == {((1, -1, -1), 1): 1, ((0, 0, -1), 1): 1}
    assert yx == {((2, 1, 0), 1): 1, ((1, 1, 1), 1): 1}
    assert xy != yx


def test_astar_dual_examples():
    data = UnFusion(2)
    assert astar_dual(data, ((1, 0), 1)) == ((1, 0), 1)  # self-dual fundamental
    assert astar_dual(data, ((1, 1), 0)) == ((-1, -1), 0)
    rng = random.Random(4)
    for _ in range(20):
        w = tuple(sorted((rng.randint(-3, 3) for _ in range(2)), reverse=True))
        x = (w, data.grade(w) % 2)
        assert astar_dual(data, astar_dual(data, x)) == x
        assert crossed_tensor(data, x, astar_dual(data, x)).get(((0, 0), 0), 0) == 1


def test_grading_addition():
    data = UnFusion(2)
    rng = random.Random(6)
    for _ in range(30):
        a = tuple(sorted((rng.randint(-2, 2) for _ in range(2)), reverse=True))
        b = tuple(sorted((rng.randint(-2, 2) for _ in range(2)), reverse=True))
        fa, fb = data.grade(a) % 2, data.grade(b) % 2
        out = crossed_tensor(data, (a, fa), (b, fb))
        for (lbl, parity), _m in out.items():
            assert parity == (fa + fb) % 2
            if fa == 0:
                assert data.grade(lbl) == data.grade(a) + data.grade(b)
            elif fb == 1:
                assert data.grade(lbl) == data.grade(a) - data.grade(b)


# -- cross-validation against the exact Haar state --------------------------------


def test_moment_crosscheck_frozen():
    assert moment_crosscheck(2, 1) == (1, GaussianRational(1))
    assert moment_crosscheck(2, 2) == (2, GaussianRational(2))
    assert moment_crosscheck(3, 1) == (1, GaussianRational(1))


def test_moment_crosscheck_more():
    count, value = moment_crosscheck(3, 2)
    assert value == GaussianRational(count) == GaussianRational(2)


def test_moment_crosscheck_cap():
    with pytest.raises(DegreeCapError):
        moment_crosscheck(2, 6)


# -- labels -------------------------------------------------------------------

LABEL_GROUPS = ("un:1", "un:2", "un:3", "un:4", "torus:1", "torus:2", "torus:3", "su2")


def test_labels_within_a_grade_cap():
    assert fusion_instance("un:2").labels(1) == [(0, -1), (0, 0), (1, 0)]
    assert fusion_instance("torus:1").labels(2) == [(-2,), (-1,), (0,), (1,), (2,)]
    assert len(fusion_instance("torus:2").labels(2)) == 13
    assert fusion_instance("su2").labels(1) == [Fraction(0), Fraction(1, 2), Fraction(1)]


def test_dominant_weights_are_the_decreasing_vectors_of_the_ball():
    for n in range(1, 6):
        for cap in range(6):
            ball = _l1_ball(n, cap)
            assert len(ball) == len(set(ball)) and ball == sorted(ball)
            assert all(sum(map(abs, v)) <= cap for v in ball)
            dominant = [w for w in ball if all(a >= b for a, b in zip(w, w[1:]))]
            assert UnFusion(n).labels(cap) == dominant, (n, cap)


@pytest.mark.parametrize("name", LABEL_GROUPS)
def test_labels_are_counted_without_listing_them(name):
    data = fusion_instance(name)
    counts = list(itertools.islice(data._labels_by_size(), 8))
    for cap in range(8):
        assert sum(counts[: cap + 1]) == len(data.labels(cap))


@pytest.mark.parametrize("name", LABEL_GROUPS)
def test_labels_survive_format_then_parse(name):
    data = fusion_instance(name)
    for cap in range(5):
        for label in data.labels(cap):
            data.validate_label(label)
            assert data.parse_label(data.format_label(label)) == label
            for flag in (0, 1):
                assert data.parse_flagged_label(data.format_flagged_label((label, flag))) == (label, flag)


# the parse errors of malformed labels, by the fusion data that reads them;
# None marks a label that parses (its length or sign is checked later)
WEIGHT = "weight labels look like [2,0,-1], got {!r}"
TORUS = "torus labels look like t[1,-1], got {!r}"
SPIN = "spin labels look like j=3/2, got {!r}"
BAD_LABEL_ERRORS = {
    "[1,": (WEIGHT, TORUS, SPIN),
    "[a,b]": (WEIGHT, TORUS, SPIN),
    "[1.5,0]": (WEIGHT, TORUS, SPIN),
    "t[0.5,0]": (WEIGHT, TORUS, SPIN),
    "[0,1]": (None, TORUS, SPIN),
    "[1,0,0,0]": (None, TORUS, SPIN),
    "t[]": (WEIGHT, TORUS, SPIN),
    "j=": (WEIGHT, TORUS, SPIN),
    "j=-1/2": (WEIGHT, TORUS, None),
    "j=1/0": (WEIGHT, TORUS, "spin label 'j=1/0' divides by zero"),
    "(j=1/2,s": (WEIGHT, TORUS, SPIN),
    "([1,0],q)": ("flag must be s or e, got 'q'",) * 3,
    "": (WEIGHT, TORUS, SPIN),
}


@pytest.mark.parametrize("text", BAD_LABEL_ERRORS)
def test_malformed_labels_name_the_label_syntax(text):
    for name, expect in zip(("un:2", "torus:2", "su2"), BAD_LABEL_ERRORS[text]):
        data = fusion_instance(name)
        if expect is None:
            data.parse_flagged_label(text)
        else:
            with pytest.raises(ParseError) as exc:
                data.parse_flagged_label(text)
            assert str(exc.value) == expect.format(text)


@pytest.mark.parametrize("name", ("on:2", "kn:2", "u2n:1", "sun:3", "un:0", "torus:0", "un:\u0662"))
def test_fusion_instance_refuses_models_without_a_datum(name):
    with pytest.raises(ValueError) as exc:
        fusion_instance(name)
    assert str(exc.value) == f"no fusion data for {name!r} (available: un:N, su2, torus:N)"


def test_spins_are_ints_or_fractions():
    # a bool, a float or a string is refused, as in weights and torus characters
    with pytest.raises(ValueError, match="not a nonnegative half-integer"):
        SU2Fusion().tensor(True, 0.5)
    for bad in (1.5, True, "1", Fraction(1, 3), -1):
        with pytest.raises(ValueError, match="not a nonnegative half-integer"):
            SU2Fusion().dim(bad)
    assert [SU2Fusion().dim(j) for j in (0, 1, Fraction(3, 2))] == [1, 3, 4]


def test_dim_grade_and_dual_validate_their_label():
    # as UnFusion.dim and SU2Fusion.dim do
    for call in (lambda: TorusFusion(2).dim("x"), lambda: TorusFusion(2).dim((1, 0.5)),
                 lambda: SU2Fusion().grade(1.5), lambda: SU2Fusion().grade(Fraction(1, 3)),
                 lambda: SU2Fusion().dual(True), lambda: SU2Fusion().dual(-1)):
        with pytest.raises(ValueError):
            call()
    assert TorusFusion(2).dim((1, -1)) == 1
    assert [SU2Fusion().grade(j) for j in (0, Fraction(1, 2), 1)] == [0, 1, 0]
    assert SU2Fusion().dual(Fraction(3, 2)) == Fraction(3, 2) and type(SU2Fusion().dual(1)) is Fraction


@pytest.mark.parametrize("data", (UnFusion(2), UnFusion(3), SU2Fusion(), TorusFusion(2)), ids=str)
def test_random_labels_are_valid_labels(data):
    rng = random.Random(5)
    for _ in range(50):
        data.validate_label(data.random_label(rng))
    assert data.integer_graded == (not isinstance(data, SU2Fusion))


@pytest.mark.parametrize("name", ("un:0", "su3", "torus:x", "un", ":", "un:"))
def test_fusion_instance_rejects_unknown_names(name):
    with pytest.raises(ValueError):
        fusion_instance(name)
