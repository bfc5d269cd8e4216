import numpy as np
import pytest

from halfcomm import groups
from halfcomm.crossed import CrossedElement, FunElement, crossed_mul, crossed_star, embed_pi
from halfcomm.errors import DimensionMismatchError
from halfcomm.groups import (
    contains,
    evaluate_fun_batch,
    matrix_model_eval,
    parse_model,
    predicate,
    sample_batch,
)
from halfcomm.words import WordElement, ao_star

MODELS = [
    "un:2",
    "un:3",
    "un:4",
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


def test_parse_model():
    m = parse_model("kn:3")
    assert m.kind == "kn" and m.n == 3 and m.ambient_dim == 3
    assert parse_model("u2n:2").ambient_dim == 4
    with pytest.raises(ValueError):
        parse_model("bogus:1")


def test_models_answer_for_themselves():
    # real entries, an exact Haar state and a fusion datum, by model
    facts = {}
    for name in MODELS:
        model = parse_model(name)
        facts[name] = (model.real_entries, model.exact, str(model.fusion_data()))
    assert facts == {
        "un:2": (False, True, "un:2"), "un:3": (False, True, "un:3"), "un:4": (False, True, "un:4"),
        "on:2": (True, False, "None"), "on:3": (True, False, "None"),
        "sun:2": (False, False, "su2"), "sun:3": (False, False, "None"),
        "torus:1": (False, False, "torus:1"), "torus:2": (False, False, "torus:2"),
        "kn:2": (False, False, "None"), "kn:3": (False, False, "None"),
        "u2n:1": (False, False, "None"), "u2n:2": (False, False, "None"),
    }


@pytest.mark.parametrize("n, message", [
    (2.5, "dimension 2.5 is not an int"), (2.0, "dimension 2.0 is not an int"),
    (True, "dimension True is not an int"), ("2", "dimension '2' is not an int"), (0, "dimension must be >= 1, got 0"),
])
def test_models_refuse_a_dimension_that_is_not_a_positive_int(n, message):
    with pytest.raises(ValueError) as exc:
        groups.GroupModel("un", n)
    assert str(exc.value) == message


@pytest.mark.parametrize("name", MODELS)
def test_sample_batch_refuses_a_draw_over_the_cap(name):
    # 2^62 samples could never be allocated: without the check numpy refuses
    # the shape with another message, so the test allocates nothing either way
    count = 2**62
    with pytest.raises(ValueError, match=f"^a draw of {count} samples over {name} holds [0-9]+ complex entries"):
        sample_batch(parse_model(name), np.random.default_rng(0), count)


def test_sampler_determinism():
    m = parse_model("un:3")
    first, again, other = (sample_batch(m, np.random.default_rng(seed), 1)[0] for seed in (42, 42, 43))
    assert np.allclose(first, again)
    assert not np.allclose(first, other)


@pytest.mark.parametrize("name", MODELS)
def test_samples_pass_membership(name):
    # one stack test; test_membership_of_a_stack_is_per_matrix pins it to
    # the per-matrix test
    model = parse_model(name)
    rng = np.random.default_rng(5)
    assert contains(model, sample_batch(model, rng, 10000)).all(), name


@pytest.mark.parametrize("name", MODELS)
def test_transpose_closure(name):
    # verify's transpose-closure check covers shipped_models(), which lacks un:4
    model = parse_model(name)
    rng = np.random.default_rng(6)
    for g in sample_batch(model, rng, 200):
        assert contains(model, g.T), name


def test_identity_in_every_model():
    for name in MODELS:
        model = parse_model(name)
        assert contains(model, np.eye(model.ambient_dim, dtype=complex)), name


def test_membership_patterns():
    assert contains(parse_model("un:2"), np.diag([1j, 1.0]))
    assert not contains(parse_model("on:2"), np.diag([1j, 1.0]))
    assert not contains(parse_model("sun:2"), np.diag([1j, 1.0]))  # det = i
    assert contains(parse_model("sun:2"), np.diag([1j, -1j]))
    assert not contains(parse_model("torus:2"), np.array([[0, 1], [1, 0]], dtype=complex))
    assert contains(parse_model("kn:2"), np.array([[0, 1j], [1, 0]], dtype=complex))
    assert not contains(parse_model("un:2"), 2 * np.eye(2))
    assert contains(parse_model("u2n:1"), np.array([[0, 1], [-1, 0]], dtype=complex))
    assert not contains(parse_model("u2n:1"), np.array([[0, 1], [1, 0]], dtype=complex))  # B != -C
    c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
    assert not contains(parse_model("kn:2"), np.array([[c, -s], [s, c]], dtype=complex))
    with pytest.raises(DimensionMismatchError):
        contains(parse_model("un:2"), np.eye(3))


@pytest.mark.parametrize("name", MODELS)
def test_membership_of_a_stack_is_per_matrix(name):
    model = parse_model(name)
    rng = np.random.default_rng(8)
    gs = sample_batch(model, rng, 60)
    # members, and non-members of several kinds: a column shift, the real
    # part, a perturbation of 1e-6, a scaling, a non-finite entry
    gs[10:20] = np.roll(gs[10:20], 1, axis=-1)
    gs[20:30] = gs[20:30].real
    gs[30:40] += 1e-6 * rng.standard_normal(gs[30:40].shape)
    gs[40:50] *= 1j
    gs[50, 0, 0] = np.nan
    got = contains(model, gs)
    assert got.shape == (60,) and got.dtype == bool
    assert got.tolist() == [contains(model, g) for g in gs]
    assert 0 < got.sum() < 60
    assert contains(model, gs.reshape(3, 20, *gs.shape[1:])).ravel().tolist() == got.tolist()
    assert contains(model, gs[0]) is True
    d = model.ambient_dim
    with pytest.raises(DimensionMismatchError):
        contains(model, np.zeros((4, d + 1, d + 1)))
    with pytest.raises(DimensionMismatchError):
        contains(model, np.zeros(d))


def test_kn_sample_is_monomial():
    model = parse_model("kn:3")
    g = sample_batch(model, np.random.default_rng(9), 1)[0]
    mask = np.abs(g) > 0.5
    assert mask.sum(axis=0).tolist() == [1, 1, 1]
    assert mask.sum(axis=1).tolist() == [1, 1, 1]


def test_torus_sample_is_diagonal():
    g = sample_batch(parse_model("torus:2"), np.random.default_rng(3), 1)[0]
    off = g - np.diag(np.diag(g))
    assert np.max(np.abs(off)) < 1e-12
    assert np.allclose(np.abs(np.diag(g)), 1.0)


def test_u2n_block_pattern():
    n = 2
    g = sample_batch(parse_model("u2n:2"), np.random.default_rng(1), 1)[0]
    a, b = g[:n, :n], g[:n, n:]
    c, d = g[n:, :n], g[n:, n:]
    assert np.allclose(a, d) and np.allclose(b, -c)
    # the two block combinations are unitary
    for m in (a + 1j * b, a - 1j * b):
        assert np.max(np.abs(m @ m.conj().T - np.eye(n))) < 1e-10


# -- predicates ----------------------------------------------------------------


def test_predicates_on_is_real():
    for which in ("non_real", "doubly_non_real"):
        res = predicate(parse_model("on:3"), which, trials=5, rng_seed=0)
        assert res.value is False and res.witness is None


@pytest.mark.parametrize("which", ["non_real", "doubly_non_real"])
def test_real_entries_predicates_draw_nothing(monkeypatch, which):
    def no_draw(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(groups, "sample_batch", no_draw)
    res = predicate(parse_model("on:2"), which, trials=5, rng_seed=0)
    assert res.value is False and res.witness is None


def test_predicates_witnesses():
    for name in ("un:2", "kn:2", "u2n:2", "torus:2"):
        res = predicate(parse_model(name), "doubly_non_real", trials=50, rng_seed=1)
        assert res.value, name
        g = res.witness["matrix"]
        i, j, k, l = res.witness["indices"]
        assert abs((g[i - 1, j - 1] * np.conj(g[k - 1, l - 1])).imag) > 1e-6


def test_u2n1_is_not_doubly_non_real():
    # unitarity of [[a,b],[-b,a]] forces a*conj(b) real, so every entry-pair
    # product is real and no witness can exist
    res = predicate(parse_model("u2n:1"), "doubly_non_real", trials=200, rng_seed=4)
    assert res.value is False and res.witness is None


def test_predicates_non_real():
    res = predicate(parse_model("un:2"), "non_real", trials=20, rng_seed=2)
    assert res.value
    g = res.witness["matrix"]
    i, j = res.witness["indices"]
    assert abs(g[i - 1, j - 1].imag) > 1e-6


def test_predicates_self_transpose():
    for name in ("un:2", "kn:3", "u2n:1"):
        res = predicate(parse_model(name), "self_transpose", trials=50, rng_seed=3)
        assert res.value and res.witness is None


def test_predicate_validation():
    with pytest.raises(ValueError):
        predicate(parse_model("un:2"), "nonsense")
    with pytest.raises(ValueError):
        predicate(parse_model("un:2"), "non_real", trials=0)


# -- evaluation ------------------------------------------------------------------


def test_evaluate_fun():
    g = np.array([[0, 1j], [1, 0]], dtype=complex)
    f = FunElement.coordinate(2, 1, 2) * FunElement.coordinate(2, 1, 2, bar=True)
    assert abs(evaluate_fun_batch(f, g[None])[0] - 1.0) < 1e-12
    fb = FunElement.coordinate(2, 1, 2, bar=True)
    assert abs(evaluate_fun_batch(fb, g[None])[0] - (-1j)) < 1e-12
    batch = np.stack([g, np.eye(2, dtype=complex)])
    vals = evaluate_fun_batch(fb, batch)
    assert np.allclose(vals, [-1j, 0.0])


def test_matrix_model_unit():
    x = CrossedElement.one(2)
    g = sample_batch(parse_model("un:2"), np.random.default_rng(0), 1)[0]
    assert np.allclose(matrix_model_eval(x, g), np.eye(2))


def test_matrix_model_multiplicative_star():
    rng = np.random.default_rng(8)
    model = parse_model("un:3")
    import random

    prng = random.Random(4)
    from halfcomm.verify import _random_crossed

    for _ in range(100):
        g = sample_batch(model, rng, 1)[0]
        x = _random_crossed(prng, 3, max_degree=2)
        y = _random_crossed(prng, 3, max_degree=2)
        lhs = matrix_model_eval(crossed_mul(x, y), g)
        rhs = matrix_model_eval(x, g) @ matrix_model_eval(y, g)
        assert np.max(np.abs(lhs - rhs)) < 1e-9
        sums = matrix_model_eval(x + y, g)
        assert np.max(np.abs(sums - matrix_model_eval(x, g) - matrix_model_eval(y, g))) < 1e-9
        star = matrix_model_eval(crossed_star(x), g)
        assert np.max(np.abs(star - matrix_model_eval(x, g).conj().T)) < 1e-9


def test_matrix_model_of_a_stack_is_per_matrix():
    import random

    from halfcomm.verify import _random_crossed

    prng = random.Random(6)
    for name in ("un:2", "u2n:1", "kn:3"):
        model = parse_model(name)
        d = model.ambient_dim
        gs = sample_batch(model, np.random.default_rng(5), 12).reshape(3, 4, d, d)
        x = _random_crossed(prng, d, max_degree=3)
        got = matrix_model_eval(x, gs)
        assert got.shape == (3, 4, 2, 2)
        for a in range(3):
            for b in range(4):
                assert np.array_equal(got[a, b], matrix_model_eval(x, gs[a, b]))
    with pytest.raises(DimensionMismatchError):
        matrix_model_eval(CrossedElement.one(2), np.zeros((5, 3, 3)))
    with pytest.raises(DimensionMismatchError):
        matrix_model_eval(CrossedElement.one(2), np.zeros(2))


def test_matrix_model_orthogonal_point_is_symmetric():
    pres = ao_star(3)
    g = sample_batch(parse_model("on:3"), np.random.default_rng(11), 1)[0]
    x = embed_pi(WordElement.generator(pres, 1, 2))
    m = matrix_model_eval(x, g)
    assert abs(m[0, 1] - m[1, 0]) < 1e-12
    assert abs(m[0, 0]) < 1e-12 and abs(m[1, 1]) < 1e-12


def test_kn_relations_hold_numerically():
    model = parse_model("kn:3")
    rng = np.random.default_rng(12)
    gs = sample_batch(model, rng, 500)
    f = FunElement.coordinate(3, 1, 1) * FunElement.coordinate(3, 1, 2)
    assert float(np.max(np.abs(evaluate_fun_batch(f, gs)))) < 1e-12
