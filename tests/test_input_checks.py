"""Input checks: each bad call raises its typed error, with a message that
names what is wrong, before any work starts."""

import re

import numpy as np
import pytest

from halfcomm.crossed import CrossedElement, FunElement, FunMonomial
from halfcomm.errors import DimensionMismatchError, IndexRangeError, ParseError, PresentationError
from halfcomm.expressions import CrossedContext, parse_expression
from halfcomm.fusion import SU2Fusion, TorusFusion, UnFusion, astar_tensor, crossed_tensor, moment_crosscheck
from halfcomm.groups import check_predicate, evaluate_fun_batch, parse_model, predicate
from halfcomm.haar import haar_integral, haar_state, mc_integral, norm_equal, norm_squared, weingarten_table
from halfcomm.words import Letter, Presentation, WordElement, ao_star, au_star_star, letter

CASES = [
    pytest.param(lambda: letter(ao_star(2), 3, 1), IndexRangeError, "index (3,1) outside 1..2", id="letter-index"),
    pytest.param(lambda: letter(ao_star(2), 1, 1, True), PresentationError, "self-adjoint", id="starred-orthogonal-letter"),
    pytest.param(lambda: Presentation("bogus", 2), PresentationError, "unknown presentation kind 'bogus'",
                 id="presentation-kind"),
    pytest.param(lambda: ao_star(2.5), PresentationError, "dimension 2.5 is not an int", id="presentation-float"),
    pytest.param(lambda: ao_star(True), PresentationError, "dimension True is not an int", id="presentation-bool"),
    pytest.param(lambda: letter(ao_star(2), 1.0, 1), IndexRangeError, "index (1.0,1) is not a pair of ints",
                 id="letter-float-index"),
    pytest.param(lambda: letter(ao_star(2), 1, True), IndexRangeError, "index (1,True) is not a pair of ints",
                 id="letter-bool-index"),
    pytest.param(lambda: WordElement(ao_star(2), {(Letter(1.0, 1, False),): 1}), IndexRangeError,
                 "letter index (1.0,1) is not a pair of ints", id="word-float-index"),
    pytest.param(lambda: WordElement(ao_star(2), {(Letter(1, True, False),): 1}), IndexRangeError,
                 "letter index (1,True) is not a pair of ints", id="word-bool-index"),
    pytest.param(lambda: WordElement(au_star_star(1), {(Letter(1, 1, 2),): 1}), PresentationError,
                 "letter star flag 2 is not a bool", id="word-star-flag"),
    pytest.param(lambda: WordElement(ao_star(2), {((1, 1, False),): 1}), TypeError,
                 "a word's item must be a Letter, not (1, 1, False)", id="word-plain-tuple"),
    pytest.param(lambda: CrossedElement(FunElement.one(2), FunElement.one(3)), DimensionMismatchError,
                 "components over n=2 and n=3", id="crossed-dimensions"),
    pytest.param(lambda: FunElement.one(2) + FunElement.one(3), DimensionMismatchError, "dimensions 2 and 3 differ",
                 id="sum-dimensions"),
    pytest.param(lambda: FunElement.one(2.5), ValueError, "dimension 2.5 is not an int", id="function-float-dimension"),
    pytest.param(lambda: FunElement(True), ValueError, "dimension True is not an int", id="function-bool-dimension"),
    pytest.param(lambda: CrossedContext(2.5), ValueError, "dimension 2.5 is not an int", id="crossed-float-dimension"),
    pytest.param(lambda: CrossedContext(True), ValueError, "dimension True is not an int", id="crossed-bool-dimension"),
    pytest.param(lambda: CrossedContext(0), ValueError, "dimension must be >= 1, got 0", id="crossed-dimension"),
    pytest.param(lambda: FunElement(2, {FunMonomial({(3, 1, False): 1}): 1}), IndexRangeError,
                 "symbol index (3,1) outside 1..2", id="function-key"),
    pytest.param(lambda: FunElement.coordinate(2, 1, 3), IndexRangeError, "coordinate index (1,3) outside 1..2",
                 id="coordinate"),
    pytest.param(lambda: FunElement.coordinate(2, 1.0, True), ValueError,
                 "symbol (1.0, True, False) is not (row, col, bar)", id="coordinate-float-bool"),
    pytest.param(lambda: FunElement.coordinate(2, 1, 2, bar=1), ValueError,
                 "symbol (1, 2, 1) is not (row, col, bar) with int indices and a bool bar", id="coordinate-bar"),
    pytest.param(lambda: FunElement(2, {FunMonomial({(1, 2, "x"): 1}): 1}), ValueError,
                 "symbol (1, 2, 'x') is not (row, col, bar)", id="symbol-bar"),
    pytest.param(lambda: FunMonomial({(1.0, 2, False): 1}), ValueError, "symbol (1.0, 2, False) is not",
                 id="symbol-float-index"),
    pytest.param(lambda: FunMonomial({(1, 2): 1}), ValueError, "symbol (1, 2) is not", id="symbol-length"),
    pytest.param(lambda: parse_expression("(v[1,1]", ao_star(2)), ParseError, "expected rpar", id="unclosed-parenthesis"),
    pytest.param(lambda: parse_expression("v[1,1])", ao_star(2)), ParseError, "trailing input ')'", id="trailing-input"),
    pytest.param(lambda: crossed_tensor(UnFusion(2), ((1, 0), 2), ((1, 0), 0)), ValueError, "flags must be 0 or 1",
                 id="crossed-tensor-flag"),
    pytest.param(lambda: astar_tensor(UnFusion(2), ((1, 0), 2), ((1, 0), 1)), ValueError, "parity must be 0 or 1",
                 id="astar-parity"),
    pytest.param(lambda: moment_crosscheck(2, 0), ValueError, "k must be >= 1", id="moment-order"),
    pytest.param(lambda: weingarten_table(0, 2), ValueError, "degree must be >= 1", id="weingarten-degree"),
    pytest.param(lambda: weingarten_table(2, 0), ValueError, "dimension must be >= 1", id="weingarten-dimension"),
    pytest.param(lambda: evaluate_fun_batch(FunElement.one(2), np.zeros((4, 3, 3))), DimensionMismatchError,
                 "does not match symbols over n=2", id="batch-shape"),
    # every count goes through errors.check_count: an exact int, at least its floor
    pytest.param(lambda: FunElement.one(0), ValueError, "dimension must be >= 1, got 0", id="function-dimension"),
    pytest.param(lambda: FunElement(-3), ValueError, "dimension must be >= 1, got -3", id="function-negative"),
    pytest.param(lambda: CrossedElement.one(0), ValueError, "dimension must be >= 1, got 0",
                 id="crossed-element-dimension"),
    pytest.param(lambda: weingarten_table(2, 2.5), ValueError, "dimension 2.5 is not an int",
                 id="weingarten-float-dimension"),
    pytest.param(lambda: weingarten_table(2.5, 2), ValueError, "degree 2.5 is not an int", id="weingarten-float-degree"),
    # True equals 1 as a cache key: the refusal must not depend on (2, 1) being built
    pytest.param(lambda: (weingarten_table(2, 1), weingarten_table(2, True)), ValueError,
                 "dimension True is not an int", id="weingarten-bool-dimension"),
    pytest.param(lambda: moment_crosscheck(2, 1.5), ValueError, "k 1.5 is not an int", id="moment-float-order"),
    pytest.param(lambda: moment_crosscheck(2, True), ValueError, "k True is not an int", id="moment-bool-order"),
    pytest.param(lambda: check_predicate(parse_model("un:2"), "non_real", 2.5), ValueError, "trials 2.5 is not an int",
                 id="predicate-float-trials"),
    pytest.param(lambda: predicate(parse_model("un:2"), "non_real", trials=True), ValueError,
                 "trials True is not an int", id="predicate-bool-trials"),
    pytest.param(lambda: predicate(parse_model("un:2"), "non_real", rng_seed=-1), ValueError,
                 "seed must be >= 0, got -1", id="predicate-negative-seed"),
    pytest.param(lambda: predicate(parse_model("un:2"), "non_real", rng_seed=2.5), ValueError,
                 "seed 2.5 is not an int", id="predicate-float-seed"),
    pytest.param(lambda: mc_integral(FunElement.one(2), parse_model("un:2"), samples=2.5, seed=0), ValueError,
                 "samples 2.5 is not an int", id="mc-float-samples"),
    pytest.param(lambda: mc_integral(FunElement.one(2), parse_model("un:2"), samples=1, seed=0), ValueError,
                 "samples must be >= 2, got 1", id="mc-samples"),
    pytest.param(lambda: mc_integral(FunElement.one(2), parse_model("un:2"), samples=10, seed=2.5), ValueError,
                 "seed 2.5 is not an int", id="mc-float-seed"),
    pytest.param(lambda: mc_integral(FunElement.one(2), parse_model("un:2"), samples=10, seed=True), ValueError,
                 "seed True is not an int", id="mc-bool-seed"),
    # letter() and WordElement share one letter rule, with one message
    pytest.param(lambda: letter(au_star_star(1), 1, 1, 2), PresentationError, "letter star flag 2 is not a bool",
                 id="letter-star-flag"),
]


def _count_message(what, value):
    return f"{what} {value!r} is not an int" if type(value) is not int else f"{what} must be >= 0, got {value}"


# the grade cap of every datum: 2.5 reached range(), True listed the cap-1
# labels and -1 listed none
CASES += [
    pytest.param(lambda data=data, cap=cap: data.labels(cap), ValueError, _count_message("grade cap", cap),
                 id=f"labels-{data}-{cap!r}")
    for data in (UnFusion(2), TorusFusion(2), SU2Fusion())
    for cap in (2.5, True, -1)
]

# the degree cap of every exact entry point, checked before any work: the
# constant and the pair the witness tells apart never reach a table
_V11 = CrossedElement.generator(2, 1, 1)
_P_MAX_CALLS = {
    "weingarten-table": lambda p_max: weingarten_table(2, 2, p_max=p_max),
    "haar-integral": lambda p_max: haar_integral(FunElement.one(2), p_max=p_max),
    "haar-state": lambda p_max: haar_state(_V11 * _V11.star(), p_max=p_max),
    "norm-squared": lambda p_max: norm_squared(_V11, p_max=p_max),
    "norm-equal": lambda p_max: norm_equal(_V11, CrossedElement.zero(2), p_max=p_max),
    "moment-crosscheck": lambda p_max: moment_crosscheck(2, 1, p_max=p_max),
}
CASES += [
    pytest.param(lambda call=call, p_max=p_max: call(p_max), ValueError, _count_message("degree cap", p_max),
                 id=f"{name}-p_max-{p_max!r}")
    for name, call in _P_MAX_CALLS.items()
    for p_max in ("x", 2.5, True, -1)
]


@pytest.mark.parametrize("call, error, text", CASES)
def test_bad_input_raises_its_typed_error(call, error, text):
    with pytest.raises(error, match=re.escape(text)):
        call()
