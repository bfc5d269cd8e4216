"""Input checks: each bad call raises its typed error, with a message that
names what is wrong, before any work starts."""

import re

import numpy as np
import pytest

from halfcomm.crossed import CrossedElement, FunElement, FunMonomial
from halfcomm.errors import DimensionMismatchError, IndexRangeError, ParseError, PresentationError
from halfcomm.expressions import CrossedContext, parse_expression
from halfcomm.fusion import UnFusion, astar_tensor, crossed_tensor, moment_crosscheck
from halfcomm.groups import evaluate_fun_batch
from halfcomm.haar import weingarten_table
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
]


@pytest.mark.parametrize("call, error, text", CASES)
def test_bad_input_raises_its_typed_error(call, error, text):
    with pytest.raises(error, match=re.escape(text)):
        call()
