"""Seeded fuzz of the command line: malformed and borderline argument lists.

Every call must end in exit 0 or 2 (usage, parse or resource-cap error),
never in an exception and never in exit 1, which means "verification failed".
The inputs are token soups over the expression grammar, with contexts,
groups and flags that are sometimes invalid, so that some calls parse and
reach the algebra and the integrators.
"""

import random

from halfcomm.cli import main

CALLS = 400

# well-formed (context, letter heads) pairs, and malformed contexts and groups
WORD_CONTEXTS = (("ao-star:2", ("v",)), ("ao-star:3", ("v",)), ("ah-star:2", ("v",)),
                 ("au-star-star:1", ("u", "u*")), ("crossed:2", ("u", "u*", "s")), ("crossed:3", ("u", "u*", "s")))
BAD_CONTEXTS = ("ao-star:0", "crossed:-1", "xx:2", "ao-star:", "ao-star:two", "")
GROUPS = ("un:2", "un:3", "kn:2", "torus:2", "u2n:1", "sun:2", "on:2")
BAD_GROUPS = ("un:0", "un:-1", "xx:2", "un")
TOKENS = ("+", "-", "*", "(", ")", "s", "i", "0", "3", "1/2", "2/0", "^", "[", "]", ",", "v", "u", " ", "?")


def _letter(rng, heads, hi):
    head = rng.choice(heads)
    return head if head == "s" else f"{head}[{rng.randint(1, hi)},{rng.randint(1, hi)}]"


def _expr(rng, heads):
    """A well-formed sum of short products, then with even odds one
    corruption: a stray token, a dropped character or an index out of range."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        coeff = rng.choice(("", "", "2 ", "-1/3 ", "i ", "(1 + i) "))
        terms.append(coeff + " ".join(_letter(rng, heads, 2) for _ in range(rng.randint(0, 3))) or "1")
    text = rng.choice((" + ", " - ")).join(terms)
    corruption = rng.randrange(6)
    if corruption == 0:
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(TOKENS) + text[at:]
    elif corruption == 1 and text:
        at = rng.randrange(len(text))
        text = text[:at] + text[at + 1:]
    elif corruption == 2:
        text += " " + _letter(rng, heads, 5)
    return text


def _pick(rng, good, bad):
    return rng.choice(bad) if rng.random() < 0.15 else rng.choice(good)


def _flags(rng):
    out = []
    if rng.random() < 0.3:
        out += ["--degree-cap", str(rng.choice((-1, 0, 1, 2, 5)))]
    if rng.random() < 0.3:
        out += ["--samples", _pick(rng, ("2", "40", "100"), ("-3", "0", "1", "x"))]
    if rng.random() < 0.2:
        out += ["--seed", _pick(rng, ("7", "-1"), ("y",))]
    if rng.random() < 0.1:
        out += ["--json"]
    return out


def _argv(rng):
    command = rng.choice(("normalize", "equal", "haar"))
    context, heads = rng.choice(WORD_CONTEXTS)
    context = _pick(rng, (context,), BAD_CONTEXTS)
    if rng.random() < 0.15:
        heads = ("v", "u", "u*", "v*", "s")
    if command == "normalize":
        argv = ["normalize", "--context", context, _expr(rng, heads)]
    elif command == "equal":
        argv = ["equal", "--context", context, _expr(rng, heads), _expr(rng, heads)]
        if rng.random() < 0.7:
            argv += ["--method", _pick(rng, ("nf", "exact", "mc"), ("bogus",))]
        if rng.random() < 0.5:
            argv += ["--group", _pick(rng, GROUPS, BAD_GROUPS)]
    else:
        heads = ("u", "u*") if rng.random() < 0.85 else heads
        argv = ["haar", "--group", _pick(rng, GROUPS, BAD_GROUPS), _expr(rng, heads)]
        if rng.random() < 0.5:
            argv.append("--mc")
    argv += _flags(rng)
    if rng.random() < 0.05:
        argv.insert(rng.randint(0, len(argv)), rng.choice(("--bogus", "-k", "--context")))
    if rng.random() < 0.05:
        del argv[rng.randrange(len(argv))]
    return argv


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the argument list
        return exc.code


def test_cli_fuzz_exits_0_or_2(capsys):
    rng = random.Random(20120101)
    codes = {}
    for _ in range(CALLS):
        argv = _argv(rng)
        code = _exit_code(argv)
        capsys.readouterr()
        assert code in (0, 2), argv
        codes[code] = codes.get(code, 0) + 1
    # the fuzz must reach past the parser, not only into error paths
    assert codes.get(0, 0) >= CALLS // 10, codes
