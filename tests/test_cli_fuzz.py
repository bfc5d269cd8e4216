"""Seeded fuzz of the command line: malformed and borderline argument lists.

Every call must end in exit 0 or 2 (usage, parse or resource-cap error),
never in an exception and never in exit 1, which means "verification failed".
The inputs are token soups over the expression grammar, fusion labels and
group models, with contexts, groups and flags that are sometimes invalid, so
that some calls parse and reach the algebra, the integrators, the fusion
rules and the predicates.  Each call draws its optional flags from those that
its selection (the subcommand, and for equal and haar the method) reads; now
and then a call adds one it does not read, and must exit 2.
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

# fusion groups with well-formed labels, and malformed groups and labels
FUSION_LABELS = {"un:2": ("[1,0]", "[0,-1]", "[2,1]"), "un:3": ("[1,0,0]", "[1,1,0]", "[0,0,-1]"),
                 "su2": ("j=0", "j=1/2", "j=3/2"), "torus:2": ("t[1,-1]", "t[0,2]", "t[-1,0]")}
BAD_FUSION_GROUPS = ("un:0", "su3", "torus:x", "un", ":")
BAD_LABELS = ("[1,", "[a,b]", "[0,1]", "[1,0,0,0]", "t[]", "j=", "j=-1/2", "j=1/0", "(j=1/2,s", "([1,0],q)", "")

# the optional flags each selection reads, and their odds, good and bad values
READS = {
    "normalize": (),
    "equal nf": ("--json",),
    "equal exact": ("--degree-cap", "--json"),
    "equal mc": ("--group", "--samples", "--seed", "--json"),
    "haar": ("--degree-cap",),
    "haar --mc": ("--samples", "--seed"),
    "fuse": ("--json",),
    "fusion-table": (),
    "predicates": ("--seed",),
}
SHARED = {
    "--degree-cap": (0.3, ("-1", "0", "1", "2", "5"), ()),
    "--group": (0.8, GROUPS, BAD_GROUPS),
    "--samples": (0.3, ("2", "40", "100"), ("-3", "0", "1", "x")),
    "--seed": (0.2, ("0", "7"), ("-1", "y")),
    "--json": (0.1, (), ()),
}


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
    return rng.choice(bad) if bad and rng.random() < 0.15 else rng.choice(good)


def _flag(rng, flag):
    _, good, bad = SHARED[flag]
    return [flag, _pick(rng, good, bad)] if good else [flag]


def _label(rng, group):
    if rng.random() < 0.15 or group not in FUSION_LABELS:
        return rng.choice(BAD_LABELS)
    label = rng.choice(FUSION_LABELS[group])
    return f"({label},{rng.choice('se')})" if rng.random() < 0.5 else label


def _command_argv(rng, command):
    context, heads = rng.choice(WORD_CONTEXTS)
    context = _pick(rng, (context,), BAD_CONTEXTS)
    if rng.random() < 0.15:
        heads = ("v", "u", "u*", "v*", "s")
    if command == "normalize":
        return ["normalize", "--context", context, _expr(rng, heads)]
    if command == "equal":
        argv = ["equal", "--context", context, _expr(rng, heads), _expr(rng, heads)]
        if rng.random() < 0.7:
            argv += ["--method", _pick(rng, ("nf", "exact", "mc"), ("bogus",))]
        return argv
    if command == "haar":
        heads = ("u", "u*") if rng.random() < 0.85 else heads
        argv = ["haar", "--group", _pick(rng, GROUPS, BAD_GROUPS), _expr(rng, heads)]
        return argv + ["--mc"] if rng.random() < 0.5 else argv
    if command in ("fuse", "fusion-table"):
        group = _pick(rng, tuple(FUSION_LABELS), BAD_FUSION_GROUPS)
        if command == "fuse":
            return ["fuse", "--group", group, _label(rng, group), _label(rng, group)]
        argv = ["fusion-table", "--group", group]
        return argv + ["--grade-cap", _pick(rng, ("0", "1", "2"), ("-1", "x"))] if rng.random() < 0.5 else argv
    argv = ["predicates", "--model", _pick(rng, GROUPS, BAD_GROUPS), "--trials", _pick(rng, ("1", "5", "20"), ("0", "x"))]
    if rng.random() < 0.5:
        argv += ["--which", _pick(rng, ("all", "self_transpose", "non_real", "doubly_non_real"), ("bogus",))]
    return argv


def _selection(argv):
    """The key of READS that an argument list selects (unknown keys read
    nothing: their calls fail in the parser)."""
    if argv[:1] == ["equal"]:
        at = argv.index("--method") + 1 if "--method" in argv else 0
        return "equal " + (argv[at] if 0 < at < len(argv) else "exact")
    if argv[:1] == ["haar"]:
        return "haar --mc" if "--mc" in argv else "haar"
    return argv[0] if argv else ""


def _argv(rng):
    """An argument list, and whether it carries an optional flag its
    selection does not read (which must end in exit 2)."""
    command = rng.choice(("normalize", "equal", "haar") * 2 + ("fuse", "fusion-table", "predicates"))
    argv = _command_argv(rng, command)
    for flag in READS.get(_selection(argv), ()):
        if rng.random() < SHARED[flag][0]:
            argv += _flag(rng, flag)
    if rng.random() < 0.05:
        argv.insert(rng.randint(0, len(argv)), rng.choice(("--bogus", "-k", "--context")))
    if rng.random() < 0.05:
        del argv[rng.randrange(len(argv))]
    # a required --group (haar, fuse, fusion-table) is read, and never added twice
    unread = [flag for flag in SHARED if flag not in READS.get(_selection(argv), ()) and flag not in argv]
    if unread and rng.random() < 0.1:
        return argv + _flag(rng, rng.choice(unread)), True
    return argv, False


def _exit_code(argv):
    """The exit code, and whether argparse rejected the argument list."""
    try:
        return main(argv), False
    except SystemExit as exc:
        return exc.code, True


def test_cli_fuzz_exits_0_or_2(capsys):
    rng = random.Random(20120101)
    codes = {}
    for _ in range(CALLS):
        argv, unread = _argv(rng)
        code, by_parser = _exit_code(argv)
        err = capsys.readouterr().err
        assert code in ((2,) if unread else (0, 2)), argv
        if unread and not by_parser:
            # past the parser, the refusal comes before any input is parsed
            assert len(err.splitlines()) == 1 and " does not read --" in err, (argv, err)
        codes[code] = codes.get(code, 0) + 1
    # the fuzz must reach past the parser, not only into error paths
    assert codes.get(0, 0) >= CALLS // 10, codes
