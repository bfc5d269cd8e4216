"""Seeded inputs for the three benchmark workloads.

Each generator takes a ``random.Random`` and returns one round: a fixed list
of operations that the timed loop repeats.  In-process operations are
``Op``s (a thunk and the oracle for its result); command-line operations are
``Call``s (an argument list, the documented exit code, and the oracle for
its standard output).  The mix of each round is fixed by the tables below;
the seed only chooses the words, weights and coefficients (and, on the exact
calls of cli-cold, a relabeling of fixed words).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from halfcomm import crossed, fusion, haar, words
from halfcomm.crossed import CrossedElement, FunElement, FunMonomial
from halfcomm.expressions import parse_context, parse_expression
from halfcomm.fusion import UnFusion, un_dim
from halfcomm.scalars import GaussianRational
from halfcomm.verify import pointwise_equal
from halfcomm.words import AU_STAR_STAR, WordElement, ah_star, ao_star, au_star_star, letter

from . import oracles

REAL_COEFFS = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2))
GAUSS_COEFFS = REAL_COEFFS + (GaussianRational(0, 1), GaussianRational(1, -1), GaussianRational(Fraction(1, 2), 2))


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Call:
    kind: str
    argv: list
    exit_code: int
    check: Callable[[str], bool] | None = None


# -- words and their text ------------------------------------------------------


def _coerce(c):
    return GaussianRational.coerce(c)


def rand_word(rng, pres, length):
    starred = not pres.orthogonal
    n = pres.n
    return tuple(
        letter(pres, rng.randint(1, n), rng.randint(1, n), starred and rng.random() < 0.5) for _ in range(length)
    )


def rand_terms(rng, pres, lengths, coeffs=REAL_COEFFS):
    """One random word per entry of ``lengths``, with random coefficients.

    Lengths are fixed by the caller so that the work of an operation does not
    depend on the seed, only its content does."""
    terms = {}
    for length in lengths:
        word = rand_word(rng, pres, length)
        terms[word] = terms.get(word, _coerce(0)) + _coerce(rng.choice(coeffs))
    return terms


def add_terms(acc, more, scale=1):
    out = dict(acc)
    for w, c in more.items():
        out[w] = out.get(w, _coerce(0)) + _coerce(c) * _coerce(scale)
    return out


def relation(pres):
    """Terms of an element that vanishes on the unitary group but not as a word.

    ao-star:n maps sum_k v[1,k] v[2,k] to sum_k u_1k ubar_2k = (u u*)_12 = 0;
    au-star-star:n maps (u u* + u* u)/2 over the first column to the column
    norm of the doubled unitary, which is 1.
    """
    if pres.kind == AU_STAR_STAR:
        terms = {(): _coerce(-1)}
        for i in range(1, pres.n + 1):
            u, us = letter(pres, i, 1), letter(pres, i, 1, True)
            terms = add_terms(terms, {(u, us): Fraction(1, 2), (us, u): Fraction(1, 2)})
        return terms
    return {(letter(pres, 1, k), letter(pres, 2, k)): _coerce(1) for k in range(1, pres.n + 1)}


def sandwich(rng, pres, middle, room):
    """Terms of c * a * middle * b for random words a, b with |a| + |b| = room."""
    left = rng.randint(0, room)
    a = rand_word(rng, pres, left)
    b = rand_word(rng, pres, room - left)
    c = _coerce(rng.choice(REAL_COEFFS))
    return {a + w + b: c * k for w, k in middle.items()}


def equality_pair(rng, pres, lengths, equal):
    """(x, y) term dicts: y adds a sandwiched relation (equal on U(n)) or a
    word of the top length (unequal)."""
    x = rand_terms(rng, pres, lengths)
    top = max(lengths)
    if equal:
        extra = sandwich(rng, pres, relation(pres), top - 2)
    else:
        extra = {rand_word(rng, pres, top): _coerce(rng.choice(REAL_COEFFS))}
    return x, add_terms(x, extra)


def _coeff_text(c):
    c = _coerce(c)
    if not c.im:
        return f"({c.re})"
    sign = "+" if c.im > 0 else "-"
    return f"({c.re} {sign} {abs(c.im)} i)"


def word_text(word, pres):
    symbol = "v" if pres.orthogonal else "u"
    return " ".join(f"{symbol}{'*' if l.starred else ''}[{l.row},{l.col}]" for l in word)


def terms_text(terms, pres):
    return " + ".join(f"{_coeff_text(c)} {word_text(w, pres)}".strip() for w, c in terms.items())


# -- crossed monomials ---------------------------------------------------------


def rand_monomial(rng, n, u_count, ubar_count):
    syms = [(rng.randint(1, n), rng.randint(1, n), False) for _ in range(u_count)]
    syms += [(rng.randint(1, n), rng.randint(1, n), True) for _ in range(ubar_count)]
    return syms


def balanced_monomial(rng, n, p):
    """p plain and p conjugate entries whose row and column indices match up,
    so the Haar integral over U(n) is generically non-zero."""
    plain = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(p)]
    rows = [i for i, _ in plain]
    cols = [j for _, j in plain]
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [(i, j, False) for i, j in plain] + [(i, j, True) for i, j in zip(rows, cols)]


def crossed_terms_text(terms):
    """terms: list of (coeff, symbols, odd)."""
    parts = []
    for c, syms, odd in terms:
        body = " ".join(f"u{'*' if b else ''}[{i},{j}]" for i, j, b in syms)
        parts.append(" ".join(p for p in (_coeff_text(c), body, "s" if odd else "") if p))
    return " + ".join(parts)


def crossed_value(n, terms):
    f = [{}, {}]
    for c, syms, odd in terms:
        exps = {}
        for s in syms:
            exps[s] = exps.get(s, 0) + 1
        mono = FunMonomial(exps)
        f[odd][mono] = f[odd].get(mono, _coerce(0)) + _coerce(c)
    return CrossedElement(FunElement(n, f[0]), FunElement(n, f[1]))


# -- fusion labels -------------------------------------------------------------


def rand_weight(rng, n, lo=-1, hi=2):
    return tuple(sorted((rng.randint(lo, hi) for _ in range(n)), reverse=True))


def graded(weight):
    return (weight, sum(weight) % 2)


def weights_within(n, cap):
    """Weakly decreasing integer weights of length n with sum |w_i| <= cap."""
    out = [()]
    for _ in range(n):
        out = [w + (v,) for w in out for v in range(-cap, cap + 1) if not w or v <= w[-1]]
    return [w for w in out if sum(abs(v) for v in w) <= cap]


def fusion_table(n, cap):
    data = UnFusion(n)
    labels = [graded(w) for w in weights_within(n, cap)]
    return {(x, y): fusion.astar_tensor(data, x, y) for x in labels for y in labels}


def fusion_table_ok(n, table):
    data = UnFusion(n)
    return bool(table) and all(oracles.fusion_ok(data, x, y, dec, True) for (x, y), dec in table.items())


# -- exact-warm ----------------------------------------------------------------

# (presentation, term lengths, equality decisions, Haar states) per round.
# ao-star:2 reaches degree 5 below the dimension (the (5,2) pseudo-inverse
# table); ao-star:3 and :4 reach degree 4 on both sides of n = p; the unitary
# presentation is embedded over the doubled dimension n = 2.
# The counts put the median inside the ao-star:2 decisions and p90 inside
# the unitary ones, away from the steps between clusters of similar cost;
# they are large enough that the seed hardly moves the cost of a round.
EXACT_WARM = (
    (ao_star(2), (5, 4, 3), 144, 12),
    (ao_star(3), (4, 3, 2), 48, 12),
    (ao_star(4), (4, 3, 2), 48, 12),
    (au_star_star(1), (4, 3, 2), 96, 12),
)


def exact_tables():
    """(p, n) Weingarten tables the exact-warm round integrates with."""
    out = set()
    for pres, lengths, _eq, _st in EXACT_WARM:
        n = pres.n if pres.orthogonal else 2 * pres.n
        out.update((p, n) for p in range(1, max(lengths) + 1))
    return sorted(out)


def _equal_op(pres, xt, yt):
    x, y = WordElement(pres, xt), WordElement(pres, yt)
    return Op(
        f"equal:{pres}",
        lambda: haar.norm_equal(crossed.embed_pi(x), crossed.embed_pi(y)),
        lambda res: isinstance(res, bool) and res == pointwise_equal(crossed.embed_pi(x), crossed.embed_pi(y)),
    )


def _state_op(pres, xt):
    x = WordElement(pres, xt)
    group = f"un:{pres.n if pres.orthogonal else 2 * pres.n}"
    return Op(
        f"state:{pres}",
        lambda: haar.haar_state(crossed.embed_pi(x)),
        lambda res: isinstance(res, GaussianRational) and oracles.haar_value_ok(crossed.embed_pi(x), res.to_complex(), group),
    )


def exact_warm_round(rng, spec=EXACT_WARM):
    ops = []
    for pres, lengths, n_equal, n_state in spec:
        for k in range(n_equal):
            ops.append(_equal_op(pres, *equality_pair(rng, pres, lengths, k % 2 == 0)))
        for _ in range(n_state):
            ops.append(_state_op(pres, rand_terms(rng, pres, lengths)))
    rng.shuffle(ops)
    return ops


# -- symbolic ------------------------------------------------------------------


def _nf_op(rng):
    pres = ao_star(3)
    batch = [rand_word(rng, pres, 24) for _ in range(40)] + [rand_word(rng, pres, 6) for _ in range(8)]
    return Op(
        "normal-form",
        lambda: [words.hc_normal_form(w) for w in batch],
        lambda res: len(res) == len(batch) and all(oracles.normal_form_ok(w, nf) for w, nf in zip(batch, res)),
    )


def _ah_mul_op(rng, n):
    pres = ah_star(n)
    pairs = [(rand_terms(rng, pres, (2, 2, 2, 2)), rand_terms(rng, pres, (2, 2, 2, 2))) for _ in range(4)]
    elems = [(WordElement(pres, xt), WordElement(pres, yt)) for xt, yt in pairs]

    def check(res):
        for (xt, yt), prod in zip(pairs, res):
            expanded = {}
            for w1, c1 in xt.items():
                expanded = add_terms(expanded, {w1 + w2: c1 * c2 for w2, c2 in yt.items()})
            if not oracles.word_element_matches(prod, expanded, pres):
                return False
        return len(res) == len(pairs)

    return Op("ah-product", lambda: [x * y for x, y in elems], check)


# (presentation, term lengths): each coproduct expands to a few hundred terms
COPRODUCT_INPUTS = (
    (ao_star(2), (7, 6)),
    (ao_star(3), (5, 4)),
    (au_star_star(2), (7, 6)),
    (ah_star(2), (7, 7)),
)


def _coproduct_op(rng, k):
    pres, lengths = COPRODUCT_INPUTS[k % len(COPRODUCT_INPUTS)]
    x = WordElement(pres, rand_terms(rng, pres, lengths))
    return Op("coproduct", lambda: words.coproduct_element(x), lambda res: oracles.coproduct_counit_ok(x, res))


def _involution_op(rng, kind, k):
    pres = (au_star_star(2), ao_star(3))[k % 2]
    x = WordElement(pres, rand_terms(rng, pres, (5,) * 24, GAUSS_COEFFS))
    fn = words.star_element if kind == "star" else words.antipode_element
    return Op(kind, lambda: fn(x), lambda res: oracles.involution_ok(kind, x, res))


def _embed_op(rng):
    pres = au_star_star(2)
    x = WordElement(pres, rand_terms(rng, pres, (4, 4), GAUSS_COEFFS))
    return Op("embed-unitary", lambda: crossed.embed_pi(x), lambda res: oracles.embedding_ok(x, res))


def _crossed_coproduct_op(rng, even):
    n = 2
    terms = []
    for k in range(3):
        u = rng.randint(0, 3)
        terms.append((rng.choice(GAUSS_COEFFS), rand_monomial(rng, n, u, 3 - u), (not even) and k == 0))
    x = crossed_value(n, terms)

    def run():
        return crossed.crossed_coproduct(x), crossed.coinvariant_test(x)

    return Op(
        "crossed-coproduct",
        run,
        lambda res: oracles.crossed_coproduct_counit_ok(x, res[0]) and res[1] is even,
    )


def _lr_ok(lam, mu, n, res):
    return bool(res) and sum(m * un_dim(nu, n) for nu, m in res.items()) == un_dim(lam, n) * un_dim(mu, n)


def _lr_op(rng, n):
    pairs = [(rand_weight(rng, n, -1, 2), rand_weight(rng, n, -1, 2)) for _ in range(3)]
    return Op(
        "lr-tensor",
        lambda: [fusion.lr_tensor(lam, mu, n) for lam, mu in pairs],
        lambda res: len(res) == len(pairs) and all(_lr_ok(lam, mu, n, r) for (lam, mu), r in zip(pairs, res)),
    )


def _astar_op(rng, n):
    pairs = [(graded(rand_weight(rng, n)), graded(rand_weight(rng, n))) for _ in range(4)]
    data = UnFusion(n)

    def check(res):
        return len(res) == len(pairs) and all(oracles.fusion_ok(data, x, y, r, True) for (x, y), r in zip(pairs, res))

    # a fresh UnFusion per operation, so its tensor memo never carries over
    return Op("astar-tensor", lambda: [fusion.astar_tensor(UnFusion(n), x, y) for x, y in pairs], check)


def _table_op(n):
    return Op("fusion-table", lambda: fusion_table(n, 2), lambda res: fusion_table_ok(n, res))


# copies of the 54-operation mix in one round: at least 100 operations, and
# enough distinct inputs that the seed hardly moves the cost of a round
SYMBOLIC_COPIES = 4


def symbolic_round(rng, copies=SYMBOLIC_COPIES):
    ops = []
    for _ in range(copies):
        ops += [_nf_op(rng) for _ in range(6)]
        ops += [_ah_mul_op(rng, 2 + k % 2) for k in range(6)]
        ops += [_coproduct_op(rng, k) for k in range(8)]
        ops += [_involution_op(rng, "star", k) for k in range(4)]
        ops += [_involution_op(rng, "antipode", k) for k in range(4)]
        ops += [_embed_op(rng) for _ in range(6)]
        ops += [_crossed_coproduct_op(rng, k % 2 == 0) for k in range(6)]
        ops += [_lr_op(rng, 3 + k % 2) for k in range(6)]
        ops += [_astar_op(rng, 3 + k % 2) for k in range(6)]
        ops += [_table_op(3), _table_op(4)]
    rng.shuffle(ops)
    return ops


# -- cli-cold ------------------------------------------------------------------


def _json_field(stdout, key):
    return json.loads(stdout)[key]


def _normalize_call(rng, context):
    ctx = parse_context(context)
    if context.startswith("crossed"):
        terms = []
        for _ in range(3):
            degree = rng.randint(1, 3)
            u = rng.randint(0, degree)
            terms.append((rng.choice(GAUSS_COEFFS), rand_monomial(rng, ctx.n, u, degree - u), rng.random() < 0.5))
        ref = crossed_value(ctx.n, terms)
        text = crossed_terms_text(terms)
        check = lambda out: parse_expression(out.strip(), ctx) == ref  # noqa: E731
    else:
        coeffs = REAL_COEFFS if ctx.orthogonal else GAUSS_COEFFS
        terms = rand_terms(rng, ctx, (5, 4, 2, 1), coeffs)
        text = terms_text(terms, ctx)
        check = lambda out: oracles.word_element_matches(parse_expression(out.strip(), ctx), terms, ctx)  # noqa: E731
    return Call("normalize", ["normalize", "--context", context, text], 0, check)


def relabeling(rng, n):
    """Random permutations of the row and of the column indices 1..n."""
    rows, cols = list(range(1, n + 1)), list(range(1, n + 1))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return dict(zip(range(1, n + 1), rows)), dict(zip(range(1, n + 1), cols))


def relabel_terms(terms, pres, perm):
    """Word terms under v -> P v Q for permutation matrices P, Q: an
    automorphism, so equalities and Haar values are kept, and so is the work
    of deciding them."""
    rows, cols = perm
    return {tuple(letter(pres, rows[l.row], cols[l.col], l.starred) for l in w): c for w, c in terms.items()}


def _exact_equal_call(rng, shapes, n, equal):
    pres = ao_star(n)
    perm = relabeling(rng, n)
    xt, yt = (relabel_terms(t, pres, perm) for t in equality_pair(shapes, pres, (4, 2), equal))
    argv = ["equal", "--json", "--context", str(pres), "--method", "exact", terms_text(xt, pres), terms_text(yt, pres)]

    def check(out):
        x, y = (crossed.embed_pi(WordElement(pres, t)) for t in (xt, yt))
        return _json_field(out, "equal") == pointwise_equal(x, y)

    return Call("equal", argv, 0, check)


def _nf_equal_call(rng, pres, equal):
    xt = rand_terms(rng, pres, (5, 4, 2))
    if equal:
        # move one word by a single half-commutation rewrite abc -> cba
        w = next(iter(xt))
        k = rng.randint(0, len(w) - 3)
        yt = dict(xt)
        c = yt.pop(w)
        yt = add_terms(yt, {w[:k] + (w[k + 2], w[k + 1], w[k]) + w[k + 3 :]: c})
    else:
        yt = add_terms(xt, {rand_word(rng, pres, rng.randint(1, 4)): 1})
    argv = ["equal", "--json", "--context", str(pres), "--method", "nf", terms_text(xt, pres), terms_text(yt, pres)]

    def check(out):
        expect = oracles.closure_canonical(xt, pres) == oracles.closure_canonical(yt, pres)
        return _json_field(out, "equal") == expect

    return Call("equal", argv, 0, check)


# (group model, context, the word relation that vanishes on the model): the
# monomial group kills v[1,1] v[1,2] (one non-zero entry per row), the torus
# kills every off-diagonal letter, and the block group inherits the column
# norm of the doubled unitary.
MC_MODELS = (
    ("kn:{n}", "ao-star:{n}", lambda pres: {(letter(pres, 1, 1), letter(pres, 1, 2)): _coerce(1)}),
    ("torus:{n}", "ao-star:{n}", lambda pres: {(letter(pres, 1, 2),): _coerce(1)}),
    ("u2n:{n}", "au-star-star:{n}", relation),
)


def _mc_equal_call(rng, k, equal, seed):
    model_fmt, ctx_fmt, rel = MC_MODELS[k]
    n = rng.choice((2, 3)) if k < 2 else rng.choice((1, 2))
    model, pres = model_fmt.format(n=n), parse_context(ctx_fmt.format(n=n))
    xt = rand_terms(rng, pres, (3, 2))
    if equal:
        extra = sandwich(rng, pres, rel(pres), 1)
    else:
        # diagonal letters are non-zero on every shipped model
        i = rng.randint(1, n)
        extra = {(letter(pres, i, i), letter(pres, i, i, not pres.orthogonal)): _coerce(1)}
    yt = add_terms(xt, extra)
    argv = ["equal", "--json", "--context", str(pres), "--method", "mc", "--group", model,
            "--samples", "2000", "--seed", str(seed), terms_text(xt, pres), terms_text(yt, pres)]

    def check(out):
        x, y = (crossed.embed_pi(WordElement(pres, t)) for t in (xt, yt))
        return _json_field(out, "equal") == oracles.model_equal(x, y, model)

    return Call("equal", argv, 0, check)


def _haar_exact_call(rng, shapes, n):
    rows, cols = relabeling(rng, n)
    terms = [(shapes.choice(REAL_COEFFS), balanced_monomial(shapes, n, 4), False),
             (shapes.choice(REAL_COEFFS), balanced_monomial(shapes, n, shapes.randint(1, 3)), False),
             (shapes.choice(REAL_COEFFS), rand_monomial(shapes, n, 1, 1), True)]
    terms = [(c, [(rows[i], cols[j], bar) for i, j, bar in syms], odd) for c, syms, odd in terms]
    x = crossed_value(n, terms)
    argv = ["haar", "--group", f"un:{n}", crossed_terms_text(terms)]
    return Call("haar", argv, 0, lambda out: oracles.haar_value_ok(x, oracles.printed_scalar(out.strip()), f"un:{n}"))


def _haar_mc_call(rng, model, seed):
    kind, n = model.split(":")
    ambient = 2 * int(n) if kind == "u2n" else int(n)
    terms = [(rng.choice(REAL_COEFFS), balanced_monomial(rng, ambient, rng.randint(1, 2)), False),
             (rng.choice(REAL_COEFFS), rand_monomial(rng, ambient, 1, 1), False)]
    x = crossed_value(ambient, terms)
    argv = ["haar", "--mc", "--group", model, "--samples", "2000", "--seed", str(seed), crossed_terms_text(terms)]

    def check(out):
        got = json.loads(out)
        mean = complex(got["mean_re"], got["mean_im"])
        return oracles.mc_estimates_agree(x, mean, got["stderr"], model, seed=seed + 1)

    return Call("haar", argv, 0, check)


def _label_text(group, label):
    weight, flag = label
    if group == "su2":
        body = f"j={weight}"
    elif group.startswith("torus"):
        body = "t[" + ",".join(map(str, weight)) + "]"
    else:
        body = "[" + ",".join(map(str, weight)) + "]"
    return f"({body},{'s' if flag else 'e'})"


def _parse_label(group, text):
    body, _, flag = text[1:-1].rpartition(",")
    if group == "su2":
        return Fraction(body[2:]), int(flag == "s")
    return tuple(int(v) for v in body[body.index("[") + 1 : -1].split(",")), int(flag == "s")


def _fuse_call(rng, group):
    if group == "su2":
        x, y = ((Fraction(rng.randint(0, 4), 2), rng.randint(0, 1)) for _ in range(2))
    elif group.startswith("torus"):
        n = int(group.split(":")[1])
        x, y = ((tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(0, 1)) for _ in range(2))
    else:
        n = int(group.split(":")[1])
        x, y = ((rand_weight(rng, n), rng.randint(0, 1)) for _ in range(2))
    data = oracles.fusion_data(group)

    def check(out):
        rows = json.loads(out)
        dec = {_parse_label(group, r["label"]): r["mult"] for r in rows}
        return oracles.fusion_ok(data, x, y, dec, False)

    return Call("fuse", ["fuse", "--json", "--group", group, _label_text(group, x), _label_text(group, y)], 0, check)


def _fusion_table_call(n):
    data = UnFusion(n)
    return Call("fusion-table", ["fusion-table", "--group", f"un:{n}", "--grade-cap", "2"], 0,
                lambda out: oracles.table_ok(data, json.loads(out)))


PREDICATE_MODELS = ("un:2", "kn:3", "torus:2", "u2n:2", "on:3", "sun:2")


def _predicates_call(model, seed):
    # every shipped model is self-transpose; for n >= 2 every model but the
    # orthogonal group has non-real and doubly non-real entries
    real = model.startswith("on")
    expect = {"self_transpose": True, "non_real": not real, "doubly_non_real": not real}

    def check(out):
        rows = [json.loads(line) for line in out.splitlines() if line.strip()]
        return {r["predicate"]: r["value"] for r in rows} == expect

    return Call("predicates", ["predicates", "--model", model, "--trials", "50", "--seed", str(seed)], 0, check)


def _failing_malformed_call(rng, block):
    """Inputs whose documented outcome is exit 2 but that escape as a
    traceback (exit 1) at the time the benchmark was written."""
    if block % 2 == 0:
        return Call("normalize", ["normalize", "--context", "ao-star:2", f"v[1,1] + {rng.randint(1, 9)}/0"], 2)
    i, j = rng.randint(1, 2), rng.randint(1, 2)
    text = " ".join([f"u[{i},{j}]"] * 6 + [f"u*[{i},{j}]"] * 6)
    return Call("haar", ["haar", "--group", "un:2", text], 2)


def _malformed_call(rng, k):
    cases = (
        ["normalize", "--context", "ao-star:2", f"v[{rng.randint(3, 9)},1]"],
        ["normalize", "--context", "ao-star:2", "v[1,1] ^ 2"],
        ["equal", "--context", "crossed:2", "--method", "nf", "u[1,1]", "u[1,1]"],
        ["haar", "--group", "xx:2", "u[1,1]"],
        ["fuse", "--group", "un:2", "[1,2]", "[0,0]"],
    )
    return Call(cases[k % len(cases)][0], cases[k % len(cases)], 2)


CLI_BLOCKS = 5  # 20 calls each, plus one verify battery: 101 calls a round


def cli_round(rng, seed):
    # The exact calls are the slowest tenth of the round, and their work
    # depends on which indices of their words coincide; so their words are
    # drawn once for every seed, and the seed relabels their indices.
    shapes = random.Random("cli-cold exact calls")
    # the battery CI and users run: default parameters and seed
    calls = [Call("verify", ["verify", "--suite", "all"], 0)]
    for b in range(CLI_BLOCKS):
        s = seed * 100 + b
        calls += [
            _normalize_call(rng, f"ao-star:{rng.choice((2, 3))}"),
            _normalize_call(rng, f"ah-star:{rng.choice((2, 3))}"),
            _normalize_call(rng, f"au-star-star:{rng.choice((1, 2))}"),
            _normalize_call(rng, f"crossed:{rng.choice((2, 3))}"),
            # exact calls reach degree 4 below (n = 2, 3) and at (n = 4) the degree
            _exact_equal_call(rng, shapes, 2, b % 2 == 0),
            _exact_equal_call(rng, shapes, 3, b % 2 == 1),
            _exact_equal_call(rng, shapes, 4, b % 2 == 0),
            _exact_equal_call(rng, shapes, 3, b % 2 == 0),
            _nf_equal_call(rng, (ao_star(2), ah_star(2), au_star_star(2))[b % 3], b % 2 == 1),
            _mc_equal_call(rng, 0, b % 2 == 0, s),
            _mc_equal_call(rng, 1, b % 2 == 1, s),
            _mc_equal_call(rng, 2, b % 2 == 0, s),
            _haar_exact_call(rng, shapes, 3),
            _haar_exact_call(rng, shapes, 4),
            _haar_mc_call(rng, ("kn:3", "torus:2", "u2n:1")[b % 3], s),
            _fuse_call(rng, ("un:2", "un:3", "su2", "torus:2")[b % 4]),
            _fusion_table_call(3 + b % 2),
            _predicates_call(PREDICATE_MODELS[b % len(PREDICATE_MODELS)], s),
            _failing_malformed_call(rng, b),
            _malformed_call(rng, b),
        ]
    rng.shuffle(calls)
    return calls
