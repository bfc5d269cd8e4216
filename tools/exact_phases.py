"""Time the stages of the exact equality decisions of one exact-warm round.

Usage: ``python tools/exact_phases.py --seed N --reps K`` (from anywhere).

Draws the benchmark's ``exact-warm`` round for seed N (the same inputs, in
generation order).  First it builds the round's Weingarten tables and
takes one pass of the round, its equality decisions and Haar states, with
their monomial memos empty: it prints that cold pass's ms and how many
double cosets it walks (calls of ``haar._coset_integral``, counted by a
wrapper in this process), the cost of meeting monomials for the first
time, which the benchmark's warm rounds do not show.  It then decides
every pair once untimed, and K more times, timing each stage of
``haar.norm_equal(embed_pi(x), embed_pi(y))`` on its own:

- embed: ``embed_pi`` of both sides;
- subtract: the difference of the two images;
- witness: ``haar.witness_refutes`` of the difference;
- norm: ``haar.norm_squared`` of it, for the pairs the witness does not refute.

Prints one line per (presentation, equal or unequal pair): the number of
pairs, the mean ms of each stage per pair (norm per pair that reaches it)
and how many pairs reach the norm.  The answers are checked against
``haar.norm_equal``.

Then, per presentation and for the whole round, its equality decisions
and Haar states taken once: how many embedded words, and how many
integrated monomials, repeat an earlier one of the round, the work that
the word-image cache of ``crossed.embed_pi`` and the monomial memo of the
Weingarten tables save.  The words are read off the round's elements; the
monomials are those the round hands ``haar._integral``, recorded by a
wrapper in this process.  Last, the ``cache_info()`` of the word cache.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from collections import defaultdict
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import workloads  # noqa: E402

from halfcomm import crossed, haar  # noqa: E402
from halfcomm.words import WordElement  # noqa: E402

PHASES = ("embed", "subtract", "witness", "norm")


def round_inputs(seed):
    """The seed's exact-warm round, drawn as ``workloads.exact_warm_round``
    draws it: (group, x, y) of each equality decision, and (presentation, x)
    of each Haar state."""
    rng = random.Random(f"exact-warm:{seed}")
    pairs, states = [], []
    for pres, lengths, n_equal, n_state in workloads.EXACT_WARM:
        for k in range(n_equal):
            equal = k % 2 == 0
            xt, yt = workloads.equality_pair(rng, pres, lengths, equal)
            pairs.append(((str(pres), "equal" if equal else "unequal"), WordElement(pres, xt), WordElement(pres, yt)))
        for _ in range(n_state):
            states.append((str(pres), WordElement(pres, workloads.rand_terms(rng, pres, lengths))))
    return pairs, states


def run_round(pairs, states, before=lambda pres: None):
    """One pass of the round: each equality decision, then each Haar state,
    calling ``before`` with the presentation ahead of each."""
    for (pres, _kind), x, y in pairs:
        before(pres)
        haar.norm_equal(crossed.embed_pi(x), crossed.embed_pi(y))
    for pres, x in states:
        before(pres)
        haar.haar_state(crossed.embed_pi(x))


def cold_pass(pairs, states):
    """Seconds and ``haar._coset_integral`` calls of one pass of the round
    with fresh Weingarten tables: built, before the pass, with empty
    monomial memos."""
    haar._TABLE_CACHE.clear()
    for p, n in workloads.exact_tables():
        haar.weingarten_table(p, n)
    walk, walks = haar._coset_integral, [0]

    def counting(*args):
        walks[0] += 1
        return walk(*args)

    haar._coset_integral = counting
    try:
        t0 = perf_counter()
        run_round(pairs, states)
        secs = perf_counter() - t0
    finally:
        haar._coset_integral = walk
    return secs, walks[0]


def repeat_counts(pairs, states):
    """{presentation: (words, repeated words, monomials, repeated monomials)}
    over one pass of the round, "all" for the whole round: an item repeats
    when an earlier one of the round equals it (a word over the same
    presentation, a monomial over the same dimension)."""
    words, monos = defaultdict(list), defaultdict(list)
    for (pres, _kind), x, y in pairs:
        words[pres] += [*x.terms, *y.terms]
    for pres, x in states:
        words[pres] += list(x.terms)
    integral = haar._integral
    current = []  # the presentations of the operations run; the last one is running

    def recording(mono, n, p_max):
        monos[current[-1]].append((mono, n))
        return integral(mono, n, p_max)

    haar._integral = recording
    try:
        run_round(pairs, states, current.append)
    finally:
        haar._integral = integral
    out = {}
    for pres in sorted(words):
        w, m = words[pres], monos[pres]
        out[pres] = (len(w), len(w) - len(set(w)), len(m), len(m) - len(set(m)))
    out["all"] = tuple(map(sum, zip(*out.values())))
    return out


def decide(x, y, times):
    """``norm_equal(embed_pi(x), embed_pi(y))``, adding each stage's seconds
    to ``times``; and whether the norm was reached."""
    t0 = perf_counter()
    ex, ey = crossed.embed_pi(x), crossed.embed_pi(y)
    t1 = perf_counter()
    d = ex - ey
    t2 = perf_counter()
    refuted = haar.witness_refutes(d)
    t3 = perf_counter()
    times["embed"] += t1 - t0
    times["subtract"] += t2 - t1
    times["witness"] += t3 - t2
    if refuted:
        return False, False
    equal = haar.norm_squared(d) == 0
    times["norm"] += perf_counter() - t3
    return equal, True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    pairs, states = round_inputs(args.seed)
    secs, walks = cold_pass(pairs, states)
    print(f"# exact-warm seed {args.seed}, first pass with fresh tables: {secs * 1e3:.1f} ms, {walks} coset walks")
    count, reached = defaultdict(int), defaultdict(int)
    for group, x, y in pairs:
        answer, norm = decide(x, y, defaultdict(float))
        if answer != haar.norm_equal(crossed.embed_pi(x), crossed.embed_pi(y)):
            print(f"stage-by-stage answer differs from norm_equal for {x!r} and {y!r}", file=sys.stderr)
            return 1
        count[group] += 1
        reached[group] += norm

    times = defaultdict(lambda: defaultdict(float))
    for _ in range(args.reps):
        for group, x, y in pairs:
            decide(x, y, times[group])
    print(f"# exact-warm seed {args.seed}, {args.reps} reps: mean ms per pair (norm: per pair that reaches it)")
    print(f"{'presentation':<16} {'pairs':<8} {'count':>5} " + " ".join(f"{p:>9}" for p in PHASES) + "  reach-norm")
    for group in sorted(count):
        per = {p: args.reps * (reached[group] if p == "norm" else count[group]) for p in PHASES}
        means = [times[group][p] / per[p] * 1e3 if per[p] else 0.0 for p in PHASES]
        print(f"{group[0]:<16} {group[1]:<8} {count[group]:>5} " + " ".join(f"{m:>9.4f}" for m in means)
              + f"  {reached[group]:>10}")

    print(f"# exact-warm seed {args.seed}, one pass of the round: items that repeat an earlier one of the round")
    print(f"{'presentation':<16} {'words':>6} {'repeat':>7} {'share':>6}  {'monomials':>9} {'repeat':>7} {'share':>6}")
    for pres, (w, w_rep, m, m_rep) in repeat_counts(pairs, states).items():
        print(f"{pres:<16} {w:>6} {w_rep:>7} {w_rep / w:>6.1%}  {m:>9} {m_rep:>7} {(m_rep / m if m else 0):>6.1%}")
    print(f"# word cache: {crossed._word_image.cache_info()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
