"""Time the stages of the exact equality decisions of one exact-warm round.

Usage: ``python tools/exact_phases.py --seed N --reps K`` (from anywhere).

Draws the equality pairs of the benchmark's ``exact-warm`` round for seed N
(the same inputs, in generation order), warms the Weingarten tables and
decides every pair once untimed, then decides them K more times, timing
each stage of ``haar.norm_equal(embed_pi(x), embed_pi(y))`` on its own:

- embed: ``embed_pi`` of both sides;
- subtract: the difference of the two images;
- witness: ``haar.witness_refutes`` of the difference;
- norm: ``haar.norm_squared`` of it, for the pairs the witness does not refute.

Prints one line per (presentation, equal or unequal pair): the number of
pairs, the mean ms of each stage per pair (norm per pair that reaches it)
and how many pairs reach the norm.  The answers are checked against
``haar.norm_equal``.
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


def round_pairs(seed):
    """(group, x, y) of each equality decision of the seed's exact-warm round,
    drawn as ``workloads.exact_warm_round`` draws them."""
    rng = random.Random(f"exact-warm:{seed}")
    out = []
    for pres, lengths, n_equal, n_state in workloads.EXACT_WARM:
        for k in range(n_equal):
            equal = k % 2 == 0
            xt, yt = workloads.equality_pair(rng, pres, lengths, equal)
            out.append(((str(pres), "equal" if equal else "unequal"), WordElement(pres, xt), WordElement(pres, yt)))
        for _ in range(n_state):
            workloads.rand_terms(rng, pres, lengths)  # the round's Haar states draw from the same stream
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

    for p, n in workloads.exact_tables():
        haar.weingarten_table(p, n)
    pairs = round_pairs(args.seed)
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
