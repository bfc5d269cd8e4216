"""Count what the cyclic garbage collector walks during symbolic rounds.

Usage: ``python tools/gc_census.py --seed N --rounds K`` (from anywhere).

Draws the benchmark's ``symbolic`` round for seed N (the same operations,
in the same order) and runs it through ``perfbench``'s own loop
(``perfbench.run.in_process_loop``): once untimed, to warm the caches, then
K rounds with a ``gc.callbacks`` timer installed.  It prints, per
generation, how many collections ran and the seconds they took, next to the
rounds' own seconds, and then, per operation kind, its operations in a
round and their mean milliseconds per timed round, the largest first, with
its share of a round: where a round's time goes.  Last, with the timed loop
still alive (its first round's answers, latencies and per-round records, as
a benchmark run holds them), it prints after ``gc.collect()`` how many
objects the collector tracks (``gc.get_objects()``), by type, the ``TOP``
largest counts first, and every type of the library: the objects that
every full collection walks.  It ends with the process-wide memos: the
coproduct split memos (``words._CLASS_SPLITS``, ``crossed._MONOMIAL_SPLITS``),
the classes each holds and their splits, against the cap
``words.SPLIT_MEMO_CAP``, and the Littlewood-Richardson memo
(``fusion._LR_PRODUCTS``), the products it holds and their constituents,
against the cap ``fusion.LR_MEMO_CAP``.
"""

from __future__ import annotations

import argparse
import gc
import os
import random
import sys
from collections import Counter
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from halfcomm import crossed, fusion, words  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.run import in_process_loop  # noqa: E402

TOP = 15  # types listed, the largest counts first


def timed_rounds(ops, rounds):
    """The loop of the rounds, and per generation [collections, seconds]."""
    per_gen = [[0, 0.0] for _ in range(3)]
    started = []

    def timer(phase, info):
        if phase == "start":
            started.append(perf_counter())
        elif started:
            gen = per_gen[info["generation"]]
            gen[0] += 1
            gen[1] += perf_counter() - started.pop()

    gc.callbacks.append(timer)
    try:
        loop = in_process_loop(ops, 0, max_rounds=rounds)
    finally:
        gc.callbacks.remove(timer)
    return loop, per_gen


def kind_times(loop):
    """(kind, operations in a round, seconds in all rounds) per operation
    kind, the largest time first."""
    seconds = Counter()
    for kind, latency in zip(loop.kinds, loop.latencies):
        seconds[kind] += latency
    counts, rounds = Counter(loop.kinds), len(loop.round_s)
    return [(kind, counts[kind] // rounds, s) for kind, s in seconds.most_common()]


def census():
    """Tracked objects by type name after a full collection."""
    gc.collect()
    counts = Counter()
    for obj in gc.get_objects():
        kind = type(obj)
        module = kind.__module__
        counts[kind.__qualname__ if module == "builtins" else f"{module}.{kind.__qualname__}"] += 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    ops = workloads.symbolic_round(random.Random(f"symbolic:{args.seed}"))
    in_process_loop(ops, 0, max_rounds=1)  # warms the caches; its answers are dropped
    loop, per_gen = timed_rounds(ops, args.rounds)
    print(f"# symbolic seed {args.seed}, {len(ops)} operations, {args.rounds} warm rounds: {loop.seconds * 1e3:.1f} ms")
    print(f"{'generation':<10} {'collections':>11} {'ms':>9} {'ms/round':>9}")
    for gen, (count, gen_s) in enumerate(per_gen):
        print(f"{gen:<10} {count:>11} {gen_s * 1e3:>9.2f} {gen_s * 1e3 / args.rounds:>9.2f}")
    print(f"{'kind':<18} {'ops/round':>9} {'ms/round':>9} {'share':>6}")
    for kind, count, kind_s in kind_times(loop):
        print(f"{kind:<18} {count:>9} {kind_s * 1e3 / args.rounds:>9.2f} {kind_s / loop.seconds:>6.1%}")
    counts = census()  # the timed loop is still alive, as in a benchmark run
    print(f"# tracked objects after the rounds: {sum(counts.values()):,}")
    for name, count in counts.most_common(TOP):
        print(f"{count:>9,}  {name}")
    print("# of which the library's, by type:")
    for name, count in counts.most_common():
        if name.startswith("halfcomm."):
            print(f"{count:>9,}  {name}")
    print(f"# split memos after the rounds (cap {words.SPLIT_MEMO_CAP:,} splits each): entries, splits")
    for name, memo in (("words._CLASS_SPLITS", words._CLASS_SPLITS), ("crossed._MONOMIAL_SPLITS", crossed._MONOMIAL_SPLITS)):
        print(f"{len(memo):>9,} {memo.held:>9,}  {name}")
    print(f"# Littlewood-Richardson memo after the rounds (cap {fusion.LR_MEMO_CAP:,} constituents): "
          "entries, constituents")
    print(f"{len(fusion._LR_PRODUCTS):>9,} {fusion._LR_PRODUCTS.held:>9,}  fusion._LR_PRODUCTS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
