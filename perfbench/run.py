"""halfcomm benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one caller, closed loop, at most one child process at a time):

- ``cli-cold``: a seeded script of documented command lines, each in a fresh
  ``python -m halfcomm`` process, including one ``verify --suite all`` battery
  and a fixed share of malformed and over-cap inputs whose documented outcome
  is exit 2;
- ``exact-warm``: in-process exact equality decisions and Haar states with the
  Weingarten tables warmed during set-up;
- ``symbolic``: in-process normal forms, coproducts, Hopf maps, embeddings and
  fusion rules, with no Haar integration.

A round holds at least 100 distinct operations, so that ten of them lie beyond
p90.  Each run repeats the workload's round until ``--seconds`` of rounds have
passed, checks every answer with an oracle outside the timed region, and
prints one JSON object as its last line.

End-to-end metrics (``--trace 0``): ``setup_s`` is the median of several
set-ups (input generation, plus the Weingarten warm-up on exact-warm and a
fresh ``import halfcomm`` process on cli-cold); ``wall_s`` is the mean time of
one round; ``ops_per_s`` counts operations per second of rounds; the latency
percentiles are taken over the operations of the round, each operation's
latency being its mean over the run's rounds (a mean over a run is steadier
than a median on a host whose speed flips between states every few seconds);
``success_ratio`` is 1 - failed / attempted; ``peak_rss_mb`` is the peak RSS
of the process that did the work.  The times are scaled to a reference host
speed sampled throughout the run (see ``speed.py``); the result file keeps
them unscaled too.  ``failed`` counts wrong answers, exceptions and wrong
exit codes (each check of the verify battery counts as one operation);
``correct`` is false when a well-formed operation answered wrongly.

Per-layer metrics (``--trace 1``): after a set-up and a few untraced rounds
the run repeats them with spans recorded around every layer's public
functions (see ``trace.py``) and reports counts and self times; a layer the
workload does not use reads 0.  The traced exact-warm run also times cold
Weingarten builds (``probes.py``).
Provenance, all metrics and the spans go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "perfbench" / "results"
MIN_OPS = 100  # operations in a round, so that ten of them lie beyond p90
TRACED_ROUNDS = 3  # in-process rounds timed with and without the tracer
SETUPS = {"cli-cold": 5, "exact-warm": 2, "symbolic": 9}
SETUP_SPEED_SAMPLES = 8  # host-speed samples before and after each set-up

_IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import halfcomm\n"
    "print(time.perf_counter() - start)\n"
)


def _percentile(values, q):
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def per_op_latency(loop, n_ops):
    """Each operation's mean latency over the rounds of the loop."""
    return [statistics.fmean(loop.latencies[k::n_ops]) for k in range(n_ops)]


class Loop:
    """What one timed loop measured and answered.

    Latencies are kept in round order.  In-process loops keep the first
    round's results and, per later round, which operations answered
    differently; command-line loops keep every call's result, the largest
    child RSS, and the spans of traced children.
    """

    def __init__(self):
        self.latencies = []
        self.kinds = []
        self.round_s = []
        self.first = None
        self.changed = []
        self.rounds = []
        self.spans = []
        self.max_rss_mb = 0.0

    @property
    def seconds(self):
        return sum(self.round_s)


def _run_op(op):
    try:
        return op.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        return exc


def _same(res, ref):
    return res is ref or (not isinstance(res, (Exception, type(None))) and res == ref)


def in_process_loop(ops, seconds, max_rounds=None, speed=None):
    """Repeat the round until ``seconds`` of rounds are done (or
    ``max_rounds`` rounds).  A round's time is the sum of its operations'
    latencies; host-speed samples (``speed``) are taken between operations,
    and comparing a round's answers with the first round's between rounds,
    both outside the timed region."""
    loop = Loop()
    while True:
        results = []
        for op in ops:
            if speed is not None:
                speed.maybe_sample()
            t0 = perf_counter()
            res = _run_op(op)
            loop.latencies.append(perf_counter() - t0)
            results.append(res)
        loop.round_s.append(sum(loop.latencies[-len(ops):]))
        loop.kinds.extend(op.kind for op in ops)
        if loop.first is None:
            loop.first = results
        else:
            loop.changed.append([not _same(res, ref) for res, ref in zip(results, loop.first)])
        if max_rounds is not None:
            if len(loop.round_s) >= max_rounds:
                break
        elif loop.seconds >= seconds:
            break
    return loop


def _oracle(check, result):
    if isinstance(result, Exception):
        return False
    try:
        return bool(check(result))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


def check_in_process(ops, loop):
    """Per-kind [attempted, failed, wrong].  The first round's answers go
    through the oracles; later rounds must repeat them exactly."""
    first_ok = [_oracle(op.check, res) for op, res in zip(ops, loop.first)]
    tally = defaultdict(lambda: [0, 0, 0])
    for changed in [[False] * len(ops)] + loop.changed:
        for op, ok, diff in zip(ops, first_ok, changed):
            bad = int(diff or not ok)
            tally[op.kind][0] += 1
            tally[op.kind][1] += bad
            tally[op.kind][2] += bad
    return dict(tally)


def cli_loop(calls, seconds, spans_dir=None, speed=None):
    from perfbench.procs import run_child
    from perfbench.trace import merge

    loop = Loop()
    while True:
        results = []
        for k, call in enumerate(calls):
            if speed is not None:
                speed.maybe_sample()
            if spans_dir is None:
                res = run_child(["-m", "halfcomm", *call.argv])
            else:
                path = os.path.join(spans_dir, f"{k}.json")
                res = run_child(["-m", "perfbench.cli_child", path, *call.argv])
                if os.path.exists(path):
                    with open(path) as fh:
                        merge(loop.spans, json.load(fh))
                    os.remove(path)
            loop.latencies.append(res.seconds)
            loop.max_rss_mb = max(loop.max_rss_mb, res.max_rss_mb)
            results.append(res)
        loop.round_s.append(sum(loop.latencies[-len(calls):]))
        loop.rounds.append(results)
        loop.kinds.extend(call.kind for call in calls)
        if spans_dir is not None or loop.seconds >= seconds:
            break
    return loop


def verify_tally(result):
    """(checks, failed checks) of one ``verify --suite all`` call.  The exit
    code must be 0 exactly when every check passed."""
    rows = []
    for line in result.stdout.splitlines():
        try:
            rows.append(json.loads(line))
        except ValueError:
            pass
    failed = sum(r.get("status") != "pass" for r in rows)
    consistent = rows and result.exit_code == (0 if failed == 0 else 1)
    attempted = max(len(rows), 1)
    return attempted, min(attempted, failed + (not consistent))


def check_cli(calls, loop):
    """Per-kind [attempted, failed, wrong].  A call fails when its exit code
    differs from the documented one or its output fails the oracle.  Failures
    on well-formed input are wrong answers; a malformed input (documented
    outcome: exit 2) that ends otherwise is a failure but not a wrong answer."""
    tally = defaultdict(lambda: [0, 0, 0])
    for results in loop.rounds:
        for call, res in zip(calls, results):
            if call.kind == "verify":
                attempted, failed = verify_tally(res)
            else:
                ok = res.exit_code == call.exit_code and not res.timed_out
                if ok and call.check is not None:
                    ok = _oracle(call.check, res.stdout)
                attempted, failed = 1, int(not ok)
            tally[call.kind][0] += attempted
            tally[call.kind][1] += failed
            tally[call.kind][2] += failed if call.exit_code == 0 else 0
    return dict(tally)


def _import_probe():
    from perfbench.procs import run_child

    res = run_child(["-c", _IMPORT_PROBE])
    if res.exit_code != 0:
        raise RuntimeError(f"importing halfcomm failed:\n{res.stderr}")
    return float(res.stdout)


def _reset_tables():
    """Drop the exact Weingarten tables so that the next build is cold.

    The package has no public way to do this; the module cache is cleared,
    and a table requested afterwards must be a new object, or set-up would
    silently be warm.
    """
    from halfcomm import haar

    before = haar.weingarten_table(1, 1)
    cache = getattr(haar, "_TABLE_CACHE", None)
    if cache is not None:
        cache.clear()
    clear = getattr(haar.weingarten_table, "cache_clear", None)
    if clear is not None:
        clear()
    if haar.weingarten_table(1, 1) is before:
        raise RuntimeError("cannot clear the Weingarten table cache; set-up would not be cold")
    if cache is not None:
        cache.clear()


# -- workloads -----------------------------------------------------------------


def _setup_exact(seed):
    from halfcomm.haar import weingarten_table
    from perfbench.workloads import exact_tables, exact_warm_round

    _reset_tables()
    ops = exact_warm_round(_rng("exact-warm", seed))
    for p, n in exact_tables():
        weingarten_table(p, n)
    return ops


def _setup_symbolic(seed):
    from perfbench.workloads import symbolic_round

    return symbolic_round(_rng("symbolic", seed))


def _setup_cli(seed):
    from perfbench.workloads import cli_round

    calls = cli_round(_rng("cli-cold", seed), seed)
    return calls, _import_probe()


def run_workload(name, seed, seconds, trace):
    from perfbench import trace as tr
    from perfbench.speed import Speed

    speed = Speed()
    in_process = name in ("exact-warm", "symbolic")
    setup = {"exact-warm": _setup_exact, "symbolic": _setup_symbolic, "cli-cold": _setup_cli}[name]
    tracer = tr.Tracer(phase="setup") if trace else None
    setup_times, scaled_setup_times, import_times = [], [], []
    setups = 1 if trace else SETUPS[name]  # setup_s is not reported on traced runs
    for k in range(setups):
        undo = tr.install(tracer) if trace and in_process else None
        around = Speed()  # each set-up is scaled by the speed just around it
        around.sample(SETUP_SPEED_SAMPLES)
        start = perf_counter()
        made = setup(seed)
        setup_times.append(perf_counter() - start)
        around.sample(SETUP_SPEED_SAMPLES)
        scaled_setup_times.append(setup_times[-1] * around.scale)
        if undo is not None:
            tr.uninstall(undo)
        if not in_process:
            made, import_s = made
            import_times.append(import_s)
    ops = made
    if len(ops) < MIN_OPS:
        raise RuntimeError(f"a {name} round holds {len(ops)} operations, fewer than {MIN_OPS}")

    if in_process:
        loop = in_process_loop(ops, seconds, max_rounds=TRACED_ROUNDS if trace else None, speed=speed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        loop = cli_loop(ops, seconds, speed=speed)
        peak_rss_mb = loop.max_rss_mb

    layer, spans = {}, []
    if trace:
        if in_process:
            undo = tr.install(tracer)
            tracer.phase = "loop"
            try:
                traced = in_process_loop(ops, 0, max_rounds=TRACED_ROUNDS)
            finally:
                tr.uninstall(undo)
            spans = tracer.spans
        else:
            with tempfile.TemporaryDirectory(dir=ROOT) as spans_dir:
                traced = cli_loop(ops, 0, spans_dir=spans_dir)
            spans = traced.spans
        layer.update(tr.layer_metrics(spans))
        layer["trace.overhead_s"] = statistics.fmean(traced.round_s) - statistics.fmean(loop.round_s)
        layer["trace.bypass_calls"] = tr.calls_by_layer(spans, "loop")
        if not in_process:
            layer["cli.import_s"] = statistics.median(import_times)
            by_command = defaultdict(list)
            for kind, lat in zip(loop.kinds, loop.latencies):
                by_command[kind].append(lat)
            for kind, lats in by_command.items():
                layer[f"cli.{kind}.latency_p50_ms"] = statistics.median(lats) * 1e3
        if name == "exact-warm":
            from perfbench.probes import BUDGET_S, cold_grid, reach_p

            grid = cold_grid()
            for (p, n), secs in grid.items():
                layer[f"haar.cold_build_s.p{p}n{n}"] = BUDGET_S if secs is None else secs
            layer["haar.cold_build_timeouts"] = sum(secs is None for secs in grid.values())
            layer["haar.reach_p"] = reach_p(grid)

    tally = check_in_process(ops, loop) if in_process else check_cli(ops, loop)
    attempted = sum(t[0] for t in tally.values())
    failed = sum(t[1] for t in tally.values())
    wrong = sum(t[2] for t in tally.values())
    op_latency = per_op_latency(loop, len(ops))
    raw = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.fmean(loop.round_s),
        "ops_per_s": len(loop.latencies) / loop.seconds,
        "latency_p50_ms": _percentile(op_latency, 0.5) * 1e3,
        "latency_p90_ms": _percentile(op_latency, 0.9) * 1e3,
    }
    scale = speed.scale
    e2e = {metric: value / scale if metric == "ops_per_s" else value * scale for metric, value in raw.items()}
    e2e["setup_s"] = statistics.median(scaled_setup_times)
    e2e.update({"success_ratio": 1.0 - failed / attempted, "peak_rss_mb": peak_rss_mb})
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "e2e": e2e,
        "e2e_raw": raw,
        "speed": {"scale": scale, "samples": len(speed.samples),
                  "loop_mean_s": statistics.fmean(speed.samples)},
        "layer": layer,
        "spans": spans,
        "counts": {kind: {"attempted": a, "failed": f, "wrong": w} for kind, (a, f, w) in sorted(tally.items())},
        "rounds": len(loop.round_s),
        "latency_samples": len(loop.latencies),
    }


# -- reporting -----------------------------------------------------------------


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(args, outcome):
    import numpy

    src = ROOT / "src" / "halfcomm"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": outcome["rounds"],
        "latency_samples": outcome["latency_samples"],
        "operations": outcome["counts"],
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def _declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return bench


def select_metrics(declared, values):
    """Exactly the declared metrics, with their units.  A declared per-layer
    metric that the workload does not exercise reads 0."""
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}


def main(argv=None):
    bench = _declared()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "halfcomm" / "__init__.py").is_file():
        print(f"error: no halfcomm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import halfcomm

    if Path(halfcomm.__file__).resolve().parent != (ROOT / "src" / "halfcomm").resolve():
        print(f"error: imported halfcomm from {halfcomm.__file__}, not from this checkout", file=sys.stderr)
        return 2

    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = outcome["layer"] if args.trace else outcome["e2e"]
    metrics = select_metrics(declared, values)
    prov = provenance(args, outcome)

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": prov, "end_to_end": outcome["e2e"], "end_to_end_raw": outcome["e2e_raw"],
              "host_speed": outcome["speed"], "per_layer": outcome["layer"],
              "attempted": outcome["attempted"], "failed": outcome["failed"], "wrong": outcome["wrong"]}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(outcome["spans"]))
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": outcome["wrong"] == 0, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path[0] = str(ROOT)  # import perfbench as a package; its trace module must not shadow the stdlib's
    sys.path.insert(1, str(ROOT / "src"))
    raise SystemExit(main())
