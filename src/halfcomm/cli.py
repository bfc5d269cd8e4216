"""Command-line front end.

Subcommands: normalize, equal, haar, fuse, fusion-table, verify, predicates.
Exit codes: 0 success (and all checks passed for verify), 1 verification
failure, 2 usage or parse errors and inputs beyond a resource cap.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys

from . import fusion as fus
from .crossed import CrossedElement, embed_pi, format_crossed_element
from .errors import ClosureSizeError, DegreeCapError, ParseError
from .expressions import CrossedContext, parse_context, parse_expression
from .groups import PREDICATES, check_predicate, parse_model, predicate
from .haar import PMAX_DEFAULT, haar_state, mc_integral, norm_squared
from .verify import DEFAULT_SEED, SUITES, check_caps, run_verify, suite_params
from .words import AO_STAR, Presentation, format_word_element

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# the optional flags (argparse dests) that each method of equal and haar reads
METHOD_READS = {
    "equal": {"nf": (), "exact": ("degree_cap",), "mc": ("group", "samples", "seed")},
    "haar": {"exact": ("degree_cap",), "mc": ("samples", "seed")},
}
# the flags of verify, by the suite parameter each one sets
SUITE_PARAMS = {"degree_cap": "p_max", "maxlen": "maxlen", "n": "n", "points": "points",
                "samples": "samples", "seed": "seed", "trials": "trials"}
MC_SAMPLES = 10000  # Monte Carlo samples of equal --method mc and haar --mc
# the effective values of the shared flags where a call reads them unset
DEFAULTS = {"degree_cap": PMAX_DEFAULT, "samples": MC_SAMPLES, "seed": DEFAULT_SEED}


def _settle_flags(args):
    """Raise ``ValueError`` naming a flag given that the selected method or
    suite does not read, then fill in the effective value of each unset flag
    it reads, so that the config echo lists exactly those; this runs before
    any input is parsed or any check runs.

    Under verify a flag's effective value is its suite parameter's default,
    when every selected suite that takes the parameter has the same one;
    otherwise the flag stays unset and each suite keeps its own default.
    """
    if args.command == "verify":
        path, optional = f"--suite {args.suite}", SUITE_PARAMS
        params = [suite_params(name) for name in (SUITES if args.suite == "all" else [args.suite])]
        reads = {flag for flag, param in SUITE_PARAMS.items() if any(param in taken for taken in params)}
        defaults = {}
        for flag in reads:
            values = {taken[SUITE_PARAMS[flag]].default for taken in params if SUITE_PARAMS[flag] in taken}
            if len(values) == 1:
                defaults[flag] = values.pop()
    elif args.command in METHOD_READS:
        methods = METHOD_READS[args.command]
        method = args.method if args.command == "equal" else "mc" if args.mc else "exact"
        path = f"--method {method}" if args.command == "equal" else "--mc" if args.mc else "without --mc"
        optional, reads = {flag for flags in methods.values() for flag in flags}, methods[method]
        defaults = DEFAULTS
    else:
        optional, reads, defaults = (), set(vars(args)), DEFAULTS
    for flag in sorted(optional):
        if flag not in reads and getattr(args, flag) is not None:
            raise ValueError(f"{args.command} {path} does not read --{flag.replace('_', '-')}")
    for flag in reads:
        if flag in defaults and getattr(args, flag) is None:
            setattr(args, flag, defaults[flag])


def _echo_config(args):
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    print(f"# config {json.dumps(config, default=str, sort_keys=True)}", file=sys.stderr)


def _format_value(x):
    if isinstance(x, CrossedElement):
        return format_crossed_element(x)
    return format_word_element(x)


def cmd_normalize(args):
    context = parse_context(args.context)
    value = parse_expression(args.expr, context)
    print(_format_value(value))
    return EXIT_OK


def _crossed_image(value):
    if isinstance(value, CrossedElement):
        return value
    return embed_pi(value)


def cmd_equal(args):
    context = parse_context(args.context)
    x = parse_expression(args.expr1, context)
    y = parse_expression(args.expr2, context)
    method = args.method

    if method == "nf":
        if isinstance(context, CrossedContext):
            raise ValueError("--method nf applies to word contexts")
        result = {"equal": x == y, "method": "nf", "exact": True}
    elif method == "exact":
        if isinstance(context, Presentation) and context.kind != AO_STAR:
            raise ValueError(
                f"--method exact decides equality for the full unitary group; "
                f"use --method mc with a matching --group for {context}"
            )
        nrm = norm_squared(_crossed_image(x) - _crossed_image(y), p_max=args.degree_cap)
        result = {"equal": nrm == 0, "method": "exact", "exact": True, "norm_squared": str(nrm)}
    else:  # mc
        if args.group is None:
            raise ValueError("--method mc needs --group")
        model = parse_model(args.group)
        d = _crossed_image(x) - _crossed_image(y)
        sq = d.star() * d
        est = mc_integral(sq, model, args.samples, args.seed)
        threshold = max(1e-6, 5 * est.stderr)
        result = {
            "equal": abs(est.mean) < threshold,
            "method": "mc",
            "exact": False,
            "probabilistic": True,
            "norm_squared_estimate": abs(est.mean),
            "stderr": est.stderr,
            "samples": est.samples,
        }

    if args.json:
        print(json.dumps(result, sort_keys=True))
    else:
        note = " (probabilistic)" if result.get("probabilistic") else ""
        print(f"{str(result['equal']).lower()}{note}")
    return EXIT_OK


def cmd_haar(args):
    model = parse_model(args.group)
    context = CrossedContext(model.ambient_dim)
    value = parse_expression(args.expr, context)
    if args.mc:
        est = mc_integral(value, model, args.samples, args.seed)
        print(
            json.dumps(
                {
                    "mean_re": est.mean.real,
                    "mean_im": est.mean.imag,
                    "stderr": est.stderr,
                    "samples": est.samples,
                    "seed": est.seed,
                },
                sort_keys=True,
            )
        )
        return EXIT_OK
    if not model.exact:
        raise ValueError("exact integration covers the full unitary group; use --mc")
    print(str(haar_state(value, p_max=args.degree_cap)))
    return EXIT_OK


def cmd_fuse(args):
    data = fus.fusion_instance(args.group)
    x = data.parse_flagged_label(args.x)
    y = data.parse_flagged_label(args.y)
    dec = fus.crossed_tensor(data, x, y)
    rows = sorted((data.format_flagged_label(lbl), mult) for lbl, mult in dec.items())
    if args.json:
        print(json.dumps([{"label": l, "mult": m} for l, m in rows]))
    else:
        for l, m in rows:
            print(f"{l} {m}")
    return EXIT_OK


# label pairs in one fusion table: un:3 at --grade-cap 6 has 86 labels and
# takes about 2 s
_MAX_TABLE_PAIRS = 10_000
# label entries (labels times their length n) in one fusion table: 100
# labels of length 1,000, so a table of one label over a huge n is refused
# before it is listed
_MAX_TABLE_ENTRIES = 100_000


def _fusion_table(data, grade_cap: int):
    # count the labels before listing any; every step of the cap adds labels,
    # so a table past the caps shows within a few steps, however large the cap
    count, size = 0, data.label_size
    for added in itertools.islice(data._labels_by_size(), grade_cap + 1):
        count += added
        if count * count > _MAX_TABLE_PAIRS:
            raise ValueError(
                f"fusion-table --group {data} --grade-cap {grade_cap} has at least {count} labels, "
                f"{count * count} label pairs; the cap is {_MAX_TABLE_PAIRS} pairs"
            )
        if count * size > _MAX_TABLE_ENTRIES:
            raise ValueError(
                f"fusion-table --group {data} --grade-cap {grade_cap} has at least {count} labels of {size} entries, "
                f"{count * size} label entries; the cap is {_MAX_TABLE_ENTRIES} entries"
            )
    labels = sorted(((w, data.grade(w) % 2) for w in data.labels(grade_cap)), key=lambda x: (str(x[0]), x[1]))
    table = {
        "group": str(data),
        "labels": [
            {
                "label": data.format_flagged_label(lbl),
                "dim": data.dim(lbl[0]),
                "grade": data.grade(lbl[0]),
            }
            for lbl in labels
        ],
        "products": [],
    }
    for x in labels:
        for y in labels:
            dec = fus.astar_tensor(data, x, y)
            table["products"].append(
                {
                    "x": data.format_flagged_label(x),
                    "y": data.format_flagged_label(y),
                    "result": [
                        {"label": data.format_flagged_label(lbl), "mult": mult}
                        for lbl, mult in sorted(dec.items(), key=lambda kv: str(kv[0]))
                    ],
                }
            )
    return table


def cmd_fusion_table(args):
    data = fus.fusion_instance(args.group)
    table = _fusion_table(data, args.grade_cap)
    text = json.dumps(table, indent=None, separators=(",", ":")) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_predicates(args):
    model = parse_model(args.model)
    names = PREDICATES if args.which == "all" else (args.which,)
    for which in names:  # refuse a draw over the cap before any predicate runs
        check_predicate(model, which, args.trials)
    for which in names:
        res = predicate(model, which, trials=args.trials, rng_seed=args.seed)
        witness = None
        if res.witness is not None:
            witness = {
                k: ({"re": v.real, "im": v.imag} if isinstance(v, complex) else v)
                for k, v in res.witness.items()
                if k != "matrix"
            }
        print(
            json.dumps(
                {"model": str(model), "predicate": which, "value": res.value, "witness": witness},
                sort_keys=True,
            )
        )
    return EXIT_OK


def cmd_verify(args):
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    params = {param: getattr(args, flag) for flag, param in SUITE_PARAMS.items() if getattr(args, flag) is not None}
    for name in names:  # refuse a battery before any of its suites runs
        check_caps(name, **params)
    ok = True
    for name in names:
        report = run_verify(name, **params)
        for line in report.json_lines():
            print(line)
        ok = ok and report.passed
        summary = "PASS" if report.passed else "FAIL"
        print(f"# suite {name}: {summary} ({len(report.checks)} checks)", file=sys.stderr)
    return EXIT_OK if ok else EXIT_FAIL


def _count_at_least(low):
    """An argparse type for an integer count ``-?[0-9]+`` of at least ``low``,
    so that any other count ends in a usage error (exit 2) before any work."""

    def count(text):
        if not re.fullmatch("-?[0-9]+", text):
            raise ValueError(text)  # argparse: "invalid count value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


def build_parser():
    parser = argparse.ArgumentParser(
        prog="halfcomm",
        description="Half-commutative orthogonal Hopf algebras: normal forms, exact Haar states, fusion rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the shared flags, one parent parser each: a subcommand takes those it reads
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_count_at_least(0), help="RNG seed for randomized checks")
    samples = argparse.ArgumentParser(add_help=False)
    samples.add_argument("--samples", type=_count_at_least(2), default=None, help="Monte Carlo sample count")
    degree_cap = argparse.ArgumentParser(add_help=False)
    degree_cap.add_argument(
        "--degree-cap", type=_count_at_least(0), dest="degree_cap", help="cap on the exact-integration degree"
    )
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("normalize", help="canonical form of an expression")
    p.add_argument("--context", required=True, help="ao-star:N | ah-star:N | au-star-star:N | crossed:N")
    p.add_argument("expr")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("equal", parents=[seed, samples, degree_cap, as_json], help="equality of two expressions")
    p.add_argument("--context", required=True)
    p.add_argument("--method", choices=("nf", "exact", "mc"), default="exact")
    p.add_argument("--group", help="group model for --method mc, e.g. kn:2")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("haar", parents=[seed, samples, degree_cap], help="Haar integral of a crossed expression")
    p.add_argument("--mc", action="store_true", help="Monte Carlo estimation (default: exact Weingarten)")
    p.add_argument("--group", required=True, help="group model, e.g. un:2")
    p.add_argument("expr")
    p.set_defaults(func=cmd_haar)

    p = sub.add_parser("fuse", parents=[as_json], help="tensor product of two (flagged) labels")
    p.add_argument("--group", required=True, help="un:N | su2 (or sun:2) | torus:N")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("fusion-table", help="export a graded fusion table as JSON")
    p.add_argument("--group", required=True)
    p.add_argument("--grade-cap", type=_count_at_least(0), default=2, dest="grade_cap")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_fusion_table)

    p = sub.add_parser("predicates", parents=[seed], help="transpose/reality predicates of a group model")
    p.add_argument("--model", required=True)
    p.add_argument("--which", default="all", choices=("all",) + PREDICATES)
    p.add_argument("--trials", type=_count_at_least(1), default=200)
    p.set_defaults(func=cmd_predicates)

    p = sub.add_parser("verify", parents=[seed, samples, degree_cap], help="run a named verification suite")
    p.add_argument("--suite", required=True, help="suite name or 'all'")
    p.add_argument("--n", type=_count_at_least(1))
    p.add_argument("--maxlen", type=_count_at_least(1))
    p.add_argument("--trials", type=_count_at_least(1))
    p.add_argument("--points", type=_count_at_least(1))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _settle_flags(args)
        _echo_config(args)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegreeCapError, ClosureSizeError) as exc:
        print(f"error: resource cap: {exc} (the exact degree cap is set by --degree-cap)", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
