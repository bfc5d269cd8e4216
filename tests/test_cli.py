import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from halfcomm import fusion as fus
from halfcomm.cli import _MAX_TABLE_ENTRIES, _MAX_TABLE_PAIRS, MC_SAMPLES, _echo_config, _settle_flags, build_parser, main
from halfcomm.groups import ALL_KINDS
from halfcomm.verify import SUITES, run_verify, suite_params


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize(capsys):
    code, out, err = run_cli(
        capsys, "normalize", "--context", "ao-star:2", "v[2,1] v[1,1] v[1,2]"
    )
    assert code == 0
    assert out.strip() == "v[1,2] v[1,1] v[2,1]"
    assert "# config" in err


def test_normalize_crossed(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--context", "crossed:2", "u[1,1] s u[2,2] s")
    assert code == 0
    assert out.strip() == "u[1,1] u*[2,2]"


@pytest.mark.parametrize("argv", [("normalize", "s"), ("equal", "--method", "exact", "s", "1")])
@pytest.mark.parametrize("n", [0, -1])
def test_crossed_context_needs_a_positive_dimension(capsys, argv, n):
    command, *rest = argv
    code, out, err = run_cli(capsys, command, "--context", f"crossed:{n}", *rest)
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: dimension must be >= 1, got {n}"]


def test_normalize_parse_error(capsys):
    code, _, err = run_cli(capsys, "normalize", "--context", "ao-star:2", "v[1,3]")
    assert code == 2
    assert "parse error" in err


def test_normalize_zero_denominator(capsys):
    code, _, err = run_cli(capsys, "normalize", "--context", "ao-star:2", "v[1,1] + 3/0")
    assert code == 2
    assert "parse error" in err and "position 9" in err


DEEP = "(" * 400 + "1" + ")" * 400


@pytest.mark.parametrize(
    "argv",
    [
        ("normalize", "--context", "ao-star:2", DEEP),
        ("normalize", "--context", "crossed:2", DEEP),
        ("equal", "--context", "ao-star:2", DEEP, "1"),
        ("equal", "--context", "ao-star:2", "1", DEEP),
    ],
)
def test_deep_nesting_is_one_parse_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    lines = [line for line in err.splitlines() if not line.startswith("# config")]
    assert lines == ["parse error: parentheses nested deeper than 100 (at position 100)"]


def test_equal_exact(capsys):
    code, out, _ = run_cli(
        capsys,
        "equal",
        "--context",
        "ao-star:2",
        "v[1,1] v[2,2] v[1,2]",
        "v[1,2] v[2,2] v[1,1]",
    )
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(
        capsys, "equal", "--context", "ao-star:2", "v[1,1] v[2,2]", "v[2,2] v[1,1]"
    )
    assert code == 0 and out.strip() == "false"


def test_equal_nf_and_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "equal",
        "--context",
        "ao-star:2",
        "--method",
        "nf",
        "--json",
        "v[2,1] v[1,1] v[1,2]",
        "v[1,2] v[1,1] v[2,1]",
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"equal": True, "method": "nf", "exact": True}


def test_equal_mc(capsys):
    code, out, _ = run_cli(
        capsys,
        "equal",
        "--context",
        "ah-star:2",
        "--method",
        "mc",
        "--group",
        "kn:2",
        "--samples",
        "2000",
        "v[1,1] v[1,2]",
        "0",
    )
    assert code == 0
    assert out.strip().startswith("true")
    assert "probabilistic" in out


def test_haar_exact(capsys):
    code, out, _ = run_cli(capsys, "haar", "--group", "un:2", "u[1,1] u*[1,1]")
    assert code == 0 and out.strip() == "1/2"
    code, out, _ = run_cli(capsys, "haar", "--group", "un:2", "u[1,1] s u[1,1] s")
    assert code == 0 and out.strip() == "1/2"  # equals the state of pi(v11 v11)
    code, out, _ = run_cli(capsys, "haar", "--group", "un:2", "u[1,1] s")
    assert code == 0 and out.strip() == "0"  # odd part has weight zero


def test_haar_mc(capsys):
    code, out, _ = run_cli(
        capsys, "haar", "--mc", "--group", "kn:2", "--samples", "500", "u[1,1] u[1,2]"
    )
    assert code == 0
    data = json.loads(out)
    assert data["mean_re"] == 0.0 and data["samples"] == 500


def test_haar_exact_needs_unitary_group(capsys):
    code, _, err = run_cli(capsys, "haar", "--group", "kn:2", "u[1,1] u*[1,1]")
    assert code == 2 and "use --mc" in err


def test_haar_degree_cap_exit_code(capsys):
    text = " ".join(["u[1,2]"] * 6 + ["u*[1,2]"] * 6)
    code, _, err = run_cli(capsys, "haar", "--group", "un:2", text)
    assert code == 2
    assert "--degree-cap" in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, "haar", "--group", "un:2", "--degree-cap", "6", text)
    assert code == 0 and out.strip() == "1/7"  # E|u12|^12 = 1/C(7, 6)


def test_haar_exact_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["haar", "--exact", "--group", "un:2", "u[1,1] u*[1,1]"])
    assert exc.value.code == 2
    assert "--exact" in capsys.readouterr().err


def test_fuse(capsys):
    code, out, _ = run_cli(capsys, "fuse", "--group", "un:2", "([1,0],s)", "([1,0],s)")
    assert code == 0
    lines = sorted(out.strip().splitlines())
    assert lines == ["([0,0],e) 1", "([1,-1],e) 1"]


def test_fuse_su2(capsys):
    code, out, _ = run_cli(capsys, "fuse", "--group", "su2", "(j=1/2,s)", "(j=1/2,s)")
    assert code == 0
    assert sorted(out.strip().splitlines()) == ["(j=0,e) 1", "(j=1,e) 1"]


def test_fuse_zero_denominator_label(capsys):
    code, out, err = run_cli(capsys, "fuse", "--group", "su2", "j=1/0", "j=0")
    assert code == 2 and out == ""
    assert "parse error" in err and "Traceback" not in err


@pytest.mark.parametrize("group, label, hint", [
    ("un:2", "[1.5,0]", "weight labels look like [2,0,-1]"),
    ("torus:2", "t[0.5,0]", "torus labels look like t[1,-1]"),
    ("su2", "j=1/2/3", "spin labels look like j=3/2"),
])
def test_fuse_label_with_a_non_integer_entry_is_a_parse_error(capsys, group, label, hint):
    code, out, err = run_cli(capsys, "fuse", "--group", group, label, label)
    assert code == 2 and out == ""
    lines = [line for line in err.splitlines() if not line.startswith("# config")]
    assert lines == [f"parse error: {hint}, got {label!r}"]


def test_fuse_names_su2_also_by_its_group_model(capsys):
    # sun:2 is SU(2) as a group model; its fusion datum is su2's, printed as su2
    for argv in (("fuse", "(j=1/2,s)", "j=1"), ("fusion-table", "--grade-cap", "1")):
        command, *rest = argv
        (code, out, _), (code_model, out_model, _) = (run_cli(capsys, command, "--group", g, *rest) for g in ("su2", "sun:2"))
        assert code == code_model == 0 and out == out_model != ""


# the CLI reads an integer as ASCII digits, [0-9]+, with a sign only where the
# grammar has one; int(), Fraction() and a Unicode \d also read other decimal
# digits, "_", "+" and surrounding spaces
@pytest.mark.parametrize("argv, refusal", [
    (["normalize", "--context", "ao-star:2", "v[\u0661,1]"], "parse error: unexpected character '\u0661' (at position 2)"),
    (["normalize", "--context", "ao-star:2", "\u0663 v[1,1]"], "parse error: unexpected character '\u0663' (at position 0)"),
    (["normalize", "--context", "ao-star:\u0662", "v[1,1]"],
     "parse error: bad context 'ao-star:\u0662'; expected e.g. ao-star:2 or crossed:2"),
    (["normalize", "--context", "ao-star:+2", "v[1,1]"], "parse error: bad context 'ao-star:+2'; expected e.g. ao-star:2 or crossed:2"),
    (["predicates", "--model", "un:2_0"], "error: bad group model 'un:2_0'; expected e.g. un:2, kn:3"),
    (["haar", "--group", "un: 2", "1"], "error: bad group model 'un: 2'; expected e.g. un:2, kn:3"),
    (["fuse", "--group", "un:2_0", "[1,0]", "[1,0]"], "error: no fusion data for 'un:2_0' (available: un:N, su2, torus:N)"),
    (["fuse", "--group", "un:2", "[1_0,0]", "[1,0]"], "parse error: weight labels look like [2,0,-1], got '[1_0,0]'"),
    (["fuse", "--group", "un:2", "[1,0]", "[\u0661,0]"], "parse error: weight labels look like [2,0,-1], got '[\u0661,0]'"),
    (["fuse", "--group", "un:2", "[+1,0]", "[1,0]"], "parse error: weight labels look like [2,0,-1], got '[+1,0]'"),
    (["fuse", "--group", "torus:2", "t[1, 0]", "t[1,0]"], "parse error: torus labels look like t[1,-1], got 't[1, 0]'"),
    (["fuse", "--group", "su2", "j=1_0/2", "j=1/2"], "parse error: spin labels look like j=3/2, got 'j=1_0/2'"),
    (["fuse", "--group", "su2", "j=1/2", "j=1.5"], "parse error: spin labels look like j=3/2, got 'j=1.5'"),
    (["predicates", "--model", "un:2", "--trials", "1_0"], "halfcomm predicates: error: argument --trials: invalid count value: '1_0'"),
    (["predicates", "--model", "un:2", "--seed", "\u0663"], "halfcomm predicates: error: argument --seed: invalid count value: '\u0663'"),
    (["verify", "--suite", "kn", "--n", "+3"], "halfcomm verify: error: argument --n: invalid count value: '+3'"),
])
def test_integers_are_read_in_ascii_digits_only(capsys, argv, refusal):
    try:
        code = main(argv)
    except SystemExit as exc:  # a flag's value: argparse's usage error
        code = exc.code
    out, err = capsys.readouterr()
    lines = [line for line in err.splitlines() if not line.startswith(("# config", "usage:", " "))]
    assert code == 2 and out == "" and lines == [refusal]


# text that starts like a letter, [vu]*?[, and breaks is blamed on the first
# character the letter grammar refuses, or on the end of the input; text that
# never started a letter keeps the tokenizer's blame
@pytest.mark.parametrize("context, expr, refusal", [
    ("ao-star:2", "v[x,1]", "unexpected character 'x' (at position 2)"),
    ("ao-star:2", "v[1,x]", "unexpected character 'x' (at position 4)"),
    ("au-star-star:2", "u*[1,y]", "unexpected character 'y' (at position 5)"),
    ("crossed:2", "s u[1 1]", "unexpected character '1' (at position 6)"),
    ("ao-star:2", "v[1,1", "unexpected end of input (at position 5)"),
    ("ao-star:2", "v[ 1 , ", "unexpected end of input (at position 7)"),
    ("ao-star:2", "vv[1,1]", "unexpected character '[' (at position 2)"),
    ("ao-star:2", "v [1,1]", "unexpected character '[' (at position 2)"),
    ("crossed:2", "s[1,1]", "unexpected character '[' (at position 1)"),
])
def test_a_broken_letter_is_blamed_on_the_character_that_breaks_it(capsys, context, expr, refusal):
    code, out, err = run_cli(capsys, "normalize", "--context", context, expr)
    lines = [line for line in err.splitlines() if not line.startswith("# config")]
    assert code == 2 and out == "" and lines == [f"parse error: {refusal}"]


@pytest.mark.parametrize("group", ["un:abc", "torus:x"])
@pytest.mark.parametrize("argv", [("fuse", "([0],e)", "([0],e)"), ("fusion-table",)])
def test_fusion_group_with_a_non_integer_dimension_is_unknown(capsys, group, argv):
    command, *rest = argv
    code, out, err = run_cli(capsys, command, "--group", group, *rest)
    assert code == 2 and out == ""
    lines = [line for line in err.splitlines() if not line.startswith("# config")]
    assert lines == [f"error: no fusion data for '{group}' (available: un:N, su2, torus:N)"]


def test_fusion_table_deterministic(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    for path in (p1, p2):
        code, _, _ = run_cli(
            capsys,
            "fusion-table",
            "--group",
            "un:2",
            "--grade-cap",
            "2",
            "--out",
            str(path),
        )
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    table = json.loads(p1.read_text())
    assert table["group"] == "un:2"
    row = next(
        r
        for r in table["products"]
        if r["x"] == "([1,0],s)" and r["y"] == "([1,0],s)"
    )
    assert sorted((c["label"], c["mult"]) for c in row["result"]) == [
        ("([0,0],e)", 1),
        ("([1,-1],e)", 1),
    ]


def test_fusion_table_torus(capsys):
    code, out, _ = run_cli(capsys, "fusion-table", "--group", "torus:1", "--grade-cap", "2")
    assert code == 0
    table = json.loads(out)
    assert all(l["dim"] == 1 for l in table["labels"])
    assert all(
        all(c["mult"] == 1 for c in row["result"]) for row in table["products"]
    )


def test_fusion_table_past_the_pair_cap_lists_no_labels(capsys, monkeypatch):
    def no_listing(*args):
        raise AssertionError("labels listed before the cap was checked")

    monkeypatch.setattr(fus, "_l1_ball", no_listing)
    monkeypatch.setattr(fus.UnFusion, "labels", no_listing)
    code, out, err = run_cli(capsys, "fusion-table", "--group", "un:10", "--grade-cap", "1000")
    assert code == 2 and out == ""
    (line,) = [l for l in err.splitlines() if not l.startswith("# config")]
    count = int(line.split(" has at least ")[1].split()[0])
    assert count * count > _MAX_TABLE_PAIRS and str(count * count) in line


@pytest.mark.parametrize(
    "argv",
    [
        ("fuse", "--group", "torus:1000000000", "t[1]", "t[1]"),
        ("fuse", "--group", "un:1000000000", "[1]", "[1]"),
        ("fusion-table", "--group", "torus:1000000000"),
    ],
)
def test_fusion_over_a_huge_n_allocates_nothing_of_size_n(capsys, argv):
    # one label of that length would take gigabytes; the datum, the label
    # check and the pair cap stay within a few hundred kilobytes
    tracemalloc.start()
    try:
        fus.fusion_instance(argv[2])
        code, out, err = run_cli(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert code == 2 and out == ""
    (line,) = [l for l in err.splitlines() if not l.startswith("# config")]
    assert line.startswith("error: ") and "1000000000" in line


def _no_sampling(*args):
    raise AssertionError("samples were drawn before the cap was checked")


@pytest.mark.parametrize(
    "argv, count",
    [
        # the d^2 x d^2 entry products of one sample, d = 200
        (("predicates", "--model", "un:200", "--which", "doubly_non_real"), 200**4),
        (("predicates", "--model", "u2n:100"), 200**4),
        # a Monte Carlo chunk of 4,096 samples of d x d matrices, d = 100
        (("haar", "--mc", "--group", "un:100", "u[1,1]"), 4096 * 100**2),
        (("equal", "--context", "crossed:100", "--method", "mc", "--group", "un:100", "u[1,1]", "u[2,2]"), 4096 * 100**2),
        # the 1,000 structural draws of d x d matrices, d = 1000
        (("verify", "--suite", "kn", "--n", "1000"), 1000 * 1000**2),
        (("verify", "--suite", "u2n", "--n", "500"), 1000 * 1000**2),
    ],
)
def test_sampling_past_the_draw_cap_draws_nothing(capsys, monkeypatch, argv, count):
    from halfcomm import groups, haar, verify

    monkeypatch.setattr(groups, "sample_batch", _no_sampling)
    monkeypatch.setattr(haar, "sample_batch", _no_sampling)
    monkeypatch.setattr(verify, "sample_batch", _no_sampling)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    (line,) = [l for l in err.splitlines() if not l.startswith("# config")]
    assert line.startswith("error: ") and f" {count} complex entries" in line and str(groups.MAX_DRAW_ENTRIES) in line


def test_sampling_at_the_draw_cap_runs(capsys, monkeypatch):
    # with the cap at 3^4 entries: the 9 x 9 products of a 3 x 3 sample, and
    # a chunk of 9 samples of 3 x 3, are at the cap; one more sample is over
    from halfcomm import groups

    monkeypatch.setattr(groups, "MAX_DRAW_ENTRIES", 3**4)
    for argv in (("predicates", "--model", "un:3", "--which", "doubly_non_real", "--trials", "1"),
                 ("haar", "--mc", "--group", "un:3", "--samples", "9", "u[1,1]")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)
    code, out, err = run_cli(capsys, "haar", "--mc", "--group", "un:3", "--samples", "10", "u[1,1]")
    assert code == 2 and out == "" and " 90 complex entries" in err


def test_verify_draws_at_the_draw_cap_run(capsys, monkeypatch):
    # kn draws 1,000 samples: of 2 x 2 matrices they are at a cap of 4,000
    # entries, of 3 x 3 over it
    from halfcomm import groups

    monkeypatch.setattr(groups, "MAX_DRAW_ENTRIES", 1000 * 2**2)
    code, out, _ = run_cli(capsys, "verify", "--suite", "kn", "--n", "2")
    assert code == 0 and [json.loads(line)["status"] for line in out.splitlines()] == ["pass"]
    code, out, err = run_cli(capsys, "verify", "--suite", "kn", "--n", "3")
    assert code == 2 and out == "" and " 9000 complex entries" in err


def _no_work(*args):
    raise AssertionError("a capped suite did its work")


def test_faithfulness_past_the_pair_cap_normalises_nothing(capsys, monkeypatch):
    # n = 4 has 2,449 normal forms of length <= 3, so 3,000,025 pairs: the
    # suite counts them and refuses before it lists or embeds any form
    from halfcomm import verify

    monkeypatch.setattr(verify, "hc_normal_form", _no_work)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--suite", "faithfulness", "--n", "4")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    (line,) = [l for l in err.splitlines() if not l.startswith("# config")]
    assert line.startswith("error: ") and " 2449 normal forms, 3000025 pairs" in line
    assert str(verify.FAITHFULNESS_MAX_PAIRS) in line


def test_faithfulness_at_the_pair_cap_runs(capsys, monkeypatch):
    # n = 2: 61 normal forms, 1,891 pairs, at a cap of 1,891 and over 1,890
    from halfcomm import verify

    monkeypatch.setattr(verify, "FAITHFULNESS_MAX_PAIRS", 1891)
    code, out, _ = run_cli(capsys, "verify", "--suite", "faithfulness", "--n", "2")
    assert code == 0 and [json.loads(line)["status"] for line in out.splitlines()] == ["pass"] * 3
    assert "61 normal forms" in out
    monkeypatch.setattr(verify, "FAITHFULNESS_MAX_PAIRS", 1890)
    code, out, err = run_cli(capsys, "verify", "--suite", "faithfulness", "--n", "2")
    assert code == 2 and out == "" and " 61 normal forms, 1891 pairs" in err


def test_expression_products_are_capped_by_their_term_pairs(capsys):
    # k juxtaposed sums of the eight degree-1 letters of crossed:2: k = 8
    # forms 51,472 term pairs and normalizes; k = 14 is refused before its
    # ninth factor is multiplied in, which would bring the count to 102,952
    factor = "(" + "+".join(f"u{s}[{i},{j}]" for s in ("", "*") for i in (1, 2) for j in (1, 2)) + ")"
    code, out, err = run_cli(capsys, "normalize", "--context", "crossed:2", " ".join([factor] * 8))
    assert code == 0 and out.strip()
    code, out, err = run_cli(capsys, "normalize", "--context", "crossed:2", " ".join([factor] * 14))
    assert code == 2 and out == ""
    assert [l for l in err.splitlines() if not l.startswith("# config")] == [
        "error: the expression's products form 102952 term pairs, above the cap of 65536"
    ]


@pytest.mark.parametrize(
    "flags, suite, lifted",
    [
        # ah-zero, first in the battery, counts at least 1,086,480 closure
        # letters at n = 4 (faithfulness would refuse too)
        (("--n", "4"), "ah-zero", ()),
        # with the caps of the suites before it lifted, kn's 1,000 draws of
        # 1000 x 1000 matrices
        (("--n", "1000"), "kn",
         ("CLOSURE_MAX_LETTERS", "FAITHFULNESS_MAX_PAIRS", "HALF_COMM_MAX_TRIPLES", "HOPF_MAX_PRODUCTS")),
        # predicates' transpose-closure draws over un:3 as well
        (("--trials", "2000000"), "predicates", ()),
    ],
)
def test_verify_all_refuses_before_any_suite_runs(capsys, monkeypatch, flags, suite, lifted):
    # the battery refuses with the line its capped suite gives on its own,
    # before any suite prints a check line or its summary
    from halfcomm import verify

    for cap in lifted:
        monkeypatch.setattr(verify, cap, 10**40)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--suite", "all", *flags)
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    (line,) = [l for l in err.splitlines() if not l.startswith("# config")]
    code, out, alone = run_cli(capsys, "verify", "--suite", suite, *flags)
    assert code == 2 and out == ""
    assert [l for l in alone.splitlines() if not l.startswith("# config")] == [line]
    assert line.startswith("error: ") and "the cap is" in line


def test_normal_form_count_matches_the_listed_forms():
    from halfcomm.verify import _all_words, _normal_form_count
    from halfcomm.words import ao_star, hc_normal_form

    for n in (1, 2, 3):
        pres = ao_star(n)
        forms = {()}
        for maxlen in range(4):
            if maxlen:
                forms.update(hc_normal_form(tuple(w)) for w in _all_words(pres, maxlen))
            assert _normal_form_count(n, maxlen) == len(forms), (n, maxlen)
    assert [_normal_form_count(n, 3) for n in (2, 3, 4)] == [61, 496, 2449]


def test_closure_walk_visits_each_word_once():
    # the closures _closures yields hold the n^(2L) words of length L between
    # them, each once, over ao-star and ah-star
    from halfcomm.verify import _closures
    from halfcomm.words import ah_star, ao_star

    for make in (ao_star, ah_star):
        for n, maxlen in ((1, 6), (2, 4)):
            pres = make(n)
            for length in range(1, maxlen + 1):
                closures = [closure for _, closure in _closures(pres, length)]
                assert sum(map(len, closures)) == len(set().union(*closures)) == n ** (2 * length), (pres, length)


@pytest.mark.parametrize("n, maxlen, total", [(2, 5, 30340), (2, 6, 177796), (2, 7, 980612), (3, 5, 1588095)])
def test_closure_letter_count(monkeypatch, n, maxlen, total):
    # sum over L <= maxlen of n^(2L) L^2, admitted at a cap of that total and
    # refused, with the total named, one below it
    from halfcomm import verify

    monkeypatch.setattr(verify, "CLOSURE_MAX_LETTERS", total)
    assert verify.check_caps("rewrite-oracle", n=n, maxlen=maxlen) is None
    monkeypatch.setattr(verify, "CLOSURE_MAX_LETTERS", total - 1)
    with pytest.raises(ValueError, match=f" walks {total} closure letters; the cap is {total - 1}$"):
        verify.check_caps("rewrite-oracle", n=n, maxlen=maxlen)


# suite, its cap constant, what the cap counts, that count at n = 2, and the
# functions that do the counted work
WORK_CAPS = [
    ("rewrite-oracle", "CLOSURE_MAX_LETTERS", "closure letters", 30340, ("hc_normal_form", "rewrite_closure_oracle")),
    ("ah-zero", "CLOSURE_MAX_LETTERS", "closure letters", 30340, ("ah_zero_test", "rewrite_closure_oracle")),
    ("half-comm", "HALF_COMM_MAX_TRIPLES", "generator triples", 64, ("crossed_mul",)),
    ("pun", "PUN_MAX_PRODUCTS", "biunitarity products", 64, ("pun_generator",)),
    ("hopf", "HOPF_MAX_PRODUCTS", "basis products", 256, ("crossed_coproduct", "coproduct_element")),
    ("sequence", "COPRODUCT_MAX_TERMS", "coproduct terms", 16, ("crossed_coproduct", "coinvariant_test")),
]


@pytest.mark.parametrize("suite, cap, unit, count, work", WORK_CAPS, ids=[c[0] for c in WORK_CAPS])
def test_verify_work_caps_admit_their_count_and_refuse_one_less(capsys, monkeypatch, suite, cap, unit, count, work):
    from halfcomm import verify

    monkeypatch.setattr(verify, cap, count)
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--n", "2")
    assert code == 0 and {json.loads(line)["status"] for line in out.splitlines()} == {"pass"}
    monkeypatch.setattr(verify, cap, count - 1)
    for name in work:
        monkeypatch.setattr(verify, name, _no_work)
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--n", "2")
    assert code == 2 and out == ""
    (line,) = [l for l in err.splitlines() if not l.startswith("# config")]
    assert line.startswith(f"error: {suite} over n=2 ") and line.endswith(f" {count} {unit}; the cap is {count - 1}")


@pytest.mark.parametrize(
    "suite, admitted, refused, message",
    [
        ("rewrite-oracle", {"maxlen": 6}, {"maxlen": 7}, "up to length 7 walks 980612 closure letters"),
        ("ah-zero", {"n": 2}, {"n": 3}, "over n=3 up to length 5 walks 1588095 closure letters"),
        # a long --maxlen is refused once the count passes the cap
        ("ah-zero", {"maxlen": 6}, {"maxlen": 10**9}, "up to length 1000000000 walks at least 980612 closure letters"),
        ("rewrite-oracle", {"n": 1, "maxlen": 90}, {"n": 1, "maxlen": 91}, "over n=1 up to length 91 walks 255346"),
        ("rewrite-oracle", {"n": 1, "maxlen": 90}, {"n": 1, "maxlen": 10**9}, "walks at least 255346 closure letters"),
        ("half-comm", {"n": 6}, {"n": 7}, "checks 117649 generator triples"),
        ("pun", {"n": 3}, {"n": 4}, "forms 4096 biunitarity products"),
        ("hopf", {"n": 5}, {"n": 6}, "forms 1679616 basis products"),
        ("sequence", {"n": 16}, {"n": 17}, "into 83521 coproduct terms"),
    ],
    ids=("rewrite-oracle", "ah-zero", "ah-zero-long", "n1", "n1-long", "half-comm", "pun", "hopf", "sequence"),
)
def test_verify_work_caps_as_shipped(suite, admitted, refused, message):
    # 177,796 and 247,065 closure letters, 46,656 triples, 729 biunitarity
    # products, 390,625 basis products and 65,536 coproduct terms are
    # admitted; counted, not run
    from halfcomm.verify import check_caps

    assert check_caps(suite, **admitted) is None
    with pytest.raises(ValueError, match=message):
        check_caps(suite, **refused)


def _no_l1_ball(*args):
    raise AssertionError("the L1 ball was listed")


def test_fusion_table_of_one_long_label(capsys):
    # the ball is grown entry by entry, not by one recursive call per entry
    code, out, _ = run_cli(capsys, "fusion-table", "--group", "torus:900", "--grade-cap", "0")
    assert code == 0
    table = json.loads(out)
    unit = "(t[" + ",".join(["0"] * 900) + "],e)"
    assert [l["label"] for l in table["labels"]] == [unit]
    assert table["products"] == [{"x": unit, "y": unit, "result": [{"label": unit, "mult": 1}]}]


def test_fusion_table_lists_dominant_weights_directly(capsys, monkeypatch):
    # un:120 at cap 2 has 8 labels; the L1 ball around them holds 29,041
    monkeypatch.setattr(fus, "_l1_ball", _no_l1_ball)
    code, out, _ = run_cli(capsys, "fusion-table", "--group", "un:120", "--grade-cap", "1")
    assert code == 0
    labels = [l["label"] for l in json.loads(out)["labels"]]
    zeros = ",".join(["0"] * 119)
    assert sorted(labels) == sorted([f"([0,{zeros}],e)", f"([1,{zeros}],s)", f"([{zeros},-1],s)"])
    assert len(fus.fusion_instance("un:120").labels(2)) == 8


def test_fusion_table_past_the_entry_cap_lists_no_labels(capsys, monkeypatch):
    monkeypatch.setattr(fus, "_l1_ball", _no_l1_ball)
    code, out, err = run_cli(capsys, "fusion-table", "--group", "torus:1000000000", "--grade-cap", "0")
    assert code == 2 and out == ""
    (line,) = [l for l in err.splitlines() if not l.startswith("# config")]
    assert line.startswith("error: ") and "1000000000 label entries" in line and str(_MAX_TABLE_ENTRIES) in line


@pytest.mark.parametrize("group, cap", [("un:2", 2), ("un:3", 2), ("un:4", 2), ("un:3", 6), ("torus:1", 2)])
def test_fusion_table_pair_cap_admits_the_documented_tables(group, cap):
    # README, the benchmark's cli calls, and un:3 at cap 6 (86 labels)
    data = fus.fusion_instance(group)
    assert len(data.labels(cap)) ** 2 <= _MAX_TABLE_PAIRS


def test_predicates(capsys):
    code, out, _ = run_cli(
        capsys, "predicates", "--model", "on:3", "--which", "non_real", "--trials", "5"
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] is False and data["witness"] is None
    code, out, _ = run_cli(
        capsys,
        "predicates",
        "--model",
        "un:2",
        "--which",
        "doubly_non_real",
        "--trials",
        "50",
    )
    data = json.loads(out)
    assert data["value"] is True and len(data["witness"]["indices"]) == 4


def test_verify_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "half-comm", "--n", "2")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert all(l["status"] == "pass" for l in lines)
    assert "PASS" in err


FUSION_NAMES = ("su2", "torus:2", "un:2", "un:3")
VERIFY_ALL_IDS = {
    "ah-zero": [f"zero-rule-len-{k}" for k in range(1, 6)],
    "faithfulness": ["mixed-degree-identities", "norm-decides-function-equality", "orthogonality-in-image"],
    "fusion": [
        *(f"{kind}-{name}" for kind in ("associativity", "dimension-hom", "duality", "frobenius") for name in FUSION_NAMES),
        "graded-structure", "lr-vs-schur-n2", "lr-vs-schur-n3", "noncommutative-witness",
    ],
    "half-comm": ["abc-cba-n2", "self-adjoint-n2"],
    "hopf": ["antipode-convolution", "antipode-squared", "coassociativity-words", "coproduct-intertwines",
             "coproduct-multiplicative", "counit-crossed", "counit-words", "embedding-intertwines", "star-structure",
             "word-maps-closure"],
    "kn": ["monomial-vanishing"],
    "moments": ["moment-n2-k1", "moment-n2-k2", "moment-n3-k1"],
    "predicates": ["doubly-non-real-kn2", "doubly-non-real-u2n2", "doubly-non-real-un2", "on-non-real",
                   "transpose-closure"],
    "pun": ["biunitarity", "partial-isometry-sums", "star-exchange"],
    "rewrite-oracle": [f"closure-len-{k}" for k in range(1, 6)],
    "sequence": ["coinvariants-are-even", "even-part-generators", "quotient-on-generators"],
    "u2n": ["half-commutation-at-points", "sampler-pattern", "unitary-generators"],
    "weingarten": ["entry-moments", "gram-inverse-identity", "mc-agreement", "pseudo-inverse-consistency"],
}


def test_verify_all_checks_pass_with_timings(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "all")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    expect = {(suite, check) for suite, checks in VERIFY_ALL_IDS.items() for check in checks}
    assert len(expect) == 67
    assert sorted((l["suite"], l["check"]) for l in lines) == sorted(expect)
    assert all(l["status"] == "pass" for l in lines)
    assert all(isinstance(l["elapsed_s"], float) and l["elapsed_s"] >= 0 for l in lines)
    assert err.count(": PASS (") == len(VERIFY_ALL_IDS)


def test_verify_samples_reach_mc_agreement(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "weingarten", "--samples", "2000")
    assert code == 0
    lines = {l["check"]: l for l in map(json.loads, out.strip().splitlines())}
    assert "at 2000 samples" in lines["mc-agreement"]["detail"]


def test_verify_samples_leave_structural_draws_alone():
    # as under --suite all, which hands every suite the same parameters
    report = run_verify("u2n", samples=5000)
    assert report.passed
    details = {c.check_id: c.detail for c in report.checks}
    assert details["sampler-pattern"].startswith("1000 samples,")


def test_each_verify_parameter_has_one_meaning():
    takers = {p: sorted(s for s in SUITES if p in suite_params(s)) for p in ("maxlen", "trials", "points", "samples")}
    assert takers == {
        "maxlen": ["ah-zero", "rewrite-oracle"],
        "trials": ["predicates"],
        "points": ["u2n"],
        "samples": ["weingarten"],
    }


def test_verify_all_flags_reach_only_their_suites(capsys):
    # --maxlen sets only the word lengths of rewrite-oracle and ah-zero, and
    # --trials only the samples of predicates; faithfulness, hopf and sequence
    # keep their fixed sizes
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--maxlen", "6", "--trials", "3")
    assert code == 0
    lines = {(l["suite"], l["check"]): l for l in map(json.loads, out.strip().splitlines())}
    assert len(lines) == 69 and all(l["status"] == "pass" for l in lines.values())
    assert ("rewrite-oracle", "closure-len-6") in lines and ("ah-zero", "zero-rule-len-6") in lines
    assert lines[("faithfulness", "norm-decides-function-equality")]["detail"].startswith("61 normal forms;")
    assert lines[("hopf", "antipode-squared")]["detail"].startswith("25 random elements")
    assert lines[("hopf", "star-structure")]["detail"] == "25 random pairs"
    assert lines[("sequence", "coinvariants-are-even")]["detail"].startswith("20 embedded words")
    assert lines[("predicates", "transpose-closure")]["detail"].startswith("3 samples per model")


def test_verify_all_output_does_not_depend_on_the_hash_seed():
    # seeded runs are bit-for-bit deterministic: two children under different
    # PYTHONHASHSEEDs print the same lines once the timings are dropped
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        res = subprocess.run([sys.executable, "-m", "halfcomm", "verify", "--suite", "all"],
                             env=env, capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr[-2000:]
        lines = [json.loads(line) for line in res.stdout.splitlines()]
        outputs.append([{k: v for k, v in l.items() if k != "elapsed_s"} for l in lines])
    assert len(outputs[0]) == 67 and outputs[0] == outputs[1]


def test_verify_all_at_dimension_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--n", "1")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 67 and all(l["status"] == "pass" for l in lines)
    (orth,) = (l for l in lines if l["check"] == "orthogonality-in-image")
    assert "no pairs" in orth["detail"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["equal", "--context", "crossed:2", "--method", "nf", "u[1,1]", "u[1,1]"],
         "--method nf applies to word contexts"),
        (["equal", "--context", "ah-star:2", "v[1,1]", "v[1,1]"],
         "--method exact decides equality for the full unitary group; "
         "use --method mc with a matching --group for ah-star:2"),
        (["equal", "--context", "ao-star:2", "--method", "mc", "v[1,1]", "0"], "--method mc needs --group"),
        (["haar", "--group", "kn:2", "u[1,1]"], "exact integration covers the full unitary group; use --mc"),
        *((["haar", "--group", f"{kind}:2", "u[1,1]"], "exact integration covers the full unitary group; use --mc")
          for kind in ALL_KINDS if kind not in ("un", "kn")),
    ],
)
def test_handler_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[0].startswith("# config ")
    assert err.splitlines()[1:] == [f"error: {message}"]


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 2 and "unknown suite" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    import halfcomm.cli as cli
    from halfcomm.verify import Check, VerifyReport

    def failing_suite():
        report = VerifyReport("stub")
        report.checks.append(Check("always-fails", "stub rule", False, "by construction"))
        return report

    monkeypatch.setitem(cli.SUITES, "stub", failing_suite)
    code, out, err = run_cli(capsys, "verify", "--suite", "stub")
    assert code == 1
    assert json.loads(out.strip())["status"] == "fail"
    assert "FAIL" in err


def test_verify_check_that_raises_fails_and_the_battery_goes_on(capsys):
    from halfcomm.verify import SETUP_CHECK, _suite

    def suite_raising():
        def boom():
            raise ArithmeticError("by construction")

        yield "raises", "a check that raises", boom
        yield "after", "a check after it", lambda: (True, "ran")

    def suite_raising_in_set_up():
        raise LookupError("before any check")
        yield  # a generator, as every suite is

    # both sort first, so every suite of the battery runs after them
    suites = {"aaa-raising": suite_raising, "aab-raising-in-set-up": suite_raising_in_set_up}
    for name, gen in suites.items():
        _suite(name)(gen)
    try:
        code, out, err = run_cli(capsys, "verify", "--suite", "all")
    finally:
        for name in suites:
            del SUITES[name]
    assert code == 1
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len({(l["suite"], l["check"]) for l in lines}) == len(lines) == 67 + 2 + 1
    failed = {(l["suite"], l["check"]): l["detail"] for l in lines if l["status"] == "fail"}
    assert failed == {
        ("aaa-raising", "raises"): "ArithmeticError: by construction",
        ("aab-raising-in-set-up", SETUP_CHECK): "LookupError: before any check",
    }
    assert {l["suite"] for l in lines} == {*suites, *VERIFY_ALL_IDS}
    assert err.count(": PASS (") == len(VERIFY_ALL_IDS)
    assert "# suite aaa-raising: FAIL (2 checks)" in err and "# suite aab-raising-in-set-up: FAIL (1 checks)" in err


def test_verify_moments(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "moments")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert {l["check"] for l in lines} == {"moment-n2-k1", "moment-n2-k2", "moment-n3-k1"}


def test_verify_honours_degree_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "moments", "--degree-cap", "1")
    assert code == 1
    lines = {l["check"]: l for l in map(json.loads, out.strip().splitlines())}
    assert lines["moment-n2-k1"]["status"] == "pass"
    assert lines["moment-n2-k2"]["status"] == "fail"
    assert lines["moment-n2-k2"]["detail"].startswith("resource cap")


def test_verify_entry_moments_honour_degree_cap(capsys):
    # entry-moments integrates |u11|^8, of degree 4
    code, out, _ = run_cli(capsys, "verify", "--suite", "weingarten", "--degree-cap", "3", "--samples", "2000")
    assert code == 1
    lines = {l["check"]: l for l in map(json.loads, out.strip().splitlines())}
    assert lines["entry-moments"]["status"] == "fail"
    assert lines["entry-moments"]["detail"] == "resource cap: degree 4 exceeds p_max=3"
    assert lines["mc-agreement"]["status"] == "pass"


def test_verify_k_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "moments", "--k", "2"])
    assert exc.value.code == 2
    assert "--k" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["haar", "--mc", "--group", "kn:2", "--samples", "0", "u[1,1]"], "--samples"),
        (["equal", "--context", "ao-star:2", "--method", "mc", "--group", "kn:2", "--samples", "0", "v[1,1]", "0"], "--samples"),
        (["verify", "--suite", "all", "--samples", "1"], "--samples"),
        (["fusion-table", "--group", "un:2", "--grade-cap", "-1"], "--grade-cap"),
        (["predicates", "--model", "on:3", "--trials", "0"], "--trials"),
        (["verify", "--suite", "kn", "--trials", "0"], "--trials"),
        (["verify", "--suite", "all", "--seed", "-1"], "--seed"),
        (["verify", "--suite", "all", "--n", "0"], "--n"),
        (["verify", "--suite", "all", "--maxlen", "0"], "--maxlen"),
        (["verify", "--suite", "all", "--points", "0"], "--points"),
        (["equal", "--context", "ao-star:2", "--degree-cap", "-1", "v[1,1]", "v[1,1]"], "--degree-cap"),
        (["haar", "--group", "un:2", "--degree-cap", "-1", "1"], "--degree-cap"),
        (["verify", "--suite", "moments", "--degree-cap", "-1"], "--degree-cap"),
    ],
)
def test_counts_below_their_minimum_are_usage_errors(capsys, argv, flag):
    # rejected by the parser, before any sampling, table or check runs
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}: must be at least" in err


# each selection (a subcommand, and for equal, haar and verify the method or
# suite) with its required arguments and the optional flags it reads; the
# expressions are malformed, so a refusal that came after parsing would show
SELECTIONS = {
    "normalize": (["normalize", "--context", "ao-star:2", "v[1,1"], set()),
    "equal": (["equal", "--context", "ao-star:2", "v[1,1", "0"], {"--degree-cap", "--json"}),
    "equal --method nf": (["equal", "--context", "ao-star:2", "--method", "nf", "v[1,1", "0"], {"--json"}),
    "equal --method mc": (
        ["equal", "--context", "ao-star:2", "--method", "mc", "v[1,1", "0"],
        {"--group", "--samples", "--seed", "--json"},
    ),
    "haar": (["haar", "--group", "un:2", "u[1,1"], {"--degree-cap", "--group"}),
    "haar --mc": (["haar", "--mc", "--group", "un:2", "u[1,1"], {"--group", "--samples", "--seed"}),
    "fuse": (["fuse", "--group", "un:2", "[1,0]", "[1,0]"], {"--group", "--json"}),
    "fusion-table": (["fusion-table", "--group", "torus:1"], {"--group"}),
    "predicates": (["predicates", "--model", "on:3"], {"--seed", "--trials"}),
    "verify": (["verify", "--suite", "moments"], {"--degree-cap"}),
    **{
        f"verify --suite {suite}": (["verify", "--suite", suite], set(reads.split()))
        for suite, reads in {
            "all": "--degree-cap --maxlen --n --points --samples --seed --trials",
            "ah-zero": "--maxlen --n",
            "faithfulness": "--degree-cap --n --seed",
            "fusion": "--seed",
            "half-comm": "--n",
            "hopf": "--degree-cap --n --seed",
            "kn": "--n --seed",
            "moments": "--degree-cap",
            "predicates": "--seed --trials",
            "pun": "--degree-cap --n",
            "rewrite-oracle": "--maxlen --n",
            "sequence": "--n --seed",
            "u2n": "--n --points --seed",
            "weingarten": "--degree-cap --samples --seed",
        }.items()
    },
}
FLAGS = {
    "--seed": ["7"], "--samples": ["40"], "--degree-cap": ["3"], "--json": [],
    "--group": ["kn:2"], "--n": ["2"], "--maxlen": ["2"], "--trials": ["3"], "--points": ["5"],
}


# the selections above that name no method or suite, as the refusals name them
DEFAULT_PATHS = {"equal": "equal --method exact", "haar": "haar without --mc", "verify": "verify --suite moments"}


@pytest.mark.parametrize("selection, flag", [(s, f) for s in SELECTIONS for f in FLAGS])
def test_subcommands_take_only_the_shared_flags_they_read(capsys, selection, flag):
    argv, reads = SELECTIONS[selection]
    argv = argv + [flag] + FLAGS[flag]
    if flag in reads:
        _settle_flags(build_parser().parse_args(argv))
        return
    try:
        code, by_parser = main(argv), False
    except SystemExit as exc:
        code, by_parser = exc.code, True
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    if by_parser:  # a flag the subcommand does not take at all
        assert f"unrecognized arguments: {flag}" in err
    else:  # one the subcommand takes but the selected method or suite does not read
        assert err == f"error: {DEFAULT_PATHS.get(selection, selection)} does not read {flag}\n"


@pytest.mark.parametrize("selection", SELECTIONS)
def test_config_echo_lists_only_the_flags_read(capsys, selection):
    argv, reads = SELECTIONS[selection]
    args = build_parser().parse_args(argv)
    _settle_flags(args)
    _echo_config(args)
    config = json.loads(capsys.readouterr().err.removeprefix("# config "))
    echoed = {flag for flag in FLAGS if flag.removeprefix("--").replace("-", "_") in config}
    assert echoed <= reads
    # an unset count or seed that the call reads is echoed with the value it uses
    assert {"--samples", "--seed", "--degree-cap"} & reads <= echoed
    if "--samples" in reads:
        verify = selection.startswith("verify")
        assert config["samples"] == (suite_params("weingarten")["samples"].default if verify else MC_SAMPLES)


def test_config_echo_gives_the_samples_used(capsys):
    code, out, err = run_cli(capsys, "haar", "--mc", "--group", "kn:2", "--seed", "3", "u[1,1] u*[1,1]")
    config = json.loads(err.splitlines()[0].removeprefix("# config "))
    assert code == 0 and config["samples"] == json.loads(out)["samples"] == MC_SAMPLES
    assert "degree_cap" not in config
    code, out, err = run_cli(capsys, "verify", "--suite", "half-comm")
    config = json.loads(err.splitlines()[0].removeprefix("# config "))
    assert code == 0 and config == {"command": "verify", "n": 2, "suite": "half-comm"}


def test_counts_at_their_minimum_run(capsys):
    code, out, _ = run_cli(capsys, "haar", "--mc", "--group", "kn:2", "--samples", "2", "u[1,1] u[1,2]")
    assert code == 0 and json.loads(out)["samples"] == 2
    code, out, _ = run_cli(capsys, "haar", "--group", "un:2", "--degree-cap", "0", "1")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "fusion-table", "--group", "torus:1", "--grade-cap", "0")
    assert code == 0 and [l["label"] for l in json.loads(out)["labels"]] == ["(t[0],e)"]
    code, out, _ = run_cli(capsys, "predicates", "--model", "on:3", "--which", "non_real", "--trials", "1")
    assert code == 0 and json.loads(out)["value"] is False
