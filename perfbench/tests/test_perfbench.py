"""Tests of the benchmark itself: its oracles reject wrong answers, and the
traced run sees the layers each workload is meant to use and to bypass."""

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from halfcomm import crossed, words  # noqa: E402
from halfcomm.fusion import UnFusion  # noqa: E402
from halfcomm.scalars import GaussianRational  # noqa: E402
from halfcomm.words import WordElement, ao_star, au_star_star  # noqa: E402

from perfbench import oracles, run, trace, workloads  # noqa: E402
from perfbench.procs import ChildResult  # noqa: E402
from perfbench.speed import Speed  # noqa: E402


def _rng():
    return random.Random(7)


def test_equality_oracle_rejects_flipped_answer():
    pres = ao_star(2)
    for equal in (True, False):
        op = workloads._equal_op(pres, *workloads.equality_pair(_rng(), pres, (3, 2), equal))
        answer = op.run()
        assert answer is equal
        assert op.check(answer)
        assert not op.check(not answer)


def test_haar_oracle_rejects_perturbed_value():
    pres = ao_star(2)
    op = workloads._state_op(pres, {(): 1, tuple(words.letter(pres, 1, 1) for _ in range(2)): 2})
    value = op.run()
    assert op.check(value)
    assert not op.check(value + 1)
    assert not op.check(value + GaussianRational(0, 1))


def test_fusion_oracles_reject_wrong_multiplicity():
    data = UnFusion(3)
    x, y = ((1, 0, 0), 1), ((1, 0, 0), 1)
    dec = workloads.fusion.astar_tensor(data, x, y)
    assert oracles.fusion_ok(data, x, y, dec, True)
    label = next(iter(dec))
    assert not oracles.fusion_ok(data, x, y, {**dec, label: dec[label] + 1}, True)
    lam = mu = (1, 0, 0)
    res = workloads.fusion.lr_tensor(lam, mu, 3)
    assert workloads._lr_ok(lam, mu, 3, res)
    assert not workloads._lr_ok(lam, mu, 3, {**res, (1, 1, 0): res[(1, 1, 0)] + 1})
    table = {"products": [{"x": "([1,0,0],s)", "y": "([1,0,0],s)",
                           "result": [{"label": "([2,0,0],e)", "mult": 1}, {"label": "([1,1,0],e)", "mult": 1}]}]}
    assert oracles.table_ok(data, table)
    table["products"][0]["result"][1]["mult"] = 2
    assert not oracles.table_ok(data, table)


def test_word_oracles_reject_wrong_answers():
    pres = ao_star(2)
    rng = _rng()
    w = tuple(words.letter(pres, i, j) for i, j in ((2, 2), (1, 1), (1, 2), (2, 1), (1, 1), (2, 2)))
    nf = words.hc_normal_form(w)
    assert oracles.normal_form_ok(w, nf)
    assert nf != w and not oracles.normal_form_ok(w, w)  # in the class, but not its least word
    long_word = workloads.rand_word(rng, pres, 20)
    long_nf = words.hc_normal_form(long_word)
    assert oracles.normal_form_ok(long_word, long_nf)
    assert not oracles.normal_form_ok(long_word, long_nf[1:] + long_nf[:1])

    x = WordElement(pres, workloads.rand_terms(rng, pres, (3, 2)))
    delta = words.coproduct_element(x)
    assert oracles.coproduct_counit_ok(x, delta)
    dropped = dict(delta)
    dropped.pop(next(k for k in delta if all(l.row == l.col for l in k[0])))
    assert not oracles.coproduct_counit_ok(x, dropped)

    y = WordElement(au_star_star(2), workloads.rand_terms(rng, au_star_star(2), (3, 2), workloads.GAUSS_COEFFS))
    assert oracles.involution_ok("star", y, words.star_element(y))
    assert oracles.involution_ok("antipode", y, words.antipode_element(y))
    assert not oracles.involution_ok("star", y, words.antipode_element(y))

    image = crossed.embed_pi(y)
    assert oracles.embedding_ok(y, image)
    assert not oracles.embedding_ok(y, image + crossed.CrossedElement.generator(4, 1, 1))


def _child(code, stdout=""):
    return ChildResult(code, stdout, "", 0.1, 30.0, False)


def test_cli_tally_counts_wrong_exit_codes():
    calls = [
        workloads.Call("normalize", ["normalize"], 0, lambda out: out.strip() == "1"),
        workloads.Call("normalize", ["normalize"], 0, lambda out: out.strip() == "1"),
        workloads.Call("haar", ["haar"], 2),
    ]
    loop = run.Loop()
    loop.rounds = [[_child(0, "1\n"), _child(1, "1\n"), _child(1)]]
    tally = run.check_cli(calls, loop)
    assert tally["normalize"] == [2, 1, 1]  # a wrong exit code on valid input is a wrong answer
    assert tally["haar"] == [1, 1, 0]  # malformed input not ending in exit 2 fails
    loop.rounds = [[_child(0, "2\n"), _child(0, "1\n"), _child(2)]]
    assert run.check_cli(calls, loop) == {"normalize": [2, 1, 1], "haar": [1, 0, 0]}


def test_verify_tally_counts_failed_checks():
    ok = '{"status": "pass"}\n{"status": "pass"}\n'
    bad = '{"status": "pass"}\n{"status": "fail"}\n'
    assert run.verify_tally(_child(0, ok)) == (2, 0)
    assert run.verify_tally(_child(1, bad)) == (2, 1)
    assert run.verify_tally(_child(0, bad)) == (2, 2)  # exit 0 despite a failed check
    assert run.verify_tally(_child(1, "")) == (1, 1)


def _traced_loop_layers(ops):
    tracer = trace.Tracer(phase="loop")
    undo = trace.install(tracer)
    try:
        loop = run.in_process_loop(ops, 0, max_rounds=1)
    finally:
        trace.uninstall(undo)
    assert all(failed == 0 for _, failed, _ in run.check_in_process(ops, loop).values())
    return trace.calls_by_layer(tracer.spans, "loop"), trace.layer_metrics(tracer.spans)


def test_symbolic_bypasses_haar_and_groups():
    layers, metrics = _traced_loop_layers(workloads.symbolic_round(_rng()))
    assert {"words", "crossed", "fusion"} <= set(layers)
    assert "haar" not in layers and "groups" not in layers
    assert metrics["words.coproduct_element.terms_out"] > 0
    assert metrics["fusion.astar_tensor.calls"] > 0


def test_exact_warm_bypasses_fusion():
    small = ((ao_star(2), (3, 2), 4, 2), (au_star_star(1), (3, 2), 2, 1))
    layers, metrics = _traced_loop_layers(workloads.exact_warm_round(_rng(), small))
    assert {"crossed", "haar"} <= set(layers)
    assert "fusion" not in layers
    assert metrics["crossed.norm_expansion_terms"] > 0
    assert metrics["haar.monomials_integrated"] > 0
    assert metrics["haar.weingarten_table.calls"] > 0


def test_speed_samples_stay_out_of_round_time():
    ops = workloads.symbolic_round(_rng(), copies=1)
    speed = Speed(every_s=0)  # a sample before every operation
    loop = run.in_process_loop(ops, 0, max_rounds=2, speed=speed)
    assert len(speed.samples) == 2 * len(ops)
    assert loop.round_s == [sum(loop.latencies[:len(ops)]), sum(loop.latencies[len(ops):])]
    assert run.per_op_latency(loop, len(ops))[0] == (loop.latencies[0] + loop.latencies[len(ops)]) / 2


def test_tracer_restores_originals():
    before = words.hc_normal_form
    undo = trace.install(trace.Tracer())
    assert words.hc_normal_form is not before
    trace.uninstall(undo)
    assert words.hc_normal_form is before


def test_self_time_subtracts_children():
    spans = [[0, -1, "a", "loop", 0.0, 10.0, None], [1, 0, "b", "loop", 2.0, 5.0, None],
             [2, 0, "b", "loop", 6.0, 7.0, None]]
    st = trace.summarize(spans, ("loop",))
    assert st["a"]["self_s"] == 6.0 and st["b"]["calls"] == 2 and st["b"]["self_s"] == 4.0
