"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.

Two checks encode assertions that are mathematically impossible and fail by
design rather than being weakened; their docstrings carry the proofs:

* criterion 4 (separation of half-commutation normal forms by the Haar norm)
* criterion 8 (a doubly-non-real witness for the block group at n=1)
"""

import itertools
import time

import numpy as np
import pytest

from halfcomm import verify
from halfcomm.crossed import embed_pi
from halfcomm.groups import contains, parse_model, predicate, sample_batch
from halfcomm.haar import norm_equal
from halfcomm.verify import (
    shipped_models,
    suite_ah_zero,
    suite_faithfulness,
    suite_fusion,
    suite_half_comm,
    suite_hopf,
    suite_kn,
    suite_moments,
    suite_predicates,
    suite_pun,
    suite_rewrite_oracle,
    suite_sequence,
    suite_u2n,
    suite_weingarten,
)
from halfcomm.words import WordElement, ao_star, format_word, hc_normal_form, letter


def _report(crit, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" | {detail}" if detail else ""
    print(f"[acceptance {crit}] {status} {name}{tail}")


def _failures(report):
    return "; ".join(f"{c.check_id}: {c.detail}" for c in report.checks if not c.passed)


def test_criterion_01_rewriting_correctness():
    t0 = time.monotonic()
    report = suite_rewrite_oracle(n=2, maxlen=5)
    elapsed = time.monotonic() - t0
    total_words = sum(4**k for k in range(1, 6))
    ok = report.passed and elapsed < 60 and total_words == 1364
    _report("01", "rewriting correctness (n=2, len<=5, 1364 words)", ok, f"{elapsed:.1f}s")
    assert report.passed, _failures(report)
    assert elapsed < 60


def test_criterion_02_ah_zero_rule():
    t0 = time.monotonic()
    report = suite_ah_zero(n=2, maxlen=5)
    elapsed = time.monotonic() - t0
    ok = report.passed and elapsed < 60
    _report("02", "hyperoctahedral zero rule vs closure (n=2, len<=5)", ok, f"{elapsed:.1f}s")
    assert report.passed, _failures(report)
    assert elapsed < 60


def test_criterion_03_half_commutation_identities():
    ok = True
    for n in (2, 3):
        report = suite_half_comm(n=n)
        ok = ok and report.passed
        assert report.passed, _failures(report)
    _report("03", "exact abc=cba and self-adjointness of generator images (n=2,3)", ok)


def test_criterion_04_separation_as_stated():
    """As stated: norm_equal(pi(w1), pi(w2)) iff w1 == w2 as normal forms.

    This fails, and must fail: on U(2) unitarity forces |u11| = |u22| and
    |u12| = |u21| pointwise, so the images of the distinct normal forms
    v11 v11 and v22 v22 are the *same* function (equivalently, v11^2 = v22^2
    already follows from the orthogonality relations, which normal forms do
    not rewrite by).  The exact norm correctly reports these coincidences;
    asserting separation would require the oracle to be wrong.
    """
    t0 = time.monotonic()
    pres = ao_star(2)
    letters = [letter(pres, r, c) for r in (1, 2) for c in (1, 2)]
    forms = {()}
    for length in (1, 2, 3):
        for word in itertools.product(letters, repeat=length):
            forms.add(hc_normal_form(word))
    forms = sorted(forms, key=lambda w: (len(w), w))
    images = [embed_pi(WordElement.from_word(pres, w)) for w in forms]
    violations = []
    for a in range(len(forms)):
        for b in range(a, len(forms)):
            got = norm_equal(images[a], images[b])
            if got != (a == b):
                violations.append((format_word(forms[a]), format_word(forms[b])))
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 120
    _report(
        "04",
        "separation of normal forms by the Haar norm, as stated",
        ok,
        f"{len(violations)} coinciding distinct-form pairs, {elapsed:.1f}s",
    )
    assert not violations, (
        "distinct normal forms with equal images on U(2) "
        "(|u11|=|u22| and |u12|=|u21| force these identities): "
        + "; ".join(f"{x} == {y}" for x, y in violations)
    )


def test_criterion_04_function_equality_and_orthogonality():
    """What the isomorphism with the crossed product actually gives at desk
    scale: the exact Weingarten norm decides function equality (cross-checked
    pointwise on all pairs), and the orthogonality sums vanish exactly."""
    t0 = time.monotonic()
    report = suite_faithfulness(n=2)
    elapsed = time.monotonic() - t0
    ok = report.passed and elapsed < 120
    _report(
        "04",
        "norm = pointwise function equality on all normal-form pairs; orthogonality sums vanish",
        ok,
        f"{elapsed:.1f}s",
    )
    assert report.passed, _failures(report)
    assert elapsed < 120


def test_criterion_05_hopf_axioms():
    ok = True
    for n in (2, 3):
        report = suite_hopf(n=n)
        ok = ok and report.passed
        assert report.passed, _failures(report)
    _report("05", "coassociativity, counit, antipode convolution, S^2=id (n=2,3)", ok)


def test_criterion_06_projective_relations():
    ok = True
    for n in (2, 3):
        report = suite_pun(n=n)
        ok = ok and report.passed
        assert report.passed, _failures(report)
    _report("06", "even-part generator relation families have exact norm zero (n=2,3)", ok)


def test_criterion_07_weingarten_engine():
    t0 = time.monotonic()
    report = suite_weingarten(samples=100000)
    elapsed = time.monotonic() - t0
    ok = report.passed and elapsed < 300
    _report("07", "Gram identities G W = I and G W G = G (p<=5) and 20-monomial MC agreement at 1e5 samples", ok, f"{elapsed:.1f}s")
    assert report.passed, _failures(report)
    assert elapsed < 300


def test_criterion_08_attainable_parts():
    """On(3) non-real = false; Un(2) and Kn(2) doubly non-real with witnesses;
    transpose closure over 10^3 samples for every shipped model."""
    res = predicate(parse_model("on:3"), "non_real", trials=10, rng_seed=1)
    ok = res.value is False and res.witness is None
    for name in ("un:2", "kn:2"):
        res = predicate(parse_model(name), "doubly_non_real", trials=200, rng_seed=1)
        g = res.witness["matrix"] if res.witness else None
        ok = ok and res.value and g is not None
        if res.witness:
            i, j, k, l = res.witness["indices"]
            ok = ok and abs((g[i - 1, j - 1] * np.conj(g[k - 1, l - 1])).imag) > 1e-9
    rng = np.random.default_rng(2)
    for model in shipped_models():
        for g in sample_batch(model, rng, 1000):
            if not contains(model, g.T):
                ok = False
                break
    _report("08", "predicates: on:3 real, un:2/kn:2 witnesses, transpose closure 10^3 per model", ok)
    assert ok


def test_criterion_08_u2n1_as_stated():
    """As stated: doubly_non_real(u2n:1) = true with an explicit witness.

    This fails, and must fail: unitarity of [[a,b],[-b,a]] forces
    a*conj(b) real, so every product g_ij*conj(g_kl) lies in
    {|a|^2, |b|^2, +-a*conj(b), +-conj(a)b} which is real -- the group admits
    no witness (equivalently, the universal unitary algebra on one generator
    is commutative).  Verified here by sampling; the n=2 member of the family
    is genuinely doubly non-real and is checked as a control.
    """
    control = predicate(parse_model("u2n:2"), "doubly_non_real", trials=200, rng_seed=3)
    assert control.value, "u2n:2 control should produce a witness"
    res = predicate(parse_model("u2n:1"), "doubly_non_real", trials=1000, rng_seed=3)
    _report(
        "08",
        "doubly_non_real(u2n:1) = true, as stated",
        res.value,
        "no witness exists: 2x2 block unitarity forces all entry products real",
    )
    assert res.value, (
        "u2n:1 admits no doubly-non-real witness: for [[a,b],[-b,a]] unitary, "
        "row orthogonality gives a*conj(b) = conj(a)*b, i.e. a*conj(b) is real, "
        "hence every g_ij*conj(g_kl) is real (u2n:2 control witness found: "
        f"{control.witness['indices']})"
    )


def test_criterion_09_monomial_group_relations():
    assert verify.STRUCTURAL_DRAWS == 1000 and verify.KN_TOL == 1e-12
    report = suite_kn(n=3)
    _report("09", "entry products vanish on 10^3 monomial-matrix samples (|value| < 1e-12)", report.passed)
    assert report.passed, _failures(report)


def test_criterion_10_block_group_model():
    assert verify.STRUCTURAL_DRAWS == 1000 and verify.UNITARITY_TOL == 1e-9
    ok = True
    for n in (1, 2):
        report = suite_u2n(n=n, points=100)
        ok = ok and report.passed
        assert report.passed, _failures(report)
    _report("10", "block sampler pattern; unitary generator matrices; abc=cba at sampled points (n=1,2)", ok)


def test_criterion_11_fusion_engine():
    assert verify.FUSION_TRIPLES == 50 and verify.LR_SIZE_CAP == 4
    t0 = time.monotonic()
    report = suite_fusion()
    elapsed = time.monotonic() - t0
    ok = report.passed and elapsed < 120
    _report("11", "LR vs Schur oracle (|weights|<=4, n=2,3); associativity/dim/Frobenius/duality/grading", ok, f"{elapsed:.1f}s")
    assert report.passed, _failures(report)
    assert elapsed < 120


def test_criterion_12_moment_crosscheck():
    assert verify.MOMENT_CASES == ((2, 1), (2, 2), (3, 1))
    report = suite_moments()
    details = {c.check_id: c.detail for c in report.checks}
    ok = report.passed
    _report("12", "fusion count = exact character moment: (2,1)->1, (2,2)->2, (3,1)->1", ok, str(details))
    assert report.passed, _failures(report)


def test_criterion_13_noncommutative_fusion_witness():
    from halfcomm.fusion import UnFusion, astar_tensor

    data = UnFusion(3)
    xy = astar_tensor(data, ((1, 0, 0), 1), ((1, 1, 0), 0))
    yx = astar_tensor(data, ((1, 1, 0), 0), ((1, 0, 0), 1))
    ok = xy != yx
    _report("13", "graded fusion is noncommutative at n=3", ok, f"{sorted(xy)} vs {sorted(yx)}")
    assert ok


def test_supporting_sequence_checks():
    # grading quotient, coinvariants, even-part generators
    report = suite_sequence(n=2)
    _report("--", "supporting: grading quotient and coinvariant checks", report.passed)
    assert report.passed, _failures(report)


def test_supporting_predicates_suite():
    report = suite_predicates(trials=1000)
    _report("--", "supporting: full predicates suite (with u2n:2 as the doubly-non-real member)", report.passed)
    assert report.passed, _failures(report)
