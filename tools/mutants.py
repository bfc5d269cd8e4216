"""Mutation gate: each fault below must make ``verify --suite all`` fail a check.

Usage: ``python tools/mutants.py`` (from anywhere).

Each mutant is a one-line change ``(file, old, new, reason)`` to the library.
For each, the tool copies ``src/`` to a temporary directory, replaces the one
occurrence of ``old`` by ``new`` there, and runs ``python -m halfcomm verify
--suite all`` on the copy, one child at a time, each under ``TIMEOUT_S``.  A
mutant is *killed* when verify exits 1 with at least one failed check and no
traceback, *crashed* when it ends any other way (a traceback, another exit
code, the timeout), and *survived* when verify exits 0.  The unmutated copy
runs first and must exit 0, so that a broken environment cannot pass for a
killed mutant.  Exits 0 only when that holds and every mutant is killed.

Every mutant here was vetted to change the library's answers: a mutant that
is equivalent to the original code survives any check and does not belong
in the list.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 120  # seconds each verify run may take; a clean run takes about 2 s


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    reason: str


MUTANTS = (
    Mutant("src/halfcomm/fusion.py", "right = data.dual(vb) if fa == 1 else vb", "right = vb",
           "the sigma twist is dropped from the crossed tensor rule"),
    Mutant("src/halfcomm/fusion.py", "right = data.dual(vb) if fa == 1 else vb",
           "right = data.dual(vb) if fa == 1 and fb == 1 else vb",
           "the twist applies only when both factors are odd"),
    Mutant("src/halfcomm/fusion.py", "return (label, 1) if flag else (data.dual(label), 0)",
           "return (data.dual(label), flag)",
           "the graded dual dualises odd labels"),
    Mutant("src/halfcomm/crossed.py", "runs.append(((row, col, odd), end - first, q))",
           "runs.append(((row, col, not odd), end - first, q))",
           "the position parity of a word's runs is flipped in the embedding"),
    Mutant("src/halfcomm/crossed.py", "yield ((left, parity), (right, parity)), c",
           "yield ((right, parity), (left, parity)), c",
           "the crossed coproduct swaps its two legs"),
    Mutant("src/halfcomm/haar.py", "(-1) ** sum(b - k < c < b for c in beta)",
           "(-1) ** sum(b - k < c <= b for c in beta)",
           "the Murnaghan-Nakayama sign counts the moved bead itself"),
    Mutant("src/halfcomm/haar.py", "for c in (*rows.values(), *cols.values()))", "for c in rows.values())",
           "the column stabilisers are dropped from the coset integral"),
    Mutant("src/halfcomm/haar.py", "(n + j - i)", "(n + i - j)",
           "the hook-content product uses the transposed contents"),
    Mutant("src/halfcomm/fusion.py", "flag = (fa + fb) % 2", "flag = fa",
           "the crossed tensor rule keeps the left flag instead of the sum"),
    Mutant("src/halfcomm/haar.py", "q += e if sym[2] else 0", "q += 0 if sym[2] else e",
           "the witness point scales each term by its plain degree, not its barred one"),
    Mutant("src/halfcomm/words.py", "_letter(col, row, starred != unitary)", "_letter(row, col, starred != unitary)",
           "the word antipode no longer transposes the indices"),
    Mutant("src/halfcomm/words.py", "x._merge((word[::-1], coeff.conjugate())", "x._merge((word, coeff.conjugate())",
           "the orthogonal word star no longer reverses the word"),
    Mutant("src/halfcomm/words.py",
           "return (a.row == b.row and a.col != b.col) or (a.col == b.col and a.row != b.row)",
           "return a.row == b.row and a.col != b.col",
           "the ah-star zero rule drops the column relations"),
    Mutant("src/halfcomm/words.py", "dies = self.presentation.kind == AH_STAR", "dies = False",
           "word products, stars and antipodes skip the ah-star zero test"),
    Mutant("src/halfcomm/words.py", "(hc_normal_form(word), c)", "(word, c)",
           "word products, stars and antipodes skip the normal form"),
    Mutant("src/halfcomm/scalars.py", "return {k: c for k, c in acc.items() if c} if cancelled else acc", "return acc",
           "the one merge rule keeps the keys whose sum cancelled to zero"),
    Mutant("src/halfcomm/fusion.py", "tuple([dshift - x for x in reversed(nu)])", "tuple([x - dshift for x in nu])",
           "Littlewood-Richardson on the dual pair returns the dual constituents"),
    Mutant("src/halfcomm/fusion.py", "least = 0 if prev is None else size", "least = 0",
           "the strip walk drops the lattice bound on the rows above the last"),
    Mutant("src/halfcomm/fusion.py", "return _shifted(hit, a[-1] + b[-1])", "return hit",
           "a Littlewood-Richardson memo hit is returned without the shift back"),
    Mutant("src/halfcomm/fusion.py", "lam, mu = _ending_in_0(a), _ending_in_0(b)", "lam, mu = tuple(a), tuple(b)",
           "the Littlewood-Richardson memo is keyed on unshifted weights"),
    Mutant("src/halfcomm/groups.py", "_small(b + c)", "_small(b - c)",
           "the block-group membership test asks for C = B instead of C = -B"),
    Mutant("src/halfcomm/groups.py", "return g / root[:, None, None]", "return g",
           "the special unitary sampler no longer scales its samples to determinant 1"),
    Mutant("src/halfcomm/groups.py", "out[np.arange(count)[:, None], rows, np.arange(n)[None, :]] = phases",
           "out[np.arange(count)[:, None], rows, np.arange(n)[None, :]] = 1",
           "the monomial-matrix sampler drops its phases"),
    Mutant("src/halfcomm/groups.py", "np.multiply.outer(g, g.conj())", "np.multiply.outer(g, g)",
           "the doubly-non-real search drops the conjugate of the second entry"),
)


def run_verify(mutant):
    """Apply ``mutant`` (or nothing, for None) to a copy of ``src/`` and run
    the battery there; returns (outcome, failed checks, seconds, note)."""
    with tempfile.TemporaryDirectory(prefix="halfcomm-mutant-") as tmp:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tmp, "src"),
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if mutant is not None:
            path = os.path.join(tmp, mutant.file)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if text.count(mutant.old) != 1:
                return "crashed", 0, 0.0, f"old text occurs {text.count(mutant.old)} times in {mutant.file}"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "halfcomm", "verify", "--suite", "all"]
        start = perf_counter()
        try:
            res = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "crashed", 0, perf_counter() - start, f"no answer within {TIMEOUT_S} s"
        elapsed = perf_counter() - start
    failed = res.stdout.count('"status": "fail"')  # one JSON line per check
    if res.returncode == 0:
        return "survived", failed, elapsed, ""
    if res.returncode == 1 and failed and "Traceback" not in res.stderr:
        return "killed", failed, elapsed, ""
    last = (res.stderr.strip().splitlines() or ["no output"])[-1]
    return "crashed", failed, elapsed, f"exit {res.returncode}: {last}"


def main() -> int:
    outcome, failed, elapsed, note = run_verify(None)
    ok = outcome == "survived" and failed == 0
    print(f"{'clean' if ok else 'BROKEN':9} {elapsed:6.1f} s  unmutated copy {note}".rstrip())
    for mutant in MUTANTS:
        outcome, failed, elapsed, note = run_verify(mutant)
        print(f"{outcome:9} {elapsed:6.1f} s  {failed:2} failed  {os.path.basename(mutant.file)}: {mutant.reason}"
              + (f" ({note})" if note else ""))
        ok = ok and outcome == "killed"
    print("mutation gate: " + ("every mutant killed by a failed check" if ok else "NOT every mutant killed"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
