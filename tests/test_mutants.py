"""The mutation gate's list (``tools/mutants.py``) stays applicable: each
mutant's text occurs exactly once in the file it mutates, so the gate
changes the line it names and no other."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("mutants", os.path.join(ROOT, "tools", "mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.reason)
def test_each_mutant_applies_to_exactly_one_place(mutant):
    with open(os.path.join(ROOT, mutant.file), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
