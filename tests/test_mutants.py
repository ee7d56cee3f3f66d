"""The mutant register stays in step with the code it mutates; running the
mutants themselves is ``python tests/mutants.py``, outside tier-1."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("mutants", Path(__file__).with_name("mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_applies_exactly_once(mutant):
    assert mutants.occurrences(mutant) == 1
    assert mutant.new != mutant.old and mutant.tests
