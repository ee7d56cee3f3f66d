"""The mutant register stays in step with the code it mutates and the tests
it names; running the mutants themselves is ``python tests/mutants.py``,
outside tier-1."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("mutants", Path(__file__).with_name("mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_applies_exactly_once(mutant):
    assert mutants.occurrences(mutant) == 1
    assert mutant.new != mutant.old and mutant.tests


def test_every_named_test_is_collected():
    # A test id names one test, or each of its parameters; one collection
    # of the files named resolves them all, so that a renamed test fails
    # here and not only in the runner.
    named = sorted({t for m in mutants.MUTANTS for t in m.tests})
    files = sorted({t.split("::")[0] for t in named})
    command = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"]
    result = subprocess.run([*command, *files], cwd=mutants.ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    collected = result.stdout.splitlines()
    missing = [t for t in named if not any(c == t or c.startswith(t + "[") for c in collected)]
    assert not missing
