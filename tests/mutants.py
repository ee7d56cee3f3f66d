"""The mutant register: changes to the source that the tests must catch.

Each entry names a file, a text that occurs in it exactly once, the text
that replaces it, and the tests that must fail once it does. The runner
copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary
directory, applies one mutant at a time there, and runs only that mutant's
tests. It exits non-zero when a mutant survives (one of its tests passes),
when its tests cannot run, or when its old text no longer occurs exactly
once. It takes a few seconds per mutant.

Tier-1 does not collect this module (its name is not ``test_*.py``);
``tests/test_mutants.py`` checks only that every old text still occurs
once, so that a refactor updates the register along with the code.

Run from anywhere::

    python tests/mutants.py           # every mutant
    python tests/mutants.py NAME ...  # the mutants whose name contains NAME
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # from the repository root
    old: str  # occurs in the file exactly once
    new: str
    tests: tuple[str, ...]  # pytest ids, each of which must fail


STACKS = "src/entrofed/stacks.py"
TEST_OBJECTIVES = "tests/test_objectives.py::TestStackedEvaluation"
COHORT = "tests/test_trainer.py::TestCohortMatchesPerClientLoop"

MUTANTS = (
    Mutant(
        "plan-without-refill",
        STACKS,
        'self._inputs.take(rows[k], axis=0, out=inputs, mode="clip")',
        'self._inputs.take(rows[0], axis=0, out=inputs, mode="clip")',
        (
            f"{TEST_OBJECTIVES}::test_plans_check_takers_when_bound_and_refill_rows_each_step",
            f"{COHORT}::test_classifier_cohort",
            f"{COHORT}::test_glr_cohort",
        ),
    ),
    Mutant(
        "plan-on-a-copy-of-x",
        "src/entrofed/trainer.py",
        "step = stack.step_plan(x, g, subsets)",
        "step = stack.step_plan(x.copy(), g, subsets)",
        (
            f"{COHORT}::test_classifier_cohort",
            f"{COHORT}::test_glr_cohort",
            "tests/test_trainer.py::TestWholeRunMatchesPerClientLoop::test_golden_config",
        ),
    ),
    Mutant(
        "row-counts-of-whole-segments",
        STACKS,
        "counts[rs] = n",
        "counts[rs] = rs.stop - rs.start",
        (
            f"{TEST_OBJECTIVES}::test_full_set_gradients_of_mixed_sizes",
            f"{TEST_OBJECTIVES}::test_gradients_at_own_parameters_are_bitwise_per_client",
            f"{COHORT}::test_classifier_cohort",
        ),
    ),
    Mutant(
        "plan-out-from-the-arena",
        STACKS,
        "out = np.empty((self.m, xs.shape[-1]))",
        'out = self._arena("out", self.m * xs.shape[-1]).reshape(self.m, -1)',
        (f"{TEST_OBJECTIVES}::test_results_never_alias_the_arena",),
    ),
    Mutant(
        "narrow-fair-angle-rescale-band",
        "src/entrofed/core.py",
        "not 2.0**-500 <= peak <= 2.0**500",
        "not 2.0**-400 <= peak <= 2.0**400",
        ("tests/test_core.py::TestFairAngle::test_rescale_band_edges",),
    ),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    return (root / mutant.path).read_text(encoding="utf-8").count(mutant.old)


def survivors(mutant: Mutant) -> list[str]:
    """The tests of ``mutant`` that do not fail with it applied to a copy
    of the repository (all of them if they cannot run)."""
    with tempfile.TemporaryDirectory(prefix="entrofed-mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / mutant.path
        target.write_text(
            target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8"
        )
        command = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider"]
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        result = subprocess.run(
            [*command, *mutant.tests], cwd=copy, env=env, capture_output=True, text=True
        )
    if result.returncode != 1:  # 1: some tests failed; else passed or broke
        return list(mutant.tests)
    failed = re.findall(r"^FAILED (\S+)", result.stdout, flags=re.MULTILINE)
    return [t for t in mutant.tests if not any(f == t or f.startswith(t + "[") for f in failed)]


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(a in m.name for a in argv)]
    status = 0
    for mutant in chosen:
        count = occurrences(mutant)
        if count != 1:
            print(f"STALE    {mutant.name}: its old text occurs {count} times in {mutant.path}")
            status = 1
            continue
        alive = survivors(mutant)
        print(f"{'SURVIVED' if alive else 'killed'}   {mutant.name}")
        for test in alive:
            print(f"    passes: {test}")
        status |= bool(alive)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
