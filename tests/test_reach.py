"""Every function in ``src/`` is reached by a command, or listed here with
the reason it stays.

The probe runs in a fresh interpreter, under a ``sys.setprofile`` hook set
before ``entrofed`` is imported, so that calls made at import time (the
settings' declarations and the default configs' checks) count as reached.
It runs ``entrofed run`` and ``entrofed partition`` on the golden configs,
``run`` on both benchmark workloads at seed 0, and the three oracle
records. A function that none of them calls fails the test until a command
uses it, it is listed in ``UNREACHED`` with its reason, or it is deleted;
an entry that the commands do reach fails it too, so the list stays exact.

Run ``python tests/test_reach.py`` to print the functions the probe does
not reach.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
ORACLES = (["toy"], ["glr_variance"], ["entropy_grid"])

# what the commands do not call, by module.qualname, with why it stays
STACKED = "reference for tests/test_objectives.py::TestStackedEvaluation"
MIXED = "public API: the per-objective loop of a federation that no family stack takes"
GLR_SIDE = (
    "reference for tests/test_datagen.py::TestGlrFederation::test_matches_the_per_client_loop"
)
UNREACHED = {
    "core.SeededRng.next_u64": "tracer patch point",
    "core.SeededRng.uniform": "tracer patch point",
    "core.SeededRng.shuffled": "tracer patch point",
    "core.SeededRng.integers": "branch reached by [partition] dirichlet_alpha = 1e-300",
    "core.chi_square_divergence": "public API",
    "objectives.LocalObjective.dimension": "public API",
    "objectives.LocalObjective.full_size": "public API",
    "objectives.LocalObjective.loss": "public API",
    "objectives.LocalObjective.gradient": "public API",
    "objectives.QuadraticObjective.__init__": "public API",
    "objectives.QuadraticObjective.dimension": "public API",
    "objectives.QuadraticObjective.full_size": "public API",
    "objectives.QuadraticObjective.loss": "public API",
    "objectives.QuadraticObjective.gradient": "public API",
    "objectives.GlrObjective.loss": STACKED,
    "objectives.GlrObjective.gradient": STACKED,
    "objectives.GlrObjective._rows": GLR_SIDE,
    "objectives.GlrObjective.full_size": GLR_SIDE,
    "objectives.ClassifierObjective.loss": "tracer patch point",
    "objectives.ClassifierObjective.gradient": "tracer patch point",
    "objectives.ClassifierObjective.accuracy": "tracer patch point",
    "objectives.ClassifierObjective._logits": STACKED,
    "objectives.ClassifierObjective._rows": (
        "reference for tests/test_harness.py::test_normal_draws_are_pinned"
    ),
    "objectives.ClassifierObjective.full_size": (
        "reference for tests/test_harness.py::test_federation_digest_is_pinned"
    ),
    "objectives._log_softmax": STACKED,
    "objectives.finite_diff_gradient": "public API",
    "objectives.glr_least_squares": "public API",
    "stacks.ObjectiveStack.__init__": MIXED,
    "stacks.ObjectiveStack.dimension": MIXED,
    "stacks.ObjectiveStack.take": MIXED,
    "stacks.ObjectiveStack.in_pass_order": MIXED,
    "stacks.ObjectiveStack.evaluate": MIXED,
    "stacks.ObjectiveStack.losses": MIXED,
    "stacks.ObjectiveStack.gradients": MIXED,
    "stacks.ObjectiveStack.step_plan": MIXED,
    "stacks.stack_objectives": GLR_SIDE,
    "stacks._RowStack.objectives": (
        "reference for tests/test_harness.py::test_federation_digest_is_pinned"
    ),
    "stacks._ClassifierStack._view": (
        "reference for tests/test_harness.py::test_federation_digest_is_pinned"
    ),
    "analysis.tail_mean": "public API",
    "harness.ExperimentConfig.classes": "public API: perfbench/run.py reads it under --trace 1",
}
REASON = re.compile(
    r"^(public API(: .+)?|tracer patch point|reference for (tests/\S+)|branch reached by .+)$"
)


def _functions(entrofed):
    """(module.qualname, code) of each function defined in the package's
    modules and their classes, properties' accessors among them."""
    import importlib
    import pkgutil

    for info in pkgutil.iter_modules(entrofed.__path__):
        module = importlib.import_module(f"entrofed.{info.name}")
        short = info.name
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                for attr, member in vars(obj).items():
                    if isinstance(member, property):
                        member = member.fget
                    member = getattr(member, "__func__", member)
                    code = getattr(member, "__code__", None)
                    if code is not None and code.co_filename == module.__file__:
                        yield f"{short}.{name}.{attr}", code
            elif hasattr(obj, "__code__"):
                yield f"{short}.{name}", obj.__code__


def probe() -> list[str]:
    """The package's functions that the commands never call, sorted; this
    interpreter must not have imported ``entrofed`` yet."""
    import contextlib
    import io
    import tempfile

    assert "entrofed" not in sys.modules, "the probe must import entrofed itself"
    called = set()

    def hook(frame, event, _):
        if event == "call":
            called.add(frame.f_code)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    sys.setprofile(hook)
    try:
        import entrofed
        from entrofed.harness import main

        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            os.environ["ENTROFED_OUTPUT_DIR"] = tmp
            for config in sorted(GOLDEN.glob("*/config.cfg")):
                for command in ("run", "partition"):
                    main([command, "--config", str(config)])
            for workload in WORKLOADS.values():
                path = Path(tmp) / f"{workload.name}.cfg"
                path.write_text(workload.config.format(seed=0, output_dir=tmp), encoding="utf-8")
                main(["run", "--config", str(path)])
            for args in ORACLES:
                main(["oracle", *args])
    finally:
        sys.setprofile(None)
    return sorted(name for name, code in _functions(entrofed) if code not in called)


def test_every_function_is_reached_or_listed():
    result = subprocess.run([sys.executable, __file__], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    unreached = set(json.loads(result.stdout))
    assert sorted(unreached - set(UNREACHED)) == [], "reached by no command and not listed"
    assert sorted(set(UNREACHED) - unreached) == [], "listed, but a command reaches it"


def test_every_entry_gives_its_reason():
    bad = {name: why for name, why in UNREACHED.items() if not REASON.match(why)}
    assert not bad
    # a reference names a test that exists
    for why in UNREACHED.values():
        test = REASON.match(why)[3]
        if test:
            path, *names = test.split("::")
            text = (ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^\s*(def|class) {names[-1]}\b", text, flags=re.M), why


if __name__ == "__main__":
    print(json.dumps(probe(), indent=1))
