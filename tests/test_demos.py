"""Every demo script runs to the end, so a name a demo uses that the
package drops, or a change that breaks what a demo drives, fails the
suite. Each demo runs its work only under ``if __name__ == "__main__"``, so
importing one runs nothing; the test then calls its ``main()``. Demo 03's
output, the label histograms of its partitions, is pinned byte for byte."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
PINNED = {"03_partitions": Path(__file__).parent / "golden" / "demo_03_partitions.txt"}


def test_demos_found():
    assert DEMOS
    assert set(PINNED) <= {path.stem for path in DEMOS}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert capsys.readouterr().out == ""
    module.main()
    out = capsys.readouterr().out
    assert out.strip()
    if path.stem in PINNED:
        assert out == PINNED[path.stem].read_text(encoding="utf-8")
