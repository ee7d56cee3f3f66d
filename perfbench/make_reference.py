"""Write the reference outputs the output check compares against.

    python3 perfbench/make_reference.py

Runs ``entrofed run`` once per workload at the reference seed and stores
its round CSVs and summary under perfbench/reference/<workload>/. Rerun it
only for an intended output change, and commit the new files together
with the change that explains them.
"""

from __future__ import annotations

import shutil
import sys

from run import REFERENCE_DIR, WORK_DIR, load_package


def main() -> int:
    load_package()
    from entrofed import harness
    from workloads import REFERENCE_SEED, WORKLOADS, config_text

    for name, workload in WORKLOADS.items():
        out = WORK_DIR / name / "reference"
        shutil.rmtree(out, ignore_errors=True)
        cfg_path = WORK_DIR / name / "reference.cfg"
        cfg_path.parent.mkdir(parents=True, exist_ok=True)
        cfg_path.write_text(config_text(workload, REFERENCE_SEED, str(out)), encoding="utf-8")
        if harness.main(["run", "--config", str(cfg_path)]) != 0:
            return 1
        dest = REFERENCE_DIR / name
        shutil.rmtree(dest, ignore_errors=True)
        shutil.copytree(out, dest)
        print(f"{name}: wrote {sorted(p.name for p in dest.iterdir())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
