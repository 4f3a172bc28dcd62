"""Output checks: committed golden cells at the default seed.

``golden.json`` holds, per workload and grid, every cell's
``(objective, makespan, max_queue_length)`` at seed 42, recorded from the
program before any optimisation landed.  Floats round-trip exactly through
JSON, so cells are compared for equality, not within a tolerance.

Re-record (only when a change is meant to alter schedules, and say so)::

    python3 perfbench/checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 42


def golden_outputs(cell: object) -> list:
    return [cell.objective, cell.makespan, cell.max_queue_length]  # type: ignore[attr-defined]


def against_golden(workload: object, seed: int, cells: dict, problems: list[str]) -> set:
    """Compare a run's grids with the goldens; returns the failed cells.

    Only runs at :data:`GOLDEN_SEED` have goldens; other seeds return an
    empty set.  Every grid of the run must have a golden grid with the
    same cells (the traced mode runs only the leading streams).
    """
    if seed != GOLDEN_SEED:
        return set()
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[workload.name]  # type: ignore[attr-defined]
    failed = set()
    for grid_name, grid_cells in cells.items():
        want = expected.get(grid_name, {})
        for key in set(want) | set(grid_cells):
            got = golden_outputs(grid_cells[key]) if key in grid_cells else None
            if got != want.get(key):
                failed.add((grid_name, key))
                problems.append(f"{grid_name} {key}: {got} differs from golden {want.get(key)}")
    return failed


def record() -> None:
    """Run every workload at the golden seed and write ``golden.json``."""
    import run  # puts src/ on the import path
    import timed
    from workloads import WORKLOADS

    out = {}
    for name, workload in WORKLOADS.items():
        grid = timed.measure(
            workload, GOLDEN_SEED, run.WORK / "tmp", rounds=1, setup_repeats=0, warm=False
        )
        out[name] = {
            grid_name: {key: golden_outputs(cell) for key, cell in cells.items()}
            for grid_name, cells in grid.cells.items()
        }
        print(f"{name}: {grid.grid_s:.2f}s", file=sys.stderr)
    timed.reap_children()
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    record()
