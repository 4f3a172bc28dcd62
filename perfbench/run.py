"""Grid benchmark: runs one workload and prints its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ctc-grid-20x350 --seed 42 --seconds 50 --trace 0
    python3 perfbench/run.py --workload ctc-grid-20x350 --seed 42 --seconds 50 --trace 1

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the traced mode and reports the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the human-readable table goes before it.  The
exit code is non-zero when any cell output is wrong.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout: temporary caches (deleted after each
#: engine call) and the written span traces.
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, nproc  # noqa: E402


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metadata(workload, seed: int, backend: str) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "seed": seed,
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "workers": workload.workers,
        "streams": workload.streams,
        "jobs_requested": workload.jobs,
        "cells_per_grid": len(workload.configs()),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    # Imported before anything is measured, so that a checkout without the
    # program fails here, before printing any result.
    from repro.core.vector import resolve_backend

    import timed
    import traced

    tmp_root = WORK / "tmp"
    meta = metadata(workload, args.seed, resolve_backend(None))
    try:
        if args.trace:
            result = traced.run(workload, args.seed, tmp_root, WORK / "traces")
        else:
            result = timed.run(workload, args.seed, args.seconds, tmp_root)
    except Exception:  # a cell or the engine raised: report, fail the run
        traceback.print_exc()
        cells = workload.streams * len(workload.configs()) * (3 if workload.sweep else 1)
        result = {
            "correct": False,
            "attempted": cells,
            "failed": cells,
            "metrics": {},
            "problems": ["the run raised; see the traceback on stderr"],
        }
    finally:
        timed.reap_children()
    meta.update(result.pop("meta", {}))
    meta["cell_fail_frac"] = result["failed"] / result["attempted"]
    print(json.dumps({"meta": meta}, sort_keys=True))
    for problem in result["problems"]:
        print(f"FAIL: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name:<30}  {metric['value']:>14.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
