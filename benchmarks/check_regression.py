"""CI perf-smoke gate: compare fresh bench JSON against the committed baseline.

Usage::

    python benchmarks/check_regression.py BASELINE.json CURRENT.json [--max-ratio 3.0]

Timing entries may regress up to ``--max-ratio`` (default 3x — CI runners
are noisy; the gate catches melts, not jitter).  Byte counts and ratio
factors are structural, so they get hard bounds: dispatch payload byte
counts must not grow at all beyond rounding, and ``*_reduction_x``
factors must stay >= 10 (the workload-store and metric-kernel acceptance
bars).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Structural lower bound enforced on reduction factors.
MIN_REDUCTION_X = 10.0


def _is_timing(name: str) -> bool:
    return "bytes" not in name and not name.endswith("_x")


def compare(
    baseline: dict,
    current: dict,
    max_ratio: float,
    warnings: list[str] | None = None,
) -> list[str]:
    """Problems (gate failures) comparing ``current`` against ``baseline``.

    A bench key present in the current run but absent from the baseline is
    a *new* bench — there is nothing to gate it against yet, so it only
    produces a warning (collected into ``warnings`` when given).  This
    keeps CI green when a PR adds benchmarks without regenerating the
    committed baselines; the key starts gating once a baseline records it.
    Keys missing from the *current* run stay hard failures: a vanished
    bench usually means the suite silently stopped measuring something.
    """
    problems: list[str] = []
    base = baseline.get("seconds", {}) or {}
    cur = current.get("seconds", {}) or {}
    for name in cur:
        if name not in base and warnings is not None:
            warnings.append(f"{name}: new bench with no baseline entry — not gated")
    for name, base_value in base.items():
        if name not in cur:
            problems.append(f"{name}: missing from current run")
            continue
        value = cur[name]
        if _is_timing(name):
            if base_value > 0 and value > base_value * max_ratio:
                problems.append(
                    f"{name}: {value:.6g}s is {value / base_value:.1f}x the "
                    f"baseline {base_value:.6g}s (limit {max_ratio:g}x)"
                )
        elif name.endswith("_reduction_x"):
            if value < MIN_REDUCTION_X:
                problems.append(
                    f"{name}: {value:.1f}x is below the {MIN_REDUCTION_X:g}x bar"
                )
        elif "bytes_per_cell" in name:
            # Dispatch payloads are deterministic; allow 1% for pickle
            # framing differences across Python patch versions.
            if value > base_value * 1.01:
                problems.append(
                    f"{name}: {value:.0f} B grew past baseline {base_value:.0f} B"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--max-ratio", type=float, default=3.0)
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())
    warnings: list[str] = []
    problems = compare(baseline, current, args.max_ratio, warnings)
    for warning in warnings:
        print(f"WARNING: {warning}", file=sys.stderr)
    for problem in problems:
        print(f"REGRESSION: {problem}", file=sys.stderr)
    if not problems:
        n = sum(1 for k in baseline.get("seconds", {}) or {})
        print(f"ok: {n} metrics within {args.max_ratio:g}x of {args.baseline}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
