"""Compare two sets of ledger results, metric by metric.

    python3 benchmarks/ledger/compare.py BASE_DIR NEW_DIR

Each directory holds the ``*-plain.json`` files that untraced runs of
``run.py`` wrote (several seeds per workload). Prints one row per
workload x end-to-end metric: both medians with their quartiles, the
ratio new/base, and a verdict from the bounds in ``BENCHMARK.json``:

``unresolved``  either side's spread (q3 - q1 over the median) is wider
                than the metric's bound: the runs cannot tell
``worse``       the new median is worse than the base by more than the bound
``better``      the new median is better by more than the base's own
                quartile distance
``same``        none of the above

Exits 1 if any row is ``worse`` or a workload's failed-operation share
rose, 2 if the inputs cannot be compared (smoke or invalid results, a
workload missing on one side). The A/A acceptance check is this script
on two sets of runs of one commit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

import quantiles

MANIFEST = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


class Incomparable(Exception):
    pass


def load_results(directory: Path) -> Dict[str, List[dict]]:
    """Untraced results in ``directory``, grouped by workload."""
    grouped: Dict[str, List[dict]] = {}
    for path in sorted(directory.glob("*-plain.json")):
        result = json.loads(path.read_text())
        if result["provenance"]["smoke"]:
            raise Incomparable(f"{path}: a --smoke result measures nothing")
        if not result["correct"]:
            raise Incomparable(f"{path}: the run failed its checks")
        if not result["valid"]:
            raise Incomparable(
                f"{path}: invalid run ({'; '.join(result['invalid_because'])})"
            )
        grouped.setdefault(result["workload"], []).append(result)
    if not grouped:
        raise Incomparable(f"{directory}: no *-plain.json results")
    return grouped


def spread(values: List[float]) -> float:
    q1, q3 = quantiles.quartiles(values)
    return (q3 - q1) / abs(quantiles.median(values))


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    base_median = quantiles.median(base)
    new_median = quantiles.median(new)
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (new_median - base_median)
    if -gain > bound * abs(base_median):
        return "worse"
    q1, q3 = quantiles.quartiles(base)
    if gain > q3 - q1:
        return "better"
    return "same"


def failed_share(results: List[dict]) -> float:
    attempted = sum(result["attempted"] for result in results)
    return sum(result["failed"] for result in results) / attempted


def compare(base_dir: Path, new_dir: Path, manifest: dict) -> int:
    base = load_results(base_dir)
    new = load_results(new_dir)
    if set(base) != set(new):
        raise Incomparable(
            f"workloads differ: {sorted(base)} against {sorted(new)}"
        )
    status = 0
    header = (
        f"{'workload':16s}{'metric':26s}{'base median [q1, q3] n':>42s}"
        f"{'new median [q1, q3] n':>42s}{'new/base':>10s}  verdict"
    )
    print(header)
    for workload in (entry["name"] for entry in manifest["workloads"]):
        if workload not in base:
            continue
        for entry in manifest["end_to_end"]:
            name = entry["name"]
            sides = []
            for results in (base[workload], new[workload]):
                sides.append(
                    [result["metrics"][name]["value"] for result in results]
                )
            outcome = verdict(sides[0], sides[1], entry["better"], entry["bound"])
            if outcome == "worse":
                status = 1
            cells = []
            for values in sides:
                q1, q3 = quantiles.quartiles(values)
                cells.append(
                    f"{quantiles.median(values):.5g} [{q1:.5g}, {q3:.5g}] "
                    f"{len(values)}"
                )
            ratio = quantiles.median(sides[1]) / quantiles.median(sides[0])
            print(
                f"{workload:16s}{name:26s}{cells[0]:>42s}{cells[1]:>42s}"
                f"{ratio:>9.3f}x  {outcome}"
                f" (bound {entry['bound']:.0%}, {entry['unit']},"
                f" {entry['better']} is better)"
            )
        before, after = failed_share(base[workload]), failed_share(new[workload])
        print(
            f"{workload:16s}{'failed operations':26s}{before:>42.6f}"
            f"{after:>42.6f}"
        )
        if after > before:
            status = 1
    return status


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--manifest", type=Path, default=MANIFEST)
    arguments = parser.parse_args(argv)
    try:
        return compare(
            arguments.base, arguments.new, json.loads(arguments.manifest.read_text())
        )
    except Incomparable as problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
