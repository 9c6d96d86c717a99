"""Compare two benchmark result sets, metric by metric.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result records ``perfbench/run.py --out DIR``
wrote (untraced runs only are compared).  Runs pair up by workload seed.
For every workload and end-to-end metric it prints each side's median
and quartiles, how many pairs each side won, and a verdict against the
metric's bound in ``BENCHMARK.json``:

* ``improved`` — the new side won at least nine tenths of at least ten
  pairs (ties count for neither) and the medians differ by more than the
  base side's quartile spread;
* ``worse`` — the new median is worse than the base median by more than
  the bound, and the base spread is within the bound (or every new run
  is worse than every base run);
* ``unresolved`` — the base spread is wider than the bound and the runs
  do not separate, or an improvement rests on fewer than ten pairs;
* ``unchanged`` — otherwise.

Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: the fewest pairs an improvement may rest on
MIN_PAIRS = 10
#: the share of pairs the new side must win to improve
WIN_SHARE = 0.9


def load(directory: Path) -> Dict[str, List[dict]]:
    """Untraced result records by workload."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.trace0.*.json")):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        runs[record["workload"]].append(record)
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs_by_seed(base: List[dict], new: List[dict], metric: str):
    """``(base value, new value)`` for runs of the same seed, in order."""
    by_seed = defaultdict(list)
    for record in new:
        by_seed[record["seed"]].append(record["metrics"][metric]["value"])
    pairs = []
    for record in base:
        queue = by_seed.get(record["seed"])
        if queue:
            pairs.append((record["metrics"][metric]["value"], queue.pop(0)))
    return pairs


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float, pairs) -> Tuple[str, int, int]:
    """``(verdict, base wins, new wins)`` per the rules in the module
    docstring."""
    sign = 1.0 if better == "higher" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    q1, _q2, q3 = quartiles(base)
    spread = q3 - q1
    gain = sign * (new_median - base_median)  # > 0: the new side is better
    new_wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    base_wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    allowed = bound * abs(base_median)
    new_all_better = min(sign * v for v in new) > max(sign * v for v in base)
    new_all_worse = max(sign * v for v in new) < min(sign * v for v in base)
    if pairs and new_wins >= WIN_SHARE * len(pairs) and gain > spread:
        result = "improved" if len(pairs) >= MIN_PAIRS else "unresolved"
    elif -gain > allowed:
        result = "worse" if spread <= allowed or new_all_worse else "unresolved"
    elif spread > allowed and not new_all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return result, base_wins, new_wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    base_runs, new_runs = load(args.base), load(args.new)
    if not base_runs or not new_runs:
        print("compare: no untraced result records in one of the "
              "directories", file=sys.stderr)
        return 2
    worse = False
    print(f"{'workload':<20} {'metric':<20} {'base median [q1, q3] n':<34} "
          f"{'new median [q1, q3] n':<34} {'wins b/n':<9} verdict")
    for workload in sorted(set(base_runs) & set(new_runs)):
        base, new = base_runs[workload], new_runs[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base]
            n = [r["metrics"][name]["value"] for r in new]
            pairs = pairs_by_seed(base, new, name)
            result, base_wins, new_wins = verdict(
                b, n, metric["better"], metric["bound"], pairs)
            worse = worse or result == "worse"
            print(f"{workload:<20} {name:<20} {_summary(b):<34} "
                  f"{_summary(n):<34} {base_wins:>3}/{new_wins:<5} {result}")
    return 1 if worse else 0


def _summary(values: Sequence[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


if __name__ == "__main__":
    raise SystemExit(main())
