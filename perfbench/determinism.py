"""Check that a workload's deterministic results repeat exactly.

Usage (from the repository root)::

    python3 perfbench/determinism.py --workload table2-cold --seed 1 [--smoke]

Runs the traced benchmark three times — twice with ``PYTHONHASHSEED=0``
and once with ``PYTHONHASHSEED=1`` — and compares ``aig_area``,
``extra_reduction_pct`` and every per-layer count and ratio of the first
run with the other two.  Each mismatch is printed by name; the exit code
is 1 when there is one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
RUNS = (("0", "first"), ("0", "repeat"), ("1", "other hash seed"))


def deterministic_block(workload: str, seed: int, smoke: bool,
                        hash_seed: str, out: Path) -> Dict[str, float]:
    out.mkdir(parents=True)
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--trace", "1", "--out", str(out)]
    if smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    subprocess.run(command, cwd=str(ROOT), env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=900)
    (record_path,) = out.glob("*.trace1.*.json")
    with open(record_path, encoding="utf-8") as handle:
        return json.load(handle)["deterministic"]


def mismatches(reference: Dict[str, float], other: Dict[str, float],
               label: str) -> List[str]:
    return [
        f"{name}: {reference.get(name)} vs {other.get(name)} ({label})"
        for name in sorted(set(reference) | set(other))
        if reference.get(name) != other.get(name)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    scratch = ROOT / "perfbench" / "out" / f"determinism-{os.getpid()}"
    try:
        blocks = [
            (label, deterministic_block(args.workload, args.seed, args.smoke,
                                        hash_seed, scratch / str(index)))
            for index, (hash_seed, label) in enumerate(RUNS)
        ]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    reference = blocks[0][1]
    found = [line for label, block in blocks[1:]
             for line in mismatches(reference, block, label)]
    for line in found:
        print(f"MISMATCH {args.workload} {line}")
    print(f"{args.workload}: {len(reference)} deterministic values, "
          f"{len(found)} mismatches")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
