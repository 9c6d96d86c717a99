"""Pinned smartly decisions on the Table II models and two industrial points.

The fixture ``tests/fixtures/smartly_pins.json`` records, per model and
engine, the optimized AIG area, the structural digest of the result's AIG
and every decision counter of the ``smartly`` flow.  A change that is
meant to leave the optimizer's decisions alone (a faster query path, a
new memo, a refactor) must reproduce all of it exactly; work counters
(``rcache_*``, ``oracle_*``, ``sim_queries``, ...) are not pinned.

The fixture records the decisions of the code it was generated from.
Regenerate it (``PYTHONPATH=src python tests/core/test_smartly_pins.py``)
only for a change that is meant to alter decisions, and say so in the
change log.
"""

from __future__ import annotations

import json
import os
from typing import Dict

import pytest

from repro.aig import aig_map
from repro.api import Session
from repro.workloads import CASE_NAMES, INDUSTRIAL_POINTS, build_case, build_point

FIXTURE = os.path.join(
    os.path.dirname(__file__), "..", "fixtures", "smartly_pins.json"
)

#: the two §IV-B points the repository benchmark runs, at its width
INDUSTRIAL = ("ind_selector_0", "ind_arbiter")
INDUSTRIAL_WIDTH = 5
ENGINES = ("incremental", "eager")

#: exact pass-stat names and name prefixes that are decisions, not work
DECISION_STATS = (
    "dead_paths", "muxes_bypassed", "dataport_bits_substituted",
    "pmux_branches_removed", "subgraph_gates_before", "subgraph_gates_after",
)
DECISION_PREFIXES = ("ctrl_", "data_")


def _build(name: str):
    if name in INDUSTRIAL:
        points = {p.name: p for p in INDUSTRIAL_POINTS}
        return build_point(points[name], width=INDUSTRIAL_WIDTH)
    return build_case(name)


def _decisions(stats: Dict[str, int]) -> Dict[str, int]:
    # pass stats are qualified by pass path ("smartly.smartly_sat.<stat>")
    decided = {}
    for key, value in sorted(stats.items()):
        stat = key.rsplit(".", 1)[-1]
        if stat in DECISION_STATS or stat.startswith(DECISION_PREFIXES):
            decided[key] = value
    return decided


def collect(name: str, engine: str) -> Dict:
    """The pinned record of one model under one engine."""
    module = _build(name)
    with Session(module, engine=engine) as session:
        report = session.run("smartly")
    return {
        "optimized_area": report.optimized_area,
        "aig_digest": aig_map(module).structural_digest(),
        "decisions": _decisions(report.pass_stats),
    }


MODELS = list(CASE_NAMES) + list(INDUSTRIAL)


@pytest.fixture(scope="module")
def pins():
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", MODELS)
def test_smartly_decisions_pinned(pins, name, engine):
    assert collect(name, engine) == pins[name][engine]


def test_fixture_covers_every_model(pins):
    assert sorted(pins) == sorted(MODELS)
    # the pins are only worth something if the flow decides things here
    totals: Dict[str, int] = {}
    for per_engine in pins.values():
        for key, value in per_engine["incremental"]["decisions"].items():
            stat = key.rsplit(".", 1)[-1]
            totals[stat] = totals.get(stat, 0) + value
    assert totals.get("muxes_bypassed", 0) > 0
    assert totals.get("subgraph_gates_before", 0) > 0


if __name__ == "__main__":
    record = {
        name: {engine: collect(name, engine) for engine in ENGINES}
        for name in MODELS
    }
    with open(FIXTURE, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}")
