"""The benchmark's own tests, at a smoke size that runs in seconds.

Run with ``python3 -m pytest perfbench`` from the repository root (the
scoped ``perfbench/pytest.ini`` collects ``selftest_*.py``; the tier-1
root run does not).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.compare import verdict  # noqa: E402
from perfbench.determinism import mismatches  # noqa: E402
from perfbench.layers import SELF_TIME_LAYERS  # noqa: E402
from perfbench.workloads import ServeMixed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(out: Path, *args: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "1",
         "--seconds", "0", "--smoke", "--out", str(out), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_is_printed_with_its_unit(workload, tmp_path):
    proc = run_bench(tmp_path, "--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in dict(expected, failed_ratio="ratio").items():
        assert any(line.startswith(f"{workload} {name} = ")
                   and line.endswith(f" {unit}") for line in lines), name
    (record_path,) = tmp_path.glob("*.trace0.*.json")
    record = json.loads(record_path.read_text())
    assert set(record["env"]) == {"python", "platform", "nproc", "git_commit",
                                  "hash_seed", "workload_seed"}


def test_traced_run_reports_every_layer_and_adds_up(tmp_path):
    proc = run_bench(tmp_path, "--workload", "table2-cold", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    layered = sum(metrics[name] for name in SELF_TIME_LAYERS.values())
    assert layered + metrics["trace.other_s"] == pytest.approx(
        metrics["trace.wall_s"])
    assert metrics["core.extract_subgraph_calls"] > 0
    (trace_path,) = tmp_path.glob("*.trace.json")
    events = json.loads(trace_path.read_text())["traceEvents"]
    assert {"core.extract_subgraph", "aig.aig_map"} <= {e["name"] for e in events}


def test_malformed_source_request_counts_as_failed(tmp_path):
    workload = ServeMixed(1, smoke=True, workdir=tmp_path, root=ROOT)
    inputs = workload.build()
    requests = inputs.requests()
    requests[0] = dict(requests[0], source="{not a netlist")
    result = workload.run_pass(inputs, requests=requests)
    assert len(result.failures) == 1
    assert result.failures[0].startswith("request 0 ")
    # the failed request keeps its latency sample
    assert result.attempted == len(requests)


def test_determinism_check_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "determinism.py"),
         "--workload", "industrial-checked", "--smoke"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 mismatches" in proc.stdout


def test_determinism_mismatch_is_reported_by_name():
    assert mismatches({"a": 1, "b": 2}, {"a": 1, "b": 3}, "repeat") == [
        "b: 2 vs 3 (repeat)"]


def test_compare_verdicts():
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.3 for v in base]
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(base, faster, "lower", 0.1,
                   list(zip(base, faster)))[0] == "improved"
    assert verdict(base, slower, "lower", 0.1,
                   list(zip(base, slower)))[0] == "worse"
    assert verdict(base, base, "lower", 0.1,
                   list(zip(base, base)))[0] == "unchanged"
    assert verdict(noisy, noisy, "lower", 0.1,
                   list(zip(noisy, noisy)))[0] == "unresolved"
    # an improvement needs ten pairs
    assert verdict(base[:5], faster[:5], "lower", 0.1,
                   list(zip(base[:5], faster[:5])))[0] == "unresolved"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path / "out", "--workload", "table2-cold",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
