"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off: passes repeat until ``--seconds`` have gone by, and times
are medians over passes (job latencies pool every pass).  ``--trace 1``
is the separate traced run: it alternates an untraced and a traced pass
and reports the per-layer metrics, ``trace.overhead_s`` being the traced
minus the untraced wall time; its spans are written as a Chrome trace
next to the results.  Every output is checked outside the timed region;
a failed check makes ``correct`` false.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (environment,
sample counts, quartiles, failures) goes to
``perfbench/out/results/<workload>.seed<N>.trace<T>.<ns>.json``;
``python3 perfbench/compare.py`` compares two such result sets.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT))

from perfbench.speed import at_reference, kernel_s  # noqa: E402

#: input generation is repeated this many times; setup_s takes the median
SETUP_REPS = 3


def fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "workload_seed": seed,
    }


def quantile(values, q: float) -> float:
    """Linear-interpolated ``q`` quantile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped descendant
    (the serve daemon or one of its workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- measuring -------------------------------------------------------------------------


def setup(workload, tracer=None):
    """Build the inputs ``SETUP_REPS`` times; returns the last inputs,
    the per-rep times, the calibration kernel's times around the reps
    and, traced, the per-rep ``workloads.build`` time."""
    times, kernels, build_times = [], [kernel_s()], []
    inputs = None
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        inputs = workload.build()
        times.append(time.perf_counter() - start)
        kernels.append(kernel_s())
        if tracer is not None:
            spans, _counts = tracer.take()
            build_times.append(sum(end - begin for name, begin, end, *_ in spans
                                   if name == "workloads.build"))
    return inputs, times, kernels, build_times


def check_stable(passes, problems) -> None:
    """Every pass must reach the same areas as the first."""
    first = passes[0].areas
    for number, result in enumerate(passes[1:], start=2):
        if result.areas != first:
            problems.append(f"pass {number}: areas differ from pass 1")


def timed_run(workload, inputs, seconds: float):
    """Passes while the next one, checks included, is expected to end
    within ``seconds`` (at least one)."""
    passes, took = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() + statistics.median(took) <= deadline:
        start = time.perf_counter()
        passes.append(workload.run_pass(inputs))
        took.append(time.perf_counter() - start)
    return passes


def end_to_end(passes, import_s, setup_times, setup_kernels) -> dict:
    """End-to-end metrics (times at reference speed) and the sample
    record behind them (raw times included)."""
    from perfbench.workloads import quality

    walls = [p.wall_s for p in passes]
    samples = [lat for p in passes for lat in p.latencies]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    aig_area, extra = quality(passes[0].areas)
    daemon = [p.setup_s for p in passes]
    raw_setup = import_s + statistics.median(setup_times)
    return {
        "wall_s": statistics.median(walls),
        "job_p50_s": quantile(samples, 0.5),
        "job_p90_s": quantile(samples, 0.9),
        "jobs_per_s": statistics.median(p.attempted / p.wall_s for p in passes),
        "setup_s": at_reference(raw_setup, setup_kernels)
                   + statistics.median(daemon),
        "peak_rss_mb": peak_rss_mb(),
        "aig_area": aig_area,
        "extra_reduction_pct": extra,
        "failed_ratio": failed / attempted if attempted else 0.0,
    }, {
        "passes": len(passes),
        "job_samples": len(samples),
        "samples_beyond_p90": sum(1 for s in samples
                                  if s > quantile(samples, 0.9)),
        "wall_s_per_pass": walls,
        "wall_s_q1_q3": [quantile(walls, 0.25), quantile(walls, 0.75)],
        "raw_wall_s_per_pass": [p.raw_wall_s for p in passes],
        "raw_latencies_per_pass": [p.raw_latencies for p in passes],
        "kernel_s_per_pass": [p.extra["kernels"] for p in passes],
        "raw_job_p50_s": quantile([lat for p in passes
                                   for lat in p.raw_latencies], 0.5),
        "raw_import_s": import_s,
        "raw_input_gen_s": setup_times,
        "setup_kernel_s": setup_kernels,
        "daemon_start_s": daemon,
    }


def traced_run(workload, inputs, seconds: float, tracer):
    """Alternate untraced and traced passes and return ``(runs,
    per-layer metrics per traced pass, last spans, their origin, client
    pass)``; ``runs`` holds every pass run, the first one with areas.

    On serve-mixed the traced body is the stream replayed in order
    through ``run_job``, after one untraced daemon pass that gives the
    client latencies and the flush round trip."""
    from perfbench import layers
    from perfbench.workloads import ServeMixed

    serve = isinstance(workload, ServeMixed)
    runs, per_pass = [], []
    client = None
    if serve:
        client = workload.run_pass(inputs)
        runs.append(client)
    body = workload.replay if serve else workload.run_pass
    spans, origin, took = [], 0.0, []
    deadline = time.perf_counter() + seconds
    while not per_pass or time.perf_counter() + statistics.median(took) <= deadline:
        start = time.perf_counter()
        tracer.uninstall()
        plain = body(inputs)
        tracer.install()
        tracer.take()
        origin = time.perf_counter()
        traced = body(inputs, tracer=tracer)
        spans, counts = tracer.take()
        runs.extend((plain, traced))
        metrics = layers.layer_metrics(spans, counts, traced.raw_wall_s)
        metrics["trace.overhead_s"] = traced.raw_wall_s - plain.raw_wall_s
        if serve:
            bodies = plain.extra["bodies"]
            latencies = client.raw_latencies
            metrics.update({
                "flow.serve.job_body_s": statistics.median(bodies),
                "flow.serve.overhead_s": statistics.median(
                    lat - b for lat, b in zip(latencies, bodies)),
                "flow.serve.snapshot_entries":
                    traced.extra["snapshot_entries"],
                "flow.serve.flush_s": client.extra["flush_s"],
            })
        per_pass.append(metrics)
        took.append(time.perf_counter() - start)
    return runs, per_pass, spans, origin, client


def merge_layer_passes(per_pass, units, failures) -> dict:
    """Median of each per-layer time over traced passes; every count and
    ratio must be identical across them."""
    merged = {}
    for name in per_pass[0]:
        values = [metrics[name] for metrics in per_pass]
        if units.get(name) in ("count", "ratio") and len(set(values)) > 1:
            failures.append(f"per-layer {name} differs across passes: "
                            f"{values}")
        merged[name] = statistics.median(values)
    return merged


# -- entry point -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--out", default=str(OUT / "results"),
                        help="directory for the full result record")
    args = parser.parse_args(argv)

    spec = load_spec()
    if not (ROOT / "src" / "repro").is_dir():
        fail(f"no program source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from perfbench import layers
        from perfbench.workloads import WORKLOADS, ServeMixed, quality
    except ImportError as exc:
        fail(f"cannot import the program: {exc}")
    import_s = time.perf_counter() - _STARTED
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(WORKLOADS)}")

    work = OUT / "work" / f"{os.getpid()}"
    factory = WORKLOADS[args.workload]
    if factory is ServeMixed:
        workload = factory(args.seed, args.smoke, workdir=work, root=ROOT)
    else:
        workload = factory(args.seed, args.smoke)
    end_spec = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_spec = {m["name"]: m["unit"] for m in spec["per_layer"]}
    wanted = layer_spec if args.trace else end_spec
    results_dir = Path(args.out)
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.time_ns()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "env": environment(args.seed),
    }
    problems = []  # failed checks beyond single jobs
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tracer = layers.Tracer()
            tracer.install()
            try:
                inputs, _times, _kernels, build_times = setup(workload, tracer)
                runs, per_pass, spans, origin, client = traced_run(
                    workload, inputs, args.seconds, tracer)
            finally:
                tracer.uninstall()
            values = merge_layer_passes(per_pass, layer_spec, problems)
            values["workloads.build_s"] = statistics.median(build_times)
            measured = [r for r in runs if r.areas]
            trace_path = results_dir / (
                f"{args.workload}.seed{args.seed}.{stamp}.trace.json")
            trace_path.write_text(json.dumps(layers.chrome_trace(
                spans, origin, _client_events(client))), encoding="utf-8")
            record["trace_file"] = trace_path.name
            record["traced_passes"] = len(per_pass)
            units = layer_spec
        else:
            inputs, setup_times, setup_kernels, _ = setup(workload)
            runs = timed_run(workload, inputs, args.seconds)
            measured = runs
            values, record["samples"] = end_to_end(
                runs, import_s, setup_times, setup_kernels)
            units = dict(end_spec, failed_ratio="ratio")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_stable(measured, problems)

    failures = [f for run in runs for f in run.failures]
    attempted = sum(run.attempted for run in runs)
    aig_area, extra = quality(measured[0].areas)
    record["deterministic"] = {
        "aig_area": aig_area, "extra_reduction_pct": extra,
        **{name: values[name] for name, unit in units.items()
           if args.trace and unit in ("count", "ratio")},
    }
    missing = [name for name in wanted if name not in values]
    if missing:
        fail(f"metrics not measured: {missing}")
    record.update({
        "attempted": attempted, "failed": len(failures),
        "failures": (failures + problems)[:50],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    })
    with open(results_dir / f"{args.workload}.seed{args.seed}.trace"
              f"{args.trace}.{stamp}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)

    for name, metric in record["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    for key in ("passes", "job_samples", "samples_beyond_p90",
                "raw_wall_s_per_pass"):
        if key in record.get("samples", {}):
            print(f"{args.workload} sample {key} = {record['samples'][key]}")
    for failure in (failures + problems)[:20]:
        print(f"{args.workload} FAILED {failure}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": wanted[name]}
                    for name in wanted},
    }))
    return 0


def _client_events(client):
    """The daemon pass's requests as spans, one track per outstanding
    slot, on their own time origin (that pass ran before the replay)."""
    if client is None:
        return []
    spans = client.extra["request_spans"]
    origin = min(sent for sent, _done in spans)
    free_at = []  # per track: when its last request was answered
    events = []
    for index, (sent, done) in enumerate(spans):
        track = next((t for t, end in enumerate(free_at) if end <= sent),
                     len(free_at))
        if track == len(free_at):
            free_at.append(done)
        free_at[track] = done
        events.append({
            "name": f"request {index}", "cat": "client", "ph": "X",
            "ts": (sent - origin) * 1e6, "dur": (done - sent) * 1e6,
            "pid": 2, "tid": track + 1,
        })
    return events


if __name__ == "__main__":
    raise SystemExit(main())
