"""Command-line interface.

::

    smartly opt design.v [--top NAME] [--optimizer smartly] [--check] [--json]
    smartly script "opt_expr; smartly k=6; opt_clean" design.v [--check] [--json]
    smartly stats design.v
    smartly bench table2 | table3 | industrial [--jobs N]
    smartly aig design.v -o design.aag
    smartly write design.v -o optimized.v [--optimizer smartly]
    smartly equiv gold.v gate.v
    smartly fuzz [--iterations N] [--seed-base S] [--json]
                 [--all-lanes] [--artifacts DIR] [--shrink]
    smartly reduce failing.v --oracle cec --flow yosys [-o minimized.v]
    smartly hier design.v [--top NAME] [--optimizer smartly] [--check] [--json]
    smartly serve [--store DIR] [--jobs N] [--port P]
                  [--isolation thread|process] [--timeout S] [--max-retries N]
                  [--queue-limit N] [--per-client N] [--drain S]
                  [--allow-fault-injection]
    smartly sweep [--flow F ...] [-k K ...] [--sim-threshold N ...] [--workload W ...]

``opt``/``script`` run declarative flows through the :mod:`repro.api`
Session layer; ``script`` accepts any Yosys-like flow script.  The ``bench``
subcommands regenerate the paper's tables on the synthetic benchmark suite
in parallel (``--jobs``), with structured progress events rendered to
stderr.  ``fuzz`` runs the differential-testing harness: random modules ×
every flow preset, each result SAT-proven equivalent to its unoptimized
original (exit status 1 when any check fails); ``--artifacts DIR`` dumps
every failing seed's generating module, ``--shrink`` auto-minimizes each
failure through the matching :mod:`repro.testing` oracle, and
``--all-lanes`` adds the engine-divergence and seeded-rerun lanes.
``reduce`` is the standalone delta-debugger: it shrinks a failing design
while the named oracle keeps failing with the same label (exit status 2
when the input does not fail at all).  ``serve`` is the
long-lived optimization-as-a-service daemon: JSON-lines flow jobs in over
stdin (or ``--port``), progress events and reports streamed back out,
with the result cache persisted across restarts via ``--store`` (see
:mod:`repro.flow.serve`).  ``--isolation process`` executes jobs in a
supervised pool of worker subprocesses — a crashed or hung job is killed,
retried (``--max-retries``, wall-clock ``--timeout``) and answered as a
structured retryable error while the daemon and its warm cache survive;
``--queue-limit``/``--per-client`` shed overload with ``busy`` responses
and ``--drain`` bounds how long shutdown waits for stragglers.  ``opt``/``script``/``hier`` accept the same
``--store DIR`` to warm-start one-shot runs from (and contribute back to)
that persistent cache.

``sweep`` is the design-space-exploration runner: it expands a
``flow × k × sim-threshold × workload`` grid into one shared-baseline
parallel suite and renders a comparative Markdown/JSON report (see
:mod:`repro.flow.sweep`).

Design inputs are Verilog (``.v``), Yosys ``write_json`` netlists
(``.json``), or ASCII AIGER (``.aag``) — sniffed from the suffix and
content, or forced with ``--format``.  ``write --output foo.json`` (or
``--output-format json``) exports Yosys JSON instead of Verilog.

Artifacts written to ``--output`` paths go through
:func:`repro.core.store.atomic_write_text`, so an interrupted run never
leaves a truncated file under the target name.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .aig import aig_map, aig_stats, write_aiger
from .api import PrintObserver, Session, suite_cases
from .core.store import atomic_write_text
from .flow import (
    OPTIMIZERS,
    render_industrial,
    render_table2,
    render_table3,
)
from .frontend import compile_verilog
from .workloads import CASE_NAMES, build_case, build_industrial


#: ``--format`` choices for design inputs (``auto`` sniffs suffix/content)
INPUT_FORMATS = ("auto", "verilog", "json", "aiger")


def _detect_format(path: str, text: str) -> str:
    """Sniff a design file's format from its suffix, then its content."""
    if path.endswith(".json"):
        return "json"
    if path.endswith(".aag"):
        return "aiger"
    if path.endswith(".v"):
        return "verilog"
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return "json"
    if text.startswith("aag "):
        return "aiger"
    return "verilog"


def _load_design(path: str, top: Optional[str], fmt: str = "auto"):
    """Load Verilog (.v), Yosys JSON (.json), or ASCII AIGER (.aag)
    into a :class:`~repro.ir.design.Design`."""
    with open(path) as handle:
        text = handle.read()
    if fmt in (None, "auto"):
        fmt = _detect_format(path, text)
    if fmt == "json":
        from .frontend import read_yosys_json

        return read_yosys_json(text, top=top)
    if fmt == "aiger":
        from .aig import aig_to_module, read_aiger
        from .ir import Design

        module = aig_to_module(read_aiger(text), name=top or "from_aig")
        return Design(top=module)
    return compile_verilog(text, top=top)


def _load_module(path: str, top: Optional[str], fmt: str = "auto"):
    """Load a design file and return its top module."""
    return _load_design(path, top, fmt).top


def _run_and_report(module, flow, check: bool, as_json: bool,
                    verbose: bool = False,
                    engine: str = "incremental",
                    store: Optional[str] = None) -> int:
    session = Session(module, engine=engine, store_path=store)
    if verbose:
        session.subscribe(PrintObserver(stream=sys.stderr, verbose=True))
    try:
        report = session.run(flow, check=check)
    finally:
        session.close()  # persists the --store delta even on failure
    if as_json:
        print(report.to_json(indent=2))
        return 0
    print(
        f"{report.case_name}: original AIG area {report.original_area} -> "
        f"{report.optimized_area} "
        f"({100 * report.reduction_vs_original:.2f}% reduction, {report.flow})"
    )
    if not report.converged:
        print(
            f"warning: round limit reached after {report.rounds} round(s) "
            f"without convergence", file=sys.stderr,
        )
    if check:
        print("equivalence check: PASSED")
    for key, value in sorted(report.pass_stats.items()):
        print(f"  {key} = {value}")
    if report.oracle_stats:
        summary = ", ".join(
            f"{key}={value}"
            for key, value in sorted(report.oracle_stats.items())
        )
        print(f"  sat-oracle: {summary}")
    return 0


def cmd_opt(args: argparse.Namespace) -> int:
    """Optimize one Verilog/JSON/AIGER file with a preset and report areas."""
    module = _load_module(args.source, args.top, args.format)
    return _run_and_report(module, args.optimizer, args.check, args.json,
                           args.verbose, args.engine, args.store)


def cmd_script(args: argparse.Namespace) -> int:
    """Parse and run an arbitrary flow script over one file."""
    from .flow import FlowScriptError, FlowSpec

    try:
        spec = FlowSpec.parse(args.flow)
        if not spec.steps:
            raise FlowScriptError("empty flow script (no pass statements)")
        spec.validate()
    except FlowScriptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    module = _load_module(args.source, args.top, args.format)
    return _run_and_report(module, spec, args.check, args.json, args.verbose,
                           args.engine, args.store)


def cmd_stats(args: argparse.Namespace) -> int:
    """Print the module's cell histogram and AIG statistics."""
    module = _load_module(args.source, args.top)
    print(f"module {module.name}")
    for key, value in sorted(module.stats().items()):
        print(f"  {key:16s} {value}")
    print(f"  {'aig':16s} {aig_stats(aig_map(module))}")
    return 0


def cmd_aig(args: argparse.Namespace) -> int:
    """Bit-blast to an AIG and write ASCII AIGER."""
    module = _load_module(args.source, args.top)
    aig = aig_map(module)
    if args.output:
        import io

        buffer = io.StringIO()
        write_aiger(aig, buffer)
        # tempfile + os.replace: a crash mid-write must never leave a
        # truncated artifact under the real name
        atomic_write_text(args.output, buffer.getvalue())
        print(f"wrote {args.output}: {aig_stats(aig)}")
    else:
        write_aiger(aig, sys.stdout)
    return 0


def cmd_write(args: argparse.Namespace) -> int:
    """Optimize (optionally) and write structural Verilog or Yosys JSON."""
    from .flow.pipeline import optimize
    from .ir import verilog_str, yosys_json_str

    module = _load_module(args.source, args.top)
    if args.optimizer != "none":
        optimize(module, args.optimizer)
    out_format = args.output_format
    if out_format == "auto":
        out_format = (
            "json" if args.output and args.output.endswith(".json")
            else "verilog"
        )
    if out_format == "json":
        text = yosys_json_str(module)
    else:
        text = verilog_str(module)
    if args.output:
        atomic_write_text(args.output, text)
        print(f"wrote {args.output} ({args.optimizer}, {out_format})")
    else:
        sys.stdout.write(text)
    return 0


def cmd_equiv(args: argparse.Namespace) -> int:
    """SAT-prove two netlists equivalent; exit 1 with a counterexample otherwise."""
    from .equiv import check_equivalence

    gold = _load_module(args.gold, args.top)
    gate = _load_module(args.gate, args.top)
    result = check_equivalence(gold, gate)
    if result.equivalent:
        print(f"EQUIVALENT (proved by {result.method})")
        return 0
    print(f"NOT EQUIVALENT (found by {result.method})")
    if result.output is not None:
        print(f"  differing output: {result.output}")
    for name, value in sorted(result.counterexample.items()):
        print(f"  {name} = {value}")
    return 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential-test every flow preset on random modules (exit 1 on any failure)."""
    from .equiv.differential import CI_CORPUS, run_differential

    if args.iterations is None:
        seeds = list(CI_CORPUS)
    else:
        seeds = list(range(args.seed_base, args.seed_base + args.iterations))

    def progress(result) -> None:
        status = "ok" if result.ok else "FAIL"
        print(
            f"  seed {result.seed} {result.flow}: "
            f"{result.original_area} -> {result.optimized_area} [{status}]",
            file=sys.stderr,
        )

    report = run_differential(
        seeds, on_result=progress if args.verbose else None, roundtrip=True,
        divergence=args.all_lanes, seeded=args.all_lanes,
        artifacts_dir=args.artifacts, shrink=args.shrink,
        shrink_probes=args.shrink_probes,
    )
    if args.json:
        print(report.to_json(indent=2))
    else:
        summary = report.summary()
        print(
            f"fuzz: {summary['checks']} checks over {summary['cases']} "
            f"modules, {summary['failures']} failure(s)"
        )
        oracle = summary["oracle"]
        print(
            f"  cec-oracle: queries={oracle.get('queries', 0)} "
            f"conflicts={oracle.get('conflicts', 0)}"
        )
        for failure in report.failures:
            print(
                f"  FAIL seed={failure.seed} flow={failure.flow} "
                f"method={failure.method} cex={failure.counterexample}"
            )
        for entry in report.reductions:
            if "cells" in entry:
                print(
                    f"  shrunk seed={entry['seed']} flow={entry['flow']}: "
                    f"{entry['original_cells']} -> {entry['cells']} cells "
                    f"({100 * entry['reduction']:.1f}%, "
                    f"oracle={entry['oracle']}, label={entry['label']})"
                )
            else:
                print(
                    f"  shrink FAILED seed={entry['seed']} "
                    f"flow={entry['flow']}: {entry.get('error', '?')}"
                )
        for path in report.artifacts:
            print(f"  wrote {path}")
    return 0 if report.ok else 1


def cmd_reduce(args: argparse.Namespace) -> int:
    """Delta-debug a failing case down to a minimal repro (exit 2 if the
    input does not fail the oracle at all)."""
    import json as _json

    from .ir import verilog_str, yosys_json_str
    from .testing import (
        NotFailingError,
        get_oracle,
        reduce_design,
        reduce_module,
    )

    oracle = get_oracle(args.oracle, flow=args.flow)
    design = _load_design(args.source, args.top, args.format)
    progress = None
    if args.verbose:
        progress = lambda msg: print(f"  {msg}", file=sys.stderr)  # noqa: E731
    try:
        if oracle.scope == "design":
            result = reduce_design(design, oracle,
                                   max_probes=args.max_probes,
                                   on_progress=progress)
            minimized = result.design
            modules = list(minimized)
        else:
            result = reduce_module(design.top, oracle,
                                   max_probes=args.max_probes,
                                   on_progress=progress)
            minimized = result.module
            modules = [minimized]
    except NotFailingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"reduce: {result.original_cells} -> {result.cells} cells "
        f"({100 * result.reduction:.1f}%), label {result.target!r}, "
        f"{result.probes} probes", file=sys.stderr,
    )
    if args.json:
        print(_json.dumps(result.summary(), indent=2, sort_keys=True))
    if args.output:
        if args.output.endswith(".json"):
            text = yosys_json_str(minimized)
        else:
            text = "\n".join(verilog_str(m) for m in modules)
        atomic_write_text(args.output, text)
        print(f"wrote {args.output}", file=sys.stderr)
    elif not args.json:
        sys.stdout.write("\n".join(verilog_str(m) for m in modules))
    return 0


def cmd_hier(args: argparse.Namespace) -> int:
    """Optimize a hierarchical design bottom-up with instance replay."""
    design = _load_design(args.source, args.top, args.format)
    session = Session(design, store_path=args.store)
    try:
        report = session.run_hierarchy(
            args.optimizer, top=args.top, check=args.check
        )
    finally:
        session.close()  # persists the --store delta even on failure
    if args.json:
        print(report.to_json(indent=2))
        return 0
    print(
        f"{report.top}: weighted AIG area {report.original_total_area} -> "
        f"{report.total_area} "
        f"({100 * report.reduction_vs_original:.2f}% reduction, {report.flow})"
    )
    for name in report.order:
        module = report.reports[name]
        count = report.instance_counts.get(name, 1)
        tag = ""
        if name in report.replayed:
            tag = f"  [replayed from {report.replayed[name]}]"
        elif name in report.replay_fallbacks:
            tag = f"  [fallback: {report.replay_fallbacks[name]}]"
        print(
            f"  {name:<24} x{count:<3} {module.original_area:>6} -> "
            f"{module.optimized_area:>6}{tag}"
        )
    if args.check:
        print("equivalence checks: PASSED")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived JSON-lines optimization daemon."""
    from .flow.serve import (
        DEFAULT_QUEUE_LIMIT,
        FlowServer,
        serve_socket,
        serve_stdin,
    )

    server = FlowServer(
        store_path=args.store,
        engine=args.engine,
        max_workers=args.jobs,
        keep_generations=args.keep_generations,
        isolation=args.isolation,
        default_timeout_s=args.timeout,
        max_retries=args.max_retries,
        queue_limit=(args.queue_limit if args.queue_limit is not None
                     else DEFAULT_QUEUE_LIMIT),
        per_client_limit=args.per_client,
        drain_timeout_s=args.drain,
        allow_fault_injection=args.allow_fault_injection,
    )
    if args.port is not None:
        def announce(port: int) -> None:
            print(f"serving on 127.0.0.1:{port}", file=sys.stderr,
                  flush=True)

        return serve_socket(server, port=args.port, on_listening=announce)
    return serve_stdin(server)


def _format_cache_stats(stats: dict) -> str:
    """One-line per-kind hit-rate summary of suite/run cache totals."""
    kinds = sorted(
        {key[: -len("_hits")] for key in stats if key.endswith("_hits")}
        | {key[: -len("_misses")] for key in stats if key.endswith("_misses")}
    )
    parts = []
    for kind in kinds:
        if kind.startswith("oracle"):
            continue  # oracle counters print via their own summary line
        hits = stats.get(f"{kind}_hits", 0)
        total = hits + stats.get(f"{kind}_misses", 0)
        rate = 100.0 * hits / total if total else 0.0
        parts.append(f"{kind} {hits}/{total} ({rate:.1f}%)")
    for key in ("evictions", "merged", "entries"):
        if stats.get(key):
            parts.append(f"{key}={stats[key]}")
    if stats.get("oracle_cache_hits") is not None:
        parts.append(
            f"oracle-verdicts {stats.get('oracle_cache_hits', 0)}"
            f"/{stats.get('oracle_queries', 0)}"
        )
    return ", ".join(parts) if parts else "no cache traffic"


def cmd_bench(args: argparse.Namespace) -> int:
    """Regenerate a paper table on the synthetic suite, in parallel."""
    session = Session()
    session.subscribe(PrintObserver(stream=sys.stderr))
    jobs = args.jobs
    executor = args.executor

    if args.table == "table2":
        results = session.run_suite(
            suite_cases(CASE_NAMES, build_case), ("yosys", "smartly"),
            max_workers=jobs, executor=executor,
        )
        print(render_table2(results))
    elif args.table == "table3":
        results = session.run_suite(
            suite_cases(CASE_NAMES, build_case),
            ("yosys", "smartly-sat", "smartly-rebuild", "smartly"),
            max_workers=jobs, executor=executor,
        )
        print(render_table3(results))
    elif args.table == "industrial":
        results = session.run_suite(
            build_industrial(), ("yosys", "smartly"), max_workers=jobs,
            executor=executor,
        )
        print(render_industrial(results))
    else:
        raise ValueError(f"unknown bench {args.table!r}")
    print(f"suite caches: {_format_cache_stats(results.cache_stats)}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a flow × k × sim-threshold DSE grid over preset workloads."""
    from .flow.sweep import run_sweep

    try:
        report = run_sweep(
            workloads=args.workloads or None,
            flows=args.flows or ("yosys", "smartly"),
            ks=args.k or (),
            sim_thresholds=args.sim_threshold or (),
            width=args.width,
            max_workers=args.jobs,
            executor=args.executor,
            check=args.check,
            store_path=args.store,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output_json:
        atomic_write_text(args.output_json, report.to_json(indent=2) + "\n")
        print(f"wrote {args.output_json}", file=sys.stderr)
    if args.output_markdown:
        atomic_write_text(args.output_markdown, report.to_markdown())
        print(f"wrote {args.output_markdown}", file=sys.stderr)
    if args.json:
        print(report.to_json(indent=2))
    else:
        sys.stdout.write(report.to_markdown())
        print(f"suite caches: "
              f"{_format_cache_stats(report.suite.cache_stats)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (one sub-parser per subcommand)."""
    parser = argparse.ArgumentParser(
        prog="smartly",
        description="smaRTLy RTL multiplexer optimization (DAC 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("opt", help="optimize a Verilog file and report AIG area")
    p_opt.add_argument("source")
    p_opt.add_argument("--top", default=None)
    p_opt.add_argument("--optimizer", choices=OPTIMIZERS, default="smartly")
    p_opt.add_argument("--check", action="store_true",
                       help="prove equivalence of the optimized netlist")
    p_opt.add_argument("--json", action="store_true",
                       help="print the RunReport as JSON")
    p_opt.add_argument("-v", "--verbose", action="store_true",
                       help="stream per-pass progress events to stderr")
    p_opt.add_argument("--engine", choices=("incremental", "eager"),
                       default="incremental",
                       help="pass engine: incremental dirty-set worklists "
                            "(default) or eager whole-module sweeps")
    p_opt.add_argument("--store", default=None, metavar="DIR",
                       help="persistent result-cache directory: warm-start "
                            "from it and write this run's delta back")
    p_opt.add_argument("--format", choices=INPUT_FORMATS, default="auto",
                       help="input format (default: sniff suffix/content)")
    p_opt.set_defaults(func=cmd_opt)

    p_script = sub.add_parser(
        "script",
        help='run a flow script, e.g. "opt_expr; smartly k=6; opt_clean"',
    )
    p_script.add_argument("flow", help="semicolon-separated pass statements")
    p_script.add_argument("source")
    p_script.add_argument("--top", default=None)
    p_script.add_argument("--check", action="store_true",
                          help="prove equivalence of the optimized netlist")
    p_script.add_argument("--json", action="store_true",
                          help="print the RunReport as JSON")
    p_script.add_argument("-v", "--verbose", action="store_true",
                          help="stream per-pass progress events to stderr")
    p_script.add_argument("--engine", choices=("incremental", "eager"),
                          default="incremental",
                          help="pass engine: incremental dirty-set worklists "
                               "(default) or eager whole-module sweeps")
    p_script.add_argument("--store", default=None, metavar="DIR",
                          help="persistent result-cache directory: "
                               "warm-start from it and write this run's "
                               "delta back")
    p_script.add_argument("--format", choices=INPUT_FORMATS, default="auto",
                          help="input format (default: sniff suffix/content)")
    p_script.set_defaults(func=cmd_script)

    p_stats = sub.add_parser("stats", help="print cell and AIG statistics")
    p_stats.add_argument("source")
    p_stats.add_argument("--top", default=None)
    p_stats.set_defaults(func=cmd_stats)

    p_aig = sub.add_parser("aig", help="map to AIG and write AIGER")
    p_aig.add_argument("source")
    p_aig.add_argument("--top", default=None)
    p_aig.add_argument("-o", "--output", default=None)
    p_aig.set_defaults(func=cmd_aig)

    p_write = sub.add_parser(
        "write", help="optimize and write structural Verilog"
    )
    p_write.add_argument("source")
    p_write.add_argument("--top", default=None)
    p_write.add_argument("--optimizer", choices=OPTIMIZERS, default="smartly")
    p_write.add_argument("-o", "--output", default=None)
    p_write.add_argument("--output-format", choices=("auto", "verilog", "json"),
                         default="auto",
                         help="netlist format: Verilog or Yosys JSON "
                              "(default: json when --output ends in .json)")
    p_write.set_defaults(func=cmd_write)

    p_equiv = sub.add_parser(
        "equiv", help="SAT-prove two Verilog files equivalent"
    )
    p_equiv.add_argument("gold")
    p_equiv.add_argument("gate")
    p_equiv.add_argument("--top", default=None)
    p_equiv.set_defaults(func=cmd_equiv)

    p_bench = sub.add_parser("bench", help="regenerate a paper table")
    p_bench.add_argument("table", choices=("table2", "table3", "industrial"))
    p_bench.add_argument("-j", "--jobs", type=int, default=None,
                         help="parallel suite workers (default: auto)")
    p_bench.add_argument("--executor", choices=("thread", "process"),
                         default="thread",
                         help="worker pool: GIL-bound threads (default) or "
                              "a process pool for real CPU parallelism")
    p_bench.set_defaults(func=cmd_bench)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential-test all flow presets on random modules",
    )
    p_fuzz.add_argument(
        "-n", "--iterations", type=int, default=None,
        help="number of random seeds (default: the fixed CI corpus)")
    p_fuzz.add_argument(
        "--seed-base", type=int, default=2000,
        help="first seed when --iterations is given (default: 2000)")
    p_fuzz.add_argument("--json", action="store_true",
                        help="print the fuzz report as JSON")
    p_fuzz.add_argument("-v", "--verbose", action="store_true",
                        help="stream per-check progress to stderr")
    p_fuzz.add_argument("--all-lanes", action="store_true",
                        help="also run the engine-divergence and "
                             "seeded-rerun lanes per seed x flow")
    p_fuzz.add_argument("--artifacts", default=None, metavar="DIR",
                        help="dump every failing seed's generating module "
                             "(.v + .json) into DIR before any reduction")
    p_fuzz.add_argument("--shrink", action="store_true",
                        help="auto-minimize each failure through its "
                             "matching repro.testing oracle")
    p_fuzz.add_argument("--shrink-probes", type=int, default=400,
                        metavar="N",
                        help="oracle-probe budget per shrink (default: 400)")
    p_fuzz.set_defaults(func=cmd_fuzz)

    from .testing import ORACLE_NAMES

    p_reduce = sub.add_parser(
        "reduce",
        help="delta-debug a failing design to a minimal repro while an "
             "oracle keeps failing with the same label",
    )
    p_reduce.add_argument("source")
    p_reduce.add_argument("--oracle", choices=ORACLE_NAMES, default="cec",
                          help="interestingness predicate (default: cec)")
    p_reduce.add_argument("--flow", default="smartly",
                          help="flow preset or script the oracle runs "
                               "(default: smartly)")
    p_reduce.add_argument("--top", default=None)
    p_reduce.add_argument("--max-probes", type=int, default=2000,
                          metavar="N",
                          help="oracle-probe budget (default: 2000)")
    p_reduce.add_argument("-o", "--output", default=None, metavar="PATH",
                          help="write the minimized netlist to PATH "
                               "(Yosys JSON when it ends in .json, "
                               "Verilog otherwise; default: stdout)")
    p_reduce.add_argument("--json", action="store_true",
                          help="print the reduction summary as JSON")
    p_reduce.add_argument("-v", "--verbose", action="store_true",
                          help="stream per-shrink progress to stderr")
    p_reduce.add_argument("--format", choices=INPUT_FORMATS, default="auto",
                          help="input format (default: sniff suffix/content)")
    p_reduce.set_defaults(func=cmd_reduce)

    p_hier = sub.add_parser(
        "hier",
        help="optimize a hierarchical design bottom-up with instance replay",
    )
    p_hier.add_argument("source")
    p_hier.add_argument("--top", default=None)
    p_hier.add_argument("--optimizer", choices=OPTIMIZERS, default="smartly")
    p_hier.add_argument("--check", action="store_true",
                        help="SAT-prove every module (replays included)")
    p_hier.add_argument("--json", action="store_true",
                        help="print the HierarchyReport as JSON")
    p_hier.add_argument("--store", default=None, metavar="DIR",
                        help="persistent result-cache directory: warm-start "
                             "from it and write this run's delta back")
    p_hier.add_argument("--format", choices=INPUT_FORMATS, default="auto",
                        help="input format (default: sniff suffix/content)")
    p_hier.set_defaults(func=cmd_hier)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived optimization daemon: JSON-lines flow jobs over "
             "stdin (or --port), streamed progress events and reports",
    )
    p_serve.add_argument("--store", default=None, metavar="DIR",
                         help="persistent result-cache directory shared "
                              "across daemon restarts (and with opt/script/"
                              "hier --store)")
    p_serve.add_argument("-j", "--jobs", type=int, default=None,
                         help="concurrent in-flight jobs (default: auto)")
    p_serve.add_argument("--port", type=int, default=None,
                         help="serve a localhost TCP socket on this port "
                              "instead of stdin (0 = ephemeral, announced "
                              "on stderr)")
    p_serve.add_argument("--engine", choices=("incremental", "eager"),
                         default="incremental",
                         help="pass engine for served jobs")
    p_serve.add_argument("--keep-generations", type=int, default=32,
                         help="store generations kept by gc at each "
                              "checkpoint (default: 32)")
    p_serve.add_argument("--isolation", choices=("thread", "process"),
                         default="thread",
                         help="job execution: in-process threads, or a "
                              "supervised pool of worker subprocesses that "
                              "survive crashes/hangs (default: thread)")
    p_serve.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="default per-job wall-clock budget; on expiry "
                              "the worker is killed and the job retried "
                              "under a doubled budget (process isolation "
                              "only; requests override with 'timeout_s')")
    p_serve.add_argument("--max-retries", type=int, default=2,
                         help="retries for retryable failures — worker "
                              "death, timeout — with exponential backoff "
                              "(default: 2)")
    p_serve.add_argument("--queue-limit", type=int, default=None,
                         metavar="N",
                         help="jobs in flight or queued before new ones are "
                              "shed with a 'busy' response (default: 256)")
    p_serve.add_argument("--per-client", type=int, default=None,
                         metavar="N",
                         help="in-flight jobs allowed per request 'client' "
                              "key before that client gets 'busy' "
                              "(default: unlimited)")
    p_serve.add_argument("--drain", type=float, default=None,
                         metavar="SECONDS",
                         help="shutdown drain deadline: in-flight jobs get "
                              "this long to finish before they are "
                              "cancelled and reported (default: wait)")
    p_serve.add_argument("--allow-fault-injection", action="store_true",
                         help="honor the test-only 'inject' request field "
                              "(chaos drills; see repro.core.faults)")
    p_serve.set_defaults(func=cmd_serve)

    p_sweep = sub.add_parser(
        "sweep",
        help="design-space sweep: a flow x k x sim-threshold grid over "
             "preset workloads, one shared-baseline parallel suite",
    )
    p_sweep.add_argument("--flow", dest="flows", action="append",
                         default=None, metavar="NAME",
                         help="flow preset or script to sweep (repeatable; "
                              "default: yosys + smartly)")
    p_sweep.add_argument("--workload", dest="workloads", action="append",
                         default=None, choices=CASE_NAMES, metavar="NAME",
                         help="preset workload model (repeatable; default: "
                              "the five primary IWLS cases)")
    p_sweep.add_argument("-k", action="append", type=int, default=None,
                         metavar="K",
                         help="smartly cut-size value (repeatable; expands "
                              "the smartly-family grid)")
    p_sweep.add_argument("--sim-threshold", action="append", type=int,
                         default=None, metavar="N",
                         help="smartly simulation threshold (repeatable)")
    p_sweep.add_argument("--width", type=int, default=8,
                         help="workload model bit-width (default: 8)")
    p_sweep.add_argument("-j", "--jobs", type=int, default=None,
                         help="parallel suite workers (default: auto)")
    p_sweep.add_argument("--executor", choices=("thread", "process"),
                         default="thread",
                         help="worker pool: GIL-bound threads (default) or "
                              "a process pool for real CPU parallelism")
    p_sweep.add_argument("--check", action="store_true",
                         help="SAT-prove every grid point's result")
    p_sweep.add_argument("--json", action="store_true",
                         help="print the SweepReport as JSON instead of "
                              "the Markdown table")
    p_sweep.add_argument("--output-json", default=None, metavar="PATH",
                         help="also write the JSON report to PATH")
    p_sweep.add_argument("--output-markdown", default=None, metavar="PATH",
                         help="also write the Markdown report to PATH")
    p_sweep.add_argument("--store", default=None, metavar="DIR",
                         help="persistent result-cache directory: warm-start "
                              "from it and write this sweep's delta back")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    """CLI entry point: parse arguments, dispatch, return the exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
