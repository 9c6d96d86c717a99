"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public callables of the ``repro`` layers with
timing wrappers *where their callers look them up* (a name bound by
``from ... import`` is patched in the importing module, a method on its
class), records one span per call — name, start, end, parent span, job
id — in memory, and restores every original on :meth:`Tracer.uninstall`.
Nothing under ``src/`` knows it is being traced.

A layer's *self time* is its spans' durations minus the time their child
spans cover.  :func:`layer_metrics` turns one traced pass into the
``<module>.<metric>`` numbers ``BENCHMARK.json`` lists under
``per_layer``; the self times of the reported layers plus
``trace.other_s`` add up to ``trace.wall_s`` by construction.
:func:`chrome_trace` writes the spans as Chrome trace-event JSON
(viewable in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

#: pass name (``Pass.name``) -> layer span name
PASS_LAYERS = {
    "opt_expr": "opt.opt_expr",
    "opt_merge": "opt.opt_merge",
    "opt_muxtree": "opt.opt_muxtree",
    "opt_clean": "opt.opt_clean",
    "smartly": "core.smartly",
    "smartly_sat": "core.smartly_sat",
    "smartly_rebuild": "core.smartly_rebuild",
}

#: span name -> per-layer self-time metric; these are the layers the
#: ``other`` remainder is computed against
SELF_TIME_LAYERS = {
    "frontend.read": "frontend.read_s",
    "ir.net_index": "ir.net_index_s",
    "ir.struct_signature": "ir.struct_signature_s",
    "opt.opt_expr": "opt.opt_expr_s",
    "opt.opt_merge": "opt.opt_merge_s",
    "opt.opt_muxtree": "opt.opt_muxtree_s",
    "opt.opt_clean": "opt.opt_clean_s",
    "core.extract_subgraph": "core.extract_subgraph_s",
    "core.infer": "core.infer_s",
    "core.smartly_rebuild": "core.smartly_rebuild_s",
    "core.smartly_sat": "core.smartly_sat_s",
    "core.cache_key": "core.cache_key_s",
    "sat.solve": "sat.solve_s",
    "aig.aig_map": "aig.aig_map_s",
    "equiv.check": "equiv.check_s",
    "flow.session_run": "flow.session_run_s",
}

#: ladder counters read off each ``smartly_sat`` pass result
LADDER_COUNTS = ("sim_queries", "sat_queries", "dead_paths")


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, job id] per span
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: job id stamped on every span opened while it is set
        self.job: Any = None
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def take(self):
        """Return ``(spans, counts)`` recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    # -- wrapping --------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Any,
        pre: Optional[Callable] = None,
        post: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is the span name, a callable ``(args) -> name | None``
        (``None`` skips the span for that call), or ``None`` for a
        count-only wrapper.  ``post(counts, args, result, before)`` runs
        after each call; ``before`` is ``pre(args)`` taken before it.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            before = pre(args) if pre is not None else None
            if label is None:
                result = original(*args, **kwargs)
            else:
                index = tracer._open(label)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(index)
            if post is not None:
                post(tracer.counts, args, result, before)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

        def restore() -> None:
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._undo.append(restore)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are read at."""
        from repro import frontend
        from repro import workloads
        from repro.core import cache, redundancy
        from repro.flow import session, workers
        from repro.ir import module, struct_hash
        from repro.opt import pass_base
        from repro.sat import solver

        self.wrap(workloads, "build_case", "workloads.build")
        self.wrap(workloads, "build_point", "workloads.build")
        self.wrap(frontend, "read_yosys_json", "frontend.read",
                  post=_count_cells_read)
        self.wrap(module.Module, "net_index", _first_net_index)
        self.wrap(struct_hash.StructKeyMemo, "signature",
                  "ir.struct_signature")
        self.wrap(session, "module_signature", "ir.struct_signature")
        self.wrap(pass_base.Pass, "run", _pass_layer, post=_count_pass)
        self.wrap(redundancy, "extract_subgraph", "core.extract_subgraph",
                  post=_count_subgraph)
        self.wrap(redundancy, "infer", "core.infer", post=_count_infer)
        self.wrap(cache.ResultCache, "key_for", "core.cache_key")
        self.wrap(cache.ResultCache, "lookup", None, post=_count_lookup)
        self.wrap(solver.Solver, "solve", "sat.solve",
                  pre=lambda args: args[0].stats.conflicts,
                  post=_count_conflicts)
        self.wrap(session, "aig_map", "aig.aig_map")
        self.wrap(session, "check_equivalence", "equiv.check")
        self.wrap(session.Session, "run", "flow.session_run",
                  post=_count_session_run)
        self.wrap(workers, "run_job", "flow.serve.job_body",
                  post=_count_replay)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


# -- wrapper hooks ---------------------------------------------------------------


def _first_net_index(args) -> Optional[str]:
    # only the first build per module is work; later calls are a lookup
    return "ir.net_index" if args[0]._net_index is None else None


def _pass_layer(args) -> str:
    name = args[0].name
    return PASS_LAYERS.get(name, f"opt.{name}")


def _count_cells_read(counts, args, design, before) -> None:
    counts["frontend.cells"] += sum(len(mod.cells) for mod in design)


def _count_pass(counts, args, result, before) -> None:
    name = args[0].name
    stats = result.stats
    if name == "smartly_sat":
        for key in LADDER_COUNTS:
            counts[f"core.{key}"] += stats.get(key, 0)
    elif name == "smartly_rebuild":
        counts["core.trees_rebuilt"] += stats.get("trees_rebuilt", 0)
        counts["core.trees_considered"] += stats.get("trees_considered", 0)


def _count_subgraph(counts, args, subgraph, before) -> None:
    counts["core.subgraph_gates_before"] += subgraph.gates_before
    counts["core.subgraph_gates_after"] += subgraph.gates_after


def _count_infer(counts, args, inference, before) -> None:
    subgraph = args[0]
    if inference.contradiction or (
        inference.value_of(subgraph.target) is not None
    ):
        counts["core.infer_decided"] += 1


def _count_lookup(counts, args, outcome, before) -> None:
    if args[1][0] == "resolve":
        counts["core.resolve_hits" if outcome[0] else
               "core.resolve_misses"] += 1


def _count_conflicts(counts, args, result, before) -> None:
    counts["sat.conflicts"] += args[0].stats.conflicts - before


def _count_session_run(counts, args, report, before) -> None:
    counts["opt.rounds"] += report.rounds
    counts["opt.cells_out"] += len(args[0].design[report.case_name].cells)


def _count_replay(counts, args, outcome, before) -> None:
    payload, _delta = outcome
    counts["flow.serve.jobs"] += 1
    counts["flow.serve.replayed"] += bool(payload.get("replayed"))


# -- per-layer metrics -----------------------------------------------------------


def self_times(spans: List[list]) -> Dict[str, float]:
    """Total self time per span name."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _job in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent, _job) in enumerate(spans):
        totals[name] += (end - start) - covered[index]
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[list], counts: Counter,
                  wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass that took ``wall_s``."""
    own = self_times(spans)
    calls = Counter(span[0] for span in spans)
    total = defaultdict(float)
    for name, start, end, _parent, _job in spans:
        total[name] += end - start
    metrics: Dict[str, float] = {
        metric: own.get(name, 0.0) for name, metric in SELF_TIME_LAYERS.items()
    }
    metrics.update({
        "frontend.cells_per_s": _ratio(counts["frontend.cells"],
                                       total["frontend.read"]),
        "ir.struct_signature_calls": calls["ir.struct_signature"],
        "opt.rounds": counts["opt.rounds"],
        "opt.cells_out": counts["opt.cells_out"],
        "core.extract_subgraph_calls": calls["core.extract_subgraph"],
        "core.subgraph_gates_ratio": _ratio(
            counts["core.subgraph_gates_after"],
            counts["core.subgraph_gates_before"]),
        "core.infer_calls": calls["core.infer"],
        "core.infer_decided_ratio": _ratio(counts["core.infer_decided"],
                                           calls["core.infer"]),
        "core.trees_rebuilt_ratio": _ratio(counts["core.trees_rebuilt"],
                                           counts["core.trees_considered"]),
        "core.sim_queries": counts["core.sim_queries"],
        "core.sat_queries": counts["core.sat_queries"],
        "core.dead_paths": counts["core.dead_paths"],
        "core.resolve_hit_ratio": _ratio(
            counts["core.resolve_hits"],
            counts["core.resolve_hits"] + counts["core.resolve_misses"]),
        "sat.solve_calls": calls["sat.solve"],
        "sat.conflicts": counts["sat.conflicts"],
        "aig.aig_map_calls": calls["aig.aig_map"],
        # serve-only layers: 0 on the cold workloads; run.py fills the
        # ones measured from the daemon pass and the untraced replay
        "flow.serve.job_body_s": 0.0,
        "flow.serve.overhead_s": 0.0,
        "flow.serve.replay_ratio": _ratio(counts["flow.serve.replayed"],
                                          counts["flow.serve.jobs"]),
        "flow.serve.snapshot_entries": 0.0,
        "flow.serve.flush_s": 0.0,
        "trace.wall_s": wall_s,
        "trace.other_s": wall_s - sum(
            own.get(name, 0.0) for name in SELF_TIME_LAYERS),
    })
    return metrics


def chrome_trace(spans: List[list], origin: float,
                 extra: Optional[List[dict]] = None) -> Dict[str, Any]:
    """Spans as a Chrome trace-event document (complete ``X`` events,
    microseconds from ``origin``)."""
    events = [
        {
            "name": name, "cat": name.split(".", 1)[0], "ph": "X",
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "pid": 1, "tid": 1,
            "args": {"job": str(job), "parent": parent},
        }
        for name, start, end, parent, job in spans
    ]
    events.extend(extra or ())
    return {"traceEvents": events, "displayTimeUnit": "ms"}
