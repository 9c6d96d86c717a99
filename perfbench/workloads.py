"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed (the program only
ever sees the generated inputs), runs one *pass* over its jobs with the
clock on, and checks every output with the clock off.

* ``table2-cold`` — the ten Table II models, each through ``yosys`` and
  ``smartly`` in a fresh ``Session`` on a fresh clone, no check.  The
  paper's headline table and a CLI user's cold run; sub-graph extraction
  and SigMap lookups dominate, the SAT solver is idle.  An interning or
  sub-graph change shows here; a solver change must not move it.
* ``industrial-checked`` — two §IV-B industrial points through
  ``smartly`` with ``check=True`` (what ``cli opt --check`` and serve
  ``"check": true`` users run); their ``yosys`` baselines are untimed.  The only workload where ``equiv`` and
  ``sat.Solver.solve`` carry the largest share, and whose selection-heavy
  inputs drive ``core.infer`` hardest.  A solver or CEC change shows here.
* ``serve-mixed`` — a closed loop with two requests outstanding on one
  TCP connection to ``python -m repro.cli serve --isolation process
  --jobs 2`` with a fresh ``--store``, ending with ``flush``.  Yosys-JSON
  sources with exact resubmits, so it is the only workload that
  exercises the JSON reader, admission, the worker pipe, the per-job
  cache snapshot export and cache reads beside writes.

The seed draws the generator seed of every model (and, on serve-mixed,
the order of the requests); the set of models and their unit counts are
fixed, so a pass costs about the same on every seed.
"""

from __future__ import annotations

import random
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import repro.workloads as generators
from repro.api import Session
from repro.flow import workers
from repro.frontend import read_yosys_json
from repro.ir.json_writer import yosys_json_str
from repro.ir.signals import SigBit, SigSpec, State
from repro.sim.simulator import Simulator

from .serveclient import Daemon
from .speed import at_reference, kernel_s

#: the §IV-B points industrial-checked runs (the two smallest), at the
#: smallest width where the CEC solver outweighs sub-graph extraction;
#: one checked pass takes about six seconds on two cores
INDUSTRIAL_POINTS = ("ind_selector_0", "ind_arbiter")
INDUSTRIAL_WIDTH = 5

#: random vectors per simulation check (one bit-parallel run)
SIM_VECTORS = 256


@dataclass
class PassResult:
    """What one timed pass measured, plus its checked outcome.

    ``wall_s``, ``latencies`` and ``setup_s`` are at reference speed
    (:mod:`perfbench.speed`); the ``raw_`` fields are as the clock read.
    """

    wall_s: float
    latencies: List[float]
    failures: List[str]
    #: distinct input -> (yosys area, smartly area); either may be None
    areas: Dict[str, Tuple[Optional[int], Optional[int]]]
    raw_wall_s: float
    raw_latencies: List[float]
    setup_s: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def quality(areas: Dict[str, Tuple[Optional[int], Optional[int]]]):
    """``(aig_area, extra_reduction_pct)`` over the distinct inputs whose
    areas are both known."""
    known = [(y, s) for y, s in areas.values() if y is not None and s is not None]
    if not known:
        return 0, 0.0
    aig_area = sum(s for _y, s in known)
    extra = 100.0 * statistics.fmean((y - s) / y for y, s in known if y)
    return aig_area, extra


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash through sha512, so draws do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


# -- the independent simulation check ---------------------------------------------


def _port_masks(module, rng: random.Random) -> Dict[str, List[int]]:
    return {
        wire.name: [rng.getrandbits(SIM_VECTORS) for _ in range(wire.width)]
        for wire in sorted(module.inputs, key=lambda w: w.name)
    }


def simulate_outputs(module, port_masks: Dict[str, List[int]]):
    """Output-port name -> per-bit value masks under the given inputs."""
    sim = Simulator(module)
    sources = {}
    for name, masks in port_masks.items():
        wire = module.wires.get(name)
        if wire is None:
            continue  # an input the optimizer proved unused
        for offset, mask in enumerate(masks):
            sources[SigBit(wire, offset)] = mask
    values = sim.run_masks(sources, SIM_VECTORS)
    sigmap = sim.index.sigmap
    full = (1 << SIM_VECTORS) - 1
    outputs = {}
    for wire in module.outputs:
        bits = []
        for bit in SigSpec.from_wire(wire):
            cbit = sigmap.map_bit(bit)
            if cbit.is_const:
                bits.append(full if cbit.state is State.S1 else 0)
            else:
                bits.append(values.get(cbit, 0))
        outputs[wire.name] = bits
    return outputs


# -- cold workloads ----------------------------------------------------------------


class ColdWorkload:
    """(model, flow) jobs run back to back in this process."""

    name = ""
    #: the timed (flow, check) jobs per model; a model whose ``yosys``
    #: run is not timed gets its baseline area outside the timed region
    FLOWS: Tuple[Tuple[str, bool], ...] = ()

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self._reference: Dict[str, Tuple[Dict, Dict]] = {}
        self._baselines: Dict[str, int] = {}

    def build(self) -> List[Tuple[str, Any]]:
        """``(label, module)`` per model, generated from the seed."""
        raise NotImplementedError

    def baseline(self, label: str, original) -> int:
        """The untimed ``yosys`` area of one model, once per run."""
        if label not in self._baselines:
            with Session(original.clone()) as session:
                self._baselines[label] = session.run("yosys").optimized_area
        return self._baselines[label]

    def run_pass(self, inputs, tracer=None) -> PassResult:
        jobs = [
            (label, original, flow, check, original.clone())
            for label, original in inputs
            for flow, check in self.FLOWS
        ]
        latencies: List[float] = []
        results: List[Tuple[Optional[int], Optional[str]]] = []
        kernels = [kernel_s()]  # one between each two jobs
        for label, _original, flow, check, work in jobs:
            if tracer is not None:
                tracer.job = f"{label}/{flow}"
            start = time.perf_counter()
            try:
                with tracer.span("job") if tracer else nullcontext():
                    with Session(work) as session:
                        report = session.run(flow, check=check)
                results.append((report.optimized_area, None))
            except Exception as exc:  # every failure is counted, never lost
                results.append((None, f"{type(exc).__name__}: {exc}"))
            latencies.append(time.perf_counter() - start)
            kernels.append(kernel_s())
        if tracer is not None:
            tracer.job = None
        scaled = [at_reference(latency, kernels[i:i + 2])
                  for i, latency in enumerate(latencies)]

        failures: List[str] = []
        areas: Dict[str, List[Optional[int]]] = {}
        for (label, original, flow, _check, work), (area, error) in zip(
            jobs, results
        ):
            slot = areas.setdefault(label, [None, None])
            if error is not None:
                failures.append(f"{label}/{flow}: {error}")
                continue
            if not self._simulates_equal(label, original, work):
                failures.append(f"{label}/{flow}: simulation mismatch")
                continue
            slot[0 if flow == "yosys" else 1] = area
        if all(flow != "yosys" for flow, _check in self.FLOWS):
            for label, original in inputs:
                areas[label][0] = self.baseline(label, original)
        return PassResult(sum(scaled), scaled, failures,
                          {k: tuple(v) for k, v in areas.items()},
                          raw_wall_s=sum(latencies), raw_latencies=latencies,
                          extra={"kernels": kernels})

    def _simulates_equal(self, label: str, original, optimized) -> bool:
        if label not in self._reference:
            masks = _port_masks(original, _rng(f"{self.name}/sim/{label}",
                                               self.seed))
            self._reference[label] = (masks, simulate_outputs(original, masks))
        masks, expected = self._reference[label]
        return simulate_outputs(optimized, masks) == expected


class Table2Cold(ColdWorkload):
    name = "table2-cold"
    FLOWS = (("yosys", False), ("smartly", False))

    def build(self):
        names = ("ac97_ctrl", "riscv") if self.smoke else generators.CASE_NAMES
        rng = _rng(self.name, self.seed)
        seeds = {name: rng.randrange(1 << 30) for name in generators.CASE_NAMES}
        return [(name, generators.build_case(name, seed=seeds[name]))
                for name in names]


class IndustrialChecked(ColdWorkload):
    """Only the checked ``smartly`` runs are timed: timed ``yosys`` runs
    would split the job latencies into a fast and a slow group with the
    median between them."""

    name = "industrial-checked"
    FLOWS = (("smartly", True),)

    def build(self):
        points = {p.name: p for p in generators.INDUSTRIAL_POINTS}
        rng = _rng(self.name, self.seed)
        width = 2 if self.smoke else INDUSTRIAL_WIDTH
        models = [
            (name, generators.build_point(
                replace(points[name], seed=rng.randrange(1 << 30)), width))
            for name in INDUSTRIAL_POINTS
        ]
        return models[:1] if self.smoke else models


# -- serve-mixed -------------------------------------------------------------------


@dataclass
class ServeInputs:
    #: source key -> Yosys-JSON text
    sources: Dict[str, str]
    #: source keys in send order
    stream: List[str]

    def requests(self) -> List[Dict[str, Any]]:
        return [
            {"op": "run", "source": self.sources[key], "flow": "smartly",
             "format": "json", "events": False}
            for key in self.stream
        ]


def _spaced_order(copies: Dict[str, int], rng: random.Random,
                  gap: int) -> List[str]:
    """A seeded order of ``copies[key]`` requests per key in which two
    copies of one key are ``gap`` or more apart wherever possible."""
    remaining = dict(copies)
    last: Dict[str, int] = {}
    order: List[str] = []
    while remaining:
        keys = sorted(remaining)
        spaced = [k for k in keys if len(order) - last.get(k, -gap) >= gap]
        pool = spaced or keys
        key = rng.choices(pool, weights=[remaining[k] for k in pool])[0]
        order.append(key)
        last[key] = len(order) - 1
        remaining[key] -= 1
        if not remaining[key]:
            del remaining[key]
    return order


class ServeMixed:
    """Closed-loop serve traffic over Table II sources.

    Every case but ``top_cache_axi`` (alone a third of the work, so its
    place in the order would decide the pass time) is generated under
    two of three seeded generator seeds; each source is sent three times
    and a seeded few four times, ``REQUESTS`` in all, so 70% are exact
    resubmits and the median latency lies inside the replays rather than
    on the edge between replays and misses.  Copies of one source are at
    least ``GAP`` requests apart, so a resubmit rarely arrives while its
    first copy is still running.
    """

    name = "serve-mixed"
    EXCLUDED = ("top_cache_axi",)
    GENERATOR_SEEDS = 3
    PICK = 2
    COPIES = 3
    REQUESTS = 60
    GAP = 8
    OUTSTANDING = 2

    def __init__(self, seed: int, smoke: bool = False,
                 workdir: Optional[Path] = None, root: Optional[Path] = None):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.root = root
        self._yosys_areas: Dict[str, int] = {}
        self._passes = 0

    def build(self) -> ServeInputs:
        rng = _rng(self.name, self.seed)
        names = ("ac97_ctrl", "riscv") if self.smoke else [
            name for name in generators.CASE_NAMES
            if name not in self.EXCLUDED]
        sources: Dict[str, str] = {}
        for name in generators.CASE_NAMES:
            gen_seeds = [rng.randrange(1 << 30)
                         for _ in range(self.GENERATOR_SEEDS)]
            picked = rng.sample(gen_seeds, self.PICK)
            if name not in names:
                continue
            for gen_seed in picked:
                module = generators.build_case(name, seed=gen_seed)
                sources[f"{name}@{gen_seed}"] = yosys_json_str(module,
                                                                indent=None)
        copies = {key: self.COPIES for key in sources}
        if not self.smoke:
            for key in rng.sample(sorted(sources),
                                  self.REQUESTS - self.COPIES * len(sources)):
                copies[key] += 1
        return ServeInputs(sources, _spaced_order(copies, rng, self.GAP))

    # -- the timed pass: a fresh daemon and store ---------------------------------

    def run_pass(self, inputs: ServeInputs, tracer=None,
                 requests: Optional[List[Dict[str, Any]]] = None) -> PassResult:
        """One closed-loop pass; ``requests`` overrides the stream (the
        keys of ``inputs.stream`` still name each request's source)."""
        requests = requests if requests is not None else inputs.requests()
        self._passes += 1
        store = self.workdir / f"store-{self._passes}"
        shutil.rmtree(store, ignore_errors=True)
        try:
            before = kernel_s()
            with Daemon(self.root, store, jobs=2) as daemon:
                started = kernel_s()  # the daemon is idle until the loop
                answers, flush_s = daemon.closed_loop(requests,
                                                      self.OUTSTANDING)
                after = kernel_s()
                setup_s = daemon.setup_s
        finally:
            shutil.rmtree(store, ignore_errors=True)
        first_sent = min(sent for sent, _done, _answer in answers)
        last_done = max(done for _sent, done, _answer in answers)
        latencies = [done - sent for sent, done, _answer in answers]
        raw_wall = last_done - first_sent + flush_s
        speed = (before, started, after)
        failures: List[str] = []
        smartly: Dict[str, int] = {}
        for index, (key, (_sent, _done, answer)) in enumerate(
            zip(inputs.stream, answers)
        ):
            if answer.get("type") != "result":
                failures.append(f"request {index} ({key}): "
                                f"{answer.get('type')}: {answer.get('error')}")
                continue
            area = answer["report"]["optimized_area"]
            if smartly.setdefault(key, area) != area:
                failures.append(f"request {index} ({key}): optimized_area "
                                f"{area} != {smartly[key]}")
        areas = {key: (self.yosys_area(inputs, key), area)
                 for key, area in smartly.items()}
        return PassResult(
            wall_s=at_reference(raw_wall, speed),
            latencies=[at_reference(lat, speed) for lat in latencies],
            failures=failures, areas=areas,
            raw_wall_s=raw_wall, raw_latencies=latencies,
            setup_s=at_reference(setup_s, (before, started)),
            extra={"flush_s": flush_s,
                   "kernels": speed,
                   "request_spans": [(sent, done)
                                     for sent, done, _answer in answers]},
        )

    def yosys_area(self, inputs: ServeInputs, key: str) -> int:
        """The ``yosys`` preset's area of one source, computed in this
        process (outside every timed region) once per run."""
        if key not in self._yosys_areas:
            design = read_yosys_json(inputs.sources[key])
            with Session(design) as session:
                self._yosys_areas[key] = session.run("yosys").optimized_area
        return self._yosys_areas[key]

    # -- the traced job body: the stream replayed in order ------------------------

    def replay(self, inputs: ServeInputs, tracer=None) -> PassResult:
        """Run the stream through ``repro.flow.workers.run_job`` in order,
        each job's snapshot the union of the earlier jobs' deltas."""
        snapshot: Dict[Tuple, Any] = {}
        bodies: List[float] = []
        shipped: List[int] = []
        failures: List[str] = []
        begin = time.perf_counter()
        for index, request in enumerate(inputs.requests()):
            if tracer is not None:
                tracer.job = index
            shipped.append(len(snapshot))
            start = time.perf_counter()
            try:
                _payload, delta = workers.run_job(
                    dict(request, id=index), snapshot=dict(snapshot))
            except Exception as exc:
                failures.append(f"replay {index}: {type(exc).__name__}: {exc}")
                delta = {}
            bodies.append(time.perf_counter() - start)
            snapshot.update(delta)
        wall = time.perf_counter() - begin
        if tracer is not None:
            tracer.job = None
        return PassResult(
            wall_s=wall, latencies=bodies, failures=failures, areas={},
            raw_wall_s=wall, raw_latencies=bodies,
            extra={"bodies": bodies,
                   "snapshot_entries": statistics.fmean(shipped)},
        )


WORKLOADS = {
    Table2Cold.name: Table2Cold,
    IndustrialChecked.name: IndustrialChecked,
    ServeMixed.name: ServeMixed,
}

