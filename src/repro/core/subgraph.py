"""Sub-graph extraction for SAT-based redundancy elimination (paper §II).

Around the control port of a multiplexer under inspection, smaRTLy collects
all combinational gates within an (undirected) distance ``k``.  The raw
neighbourhood is then *reduced* using the paper's Theorems II.1/II.2: a
signal S can only affect signal T when S is an ancestor of T, T is an
ancestor of S, or the two share a common ancestor.  For the redundancy
query this partitions the neighbourhood into the target's *interaction
group* — the fanin cones of the target and of the known path signals —
and everything else, which is dismissed (the paper reports ~80% of gates
removed, "greatly accelerating the inference of the SAT solver").
Sequential cells are never crossed, keeping the sub-graph a DAG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..ir.module import Cell
from ..ir.signals import SigBit
from ..ir.walker import NetIndex


@dataclass
class SubGraph:
    """A bounded, reduced neighbourhood of one target control bit."""

    target: SigBit
    #: cells kept after support-group reduction, in deterministic order
    cells: List[Cell]
    #: free source bits of the reduced sub-graph (inputs to decide over)
    inputs: List[SigBit]
    #: path facts restricted to bits that live inside the sub-graph
    known: Dict[SigBit, bool]
    #: sizes before/after the Theorem II.1 reduction (for Figure-4 stats)
    gates_before: int = 0
    gates_after: int = 0

    @property
    def cell_names(self) -> Set[str]:
        return {cell.name for cell in self.cells}

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)


def extract_subgraph(
    index: NetIndex,
    target: SigBit,
    known: Dict[SigBit, bool],
    k: int = 4,
    max_gates: int = 2000,
) -> SubGraph:
    """Collect and reduce the distance-``k`` neighbourhood of ``target``.

    ``known`` holds the path facts (canonical bit -> value).  ``max_gates``
    caps the raw neighbourhood before reduction so pathological fanout hubs
    cannot blow up the analysis.
    """
    map_bit = index.sigmap.map_bit
    cell_bits = index.cell_bits
    target = map_bit(target)

    # 1. undirected BFS over cells, up to k cell hops from the target bit
    cells: Dict[str, Cell] = {}
    frontier: List[SigBit] = [target]
    seen_bits: Set[SigBit] = {target}
    for _depth in range(k):
        next_frontier: List[SigBit] = []
        for bit in frontier:
            neighbours: List[Cell] = []
            driver = index.comb_driver(bit)
            if driver is not None:
                neighbours.append(driver)
            for reader, _port, _off in index.readers.get(bit, ()):  # noqa: B020
                if reader.is_combinational:
                    neighbours.append(reader)
            for cell in neighbours:
                if cell.name in cells:
                    continue
                if len(cells) >= max_gates:
                    break
                cells[cell.name] = cell
                for group in cell_bits(cell):
                    for cbit in group:
                        if cbit not in seen_bits and not cbit.is_const:
                            seen_bits.add(cbit)
                            next_frontier.append(cbit)
            if len(cells) >= max_gates:
                next_frontier = []
                break
        frontier = next_frontier
        if not frontier:
            break

    gates_before = len(cells)

    # 2. Theorem II.1/II.2 reduction via support groups
    kept = _reduce_by_support(index, cells, target, known)

    # 3. free inputs = sources of the kept sub-graph minus known bits
    kept_names = {cell.name for cell in kept}
    input_bits: List[SigBit] = []
    seen_inputs: Set[SigBit] = set()
    relevant_known: Dict[SigBit, bool] = {}

    def classify(cbit: SigBit) -> None:
        if cbit.is_const or cbit in seen_inputs:
            return
        driver = index.comb_driver(cbit)
        if driver is not None and driver.name in kept_names:
            return  # internal signal
        seen_inputs.add(cbit)
        if cbit in known:
            relevant_known[cbit] = known[cbit]
        else:
            input_bits.append(cbit)

    for cell in kept:
        for cbit in cell_bits(cell)[0]:
            classify(cbit)
    classify(target)
    # facts about internal signals also constrain the sub-graph
    for bit, value in known.items():
        cbit = map_bit(bit)
        if cbit in seen_bits and cbit not in seen_inputs:
            driver = index.comb_driver(cbit)
            if driver is not None and driver.name in kept_names:
                relevant_known[cbit] = value

    return SubGraph(
        target=target,
        cells=kept,
        inputs=input_bits,
        known=relevant_known,
        gates_before=gates_before,
        gates_after=len(kept),
    )


def _reduce_by_support(
    index: NetIndex,
    cells: Dict[str, Cell],
    target: SigBit,
    known: Dict[SigBit, bool],
) -> List[Cell]:
    """Dismiss gates that cannot interact with the target (Theorem II.1).

    A gate constrains the SAT/simulation query only when its output is an
    *ancestor* of the target, or an ancestor of a known signal computed
    inside the neighbourhood (a known internal signal propagates
    information backwards through its fanin cone and forwards into the
    target's cone — the "common ancestor" case of Theorem II.1).  Every
    other gate — descendants of the target, or cousins whose outputs feed
    neither the target nor a known signal — can take any value without
    affecting the query, so it is dismissed.  This realises the paper's
    group partition: the kept set is exactly the target's interaction
    group, and dismissing the rest is what "greatly accelerates the
    inference of the SAT solver".

    The kept cells are returned in topological order (fanin before fanout)
    so simulation and inference can evaluate them in a single sweep.
    """
    map_bit = index.sigmap.map_bit
    cell_bits = index.cell_bits
    comb_driver = index.comb_driver

    # roots of the cones that matter: the target plus known internal bits
    roots: List[SigBit] = [map_bit(target)]
    for bit in known:
        cbit = map_bit(bit)
        driver = comb_driver(cbit)
        if driver is not None and driver.name in cells:
            roots.append(cbit)

    kept_names: Set[str] = set()
    worklist: List[SigBit] = list(roots)
    visited: Set[SigBit] = set(worklist)
    while worklist:
        bit = worklist.pop()
        driver = comb_driver(bit)
        if driver is None or driver.name not in cells:
            continue
        if driver.name not in kept_names:
            kept_names.add(driver.name)
            for fbit in cell_bits(driver)[0]:
                if fbit not in visited and not fbit.is_const:
                    visited.add(fbit)
                    worklist.append(fbit)

    # topological order over the kept cells
    order: List[Cell] = []
    state: Dict[str, int] = {}

    def visit(cell: Cell) -> None:
        stack: List[Tuple[Cell, Iterable[SigBit]]] = [
            (cell, iter(cell_bits(cell)[0]))
        ]
        state[cell.name] = 0
        while stack:
            current, it = stack[-1]
            advanced = False
            for bit in it:
                driver = comb_driver(bit)
                if driver is None or driver.name not in kept_names:
                    continue
                if state.get(driver.name) is None:
                    state[driver.name] = 0
                    stack.append((driver, iter(cell_bits(driver)[0])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                if state[current.name] == 0:
                    state[current.name] = 1
                    order.append(current)

    # deterministic root order: kept_names is a set, and string hashing is
    # randomized per interpreter run — iterating it raw would make the topo
    # order (and with it CNF variable numbering) differ run to run
    for name in sorted(kept_names):
        if name not in state:
            visit(cells[name])
    return order
