"""Miter construction for combinational equivalence checking.

Two modules with the same port signature are mapped into one shared AIG
(inputs unified by name) and corresponding output bits are XORed.  Each
XOR stays a named AIG output (the compared output's name, in the gold
module's output order), so the SAT step can prove the outputs one cone at
a time; their OR is the *miter* literal: the circuits are equivalent iff
it is constant 0.

DFF handling: dff ``Q`` outputs become shared miter inputs and dff ``D``
inputs become compared outputs (keyed by cell name), so two netlists are
"equivalent" when all next-state and output functions agree — the standard
sequential-preserving combinational check used after synthesis passes that
keep registers in place.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..aig.aig import AIG
from ..aig.aigmap import AigMapper, sweep_sources
from ..ir.module import Module
from ..ir.walker import NetIndex


class PortMismatchError(Exception):
    """The two modules do not share the same I/O signature."""


def _io_signature(module: Module) -> Tuple[Dict[str, int], Dict[str, int]]:
    ins = {w.name: w.width for w in module.inputs}
    outs = {w.name: w.width for w in module.outputs}
    return ins, outs


def build_miter(gold: Module, gate: Module) -> Tuple[AIG, int]:
    """Build the miter AIG.  Returns ``(aig, miter_literal)``.

    ``aig.outputs`` holds one ``(name, xor_literal)`` pair per compared
    output bit; ``miter_literal`` is their OR.  Raises
    :class:`PortMismatchError` when I/O signatures differ.  Every source
    of both modules is declared before the first AND node.  Boundary
    sources (ports, state-cell outputs, undriven instance bindings; see
    :func:`~repro.aig.aigmap.sweep_sources`) are shared by name, so
    identical logic reading them compares one free variable, never two
    that spuriously differ.  An undriven internal net of the gate shares
    the gold net whose alias class has a wire-bit name in common with its
    own (:func:`~repro.aig.aigmap.alias_names`; passes merge and prune
    alias classes but keep wire names), each gold net at most once.  A
    source only one module has stays an independent input, which is
    conservative: equivalence then must hold for all its values.
    """
    gold_ins, gold_outs = _io_signature(gold)
    gate_ins, gate_outs = _io_signature(gate)
    if gold_ins != gate_ins or gold_outs != gate_outs:
        raise PortMismatchError(
            f"signatures differ: in {gold_ins} vs {gate_ins}; "
            f"out {gold_outs} vs {gate_outs}"
        )

    gold_index = NetIndex(gold)
    gate_index = NetIndex(gate)

    aig = AIG()
    boundary: Dict[str, int] = {}
    #: every wire-bit name of a gold undriven net -> that net's literal
    gold_nets: Dict[str, int] = {}
    claimed: Set[int] = set()  # gold nets already shared with the gate
    input_lits: List[Dict[str, int]] = []
    for index in (gold_index, gate_index):
        sweep = sweep_sources(index)
        lits: Dict[str, int] = {}
        for position, (bit, name) in enumerate(sweep.sources):
            if position < sweep.boundary:
                if name not in boundary:
                    boundary[name] = aig.add_input(name)
                lits[name] = boundary[name]
                continue
            members = sweep.aliases.get(bit, [name])
            if index is gold_index:
                lits[name] = aig.add_input(name)
                gold_nets.update(dict.fromkeys(members, lits[name]))
                continue
            shared = [gold_nets[m] for m in members if m in gold_nets]
            lit = next((g for g in shared if g not in claimed), None)
            if lit is None:
                lit = aig.add_input(name)
            claimed.add(lit)
            lits[name] = lit
        input_lits.append(lits)

    gold_mapper = AigMapper(gold, gold_index, aig=aig, input_lits=input_lits[0])
    gold_mapper.run()
    gold_outputs = {name: lit for name, lit in aig.outputs}
    aig.outputs.clear()

    gate_mapper = AigMapper(gate, gate_index, aig=aig, input_lits=input_lits[1])
    gate_mapper.run()
    gate_outputs = {name: lit for name, lit in aig.outputs}
    aig.outputs.clear()

    missing = set(gold_outputs) ^ set(gate_outputs)
    if missing:
        raise PortMismatchError(f"output bit sets differ on: {sorted(missing)}")

    for name in gold_outputs:
        aig.add_output(aig.xor(gold_outputs[name], gate_outputs[name]), name)
    miter_lit = aig.or_reduce([lit for _name, lit in aig.outputs])
    return aig, miter_lit
