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

from typing import Dict, Tuple

from ..aig.aig import AIG
from ..aig.aigmap import AigMapper, aig_sources
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
    :class:`PortMismatchError` when I/O signatures differ.  Boundary
    sources (:func:`~repro.aig.aigmap.aig_sources` with
    ``boundary_only=True``: ports, state-cell outputs, undriven instance
    bindings) are shared by name, so identical logic reading them compares
    one free variable, never two that spuriously differ; a boundary source
    only one module has stays an independent input, which is
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
    shared: Dict[str, int] = {}
    for index in (gold_index, gate_index):
        for _bit, name in aig_sources(index, boundary_only=True):
            if name not in shared:
                shared[name] = aig.add_input(name)

    gold_mapper = AigMapper(gold, gold_index, aig=aig, input_lits=shared)
    gold_mapper.run()
    gold_outputs = {name: lit for name, lit in aig.outputs}
    aig.outputs.clear()

    gate_mapper = AigMapper(gate, gate_index, aig=aig, input_lits=shared)
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
