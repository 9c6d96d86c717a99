"""Bit-blasting RTL netlists into AIGs (the ``aigmap`` equivalent).

Every combinational cell type is decomposed into 2-input AND/inverter
structure with the *same semantics* as the simulator and the Tseitin
encoder (pmux = priority select, unsigned arithmetic, logical shifts).
The per-cell decompositions live in the unified cell-semantics registry
(:mod:`repro.ir.celllib`); :class:`AigMapper` implements the registry's
:class:`~repro.ir.celllib.LoweringEmitter` protocol and only provides the
bit-to-literal bookkeeping around it.

Inputs of the AIG are the module's primary inputs plus sequential state
outputs (dff ``Q``) and undriven wires; outputs are the module's primary
outputs plus next-state inputs (dff ``D``), so all register-to-register
logic is counted — flip-flops themselves contribute no AND nodes, matching
the paper's "exclude flip-flop gates" accounting.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir import celllib
from ..ir.module import Cell, Module
from ..ir.signals import SigBit, State
from ..ir.walker import NetIndex
from .aig import AIG, FALSE_LIT, TRUE_LIT


class AigMapper(celllib.LoweringEmitter):
    """Maps one module into a fresh :class:`AIG`.

    The bit-to-literal map is exposed (:attr:`bit_lit`) so equivalence
    checking can map two modules into one shared AIG keyed by port names.
    """

    def __init__(
        self,
        module: Module,
        index: Optional[NetIndex] = None,
        aig: Optional[AIG] = None,
        input_lits: Optional[Dict[str, int]] = None,
    ):
        """``aig``/``input_lits`` allow mapping several modules into one
        shared AIG (used by the miter builder): ``input_lits`` maps input
        names like ``"a[3]"`` to preexisting AIG literals."""
        self.module = module
        self.index = index if index is not None else NetIndex(module)
        self.aig = aig if aig is not None else AIG()
        self.preset_inputs = input_lits if input_lits is not None else {}
        self.bit_lit: Dict[SigBit, int] = {}

    # -- public API -------------------------------------------------------------

    def run(self) -> AIG:
        """Map the whole module and register outputs; returns the AIG."""
        self._declare_inputs()
        for cell in self.index.topo_cells():
            spec = celllib.spec_for(cell.type)
            if spec.lower is not None:
                spec.lower(self, cell)
        sigmap = self.index.sigmap
        for wire in self.module.outputs:
            for i in range(wire.width):
                bit = sigmap.map_bit(SigBit(wire, i))
                self.aig.add_output(self.lit(bit), f"{wire.name}[{i}]")
        for cell in self.module.cells.values():
            for pname in celllib.spec_for(cell.type).next_state_ports:
                for i, bit in enumerate(cell.connections[pname]):
                    self.aig.add_output(
                        self.lit(sigmap.map_bit(bit)), f"{cell.name}.{pname}[{i}]"
                    )
        # instance bindings are boundary observables: parent cones feeding a
        # child count toward the parent's area (matching what those cones
        # would cost after flattening) and are compared by the miter
        for instance in self.module.instances.values():
            for pname in sorted(instance.connections):
                for i, bit in enumerate(instance.connections[pname]):
                    self.aig.add_output(
                        self.lit(sigmap.map_bit(bit)),
                        f"{instance.name}.{pname}[{i}]",
                    )
        return self.aig

    # -- LoweringEmitter protocol ------------------------------------------------

    def lit(self, bit: SigBit) -> int:
        cbit = self.index.sigmap.map_bit(bit)
        if cbit.is_const:
            if cbit.state is State.S1:
                return TRUE_LIT
            # x constants are mapped to 0 (a fixed, documented choice)
            return FALSE_LIT
        lit = self.bit_lit.get(cbit)
        if lit is None:
            raise KeyError(f"bit {cbit!r} mapped before its driver")
        return lit

    def port_lits(self, cell: Cell, port: str) -> List[int]:
        return [self.lit(bit) for bit in cell.connections[port]]

    def set_output(self, cell: Cell, port: str, lits: List[int]) -> None:
        sigmap = self.index.sigmap
        for bit, lit in zip(cell.connections[port], lits):
            self.bit_lit[sigmap.map_bit(bit)] = lit

    @property
    def false_lit(self) -> int:
        return FALSE_LIT

    @property
    def true_lit(self) -> int:
        return TRUE_LIT

    # -- internals ---------------------------------------------------------------

    def _declare_inputs(self) -> None:
        for cbit, name in aig_sources(self.index):
            preset = self.preset_inputs.get(name)
            self.bit_lit[cbit] = (
                preset if preset is not None else self.aig.add_input(name)
            )


def aig_sources(
    index: NetIndex, boundary_only: bool = False
) -> List[Tuple[SigBit, str]]:
    """The AIG inputs of ``index.module``: ``(canonical bit, name)`` pairs.

    In declaration order: primary inputs, state-cell outputs (every
    registry spec's ``state_ports``), undriven instance binding bits, then
    any other undriven bit read by a cell or an output.  The first three
    are *boundary* sources whose names survive optimization; the miter
    builder shares exactly those (``boundary_only=True``) between its two
    modules.  The rest are anonymous nets named by their canonical bit,
    which flow passes may re-root, so they are never paired by name.
    """
    module = index.module
    sigmap = index.sigmap
    sources: List[Tuple[SigBit, str]] = []
    declared = set()

    def declare(bit: SigBit, name: str) -> None:
        cbit = sigmap.map_bit(bit)
        if cbit.is_const or cbit in declared:
            return
        if index.comb_driver(cbit) is None:
            declared.add(cbit)
            sources.append((cbit, name))

    for wire in module.wires.values():
        if wire.port_input:
            for i in range(wire.width):
                declare(SigBit(wire, i), f"{wire.name}[{i}]")
    for cell in module.cells.values():
        for pname in celllib.spec_for(cell.type).state_ports:
            for i, bit in enumerate(cell.connections[pname]):
                declare(bit, f"{cell.name}.{pname}[{i}]")
    # undriven instance binding bits (child-output nets) are sources
    # with deterministic boundary names, shared by the miter builder
    for instance in module.instances.values():
        for pname in sorted(instance.connections):
            for i, bit in enumerate(instance.connections[pname]):
                declare(bit, f"{instance.name}.{pname}[{i}]")
    if boundary_only:
        return sources
    # any remaining undriven bits read by cells or outputs
    for cell in module.cells.values():
        for pname in celllib.spec_for(cell.type).input_ports:
            for bit in cell.connections[pname]:
                declare(bit, repr(bit))
    for wire in module.outputs:
        for i in range(wire.width):
            declare(SigBit(wire, i), f"{wire.name}[{i}]")
    return sources


def aig_map(module: Module, index: Optional[NetIndex] = None) -> AIG:
    """Map a module to an AIG (convenience wrapper around :class:`AigMapper`)."""
    return AigMapper(module, index).run()
