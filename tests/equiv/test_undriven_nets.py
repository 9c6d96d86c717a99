"""CEC over modules that read undriven internal nets.

An undriven internal net is a free input of the AIG.  The miter pairs a
gate net with the gold net whose alias class shares a wire-bit name with
its own, so passes that re-root, merge or prune alias classes do not split
it into two unrelated inputs, and every source of both modules is
declared before the first AND node.
"""

from __future__ import annotations

from repro.api import Session
from repro.equiv import check_equivalence
from repro.equiv.miter import build_miter
from repro.frontend import compile_verilog

UNDRIVEN = """
module undriven(input s, input [3:0] a, output [3:0] y);
  wire [3:0] u;
  wire [3:0] v;
  assign v = u;
  assign y = s ? v : a;
endmodule
"""

#: the same module with the undriven net inverted on its way to the mux
MUTATED = UNDRIVEN.replace("assign v = u;", "assign v = ~u;")

#: a constant select: optimization aliases the output onto the undriven
#: net, so the gate's class also holds ``y`` while the gold's does not
FOLDED = """
module folded(input [3:0] a, output [3:0] y);
  wire [3:0] u;
  wire c;
  assign c = 1'b1;
  assign y = c ? u : a;
endmodule
"""


def _module(source):
    return compile_verilog(source).top


def test_checked_flow_proves_undriven_net_module():
    report = Session(_module(UNDRIVEN)).run("smartly", check=True)
    assert report.equivalence_checked


def test_optimized_netlist_is_equivalent_to_original():
    gold = _module(UNDRIVEN)
    gate = gold.clone()
    Session(gate).run("smartly")
    result = check_equivalence(gold, gate)
    assert result.equivalent and not result.undecided


def test_mutated_twin_is_refuted():
    gold = _module(UNDRIVEN)
    gate = _module(MUTATED)
    Session(gate).run("smartly")
    result = check_equivalence(gold, gate, random_vectors=0)
    assert not result.equivalent and not result.undecided
    assert result.output is not None and result.output.startswith("y[")


def test_undriven_net_is_one_shared_miter_input():
    gold = _module(UNDRIVEN)
    gate = gold.clone()
    Session(gate).run("smartly")
    aig, _miter = build_miter(gold, gate)
    # s, a[0..3] and the four bits of the undriven class, each declared once
    assert aig.num_inputs == 1 + 4 + 4, aig.input_names
    assert sorted(n for n in aig.input_names if n.startswith("u[")) == [
        f"u[{i}]" for i in range(4)
    ]


def test_net_merged_into_an_output_class_still_pairs():
    gold = _module(FOLDED)
    gate = gold.clone()
    Session(gate).run("smartly")
    assert not gate.cells  # the mux folded away: y is an alias of u
    result = check_equivalence(gold, gate, random_vectors=0)
    assert result.equivalent and not result.undecided
