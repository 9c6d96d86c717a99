"""Per-output CEC: one cone-limited solve per compared miter output.

The reference below is the whole-miter formulation: every AIG node in one
solver, one solve under the OR of all output XORs.  Per-output proving
must agree with it on every verdict, name an output that really differs,
stay inside one total conflict budget and repeat exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.aig import aig_map, aig_to_solver
from repro.aig.cnf import aig_lit_to_solver_lit
from repro.equiv import build_miter, check_equivalence
from repro.ir import Circuit, CellType
from repro.ir.signals import SigSpec
from repro.opt import run_baseline_opt
from repro.sat.oracle import SatOracle
from repro.sim import Simulator
from tests.conftest import random_circuit

SEEDS = range(24)


def _whole_miter_differs(gold, gate):
    """Reference verdict: can the OR of all output XORs be 1?"""
    aig, miter_lit = build_miter(gold, gate)
    if miter_lit >> 1 == 0:
        return miter_lit == 1
    solver, var_map = aig_to_solver(aig)
    return solver.solve([aig_lit_to_solver_lit(miter_lit, var_map, var_map[0])])


def _swap_a_mux(module, seed):
    """A copy of ``module`` with one mux's data operands swapped."""
    mutant = module.clone()
    muxes = [c for c in mutant.cells.values() if c.type is CellType.MUX]
    if not muxes:
        return None
    cell = random.Random(seed).choice(muxes)
    cell.connections["A"], cell.connections["B"] = (
        cell.connections["B"], cell.connections["A"]
    )
    return mutant


def _pairs():
    for seed in SEEDS:
        gold = random_circuit(seed, n_ops=10)
        optimized = gold.clone()
        run_baseline_opt(optimized)
        yield f"opt{seed}", gold, optimized
        mutant = _swap_a_mux(gold, seed)
        if mutant is not None:
            yield f"mut{seed}", gold, mutant


def _port_values(counterexample):
    values = {}
    for name, bit in counterexample.items():
        wire, index = name[:-1].rsplit("[", 1)
        values[wire] = values.get(wire, 0) | (bit << int(index))
    return values


def _differs_at(gold, gate, counterexample, output):
    wire, index = output[:-1].rsplit("[", 1)
    values = _port_values(counterexample)
    gold_out = Simulator(gold).run(values)[wire]
    gate_out = Simulator(gate).run(values)[wire]
    return (gold_out >> int(index)) & 1 != (gate_out >> int(index)) & 1


def test_verdicts_agree_with_whole_miter_reference():
    refuted = 0
    for tag, gold, gate in _pairs():
        result = check_equivalence(gold, gate, random_vectors=0)
        assert not result.undecided, tag
        assert result.equivalent == (not _whole_miter_differs(gold, gate)), tag
        refuted += not result.equivalent
    assert refuted >= 5  # the mutants do exercise the refutation side


@pytest.mark.parametrize("random_vectors", [0, 256])
def test_counterexample_differs_at_named_output(random_vectors):
    seen = set()
    for tag, gold, gate in _pairs():
        result = check_equivalence(gold, gate, random_vectors=random_vectors)
        if result.equivalent:
            assert result.output is None, tag
            continue
        seen.add(result.method)
        assert result.output is not None, tag
        assert _differs_at(gold, gate, result.counterexample, result.output), tag
    assert seen == ({"sat"} if random_vectors == 0 else {"sim"})


def _hard_multi_output_pair(width=8):
    """Equivalent, structurally distinct, several outputs needing search."""
    c1 = Circuit("m")
    a, b, d = c1.input("a", width), c1.input("b", width), c1.input("d", width)
    c1.output("eq", c1.eq(c1.sub(a, b), 0))
    c1.output("sum", c1.add(c1.add(a, b), d))
    c2 = Circuit("m")
    a, b, d = c2.input("a", width), c2.input("b", width), c2.input("d", width)
    c2.output("eq", c2.eq(a, b))
    c2.output("sum", c2.add(a, c2.add(b, d)))
    return c1.module, c2.module


def test_total_conflict_budget():
    gold, gate = _hard_multi_output_pair()
    oracle = SatOracle()
    full = check_equivalence(gold, gate, random_vectors=0, oracle=oracle)
    assert full.equivalent and full.method == "sat"
    needed = full.sat_conflicts
    assert oracle.stats.solver_calls > 1  # the budget spans several solves
    assert needed >= 2
    # a spent budget stops the check even when the outputs left would
    # need no conflicts, so only a budget with room to spare decides
    for budget in (1, needed // 2, needed - 1, 2 * needed):
        oracle = SatOracle()
        result = check_equivalence(
            gold, gate, random_vectors=0, max_conflicts=budget, oracle=oracle
        )
        assert oracle.stats.conflicts <= budget
        assert result.sat_conflicts == oracle.stats.conflicts
        if budget < needed:
            assert result.undecided and result.method == "budget"
            assert not result.equivalent and result.output is None
        else:
            assert result.equivalent and not result.undecided


def test_one_query_per_miter_one_solve_per_live_output():
    gold, gate = _hard_multi_output_pair()
    aig, _miter_lit = build_miter(gold, gate)
    live = [name for name, lit in aig.outputs if lit != 0]
    assert [name for name, _lit in aig.outputs][:2] == ["eq[0]", "sum[0]"]
    oracle = SatOracle()
    check_equivalence(gold, gate, random_vectors=0, oracle=oracle)
    assert oracle.stats.queries == 1
    assert oracle.stats.solver_calls == len(live)


def test_repeat_runs_are_identical():
    def run(gold, gate):
        oracle = SatOracle()
        result = check_equivalence(gold, gate, random_vectors=0, oracle=oracle)
        return (oracle.stats.as_dict(), result.counterexample, result.output)

    for _tag, gold, gate in list(_pairs())[:12]:
        assert run(gold, gate) == run(gold, gate)


def test_miter_shares_exactly_the_mapper_sources():
    child = Circuit("leaf")
    child.output("y", child.not_(child.input("x", 2)))
    c = Circuit("top")
    a = c.input("a", 2)
    clk = c.input("clk")
    child_out = c.module.add_wire("child_out", 2)
    # x is bound straight to a primary input: that bit is already a
    # source, so it must not become a second (dead) miter input
    c.module.add_instance(
        "leaf", name="u0",
        connections={"x": a, "y": SigSpec.from_wire(child_out)},
    )
    reg = c.module.add_cell(
        CellType.DFF, name="r0", CLK=clk,
        D=c.and_(SigSpec.from_wire(child_out), a),
    )
    c.output("q", reg.connections["Q"])
    top = c.module
    aig, _miter_lit = build_miter(top, top.clone())
    declared = aig_map(top).input_names
    assert aig.input_names == declared
    assert {"r0.Q[0]", "u0.y[0]"} <= set(declared)
    assert check_equivalence(top, top.clone(), random_vectors=0).equivalent

