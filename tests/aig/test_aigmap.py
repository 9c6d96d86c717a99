"""aigmap: the AIG must agree with the word-level simulator everywhere."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.ir import CellType, Circuit, SigBit
from repro.ir.walker import NetIndex
from repro.aig import AigMapper, aig_map, aig_stats, aiger_str
from repro.aig.aigmap import aig_sources
from repro.sim import Simulator
from repro.workloads import CASE_NAMES, INDUSTRIAL_POINTS, build_case, build_point
from tests.conftest import random_circuit


def _assert_matches_sim(module, n_vectors=64, seed=0):
    sim = Simulator(module)
    aig = aig_map(module)
    rng = random.Random(seed)
    wire_widths = {w.name: w.width for w in module.inputs}
    for _ in range(n_vectors):
        values = {name: rng.getrandbits(w) for name, w in wire_widths.items()}
        want = sim.run(values)
        invec = []
        for name in aig.input_names:
            wname, idx = name.rsplit("[", 1)
            invec.append((values.get(wname, 0) >> int(idx[:-1])) & 1)
        outs = aig.eval_outputs(invec)
        got = {}
        for (oname, _lit), v in zip(aig.outputs, outs):
            wname, idx = oname.rsplit("[", 1)
            got[wname] = got.get(wname, 0) | (v << int(idx[:-1]))
        for name, value in want.items():
            assert got.get(name, 0) == value, name


@pytest.mark.parametrize("op", [
    "and_", "or_", "xor", "xnor", "nand", "nor", "add", "sub", "eq", "ne",
    "lt", "le", "logic_and", "logic_or",
])
def test_binary_cells(op):
    c = Circuit(op)
    a, b = c.input("a", 5), c.input("b", 5)
    c.output("y", getattr(c, op)(a, b))
    _assert_matches_sim(c.module)


@pytest.mark.parametrize("op", [
    "not_", "reduce_and", "reduce_or", "reduce_xor", "reduce_bool", "logic_not",
])
def test_unary_cells(op):
    c = Circuit(op)
    a = c.input("a", 5)
    c.output("y", getattr(c, op)(a))
    _assert_matches_sim(c.module)


@pytest.mark.parametrize("op", ["shl", "shr"])
def test_shift_cells(op):
    c = Circuit(op)
    a = c.input("a", 6)
    b = c.input("b", 3)
    c.output("y", getattr(c, op)(a, b))
    _assert_matches_sim(c.module)


def test_mux_and_pmux():
    c = Circuit("t")
    a, b = c.input("a", 4), c.input("b", 4)
    s = c.input("s")
    t = c.input("t", 2)
    m1 = c.mux(a, b, s)
    m2 = c.pmux(m1, [(t[0:1], a), (t[1:2], b)])
    c.output("y", m2)
    _assert_matches_sim(c.module)


def test_dff_boundaries_counted_as_io():
    c = Circuit("t")
    clk = c.input("clk")
    d = c.input("d", 3)
    q = c.dff(clk, c.add(d, 1))
    c.output("y", c.xor(q, d))
    aig = aig_map(c.module)
    # Q bits are AIG inputs; D bits are AIG outputs
    assert any(".Q[" in name for name in aig.input_names)
    assert any(".D[" in name for name, _l in aig.outputs)


def test_aig_area_excludes_flipflops():
    c = Circuit("t")
    clk = c.input("clk")
    d = c.input("d", 8)
    q = c.dff(clk, d)  # pure register, no logic
    c.output("y", q)
    aig = aig_map(c.module)
    assert aig.num_ands == 0  # "we exclude Flip-Flop gates"


def test_stats():
    c = Circuit("t")
    a, b = c.input("a", 4), c.input("b", 4)
    c.output("y", c.add(a, b))
    stats = aig_stats(aig_map(c.module))
    assert stats.num_inputs == 8
    assert stats.num_outputs == 4
    assert stats.area == stats.num_ands > 0
    assert stats.levels > 0


def test_strash_shares_across_cells():
    c = Circuit("t")
    a, b = c.input("a", 4), c.input("b", 4)
    c.output("y1", c.and_(a, b))
    c.output("y2", c.and_(a, b))  # identical logic
    aig = aig_map(c.module)
    assert aig.num_ands == 4  # not 8


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 100000))
def test_random_circuits_match_simulator(seed):
    module = random_circuit(seed, n_ops=10)
    _assert_matches_sim(module, n_vectors=16, seed=seed)


def test_aig_map_does_not_mutate_module():
    """The Session baseline cache maps the working module directly (no
    clone) — sound only while aigmap stays read-only."""
    c = Circuit("t")
    a, b, s = c.input("a", 4), c.input("b", 4), c.input("s")
    c.output("y", c.mux(a, b, s))
    module = c.module
    before = (module.stats(), sorted(module.cells), sorted(module.wires))
    aig_map(module)
    assert (module.stats(), sorted(module.cells), sorted(module.wires)) == before


# -- mapping on a module's live NetIndex ----------------------------------------

#: the two industrial points the repository benchmark times, at its width
INDUSTRIAL = ("ind_selector_0", "ind_arbiter")


def _build_model(name):
    if name in INDUSTRIAL:
        points = {p.name: p for p in INDUSTRIAL_POINTS}
        return build_point(points[name], width=5)
    return build_case(name)


def _assert_live_map_identical(module):
    live = aig_map(module, module.net_index())
    snapshot = aig_map(module)
    assert live.input_names == snapshot.input_names
    assert aiger_str(live) == aiger_str(snapshot)  # AND table and outputs
    assert live.structural_digest() == snapshot.structural_digest()


@pytest.mark.parametrize("name", list(CASE_NAMES) + list(INDUSTRIAL))
def test_live_index_mapping_is_identical_to_snapshot(name):
    """Sessions map baselines and results on the live index the flow
    maintains; the AIG must equal a fresh-snapshot mapping byte for byte
    both before the flow and after it edited the module in place."""
    module = _build_model(name)
    _assert_live_map_identical(module)
    Session(module).run("smartly")
    _assert_live_map_identical(module)


def _assert_sources_match_snapshot(module, expect):
    """``expect``: the signals whose bits must be the sources, in order."""
    index = module.net_index()
    live = aig_sources(index)
    assert live == aig_sources(NetIndex(module))
    assert [bit for bit, _name in live] == [
        index.canonical(bit) for spec in expect for bit in spec
    ]
    _assert_live_map_identical(module)


def test_undriven_internal_net_read_by_a_cell_is_declared():
    c = Circuit("t")
    a = c.input("a", 2)
    module = c.module
    module.net_index()  # the live index follows every later edit
    u = c.wire("u", 2)
    c.output("y", c.and_(a, u))
    _assert_sources_match_snapshot(module, [a, u])


def test_undriven_output_bit_is_declared():
    c = Circuit("t")
    a = c.input("a", 2)
    module = c.module
    module.net_index()
    c.output("y", c.not_(a))
    z = c.output("z", width=2)  # never driven
    _assert_sources_match_snapshot(module, [a, z])


def test_removed_driver_leaves_a_declared_source():
    c = Circuit("t")
    a, b = c.input("a", 2), c.input("b", 2)
    t = c.wire("t", 2)
    c.module.connect(t, c.not_(a))
    c.output("y", c.and_(t, b))
    module = c.module
    module.net_index()
    (inverter,) = module.cells_of_type(CellType.NOT)
    module.remove_cell(inverter)
    _assert_sources_match_snapshot(module, [a, b, t])
