"""SAT-based redundancy elimination (paper §II)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.core import SatRedundancy, redundancy
from repro.core.cache import ResultCache
from repro.core.subgraph import extract_subgraph
from repro.equiv import assert_equivalent
from repro.ir import CellType, Circuit, NetIndex, SigSpec
from repro.opt import OptClean, OptMuxtree
from repro.opt.pass_base import PassResult
from repro.workloads import build_case
from tests.conftest import random_circuit


def _fig3(variant="or"):
    c = Circuit("fig3")
    A, B, C = c.input("A", 4), c.input("B", 4), c.input("C", 4)
    S, R = c.input("S"), c.input("R")
    if variant == "or":
        inner = c.mux(B, A, c.or_(S, R))
        y = c.mux(C, inner, S)
    else:
        inner = c.mux(A, B, c.and_(S, R))
        y = c.mux(inner, C, S)
    c.output("Y", y)
    return c.module


class TestFigure3:
    def test_or_dependency_eliminated(self):
        m = _fig3("or")
        gold = m.clone()
        result = SatRedundancy().run(m)
        OptClean().run(m)
        assert result.stats["muxes_bypassed"] == 1
        assert sum(1 for c in m.cells.values() if c.is_mux) == 1
        assert_equivalent(gold, m)

    def test_and_dependency_eliminated(self):
        m = _fig3("and")
        gold = m.clone()
        result = SatRedundancy().run(m)
        OptClean().run(m)
        assert result.stats["muxes_bypassed"] == 1
        assert_equivalent(gold, m)

    def test_baseline_cannot_do_this(self):
        m = _fig3("or")
        result = OptMuxtree().run(m)
        assert not result.changed

    def test_subsumes_baseline_behaviour(self):
        """Identical-signal redundancy (Figure 1) is the fast path."""
        c = Circuit("t")
        A, B, C, S = c.input("A", 4), c.input("B", 4), c.input("C", 4), c.input("S")
        inner = c.mux(B, A, S)
        c.output("Y", c.mux(C, inner, S))
        m = c.module
        gold = m.clone()
        result = SatRedundancy().run(m)
        OptClean().run(m)
        assert result.stats["muxes_bypassed"] == 1
        assert_equivalent(gold, m)


class TestDeciderLadder:
    def _xor_dependent(self):
        """Control = S ^ R ^ R == S: needs simulation/SAT, not Table I."""
        c = Circuit("t")
        A, B, C = c.input("A", 4), c.input("B", 4), c.input("C", 4)
        S, R = c.input("S"), c.input("R")
        ctrl = c.xor(c.xor(S, R), R)  # semantically == S
        inner = c.mux(B, A, ctrl)
        c.output("Y", c.mux(C, inner, S))
        return c.module

    def test_simulation_decides_small_cones(self):
        m = self._xor_dependent()
        gold = m.clone()
        result = SatRedundancy(sim_threshold=8).run(m)
        OptClean().run(m)
        assert result.stats.get("ctrl_sim_decided", 0) >= 1
        assert sum(1 for c in m.cells.values() if c.is_mux) == 1
        assert_equivalent(gold, m)

    def test_sat_decides_when_sim_disabled(self):
        m = self._xor_dependent()
        gold = m.clone()
        result = SatRedundancy(sim_threshold=-1).run(m)
        OptClean().run(m)
        assert result.stats.get("ctrl_sat_decided", 0) >= 1
        assert_equivalent(gold, m)

    def test_thresholds_forgo_analysis(self):
        """Paper: if inputs exceed the threshold, forgo the SAT process."""
        m = self._xor_dependent()
        result = SatRedundancy(sim_threshold=-1, sat_threshold=-1).run(m)
        assert result.stats.get("skipped_large", 0) >= 1
        assert result.stats.get("muxes_bypassed", 0) == 0

    def test_inference_path_reports_stat(self):
        m = _fig3("or")
        result = SatRedundancy().run(m)
        assert result.stats.get("ctrl_inferred", 0) >= 1


class TestDeadPath:
    def test_contradictory_path_pruned(self):
        """A mux only reachable under S & ~S is dead; any rewrite is sound."""
        c = Circuit("t")
        A, B, C, D = (c.input(n, 4) for n in "ABCD")
        S = c.input("S")
        ns = c.not_(S)
        deep = c.mux(A, B, c.and_(S, ns))  # ctrl constant-false in context
        mid = c.mux(deep, C, ns)           # reachable only when S=1...
        c.output("Y", c.mux(mid, D, S))
        m = c.module
        gold = m.clone()
        SatRedundancy().run(m)
        OptClean().run(m)
        assert_equivalent(gold, m)


class TestDataPortInference:
    def test_derived_data_bit_substituted(self):
        """Figure-2 generalisation: data bit = or(S, R) under S=1 -> 1."""
        c = Circuit("t")
        B, C = c.input("B", 4), c.input("C", 4)
        S, R = c.input("S"), c.input("R")
        derived = c.or_(S, R)
        data = SigSpec(list(derived) + list(B[1:]))
        inner = c.mux(B, data, c.input("T"))
        c.output("Y", c.mux(C, inner, S))
        m = c.module
        gold = m.clone()
        result = SatRedundancy().run(m)
        assert result.stats.get("data_inferred", 0) >= 1
        assert result.stats.get("dataport_bits_substituted", 0) >= 1
        assert_equivalent(gold, m)

    def test_data_inference_can_be_disabled(self):
        c = Circuit("t")
        B, C = c.input("B", 4), c.input("C", 4)
        S, R = c.input("S"), c.input("R")
        derived = c.or_(S, R)
        data = SigSpec(list(derived) + list(B[1:]))
        inner = c.mux(B, data, c.input("T"))
        c.output("Y", c.mux(C, inner, S))
        m = c.module
        result = SatRedundancy(data_inference=False).run(m)
        assert result.stats.get("data_inferred", 0) == 0

    # -- one query per operand word ---------------------------------------------

    @staticmethod
    def _word_module(data_of):
        """``Y = S ? (T ? data : B) : C`` with ``data = data_of(c, S, R)``:
        the data operand is asked under the facts ``{S: 1, T: 1}``."""
        c = Circuit("t")
        B, C = c.input("B", 4), c.input("C", 4)
        S, R = c.input("S"), c.input("R", 4)
        data = data_of(c, S, R)
        inner = c.mux(B, data, c.input("T"))
        c.output("Y", c.mux(C, inner, S))
        return c.module

    @staticmethod
    def _count_data_extractions(monkeypatch, data_k=2):
        calls = []
        original = redundancy.extract_subgraph

        def counting(index, target, known, k=4, max_gates=2000):
            if k == data_k:
                calls.append(target)
            return original(index, target, known, k=k, max_gates=max_gates)

        monkeypatch.setattr(redundancy, "extract_subgraph", counting)
        return calls

    def test_whole_word_decided_by_one_query(self, monkeypatch):
        """A 4-bit or(S×4, R) is all ones under S=1: one extraction
        answers the whole word, and every bit is counted as before."""
        m = self._word_module(lambda c, S, R: c.or_(SigSpec([S[0]] * 4), R))
        gold = m.clone()
        calls = self._count_data_extractions(monkeypatch)
        result = SatRedundancy().run(m)
        assert result.stats.get("data_inferred", 0) == 4
        assert result.stats.get("dataport_bits_substituted", 0) == 4
        assert len(calls) == 1
        assert_equivalent(gold, m)

    def test_two_driver_cells_form_two_groups(self, monkeypatch):
        """Bits driven by different cells are different groups; each is
        decided by its own query (or → 1, and-with-not → 0)."""
        def data(c, S, R):
            ones = c.or_(SigSpec([S[0]] * 2), R[:2])
            zeros = c.and_(c.not_(SigSpec([S[0]] * 2)), R[2:])
            return SigSpec(list(ones) + list(zeros))

        m = self._word_module(data)
        gold = m.clone()
        calls = self._count_data_extractions(monkeypatch)
        result = SatRedundancy().run(m)
        assert result.stats.get("data_inferred", 0) == 4
        assert result.stats.get("dataport_bits_substituted", 0) == 4
        assert len(calls) == 2
        assert_equivalent(gold, m)

    def test_repeated_bit_substituted_at_every_position(self, monkeypatch):
        def data(c, S, R):
            derived = c.or_(S, R[0])[0]
            return SigSpec([derived, R[1], derived, R[3]])

        m = self._word_module(data)
        gold = m.clone()
        calls = self._count_data_extractions(monkeypatch)
        result = SatRedundancy().run(m)
        # resolved once, written to both positions
        assert result.stats.get("data_inferred", 0) == 1
        assert result.stats.get("dataport_bits_substituted", 0) == 2
        assert len(calls) == 1
        assert_equivalent(gold, m)

    @staticmethod
    def _word_query(module, sigmap):
        """The data word of :meth:`_word_module` and its path facts."""
        inner = next(
            cell for cell in module.cells.values()
            if cell.is_mux and cell.connections["S"][0].wire.name == "T"
        )
        facts = {
            sigmap.map_bit(module.wire(name)[0]): True for name in ("S", "T")
        }
        return list(inner.connections["B"]), facts

    @staticmethod
    def _pass_state(module, **options):
        """A SatRedundancy instance holding the state a traversal sees."""
        pass_ = SatRedundancy(**options)
        index = NetIndex(module)
        pass_.module, pass_.index, pass_.sigmap = module, index, index.sigmap
        pass_.result = PassResult(pass_.name)
        pass_._result_cache = None
        return pass_

    def test_capped_extraction_falls_back_to_per_bit(self, monkeypatch):
        """When the representative's BFS hits ``max_gates`` the group is
        answered bit by bit, with the per-bit decisions and counters."""
        def data(c, S, R):
            ones = c.or_(SigSpec([S[0]] * 2), R[:2])
            zeros = c.and_(c.not_(SigSpec([S[0]] * 2)), R[2:])
            return SigSpec(list(ones) + list(zeros))

        m = self._word_module(data)
        bits, facts = self._word_query(m, NetIndex(m).sigmap)
        for cached in (False, True):
            word = self._pass_state(m, max_gates=2)
            per_bit = self._pass_state(m, max_gates=2)
            if cached:
                word._result_cache = ResultCache()
                per_bit._result_cache = ResultCache()
            calls = self._count_data_extractions(monkeypatch)
            values = word._resolve_data_word(bits, facts)
            assert len(calls) == len(bits)  # every group hit the cap
            expected = [
                per_bit._deep_resolve(
                    per_bit.sigmap.map_bit(bit), facts, per_bit.data_k,
                    allow_solvers=False,
                )
                for bit in bits
            ]
            assert values == expected
            assert values[:2] == [True, True]  # the or group still decides
            assert word.result.stats == per_bit.result.stats
            monkeypatch.undo()

    def test_word_lookup_never_returns_single_bit_entry(self, monkeypatch):
        """A resolve entry in the single-target format over the same
        sub-graph (as older builds persisted) must not answer a word."""
        m = self._word_module(
            lambda c, S, R: SigSpec(list(c.or_(S, R[0])) + list(R[1:]))
        )
        gold = m.clone()
        state = self._pass_state(m)
        bits, facts = self._word_query(m, state.sigmap)
        subgraph = extract_subgraph(
            state.index, bits[0], facts, k=state.data_k,
            max_gates=state.max_gates,
        )
        cache = ResultCache()
        old_key = cache.key_for(
            "resolve", subgraph,
            extra=(False, state.sim_threshold, state.sat_threshold,
                   state.max_conflicts, True),
            sigmap=state.sigmap,
        )
        # a poisoned single-bit entry: "undecided", no counters
        cache.store(old_key, (None, ()))
        looked_up = []
        original = cache.lookup

        def recording(key):
            looked_up.append(key)
            return original(key)

        monkeypatch.setattr(cache, "lookup", recording)
        result = SatRedundancy(result_cache=cache).run(m)
        assert old_key not in looked_up
        assert any(key[0] == "resolve" and key[2][-1] == 1 for key in looked_up)
        assert result.stats.get("data_inferred", 0) == 1
        assert result.stats.get("dataport_bits_substituted", 0) == 1
        assert_equivalent(gold, m)


def _check_groups_exact(monkeypatch):
    """Wrap the group resolver: every member's own extraction must equal
    the representative's.  Returns the list of checked group sizes."""
    sizes = []
    original = SatRedundancy._resolve_data_group

    def checked(self, members, facts):
        rep = extract_subgraph(
            self.index, members[0], facts, k=self.data_k,
            max_gates=self.max_gates,
        )
        if rep.gates_before < self.max_gates:
            sizes.append(len(members))
            for cbit in members[1:]:
                own = extract_subgraph(
                    self.index, cbit, facts, k=self.data_k,
                    max_gates=self.max_gates,
                )
                assert [c.name for c in own.cells] == \
                    [c.name for c in rep.cells]
                assert own.inputs == rep.inputs
                assert own.known == rep.known
                assert own.gates_before == rep.gates_before
                assert own.gates_after == rep.gates_after
        return original(self, members, facts)

    monkeypatch.setattr(SatRedundancy, "_resolve_data_group", checked)
    return sizes


@pytest.mark.parametrize("seed", range(12))
def test_data_groups_share_one_subgraph_random(monkeypatch, seed):
    sizes = _check_groups_exact(monkeypatch)
    module = random_circuit(seed, n_ops=14, mux_bias=0.6)
    gold = module.clone()
    SatRedundancy().run(module)
    assert_equivalent(gold, module)
    assert any(size > 1 for size in sizes)


@pytest.mark.parametrize("name", ["ac97_ctrl", "wb_dma"])
def test_data_groups_share_one_subgraph_table2(monkeypatch, name):
    sizes = _check_groups_exact(monkeypatch)
    with Session(build_case(name)) as session:
        session.run("smartly")
    assert any(size > 1 for size in sizes)


class TestPmuxInteraction:
    def test_onehot_nested_pmux_collapses(self):
        c = Circuit("t")
        gnt = c.input("gnt", 2)
        words = [c.input(f"w{i}", 4) for i in range(4)]
        inner_branches = [
            (c.eq(gnt, SigSpec.from_const(j, 2)), words[j]) for j in range(3)
        ]
        inner = c.pmux(words[3], inner_branches)
        outer = c.pmux(words[0], [(c.eq(gnt, SigSpec.from_const(1, 2)), inner)])
        c.output("y", outer)
        m = c.module
        gold = m.clone()
        result = SatRedundancy().run(m)
        OptClean().run(m)
        # under eq(gnt,1)=1 the inner pmux always selects branch 1
        assert result.stats.get("muxes_bypassed", 0) >= 1
        assert_equivalent(gold, m)

    def test_obfuscated_equality_seen_through(self):
        """!(gnt != j) is eq(gnt, j) semantically; inference sees it."""
        c = Circuit("t")
        gnt = c.input("gnt", 2)
        a, b, d = c.input("a", 4), c.input("b", 4), c.input("d", 4)
        obf = c.logic_not(c.ne(gnt, SigSpec.from_const(1, 2)))
        inner = c.mux(a, b, obf)
        outer = c.pmux(d, [(c.eq(gnt, SigSpec.from_const(1, 2)), inner)])
        c.output("y", outer)
        m = c.module
        gold = m.clone()
        result = SatRedundancy().run(m)
        OptClean().run(m)
        assert result.stats.get("muxes_bypassed", 0) >= 1
        assert_equivalent(gold, m)


class TestStats:
    def test_subgraph_reduction_reported(self):
        m = _fig3("or")
        result = SatRedundancy().run(m)
        assert result.stats.get("subgraph_gates_before", 0) >= \
            result.stats.get("subgraph_gates_after", 0)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 100000))
def test_random_circuits_preserved(seed):
    module = random_circuit(seed, n_ops=12, mux_bias=0.6)
    gold = module.clone()
    SatRedundancy().run(module)
    OptClean().run(module)
    assert_equivalent(gold, module)
