"""Unit tests for State / Wire / SigBit / SigSpec."""

import pytest
from hypothesis import given, strategies as st

from repro.ir import BIT0, BIT1, BITX, SigBit, SigSpec, State, Wire, concat, const_bit


class TestState:
    def test_from_bool(self):
        assert State.from_bool(True) is State.S1
        assert State.from_bool(False) is State.S0

    def test_invert(self):
        assert ~State.S0 is State.S1
        assert ~State.S1 is State.S0
        assert ~State.Sx is State.Sx

    def test_is_defined(self):
        assert State.S0.is_defined and State.S1.is_defined
        assert not State.Sx.is_defined

    def test_to_bool_raises_on_x(self):
        with pytest.raises(ValueError):
            State.Sx.to_bool()

    def test_str(self):
        assert [str(s) for s in (State.S0, State.S1, State.Sx)] == ["0", "1", "x"]


class TestWire:
    def test_basic(self):
        w = Wire("a", 8, port_input=True)
        assert w.width == 8 and w.is_port and len(w) == 8

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            Wire("a", 0)

    def test_rejects_inout(self):
        with pytest.raises(ValueError):
            Wire("a", 1, port_input=True, port_output=True)

    def test_indexing_yields_bits(self):
        w = Wire("a", 4)
        bit = w[2]
        assert isinstance(bit, SigBit)
        assert bit.wire is w and bit.offset == 2


class TestSigBit:
    def test_const_interning(self):
        assert const_bit(0) is BIT0
        assert const_bit(1) is BIT1
        assert const_bit(State.Sx) is BITX
        assert const_bit(True) is BIT1

    def test_equality_semantics(self):
        w = Wire("a", 2)
        assert SigBit(w, 1) == SigBit(w, 1)
        assert SigBit(w, 0) != SigBit(w, 1)
        other = Wire("a", 2)  # same name, different wire object
        assert SigBit(w, 0) != SigBit(other, 0)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            BIT0.offset = 1

    def test_needs_exactly_one_of_wire_state(self):
        with pytest.raises(ValueError):
            SigBit()
        with pytest.raises(ValueError):
            SigBit(Wire("a"), 0, State.S0)

    def test_offset_range_checked(self):
        with pytest.raises(IndexError):
            SigBit(Wire("a", 2), 5)

    def test_wire_bits_are_interned(self):
        w = Wire("a", 3)
        assert SigBit(w, 1) is SigBit(w, 1)
        assert w[1] is SigBit(w, 1) and w[-1] is SigBit(w, 2)
        assert SigSpec.from_wire(w)[0] is SigBit(w, 0)
        assert SigBit(w, 0) is not SigBit(Wire("a", 3), 0)

    def test_const_constructor_returns_singletons(self):
        assert SigBit(state=State.S1) is BIT1
        assert SigBit(state=State.S0) is BIT0
        assert SigBit(state=State.Sx) is BITX

    def test_wire_index_out_of_range(self):
        w = Wire("a", 2)
        with pytest.raises(IndexError):
            w[2]
        with pytest.raises(IndexError):
            SigBit(w, -1)

    def test_const_value(self):
        assert BIT1.const_value() is State.S1
        with pytest.raises(ValueError):
            SigBit(Wire("a"), 0).const_value()


class TestSigSpec:
    def test_from_const_lsb_first(self):
        spec = SigSpec.from_const(0b1010, 4)
        assert [b.state for b in spec] == [State.S0, State.S1, State.S0, State.S1]
        assert spec.const_value() == 0b1010

    def test_from_const_truncates_negative(self):
        assert SigSpec.from_const(-1, 4).const_value() == 0xF

    def test_from_pattern_msb_first(self):
        spec = SigSpec.from_pattern("01x")
        assert spec[2].state is State.S0
        assert spec[1].state is State.S1
        assert spec[0].state is State.Sx
        assert spec.const_value() is None
        assert spec.is_const and not spec.is_fully_defined

    def test_pattern_z_and_question_become_x(self):
        assert all(b is BITX for b in SigSpec.from_pattern("z?"))

    def test_pattern_rejects_junk(self):
        with pytest.raises(ValueError):
            SigSpec.from_pattern("02")

    def test_coerce_variants(self):
        w = Wire("a", 3)
        assert len(SigSpec.coerce(w)) == 3
        assert SigSpec.coerce(5, 4).const_value() == 5
        assert SigSpec.coerce(BIT1) == SigSpec([BIT1])
        assert SigSpec.coerce([1, 0]) == SigSpec([BIT1, BIT0])
        assert SigSpec.coerce(True).const_value() == 1

    def test_coerce_extends_to_width(self):
        assert SigSpec.coerce(1, 4).const_value() == 1
        assert len(SigSpec.coerce(Wire("a", 2), 4)) == 4

    def test_slicing(self):
        spec = SigSpec.from_const(0b1100, 4)
        low = spec[0:2]
        assert isinstance(low, SigSpec) and low.const_value() == 0
        assert spec[2:4].const_value() == 0b11

    def test_concat_lsb_first(self):
        a = SigSpec.from_const(0b01, 2)
        b = SigSpec.from_const(0b1, 1)
        combined = a.concat(b)
        assert combined.const_value() == 0b101

    def test_concat_function(self):
        assert concat(1, 0, 1).const_value() == 0b101

    def test_repeat(self):
        assert SigSpec.from_const(1, 1).repeat(3).const_value() == 0b111

    def test_extend_zero_and_sign(self):
        spec = SigSpec.from_const(0b10, 2)
        assert spec.extend(4).const_value() == 0b0010
        assert spec.extend(4, signed=True).const_value() == 0b1110
        assert spec.extend(1).const_value() == 0

    def test_wires_dedup(self):
        w1, w2 = Wire("a", 2), Wire("b", 2)
        spec = SigSpec.from_wire(w1).concat(SigSpec.from_wire(w2)).concat(
            SigSpec.from_wire(w1)
        )
        assert spec.wires() == [w1, w2]

    def test_hash_equality(self):
        a = SigSpec.from_const(3, 2)
        b = SigSpec.from_const(3, 2)
        assert a == b and hash(a) == hash(b)

    def test_repr_collapses_runs(self):
        w = Wire("data", 4)
        text = repr(SigSpec.from_wire(w))
        assert "data" in text

    @given(st.integers(min_value=0, max_value=2**16 - 1), st.integers(1, 16))
    def test_const_roundtrip(self, value, width):
        spec = SigSpec.from_const(value, width)
        assert spec.const_value() == value % (1 << width)

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_concat_value_composition(self, lo, hi):
        spec = concat(SigSpec.from_const(lo, 8), SigSpec.from_const(hi, 8))
        assert spec.const_value() == lo | (hi << 8)

    @given(st.integers(0, 2**12 - 1), st.integers(0, 11), st.integers(1, 12))
    def test_slice_matches_shift(self, value, start, length):
        spec = SigSpec.from_const(value, 12)
        piece = spec[start:start + length]
        expected = (value >> start) & ((1 << len(piece)) - 1)
        assert piece.const_value() == expected


def _small_module():
    from repro.ir import CellType, Module

    module = Module("m")
    a = module.add_wire("a", 2, port_input=True)
    a.attributes["src"] = "m.v:1"
    b = module.add_wire("b", 2, port_input=True)
    y = module.add_wire("y", 2, port_output=True)
    cell = module.add_cell(CellType.AND, name="g", A=a, B=b)
    module.connect(y, cell.connections["Y"])
    return module


class TestInterningAcrossCopies:
    @pytest.mark.parametrize("how", ["pickle", "deepcopy"])
    def test_copies_intern_on_new_wires(self, how):
        import copy
        import pickle

        module = _small_module()
        if how == "pickle":
            dup = pickle.loads(pickle.dumps(module))
        else:
            dup = copy.deepcopy(module)
        a = dup.wires["a"]
        assert a is not module.wires["a"]
        assert a.attributes == {"src": "m.v:1"}
        assert a.width == 2 and a.port_input
        bits = dup.cells["g"].connections["A"]
        assert all(bit is SigBit(a, i) for i, bit in enumerate(bits))
        lhs, rhs = dup.connections[0]
        assert lhs[0] is SigBit(dup.wires["y"], 0)
        assert rhs[0] is dup.cells["g"].connections["Y"][0]

    def test_constants_survive_pickle_and_deepcopy(self):
        import copy
        import pickle

        for bit in (BIT0, BIT1, BITX):
            assert pickle.loads(pickle.dumps(bit)) is bit
            assert copy.deepcopy(bit) is bit

    def test_clone_bits_are_distinct(self):
        module = _small_module()
        clone = module.clone()
        old = module.cells["g"].connections["A"]
        new = clone.cells["g"].connections["A"]
        assert all(x is not y for x, y in zip(old, new))
        assert new[0] is SigBit(clone.wires["a"], 0)
        assert clone.wires["a"].attributes == {"src": "m.v:1"}
