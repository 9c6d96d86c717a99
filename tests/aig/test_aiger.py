"""AIGER ASCII writer/reader round-trips."""

import pytest

from repro.aig import AIG, aiger_str, read_aiger
from repro.ir import Circuit
from repro.aig import aig_map


def _sample_aig():
    aig = AIG()
    a, b = aig.add_input("a"), aig.add_input("b")
    aig.add_output(aig.xor(a, b), "y")
    return aig


def test_header_counts():
    aig = _sample_aig()
    header = aiger_str(aig).splitlines()[0].split()
    assert header[0] == "aag"
    assert int(header[2]) == 2  # inputs
    assert int(header[4]) == 1  # outputs
    assert int(header[5]) == 3  # ands (xor = 3)


def test_roundtrip_preserves_function():
    aig = _sample_aig()
    back = read_aiger(aiger_str(aig))
    for a in (0, 1):
        for b in (0, 1):
            assert aig.eval_outputs([a, b]) == back.eval_outputs([a, b])


def test_symbols_preserved():
    aig = _sample_aig()
    back = read_aiger(aiger_str(aig))
    assert back.input_names == ["a", "b"]
    assert back.outputs[0][0] == "y"


def test_roundtrip_real_netlist():
    c = Circuit("t")
    a, b = c.input("a", 4), c.input("b", 4)
    s = c.input("s")
    c.output("y", c.mux(c.add(a, b), c.sub(a, b), s))
    aig = aig_map(c.module)
    back = read_aiger(aiger_str(aig))
    assert back.num_ands == aig.num_ands
    vec = [1, 0, 1, 1, 0, 1, 0, 0, 1]
    assert aig.eval_outputs(vec) == back.eval_outputs(vec)


def test_reader_rejects_latches():
    with pytest.raises(ValueError):
        read_aiger("aag 1 0 1 0 0\n2 2\n")


def test_reader_rejects_bad_header():
    with pytest.raises(ValueError):
        read_aiger("not an aiger file")
    with pytest.raises(ValueError):
        read_aiger("")


#: inputs declared out of variable order: i0 is literal 4, i1 literal 2
SWAPPED_INPUTS = "aag 3 2 0 1 1\n4\n2\n6\n6 4 3\ni0 a\ni1 b\no0 y\n"


def test_reader_binds_declared_input_literals():
    aig = read_aiger(SWAPPED_INPUTS)
    assert aig.input_names == ["a", "b"]
    for a in (0, 1):
        for b in (0, 1):
            assert aig.eval_outputs([a, b]) == [a & (1 - b)]  # y = a & !b


def test_reader_renumbers_sparse_and_variables():
    # variable 3 is unused; the AND is variable 4
    aig = read_aiger("aag 4 2 0 1 1\n2\n4\n8\n8 2 4\n")
    assert aig.num_ands == 1
    for a in (0, 1):
        for b in (0, 1):
            assert aig.eval_outputs([a, b]) == [a & b]


@pytest.mark.parametrize("text", [
    "aag 3 2 0 1 1\n2\n4\n8\n6 2 4\n",        # output literal undefined
    "aag 3 2 0 1 1\n2\n2\n6\n6 2 4\n",        # input defined twice
    "aag 4 2 0 1 2\n2\n4\n6\n6 2 4\n6 2 5\n",  # AND defined twice
    "aag 3 2 0 1 1\n2\n4\n6\n4 2 2\n",        # AND redefines an input
    "aag 4 2 0 1 2\n2\n4\n6\n6 2 8\n8 2 4\n",  # fanin defined after its AND
    "aag 3 2 0 1 1\n2\n4\n7\n7 2 4\n",        # odd left-hand side
    "aag 3 2 0 1 1\n2\n4\n8\n8 2 4\n",        # left-hand side beyond M
    "aag 2 2 0 1 1\n2\n4\n6\n6 2 4\n",        # M below I + A
    "aag 3 2 0 1 1\n2\n4\n6\n",               # truncated body
    "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni2 c\n",  # symbol for no input
])
def test_reader_rejects_malformed_literals(text):
    with pytest.raises(ValueError):
        read_aiger(text)
