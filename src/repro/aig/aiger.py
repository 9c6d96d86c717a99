"""AIGER ASCII (``aag``) export/import.

Only the combinational subset is supported (no latches), which matches how
this library uses AIGs: flip-flop boundaries are cut before mapping.
"""

from __future__ import annotations

from typing import Dict, List, TextIO, Union

from .aig import AIG


def write_aiger(aig: AIG, stream: TextIO, symbols: bool = True) -> None:
    """Write the AIG in ASCII AIGER 1.9 ``aag`` format."""
    m = aig.max_var
    i = aig.num_inputs
    a = aig.num_ands
    o = len(aig.outputs)
    stream.write(f"aag {m} {i} 0 {o} {a}\n")
    for k in range(1, i + 1):
        stream.write(f"{2 * k}\n")
    for _name, lit in aig.outputs:
        stream.write(f"{lit}\n")
    base = i + 1
    for k, (f0, f1) in enumerate(aig._ands):
        lhs = 2 * (base + k)
        hi, lo = max(f0, f1), min(f0, f1)
        stream.write(f"{lhs} {hi} {lo}\n")
    if symbols:
        for k, name in enumerate(aig.input_names):
            stream.write(f"i{k} {name}\n")
        for k, (name, _lit) in enumerate(aig.outputs):
            stream.write(f"o{k} {name}\n")
        stream.write("c\nrepro smaRTLy aigmap\n")


def aiger_str(aig: AIG) -> str:
    import io

    buffer = io.StringIO()
    write_aiger(aig, buffer)
    return buffer.getvalue()


def read_aiger(source: Union[str, TextIO]) -> AIG:
    """Parse an ASCII AIGER file (combinational subset, no latches).

    File variables are renumbered into :class:`AIG` order — inputs in
    declaration order, then AND nodes in file order — so any valid
    numbering reads back with its declared literals.  AND nodes are kept
    as written (no folding or re-hashing), preserving the node count.
    Raises ``ValueError`` for a malformed header or body, a latch, a
    left-hand side that is odd or out of range, a literal that is
    undefined, defined twice or used by an AND before its definition, and
    a header ``M`` smaller than the variables the file defines.
    """
    if isinstance(source, str):
        lines: List[str] = source.splitlines()
    else:
        lines = source.read().splitlines()
    if not lines:
        raise ValueError("empty AIGER input")
    header = lines[0].split()
    if len(header) < 6 or header[0] != "aag":
        raise ValueError(f"bad AIGER header: {lines[0]!r}")
    m, i, latches, o, a = (int(x) for x in header[1:6])
    if latches:
        raise ValueError("latches are not supported")
    if m < i + a:
        raise ValueError(f"header M={m} is smaller than the {i + a} "
                         "variables the file defines")
    if len(lines) < 1 + i + o + a:
        raise ValueError("AIGER body is shorter than its header declares")
    #: file variable -> AIG variable (0 is constant false in both)
    var_map: Dict[int, int] = {0: 0}

    def define(lit: int, var: int) -> None:
        if lit & 1 or not 2 <= lit <= 2 * m:
            raise ValueError(
                f"left-hand side {lit} is not an even literal in 2..{2 * m}"
            )
        if lit >> 1 in var_map:
            raise ValueError(f"literal {lit} is defined twice")
        var_map[lit >> 1] = var

    def resolve(lit: int, user: str) -> int:
        var = var_map.get(lit >> 1)
        if var is None:
            raise ValueError(
                f"{user} uses literal {lit}, which is undefined at that point"
            )
        return 2 * var + (lit & 1)

    body = lines[1:1 + i + o + a]
    for k in range(i):
        define(int(body[k]), k + 1)
    output_lits = [int(line) for line in body[i:i + o]]
    aig = AIG()
    aig.input_names = [f"i{k}" for k in range(i)]
    # ANDs must be declared in topological order in valid files
    for k, line in enumerate(body[i + o:]):
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"bad AND line: {line!r}")
        lhs, f0, f1 = (int(x) for x in fields)
        r0 = resolve(f0, f"AND {lhs}")
        r1 = resolve(f1, f"AND {lhs}")
        define(lhs, i + 1 + k)
        key = (min(r0, r1), max(r0, r1))
        aig._ands.append(key)
        aig._strash.setdefault(key, 2 * (i + 1 + k))
    outputs = [resolve(lit, f"output {k}") for k, lit in enumerate(output_lits)]
    output_names = [f"o{k}" for k in range(o)]
    # symbol table
    for line in lines[1 + i + o + a:]:
        if line.startswith("c"):
            break
        if line[:1] in ("i", "o"):
            idx, name = line[1:].split(" ", 1)
            k = int(idx)
            names = aig.input_names if line[0] == "i" else output_names
            if not 0 <= k < len(names):
                raise ValueError(f"symbol {line!r} names no declared literal")
            names[k] = name
    aig.outputs = list(zip(output_names, outputs))
    return aig
