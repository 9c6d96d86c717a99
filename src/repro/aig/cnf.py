"""AIG-to-CNF translation for SAT-based equivalence checking.

Each encoded AIG variable becomes one solver variable; AND nodes get the
standard three clauses.  Much leaner than word-level Tseitin for miter
solving.  Given root literals, only their transitive fanin cone is
encoded, so a solver proving one miter output never sees (or branches on)
the logic of the others.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..sat.solver import Solver
from .aig import AIG


def aig_to_solver(
    aig: AIG, roots: Sequence[int] = (), solver: Optional[Solver] = None
) -> Tuple[Solver, List[int]]:
    """Encode the AIG (or the fanin cone of ``roots``); returns ``(solver, var_map)``.

    ``var_map[v]`` is the solver variable for AIG variable ``v`` (index 0
    holds the constant-true solver variable so AIG literal translation is
    uniform); it is 0 for variables outside the encoded cone.  With no
    ``roots`` every variable is encoded.  Cone variables are numbered in
    ascending AIG-variable order, so the CNF — and every solver count that
    depends on it — is independent of hash seeds.
    """
    if solver is None:
        solver = Solver()
    const_var = solver.new_var()
    solver.add_clause([const_var])  # AIG var 0 is constant FALSE; lit 1 TRUE
    var_map: List[int] = [0] * (aig.max_var + 1)
    var_map[0] = const_var
    if roots:
        cone = _cone_vars(aig, roots)
    else:
        cone = range(1, aig.max_var + 1)
    for var in cone:
        var_map[var] = solver.new_var()

    base_var = aig.num_inputs + 1
    for var in cone:
        if var < base_var:
            continue
        f0, f1 = aig._ands[var - base_var]
        y = var_map[var]
        a = aig_lit_to_solver_lit(f0, var_map, const_var)
        b = aig_lit_to_solver_lit(f1, var_map, const_var)
        solver.add_clause([-a, -b, y])
        solver.add_clause([a, -y])
        solver.add_clause([b, -y])
    return solver, var_map


def _cone_vars(aig: AIG, roots: Sequence[int]) -> List[int]:
    """Non-constant variables in the transitive fanin of ``roots``, ascending."""
    base_var = aig.num_inputs + 1
    ands = aig._ands
    seen = set()
    stack = [lit >> 1 for lit in roots]
    while stack:
        var = stack.pop()
        if var == 0 or var in seen:
            continue
        seen.add(var)
        if var >= base_var:
            f0, f1 = ands[var - base_var]
            stack.append(f0 >> 1)
            stack.append(f1 >> 1)
    return sorted(seen)


def aig_lit_to_solver_lit(aig_lit: int, var_map: List[int], const_var: int) -> int:
    """Translate one AIG literal given the map from :func:`aig_to_solver`."""
    if aig_lit >> 1 == 0:
        base = -const_var
    else:
        base = var_map[aig_lit >> 1]
    return -base if aig_lit & 1 else base
