"""Incremental SAT oracle: clause reuse, verdict memoization, counters.

The redundancy pass and the equivalence checker used to build a fresh
:class:`~repro.sat.solver.Solver` and re-encode their CNF for every single
query — the hottest path of the whole flow.  :class:`SatOracle` replaces
that with persistent *contexts*:

* one context per *target bit*, grown monotonically: every reduced
  sub-graph handed in for that target adds the not-yet-encoded cells to
  the context's solver, so the target's fanin cone — common to every
  fact-variant of the query — is encoded exactly once, and queries are
  answered through assumption-based incremental ``solve()`` calls —
  **monotonic clause reuse**.  Exactness argument: a reduced sub-graph is
  the union of the target's and the known bits' fanin cones inside the
  (facts-independent) distance-k neighbourhood, so any in-neighbourhood
  driver of one of its free inputs would itself be an ancestor of the
  target and therefore already inside the sub-graph.  Cells contributed
  by *other* fact-variants of the same target can consequently never
  drive a sub-graph input — they only define their own (otherwise
  unconstrained) outputs — so adding them cannot change any per-query
  SAT/UNSAT verdict, and the learned clauses they participate in are
  implied by circuit CNF independently of any assumption set;
* every encoded cell's :attr:`~repro.ir.module.Cell.version` is recorded
  and re-validated on each query — a cell rewired mid-pass (muxtree
  pruning mutates the netlist as it walks) invalidates the whole context,
  which is rebuilt from the current sub-graph rather than answered from a
  stale encoding;
* verdicts are memoized by a canonical ``(sub-graph signature, target,
  assumptions, polarity, budget)`` key, so repeated queries (the muxtree
  traversal asks about the same control bits along many paths, and
  fixpoint flows repeat whole pass invocations) skip the solver entirely.
  With ``structural_keys=True`` (the default) *decided* verdicts are
  additionally keyed by the canonical name-free structural signature
  (:func:`repro.ir.struct_hash.struct_signature`), so isomorphic
  sub-graphs — renamed regions of the same module, or repeated instances
  of the same logic shape — share SAT/UNSAT answers.  A decided polarity
  verdict is a semantic property of the structure, so sharing it is
  always sound; *budget-exhausted* (None) verdicts depend on the CNF
  variable order the solver happened to see, so they stay under the
  identity key — only ever replayed for the exact same sub-graph, the
  historic behaviour.

Per-session counters (:class:`OracleStats`) are merged into the owning
pass's :class:`~repro.opt.pass_base.PassResult` stats, which flow through
``pass_finished`` events on the :mod:`repro.events` bus and into
:class:`~repro.flow.session.RunReport` JSON.

The oracle itself never looks at path semantics: callers hand it a cell
set, facts, and a question.  :meth:`decide` packages the redundancy pass's
two-polarity protocol; :meth:`solve_miter` serves the equivalence checker,
proving each compared miter output with a fresh solver over that output's
fanin cone alone.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..ir.module import Cell, SigMap
from ..ir.signals import SigBit
from ..ir.struct_hash import StructKeyMemo
from .solver import Solver
from .tseitin import CircuitEncoder

#: content signature of an encoded cell set
Signature = Tuple[Tuple[str, int], ...]


class OracleStats:
    """Cumulative per-oracle counters (monotonic across generations)."""

    __slots__ = (
        "queries",
        "cache_hits",
        "solver_calls",
        "conflicts",
        "contexts_built",
        "contexts_reused",
        "cells_encoded",
        "learned_clauses",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def delta(self, base: Dict[str, int]) -> Dict[str, int]:
        """Counter increments since a previous :meth:`as_dict` snapshot."""
        return {
            name: getattr(self, name) - base.get(name, 0)
            for name in self.__slots__
        }


class Decision(NamedTuple):
    """Outcome of a two-polarity redundancy query (:meth:`SatOracle.decide`).

    ``value`` is the forced value of the target bit (None = undecided,
    which covers both genuinely-free targets and exhausted conflict
    budgets).  ``dead`` marks a contradiction: the path assumptions
    themselves are unsatisfiable, so neither polarity is reachable.
    """

    value: Optional[bool]
    dead: bool = False


class MiterVerdict(NamedTuple):
    """Outcome of :meth:`SatOracle.solve_miter`.

    ``verdict`` True = some compared output can differ (``model`` maps AIG
    input variables to the distinguishing values, ``output`` names that
    output), False = proven equivalent, None = conflict budget exhausted.
    """

    verdict: Optional[bool]
    model: Dict[int, bool]
    output: Optional[str]


class _Context:
    """One persistent solver accumulating the encodings of one target."""

    __slots__ = ("solver", "encoder", "encoded", "diff_lits")

    def __init__(self, sigmap: Optional[SigMap]):
        self.solver = Solver()
        self.encoder = CircuitEncoder(self.solver, sigmap)
        #: id(cell) -> (cell, version-at-encode) for staleness validation;
        #: the cell reference also pins the object so ids cannot recycle
        self.encoded: Dict[int, Tuple[Cell, int]] = {}
        #: memoized a!=b indicator literals for :meth:`SatOracle.equiv`
        self.diff_lits: Dict[Tuple[SigBit, SigBit], int] = {}

    def is_stale(self) -> bool:
        """True when any encoded cell was rewired since its encoding."""
        return any(
            cell.version != version for cell, version in self.encoded.values()
        )

    def extend(self, cells: Sequence[Cell]) -> int:
        """Encode the not-yet-encoded cells; returns how many were added."""
        added = 0
        for cell in cells:
            if id(cell) not in self.encoded:
                self.encoder.encode_cell(cell)
                self.encoded[id(cell)] = (cell, cell.version)
                added += 1
        return added


def signature_of(cells: Sequence[Cell]) -> Signature:
    """Content signature of a cell sequence (order-sensitive)."""
    return tuple((cell.name, cell.version) for cell in cells)


class SatOracle:
    """Persistent incremental SAT oracle for one module (or one CEC run).

    ``module`` is an identity anchor only: owners such as
    :class:`~repro.core.smartly.Smartly` keep one oracle per module and
    rebuild it when handed a different one.  ``max_contexts`` bounds
    memory with LRU eviction of whole solver contexts.
    ``structural_keys`` additionally memoizes decided :meth:`can_be`
    verdicts under canonical name-free structural signatures so
    isomorphic sub-graphs share answers (see the module docstring);
    :meth:`equiv` keys stay identity-only either way (its two-target
    queries serve the equivalence checker, which never crosses modules).

    A *generation* is one optimization-pass invocation: callers must open
    one with :meth:`begin_pass` before querying.  Contexts and verdicts
    never survive a generation change, because alias connections added by
    other passes can re-canonicalise bits between passes; counters do
    survive, giving per-session totals.
    """

    def __init__(
        self,
        module: Any = None,
        max_contexts: int = 256,
        max_verdicts: int = 200_000,
        structural_keys: bool = True,
        struct_memo: Optional[StructKeyMemo] = None,
    ):
        self.module = module
        self.max_contexts = max_contexts
        self.max_verdicts = max_verdicts
        self.stats = OracleStats()
        #: context key is the query target bit (one growing solver each)
        self._contexts: "OrderedDict[SigBit, _Context]" = OrderedDict()
        self._verdicts: Dict[Tuple, Optional[bool]] = {}
        self._sigmap: Optional[SigMap] = None
        #: canonical-labeling memo; None disables structural verdict
        #: sharing (the pure-identity reference path).  Owners that also
        #: hold a structural :class:`~repro.core.cache.ResultCache` pass
        #: its memo in, so the same sub-graph is canonicalized once for
        #: resolve keys, rung keys and verdict keys alike.
        if struct_memo is not None:
            self._struct_memo: Optional[StructKeyMemo] = struct_memo
        else:
            self._struct_memo = StructKeyMemo() if structural_keys else None

    # -- lifecycle -------------------------------------------------------------

    def begin_pass(self, sigmap: Optional[SigMap] = None) -> None:
        """Open a new generation bound to a pass's sigmap snapshot.

        Solver contexts never cross generations: their CNF is built
        against one sigmap snapshot, and alias connections added by other
        passes in between may re-canonicalise bits.  The *verdict* cache
        does survive — its keys embed the sub-graph's content signature
        (cell versions), free-input list, target and facts, all expressed
        in canonical bits, so any re-canonicalisation that could change a
        query's CNF also changes its key.  Fixpoint flows re-ask every
        undecided control query each round; those repeats are the cache's
        main customer.
        """
        self._contexts.clear()
        self._sigmap = sigmap

    # -- contexts --------------------------------------------------------------

    def _context_for(self, target: SigBit, cells: Sequence[Cell]) -> _Context:
        context = self._contexts.get(target)
        if context is not None and context.is_stale():
            del self._contexts[target]
            context = None
        if context is not None:
            self._contexts.move_to_end(target)
            self.stats.contexts_reused += 1
        else:
            context = _Context(self._sigmap)
            self.stats.contexts_built += 1
            self._contexts[target] = context
            if len(self._contexts) > self.max_contexts:
                self._contexts.popitem(last=False)
        self.stats.cells_encoded += context.extend(cells)
        return context

    def _solve(
        self,
        solver: Solver,
        assumptions: List[int],
        max_conflicts: Optional[int],
    ) -> Optional[bool]:
        before_conflicts = solver.stats.conflicts
        before_learned = len(solver.learned)
        verdict = solver.solve(assumptions, max_conflicts=max_conflicts)
        self.stats.solver_calls += 1
        self.stats.conflicts += solver.stats.conflicts - before_conflicts
        self.stats.learned_clauses += max(
            0, len(solver.learned) - before_learned
        )
        return verdict

    def _remember(self, key: Tuple, verdict: Optional[bool]) -> None:
        """Memoize a verdict, dropping the oldest half at the size cap.

        Netlist mutation permanently orphans every key that embeds an old
        cell version, so the cache must not grow with the lifetime of a
        long optimization run; plain-dict insertion order makes oldest-
        first eviction free.
        """
        if len(self._verdicts) >= self.max_verdicts:
            for stale in list(self._verdicts)[: self.max_verdicts // 2]:
                del self._verdicts[stale]
        self._verdicts[key] = verdict

    @staticmethod
    def _assumption_lits(
        context: _Context, known: Dict[SigBit, bool]
    ) -> List[int]:
        lit = context.encoder.lit
        return [lit(bit) if value else -lit(bit) for bit, value in known.items()]

    # -- queries ---------------------------------------------------------------

    def can_be(
        self,
        cells: Sequence[Cell],
        target: SigBit,
        value: bool,
        known: Dict[SigBit, bool],
        max_conflicts: Optional[int] = None,
        inputs: Sequence[SigBit] = (),
    ) -> Optional[bool]:
        """Can ``target`` take ``value`` under the ``known`` facts?

        True/False is a definite SAT/UNSAT verdict for the sub-graph CNF;
        None means the conflict budget ran out.  All three outcomes are
        memoized (None deterministically so, keyed by the budget).

        ``inputs`` — the sub-graph's free source bits — participates in
        the memo key only: it is what makes cached verdicts safe across
        pass generations, because alias connections that re-canonicalise
        a boundary bit change the input list (and alias-to-constant folds
        drop the bit from it) even when no sub-graph cell was rewired.
        """
        self.stats.queries += 1
        ident_key = (
            signature_of(cells),
            tuple(inputs),
            target,
            frozenset(known.items()),
            value,
            max_conflicts,
        )
        struct_key: Optional[Tuple] = None
        if self._struct_memo is not None:
            struct_key = (
                self._struct_memo.signature(
                    cells, target, known, inputs=inputs, sigmap=self._sigmap
                ),
                value,
                max_conflicts,
            )
            if struct_key in self._verdicts:
                self.stats.cache_hits += 1
                return self._verdicts[struct_key]
        if ident_key in self._verdicts:
            self.stats.cache_hits += 1
            return self._verdicts[ident_key]
        context = self._context_for(target, cells)
        assumptions = self._assumption_lits(context, known)
        target_lit = context.encoder.lit(target)
        assumptions.append(target_lit if value else -target_lit)
        verdict = self._solve(context.solver, assumptions, max_conflicts)
        # decided verdicts are structural facts; budget-outs are not (the
        # conflict count depends on the variable order this sub-graph's
        # encoding happened to produce), so they memoize per identity only
        if struct_key is not None and verdict is not None:
            self._remember(struct_key, verdict)
        else:
            self._remember(ident_key, verdict)
        return verdict

    def implies(
        self,
        cells: Sequence[Cell],
        target: SigBit,
        value: bool,
        known: Dict[SigBit, bool],
        max_conflicts: Optional[int] = None,
        inputs: Sequence[SigBit] = (),
    ) -> Optional[bool]:
        """Do the ``known`` facts force ``target`` to ``value``?

        True = proven (the opposite polarity is UNSAT); False = refuted
        (a model with the opposite polarity exists); None = budget out.
        ``inputs`` as in :meth:`can_be` — pass the sub-graph's free source
        bits whenever cached verdicts may outlive the current pass.
        """
        opposite = self.can_be(
            cells, target, not value, known, max_conflicts, inputs=inputs
        )
        if opposite is None:
            return None
        return not opposite

    def equiv(
        self,
        cells: Sequence[Cell],
        a: SigBit,
        b: SigBit,
        known: Optional[Dict[SigBit, bool]] = None,
        max_conflicts: Optional[int] = None,
        inputs: Sequence[SigBit] = (),
    ) -> Optional[bool]:
        """Are bits ``a`` and ``b`` equal for every sub-graph assignment?

        Encodes one ``d = a xor b`` indicator per (a, b) pair (memoized in
        the context — adding it is monotone) and asks whether ``d`` can be
        true.  True = proven equivalent, False = a distinguishing model
        exists, None = budget out.  ``inputs`` as in :meth:`can_be`.
        """
        self.stats.queries += 1
        signature = signature_of(cells)
        known = known or {}
        key = (signature, tuple(inputs), (a, b), frozenset(known.items()),
               "equiv", max_conflicts)
        if key in self._verdicts:
            self.stats.cache_hits += 1
            return self._verdicts[key]
        context = self._context_for(a, cells)
        diff = context.diff_lits.get((a, b))
        if diff is None:
            diff = context.encoder.fresh()
            context.encoder.def_xor(
                diff, context.encoder.lit(a), context.encoder.lit(b)
            )
            context.diff_lits[(a, b)] = diff
        assumptions = self._assumption_lits(context, known)
        assumptions.append(diff)
        sat = self._solve(context.solver, assumptions, max_conflicts)
        verdict = None if sat is None else not sat
        self._remember(key, verdict)
        return verdict

    def decide(self, subgraph: Any, max_conflicts: Optional[int] = None) -> Decision:
        """The redundancy pass's two-polarity protocol on a ``SubGraph``.

        Mirrors the historic fresh-solver ladder exactly: ask whether the
        target can be 1; if not, it is forced to 0 (additionally flagging
        a dead path when it cannot be 0 either); otherwise ask whether it
        can be 0, and a negative answer forces 1.
        """
        cells = subgraph.cells
        target = subgraph.target
        known = subgraph.known
        inputs = subgraph.inputs
        can_be_true = self.can_be(
            cells, target, True, known, max_conflicts, inputs=inputs
        )
        if can_be_true is False:
            can_be_false = self.can_be(
                cells, target, False, known, max_conflicts, inputs=inputs
            )
            return Decision(False, dead=can_be_false is False)
        can_be_false = self.can_be(
            cells, target, False, known, max_conflicts, inputs=inputs
        )
        if can_be_false is False:
            return Decision(True)
        return Decision(None)

    # -- miter solving (equivalence checking) ----------------------------------

    def solve_miter(
        self,
        aig: Any,
        outputs: Sequence[Tuple[str, int]],
        max_conflicts: Optional[int] = None,
    ) -> MiterVerdict:
        """Prove a miter silent one compared output at a time.

        ``outputs`` are the miter's ``(name, xor_literal)`` pairs (the
        outputs :func:`~repro.equiv.miter.build_miter` registers on
        ``aig``).  Outputs folded to constant 0 are skipped; each other
        output, in order, gets a fresh solver holding only its own fanin
        cone and is solved under its literal.  The first SAT stops the
        search: verdict True (circuits differ), ``output`` names the
        differing output, and ``model`` maps every AIG input variable
        1..n to its distinguishing value (inputs outside that output's
        cone are 0).  Verdict False = every output proven silent
        (equivalent).

        ``max_conflicts`` is one budget for the whole miter: each solve
        gets what the earlier ones left, and once it is spent the verdict
        is None (undecided), so the conflicts spent never exceed it.
        ``queries`` counts one per miter; ``solver_calls``, ``conflicts``
        and ``learned_clauses`` accumulate per output solve, so a harness
        running many checks gets one session total.
        """
        # local import: avoids a package cycle (aig.cnf imports sat.solver)
        from ..aig.cnf import aig_lit_to_solver_lit, aig_to_solver

        self.stats.queries += 1
        remaining = max_conflicts
        for name, lit in outputs:
            if lit == 0:  # XOR folded to constant 0: silent by construction
                continue
            if remaining is not None and remaining <= 0:
                return MiterVerdict(None, {}, None)
            solver, var_map = aig_to_solver(aig, [lit])
            assumption = aig_lit_to_solver_lit(lit, var_map, var_map[0])
            verdict = self._solve(solver, [assumption], remaining)
            if remaining is not None:
                remaining -= solver.stats.conflicts
            if verdict is None:
                return MiterVerdict(None, {}, None)
            if verdict:
                model = {
                    var: bool(var_map[var] and solver.model_value(var_map[var]))
                    for var in range(1, aig.num_inputs + 1)
                }
                return MiterVerdict(True, model, name)
        return MiterVerdict(False, {}, None)


__all__ = ["Decision", "MiterVerdict", "OracleStats", "SatOracle", "signature_of"]
