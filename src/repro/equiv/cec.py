"""SAT-based combinational equivalence checking.

``check_equivalence(gold, gate)`` mirrors the paper's "all results passed
equivalence checking": a fast random-simulation filter finds most
non-equivalences; the SAT check on the miter then proves equivalence or
produces a concrete counterexample assignment.  Either way a refutation
names the first compared output (in the gold module's output order) that
differs as :attr:`EquivResult.output`.

The SAT proof runs one compared output at a time
(:meth:`~repro.sat.oracle.SatOracle.solve_miter`): outputs whose XOR
structural hashing already folded to constant 0 are skipped, and each
remaining output gets a fresh solver holding only its own fanin cone, so
no solve branches on logic that cannot affect it.  The first satisfiable
output stops the search and its model is the counterexample.
``max_conflicts`` is one budget for the whole miter — each output solve
gets what the earlier ones left — so a budgeted check never spends more
than ``max_conflicts`` conflicts in total.

The SAT step runs through a :class:`~repro.sat.oracle.SatOracle` — pass
one in (``oracle=...``) to accumulate query/conflict counters across many
checks, e.g. a fuzzing session or ``Session.run_suite(check=True)``.

Decided SAT verdicts can additionally persist in an exportable
:class:`~repro.core.cache.ResultCache` (``cache=...``): the entry is keyed
``("cec", <miter structural digest>)`` where the digest covers the shared
miter AIG's input count, AND-node table and miter literal but *not* its
input names — the name-based port pairing is already baked into the node
structure, so renamed clones and replayed siblings that build the same
miter share the verdict, while independently built twins at worst miss
conservatively.  Only hard SAT verdicts are stored (never ``budget``,
``sim`` or ``fold`` outcomes), so a hit replays a proof, not a guess; a
cached non-equivalence carries no counterexample (``method="cached"``).
Unlike the oracle's in-process verdict memo, these entries survive
``export()``/``merge()`` warm-starts across processes.

Conflict-budget exhaustion is a first-class outcome: the returned
:class:`EquivResult` has ``equivalent=False`` **and** ``undecided=True``
(``method="budget"``), which is distinct from a proven non-equivalence
(``undecided=False`` with a counterexample).  Callers that need a hard
verdict should treat ``undecided`` results as failures, as
:func:`assert_equivalent` does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from ..ir.module import Module
from ..sat.oracle import SatOracle
from .miter import build_miter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache -> oracle)
    from ..core.cache import ResultCache


@dataclass
class EquivResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    #: "sim" when random simulation found the mismatch, "fold" when the
    #: miter folded to a constant, "budget" when the conflict budget ran
    #: out before a verdict, "cached" when a ResultCache replayed a prior
    #: SAT verdict (no counterexample on cached refutations), "sat"
    #: otherwise
    method: str = "sat"
    #: input-bit-name -> value for the distinguishing assignment (if any)
    counterexample: Dict[str, int] = field(default_factory=dict)
    sat_conflicts: int = 0
    #: True when the solver exhausted its conflict budget: neither proven
    #: equivalent nor refuted (no counterexample exists in this result)
    undecided: bool = False
    #: name of the first compared output (e.g. ``"y[3]"``, ``"r0.D[2]"``)
    #: that differs under ``counterexample``; None unless a simulation or
    #: SAT refutation produced one
    output: Optional[str] = None

    def __bool__(self) -> bool:
        return self.equivalent


def check_equivalence(
    gold: Module,
    gate: Module,
    random_vectors: int = 256,
    seed: int = 0,
    max_conflicts: Optional[int] = None,
    oracle: Optional[SatOracle] = None,
    cache: Optional["ResultCache"] = None,
) -> EquivResult:
    """Prove or refute combinational equivalence of two modules.

    When ``max_conflicts`` is given and the solver cannot settle the
    question within the budget, the result is *undecided*
    (``EquivResult(False, method="budget", undecided=True)``) rather than
    a claim in either direction.  ``cache`` persists decided SAT verdicts
    under the miter's structural digest (see module docs); only
    structural-mode caches participate.
    """
    aig, miter_lit = build_miter(gold, gate)

    cec_key = None
    if cache is not None and cache.structural:
        cec_key = ("cec", aig.structural_digest(miter_lit))
        hit, verdict = cache.lookup(cec_key)
        if hit:
            return EquivResult(bool(verdict), method="cached")

    # 1. random-simulation filter
    if random_vectors > 0 and aig.num_inputs > 0:
        rng = random.Random(seed)
        masks = [rng.getrandbits(random_vectors) for _ in range(aig.num_inputs)]
        values = aig.eval_masks(masks, nvec=random_vectors)

        def lit_val(lit: int) -> int:
            mask = (1 << random_vectors) - 1
            if lit >> 1 == 0:
                value = 0
            else:
                value = values[lit >> 1]
            return (~value & mask) if lit & 1 else value

        diff = lit_val(miter_lit)
        if diff:
            vector = (diff & -diff).bit_length() - 1  # lowest set bit
            cex = {
                name: (masks[i] >> vector) & 1
                for i, name in enumerate(aig.input_names)
            }
            output = next(
                name for name, lit in aig.outputs if (lit_val(lit) >> vector) & 1
            )
            return EquivResult(
                False, method="sim", counterexample=cex, output=output
            )

    # 2. SAT proof on the miter
    if miter_lit >> 1 == 0:
        # miter folded to a constant during construction
        miter_is_true = miter_lit & 1 == 1
        return EquivResult(not miter_is_true, method="fold")
    if oracle is None:
        oracle = SatOracle()
    conflicts_before = oracle.stats.conflicts
    verdict, model, output = oracle.solve_miter(
        aig, aig.outputs, max_conflicts
    )
    conflicts = oracle.stats.conflicts - conflicts_before
    if verdict is None:
        return EquivResult(
            False, method="budget", sat_conflicts=conflicts, undecided=True
        )
    if verdict is False:
        if cec_key is not None:
            cache.store(cec_key, True)
        return EquivResult(True, method="sat", sat_conflicts=conflicts)
    cex = {
        name: int(model.get(i + 1, False))
        for i, name in enumerate(aig.input_names)
    }
    if cec_key is not None:
        cache.store(cec_key, False)
    return EquivResult(
        False, method="sat", counterexample=cex, sat_conflicts=conflicts,
        output=output,
    )


def assert_equivalent(gold: Module, gate: Module, **kwargs) -> None:
    """Raise AssertionError unless the modules are *proven* equivalent.

    Both a found counterexample and an exhausted conflict budget raise —
    an undecided check is not a pass."""
    result = check_equivalence(gold, gate, **kwargs)
    if result.undecided:
        raise AssertionError(
            f"equivalence of {gold.name!r} and {gate.name!r} is UNDECIDED: "
            f"conflict budget exhausted after {result.sat_conflicts} conflicts"
        )
    if not result.equivalent:
        raise AssertionError(
            f"modules {gold.name!r} and {gate.name!r} are NOT equivalent "
            f"(found by {result.method}); counterexample: {result.counterexample}"
        )
