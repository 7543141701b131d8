"""Finite-domain search over binary variables.

The engine takes hard constraints (forbidden assignment patterns and
guarded requirements) plus, for soft models, semiring cost terms with
an acceptance threshold. Search is depth-first with forward checking:
when all but one literal of a forbidden pattern already holds, the
remaining variable is forced away from it. Guarded requirements
propagate once their guard is entailed. For thresholded models a
branch is cut as soon as the cost already incurred can no longer meet
the threshold, which is sound because combination is monotone.

One iterative walk (``_Solver.leaves``) serves every search: it keeps an
explicit stack instead of recursing, so the number of variables is not
bounded by the interpreter's recursion limit. Enumeration, budget
solving and the branch-and-bound ``blevel`` differ only in the bound
that decides whether a branch is kept.

Search is deterministic for a fixed model and configuration, including
the seeded value-ordering heuristic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterator, Sequence

from .model import Extension, ExtensionSet, iter_bits
from .semiring import Semiring, SemiringValue

# A total assignment maps variable index -> 0/1, kept as a plain tuple.
Assignment = tuple[int, ...]

MOST_CONSTRAINED_STATIC = "most-constrained-static"
INPUT_ORDER = "input-order"
VAR_HEURISTICS = (MOST_CONSTRAINED_STATIC, INPUT_ORDER)

ONE_FIRST = "one-first"
ZERO_FIRST = "zero-first"
SEEDED_RANDOM = "seeded-random"
VAL_HEURISTICS = (ONE_FIRST, ZERO_FIRST, SEEDED_RANDOM)

DEFAULT_TIMEOUT_MS = 180_000


@dataclass(frozen=True, slots=True)
class Literal:
    """Variable index plus the value (0 or 1) the literal requires."""

    var: int
    value: int

    def __post_init__(self) -> None:
        if self.var < 0:
            raise ValueError("variable index must be non-negative")
        if self.value not in (0, 1):
            raise ValueError("literal value must be 0 or 1")


def _distinct_vars(literals: Sequence[Literal], what: str) -> None:
    seen = set()
    for lit in literals:
        if lit.var in seen:
            raise ValueError(f"{what} mentions variable {lit.var} twice")
        seen.add(lit.var)


@dataclass(frozen=True)
class Nogood:
    """A forbidden partial assignment: not all literals may hold at once."""

    literals: tuple[Literal, ...]

    def __post_init__(self) -> None:
        if not self.literals:
            raise ValueError("a nogood needs at least one literal")
        _distinct_vars(self.literals, "nogood")


@dataclass(frozen=True)
class ConditionalRequirement:
    """Whenever the guard holds, the consequence must hold.

    Both sides are conjunctions of disjunctive clauses; an empty guard
    is always true, and single-literal clauses express plain
    conjunctions.
    """

    guard: tuple[tuple[Literal, ...], ...]
    consequence: tuple[tuple[Literal, ...], ...]

    def __post_init__(self) -> None:
        if not self.consequence:
            raise ValueError("a conditional requirement needs a consequence")
        for clause in self.guard + self.consequence:
            if not clause:
                raise ValueError("clauses must not be empty")
            _distinct_vars(clause, "clause")


@dataclass(frozen=True)
class CostTerm:
    """A cost incurred exactly when every trigger literal holds."""

    trigger: tuple[Literal, ...]
    cost: SemiringValue

    def __post_init__(self) -> None:
        if not self.trigger:
            raise ValueError("a cost term needs at least one trigger literal")
        _distinct_vars(self.trigger, "cost trigger")


@dataclass(frozen=True)
class Model:
    """Binary variables plus the constraints and costs over them."""

    num_vars: int
    nogoods: tuple[Nogood, ...] = ()
    conditionals: tuple[ConditionalRequirement, ...] = ()
    cost_terms: tuple[CostTerm, ...] = ()
    semiring: "Semiring | None" = None
    threshold: "SemiringValue | None" = None

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("variable count must be non-negative")
        for lit in self._all_literals():
            if lit.var >= self.num_vars:
                raise ValueError(f"literal over variable {lit.var} outside the model")
        if self.cost_terms and self.semiring is None:
            raise ValueError("cost terms require a semiring")
        if self.threshold is not None:
            if self.semiring is None:
                raise ValueError("a threshold requires a semiring")
            self.semiring.validate(self.threshold)
        if self.semiring is not None:
            for term in self.cost_terms:
                self.semiring.validate(term.cost)

    def _all_literals(self):
        for ng in self.nogoods:
            yield from ng.literals
        for cond in self.conditionals:
            for clause in cond.guard + cond.consequence:
                yield from clause
        for term in self.cost_terms:
            yield from term.trigger


@dataclass(frozen=True)
class SearchConfig:
    """Search knobs: orderings, seed, timeout and optional solution cap."""

    var_heuristic: str = MOST_CONSTRAINED_STATIC
    val_heuristic: str = ONE_FIRST
    seed: "int | None" = None
    timeout_ms: float = DEFAULT_TIMEOUT_MS
    solution_cap: "int | None" = None

    def __post_init__(self) -> None:
        if self.var_heuristic not in VAR_HEURISTICS:
            raise ValueError(f"unknown variable heuristic {self.var_heuristic!r}")
        if self.val_heuristic not in VAL_HEURISTICS:
            raise ValueError(f"unknown value heuristic {self.val_heuristic!r}")
        if self.val_heuristic == SEEDED_RANDOM and self.seed is None:
            raise ValueError("the seeded-random value heuristic needs a seed")
        if self.timeout_ms <= 0:
            raise ValueError("timeout must be positive")
        if self.solution_cap is not None and self.solution_cap < 1:
            raise ValueError("solution cap must be at least 1")


@dataclass(frozen=True)
class SolveOutcome:
    """Solutions plus completeness flag and search statistics."""

    solutions: ExtensionSet
    complete: bool
    elapsed_ms: float
    nodes: int
    seed: "int | None" = None


def _masks(literals) -> tuple[int, int]:
    pos = neg = 0
    for lit in literals:
        if lit.value:
            pos |= 1 << lit.var
        else:
            neg |= 1 << lit.var
    return pos, neg


class _Solver:
    def __init__(self, model: Model, config: SearchConfig):
        self.model = model
        self.config = config
        n = model.num_vars
        self.n = n
        self.full_mask = (1 << n) - 1

        self.nogood_masks = [_masks(ng.literals) for ng in model.nogoods]
        self.cond_masks = [
            (
                [_masks(clause) for clause in cond.guard],
                [_masks(clause) for clause in cond.consequence],
            )
            for cond in model.conditionals
        ]
        self.cost_masks = [(*_masks(term.trigger), term.cost) for term in model.cost_terms]

        self.watch_ng: list[list[int]] = [[] for _ in range(n)]
        for idx, (pos, neg) in enumerate(self.nogood_masks):
            for var in iter_bits(pos | neg):
                self.watch_ng[var].append(idx)
        self.watch_cd: list[list[int]] = [[] for _ in range(n)]
        for idx, (guard, cons) in enumerate(self.cond_masks):
            involved = 0
            for pos, neg in guard + cons:
                involved |= pos | neg
            for var in iter_bits(involved):
                self.watch_cd[var].append(idx)

        self.order = self._static_order()
        self.rng = Random(config.seed) if config.val_heuristic == SEEDED_RANDOM else None

        self.assigned = 0
        self.values = 0
        self.trail: list[int] = []
        self.nodes = 0
        self.complete = True

    def _static_order(self) -> list[int]:
        if self.config.var_heuristic == INPUT_ORDER:
            return list(range(self.n))
        counts = [0] * self.n
        for lit in self.model._all_literals():
            counts[lit.var] += 1
        return sorted(range(self.n), key=lambda v: (-counts[v], v))

    # -- propagation ---------------------------------------------------

    def _set(self, var: int, value: int) -> None:
        bit = 1 << var
        self.assigned |= bit
        if value:
            self.values |= bit
        else:
            self.values &= ~bit
        self.trail.append(var)

    def _undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            var = self.trail.pop()
            bit = 1 << var
            self.assigned &= ~bit
            self.values &= ~bit

    def _force(self, var: int, value: int, queue: list[int]) -> bool:
        bit = 1 << var
        if self.assigned & bit:
            return (self.values >> var & 1) == value
        self._set(var, value)
        queue.append(var)
        return True

    def _check_nogood(self, idx: int, queue: list[int]) -> bool:
        pos, neg = self.nogood_masks[idx]
        assigned, values = self.assigned, self.values
        # Some literal already failed: the pattern can never complete.
        if (pos & assigned & ~values) | (neg & assigned & values):
            return True
        pending = (pos | neg) & ~assigned
        if pending == 0:
            return False  # every literal holds: forbidden pattern reached
        if pending & (pending - 1) == 0:
            var = pending.bit_length() - 1
            return self._force(var, 0 if pos >> var & 1 else 1, queue)
        return True

    def _clause_state(self, pos: int, neg: int) -> tuple[bool, int]:
        """(satisfied, pending-mask) for a disjunctive clause."""
        assigned, values = self.assigned, self.values
        if (pos & assigned & values) | (neg & assigned & ~values):
            return True, 0
        return False, (pos | neg) & ~assigned

    def _check_conditional(self, idx: int, queue: list[int]) -> bool:
        guard, cons = self.cond_masks[idx]
        for pos, neg in guard:
            satisfied, pending = self._clause_state(pos, neg)
            if not satisfied:
                return True  # guard neither entailed nor watched further here
        for pos, neg in cons:
            satisfied, pending = self._clause_state(pos, neg)
            if satisfied:
                continue
            if pending == 0:
                return False
            if pending & (pending - 1) == 0:
                var = pending.bit_length() - 1
                if not self._force(var, 1 if pos >> var & 1 else 0, queue):
                    return False
        return True

    def _propagate(self, queue: list[int]) -> bool:
        while queue:
            var = queue.pop()
            for idx in self.watch_ng[var]:
                if not self._check_nogood(idx, queue):
                    return False
            for idx in self.watch_cd[var]:
                if not self._check_conditional(idx, queue):
                    return False
        return True

    def _propagate_roots(self) -> bool:
        queue: list[int] = []
        for idx in range(len(self.nogood_masks)):
            if not self._check_nogood(idx, queue):
                return False
        for idx in range(len(self.cond_masks)):
            if not self._check_conditional(idx, queue):
                return False
        return self._propagate(queue)

    # -- costs ----------------------------------------------------------

    def _combined_cost(self) -> SemiringValue:
        s = self.model.semiring
        assigned, values = self.assigned, self.values
        total = s.top
        for pos, neg, cost in self.cost_masks:
            if pos & assigned & values == pos and neg & assigned & ~values == neg:
                total = s.times(total, cost)
        return total

    def _within_budget(self) -> bool:
        s = self.model.semiring
        return s.leq(self.model.threshold, self._combined_cost())

    # -- search ----------------------------------------------------------

    def _next_var(self) -> "int | None":
        for var in self.order:
            if not self.assigned >> var & 1:
                return var
        return None

    def _value_order(self) -> tuple[int, int]:
        heuristic = self.config.val_heuristic
        if heuristic == ONE_FIRST:
            return (1, 0)
        if heuristic == ZERO_FIRST:
            return (0, 1)
        first = self.rng.randint(0, 1)
        return (first, 1 - first)

    def leaves(self, keep: "Callable[[], bool]") -> Iterator[int]:
        """Yield the bitset of every total assignment that satisfies the
        hard constraints and passes ``keep``.

        The walk is depth-first with an explicit stack of (variable,
        remaining values, trail mark), so its depth is not bounded by the
        interpreter's recursion limit. ``keep`` is asked after root
        propagation and after every later propagation; a rejected branch
        is cut. On timeout the walk stops and ``complete`` turns false.
        """
        deadline = time.monotonic() + self.config.timeout_ms / 1000.0
        if not (self._propagate_roots() and keep()):
            return
        trail = self.trail
        stack: list[tuple[int, Iterator[int], int]] = []
        while True:
            if time.monotonic() > deadline:
                self.complete = False
                return
            var = self._next_var()
            if var is None:
                yield self.values & self.full_mask
            else:
                stack.append((var, iter(self._value_order()), len(trail)))
            # Backtrack to the next child that survives propagation and keep.
            while stack:
                var, values, mark = stack[-1]
                if len(trail) > mark:
                    self._undo(mark)
                value = next(values, None)
                if value is None:
                    stack.pop()
                    continue
                self.nodes += 1
                self._set(var, value)
                if self._propagate([var]) and keep():
                    break
            else:
                return

    def run(self) -> SolveOutcome:
        """All solutions up to the cap; thresholded models keep only
        branches whose cost still meets the threshold."""
        start = time.monotonic()
        keep = (lambda: True) if self.model.threshold is None else self._within_budget
        cap = self.config.solution_cap
        solutions: list[int] = []
        for bits in self.leaves(keep):
            solutions.append(bits)
            if cap is not None and len(solutions) >= cap:
                self.complete = False
                break
        elapsed = (time.monotonic() - start) * 1000.0
        extensions = ExtensionSet.of(Extension(bits, self.n) for bits in solutions)
        return SolveOutcome(extensions, self.complete, elapsed, self.nodes, self.config.seed)


def solve_all(model: Model, config: SearchConfig = SearchConfig()) -> SolveOutcome:
    """Enumerate every assignment satisfying the hard constraints."""
    if model.cost_terms and model.threshold is not None:
        raise ValueError("thresholded models are solved with solve_within_budget")
    return _Solver(model, config).run()


def solve_within_budget(model: Model, config: SearchConfig = SearchConfig()) -> SolveOutcome:
    """Enumerate assignments whose accumulated cost still meets the threshold."""
    if model.semiring is None or model.threshold is None:
        raise ValueError("budget solving needs a semiring and a threshold")
    return _Solver(model, config).run()


def _bits_of(assignment: Sequence[int], num_vars: int) -> int:
    if len(assignment) != num_vars:
        raise ValueError(f"assignment covers {len(assignment)} of {num_vars} variables")
    bits = 0
    for var, value in enumerate(assignment):
        if value not in (0, 1):
            raise ValueError("assignments are binary")
        bits |= value << var
    return bits


def satisfies(model: Model, bits: int) -> bool:
    """Does the total assignment ``bits`` meet every hard constraint?"""

    def lit_holds(lit: Literal) -> bool:
        return (bits >> lit.var & 1) == lit.value

    for ng in model.nogoods:
        if all(lit_holds(l) for l in ng.literals):
            return False
    for cond in model.conditionals:
        if all(any(lit_holds(l) for l in clause) for clause in cond.guard):
            if not all(any(lit_holds(l) for l in clause) for clause in cond.consequence):
                return False
    return True


def evaluate(model: Model, assignment: Sequence[int]) -> SemiringValue:
    """Combined cost of a total assignment; hard violations yield bottom."""
    if model.semiring is None:
        raise ValueError("evaluation needs a semiring")
    s = model.semiring
    bits = _bits_of(assignment, model.num_vars)
    if not satisfies(model, bits):
        return s.bottom
    return s.combine(
        term.cost
        for term in model.cost_terms
        if all((bits >> l.var & 1) == l.value for l in term.trigger)
    )


def blevel(model: Model, config: SearchConfig = SearchConfig()) -> SemiringValue:
    """Best combined cost over all total assignments, by branch and bound.

    Branches whose already-incurred cost cannot beat the best found so
    far are cut; hard violations count as bottom. Raises
    ``TimeoutError`` when the search is cut by the timeout, since a
    partial best is not the best level.
    """
    if model.semiring is None:
        raise ValueError("blevel needs a semiring")
    s = model.semiring
    solver = _Solver(model, config)
    best = s.bottom

    def beats_best() -> bool:
        return not s.leq(solver._combined_cost(), best)

    for _ in solver.leaves(beats_best):
        best = s.plus(best, solver._combined_cost())
    if not solver.complete:
        raise TimeoutError("the blevel search was cut by the timeout")
    return best
