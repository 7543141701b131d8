"""Finite-domain search over binary variables.

The engine takes hard constraints (forbidden assignment patterns,
guarded requirements, the classical argumentation rules, and the
weighted defense and completeness rules of argumentation) plus, for
soft models, semiring cost terms with an acceptance threshold. Search
is depth-first with forward checking.

Propagation is one table from events to checks (Schulte and Stuckey,
TOPLAS 2008). Each rule of a model becomes checks, plain functions
paired with the compiled rule they read, listed under the (value,
variable) assignments that can make them fire and once in a root list.
Propagation runs the roots, then the checks listed under the value of
each newly set variable, until no forced variable is left. Cost terms
fire inside the assignment instead: they change the state, where a
check only returns a verdict.

Forbidden patterns and guarded requirements share one clause checker:
a forbidden pattern is the unguarded clause that one of its literals
fails, and once a guard is entailed, a consequence clause with one
open literal left forces it.
The classical rules (``ArgumentRules``) work on per-argument attacker
and target bitsets, a few integer operations per assignment: a member
forces its attackers and targets out; an attacker of a member with one
possible counterattacker left forces it in, and one that nobody can
counterattack any more forces its targets out; a defended argument is
forced in; an outsider with one possible attacker left forces it in.
A weighted defense fails as soon as even the counters still available
cannot beat the attack it guards against, and forces its child or
parent when only one of them is open; a defense with no child guards
its parent whenever the parent is out, which is the outsider test of
strict weighted stability. A weighted completeness rule forces its
child in once the counters already taken defend it. For thresholded
models a branch is cut as soon as the cost already incurred lies
strictly below the threshold. The cost is combined as cost terms fire
and restored with the rest of the search state on backtracking. Every
weighted rule is sound because combination is monotone: combining more
values never gives a better one.

Semiring values are validated once, when the ``Model`` is built; the
search then uses the semiring's unchecked operations.

One iterative walk (``_Solver.leaves``) serves every search: it keeps an
explicit stack instead of recursing, so the number of variables is not
bounded by the interpreter's recursion limit. The search state is a
few immutable values, so each stack frame saves them and backtracking
restores that copy. Enumeration, budget solving, the range-cut search
(``solve_range_cut``) and the branch-and-bound ``blevel`` differ only
in the bound that decides whether a branch is kept.

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


# A weighted counterattack: the attacking variable and its attack weight.
Counter = tuple[int, SemiringValue]


def _beats(s: Semiring, counters, chosen: int, incoming: SemiringValue) -> bool:
    """Do the counters whose variables are in ``chosen`` strictly beat
    ``incoming``? A stronger attack is a worse value, so the combined
    counter weight must lie strictly below the incoming weight."""
    total = s.top
    for var, weight in counters:
        if chosen >> var & 1:
            total = s._times(total, weight)
    return s._lt(total, incoming)


@dataclass(frozen=True)
class WeightedDefense:
    """Whenever ``child`` is 1 and ``parent`` is 0, the counters set to 1
    must strictly beat ``incoming``, the parent's attack on the child.
    With no child (``None``) the rule holds whenever ``parent`` is 0.

    ``counters`` pairs each variable that can counterattack the parent
    with the weight of its attack.
    """

    child: "int | None"
    parent: int
    incoming: SemiringValue
    counters: tuple[Counter, ...]


@dataclass(frozen=True)
class WeightedCompleteness:
    """Whenever every parent is 0 and, for every row, the counters set to
    1 strictly beat the row's incoming weight, ``child`` must be 1.

    ``rows`` holds one (parent, incoming, counters) triple per parent.
    """

    child: int
    rows: tuple[tuple[int, SemiringValue, tuple[Counter, ...]], ...]


@dataclass(frozen=True)
class ArgumentRules:
    """Classical argumentation rules whose variables are the arguments
    0..n-1 of an attack graph; ``attackers[x]`` is the bitset of the
    arguments that attack ``x``. A set of 1s must be

    - ``conflict_free``: no 1 attacks a 1;
    - ``defense``: every attacker of a 1 is attacked by a 1;
    - ``completeness``: every argument whose attackers are all attacked
      by a 1 is itself 1;
    - ``stability``: every 0 is attacked by a 1.
    """

    attackers: tuple[int, ...]
    conflict_free: bool = False
    defense: bool = False
    completeness: bool = False
    stability: bool = False


@dataclass(frozen=True)
class Model:
    """Binary variables plus the constraints and costs over them."""

    num_vars: int
    nogoods: tuple[Nogood, ...] = ()
    conditionals: tuple[ConditionalRequirement, ...] = ()
    cost_terms: tuple[CostTerm, ...] = ()
    semiring: "Semiring | None" = None
    threshold: "SemiringValue | None" = None
    defenses: tuple[WeightedDefense, ...] = ()
    completeness: tuple[WeightedCompleteness, ...] = ()
    argumentation: "ArgumentRules | None" = None

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("variable count must be non-negative")
        if self.argumentation is not None:
            masks = self.argumentation.attackers
            if len(masks) != self.num_vars:
                raise ValueError("argument rules need one attacker bitset per variable")
            if any(mask < 0 or mask >> self.num_vars for mask in masks):
                raise ValueError("attacker bitset outside the model")
        for var in self._occurrences():
            if var < 0 or var >= self.num_vars:
                raise ValueError(f"constraint over variable {var} outside the model")
        if self.cost_terms and self.semiring is None:
            raise ValueError("cost terms require a semiring")
        if (self.defenses or self.completeness) and self.semiring is None:
            raise ValueError("weighted defense and completeness require a semiring")
        if self.threshold is not None:
            if self.semiring is None:
                raise ValueError("a threshold requires a semiring")
            self.semiring.validate(self.threshold)
        if self.semiring is not None:
            # Encodings reuse the framework's weight objects: check each once.
            for value in {id(v): v for v in self._weights()}.values():
                self.semiring.validate(value)

    def _occurrences(self) -> Iterator[int]:
        """The variable of every literal and weighted-rule slot, once per
        occurrence."""
        for ng in self.nogoods:
            for lit in ng.literals:
                yield lit.var
        for cond in self.conditionals:
            for clause in cond.guard + cond.consequence:
                for lit in clause:
                    yield lit.var
        for term in self.cost_terms:
            for lit in term.trigger:
                yield lit.var
        for d in self.defenses:
            if d.child is not None:
                yield d.child
            yield d.parent
            for var, _ in d.counters:
                yield var
        for c in self.completeness:
            yield c.child
            for parent, _, counters in c.rows:
                yield parent
                for var, _ in counters:
                    yield var

    def _weights(self) -> Iterator[SemiringValue]:
        for term in self.cost_terms:
            yield term.cost
        for d in self.defenses:
            yield d.incoming
            for _, weight in d.counters:
                yield weight
        for c in self.completeness:
            for _, incoming, counters in c.rows:
                yield incoming
                for _, weight in counters:
                    yield weight


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
        if not self.timeout_ms > 0:  # NaN included; inf means no limit
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
        self.semiring = model.semiring
        n = model.num_vars
        self.n = n
        self.full_mask = (1 << n) - 1

        # Every propagator is a (check, argument) pair, woken by the
        # (value, variable) events in ``watch`` and run once from ``roots``.
        # The checks are plain functions called as ``check(self, arg,
        # queue)``: bound methods would tie each solver into a reference
        # cycle, left for the cyclic garbage collector to free.
        self.watch: list[list[list[tuple]]] = [[[] for _ in range(n)] for _ in (0, 1)]
        self.roots: list[tuple] = []

        # A nogood is the clause that some literal of it fails: the same
        # masks with their polarities swapped, under no guard.
        clauses = [([], [_masks(ng.literals)[::-1]]) for ng in model.nogoods]
        clauses += [
            (
                [_masks(clause) for clause in cond.guard],
                [_masks(clause) for clause in cond.consequence],
            )
            for cond in model.conditionals
        ]
        for guard, cons in clauses:
            involved = 0
            for pos, neg in guard + cons:
                involved |= pos | neg
            events = [(value, var) for var in iter_bits(involved) for value in (0, 1)]
            self._register(_Solver._check_conditional, (guard, cons), events)

        self.rules = model.argumentation
        self.attacked = 0
        self.track_attacked = False
        if self.rules is not None:
            self._register_arguments(self.rules)

        # A weighted rule wakes on the assignments that can make it fire: a
        # defense on its child (if any) set to 1, its parent or a counter
        # set to 0; a completeness rule on its child or a parent set to 0,
        # or a counter set to 1.
        for d in model.defenses:
            mask = 0
            events = {(0, d.parent)}
            if d.child is not None:
                events.add((1, d.child))
            for var, _ in d.counters:
                mask |= 1 << var
                events.add((0, var))
            rule = (d.child, d.parent, d.incoming, d.counters, mask)
            self._register(_Solver._check_defense, rule, events)
        for c in model.completeness:
            events = {(0, c.child)}
            parents = 0
            for parent, _, counters in c.rows:
                parents |= 1 << parent
                events.add((0, parent))
                events |= {(1, var) for var, _ in counters}
            self._register(_Solver._check_completeness, (c.child, parents, c.rows), events)

        # Cost terms fire when the last literal of their trigger is set. An
        # associative combination takes one more factor per fired term;
        # otherwise the fired terms are refolded in model order, the order
        # ``evaluate`` uses.
        self.cost = model.semiring.top if model.semiring is not None else None
        self.fired = 0
        self.watch_cost = None
        if model.cost_terms:
            self.watch_cost = [[[] for _ in range(n)] for _ in (0, 1)]
            for index, term in enumerate(model.cost_terms):
                pos, neg = _masks(term.trigger)
                for lit in term.trigger:
                    self.watch_cost[lit.value][lit.var].append((pos | neg, pos, index))

        self.order = self._static_order()
        self.rng = Random(config.seed) if config.val_heuristic == SEEDED_RANDOM else None

        self.assigned = 0
        self.values = 0
        self.nodes = 0
        self.complete = True

    def _register(self, check, arg, events) -> None:
        """Wake ``check`` on each (value, variable) of ``events`` and once
        at the root."""
        for value, var in events:
            self.watch[value][var].append((check, arg))
        self.roots.append((check, arg))

    def _register_arguments(self, rules: ArgumentRules) -> None:
        """The classical rules over attacker and target bitsets, each woken
        with the index tuple it scans, so that no check decomposes a
        bitset. A new 1 wakes conflict-freeness on its neighbours, defense
        on its attackers and completeness on the targets of its targets,
        the only arguments whose defense it can complete; a new 0 wakes
        defense on its targets and stability on its own cover and those
        of its targets. The roots scan every argument once."""
        n = self.n
        att = rules.attackers
        tgt = [0] * n
        for x, mask in enumerate(att):
            for p in iter_bits(mask):
                tgt[p] |= 1 << x
        self.att = att
        self.tgt = tgt
        self.tgt_of = tgt_of = [tuple(iter_bits(mask)) for mask in tgt]
        # Stability: x or one of its attackers is 1.
        self.cover = [att[x] | 1 << x for x in range(n)]
        # Completeness: ``attacked`` holds the targets of the 1s.
        self.track_attacked = rules.completeness
        everyone = range(n)
        on_one, on_zero = self.watch[1], self.watch[0]
        for x in everyone:
            if rules.conflict_free:
                near = att[x] | tgt[x]
                on_one[x].append((_Solver._check_conflicts, (near, tuple(iter_bits(near)))))
            if rules.defense:
                on_one[x].append((_Solver._check_attackers, tuple(iter_bits(att[x]))))
                on_zero[x].append((_Solver._check_attackers, tgt_of[x]))
            if rules.completeness:
                reach = 0
                for p in tgt_of[x]:
                    reach |= tgt[p]
                on_one[x].append((_Solver._check_defended, tuple(iter_bits(reach))))
            if rules.stability:
                on_zero[x].append((_Solver._check_covers, (x,) + tgt_of[x]))
        if rules.conflict_free:
            self.roots.append((_Solver._out, [x for x in everyone if att[x] >> x & 1]))
        if rules.defense:
            self.roots.append((_Solver._check_attackers, everyone))
        if rules.completeness:
            self.roots.append((_Solver._check_defended, everyone))
        if rules.stability:
            self.roots.append((_Solver._check_covers, everyone))

    def _static_order(self) -> list[int]:
        if self.config.var_heuristic == INPUT_ORDER:
            return list(range(self.n))
        counts = [0] * self.n
        for var in self.model._occurrences():
            counts[var] += 1
        if self.rules is not None:  # the degree of each argument
            for x in range(self.n):
                counts[x] += self.att[x].bit_count() + self.tgt[x].bit_count()
        return sorted(range(self.n), key=lambda v: (-counts[v], v))

    # -- propagation ---------------------------------------------------

    def _set(self, var: int, value: int) -> None:
        # ``var`` is open, so its bit of ``values`` is already 0.
        bit = 1 << var
        self.assigned |= bit
        if value:
            self.values |= bit
            if self.track_attacked:
                self.attacked |= self.tgt[var]
        if self.watch_cost is not None:
            assigned, values = self.assigned, self.values
            for mask, pos, index in self.watch_cost[value][var]:
                if assigned & mask == mask and values & mask == pos:
                    self._fire(index)

    def _fire(self, index: int) -> None:
        s, terms = self.semiring, self.model.cost_terms
        self.fired |= 1 << index
        if s.associative:
            self.cost = s._times(self.cost, terms[index].cost)
        else:
            total = s.top
            for fired in iter_bits(self.fired):
                total = s._times(total, terms[fired].cost)
            self.cost = total

    def _force(self, var: int, value: int, queue: list[int]) -> bool:
        bit = 1 << var
        if self.assigned & bit:
            return (self.values >> var & 1) == value
        self._set(var, value)
        queue.append(var)
        return True

    def _clause_state(self, pos: int, neg: int) -> tuple[bool, int]:
        """(satisfied, pending-mask) for a disjunctive clause."""
        assigned, values = self.assigned, self.values
        if (pos & assigned & values) | (neg & assigned & ~values):
            return True, 0
        return False, (pos | neg) & ~assigned

    # Each check returns False when the state violates its rule, and
    # otherwise forces what the rule entails through ``queue``.

    def _check_conditional(self, masks: tuple, queue: list[int]) -> bool:
        guard, cons = masks
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

    def _check_defense(self, rule: tuple, queue: list[int]) -> bool:
        child, parent, incoming, counters, mask = rule
        assigned, values = self.assigned, self.values
        zeros = assigned & ~values
        if values >> parent & 1 or child is not None and zeros >> child & 1:
            return True  # parent in or child out: nothing to defend
        child_open = child is not None and not assigned >> child & 1
        parent_open = not assigned >> parent & 1
        if child_open and parent_open:
            return True
        # The best reachable counterattack takes every counter not yet 0.
        if _beats(self.semiring, counters, mask & ~zeros, incoming):
            return True
        if child_open:
            return self._force(child, 0, queue)
        if parent_open:
            return self._force(parent, 1, queue)
        return False

    def _check_completeness(self, rule: tuple, queue: list[int]) -> bool:
        child, parents, rows = rule
        assigned, values = self.assigned, self.values
        if values >> child & 1 or parents & ~(assigned & ~values):
            return True  # child in, or some parent not out
        # Counters already 1 only grow stronger as more are taken.
        taken = assigned & values
        for _, incoming, counters in rows:
            if not _beats(self.semiring, counters, taken, incoming):
                return True
        return self._force(child, 1, queue)

    # The classical argumentation rules. Each check is the unit propagation
    # of the clauses it stands for, so the fixpoint equals that of one
    # nogood per attack and per (member, attacker) pair, one guarded
    # requirement per argument and one stability nogood per argument.

    def _out(self, targets: "Sequence[int]", queue: list[int]) -> bool:
        """Set every open argument of ``targets`` to 0."""
        assigned = self.assigned
        for x in targets:
            if not assigned >> x & 1:
                self._set(x, 0)
                queue.append(x)
        return True

    def _check_conflicts(self, near: tuple, queue: list[int]) -> bool:
        """Conflict-freeness around a new 1: ``near`` is the bitset and the
        index tuple of its attackers and targets, which must all be 0."""
        mask, neighbours = near
        return not mask & self.values and self._out(neighbours, queue)

    def _check_attackers(self, arguments: "Sequence[int]", queue: list[int]) -> bool:
        """Defense against each ``p`` of ``arguments``: while no attacker
        of ``p`` is 1, every 1 that ``p`` attacks needs one of them to
        become 1. With none of them left, the targets of ``p`` are out;
        with one left, it is forced in when ``p`` attacks a 1."""
        att, tgt = self.att, self.tgt
        for p in arguments:
            values = self.values
            counter = att[p]
            if counter & values:
                continue
            open_ = counter & ~self.assigned
            if not open_:
                if tgt[p] & values:
                    return False
                self._out(self.tgt_of[p], queue)
            elif open_ & (open_ - 1) == 0 and tgt[p] & values:
                var = open_.bit_length() - 1
                self._set(var, 1)
                queue.append(var)
        return True

    def _check_covers(self, arguments: "Sequence[int]", queue: list[int]) -> bool:
        """Stability: each argument or one of its attackers is 1; the last
        open one is forced in."""
        cover = self.cover
        for x in arguments:
            mask = cover[x]
            if mask & self.values:
                continue
            open_ = mask & ~self.assigned
            if not open_:
                return False
            if open_ & (open_ - 1) == 0:
                var = open_.bit_length() - 1
                self._set(var, 1)
                queue.append(var)
        return True

    def _check_defended(self, arguments: "Sequence[int]", queue: list[int]) -> bool:
        """Completeness: an argument whose attackers are all attacked by a
        1 is forced in."""
        att = self.att
        for x in arguments:
            if not att[x] & ~self.attacked and not self._force(x, 1, queue):
                return False
        return True

    def _propagate(self, queue: list[int]) -> bool:
        """Run the checks each new value wakes until ``queue`` is empty."""
        watch = self.watch
        while queue:
            var = queue.pop()
            for check, arg in watch[self.values >> var & 1][var]:
                if not check(self, arg, queue):
                    return False
        return True

    def _propagate_roots(self) -> bool:
        queue: list[int] = []
        for check, arg in self.roots:
            if not check(self, arg, queue):
                return False
        return self._propagate(queue)

    def _within_budget(self) -> bool:
        # Combination is monotone, so a cost strictly below the threshold
        # stays below it on every extension of the branch; a cost that is
        # merely incomparable with it (product semirings) may still pass.
        return not self.semiring._lt(self.cost, self.model.threshold)

    # -- search ----------------------------------------------------------

    def _next_position(self, start: int) -> "int | None":
        """Position in the static order of the first unassigned variable at
        or after ``start``. Every variable before the position of the
        latest decision is assigned, so the walk resumes from there."""
        order, assigned = self.order, self.assigned
        for pos in range(start, self.n):
            if not assigned >> order[pos] & 1:
                return pos
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
        remaining values, saved state, position in the static order), so
        its depth is not bounded by the interpreter's recursion limit and
        choosing the next variable costs amortised constant time. The
        saved state is the tuple (assigned, values, attacked, cost, fired)
        from before the decision, restored before each value is tried.
        ``keep`` is asked after root propagation and after every later
        propagation; a rejected branch is cut. On timeout the walk stops
        and ``complete`` turns false.
        """
        deadline = time.monotonic() + self.config.timeout_ms / 1000.0
        if not (self._propagate_roots() and keep()):
            return
        stack: list[tuple[int, Iterator[int], tuple, int]] = []
        while True:
            if time.monotonic() > deadline:
                self.complete = False
                return
            pos = self._next_position(stack[-1][3] + 1 if stack else 0)
            if pos is None:
                yield self.values & self.full_mask
            else:
                state = (self.assigned, self.values, self.attacked, self.cost, self.fired)
                stack.append((self.order[pos], iter(self._value_order()), state, pos))
            # Backtrack to the next child that survives propagation and keep.
            while stack:
                var, values, state, _ = stack[-1]
                value = next(values, None)
                if value is None:
                    stack.pop()
                    continue
                self.assigned, self.values, self.attacked, self.cost, self.fired = state
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
        return self._outcome(solutions, start)

    def _outcome(self, solutions: list[int], start: float) -> SolveOutcome:
        elapsed = (time.monotonic() - start) * 1000.0
        extensions = ExtensionSet.of(Extension(bits, self.n) for bits in solutions)
        return SolveOutcome(extensions, self.complete, elapsed, self.nodes, self.config.seed)

    def run_range_cut(self) -> SolveOutcome:
        """The solutions that no solution found before them strictly
        outranges, where the range of a set is the set plus its targets.

        A branch is cut when the range of its upper bound (``values |
        ~assigned``), which contains the range of every leaf below it,
        lies strictly inside the range of a leaf already found; equal
        ranges are kept. The test is indexed: ``lacking[x]`` is the bitset
        over the found leaves whose range lacks argument ``x``, so the
        leaves whose range holds the bound's range are those in no
        ``lacking`` entry of its arguments, one OR per argument and no scan
        of the leaves."""
        start = time.monotonic()
        full, tgt = self.full_mask, self.tgt
        lacking = [0] * self.n
        by_range: dict[int, int] = {}  # range -> bitset over the leaves with it
        solutions: list[int] = []

        def range_of(bits: int) -> int:
            reach = bits
            for x in iter_bits(bits):
                reach |= tgt[x]
            return reach

        def keep() -> bool:
            if not solutions:
                return True
            reach = range_of((self.values | ~self.assigned) & full)
            if reach == full:
                return True
            missing = 0
            for x in iter_bits(reach):
                missing |= lacking[x]
            holding = ~missing & ((1 << len(solutions)) - 1)
            return not holding & ~by_range.get(reach, 0)

        for bits in self.leaves(keep):
            reach = range_of(bits)
            index = 1 << len(solutions)
            solutions.append(bits)
            by_range[reach] = by_range.get(reach, 0) | index
            for x in iter_bits(full & ~reach):
                lacking[x] |= index
        return self._outcome(solutions, start)


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


def solve_range_cut(model: Model, config: SearchConfig = SearchConfig()) -> SolveOutcome:
    """Enumerate the solutions of a classical model with range cuts.

    The range of a set is the set plus the targets of its members under
    ``model.argumentation``. Ranges only grow with the set, so a branch
    whose solutions all have a range strictly inside that of a solution
    already found is cut. The solutions returned hold every one whose
    range no other solution's range strictly contains, and possibly some
    that only a solution found later outranges: the caller keeps the
    range-maximal ones. Those are candidates, not members, so a solution
    cap does not apply.
    """
    if model.argumentation is None or model.semiring is not None:
        raise ValueError("range cuts need a classical model with argumentation rules")
    if config.solution_cap is not None:
        raise ValueError("a range-cut search returns candidates; cap the filtered family")
    return _Solver(model, config).run_range_cut()


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
    s = model.semiring
    for d in model.defenses:
        if (d.child is None or bits >> d.child & 1) and not bits >> d.parent & 1:
            if not _beats(s, d.counters, bits, d.incoming):
                return False
    for c in model.completeness:
        if not bits >> c.child & 1 and all(
            not bits >> parent & 1 and _beats(s, counters, bits, incoming)
            for parent, incoming, counters in c.rows
        ):
            return False
    rules = model.argumentation
    return rules is None or _rules_hold(rules, bits)


def _rules_hold(rules: ArgumentRules, bits: int) -> bool:
    """Do the 1s of ``bits`` meet the classical argumentation rules?"""
    attacked = 0
    for y, attackers in enumerate(rules.attackers):
        if attackers & bits:
            attacked |= 1 << y
    if rules.conflict_free and attacked & bits:
        return False
    for x, attackers in enumerate(rules.attackers):
        defended = attackers & ~attacked == 0
        if bits >> x & 1:
            if rules.defense and not defended:
                return False
        elif rules.completeness and defended or rules.stability and not attacked >> x & 1:
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
        return not s._leq(solver.cost, best)

    for _ in solver.leaves(beats_best):
        best = s._plus(best, solver.cost)
    if not solver.complete:
        raise TimeoutError("the blevel search was cut by the timeout")
    return best
