"""Inconsistency-budget machinery for weighted attack graphs.

A budget ``beta`` is the total attack weight one is prepared to
disregard. Every attack subset whose weights sum to at most ``beta``
induces a reduced classical graph; the grounded extensions of all those
reductions form the budgeted grounded family. On top of that sit the
three decision problems: credulous and sceptical membership of an
argument, and minimality of a budget for a target set.

All of them consume one lazy walk that yields removal sets lightest
first (ties by attack indices), so each stops where its answer is
settled and none recurses. Weights must come from the integer-cost
instance; the sums are exact.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterator

from .encodings import EncodingRequest, enumerate_extensions
from .engine import SearchConfig
from .model import Extension, ExtensionSet, Framework
from .oracle import GROUNDED, SemanticsSpec
from .semiring import INF, TAG_COST, WEIGHTED_KIND, SemiringValue


@dataclass(frozen=True)
class RemovalSet:
    """A subset of the attack relation together with its total weight."""

    attack_indices: tuple[int, ...]
    total_weight: int

    def attacks(self, framework: Framework) -> tuple[tuple[int, int], ...]:
        return tuple(framework.attacks[i] for i in self.attack_indices)


def _require_cost_weights(framework: Framework) -> list[int]:
    if framework.semiring is None or framework.semiring.kind != WEIGHTED_KIND:
        raise ValueError("budget problems need integer-cost attack weights")
    weights = []
    for value in framework.weights:
        if value.payload == INF:
            raise ValueError("infinite attack weights cannot be budgeted away")
        weights.append(value.payload)
    return weights


def _check_beta(beta) -> int:
    if isinstance(beta, SemiringValue):
        if beta.tag != TAG_COST or beta.payload == INF:
            raise ValueError("the budget must be a finite cost")
        beta = beta.payload
    if isinstance(beta, bool) or not isinstance(beta, int) or beta < 0:
        raise ValueError(f"the budget must be a non-negative integer, got {beta!r}")
    return beta


def check_inputs(framework: Framework, beta=None) -> None:
    """Raise ``ValueError`` unless every attack of ``framework`` has a
    finite integer cost and ``beta``, when given, is a valid budget."""
    _require_cost_weights(framework)
    if beta is not None:
        _check_beta(beta)


def _lightest_first(weights: list[int]) -> Iterator[RemovalSet]:
    """Every attack subset, ordered by total weight and then by attack
    indices, generated lazily best-first.

    The attacks are ranked by (weight, index). A set's two successors add
    the attack ranked after its last one, or swap its last one for that
    attack; every subset has exactly one predecessor. Because every
    weight is at least 1 (a zero cost is the semiring top, which
    frameworks reject), a successor never sorts before its predecessor,
    so popping a heap of the frontier yields the sets in order.
    """
    rank = sorted(range(len(weights)), key=lambda i: (weights[i], i))
    yield RemovalSet((), 0)
    heap = [(weights[rank[0]], (rank[0],), 0)] if rank else []
    while heap:
        total, indices, last = heapq.heappop(heap)
        yield RemovalSet(indices, total)
        if last + 1 == len(rank):
            continue
        new, old = rank[last + 1], rank[last]
        heapq.heappush(heap, (total + weights[new], tuple(sorted(indices + (new,))), last + 1))
        swapped = tuple(sorted(i for i in indices + (new,) if i != old))
        heapq.heappush(heap, (total - weights[old] + weights[new], swapped, last + 1))


def _sets_within(framework: Framework, beta) -> Iterator[RemovalSet]:
    beta = _check_beta(beta)
    sets = _lightest_first(_require_cost_weights(framework))
    return itertools.takewhile(lambda r: r.total_weight <= beta, sets)


def removal_sets(framework: Framework, beta) -> tuple[RemovalSet, ...]:
    """All attack subsets with total weight at most ``beta``, ordered by
    total weight and then by attack indices; the empty removal always
    qualifies."""
    return tuple(_sets_within(framework, beta))


def _grounded_of_reduction(
    framework: Framework, removal: RemovalSet, config: SearchConfig
) -> int:
    reduced = framework.without_attacks(removal.attack_indices)
    request = EncodingRequest(reduced, SemanticsSpec(GROUNDED), config)
    outcome = enumerate_extensions(request)
    if not outcome.complete:
        raise TimeoutError("the grounded search of a budget reduction was cut by the timeout")
    (extension,) = outcome.solutions
    return extension.bits


def wge(framework: Framework, beta, config: SearchConfig = SearchConfig()) -> ExtensionSet:
    """Grounded extensions of every within-budget reduction, deduplicated."""
    bits = {
        _grounded_of_reduction(framework, removal, config)
        for removal in _sets_within(framework, beta)
    }
    return ExtensionSet.of(Extension(b, framework.n) for b in bits)


def _first_reduction(
    framework: Framework, beta, argument: int, member: bool, config: SearchConfig
) -> "Extension | None":
    """Grounded extension of the first within-budget reduction whose
    membership of ``argument`` equals ``member``, or None."""
    for removal in _sets_within(framework, beta):
        bits = _grounded_of_reduction(framework, removal, config)
        if bool(bits >> argument & 1) == member:
            return Extension(bits, framework.n)
    return None


def credulous(
    framework: Framework, beta, argument: int, config: SearchConfig = SearchConfig()
) -> "tuple[bool, Extension | None]":
    """Is the argument in some budgeted grounded extension? Returns the
    witness extension when one exists."""
    witness = _first_reduction(framework, beta, argument, member=True, config=config)
    return witness is not None, witness


def skeptical(
    framework: Framework, beta, argument: int, config: SearchConfig = SearchConfig()
) -> "tuple[bool, Extension | None]":
    """Is the argument in every budgeted grounded extension? Returns a
    counterexample extension when not."""
    counterexample = _first_reduction(framework, beta, argument, member=False, config=config)
    return counterexample is None, counterexample


def minimal_budget(
    framework: Framework,
    target: Extension,
    config: SearchConfig = SearchConfig(),
) -> "tuple[int | None, RemovalSet | None]":
    """Least total removal weight that makes ``target`` a grounded
    extension of the reduction, with a witness removal set; (None, None)
    when no removal set reaches the target.

    Removal sets are tried lightest first, ties broken by attack indices
    (the order of ``removal_sets``), so the walk stops at the first hit
    and the witness is the first set in that order that reaches the
    target. An unreachable target still costs every subset of the
    attacks, and the walk has no overall deadline.
    """
    weights = _require_cost_weights(framework)
    if target.n != framework.n:
        raise ValueError("target size does not match the framework")
    for removal in _lightest_first(weights):
        if _grounded_of_reduction(framework, removal, config) == target.bits:
            return removal.total_weight, removal
    return None, None


def is_minimal(
    framework: Framework, target: Extension, beta, config: SearchConfig = SearchConfig()
) -> bool:
    """True when ``beta`` is exactly the least budget reaching ``target``."""
    beta = _check_beta(beta)
    least, _ = minimal_budget(framework, target, config)
    return least == beta
