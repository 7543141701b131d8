"""Inconsistency-budget machinery for weighted attack graphs.

A budget ``beta`` is the total attack weight one is prepared to
disregard. Every attack subset whose weights sum to at most ``beta``
induces a reduced classical graph; the grounded extensions of all those
reductions form the budgeted grounded family. On top of that sit the
three decision problems: credulous and sceptical membership of an
argument, and minimality of a budget for a target set.

Weights must come from the integer-cost instance; the sums are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def removal_sets(framework: Framework, beta) -> tuple[RemovalSet, ...]:
    """All attack subsets with total weight at most ``beta``.

    Depth-first over the attack list with prefix-sum pruning; the empty
    removal always qualifies.
    """
    beta = _check_beta(beta)
    weights = _require_cost_weights(framework)
    found: list[RemovalSet] = []
    chosen: list[int] = []

    def walk(index: int, total: int) -> None:
        if index == len(weights):
            found.append(RemovalSet(tuple(chosen), total))
            return
        walk(index + 1, total)
        extended = total + weights[index]
        if extended <= beta:
            chosen.append(index)
            walk(index + 1, extended)
            chosen.pop()

    walk(0, 0)
    found.sort(key=lambda r: (r.total_weight, r.attack_indices))
    return tuple(found)


def _grounded_of_reduction(
    framework: Framework, removal: RemovalSet, config: SearchConfig
) -> int:
    reduced = framework.without_attacks(removal.attack_indices)
    request = EncodingRequest(reduced, SemanticsSpec(GROUNDED), config)
    outcome = enumerate_extensions(request)
    (extension,) = outcome.solutions
    return extension.bits


def wge(framework: Framework, beta, config: SearchConfig = SearchConfig()) -> ExtensionSet:
    """Grounded extensions of every within-budget reduction, deduplicated."""
    bits = {
        _grounded_of_reduction(framework, removal, config)
        for removal in removal_sets(framework, beta)
    }
    return ExtensionSet.of(Extension(b, framework.n) for b in bits)


def _first_reduction(
    framework: Framework, beta, argument: int, member: bool, config: SearchConfig
) -> "Extension | None":
    """Grounded extension of the first within-budget reduction whose
    membership of ``argument`` equals ``member``, or None."""
    for removal in removal_sets(framework, beta):
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
    extension of the reduction, with the cheapest removal set as
    witness; (None, None) when no removal set reaches the target.
    """
    weights = _require_cost_weights(framework)
    if target.n != framework.n:
        raise ValueError("target size does not match the framework")
    best: "tuple[int, RemovalSet] | None" = None
    chosen: list[int] = []

    def walk(index: int, total: int) -> None:
        nonlocal best
        if best is not None and total >= best[0]:
            return
        if index == len(weights):
            removal = RemovalSet(tuple(chosen), total)
            if _grounded_of_reduction(framework, removal, config) == target.bits:
                best = (total, removal)
            return
        walk(index + 1, total)
        chosen.append(index)
        walk(index + 1, total + weights[index])
        chosen.pop()

    walk(0, 0)
    if best is None:
        return None, None
    return best[0], best[1]


def is_minimal(framework: Framework, target: Extension, beta) -> bool:
    """True when ``beta`` is exactly the least budget reaching ``target``."""
    beta = _check_beta(beta)
    least, _ = minimal_budget(framework, target)
    return least == beta
