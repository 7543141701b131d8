"""Constraint models for each semantics, the enumeration pipelines for
the inclusion-extremal kinds, the preferred-membership decision, and
user-supplied side requirements.

The inclusion-extremal kinds keep the subset-extremal members of a base
family with an output-sensitive filter (``extremal``): its cost grows
with the number of candidates times the number of extremal keys, not
with the square of the candidates.

Classical models are exact and hold no nogoods or guarded requirements:
each is the engine's classical rule set (``ArgumentRules``) over the
framework's attacker bitsets, with conflict-freeness always on, defense
for admissible and complete, completeness for complete and stability for
stable. Grounded and semi-stable filter the complete family and stage
the conflict-free one; preferred and ideal filter the complete family
when classical with no side requirements, and the admissible one
otherwise. Weighted models are exact for the conflict-free, admissible
and complete families: the conflict budget is a cost term per attack
under the threshold alpha, and weighted defense and completeness are the
engine's native rules, one defense per attack and one completeness rule
per argument, so the number of constraints grows linearly with the
graph, whatever the in-degrees. The strict weighted stable family
over-approximates in the model (its stability rule asks only for an
attack from a member; the outsider weight comparison is applied during
leaf validation). Leaf validation, always on, re-checks every candidate
against the definition-level checkers before it is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from . import oracle
from .engine import (
    ArgumentRules,
    ConditionalRequirement,
    CostTerm,
    Literal,
    Model,
    Nogood,
    SearchConfig,
    SolveOutcome,
    WeightedCompleteness,
    WeightedDefense,
    satisfies,
    solve_all,
    solve_within_budget,
)
from .model import Extension, ExtensionSet, Framework
from .oracle import (
    ADMISSIBLE,
    BASE_KINDS,
    COMPLETE,
    CONFLICT_FREE,
    GROUNDED,
    IDEAL,
    PREFERRED,
    SEMI_STABLE,
    STABLE,
    STAGE,
    SemanticsSpec,
)

MAX = "max"
MIN = "min"

MEMBERSHIP = "membership"
RANGE = "range"


@dataclass(frozen=True)
class UserRequirement:
    """A side requirement over argument membership: guard implies
    consequence, both conjunctions of disjunctive clauses of
    argument literals."""

    guard: tuple[tuple[Literal, ...], ...]
    consequence: tuple[tuple[Literal, ...], ...]


@dataclass(frozen=True)
class EncodingRequest:
    """Everything needed to enumerate one semantics on one framework."""

    framework: Framework
    spec: SemanticsSpec
    config: SearchConfig = SearchConfig()
    requirements: tuple[UserRequirement, ...] = ()


def encode(framework: Framework, spec: SemanticsSpec) -> Model:
    """Build the constraint model for one of the four base families."""
    if spec.kind not in BASE_KINDS:
        raise ValueError(f"{spec.kind} has no direct encoding; use enumerate_extensions")
    if spec.weighted != framework.is_weighted:
        raise ValueError("spec weightedness does not match the framework")
    if spec.weighted:
        return _encode_weighted(framework, spec)
    return _encode_classical(framework, spec)


def _attackers(f: Framework) -> tuple[int, ...]:
    return tuple(f.attacker_mask(a) for a in range(f.n))


def _encode_classical(f: Framework, spec: SemanticsSpec) -> Model:
    kind = spec.kind
    rules = ArgumentRules(
        _attackers(f),
        conflict_free=True,
        defense=kind in (ADMISSIBLE, COMPLETE),
        completeness=kind == COMPLETE,
        stability=kind == STABLE,
    )
    return Model(f.n, argumentation=rules)


def _encode_weighted(f: Framework, spec: SemanticsSpec) -> Model:
    cost_terms = []
    for idx, (src, dst) in enumerate(f.attacks):
        trigger = (
            (Literal(src, 1),) if src == dst else (Literal(src, 1), Literal(dst, 1))
        )
        cost_terms.append(CostTerm(trigger, f.weights[idx]))

    def counters(parent: int) -> tuple:
        # A parent that attacks itself is out whenever it must be beaten,
        # so its own attack never counts.
        return tuple((g, w) for g, w in f.attacks_onto(parent) if g != parent)

    defenses: list[WeightedDefense] = []
    completeness: list[WeightedCompleteness] = []

    if spec.kind in (ADMISSIBLE, COMPLETE):
        for ai in range(f.n):
            for p, w in f.attacks_onto(ai):
                if p != ai:  # a member never has itself outside
                    defenses.append(WeightedDefense(ai, p, w, counters(p)))

    if spec.kind == COMPLETE:
        for ai in range(f.n):
            rows = tuple((p, w, counters(p)) for p, w in f.attacks_onto(ai))
            # A parent nobody attacks is never beaten, so the rule never fires.
            if all(row[2] for row in rows):
                completeness.append(WeightedCompleteness(ai, rows))

    # Weighted models keep only the attack-existence half of stability; the
    # strict weight comparison against the threshold happens at leaf
    # validation.
    rules = ArgumentRules(_attackers(f), stability=True) if spec.kind == STABLE else None

    return Model(
        f.n,
        cost_terms=tuple(cost_terms),
        semiring=f.semiring,
        threshold=spec.alpha,
        defenses=tuple(defenses),
        completeness=tuple(completeness),
        argumentation=rules,
    )


def apply_user_requirements(model: Model, requirements) -> Model:
    """Append side requirements; the solution set can only shrink."""
    if not requirements:
        return model
    extra = tuple(
        ConditionalRequirement(req.guard, req.consequence) for req in requirements
    )
    return replace(model, conditionals=model.conditionals + extra)


def extremal(
    items: Sequence[Extension],
    direction: str,
    keys: "Sequence[int] | None" = None,
) -> list[Extension]:
    """Keep the elements whose key bitset is subset-maximal or -minimal.

    Same contract as ``model.extremal``: ``keys`` defaults to the
    membership bitsets, elements with equal keys are all kept, and the
    input order is preserved. The distinct keys are visited by popcount,
    descending for ``max`` and ascending for ``min``, and each is tested
    only against the keys kept so far. A strict superset (for ``max``)
    has more bits, so it is visited first and is either kept or covered
    by a kept key; the sweep is therefore exact and costs O(k*m) for k
    distinct keys and m extremal ones.
    """
    if direction not in (MAX, MIN):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    if keys is None:
        keys = [e.bits for e in items]
    maximal = direction == MAX
    kept: list[int] = []
    for key in sorted(set(keys), key=int.bit_count, reverse=maximal):
        for other in kept:
            if key & other == (key if maximal else other):
                break
        else:
            kept.append(key)
    extremal_keys = set(kept)
    return [e for e, key in zip(items, keys) if key in extremal_keys]


def _solve(model: Model, config: SearchConfig) -> SolveOutcome:
    if model.threshold is not None:
        return solve_within_budget(model, config)
    return solve_all(model, config)


def _rebase(spec: SemanticsSpec, kind: str) -> SemanticsSpec:
    return SemanticsSpec(kind, spec.weighted, spec.alpha)


def _enumerate_base(request: EncodingRequest, kind: str) -> SolveOutcome:
    spec = _rebase(request.spec, kind) if kind != request.spec.kind else request.spec
    model = encode(request.framework, spec)
    model = apply_user_requirements(model, request.requirements)
    outcome = _solve(model, request.config)
    kept = [ext for ext in outcome.solutions if oracle.check(request.framework, ext, spec)]
    return replace(outcome, solutions=ExtensionSet.of(kept))


def _base_kind(request: EncodingRequest) -> str:
    """The base family the inclusion-extremal kind is filtered from.

    Grounded and semi-stable filter the complete family, stage the
    conflict-free one. Preferred and ideal extensions are complete, so a
    classical request without side requirements filters the smaller
    complete family: the maximal complete sets are the maximal admissible
    ones, and the ideal set is the largest complete set inside every
    preferred one. Side requirements apply to the base family before the
    filter, and the maximal complete sets that meet a requirement need not
    be the maximal admissible ones that meet it, so such requests keep the
    admissible family; weighted ones keep it too (caveat 4 in the README).
    """
    kind = request.spec.kind
    if kind in (GROUNDED, SEMI_STABLE):
        return COMPLETE
    if kind == STAGE:
        return CONFLICT_FREE
    if kind in (PREFERRED, IDEAL):
        if request.spec.weighted or request.requirements:
            return ADMISSIBLE
        return COMPLETE
    raise ValueError(f"unknown semantics kind {kind!r}")


def enumerate_extensions(request: EncodingRequest) -> SolveOutcome:
    """Enumerate all extensions of the requested semantics.

    Base kinds are one solver run. The inclusion-extremal kinds first
    enumerate their whole base family, ignoring the solution cap, and
    then keep the subset-extremal elements with the output-sensitive
    ``extremal`` filter; the cap then applies to those. A member of a
    cut base family may be dominated by a set the search never reached,
    so a timeout there returns no members and marks the outcome
    incomplete.
    """
    kind = request.spec.kind
    if kind in BASE_KINDS:
        return _enumerate_base(request, kind)
    base_kind = _base_kind(request)

    config = request.config
    uncapped = replace(request, config=replace(config, solution_cap=None))
    base = _enumerate_base(uncapped, base_kind)
    if not base.complete:
        return replace(base, solutions=ExtensionSet())
    kept = _extremal_members(request.framework, request.spec, list(base.solutions))
    cap = config.solution_cap
    if cap is not None and len(kept) > cap:
        return replace(base, solutions=ExtensionSet.of(kept[:cap]), complete=False)
    return replace(base, solutions=ExtensionSet.of(kept))


def _extremal_members(f: Framework, spec: SemanticsSpec, base: list[Extension]) -> list[Extension]:
    """The members of the extremal kind ``spec.kind`` among its complete
    base family, in the base family's order."""
    kind = spec.kind
    if kind == PREFERRED:
        return extremal(base, MAX)
    if kind == GROUNDED:
        return extremal(base, MIN)
    if kind in (SEMI_STABLE, STAGE):
        return extremal(base, MAX, [_range_key(f, ext, spec) for ext in base])
    # ideal: the largest base sets (admissible or complete) inside every
    # preferred extension.
    common = (1 << f.n) - 1
    for ext in extremal(base, MAX):
        common &= ext.bits
    return extremal([ext for ext in base if ext.bits & ~common == 0], MAX)


def _range_key(f: Framework, ext: Extension, spec: SemanticsSpec) -> int:
    if spec.weighted:
        return f.alpha_range(ext, spec.alpha).bits
    return f.range_of(ext).bits


def filter_extremal(
    sets: ExtensionSet,
    direction: str,
    *,
    key: str = MEMBERSHIP,
    framework: "Framework | None" = None,
    alpha=None,
) -> ExtensionSet:
    """Keep the subset-maximal (or -minimal) elements of a collection.

    With ``key="range"`` the comparison happens on the (alpha-)ranges,
    which requires the framework; the elements themselves are returned.
    """
    items = list(sets)
    if key == MEMBERSHIP:
        keys = None
    elif key == RANGE:
        if framework is None:
            raise ValueError("range filtering needs the framework")
        if alpha is None:
            keys = [framework.range_of(e).bits for e in items]
        else:
            keys = [framework.alpha_range(e, alpha).bits for e in items]
    else:
        raise ValueError(f"unknown filter key {key!r}")
    return ExtensionSet.of(extremal(items, direction, keys))


def is_preferred(
    framework: Framework,
    candidate: Extension,
    config: SearchConfig = SearchConfig(),
) -> bool:
    """Decide whether ``candidate`` is a preferred extension.

    The candidate must satisfy the admissibility model, and the same
    model restricted to strict supersets of the candidate must be
    unsatisfiable. Raises ``TimeoutError`` when the timeout cuts that
    probe before it finds a superset.
    """
    if framework.is_weighted:
        raise ValueError("the preferred decision works on classical frameworks")
    if candidate.n != framework.n:
        raise ValueError("candidate size does not match the framework")
    model = encode(framework, SemanticsSpec(ADMISSIBLE))
    if not satisfies(model, candidate.bits):
        return False
    outside = [i for i in range(framework.n) if i not in candidate]
    if not outside:
        return True
    forcing = tuple(Nogood((Literal(i, 0),)) for i in candidate)
    superset = Nogood(tuple(Literal(i, 0) for i in outside))
    probe = replace(model, nogoods=model.nogoods + forcing + (superset,))
    outcome = solve_all(probe, replace(config, solution_cap=1))
    if not outcome.complete and not outcome.solutions:
        raise TimeoutError("the preferred probe was cut by the timeout")
    return not outcome.solutions
