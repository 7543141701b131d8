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
stable. Classical stage and semi-stable are the stable family whenever
it has a member; otherwise a range-cut search of the conflict-free
(stage) or complete (semi-stable) family leaves candidates for the same
filter. Grounded and weighted semi-stable filter the complete family
and weighted stage the conflict-free one; preferred and ideal filter the
complete family when classical with no side requirements, and the
admissible one otherwise. Weighted models are exact for the conflict-free, admissible
and complete families: the conflict budget is a cost term per attack
under the threshold alpha, and weighted defense and completeness are the
engine's native rules, one defense per attack and one completeness rule
per argument, so the number of constraints grows linearly with the
graph, whatever the in-degrees. Weighted stable models are exact too:
both rules ask for an attack from a member on every outsider, and the
strict rule adds, per argument, a weighted defense with no child whose
counters are the argument's other attackers and whose incoming weight
is alpha, so an outsider must be attacked strictly worse than alpha.

Every model is exact, so the search's solutions are the extensions:
nothing re-checks them, and the brute-force equivalence tests guard that
exactness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

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
    solve_range_cut,
    solve_within_budget,
)
from .model import Extension, ExtensionSet, Framework, iter_bits
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
    STRICT,
    SemanticsSpec,
)

MAX = "max"
MIN = "min"

MEMBERSHIP = "membership"
RANGE = "range"


@dataclass(frozen=True)
class EncodingRequest:
    """Everything needed to enumerate one semantics on one framework.

    ``requirements`` are side requirements over argument membership,
    whose variables are the framework's argument indices.
    """

    framework: Framework
    spec: SemanticsSpec
    config: SearchConfig = SearchConfig()
    requirements: tuple[ConditionalRequirement, ...] = ()


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

    if spec.stable_rule == STRICT:
        # Every outsider is attacked strictly worse than alpha.
        defenses.extend(WeightedDefense(None, c, spec.alpha, counters(c)) for c in range(f.n))

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
    return replace(model, conditionals=model.conditionals + tuple(requirements))


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


def _base_model(request: EncodingRequest, kind: str) -> Model:
    model = encode(request.framework, replace(request.spec, kind=kind))
    return apply_user_requirements(model, request.requirements)


def _enumerate_base(request: EncodingRequest, kind: str) -> SolveOutcome:
    return _solve(_base_model(request, kind), request.config)


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

    Base kinds are one solver run. Classical stage and semi-stable take
    ``_enumerate_range_maximal``. The other inclusion-extremal kinds first
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
    if kind in (STAGE, SEMI_STABLE) and not request.spec.weighted:
        return _enumerate_range_maximal(request)
    uncapped = replace(request, config=replace(request.config, solution_cap=None))
    return _keep_extremal(request, _enumerate_base(uncapped, _base_kind(request)))


def _keep_extremal(request: EncodingRequest, base: SolveOutcome) -> SolveOutcome:
    """The extremal members among the solutions of ``base``, capped; none
    when ``base`` was cut."""
    if not base.complete:
        return replace(base, solutions=ExtensionSet())
    kept = _extremal_members(request.framework, request.spec, list(base.solutions))
    cap = request.config.solution_cap
    if cap is not None and len(kept) > cap:
        return replace(base, solutions=ExtensionSet.of(kept[:cap]), complete=False)
    return replace(base, solutions=ExtensionSet.of(kept))


def _enumerate_range_maximal(request: EncodingRequest) -> SolveOutcome:
    """Classical stage or semi-stable: stable first, then a range-cut
    search of the base family.

    A stable set is conflict-free and complete and has full range, so
    when the stable model (with the side requirements) has a member, the
    range-maximal sets of the base family that meet the requirements
    are exactly the stable ones that do. The probe asks for one member
    more than the cap, so a listing is marked incomplete only when the
    family is larger than the cap; every member a timed-out probe found
    is a true member. Otherwise ``solve_range_cut`` searches the base
    family on the time left and ``extremal`` keeps the range-maximal
    candidates. Nodes and elapsed time count both searches.
    """
    config = request.config
    cap = config.solution_cap
    probe_config = replace(config, solution_cap=None if cap is None else cap + 1)
    stable = _enumerate_base(replace(request, config=probe_config), STABLE)
    if stable.solutions:
        if cap is not None and len(stable.solutions) > cap:
            return replace(stable, solutions=ExtensionSet.of(stable.solutions.items[:cap]), complete=False)
        return stable
    left_ms = config.timeout_ms - stable.elapsed_ms
    if not stable.complete or left_ms <= 0:
        return replace(stable, complete=False)
    base_config = replace(config, solution_cap=None, timeout_ms=left_ms)
    base = solve_range_cut(_base_model(request, _base_kind(request)), base_config)
    base = replace(base, nodes=stable.nodes + base.nodes, elapsed_ms=stable.elapsed_ms + base.elapsed_ms)
    return _keep_extremal(request, base)


def _extremal_members(f: Framework, spec: SemanticsSpec, base: list[Extension]) -> list[Extension]:
    """The members of the extremal kind ``spec.kind`` among its complete
    base family, in the base family's order."""
    kind = spec.kind
    if kind == PREFERRED:
        return extremal(base, MAX)
    if kind == GROUNDED:
        return extremal(base, MIN)
    if kind in (SEMI_STABLE, STAGE):
        return extremal(base, MAX, _range_keys(f, base, spec.alpha))
    # ideal: the largest base sets (admissible or complete) inside every
    # preferred extension.
    common = (1 << f.n) - 1
    for ext in extremal(base, MAX):
        common &= ext.bits
    return extremal([ext for ext in base if ext.bits & ~common == 0], MAX)


def _range_keys(f: Framework, items: Sequence[Extension], alpha=None) -> list[int]:
    """Each item OR its members' target masks, or its alpha-range."""
    if alpha is not None:
        return [f.alpha_range(e, alpha).bits for e in items]
    targets = [f.target_mask(a) for a in range(f.n)]
    keys = []
    for e in items:
        bits = e.bits
        for member in iter_bits(bits):
            bits |= targets[member]
        keys.append(bits)
    return keys


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
        keys = _range_keys(framework, items, alpha)
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
