"""Preference algebras used to weight attacks and solver costs.

A semiring here is a carrier with two operations: an idempotent,
commutative "choice" operation (``plus``) that induces a partial order,
and a commutative "combination" operation (``times``) that is monotone
with respect to that order. Five instances are provided: boolean,
weighted (exact integer costs with a distinguished infinity), fuzzy and
probabilistic (both on a fixed-point 0..100 scale), and pairwise
products of any two instances.

Values carry an explicit tag so that costs, fixed-point grades,
booleans and pairs cannot silently cross between instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable

INF = math.inf

BOOLEAN_KIND = "boolean"
WEIGHTED_KIND = "weighted"
FUZZY_KIND = "fuzzy"
PROBABILISTIC_KIND = "probabilistic"
PRODUCT_KIND = "product"

KINDS = (BOOLEAN_KIND, WEIGHTED_KIND, FUZZY_KIND, PROBABILISTIC_KIND, PRODUCT_KIND)

TAG_BOOL = "bool"
TAG_COST = "cost"
TAG_UNIT = "unit"
TAG_PAIR = "pair"


class TagMismatchError(TypeError):
    """A value was used with a semiring instance of a different tag."""


@dataclass(frozen=True, slots=True)
class SemiringValue:
    """Tagged scalar: a boolean, an exact cost, a fixed-point grade in
    hundredths, or a pair of values for product instances."""

    tag: str
    payload: Any


def boolean_value(flag: bool) -> SemiringValue:
    if not isinstance(flag, bool):
        raise TagMismatchError(f"boolean value expected, got {flag!r}")
    return SemiringValue(TAG_BOOL, flag)


def cost_value(amount) -> SemiringValue:
    """A non-negative exact integer cost, or INF for the worst cost."""
    if amount == INF:
        return SemiringValue(TAG_COST, INF)
    if isinstance(amount, bool) or not isinstance(amount, int):
        raise TagMismatchError(f"cost must be an int or INF, got {amount!r}")
    if amount < 0:
        raise TagMismatchError(f"cost must be non-negative, got {amount!r}")
    return SemiringValue(TAG_COST, amount)


def unit_value(hundredths: int) -> SemiringValue:
    """A fixed-point grade on the 0..100 scale (0.37 is stored as 37)."""
    if isinstance(hundredths, bool) or not isinstance(hundredths, int):
        raise TagMismatchError(f"unit value must be an int in 0..100, got {hundredths!r}")
    if not 0 <= hundredths <= 100:
        raise TagMismatchError(f"unit value out of range 0..100: {hundredths!r}")
    return SemiringValue(TAG_UNIT, hundredths)


def pair_value(left: SemiringValue, right: SemiringValue) -> SemiringValue:
    if not isinstance(left, SemiringValue) or not isinstance(right, SemiringValue):
        raise TagMismatchError("pair components must be SemiringValue instances")
    return SemiringValue(TAG_PAIR, (left, right))


def format_value(value: SemiringValue) -> str:
    """Render a value the way the interchange format and the CLI print it."""
    if value.tag == TAG_BOOL:
        return "true" if value.payload else "false"
    if value.tag == TAG_COST:
        return "inf" if value.payload == INF else str(value.payload)
    if value.tag == TAG_UNIT:
        whole, frac = divmod(value.payload, 100)
        return f"{whole}.{frac:02d}"
    if value.tag == TAG_PAIR:
        left, right = value.payload
        return f"({format_value(left)},{format_value(right)})"
    raise TagMismatchError(f"unknown value tag {value.tag!r}")


@dataclass(frozen=True)
class Semiring:
    """One concrete preference algebra.

    ``plus`` picks the better of two values (and is used only through the
    induced order), ``times`` accumulates, ``bottom`` is the worst value
    and absorbs under ``times``, ``top`` is the best value and is the
    ``times`` identity.
    """

    kind: str
    parts: "tuple[Semiring, Semiring] | None" = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown semiring kind {self.kind!r}")
        if self.kind == PRODUCT_KIND:
            if self.parts is None or len(self.parts) != 2:
                raise ValueError("product semiring needs exactly two component instances")
        elif self.parts is not None:
            raise ValueError(f"{self.kind} semiring takes no component instances")

    @cached_property
    def tag(self) -> str:
        if self.kind == BOOLEAN_KIND:
            return TAG_BOOL
        if self.kind == WEIGHTED_KIND:
            return TAG_COST
        if self.kind == PRODUCT_KIND:
            return TAG_PAIR
        return TAG_UNIT

    @cached_property
    def associative(self) -> bool:
        """Is ``times`` associative? The probabilistic instance rounds every
        product back to the grid, so its combinations depend on the order
        in which values are folded."""
        if self.kind == PRODUCT_KIND:
            return self.parts[0].associative and self.parts[1].associative
        return self.kind != PROBABILISTIC_KIND

    @cached_property
    def bottom(self) -> SemiringValue:
        if self.kind == BOOLEAN_KIND:
            return SemiringValue(TAG_BOOL, False)
        if self.kind == WEIGHTED_KIND:
            return SemiringValue(TAG_COST, INF)
        if self.kind == PRODUCT_KIND:
            return pair_value(self.parts[0].bottom, self.parts[1].bottom)
        return SemiringValue(TAG_UNIT, 0)

    @cached_property
    def top(self) -> SemiringValue:
        if self.kind == BOOLEAN_KIND:
            return SemiringValue(TAG_BOOL, True)
        if self.kind == WEIGHTED_KIND:
            return SemiringValue(TAG_COST, 0)
        if self.kind == PRODUCT_KIND:
            return pair_value(self.parts[0].top, self.parts[1].top)
        return SemiringValue(TAG_UNIT, 100)

    def validate(self, value: SemiringValue) -> SemiringValue:
        """Check that ``value`` belongs to this instance; return it unchanged."""
        if not isinstance(value, SemiringValue) or value.tag != self.tag:
            raise TagMismatchError(
                f"value {value!r} does not carry tag {self.tag!r} of the {self.kind} instance"
            )
        payload = value.payload
        if self.kind == BOOLEAN_KIND:
            if not isinstance(payload, bool):
                raise TagMismatchError(f"malformed boolean payload {payload!r}")
        elif self.kind == WEIGHTED_KIND:
            ok = payload == INF or (
                isinstance(payload, int) and not isinstance(payload, bool) and payload >= 0
            )
            if not ok:
                raise TagMismatchError(f"malformed cost payload {payload!r}")
        elif self.kind == PRODUCT_KIND:
            if not isinstance(payload, tuple) or len(payload) != 2:
                raise TagMismatchError(f"malformed pair payload {payload!r}")
            self.parts[0].validate(payload[0])
            self.parts[1].validate(payload[1])
        else:
            ok = isinstance(payload, int) and not isinstance(payload, bool) and 0 <= payload <= 100
            if not ok:
                raise TagMismatchError(f"malformed unit payload {payload!r}")
        return value

    def plus(self, a: SemiringValue, b: SemiringValue) -> SemiringValue:
        self.validate(a)
        self.validate(b)
        return self._plus(a, b)

    def times(self, a: SemiringValue, b: SemiringValue) -> SemiringValue:
        self.validate(a)
        self.validate(b)
        return self._times(a, b)

    # The unchecked operations below serve callers whose values were
    # validated once on the way in (the search engine checks its costs and
    # weights when the model is built); the public ones validate each call.

    def _plus(self, a: SemiringValue, b: SemiringValue) -> SemiringValue:
        kind = self.kind
        if kind == BOOLEAN_KIND:
            return SemiringValue(TAG_BOOL, a.payload or b.payload)
        if kind == WEIGHTED_KIND:
            return SemiringValue(TAG_COST, min(a.payload, b.payload))
        if kind == PRODUCT_KIND:
            (a1, a2), (b1, b2) = a.payload, b.payload
            return SemiringValue(TAG_PAIR, (self.parts[0]._plus(a1, b1), self.parts[1]._plus(a2, b2)))
        return SemiringValue(TAG_UNIT, max(a.payload, b.payload))

    def _times(self, a: SemiringValue, b: SemiringValue) -> SemiringValue:
        kind = self.kind
        if kind == BOOLEAN_KIND:
            return SemiringValue(TAG_BOOL, a.payload and b.payload)
        if kind == WEIGHTED_KIND:
            total = a.payload + b.payload  # int + INF stays INF
            return SemiringValue(TAG_COST, total)
        if kind == FUZZY_KIND:
            return SemiringValue(TAG_UNIT, min(a.payload, b.payload))
        if kind == PROBABILISTIC_KIND:
            # Rational product over hundredths, rounded half-up back to the grid.
            return SemiringValue(TAG_UNIT, (a.payload * b.payload + 50) // 100)
        (a1, a2), (b1, b2) = a.payload, b.payload
        return SemiringValue(TAG_PAIR, (self.parts[0]._times(a1, b1), self.parts[1]._times(a2, b2)))

    def _leq(self, a: SemiringValue, b: SemiringValue) -> bool:
        """The order induced by ``plus`` (``plus(a, b) == b``), read off
        the payloads without building the sum."""
        kind = self.kind
        if kind == WEIGHTED_KIND:
            return a.payload >= b.payload
        if kind == BOOLEAN_KIND:
            return b.payload or not a.payload
        if kind == PRODUCT_KIND:
            (a1, a2), (b1, b2) = a.payload, b.payload
            return self.parts[0]._leq(a1, b1) and self.parts[1]._leq(a2, b2)
        return a.payload <= b.payload

    def _lt(self, a: SemiringValue, b: SemiringValue) -> bool:
        # The order is antisymmetric, so this equals ``a != b and a <= b``
        # without comparing the value objects.
        return self._leq(a, b) and not self._leq(b, a)

    def combine(self, values: Iterable[SemiringValue]) -> SemiringValue:
        """Left-fold of ``times``; the empty combination is ``top``."""
        result = self.top
        for value in values:
            result = self.times(result, value)
        return result

    def leq(self, a: SemiringValue, b: SemiringValue) -> bool:
        """True when ``b`` is at least as good as ``a``."""
        self.validate(a)
        self.validate(b)
        return self._leq(a, b)

    def lt(self, a: SemiringValue, b: SemiringValue) -> bool:
        self.validate(a)
        self.validate(b)
        return self._lt(a, b)

    def gt(self, a: SemiringValue, b: SemiringValue) -> bool:
        return self.lt(b, a)


BOOLEAN = Semiring(BOOLEAN_KIND)
WEIGHTED = Semiring(WEIGHTED_KIND)
FUZZY = Semiring(FUZZY_KIND)
PROBABILISTIC = Semiring(PROBABILISTIC_KIND)


def make_instance(kind: str, parts: "tuple[Semiring, Semiring] | None" = None) -> Semiring:
    """Build one of the five supported instances."""
    if kind == PRODUCT_KIND:
        return Semiring(PRODUCT_KIND, parts)
    return Semiring(kind)
