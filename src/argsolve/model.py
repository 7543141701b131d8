"""Attack graphs over dense argument indices, argument subsets as
bitsets, and canonical collections of subsets."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .semiring import Semiring, SemiringValue

# Arguments are dense indices 0..n-1; display names live on the Framework.
ArgumentId = int


@dataclass(frozen=True, slots=True)
class Extension:
    """A subset of arguments, stored as a bitset over 0..n-1.

    Bit i is set when argument i belongs to the subset, so set equality
    is integer equality and subset tests are mask tests.
    """

    bits: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"bitset {self.bits:#x} out of range for {self.n} arguments")

    @classmethod
    def from_members(cls, members: Iterable[int], n: int) -> "Extension":
        bits = 0
        for m in members:
            if not 0 <= m < n:
                raise ValueError(f"argument index {m} out of range 0..{n - 1}")
            bits |= 1 << m
        return cls(bits, n)

    def members(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.n and bool(self.bits >> index & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self):
        return iter_bits(self.bits)

    def issubset(self, other: "Extension") -> bool:
        return self.bits & other.bits == self.bits

    def union(self, other: "Extension") -> "Extension":
        return Extension(self.bits | other.bits, self.n)

    def format(self, names: Sequence[str] | None = None) -> str:
        if names is None:
            names = [str(i) for i in range(self.n)]
        return "{" + ",".join(names[i] for i in iter_bits(self.bits)) + "}"


def iter_bits(bits: int):
    """Yield the indices of the set bits, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@dataclass(frozen=True)
class ExtensionSet:
    """Deduplicated collection of extensions in canonical order.

    The canonical order is ascending on the membership bitset, which
    makes output and comparisons deterministic.
    """

    items: tuple[Extension, ...] = ()

    def __post_init__(self) -> None:
        sizes = {e.n for e in self.items}
        if len(sizes) > 1:
            raise ValueError("extensions over differently sized frameworks cannot be mixed")
        canonical = tuple(sorted({e.bits: e for e in self.items}.values(), key=lambda e: e.bits))
        object.__setattr__(self, "items", canonical)

    @classmethod
    def of(cls, items: Iterable[Extension]) -> "ExtensionSet":
        return cls(tuple(items))

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, extension: Extension) -> bool:
        return any(e.bits == extension.bits for e in self.items)

    def bitsets(self) -> frozenset[int]:
        return frozenset(e.bits for e in self.items)

    def format(self, names: Sequence[str] | None = None) -> str:
        return "[" + ", ".join(e.format(names) for e in self.items) + "]"


def extremal(
    items: Sequence[Extension],
    direction: str,
    keys: Sequence[int] | None = None,
) -> list[Extension]:
    """Keep the elements whose key bitset is subset-maximal or -minimal.

    ``keys`` defaults to the membership bitsets themselves. Elements
    with equal keys are all kept, so the result is an antichain of keys.

    This is the literal pairwise O(k^2) reference kept for the oracle;
    the solver pipeline uses the output-sensitive ``encodings.extremal``.
    """
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    if keys is None:
        keys = [e.bits for e in items]
    kept = []
    for i, element in enumerate(items):
        ki = keys[i]
        dominated = False
        for j, kj in enumerate(keys):
            if i == j or ki == kj:
                continue
            if direction == "max" and ki & kj == ki:
                dominated = True
                break
            if direction == "min" and ki & kj == kj:
                dominated = True
                break
        if not dominated:
            kept.append(element)
    return kept


@dataclass(frozen=True)
class Framework:
    """An attack graph: ``n`` arguments and directed attacks between them.

    Weighted frameworks carry one weight per attack plus the semiring
    the weights live in; a weight equal to the semiring top is rejected
    because top encodes the absence of an attack. Attacks are stored
    sorted, so structurally equal frameworks compare equal.
    """

    n: int
    attacks: tuple[tuple[int, int], ...] = ()
    names: tuple[str, ...] = ()
    weights: "tuple[SemiringValue, ...] | None" = None
    semiring: "Semiring | None" = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("argument count must be non-negative")
        attacks = [tuple(a) for a in self.attacks]
        for src, dst in attacks:
            if not (0 <= src < self.n and 0 <= dst < self.n):
                raise ValueError(f"attack ({src},{dst}) out of range for {self.n} arguments")
        if len(set(attacks)) != len(attacks):
            raise ValueError("duplicate attack pairs are not allowed")

        names = tuple(self.names) if self.names else tuple(str(i) for i in range(self.n))
        if len(names) != self.n:
            raise ValueError(f"expected {self.n} names, got {len(names)}")
        if len(set(names)) != len(names):
            raise ValueError("argument names must be unique")

        weights = self.weights
        if (weights is None) != (self.semiring is None):
            raise ValueError("weights and semiring must be given together")
        if weights is not None:
            if isinstance(weights, Mapping):
                weight_map = {tuple(k): v for k, v in weights.items()}
            else:
                if len(weights) != len(attacks):
                    raise ValueError("need exactly one weight per attack")
                weight_map = dict(zip(attacks, weights))
            if set(weight_map) != set(attacks):
                raise ValueError("weight map must cover exactly the attack relation")
            top = self.semiring.top
            for attack, value in weight_map.items():
                self.semiring.validate(value)
                if value == top:
                    raise ValueError(
                        f"attack {attack} weighted with the semiring top, which encodes no attack"
                    )
            order = sorted(attacks)
            object.__setattr__(self, "weights", tuple(weight_map[a] for a in order))
        else:
            order = sorted(attacks)
        object.__setattr__(self, "attacks", tuple(order))
        object.__setattr__(self, "names", names)

    @property
    def is_weighted(self) -> bool:
        return self.semiring is not None

    @cached_property
    def _attacker_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for src, dst in self.attacks:
            masks[dst] |= 1 << src
        return tuple(masks)

    @cached_property
    def _target_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for src, dst in self.attacks:
            masks[src] |= 1 << dst
        return tuple(masks)

    @cached_property
    def _weight_map(self) -> "dict[tuple[int, int], SemiringValue]":
        if self.weights is None:
            return {}
        return dict(zip(self.attacks, self.weights))

    @cached_property
    def _attacks_onto(self) -> tuple[tuple[tuple[int, "SemiringValue | None"], ...], ...]:
        onto: list[list] = [[] for _ in range(self.n)]
        for idx, (src, dst) in enumerate(self.attacks):
            weight = self.weights[idx] if self.weights is not None else None
            onto[dst].append((src, weight))
        return tuple(tuple(entry) for entry in onto)

    @cached_property
    def _name_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def _check_index(self, a: int) -> None:
        if not 0 <= a < self.n:
            raise ValueError(f"argument index {a} out of range 0..{self.n - 1}")

    def attackers(self, a: int) -> frozenset[int]:
        """Parents of ``a`` in the attack graph."""
        self._check_index(a)
        return frozenset(iter_bits(self._attacker_masks[a]))

    def targets(self, a: int) -> frozenset[int]:
        """Children of ``a`` in the attack graph."""
        self._check_index(a)
        return frozenset(iter_bits(self._target_masks[a]))

    def attacker_mask(self, a: int) -> int:
        return self._attacker_masks[a]

    def target_mask(self, a: int) -> int:
        return self._target_masks[a]

    def attacks_onto(self, a: int) -> tuple:
        """(attacker, weight) pairs for every attack on ``a``; the
        weight slot is None on unweighted frameworks."""
        return self._attacks_onto[a]

    def weight(self, src: int, dst: int) -> SemiringValue:
        if not self.is_weighted:
            raise ValueError("framework is unweighted")
        try:
            return self._weight_map[(src, dst)]
        except KeyError:
            raise ValueError(f"no attack ({src},{dst}) in the framework") from None

    def joint_attack_weight(self, src, dst) -> SemiringValue:
        """Combined weight with which the set ``src`` attacks ``dst``.

        ``dst`` may be a single argument or a set; attacks that do not
        exist contribute nothing, so an unattacked target yields top.
        """
        if not self.is_weighted:
            raise ValueError("framework is unweighted")
        src_bits = src.bits if isinstance(src, Extension) else Extension.from_members(src, self.n).bits
        if isinstance(dst, int):
            self._check_index(dst)
            dst_bits = 1 << dst
        else:
            dst_bits = dst.bits if isinstance(dst, Extension) else Extension.from_members(dst, self.n).bits
        values = []
        for target in iter_bits(dst_bits):
            for attacker, weight in self._attacks_onto[target]:
                if src_bits >> attacker & 1:
                    values.append(weight)
        return self.semiring.combine(values)

    def range_of(self, extension: Extension) -> Extension:
        """The subset plus everything it attacks."""
        bits = extension.bits
        for member in iter_bits(extension.bits):
            bits |= self._target_masks[member]
        return Extension(bits, self.n)

    def alpha_range(self, extension: Extension, alpha: SemiringValue) -> Extension:
        """The subset plus every argument it attacks more strongly than ``alpha``."""
        if not self.is_weighted:
            raise ValueError("framework is unweighted")
        self.semiring.validate(alpha)
        bits = extension.bits
        for target in range(self.n):
            weight = self.joint_attack_weight(extension, target)
            if self.semiring.lt(weight, alpha):
                bits |= 1 << target
        return Extension(bits, self.n)

    def extension(self, members: Iterable) -> Extension:
        """Build an Extension from indices or display names."""
        indices = []
        for m in members:
            indices.append(m if isinstance(m, int) else self.index_of(m))
        return Extension.from_members(indices, self.n)

    def index_of(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise ValueError(f"unknown argument name {name!r}") from None

    def without_attacks(self, indices: Iterable[int]) -> "Framework":
        """Classical copy with the given attack indices removed.

        Weights are dropped: the reduced graph is evaluated with the
        classical semantics.
        """
        drop = set(indices)
        for idx in drop:
            if not 0 <= idx < len(self.attacks):
                raise ValueError(f"attack index {idx} out of range")
        remaining = tuple(a for i, a in enumerate(self.attacks) if i not in drop)
        return Framework(self.n, remaining, self.names)

    def unweighted(self) -> "Framework":
        return Framework(self.n, self.attacks, self.names)
