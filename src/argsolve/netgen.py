"""Seeded random attack-graph generators with small-world structure,
plus the weight assignment schemes.

Two constructions are available: preferential attachment (new nodes
attach to well-connected ones) and a toroidal lattice with distance-
decaying long-range links. The underlying edges are undirected; by
default each one is oriented by a seeded fair coin, or emitted in both
directions with ``orient="both"``. Long-range links are directed as
sampled. The bundled five-argument example graph used throughout the
documentation is available as ``fig4``.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .model import Framework
from .semiring import FUZZY, WEIGHTED, cost_value, unit_value

BARABASI = "barabasi"
KLEINBERG = "kleinberg"

ORIENT_COIN = "coin"
ORIENT_BOTH = "both"

WEIGHTS_NONE = "none"
WEIGHTS_INT = "int"
WEIGHTS_FUZZY = "fuzzy"

_RESAMPLE_LIMIT = 64


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one generated instance.

    ``node_count``/``edges_per_step`` drive the preferential-attachment
    kind; ``side``/``theta``/``long_range_per_node`` drive the lattice
    kind (``side`` is the grid side, so the graph has side^2 nodes and
    ``theta`` is the clustering exponent of the d^-theta decay).
    """

    kind: str
    node_count: int = 10
    edges_per_step: int = 3
    side: int = 5
    theta: float = 0.5
    long_range_per_node: int = 1
    seed: int = 0
    orient: str = ORIENT_COIN
    weight_scheme: str = WEIGHTS_NONE
    weight_max: int = 9
    weight_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (BARABASI, KLEINBERG):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == BARABASI and self.node_count < 2:
            raise ValueError("need at least two nodes")
        if self.kind == KLEINBERG and self.side < 2:
            raise ValueError("the lattice side must be at least 2")
        if self.edges_per_step < 1:
            raise ValueError("edges_per_step must be at least 1")
        if self.long_range_per_node < 1:
            raise ValueError("long_range_per_node must be at least 1")
        if not self.theta > 0:  # NaN included
            raise ValueError("the clustering exponent must be positive")
        if self.orient not in (ORIENT_COIN, ORIENT_BOTH):
            raise ValueError(f"unknown orientation policy {self.orient!r}")
        if self.weight_scheme not in (WEIGHTS_NONE, WEIGHTS_INT, WEIGHTS_FUZZY):
            raise ValueError(f"unknown weight scheme {self.weight_scheme!r}")
        if self.weight_max < 1:
            raise ValueError("weight_max must be at least 1")


def generate(spec: GenSpec) -> Framework:
    """Generate the graph described by ``spec``, attaching weights if requested."""
    framework = gen_barabasi(spec) if spec.kind == BARABASI else gen_kleinberg(spec)
    if spec.weight_scheme == WEIGHTS_NONE:
        return framework
    return assign_weights(framework, spec.weight_scheme, spec.weight_seed, spec.weight_max)


def _add_oriented(attacks: set, a: int, b: int, rng: Random, orient: str) -> None:
    if orient == ORIENT_BOTH:
        attacks.add((a, b))
        attacks.add((b, a))
    elif rng.random() < 0.5:
        attacks.add((a, b))
    else:
        attacks.add((b, a))


def gen_barabasi(spec: GenSpec) -> Framework:
    """Preferential attachment: grow from a two-node seed graph, one
    vertex per step, attaching each new edge to an existing endpoint
    with probability proportional to degree+1 in the current graph."""
    rng = Random(spec.seed)
    n = spec.node_count
    attacks: set[tuple[int, int]] = set()
    degree = [0] * n

    def add_attack(src: int, dst: int) -> None:
        attacks.add((src, dst))
        degree[src] += 1
        degree[dst] += 1

    if rng.random() < 0.5:
        add_attack(0, 1)
    else:
        add_attack(1, 0)

    for v in range(2, n):
        for _ in range(spec.edges_per_step):
            for _attempt in range(_RESAMPLE_LIMIT):
                target = rng.choices(range(v), weights=[degree[w] + 1 for w in range(v)])[0]
                if spec.orient == ORIENT_BOTH:
                    if (v, target) in attacks and (target, v) in attacks:
                        continue
                    if (v, target) not in attacks:
                        add_attack(v, target)
                    if (target, v) not in attacks:
                        add_attack(target, v)
                    break
                src, dst = (v, target) if rng.random() < 0.5 else (target, v)
                if (src, dst) in attacks:
                    continue
                add_attack(src, dst)
                break

    return Framework(n, tuple(attacks))


def _torus_distance(a: tuple[int, int], b: tuple[int, int], side: int) -> int:
    dx = abs(a[0] - b[0])
    dy = abs(a[1] - b[1])
    return min(dx, side - dx) + min(dy, side - dy)


def gen_kleinberg(spec: GenSpec) -> Framework:
    """Toroidal lattice with long-range links.

    Every node is locally connected to its four lattice neighbours;
    each node additionally fires ``long_range_per_node`` directed
    long-range attacks whose targets are sampled with probability
    proportional to d^-theta over the torus Manhattan distance d.
    """
    rng = Random(spec.seed)
    side = spec.side
    n = side * side

    def node(x: int, y: int) -> int:
        return x * side + y

    coords = [(x, y) for x in range(side) for y in range(side)]
    attacks: set[tuple[int, int]] = set()

    local_pairs = set()
    for x in range(side):
        for y in range(side):
            for nx, ny in (((x + 1) % side, y), (x, (y + 1) % side)):
                pair = tuple(sorted((node(x, y), node(nx, ny))))
                if pair[0] != pair[1]:
                    local_pairs.add(pair)
    for a, b in sorted(local_pairs):
        _add_oriented(attacks, a, b, rng, spec.orient)

    for u in range(n):
        others = [v for v in range(n) if v != u]
        weights = [
            _torus_distance(coords[u], coords[v], side) ** -spec.theta for v in others
        ]
        for _ in range(spec.long_range_per_node):
            chosen = None
            for _attempt in range(_RESAMPLE_LIMIT):
                candidate = rng.choices(others, weights=weights)[0]
                if (u, candidate) not in attacks:
                    chosen = candidate
                    break
            if chosen is None:
                for candidate in others:  # deterministic fallback
                    if (u, candidate) not in attacks:
                        chosen = candidate
                        break
            if chosen is not None:
                attacks.add((u, chosen))

    return Framework(n, tuple(attacks))


def assign_weights(framework: Framework, scheme: str, seed: int, weight_max: int = 9) -> Framework:
    """Attach independent random weights to every attack.

    ``int`` draws uniform integers in 1..weight_max on the cost
    instance; ``fuzzy`` draws fixed-point grades in 0.01..0.99 (the
    1.00 top is reserved for "no attack" and 0.00 for the strongest
    possible one, neither of which is generated).
    """
    if framework.is_weighted:
        raise ValueError("framework already carries weights")
    if scheme not in (WEIGHTS_INT, WEIGHTS_FUZZY):
        raise ValueError(f"unknown weight scheme {scheme!r}")
    if weight_max < 1:
        raise ValueError("weight_max must be at least 1")
    rng = Random(seed)
    if scheme == WEIGHTS_INT:
        weights = {a: cost_value(rng.randint(1, weight_max)) for a in framework.attacks}
        semiring = WEIGHTED
    else:
        weights = {a: unit_value(rng.randint(1, 99)) for a in framework.attacks}
        semiring = FUZZY
    return Framework(framework.n, framework.attacks, framework.names, weights, semiring)


def fig4(weighted: bool = True) -> Framework:
    """The five-argument example graph used across the documentation.

    Arguments a..e with attacks a->b, c->b, c->d, d->c, d->e, e->e; the
    weighted form carries costs 7, 8, 9, 8, 5, 6 respectively.
    """
    names = ("a", "b", "c", "d", "e")
    attacks = ((0, 1), (2, 1), (2, 3), (3, 2), (3, 4), (4, 4))
    if not weighted:
        return Framework(5, attacks, names)
    weights = {
        (0, 1): cost_value(7),
        (2, 1): cost_value(8),
        (2, 3): cost_value(9),
        (3, 2): cost_value(8),
        (3, 4): cost_value(5),
        (4, 4): cost_value(6),
    }
    return Framework(5, attacks, names, weights, WEIGHTED)
