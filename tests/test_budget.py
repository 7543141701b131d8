import itertools
import random

import pytest

from argsolve import netgen
from argsolve.budget import (
    RemovalSet,
    credulous,
    is_minimal,
    minimal_budget,
    removal_sets,
    skeptical,
    wge,
)
from argsolve.engine import SearchConfig
from argsolve.model import Framework
from argsolve.oracle import GROUNDED, SemanticsSpec, enumerate_bruteforce, grounded_fixpoint
from argsolve.semiring import WEIGHTED, cost_value

from conftest import small_corpus


class TestRemovalSets:
    def test_zero_budget(self, fig4w):
        sets = removal_sets(fig4w, 0)
        assert len(sets) == 1 and sets[0].attack_indices == ()

    def test_budget_eight(self, fig4w):
        sets = removal_sets(fig4w, 8)
        by_name = {
            tuple(
                (fig4w.names[s], fig4w.names[d]) for s, d in r.attacks(fig4w)
            ): r.total_weight
            for r in sets
        }
        assert by_name == {
            (): 0,
            (("a", "b"),): 7,
            (("c", "b"),): 8,
            (("d", "c"),): 8,
            (("d", "e"),): 5,
            (("e", "e"),): 6,
        }

    def test_budget_twelve_pairs(self, fig4w):
        sets = removal_sets(fig4w, 12)
        pairs = {r.attacks(fig4w) for r in sets if len(r.attack_indices) == 2}
        named = {
            tuple((fig4w.names[s], fig4w.names[d]) for s, d in p) for p in pairs
        }
        assert (("d", "e"), ("e", "e")) in named
        assert all(sum_of(fig4w, p) <= 12 for p in pairs)

    def test_requires_cost_weights(self, fig4u):
        with pytest.raises(ValueError):
            removal_sets(fig4u, 3)
        fuzzy = netgen.assign_weights(fig4u, "fuzzy", 1)
        with pytest.raises(ValueError):
            removal_sets(fuzzy, 3)

    def test_negative_budget_rejected(self, fig4w):
        with pytest.raises(ValueError):
            removal_sets(fig4w, -1)

    def test_order_matches_a_brute_force_filter(self):
        for f in small_corpus(6, weighted=True, weight_max=3):
            weights = [w.payload for w in f.weights]
            for beta in (0, 3, 6):
                # Every weight is at least 1, so no set of more than beta
                # attacks fits the budget.
                expected = sorted(
                    (sum(weights[i] for i in subset), subset)
                    for size in range(min(beta, len(weights)) + 1)
                    for subset in itertools.combinations(range(len(weights)), size)
                    if sum(weights[i] for i in subset) <= beta
                )
                found = [(r.total_weight, r.attack_indices) for r in removal_sets(f, beta)]
                assert found == expected, (f.attacks, weights, beta)

    def test_zero_budget_on_a_long_ring(self):
        f = unit_ring(1200)
        assert removal_sets(f, 0) == (RemovalSet((), 0),)
        assert len(removal_sets(f, 1)) == 1201


def unit_ring(n):
    attacks = tuple((i, (i + 1) % n) for i in range(n))
    return Framework(n, attacks, weights=(cost_value(1),) * n, semiring=WEIGHTED)


def sum_of(f, attacks):
    return sum(f.weight(s, d).payload for s, d in attacks)


class TestWge:
    def test_zero_budget_is_plain_grounded(self, fig4w):
        assert wge(fig4w, 0).bitsets() == {fig4w.extension("a").bits}

    def test_budget_eight(self, fig4w):
        assert wge(fig4w, 8).bitsets() == {
            fig4w.extension("a").bits,
            fig4w.extension("ac").bits,
        }

    def test_budget_seventeen_reaches_acd(self, fig4w):
        assert fig4w.extension("acd") in wge(fig4w, 17)

    def test_monotone_in_budget(self):
        for f in small_corpus(6, weighted=True, weight_max=4):
            previous = None
            for beta in (0, 2, 4, 7):
                current = wge(f, beta).bitsets()
                if previous is not None:
                    assert previous <= current
                previous = current

    def test_zero_budget_matches_oracle_on_samples(self):
        for f in small_corpus(8, weighted=True):
            (expected,) = enumerate_bruteforce(f.unweighted(), SemanticsSpec(GROUNDED))
            assert wge(f, 0).bitsets() == {expected.bits}

    def test_zero_budget_on_a_long_ring(self):
        assert wge(unit_ring(1200), 0).bitsets() == {0}

    def test_timeout_raises(self):
        lattice = netgen.generate(netgen.GenSpec(kind="kleinberg", side=3, seed=1, orient="both"))
        f = netgen.assign_weights(lattice, netgen.WEIGHTS_INT, 2, 9)
        with pytest.raises(TimeoutError):
            wge(f, 3, SearchConfig(timeout_ms=0.001))


class TestDecisions:
    def test_credulous_example(self, fig4w):
        verdict, witness = credulous(fig4w, 8, fig4w.index_of("c"))
        assert verdict and witness == fig4w.extension("ac")

    def test_skeptical_examples(self, fig4w):
        verdict, counter = skeptical(fig4w, 8, fig4w.index_of("c"))
        assert not verdict and counter == fig4w.extension("a")
        verdict, counter = skeptical(fig4w, 8, fig4w.index_of("a"))
        assert verdict and counter is None

    def test_decisions_agree_with_enumeration(self):
        for f in small_corpus(6, weighted=True, weight_max=4):
            rng = random.Random(f.n + len(f.attacks))
            for beta in (0, 3, 6):
                members = wge(f, beta)
                for _ in range(4):
                    a = rng.randrange(f.n)
                    cred, _w = credulous(f, beta, a)
                    skep, _c = skeptical(f, beta, a)
                    assert cred == any(a in e for e in members)
                    assert skep == all(a in e for e in members)


class TestMinimalBudget:
    def test_examples(self, fig4w):
        assert minimal_budget(fig4w, fig4w.extension("a"))[0] == 0
        least, removal = minimal_budget(fig4w, fig4w.extension("ac"))
        assert least == 8
        assert removal.attacks(fig4w) == ((fig4w.index_of("d"), fig4w.index_of("c")),)
        assert minimal_budget(fig4w, fig4w.extension("acd"))[0] == 17

    def test_unreachable_target(self, fig4w):
        assert minimal_budget(fig4w, fig4w.extension("b")) == (None, None)

    def test_is_minimal(self, fig4w):
        ac = fig4w.extension("ac")
        assert is_minimal(fig4w, ac, 8)
        assert not is_minimal(fig4w, ac, 9)
        assert not is_minimal(fig4w, ac, 0)

    def test_consistency_with_wge(self):
        for f in small_corpus(5, weighted=True, weight_max=4):
            for target in wge(f, 5):
                least, removal = minimal_budget(f, target)
                assert least is not None and least <= 5
                assert removal.total_weight == least
                assert target in wge(f, least)
                if least > 0:
                    assert target not in wge(f, least - 1)
                first = next(
                    r
                    for r in removal_sets(f, least)
                    if grounded_fixpoint(f.without_attacks(r.attack_indices)) == target
                )
                assert removal == first
