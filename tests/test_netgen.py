import statistics

import pytest

from argsolve import netgen
from argsolve.netgen import GenSpec, assign_weights, fig4, gen_barabasi, gen_kleinberg
from argsolve.semiring import FUZZY, WEIGHTED, cost_value


class TestSpecValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GenSpec(kind="barabasi", node_count=1)
        with pytest.raises(ValueError):
            GenSpec(kind="kleinberg", side=1)
        with pytest.raises(ValueError):
            GenSpec(kind="barabasi", edges_per_step=0)
        with pytest.raises(ValueError):
            GenSpec(kind="kleinberg", theta=0)
        with pytest.raises(ValueError):
            GenSpec(kind="kleinberg", theta=float("nan"))
        with pytest.raises(ValueError):
            GenSpec(kind="erdos")


class TestBarabasi:
    def test_two_nodes_is_the_seed_graph(self):
        f = gen_barabasi(GenSpec(kind="barabasi", node_count=2, seed=3))
        assert f.n == 2 and len(f.attacks) == 1

    def test_size_lands_near_target(self):
        f = gen_barabasi(GenSpec(kind="barabasi", node_count=10, edges_per_step=3, seed=1))
        assert f.n == 10
        assert 20 <= len(f.attacks) <= 25  # 1 + 8*3 attachment edges, minus collisions

    def test_deterministic(self):
        spec = GenSpec(kind="barabasi", node_count=20, edges_per_step=2, seed=9)
        assert gen_barabasi(spec) == gen_barabasi(spec)

    def test_degree_distribution_is_heavy_tailed(self):
        f = gen_barabasi(GenSpec(kind="barabasi", node_count=1000, edges_per_step=3, seed=5))
        degree = [0] * f.n
        for src, dst in f.attacks:
            degree[src] += 1
            degree[dst] += 1
        assert max(degree) > 3 * statistics.mean(degree)


class TestKleinberg:
    def test_node_count_is_side_squared(self):
        f = gen_kleinberg(GenSpec(kind="kleinberg", side=5, seed=1))
        assert f.n == 25

    def test_both_orientation_matches_reference_density(self):
        # 4 local attacks per node plus one long-range each.
        f = gen_kleinberg(GenSpec(kind="kleinberg", side=6, seed=1, orient="both"))
        assert f.n == 36 and len(f.attacks) == 180
        f = gen_kleinberg(GenSpec(kind="kleinberg", side=5, seed=2, orient="both"))
        assert f.n == 25 and len(f.attacks) == 125

    def test_coin_orientation_halves_local_edges(self):
        f = gen_kleinberg(GenSpec(kind="kleinberg", side=5, seed=3))
        assert len(f.attacks) == 75  # 50 oriented local pairs + 25 long-range

    def test_deterministic(self):
        spec = GenSpec(kind="kleinberg", side=4, seed=11, theta=1.5)
        assert gen_kleinberg(spec) == gen_kleinberg(spec)

    def test_long_range_prefers_close_targets(self):
        # Collect long-range links over many seeds and compare the
        # per-target rate at distance 2 with distance 5 (distance-1
        # slots collide with local edges, so start at 2).
        side = 11
        by_distance = {d: 0 for d in range(1, side + 1)}
        candidates = {d: 0 for d in range(1, side + 1)}
        coords = [(x, y) for x in range(side) for y in range(side)]
        for a in coords:
            for b in coords:
                if a != b:
                    d = netgen._torus_distance(a, b, side)
                    candidates[d] += 1
        for seed in range(6):
            f = gen_kleinberg(GenSpec(kind="kleinberg", side=side, seed=seed, theta=2.0))
            for u, v in f.attacks:
                d = netgen._torus_distance(coords[u], coords[v], side)
                if d > 1:
                    by_distance[d] += 1
        rate = {d: by_distance[d] / candidates[d] for d in (2, 5) if candidates[d]}
        assert rate[2] > rate[5]


class TestWeights:
    def test_integer_scheme(self, fig4u):
        f = assign_weights(fig4u, "int", seed=4, weight_max=9)
        assert f.semiring == WEIGHTED
        assert all(1 <= w.payload <= 9 for w in f.weights)

    def test_degenerate_interval(self, fig4u):
        f = assign_weights(fig4u, "int", seed=4, weight_max=1)
        assert all(w == cost_value(1) for w in f.weights)

    def test_fuzzy_scheme_avoids_top_and_bottom(self, fig4u):
        f = assign_weights(fig4u, "fuzzy", seed=4)
        assert f.semiring == FUZZY
        assert all(1 <= w.payload <= 99 for w in f.weights)

    def test_deterministic(self, fig4u):
        a = assign_weights(fig4u, "int", seed=8, weight_max=5)
        b = assign_weights(fig4u, "int", seed=8, weight_max=5)
        assert a == b

    def test_empty_attack_set(self):
        from argsolve.model import Framework

        f = assign_weights(Framework(3), "int", seed=0)
        assert f.is_weighted and f.weights == ()

    def test_already_weighted_rejected(self, fig4w):
        with pytest.raises(ValueError):
            assign_weights(fig4w, "int", seed=0)


class TestExampleGraph:
    def test_weighted_form(self):
        f = fig4()
        assert f.n == 5 and len(f.attacks) == 6
        assert f.weight(f.index_of("c"), f.index_of("d")) == cost_value(9)
        assert f.weight(f.index_of("d"), f.index_of("e")) == cost_value(5)

    def test_unweighted_form(self):
        f = fig4(weighted=False)
        assert not f.is_weighted
        assert f.attacks == fig4().attacks


class TestGeneratedInvariants:
    def test_frameworks_are_valid_and_weighted_variants_hold(self):
        for seed in range(5):
            for spec in (
                GenSpec(kind="barabasi", node_count=8, seed=seed,
                        weight_scheme="int", weight_max=9, weight_seed=seed),
                GenSpec(kind="kleinberg", side=3, seed=seed,
                        weight_scheme="fuzzy", weight_seed=seed),
            ):
                f = netgen.generate(spec)
                assert len(set(f.attacks)) == len(f.attacks)
                top = f.semiring.top
                assert all(w != top for w in f.weights)
