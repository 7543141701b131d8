import itertools
import random

import pytest

from argsolve.encodings import (
    EncodingRequest,
    UserRequirement,
    apply_user_requirements,
    encode,
    enumerate_extensions,
    extremal,
    filter_extremal,
    is_preferred,
)
from argsolve import netgen
from argsolve.engine import Literal, SearchConfig, satisfies, solve_all, solve_within_budget
from argsolve.model import Extension, ExtensionSet, Framework
from argsolve.model import extremal as model_extremal
from argsolve.oracle import (
    ADMISSIBLE,
    ALL_KINDS,
    COMPLETE,
    CONFLICT_FREE,
    EXTREMAL_KINDS,
    GROUNDED,
    IDEAL,
    PREFERRED,
    SEMI_STABLE,
    STABLE,
    STAGE,
    SemanticsSpec,
    check,
    enumerate_bruteforce,
)
from argsolve.semiring import (
    FUZZY,
    PROBABILISTIC,
    PRODUCT_KIND,
    WEIGHTED,
    cost_value,
    make_instance,
    pair_value,
    unit_value,
)

from conftest import small_corpus


def run(framework, spec):
    return enumerate_extensions(EncodingRequest(framework, spec, SearchConfig()))


def seeded_barabasi():
    """Twelve seeded Barabasi graphs of 3 to 10 arguments."""
    rng = random.Random(1997)
    for seed in range(12):
        spec = netgen.GenSpec(
            kind="barabasi",
            node_count=rng.randint(3, 10),
            edges_per_step=rng.randint(1, 3),
            seed=seed,
            orient=rng.choice(["coin", "both"]),
        )
        yield seed, netgen.generate(spec)


# Products of two instances order their values only partially.
COST_GRADE = make_instance(PRODUCT_KIND, (WEIGHTED, FUZZY))
GRADE_PROBABILITY = make_instance(PRODUCT_KIND, (FUZZY, PROBABILISTIC))


def product_weighted(f, semiring, seed):
    """``f`` with a random pair weight on every attack."""
    rng = random.Random(seed)

    def part(instance):
        return cost_value(rng.randint(1, 9)) if instance is WEIGHTED else unit_value(rng.randint(1, 99))

    left, right = semiring.parts
    weights = tuple(pair_value(part(left), part(right)) for _ in f.attacks)
    return Framework(f.n, f.attacks, f.names, weights, semiring)


def product_alphas(semiring):
    if semiring is COST_GRADE:
        return tuple(pair_value(cost_value(c), unit_value(u)) for c, u in ((3, 50), (8, 20), (0, 100)))
    return tuple(pair_value(unit_value(a), unit_value(b)) for a, b in ((50, 30), (20, 60), (100, 100)))


def bitsets(f, *groups):
    return {f.extension(list(g)).bits for g in groups}


class TestClassicalEncodings:
    def test_conflict_free_model_shape(self, fig4u):
        model = encode(fig4u, SemanticsSpec(CONFLICT_FREE))
        assert model.nogoods == () and model.conditionals == ()
        rules = model.argumentation
        assert rules.attackers == tuple(fig4u.attacker_mask(a) for a in range(fig4u.n))
        assert rules.conflict_free and not (rules.defense or rules.completeness or rules.stability)
        out = solve_all(model)
        assert len(out.solutions) == 8

    def test_stable_solutions(self, fig4u):
        out = run(fig4u, SemanticsSpec(STABLE))
        assert out.solutions.bitsets() == bitsets(fig4u, "ad")

    def test_admissible_solutions(self, fig4u):
        out = run(fig4u, SemanticsSpec(ADMISSIBLE))
        assert out.solutions.bitsets() == bitsets(fig4u, "", "a", "c", "d", "ac", "ad")

    def test_extremal_pipelines(self, fig4u):
        assert run(fig4u, SemanticsSpec(GROUNDED)).solutions.bitsets() == bitsets(fig4u, "a")
        assert run(fig4u, SemanticsSpec(SEMI_STABLE)).solutions.bitsets() == bitsets(fig4u, "ad")
        assert run(fig4u, SemanticsSpec(STAGE)).solutions.bitsets() == bitsets(fig4u, "ad")
        assert run(fig4u, SemanticsSpec(IDEAL)).solutions.bitsets() == bitsets(fig4u, "a")

    def test_no_direct_encoding_for_extremal_kinds(self, fig4u):
        with pytest.raises(ValueError):
            encode(fig4u, SemanticsSpec(PREFERRED))

    def test_constraint_families_shrink_solutions(self):
        for f in small_corpus(10):
            cf = run(f, SemanticsSpec(CONFLICT_FREE)).solutions.bitsets()
            adm = run(f, SemanticsSpec(ADMISSIBLE)).solutions.bitsets()
            comp = run(f, SemanticsSpec(COMPLETE)).solutions.bitsets()
            stab = run(f, SemanticsSpec(STABLE)).solutions.bitsets()
            assert comp <= adm <= cf
            assert stab <= cf


class TestDeepSearch:
    @pytest.mark.parametrize("kind", [STABLE, COMPLETE])
    def test_search_deeper_than_the_recursion_limit(self, kind):
        # 1200 mutual-attack pairs: every pair takes one decision, so the
        # first extension lies 1200 levels down the search tree.
        pairs = 1200
        attacks = [(2 * i, 2 * i + 1) for i in range(pairs)]
        attacks += [(2 * i + 1, 2 * i) for i in range(pairs)]
        f = Framework(2 * pairs, tuple(attacks))
        request = EncodingRequest(f, SemanticsSpec(kind), SearchConfig(solution_cap=1))
        outcome = enumerate_extensions(request)
        (extension,) = outcome.solutions
        assert len(extension) == pairs
        assert outcome.nodes == pairs  # one decision per pair, no backtracking


class TestWeightedEncodings:
    def test_alpha_conflict_free_includes_example(self, fig4w):
        out = run(fig4w, SemanticsSpec(CONFLICT_FREE, True, cost_value(15)))
        assert fig4w.extension("abc").bits in out.solutions.bitsets()

    def test_alpha_admissible_matches_listing(self, fig4w):
        out = run(fig4w, SemanticsSpec(ADMISSIBLE, True, cost_value(15)))
        assert out.solutions.bitsets() == bitsets(
            fig4w, "", "c", "ce", "a", "ac", "ace", "abc"
        )

    def test_alpha_stable_modes(self, fig4w):
        strict = run(fig4w, SemanticsSpec(STABLE, True, cost_value(11), "strict"))
        relaxed = run(fig4w, SemanticsSpec(STABLE, True, cost_value(11), "any-attack"))
        ade = fig4w.extension("ade").bits
        assert ade not in strict.solutions.bitsets()
        assert ade in relaxed.solutions.bitsets()

    def test_top_threshold_reproduces_classical_conflict_free(self, fig4w, fig4u):
        at_top = run(fig4w, SemanticsSpec(CONFLICT_FREE, True, cost_value(0)))
        classical = run(fig4u, SemanticsSpec(CONFLICT_FREE))
        assert at_top.solutions == classical.solutions
        assert len(at_top.solutions) == 8

    def test_bottom_threshold_admits_every_subset(self, fig4w):
        from argsolve.semiring import INF

        out = run(fig4w, SemanticsSpec(CONFLICT_FREE, True, cost_value(INF)))
        assert len(out.solutions) == 32


class TestNativeWeightedRules:
    """The weighted models are exact on their own: solving the model, with
    no leaf validation, gives the brute-force family."""

    KINDS = (CONFLICT_FREE, ADMISSIBLE, COMPLETE)

    def assert_exact(self, f, alphas):
        for alpha in alphas:
            for kind in self.KINDS:
                spec = SemanticsSpec(kind, True, alpha)
                solved = solve_within_budget(encode(f, spec)).solutions
                assert solved == enumerate_bruteforce(f, spec), (
                    f"{f.semiring.kind} {kind} at {alpha.payload} disagrees on {f.attacks}"
                )

    def test_weighted_models_are_exact(self):
        for seed, f in seeded_barabasi():
            weighted = netgen.assign_weights(f, netgen.WEIGHTS_INT, seed, 9)
            self.assert_exact(weighted, (cost_value(0), cost_value(6), cost_value(14)))

    def test_fuzzy_and_probabilistic_models_are_exact(self):
        for seed, f in seeded_barabasi():
            fuzzy = netgen.assign_weights(f, netgen.WEIGHTS_FUZZY, seed)
            # The same grades under the rounding product, whose folds depend on order.
            probabilistic = Framework(f.n, fuzzy.attacks, fuzzy.names, fuzzy.weights, PROBABILISTIC)
            for framework in (fuzzy, probabilistic):
                self.assert_exact(framework, (unit_value(100), unit_value(40), unit_value(10)))

    def test_product_models_are_exact(self):
        for seed, f in seeded_barabasi():
            for semiring in (COST_GRADE, GRADE_PROBABILITY):
                product = product_weighted(f, semiring, seed)
                self.assert_exact(product, product_alphas(semiring))

    def test_cost_incomparable_with_alpha_is_kept(self):
        # The attack costs (5, 0.90): worse than alpha (3, 0.50) in the
        # first part, better in the second, so {0, 1} is alpha-conflict-free.
        f = Framework(2, ((0, 1),), weights=(pair_value(cost_value(5), unit_value(90)),),
                      semiring=COST_GRADE)
        spec = SemanticsSpec(CONFLICT_FREE, True, pair_value(cost_value(3), unit_value(50)))
        assert solve_within_budget(encode(f, spec)).solutions.bitsets() == {0b00, 0b01, 0b10, 0b11}
        assert run(f, spec).solutions == enumerate_bruteforce(f, spec)

    def test_hub_of_in_degree_twelve(self):
        # Twelve arguments attack the hub, which attacks the target and
        # strikes back at four of them; three of the twelve attack a
        # neighbour. Defending the target takes a subset of the twelve
        # whose combined counterattack outweighs the hub's attack.
        rng = random.Random(1)
        hub, target, twelve = 0, 1, range(2, 14)
        attacks = [(g, hub) for g in twelve] + [(hub, target)]
        attacks += [(hub, g) for g in twelve if g % 3 == 0]
        attacks += [(g, g + 1) for g in twelve if g % 4 == 1 and g + 1 < 14]
        weights = [cost_value(rng.randint(1, 9)) for _ in attacks]
        f = Framework(14, tuple(attacks), weights=tuple(weights), semiring=WEIGHTED)
        for kind in (ADMISSIBLE, COMPLETE):
            spec = SemanticsSpec(kind, True, cost_value(8))
            model = encode(f, spec)
            constraints = (len(model.nogoods) + len(model.conditionals)
                           + len(model.defenses) + len(model.completeness))
            assert constraints <= f.n + len(f.attacks)
            assert run(f, spec).solutions == enumerate_bruteforce(f, spec)


class TestClassicalRules:
    """The classical models are exact on their own: solving the model,
    with no leaf validation, gives the brute-force family."""

    KINDS = (CONFLICT_FREE, ADMISSIBLE, COMPLETE, STABLE)

    def frameworks(self):
        yield from small_corpus(12)
        yield from (f for _, f in seeded_barabasi())
        yield Framework(1, ((0, 0),))  # a lone self-attacker
        yield Framework(3)  # isolated arguments only
        yield Framework(2, ((0, 1), (1, 0)))  # a mutual attack
        yield Framework(4, ((0, 1), (1, 0), (1, 2), (2, 2)))  # mutual attack onto a self-attacker
        yield Framework(5, ((0, 1), (1, 2), (2, 0), (3, 3), (3, 4)))  # odd cycle, isolated pair
        yield Framework(5, ((0, 0), (0, 1), (1, 2), (2, 1), (2, 3), (4, 4)))

    def test_classical_models_are_exact(self):
        for f in self.frameworks():
            for kind in self.KINDS:
                spec = SemanticsSpec(kind)
                model = encode(f, spec)
                assert model.nogoods == () and model.conditionals == ()
                assert solve_all(model).solutions == enumerate_bruteforce(f, spec), (
                    f"{kind} disagrees on {f.n} arguments, {f.attacks}"
                )

    def test_propagation_decides_forced_arguments(self):
        # On an acyclic graph the complete and the stable family are the
        # grounded set alone, which propagation finds without a decision:
        # unattacked arguments are in, their targets out, and so on.
        chain = Framework(5, ((0, 1), (1, 2), (2, 3)))
        for kind in (COMPLETE, STABLE):
            out = solve_all(encode(chain, SemanticsSpec(kind)))
            assert out.solutions.bitsets() == {0b10101} and out.nodes == 0, kind
        # A self-attacker is out before the search starts.
        out = solve_all(encode(Framework(1, ((0, 0),)), SemanticsSpec(CONFLICT_FREE)))
        assert out.solutions.bitsets() == {0} and out.nodes == 0
        # 1 attacks 0 and nobody attacks 1: 0 is out of every admissible
        # set, so only 1 is decided.
        out = solve_all(encode(Framework(2, ((1, 0),)), SemanticsSpec(ADMISSIBLE)))
        assert out.solutions.bitsets() == {0b00, 0b10} and out.nodes == 2

    def test_satisfies_agrees_with_the_oracle(self):
        for f in small_corpus(12):
            for kind in self.KINDS:
                spec = SemanticsSpec(kind)
                model = encode(f, spec)
                for bits in range(1 << f.n):
                    assert satisfies(model, bits) == check(f, Extension(bits, f.n), spec), (
                        f"{kind} on {bits:#x} of {f.attacks}"
                    )


class TestExtremalCap:
    def test_capped_members_belong_to_the_family(self, fig4u):
        frameworks = [fig4u] + small_corpus(6)
        for f in frameworks:
            for kind in EXTREMAL_KINDS:
                spec = SemanticsSpec(kind)
                out = enumerate_extensions(EncodingRequest(f, spec, SearchConfig(solution_cap=1)))
                assert len(out.solutions) == 1, f"{kind} on {f.attacks}"
                (member,) = out.solutions
                assert check(f, member, spec), f"{kind} on {f.attacks}"
                assert out.complete == (len(enumerate_bruteforce(f, spec)) == 1)

    def test_cut_base_family_returns_no_members(self):
        f = netgen.generate(netgen.GenSpec(kind="kleinberg", side=4, seed=1, orient="both"))
        request = EncodingRequest(f, SemanticsSpec(PREFERRED), SearchConfig(timeout_ms=0.001))
        out = enumerate_extensions(request)
        assert not out.complete and len(out.solutions) == 0


class TestOracleEquivalence:
    def test_classical_kinds_match_bruteforce(self):
        for f in small_corpus(12):
            for kind in ALL_KINDS:
                spec = SemanticsSpec(kind)
                assert run(f, spec).solutions == enumerate_bruteforce(f, spec), (
                    f"{kind} disagrees on {f.attacks}"
                )

    def test_weighted_kinds_match_bruteforce(self):
        for f in small_corpus(8, weighted=True):
            for alpha in (cost_value(0), cost_value(8), cost_value(999)):
                for kind in ALL_KINDS:
                    rules = ("strict", "any-attack") if kind == STABLE else (None,)
                    for rule in rules:
                        spec = SemanticsSpec(kind, True, alpha, rule)
                        assert run(f, spec).solutions == enumerate_bruteforce(f, spec), (
                            f"{kind}/{rule} at {alpha} disagrees on {f.attacks}"
                        )

    def test_product_weighted_kinds_match_bruteforce(self):
        for index, f in enumerate(small_corpus(6)):
            for semiring in (COST_GRADE, GRADE_PROBABILITY):
                product = product_weighted(f, semiring, index)
                for alpha in product_alphas(semiring):
                    for kind in ALL_KINDS:
                        rules = ("strict", "any-attack") if kind == STABLE else (None,)
                        for rule in rules:
                            spec = SemanticsSpec(kind, True, alpha, rule)
                            assert run(product, spec).solutions == enumerate_bruteforce(product, spec), (
                                f"{kind}/{rule} at {alpha.payload} disagrees on {product.attacks}"
                            )

    def test_fuzzy_weighted_kinds_match_bruteforce(self):
        from argsolve.netgen import assign_weights
        from argsolve.semiring import unit_value

        for index, f in enumerate(small_corpus(6)):
            fuzzy = assign_weights(f, "fuzzy", seed=index)
            for alpha in (unit_value(100), unit_value(50), unit_value(0)):
                for kind in ALL_KINDS:
                    spec = SemanticsSpec(kind, True, alpha)
                    assert run(fuzzy, spec).solutions == enumerate_bruteforce(fuzzy, spec), (
                        f"{kind} at grade {alpha.payload} disagrees on {fuzzy.attacks}"
                    )


class TestFilterExtremal:
    def test_membership_examples(self, fig4u):
        sets = ExtensionSet.of(
            [fig4u.extension(g) for g in ("a", "ac", "ad")]
        )
        biggest = filter_extremal(sets, "max")
        assert biggest.bitsets() == bitsets(fig4u, "ac", "ad")
        smallest = filter_extremal(sets, "min")
        assert smallest.bitsets() == bitsets(fig4u, "a")

    def test_singleton(self, fig4u):
        sets = ExtensionSet.of([fig4u.extension("ac")])
        assert filter_extremal(sets, "max") == sets

    def test_range_key(self, fig4u):
        sets = ExtensionSet.of([fig4u.extension(g) for g in ("a", "ad")])
        out = filter_extremal(sets, "max", key="range", framework=fig4u)
        assert out.bitsets() == bitsets(fig4u, "ad")

    def test_result_is_an_antichain(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(1, 6)
            sets = ExtensionSet.of(
                Extension(rng.randrange(1 << n), n) for _ in range(rng.randint(1, 12))
            )
            kept = filter_extremal(sets, rng.choice(["max", "min"]))
            for a, b in itertools.permutations(kept, 2):
                assert not (a.bits != b.bits and a.bits & b.bits == a.bits)

    def test_sweep_matches_the_pairwise_reference(self):
        rng = random.Random(2013)
        for trial in range(400):
            n = rng.randint(1, 10)
            items = [Extension(rng.randrange(1 << n), n) for _ in range(rng.randint(1, 30))]
            items += rng.choices(items, k=rng.randint(0, 4))
            rng.shuffle(items)
            if trial % 3 == 0:
                keys = None
            elif trial % 3 == 1:
                pool = [rng.randrange(1 << n) for _ in range(rng.randint(1, 6))]
                keys = [rng.choice(pool) for _ in items]
            else:
                pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))}
                f = Framework(n, tuple(pairs))
                keys = [f.range_of(e).bits for e in items]
            for direction in ("max", "min"):
                assert extremal(items, direction, keys) == model_extremal(items, direction, keys), (
                    f"trial {trial}, {direction}, keys={keys}"
                )


class TestIsPreferred:
    def test_examples(self, fig4u):
        assert is_preferred(fig4u, fig4u.extension("ac"))
        assert not is_preferred(fig4u, fig4u.extension("a"))
        assert not is_preferred(fig4u, fig4u.extension("ab"))

    def test_whole_set_candidate(self):
        from argsolve.model import Framework

        f = Framework(2)
        assert is_preferred(f, Extension(0b11, 2))

    def test_agrees_with_enumeration(self):
        for f in small_corpus(10):
            preferred = run(f, SemanticsSpec(PREFERRED)).solutions.bitsets()
            for bits in range(1 << f.n):
                expected = bits in preferred
                assert is_preferred(f, Extension(bits, f.n)) == expected

    def test_rejects_weighted_frameworks(self, fig4w):
        with pytest.raises(ValueError):
            is_preferred(fig4w, Extension(0, 5))


class TestUserRequirements:
    def test_if_b_then_a_on_conflict_free(self, fig4u):
        b, a = fig4u.index_of("b"), fig4u.index_of("a")
        req = UserRequirement(((Literal(b, 1),),), ((Literal(a, 1),),))
        request = EncodingRequest(fig4u, SemanticsSpec(CONFLICT_FREE), SearchConfig(), (req,))
        out = enumerate_extensions(request)
        # the conflict-free sets {b} and {b,d} violate the requirement
        assert out.solutions.bitsets() == bitsets(fig4u, "", "a", "c", "d", "ac", "ad")

    def test_empty_requirement_list_is_identity(self, fig4u):
        model = encode(fig4u, SemanticsSpec(CONFLICT_FREE))
        assert apply_user_requirements(model, ()) == model

    def test_forbid_on_a_chain_keeps_the_maximal_admissible_sets(self):
        # a -> b -> c: the admissible sets without c are {} and {a}; the
        # only complete set, {a, c}, is forbidden.
        f = Framework(3, ((0, 1), (1, 2)), ("a", "b", "c"))
        forbid_c = UserRequirement((), ((Literal(2, 0),),))
        for kind in (PREFERRED, IDEAL):
            request = EncodingRequest(f, SemanticsSpec(kind), SearchConfig(), (forbid_c,))
            assert enumerate_extensions(request).solutions.bitsets() == bitsets(f, "a")

    @pytest.mark.parametrize("kind", [PREFERRED, IDEAL])
    def test_extremal_kinds_filter_the_admissible_sets_that_meet_them(self, kind):
        rng = random.Random(61)
        for f in small_corpus(12):
            var = rng.randrange(f.n)
            req = UserRequirement((), ((Literal(var, rng.randint(0, 1)),),))
            model = apply_user_requirements(encode(f, SemanticsSpec(ADMISSIBLE)), (req,))
            base = [
                Extension(bits, f.n)
                for bits in range(1 << f.n)
                if check(f, Extension(bits, f.n), SemanticsSpec(ADMISSIBLE)) and satisfies(model, bits)
            ]
            maximal = model_extremal(base, "max")
            if kind == IDEAL:
                common = (1 << f.n) - 1
                for ext in maximal:
                    common &= ext.bits
                maximal = model_extremal([e for e in base if e.bits & ~common == 0], "max")
            request = EncodingRequest(f, SemanticsSpec(kind), SearchConfig(), (req,))
            got = enumerate_extensions(request).solutions.bitsets()
            assert got == {e.bits for e in maximal}, (f, req)

    def test_exactly_one_consequence_against_truth_table(self):
        # contain 0 but not 1 => exactly one of 2, 3
        from argsolve.model import Framework

        f = Framework(4)
        req = UserRequirement(
            ((Literal(0, 1),), (Literal(1, 0),)),
            ((Literal(2, 1), Literal(3, 1)), (Literal(2, 0), Literal(3, 0))),
        )
        request = EncodingRequest(f, SemanticsSpec(CONFLICT_FREE), SearchConfig(), (req,))
        out = enumerate_extensions(request)
        expected = set()
        for bits in range(16):
            t = lambda i: bits >> i & 1
            if t(0) and not t(1):
                if (t(2) or t(3)) and not (t(2) and t(3)):
                    expected.add(bits)
            else:
                expected.add(bits)
        assert out.solutions.bitsets() == expected
