import itertools
import random
from dataclasses import replace

import pytest

from argsolve import netgen
from argsolve.encodings import encode
from argsolve.engine import (
    ArgumentRules,
    ConditionalRequirement,
    CostTerm,
    Literal,
    Model,
    Nogood,
    SearchConfig,
    WeightedCompleteness,
    WeightedDefense,
    blevel,
    evaluate,
    satisfies,
    solve_all,
    solve_within_budget,
)
from argsolve.oracle import CONFLICT_FREE, SemanticsSpec
from argsolve.semiring import WEIGHTED, cost_value


def lit(var, value):
    return Literal(var, value)


def ng(*pairs):
    return Nogood(tuple(lit(v, b) for v, b in pairs))


def cond(guard, consequence):
    return ConditionalRequirement(
        tuple(tuple(lit(v, b) for v, b in clause) for clause in guard),
        tuple(tuple(lit(v, b) for v, b in clause) for clause in consequence),
    )


def assignments(n):
    return itertools.product((0, 1), repeat=n)


def truth_table(model):
    """Independent reference semantics: check every total assignment
    directly against the constraint definitions."""
    solutions = set()
    for values in assignments(model.num_vars):
        ok = True
        for nogood in model.nogoods:
            if all(values[l.var] == l.value for l in nogood.literals):
                ok = False
                break
        if ok:
            for c in model.conditionals:
                if all(any(values[l.var] == l.value for l in cl) for cl in c.guard):
                    if not all(
                        any(values[l.var] == l.value for l in cl) for cl in c.consequence
                    ):
                        ok = False
                        break
        if ok:
            ok = not weighted_rule_broken(model, values)
        if ok and model.argumentation is not None:
            ok = not argument_rule_broken(model.argumentation, values)
        if ok:
            solutions.add(sum(b << i for i, b in enumerate(values)))
    return solutions


def weighted_rule_broken(model, values):
    """Literal reading of the weighted defense and completeness rules."""
    s = model.semiring

    def beaten(incoming, counters):
        return s.lt(s.combine(w for var, w in counters if values[var]), incoming)

    for d in model.defenses:
        if values[d.child] and not values[d.parent] and not beaten(d.incoming, d.counters):
            return True
    for c in model.completeness:
        if not values[c.child] and all(
            not values[parent] and beaten(incoming, counters)
            for parent, incoming, counters in c.rows
        ):
            return True
    return False


def argument_rule_broken(rules, values):
    """Literal reading of the classical argumentation rules."""
    n = len(values)
    attacks = {(p, x) for x in range(n) for p in range(n) if rules.attackers[x] >> p & 1}
    members = {x for x in range(n) if values[x]}

    def attacked(x):
        return any((m, x) in attacks for m in members)

    def defended(x):
        return all(attacked(p) for p in range(n) if (p, x) in attacks)

    if rules.conflict_free and any((a, b) in attacks for a in members for b in members):
        return True
    for x in range(n):
        if x in members and rules.defense and not defended(x):
            return True
        if x not in members and rules.completeness and defended(x):
            return True
        if x not in members and rules.stability and not attacked(x):
            return True
    return False


class TestConstructionRules:
    def test_nogood_needs_literals(self):
        with pytest.raises(ValueError):
            Nogood(())

    def test_nogood_vars_distinct(self):
        with pytest.raises(ValueError):
            ng((0, 1), (0, 0))

    def test_clause_vars_distinct(self):
        with pytest.raises(ValueError):
            cond([], [[(0, 1), (0, 0)]])

    def test_literals_inside_model(self):
        with pytest.raises(ValueError):
            Model(1, (ng((3, 1)),))

    def test_costs_need_semiring(self):
        with pytest.raises(ValueError):
            Model(1, cost_terms=(CostTerm((lit(0, 1),), cost_value(1)),))

    def test_threshold_needs_semiring(self):
        with pytest.raises(ValueError):
            Model(1, threshold=cost_value(1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(timeout_ms=0)
        with pytest.raises(ValueError):
            SearchConfig(val_heuristic="seeded-random")
        with pytest.raises(ValueError):
            SearchConfig(var_heuristic="dynamic")


class TestSolveAllExamples:
    def test_two_variable_truth_table(self):
        model = Model(2, (ng((0, 1), (1, 1)),))
        out = solve_all(model)
        assert out.solutions.bitsets() == {0b00, 0b01, 0b10}
        assert out.complete

    def test_added_unary_nogood(self):
        model = Model(2, (ng((0, 1), (1, 1)), ng((0, 0))))
        out = solve_all(model)
        assert out.solutions.bitsets() == {0b01}

    def test_unsatisfiable_model(self):
        model = Model(1, (ng((0, 0)), ng((0, 1))))
        out = solve_all(model)
        assert len(out.solutions) == 0 and out.complete

    def test_zero_variables(self):
        out = solve_all(Model(0))
        assert out.solutions.bitsets() == {0} and out.complete

    def test_thresholded_model_rejected(self):
        model = Model(
            1,
            cost_terms=(CostTerm((lit(0, 1),), cost_value(1)),),
            semiring=WEIGHTED,
            threshold=cost_value(0),
        )
        with pytest.raises(ValueError):
            solve_all(model)


def random_rules(rng, n):
    """Weighted defense and completeness rules over n variables, with
    counters that may include the child or the parent."""
    def counters():
        chosen = rng.sample(range(n), rng.randint(0, min(3, n)))
        return tuple((v, cost_value(rng.randint(1, 6))) for v in chosen)

    defenses = tuple(
        WeightedDefense(rng.randrange(n), rng.randrange(n), cost_value(rng.randint(1, 9)), counters())
        for _ in range(rng.randint(0, n))
    )
    completeness = tuple(
        WeightedCompleteness(
            rng.randrange(n),
            tuple(
                (rng.randrange(n), cost_value(rng.randint(1, 9)), counters())
                for _ in range(rng.randint(0, 2))
            ),
        )
        for _ in range(rng.randint(0, 2))
    )
    return defenses, completeness


def random_model(rng, with_costs=False, max_vars=6):
    n = rng.randint(2, max_vars)
    nogoods = []
    for _ in range(rng.randint(0, 2 * n)):
        size = rng.randint(1, min(3, n))
        variables = rng.sample(range(n), size)
        nogoods.append(ng(*((v, rng.randint(0, 1)) for v in variables)))
    conditionals = []
    for _ in range(rng.randint(0, n)):
        def clause():
            size = rng.randint(1, min(2, n))
            return [(v, rng.randint(0, 1)) for v in rng.sample(range(n), size)]
        guard = [clause() for _ in range(rng.randint(0, 2))]
        consequence = [clause() for _ in range(rng.randint(1, 2))]
        conditionals.append(cond(guard, consequence))
    cost_terms = ()
    semiring = threshold = None
    if with_costs:
        semiring = WEIGHTED
        cost_terms = tuple(
            CostTerm(
                tuple(
                    lit(v, rng.randint(0, 1))
                    for v in rng.sample(range(n), rng.randint(1, min(2, n)))
                ),
                cost_value(rng.randint(1, 9)),
            )
            for _ in range(rng.randint(1, n + 1))
        )
        threshold = cost_value(rng.randint(0, 12))
    return Model(n, tuple(nogoods), tuple(conditionals), cost_terms, semiring, threshold)


class TestAgainstTruthTable:
    def test_solve_all_equals_truth_table(self):
        rng = random.Random(42)
        for _ in range(300):
            model = random_model(rng)
            out = solve_all(model)
            assert out.complete
            assert out.solutions.bitsets() == truth_table(model)

    def test_solve_all_equals_truth_table_up_to_twelve_vars(self):
        rng = random.Random(47)
        for _ in range(30):
            model = random_model(rng, max_vars=12)
            assert solve_all(model).solutions.bitsets() == truth_table(model)

    def test_budget_solutions_match_filtered_truth_table(self):
        rng = random.Random(43)
        for _ in range(200):
            model = random_model(rng, with_costs=True)
            out = solve_within_budget(model)
            assert out.complete
            expected = set()
            for bits in truth_table(model):
                values = tuple(bits >> i & 1 for i in range(model.num_vars))
                if WEIGHTED.leq(model.threshold, evaluate(model, values)):
                    expected.add(bits)
            assert out.solutions.bitsets() == expected


class TestWeightedRules:
    def random_weighted_model(self, rng):
        model = random_model(rng, with_costs=True)
        defenses, completeness = random_rules(rng, model.num_vars)
        nogoods = model.nogoods if rng.random() < 0.3 else ()
        return replace(model, nogoods=nogoods, conditionals=(),
                       defenses=defenses, completeness=completeness)

    def test_search_satisfies_evaluate_and_blevel_match_brute_force(self):
        rng = random.Random(48)
        for _ in range(300):
            model = self.random_weighted_model(rng)
            unbounded = replace(model, threshold=None)
            table = truth_table(model)
            assert solve_all(unbounded).solutions.bitsets() == table
            within = {
                bits for bits in table
                if WEIGHTED.leq(model.threshold, evaluate(model, [bits >> i & 1 for i in range(model.num_vars)]))
            }
            assert solve_within_budget(model).solutions.bitsets() == within
            best = WEIGHTED.bottom
            for values in assignments(model.num_vars):
                bits = sum(b << i for i, b in enumerate(values))
                assert satisfies(model, bits) == (bits in table)
                cost = WEIGHTED.combine(
                    t.cost for t in model.cost_terms
                    if all(values[l.var] == l.value for l in t.trigger)
                )
                assert evaluate(model, values) == (cost if bits in table else WEIGHTED.bottom)
                best = WEIGHTED.plus(best, evaluate(model, values))
            assert blevel(unbounded) == best

    def test_defense_forces_the_parent_in(self):
        # Child 0 is in; counter 2 is out, so only counter 1 (weight 3) is
        # left against an attack of weight 5: parent 3 must be in.
        rule = WeightedDefense(0, 3, cost_value(5), ((1, cost_value(3)), (2, cost_value(4))))
        model = Model(4, (ng((0, 0)), ng((2, 1))), semiring=WEIGHTED, defenses=(rule,))
        assert solve_all(model).solutions.bitsets() == {0b1001, 0b1011}

    def test_completeness_forces_the_child_in(self):
        # Parent 1 is out and counter 2 beats its attack: child 0 must be in.
        rule = WeightedCompleteness(0, ((1, cost_value(5), ((2, cost_value(6)),)),))
        model = Model(3, (ng((1, 1)), ng((2, 0))), semiring=WEIGHTED, completeness=(rule,))
        assert solve_all(model).solutions.bitsets() == {0b101}

    def test_rules_need_a_semiring(self):
        with pytest.raises(ValueError):
            Model(2, defenses=(WeightedDefense(0, 1, cost_value(1), ()),))
        with pytest.raises(ValueError):
            Model(2, semiring=WEIGHTED, defenses=(WeightedDefense(0, 5, cost_value(1), ()),))


class TestArgumentRules:
    def random_rules(self, rng, n):
        attackers = tuple(
            sum(1 << p for p in range(n) if rng.random() < 0.3) for _ in range(n)
        )
        flags = [rng.random() < 0.5 for _ in range(4)]
        return ArgumentRules(attackers, *flags)

    def test_search_and_satisfies_match_the_literal_rules(self):
        rng = random.Random(2009)
        for trial in range(300):
            model = random_model(rng, max_vars=7)
            rules = self.random_rules(rng, model.num_vars)
            # Some models carry extra nogoods and requirements, most do not.
            if trial % 3:
                model = Model(model.num_vars)
            model = replace(model, argumentation=rules)
            table = truth_table(model)
            out = solve_all(model)
            assert out.complete
            assert out.solutions.bitsets() == table, rules
            for bits in range(1 << model.num_vars):
                assert satisfies(model, bits) == (bits in table)

    def test_stability_forces_the_last_attacker_in(self):
        # 1 and 2 attack each other and both attack 0. With 0 and 2 out,
        # only 1 is left to attack 2, so root propagation takes it.
        rules = ArgumentRules((0b110, 0b100, 0b010))
        model = Model(3, (ng((0, 1)), ng((2, 1))), argumentation=rules)
        assert solve_all(model).solutions.bitsets() == {0b000, 0b010}
        out = solve_all(replace(model, argumentation=replace(rules, stability=True)))
        assert out.solutions.bitsets() == {0b010}
        assert out.nodes == 0

    def test_defense_forces_the_last_counterattacker_in(self):
        # 2 attacks 1, which attacks 0; 0 must be in, so 1 is out and 2,
        # the only argument that attacks 1, is in.
        model = Model(3, (ng((0, 0)),), argumentation=ArgumentRules((0b010, 0b100, 0), True, True))
        out = solve_all(model)
        assert out.solutions.bitsets() == {0b101}
        assert out.nodes == 0

    def test_rules_need_one_bitset_per_variable_inside_the_model(self):
        with pytest.raises(ValueError):
            Model(2, argumentation=ArgumentRules((0,)))
        with pytest.raises(ValueError):
            Model(2, argumentation=ArgumentRules((0b100, 0)))


class TestWeightedExamples:
    def cf_model(self, threshold):
        # Two attacks of weight 7 and 8 both triggered by taking 0 and 1.
        return Model(
            3,
            cost_terms=(
                CostTerm((lit(0, 1), lit(1, 1)), cost_value(7)),
                CostTerm((lit(1, 1), lit(2, 1)), cost_value(8)),
            ),
            semiring=WEIGHTED,
            threshold=threshold,
        )

    def test_budget_at_top_keeps_cost_free_assignments(self):
        out = solve_within_budget(self.cf_model(cost_value(0)))
        expected = {bits for bits in range(8) if not (bits & 0b011 == 0b011 or bits & 0b110 == 0b110)}
        assert out.solutions.bitsets() == expected

    def test_budget_at_bottom_keeps_everything(self):
        out = solve_within_budget(self.cf_model(WEIGHTED.bottom))
        assert len(out.solutions) == 8

    def test_mid_budget(self):
        # costs 7 and 8 are each within 8; their sum 15 is not
        out = solve_within_budget(self.cf_model(cost_value(8)))
        assert out.solutions.bitsets() == {bits for bits in range(8) if bits != 0b111}


class TestEvaluate:
    def test_violating_assignment_is_bottom(self):
        model = Model(2, (ng((0, 1), (1, 1)),), semiring=WEIGHTED)
        assert evaluate(model, (1, 1)) == WEIGHTED.bottom

    def test_triggered_costs_combine(self):
        model = Model(
            2,
            cost_terms=(
                CostTerm((lit(0, 1),), cost_value(7)),
                CostTerm((lit(1, 1),), cost_value(8)),
            ),
            semiring=WEIGHTED,
        )
        assert evaluate(model, (1, 1)) == cost_value(15)
        assert evaluate(model, (1, 0)) == cost_value(7)
        assert evaluate(model, (0, 0)) == WEIGHTED.top

    def test_needs_semiring(self):
        with pytest.raises(ValueError):
            evaluate(Model(1), (0,))


class TestBlevel:
    def test_no_costs_satisfiable_is_top(self):
        model = Model(2, (ng((0, 1), (1, 1)),), semiring=WEIGHTED)
        assert blevel(model) == WEIGHTED.top

    def test_unsatisfiable_is_bottom(self):
        model = Model(1, (ng((0, 0)), ng((0, 1))), semiring=WEIGHTED)
        assert blevel(model) == WEIGHTED.bottom

    def test_timeout_raises(self):
        lattice = netgen.generate(netgen.GenSpec(kind="kleinberg", side=3, seed=1, orient="both"))
        weighted = netgen.assign_weights(lattice, netgen.WEIGHTS_INT, 2, 9)
        spec = SemanticsSpec(CONFLICT_FREE, True, cost_value(10))
        model = replace(encode(weighted, spec), threshold=None)
        assert blevel(model) == WEIGHTED.top
        with pytest.raises(TimeoutError):
            blevel(model, SearchConfig(timeout_ms=0.001))

    def test_matches_brute_force_best(self):
        rng = random.Random(44)
        for _ in range(100):
            model = random_model(rng, with_costs=True)
            model = Model(  # strip the threshold: blevel takes the plain soft model
                model.num_vars,
                model.nogoods,
                model.conditionals,
                model.cost_terms,
                model.semiring,
            )
            best = WEIGHTED.bottom
            for values in assignments(model.num_vars):
                best = WEIGHTED.plus(best, evaluate(model, values))
            assert blevel(model) == best


class TestDeterminismAndHeuristics:
    def test_identical_runs_are_identical(self):
        rng = random.Random(45)
        model = random_model(rng)
        cfg = SearchConfig(val_heuristic="seeded-random", seed=99)
        first = solve_all(model, cfg)
        second = solve_all(model, cfg)
        assert first.solutions == second.solutions
        assert first.nodes == second.nodes
        assert first.seed == second.seed == 99

    def test_solution_set_is_heuristic_neutral(self):
        rng = random.Random(46)
        for _ in range(40):
            model = random_model(rng)
            outcomes = [
                solve_all(model, SearchConfig(var_heuristic=vh, val_heuristic=vv, seed=7))
                for vh in ("most-constrained-static", "input-order")
                for vv in ("one-first", "zero-first", "seeded-random")
            ]
            reference = outcomes[0].solutions
            assert all(out.solutions == reference for out in outcomes)

    def test_solution_cap_marks_incomplete(self):
        model = Model(4)
        out = solve_all(model, SearchConfig(solution_cap=3))
        assert len(out.solutions) == 3 and not out.complete

    def test_timeout_marks_incomplete(self):
        model = Model(18)  # 262144 leaves: enough to outlast a tiny budget
        out = solve_all(model, SearchConfig(timeout_ms=0.001))
        assert not out.complete
