import ast
import random
from pathlib import Path

import pytest

from argsolve import netgen, oracle
from argsolve.model import Extension
from argsolve.oracle import (
    ADMISSIBLE,
    ALL_ATTACKERS,
    ALL_KINDS,
    COMPLETE,
    CONFLICT_FREE,
    GROUNDED,
    IDEAL,
    PREFERRED,
    SEMI_STABLE,
    STABLE,
    STAGE,
    SemanticsSpec,
    check,
    enumerate_bruteforce,
    grounded_fixpoint,
)
from argsolve.semiring import cost_value

from conftest import small_corpus


def bitsets(f, *name_groups):
    return {f.extension(list(g)).bits for g in name_groups}


def family(f, kind, alpha=None, rule=None):
    spec = SemanticsSpec(kind, alpha is not None, alpha, rule)
    return enumerate_bruteforce(f, spec).bitsets()


# Hand-derived families for the bundled example graph.
FIG4_CLASSICAL = {
    CONFLICT_FREE: ("", "a", "b", "c", "d", "ac", "ad", "bd"),
    ADMISSIBLE: ("", "a", "c", "d", "ac", "ad"),
    COMPLETE: ("a", "ac", "ad"),
    STABLE: ("ad",),
    PREFERRED: ("ac", "ad"),
    GROUNDED: ("a",),
    SEMI_STABLE: ("ad",),
    STAGE: ("ad",),
    IDEAL: ("a",),
}


class TestClassicalExample:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_family(self, fig4u, kind):
        assert family(fig4u, kind) == bitsets(fig4u, *FIG4_CLASSICAL[kind])

    def test_check_agrees_with_enumeration(self, fig4u):
        for kind in ALL_KINDS:
            wanted = family(fig4u, kind)
            for bits in range(1 << fig4u.n):
                spec = SemanticsSpec(kind)
                assert check(fig4u, Extension(bits, 5), spec) == (bits in wanted)


class TestWeightedExample:
    def test_stable_examples(self, fig4w):
        f = fig4w
        assert check(f, f.extension("ad"), SemanticsSpec(STABLE, True, cost_value(4)))
        strict11 = SemanticsSpec(STABLE, True, cost_value(11), "strict")
        relaxed11 = SemanticsSpec(STABLE, True, cost_value(11), "any-attack")
        assert not check(f, f.extension("ade"), strict11)
        assert check(f, f.extension("ade"), relaxed11)

    def test_conflict_free_threshold(self, fig4w):
        f = fig4w
        abc = f.extension("abc")
        assert check(f, abc, SemanticsSpec(CONFLICT_FREE, True, cost_value(15)))
        assert check(f, abc, SemanticsSpec(CONFLICT_FREE, True, cost_value(17)))
        assert not check(f, abc, SemanticsSpec(CONFLICT_FREE, True, cost_value(14)))

    def test_admissible_families(self, fig4w):
        f = fig4w
        assert family(f, ADMISSIBLE, cost_value(15)) == bitsets(
            f, "", "c", "ce", "a", "ac", "ace", "abc"
        )
        assert family(f, ADMISSIBLE, cost_value(0)) == bitsets(f, "", "a", "c", "ac")

    def test_singleton_d_is_not_top_admissible(self, fig4w):
        f = fig4w
        spec = SemanticsSpec(ADMISSIBLE, True, cost_value(0))
        assert not check(f, f.extension("d"), spec)

    def test_strict_defense_scope_flag(self, fig4w):
        # Under the all-attackers reading, a self-attacking member can
        # never outweigh its own attack, so {c,e} drops out at 15.
        f = fig4w
        spec = SemanticsSpec(ADMISSIBLE, True, cost_value(15))
        assert check(f, f.extension("ce"), spec)
        assert not check(f, f.extension("ce"), spec, defense_scope=ALL_ATTACKERS)

    def test_whole_set_is_43_admissible(self, fig4w):
        f = fig4w
        spec = SemanticsSpec(ADMISSIBLE, True, cost_value(43))
        assert check(f, f.extension("abcde"), spec)
        assert f.extension("abcde").bits in family(f, PREFERRED, cost_value(43))


class TestSpecValidation:
    def test_weighted_flag_must_match_alpha(self):
        with pytest.raises(ValueError):
            SemanticsSpec(STABLE, True, None)
        with pytest.raises(ValueError):
            SemanticsSpec(STABLE, False, cost_value(1))

    def test_stable_rule_only_for_weighted_stable(self):
        with pytest.raises(ValueError):
            SemanticsSpec(ADMISSIBLE, True, cost_value(1), "strict")
        assert SemanticsSpec(STABLE, True, cost_value(1)).stable_rule == "strict"

    def test_framework_spec_mismatch(self, fig4u, fig4w):
        with pytest.raises(ValueError):
            check(fig4u, Extension(0, 5), SemanticsSpec(STABLE, True, cost_value(1)))
        with pytest.raises(ValueError):
            check(fig4w, Extension(0, 5), SemanticsSpec(STABLE))

    def test_enumeration_cap(self):
        f = netgen.fig4(weighted=False)
        with pytest.raises(ValueError):
            enumerate_bruteforce(f, SemanticsSpec(STABLE), cap=4)


class TestClassicalProperties:
    def test_hierarchy_on_samples(self):
        for f in small_corpus(25):
            fams = {kind: family(f, kind) for kind in ALL_KINDS}
            assert fams[STABLE] <= fams[PREFERRED] <= fams[COMPLETE] <= fams[ADMISSIBLE]
            assert fams[STABLE] <= fams[SEMI_STABLE] <= fams[PREFERRED]
            assert fams[ADMISSIBLE] <= fams[CONFLICT_FREE]
            assert fams[STAGE] <= fams[CONFLICT_FREE]
            assert len(fams[GROUNDED]) == 1 and len(fams[IDEAL]) == 1
            (grounded,) = fams[GROUNDED]
            for complete_bits in fams[COMPLETE]:
                assert grounded & complete_bits == grounded
            (ideal,) = fams[IDEAL]
            for preferred_bits in fams[PREFERRED]:
                assert ideal & preferred_bits == ideal
            assert ideal in fams[ADMISSIBLE]

    def test_grounded_fixpoint_matches_minimal_complete(self):
        for f in small_corpus(25):
            (grounded,) = family(f, GROUNDED)
            assert grounded_fixpoint(f).bits == grounded

    def test_empty_set_is_admissible(self):
        for f in small_corpus(6):
            assert 0 in family(f, ADMISSIBLE)


def _alphas(f):
    return [cost_value(0), cost_value(8), cost_value(999)]


class TestWeightedProperties:
    def test_conflict_tolerance_is_monotone(self):
        # A set tolerated at some threshold stays tolerated at any
        # weaker (worse) one.
        for f in small_corpus(10, weighted=True):
            rng = random.Random(f.n * 131 + len(f.attacks))
            for _ in range(30):
                bits = rng.randrange(1 << f.n)
                e = Extension(bits, f.n)
                a1 = cost_value(rng.randrange(20))
                a2 = cost_value(rng.randrange(20))
                if not f.semiring.lt(a2, a1):
                    a1, a2 = a2, a1  # ensure a2 is below a1 in the order
                spec1 = SemanticsSpec(CONFLICT_FREE, True, a1)
                spec2 = SemanticsSpec(CONFLICT_FREE, True, a2)
                if check(f, e, spec1):
                    assert check(f, e, spec2)

    def test_weighted_hierarchy_links_that_hold(self):
        # Semi-stable within preferred within complete, and the minimal
        # complete family within the complete family.
        for f in small_corpus(15, weighted=True):
            for alpha in _alphas(f):
                adm = family(f, ADMISSIBLE, alpha)
                comp = family(f, COMPLETE, alpha)
                pref = family(f, PREFERRED, alpha)
                semi = family(f, SEMI_STABLE, alpha)
                ground = family(f, GROUNDED, alpha)
                assert semi <= pref <= comp <= adm
                assert ground <= comp

    def test_top_threshold_versus_classical(self):
        # At the top threshold: conflict-free and stable coincide with
        # the classical families, admissibility only shrinks.
        for f in small_corpus(15, weighted=True):
            top = cost_value(0)
            classical = f.unweighted()
            assert family(f, CONFLICT_FREE, top) == family(classical, CONFLICT_FREE)
            assert family(f, STABLE, top) == family(classical, STABLE)
            assert family(f, STABLE, top, "any-attack") == family(classical, STABLE)
            assert family(f, ADMISSIBLE, top) <= family(classical, ADMISSIBLE)

    def test_ideal_is_unique_and_admissible(self):
        for f in small_corpus(10, weighted=True):
            for alpha in _alphas(f):
                ideal = family(f, IDEAL, alpha)
                assert len(ideal) == 1
                (bits,) = ideal
                assert bits in family(f, ADMISSIBLE, alpha)


def package_imports(path: Path) -> set[str]:
    """The package modules that the module at ``path`` imports, relatively
    or by the package name; ``*`` stands for the whole package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"argsolve.{module}" if module else "argsolve"
            modules = [module] if module != "argsolve" else [f"argsolve.{a.name}" for a in node.names]
        else:
            continue
        found |= {m.split(".")[1] if "." in m else "*" for m in modules if m.split(".")[0] == "argsolve"}
    return found


class TestIndependence:
    def test_imports_only_the_data_model_and_the_semirings(self):
        # The oracle is the ground truth for the solver, so it must not
        # reach the engine, the encodings or any other solver code.
        imported = package_imports(Path(oracle.__file__))
        assert imported <= {"model", "semiring"}, imported
