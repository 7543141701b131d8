import random

import pytest

from argsolve import netgen
from argsolve.engine import SolveOutcome
from argsolve.interchange import (
    DlParseError,
    emit_dl,
    emit_dot,
    emit_results,
    parse_dl,
    parse_document,
    parse_scalar,
)
from argsolve.model import ExtensionSet, Framework
from argsolve.netgen import GenSpec
from argsolve.semiring import FUZZY, INF, WEIGHTED, cost_value, unit_value


class TestParsing:
    def test_basic_document(self):
        f = parse_dl("arg(0). arg(1). arg(2). att(0,1). att(1,2).")
        assert f.n == 3 and len(f.attacks) == 2 and not f.is_weighted
        assert f.names == ("0", "1", "2")

    def test_empty_document(self):
        f = parse_dl("")
        assert f.n == 0 and f.attacks == ()

    def test_comments_and_whitespace(self):
        text = "% header\narg(a).  % trailing\n\n  arg(b).\natt(a,b)."
        f = parse_dl(text)
        assert f.n == 2 and f.attacks == ((0, 1),)

    def test_weighted_integer_document(self):
        f = parse_dl("arg(a). arg(b). watt(a,b,7).")
        assert f.semiring == WEIGHTED and f.weights == (cost_value(7),)

    def test_weighted_fuzzy_document(self):
        f = parse_dl("arg(a). arg(b). watt(a,b,0.4). arg(c). watt(b,c,0.25).")
        assert f.semiring == FUZZY
        assert f.weight(0, 1) == unit_value(40)
        assert f.weight(1, 2) == unit_value(25)

    def test_document_keeps_declaration_order(self):
        doc = parse_document("arg(z). arg(a). att(a,z). att(z,z).")
        assert doc.arguments == ("z", "a")
        assert doc.attacks == (("a", "z"), ("z", "z"))
        assert doc.weights is None
        assert doc.to_framework().names == ("z", "a")


class TestParseErrors:
    def err(self, text):
        with pytest.raises(DlParseError) as info:
            parse_dl(text)
        return info.value

    def test_undeclared_endpoint(self):
        e = self.err("arg(a). att(a,b).")
        assert "undeclared" in str(e) and e.line == 1

    def test_duplicate_attack(self):
        self.err("arg(a). arg(b). att(a,b). att(a,b).")

    def test_duplicate_argument(self):
        self.err("arg(a). arg(a).")

    def test_malformed_statement_reports_position(self):
        e = self.err("arg(a).\nfoo(a).")
        assert e.line == 2 and e.column == 1

    def test_missing_terminator(self):
        self.err("arg(a)")

    def test_wrong_arity(self):
        self.err("arg(a,b).")
        self.err("att(a).")
        self.err("watt(a,b).")

    def test_mixed_attack_kinds(self):
        self.err("arg(a). arg(b). arg(c). att(a,b). watt(b,c,3).")
        self.err("arg(a). arg(b). arg(c). watt(a,b,3). watt(b,c,0.3).")

    def test_top_weight_rejected(self):
        self.err("arg(a). arg(b). watt(a,b,0).")
        self.err("arg(a). arg(b). watt(a,b,1.00).")

    def test_grade_above_one_reports_its_position(self):
        e = self.err("arg(a). arg(b).\nwatt(a,b,1.50).")
        assert "above 1.00" in str(e) and e.line == 2 and e.column == 1

    def test_grammar_mutations_of_a_valid_document(self):
        base = "arg(a). arg(b). arg(c). watt(a,b,7). watt(b,c,8)."
        parse_dl(base)  # sanity
        mutations = [
            base.replace("watt(a,b,7).", "watt(a,b,7)"),   # lost terminator
            base.replace("watt(a,b,7).", "watt(a,7)."),    # arity
            base.replace("watt(a,b,7).", "watt(a,d,7)."),  # undeclared
            base.replace("watt(a,b,7).", "watt(a,b,x)."),  # weight token
            base.replace("watt(a,b,7).", "watt(a,b,1.50)."),  # grade above 1.00
            base.replace("arg(b).", ""),                   # now undeclared b
            base.replace("watt(b,c,8).", "watt(a,b,8)."),  # duplicate attack
            base + " att(a,c).",                           # mixed kinds
            base.replace("7", "0"),                        # top weight
            base.replace("(", "[", 1),                     # broken syntax
        ]
        for text in mutations:
            with pytest.raises(DlParseError):
                parse_dl(text)


class TestEmission:
    def test_example_graph_contains_pinned_lines(self, fig4w):
        text = emit_dl(fig4w)
        assert "watt(c,d,9)." in text
        assert "watt(d,e,5)." in text
        assert text.startswith("arg(a).")

    def test_round_trip_on_example(self, fig4w, fig4u):
        assert parse_dl(emit_dl(fig4w)) == fig4w
        assert parse_dl(emit_dl(fig4u)) == fig4u

    def test_unweighted_export_flag(self, fig4w):
        text = emit_dl(fig4w, include_weights=False)
        assert "watt" not in text and "att(c,d)." in text
        assert parse_dl(text) == fig4w.unweighted()

    def test_empty_framework_is_empty_document(self):
        assert emit_dl(Framework(0)) == ""

    def test_round_trip_on_generated_frameworks(self):
        rng = random.Random(23)
        for i in range(100):
            spec = GenSpec(
                kind="barabasi" if i % 2 else "kleinberg",
                node_count=rng.randint(2, 12),
                side=rng.randint(2, 3),
                edges_per_step=rng.randint(1, 3),
                seed=rng.randrange(1 << 20),
                orient=rng.choice(["coin", "both"]),
                weight_scheme=rng.choice(["none", "int", "fuzzy"]),
                weight_max=rng.randint(1, 9),
                weight_seed=rng.randrange(1 << 20),
            )
            f = netgen.generate(spec)
            assert parse_dl(emit_dl(f)) == f

    def test_unwritable_names_rejected(self):
        f = Framework(1, names=("no spaces",))
        with pytest.raises(ValueError):
            emit_dl(f)

    def test_infinite_weight_has_no_textual_form(self):
        f = Framework(
            2, ((0, 1),), weights={(0, 1): cost_value(INF)}, semiring=WEIGHTED
        )
        with pytest.raises(ValueError):
            emit_dl(f)
        assert "att(0,1)." in emit_dl(f, include_weights=False)


class TestDot:
    def test_highlight_styles_exactly_the_members(self, fig4w):
        dot = emit_dot(fig4w, fig4w.extension("ad"))
        assert dot.count("style=filled") == 2
        assert '"a" -> "b" [label="7"];' in dot

    def test_no_highlight(self, fig4u):
        dot = emit_dot(fig4u)
        assert "style=filled" not in dot and "label=" not in dot


class TestResults:
    def outcome(self, fig4u, complete=True):
        solutions = ExtensionSet.of([fig4u.extension("ad")])
        return SolveOutcome(solutions, complete, 12.345, 42, seed=7)

    def test_document_fields(self, fig4u):
        text = emit_results(fig4u, self.outcome(fig4u), {"semantics": "stable"})
        lines = text.splitlines()
        assert lines[0] == "format: argsolve-results 1"
        assert "semantics: stable" in lines
        assert "complete: true" in lines
        assert "count: 1" in lines
        assert "solution: {a,d}" in lines
        assert "nodes: 42" in lines
        assert not any(line.startswith("elapsed-ms") for line in lines)

    def test_timing_is_opt_in(self, fig4u):
        text = emit_results(fig4u, self.outcome(fig4u), {}, include_timing=True)
        assert "elapsed-ms: 12.345" in text

    def test_incomplete_flag_recorded(self, fig4u):
        text = emit_results(fig4u, self.outcome(fig4u, complete=False), {})
        assert "complete: false" in text


class TestScalars:
    def test_parse_scalar(self):
        assert parse_scalar("15") == cost_value(15)
        assert parse_scalar("inf") == cost_value(INF)
        assert parse_scalar("0.4") == unit_value(40)
        assert parse_scalar("1.00") == unit_value(100)
        with pytest.raises(ValueError):
            parse_scalar("abc")
        with pytest.raises(ValueError):
            parse_scalar("1.5")
