import pytest

from argsolve.cli import main


@pytest.fixture
def fig4_file(tmp_path):
    path = tmp_path / "fig4.wdl"
    assert main(["generate", "--kind", "fig4", "--out", str(path)]) == 0
    return path


@pytest.fixture
def fig4_plain_file(tmp_path):
    path = tmp_path / "fig4.dl"
    assert main(["generate", "--kind", "fig4", "--weights", "none", "--out", str(path)]) == 0
    return path


class TestGenerate:
    def test_example_graph_file(self, fig4_file):
        text = fig4_file.read_text()
        assert "watt(d,e,5)." in text
        assert "watt(c,d,9)." in text

    def test_kleinberg_size(self, tmp_path, capsys):
        out = tmp_path / "k.dl"
        assert main(["generate", "--kind", "kleinberg", "--n", "5", "--seed", "1",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("arg(") == 25

    def test_generation_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.dl", tmp_path / "b.dl"
        flags = ["generate", "--kind", "barabasi", "--nodes", "12", "--seed", "7",
                 "--weights", "int:9"]
        assert main(flags + ["--out", str(a)]) == 0
        assert main(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_random_weights_on_example_graph_rejected(self, tmp_path):
        rc = main(["generate", "--kind", "fig4", "--weights", "int:9",
                   "--out", str(tmp_path / "x.dl")])
        assert rc == 2


class TestSolve:
    def test_stable_prints_the_extension(self, fig4_plain_file, capsys):
        assert main(["solve", str(fig4_plain_file), "--semantics", "stable"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "{a,d}"
        assert lines[1].startswith("count=1 complete=true")

    def test_alpha_admissible_prints_seven_sets(self, fig4_file, capsys):
        assert main(["solve", str(fig4_file), "--semantics", "alpha-admissible",
                     "--alpha", "15"]) == 0
        lines = capsys.readouterr().out.splitlines()
        sets = set(lines[:-1])
        assert sets == {"{}", "{a}", "{c}", "{a,c}", "{a,b,c}", "{c,e}", "{a,c,e}"}

    def test_check_preferred(self, fig4_plain_file, capsys):
        assert main(["solve", str(fig4_plain_file), "--check-preferred", "a,c"]) == 0
        assert capsys.readouterr().out.strip() == "yes"
        assert main(["solve", str(fig4_plain_file), "--check-preferred", "a"]) == 0
        assert capsys.readouterr().out.strip() == "no"

    def test_requirement_flag(self, fig4_plain_file, capsys):
        assert main(["solve", str(fig4_plain_file), "--semantics", "conflict-free",
                     "--require", "if b then a"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("count=6")

    def test_forbid_flag(self, fig4_plain_file, capsys):
        assert main(["solve", str(fig4_plain_file), "--semantics", "conflict-free",
                     "--forbid", "a&d"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "{a,d}" not in lines
        assert lines[-1].startswith("count=7")

    def test_results_document(self, fig4_plain_file, tmp_path, capsys):
        out = tmp_path / "res.txt"
        assert main(["solve", str(fig4_plain_file), "--semantics", "stable",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "semantics: stable" in text
        assert "solution: {a,d}" in text
        assert "elapsed-ms" not in text

    def test_dot_output(self, fig4_plain_file, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        assert main(["solve", str(fig4_plain_file), "--semantics", "stable",
                     "--dot", str(dot)]) == 0
        assert dot.read_text().count("style=filled") == 2

    def test_heuristic_flags_do_not_change_solutions(self, fig4_plain_file, capsys):
        runs = []
        for flags in (
            ["--var-heuristic", "input-order", "--val-heuristic", "zero-first"],
            ["--val-heuristic", "seeded-random", "--seed", "11"],
            [],
        ):
            assert main(["solve", str(fig4_plain_file), "--semantics", "admissible",
                         *flags]) == 0
            lines = capsys.readouterr().out.splitlines()
            runs.append(lines[:-1])
        assert runs[0] == runs[1] == runs[2]

    def test_alpha_grounded_runs(self, fig4_file, capsys):
        assert main(["solve", str(fig4_file), "--semantics", "alpha-grounded",
                     "--alpha", "15"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("count=")


class TestGating:
    def test_alpha_semantics_need_weighted_input(self, fig4_plain_file, capsys):
        rc = main(["solve", str(fig4_plain_file), "--semantics", "alpha-stable",
                   "--alpha", "4"])
        assert rc == 2

    def test_weighted_input_needs_alpha_semantics(self, fig4_file):
        assert main(["solve", str(fig4_file), "--semantics", "stable"]) == 2

    def test_alpha_value_required(self, fig4_file):
        assert main(["solve", str(fig4_file), "--semantics", "alpha-stable"]) == 2

    def test_alpha_kind_must_match_weights(self, fig4_file):
        rc = main(["solve", str(fig4_file), "--semantics", "alpha-stable",
                   "--alpha", "0.4"])
        assert rc == 2

    def test_preferred_check_needs_plain_input(self, fig4_file):
        assert main(["solve", str(fig4_file), "--check-preferred", "a"]) == 2

    def test_infinite_alpha_admits_everything(self, fig4_file, capsys):
        assert main(["solve", str(fig4_file), "--semantics", "alpha-conflict-free",
                     "--alpha", "inf"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("count=32")

    def test_malformed_input_is_exit_3(self, tmp_path):
        bad = tmp_path / "bad.dl"
        bad.write_text("arg(a). att(a,b).")
        assert main(["solve", str(bad), "--semantics", "stable"]) == 3

    def test_missing_file_is_exit_3(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.dl"), "--semantics", "stable"]) == 3

    def test_timeout_exit_code(self, tmp_path, capsys):
        out = tmp_path / "k.dl"
        main(["generate", "--kind", "kleinberg", "--n", "6", "--seed", "1",
              "--orient", "both", "--out", str(out)])
        rc = main(["solve", str(out), "--semantics", "conflict-free",
                   "--timeout", "0.001"])
        assert rc == 4
        rc = main(["solve", str(out), "--semantics", "conflict-free",
                   "--timeout", "0.001", "--timeout-ok"])
        assert rc == 0
        rc = main(["solve", str(out), "--check-preferred", "", "--timeout", "0.001"])
        assert rc == 4


class TestDecide:
    def test_credulous(self, fig4_file, capsys):
        assert main(["decide", "credulous-wge", str(fig4_file),
                     "--beta", "8", "--arg", "c"]) == 0
        assert capsys.readouterr().out.strip() == "true witness={a,c}"

    def test_skeptical(self, fig4_file, capsys):
        assert main(["decide", "skeptical-wge", str(fig4_file),
                     "--beta", "8", "--arg", "c"]) == 0
        assert capsys.readouterr().out.strip() == "false counterexample={a}"

    def test_minimal_budget(self, fig4_file, capsys):
        assert main(["decide", "minimal-budget", str(fig4_file), "--set", "a"]) == 0
        assert capsys.readouterr().out.strip() == "0 removal={}"
        assert main(["decide", "minimal-budget", str(fig4_file), "--set", "a,c"]) == 0
        assert capsys.readouterr().out.strip() == "8 removal={(d,c)}"

    def test_is_minimal(self, fig4_file, capsys):
        assert main(["decide", "is-minimal", str(fig4_file),
                     "--set", "a,c", "--beta", "8"]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["decide", "is-minimal", str(fig4_file),
                     "--set", "a,c", "--beta", "9"]) == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_needs_weighted_input(self, fig4_plain_file):
        assert main(["decide", "credulous-wge", str(fig4_plain_file),
                     "--beta", "1", "--arg", "a"]) == 2

    def test_timeout_is_exit_4(self, fig4_file, capsys):
        assert main(["decide", "credulous-wge", str(fig4_file),
                     "--beta", "8", "--arg", "c", "--timeout", "0.001"]) == 4
        assert capsys.readouterr().err.startswith("error: ")
        for flags in (["minimal-budget", str(fig4_file), "--set", "a,c"],
                      ["is-minimal", str(fig4_file), "--set", "a,c", "--beta", "8"]):
            assert main(["decide", *flags, "--timeout", "0.001"]) == 4
        assert main(["decide", "credulous-wge", str(fig4_file),
                     "--beta", "8", "--arg", "c", "--timeout", "0"]) == 2

    def test_missing_flags(self, fig4_file):
        assert main(["decide", "credulous-wge", str(fig4_file), "--beta", "1"]) == 2
        assert main(["decide", "is-minimal", str(fig4_file), "--set", "a"]) == 2

    def test_solver_value_error_is_not_a_usage_error(self, fig4_file, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("a fault inside the solver")

        monkeypatch.setattr("argsolve.budget.credulous", broken)
        with pytest.raises(ValueError, match="inside the solver"):
            main(["decide", "credulous-wge", str(fig4_file), "--beta", "8", "--arg", "c"])

    def test_flags_are_validated_before_solving(self, fig4_file):
        assert main(["decide", "credulous-wge", str(fig4_file), "--beta", "-1", "--arg", "c"]) == 2
        assert main(["decide", "skeptical-wge", str(fig4_file), "--beta", "8", "--arg", "zz"]) == 2
        assert main(["decide", "minimal-budget", str(fig4_file), "--set", "a,zz"]) == 2


class TestBench:
    def test_tiny_plan(self, tmp_path, capsys):
        out = tmp_path / "table.txt"
        rc = main(["bench", "--kind", "barabasi", "--sizes", "3", "--reps", "2",
                   "--semantics", "conflict-free", "--seed", "1", "--out", str(out)])
        assert rc == 0
        table = out.read_text().splitlines()
        assert table[0].startswith("#")
        row = table[1].split()
        assert row[0] == "3" and row[1] == "conflict-free" and row[4] == "-"
        raw = (tmp_path / "table.txt.raw").read_text().splitlines()
        assert len(raw) == 3  # header + 2 runs

    def test_forced_timeout_marker(self, tmp_path):
        out = tmp_path / "table.txt"
        rc = main(["bench", "--kind", "kleinberg", "--sizes", "6", "--reps", "1",
                   "--semantics", "conflict-free", "--orient", "both",
                   "--timeout", "0.001", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[1].split()[4] == "*"

    def test_example_graph_counts_across_all_semantics(self, tmp_path):
        out = tmp_path / "table.txt"
        semantics = ("conflict-free,admissible,complete,stable,preferred,"
                     "grounded,semi-stable,stage,ideal")
        rc = main(["bench", "--kind", "fig4", "--sizes", "5", "--reps", "2",
                   "--semantics", semantics, "--seed", "1", "--out", str(out)])
        assert rc == 0
        counts = {}
        for line in out.read_text().splitlines()[1:]:
            cells = line.split()
            counts[cells[1]] = float(cells[2])
        assert counts == {
            "conflict-free": 8.0,
            "admissible": 6.0,
            "complete": 3.0,
            "stable": 1.0,
            "preferred": 2.0,
            "grounded": 1.0,
            "semi-stable": 1.0,
            "stage": 1.0,
            "ideal": 1.0,
        }

    def test_mixing_alpha_and_classical_rejected(self, tmp_path):
        rc = main(["bench", "--kind", "fig4", "--sizes", "5", "--reps", "1",
                   "--semantics", "stable,alpha-stable", "--alpha", "4",
                   "--out", str(tmp_path / "t.txt")])
        assert rc == 2


class TestUsage:
    def test_unknown_semantics(self, fig4_plain_file):
        assert main(["solve", str(fig4_plain_file), "--semantics", "stage-2"]) == 2

    def test_bad_requirement_syntax(self, fig4_plain_file):
        assert main(["solve", str(fig4_plain_file), "--semantics", "stable",
                     "--require", "if a then"]) == 2
        assert main(["solve", str(fig4_plain_file), "--semantics", "stable",
                     "--require", "if a then z"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestTimeoutFlag:
    # (ARGSOLVE_TIMEOUT_MS, argv with IN for the input file, DIR for its
    # directory and BYTES for a file that is not UTF-8, exit code); every
    # rejected value is one usage error, every unreadable input one input
    # error.
    CASES = [
        (None, ["solve", "IN", "--check-preferred", "a", "--timeout", "0"], 2),
        (None, ["solve", "IN", "--semantics", "stable", "--timeout", "-5"], 2),
        (None, ["solve", "IN", "--semantics", "stable", "--timeout", "nan"], 2),
        (None, ["solve", "IN", "--check-preferred", "a", "--timeout", "nan"], 2),
        (None, ["solve", "IN", "--semantics", "stable", "--timeout", "soon"], 2),
        (None, ["solve", "IN", "--semantics", "stable", "--timeout", "inf"], 0),
        (None, ["solve", "IN", "--check-preferred", "a,c", "--timeout", "inf"], 0),
        ("abc", ["solve", "IN", "--semantics", "stable"], 2),
        ("abc", ["solve", "IN", "--check-preferred", "a"], 2),
        ("abc", ["solve", "IN", "--semantics", "stable", "--timeout", "1000"], 0),
        ("nan", ["decide", "credulous-wge", "IN", "--beta", "1", "--arg", "a"], 2),
        ("0", ["decide", "credulous-wge", "IN", "--beta", "1", "--arg", "a"], 2),
        ("abc", ["bench", "--kind", "fig4", "--sizes", "5", "--semantics", "stable",
                 "--out", "IN.table"], 2),
        ("abc", ["generate", "--kind", "fig4", "--out", "IN.copy"], 0),
        ("5000", ["solve", "IN", "--semantics", "stable"], 0),
        (None, ["solve", "DIR", "--semantics", "stable"], 3),
        (None, ["solve", "BYTES", "--semantics", "stable"], 3),
        (None, ["decide", "is-minimal", "DIR", "--set", "a", "--beta", "1"], 3),
        (None, ["decide", "is-minimal", "BYTES", "--set", "a", "--beta", "1"], 3),
        (None, ["generate", "--kind", "kleinberg", "--n", "0", "--out", "IN.gen"], 2),
        (None, ["generate", "--kind", "barabasi", "--nodes", "-1", "--out", "IN.gen"], 2),
        (None, ["generate", "--kind", "barabasi", "--edges-per-step", "0", "--out", "IN.gen"], 2),
        (None, ["generate", "--kind", "kleinberg", "--long-range", "0", "--out", "IN.gen"], 2),
        (None, ["generate", "--kind", "kleinberg", "--theta", "0", "--out", "IN.gen"], 2),
        (None, ["generate", "--kind", "kleinberg", "--theta", "nan", "--out", "IN.gen"], 2),
        (None, ["generate", "--kind", "kleinberg", "--weights", "int:0", "--out", "IN.gen"], 2),
        (None, ["bench", "--kind", "barabasi", "--sizes", "1", "--semantics", "stable",
                "--out", "IN.table"], 2),
        (None, ["bench", "--kind", "barabasi", "--sizes", "4", "--semantics", "stable",
                "--timeout", "-1", "--out", "IN.table"], 2),
        (None, ["solve", "IN", "--semantics", "stable", "--require", "a|!a"], 2),
        (None, ["solve", "IN", "--semantics", "stable", "--require", "if b|b then a"], 2),
        (None, ["solve", "IN", "--semantics", "stable", "--require", "a|b"], 0),
        (None, ["solve", "IN", "--semantics", "stable", "--out", "DIR"], 2),
        (None, ["solve", "IN", "--semantics", "stable", "--out", "IN.missing/x.txt"], 2),
        (None, ["solve", "IN", "--semantics", "stable", "--dot", "DIR"], 2),
        (None, ["solve", "IN", "--semantics", "stable", "--dot", "IN.missing/x.dot"], 2),
        (None, ["generate", "--kind", "fig4", "--out", "DIR"], 2),
        (None, ["generate", "--kind", "fig4", "--out", "IN.missing/x.dl"], 2),
        (None, ["bench", "--kind", "fig4", "--sizes", "5", "--semantics", "stable",
                "--out", "DIR"], 2),
        (None, ["bench", "--kind", "fig4", "--sizes", "5", "--semantics", "stable",
                "--out", "IN.table", "--raw", "IN.missing/raw.txt"], 2),
    ]

    @pytest.mark.parametrize("env, argv, code", CASES)
    def test_timeout_values(self, fig4_plain_file, monkeypatch, capsys, env, argv, code):
        if env is None:
            monkeypatch.delenv("ARGSOLVE_TIMEOUT_MS", raising=False)
        else:
            monkeypatch.setenv("ARGSOLVE_TIMEOUT_MS", env)
        latin1 = fig4_plain_file.with_name("latin1.dl")
        latin1.write_bytes("arg(\u00e9).\n".encode("latin-1"))
        paths = {"BYTES": latin1, "DIR": fig4_plain_file.parent, "IN": fig4_plain_file}
        for token, path in paths.items():
            argv = [arg.replace(token, str(path)) for arg in argv]
        assert main(argv) == code
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == (1 if code else 0), errors
