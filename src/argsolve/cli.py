"""Command-line front end: generate instances, solve and decide
problems on them, and run the benchmark protocol.

Exit codes: 0 success, 2 usage error, 3 unreadable or malformed input,
4 when a search was interrupted by the timeout (``solve`` listings
accept that with --timeout-ok; a decision cut by the timeout has no
answer and always exits 4).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import budget as budget_mod
from . import netgen
from .encodings import EncodingRequest, enumerate_extensions, is_preferred
from .engine import (
    DEFAULT_TIMEOUT_MS,
    INPUT_ORDER,
    MOST_CONSTRAINED_STATIC,
    ONE_FIRST,
    SEEDED_RANDOM,
    ZERO_FIRST,
    ConditionalRequirement,
    Literal,
    SearchConfig,
)
from .interchange import DlParseError, emit_dl, emit_dot, emit_results, parse_dl, parse_scalar
from .model import Framework
from .oracle import ALL_KINDS, ANY_ATTACK, STABLE, STRICT, SemanticsSpec
from .semiring import format_value

_ALPHA_PREFIX = "alpha-"
_SEMANTICS_CHOICES = list(ALL_KINDS) + [_ALPHA_PREFIX + kind for kind in ALL_KINDS]


def _timeout_ms(text: str) -> float:
    """A ``--timeout`` value: positive milliseconds, ``inf`` for no limit."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not value > 0:  # NaN included
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive number of milliseconds")
    return value


class _UsageError(Exception):
    pass


class _InputError(Exception):
    """The input file cannot be read as text (exit 3)."""


@dataclass(frozen=True)
class BenchPlan:
    """One benchmark run: a generator template swept over sizes, with
    repetitions per size and a list of semantics to enumerate."""

    kind: str
    sizes: tuple[int, ...]
    semantics: tuple[str, ...]
    reps: int = 10
    timeout_ms: float = DEFAULT_TIMEOUT_MS
    seed: int = 0
    alpha: "str | None" = None
    edges_per_step: int = 3
    theta: float = 0.5
    long_range_per_node: int = 1
    orient: str = "coin"
    weights: "str | None" = None

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ValueError("repetitions must be at least 1")
        if not self.sizes or not self.semantics:
            raise ValueError("a bench plan needs sizes and semantics")


def _build_parser() -> argparse.ArgumentParser:
    # argparse converts a string default only when the flag is absent, so a
    # bad ARGSOLVE_TIMEOUT_MS is a usage error of the commands that read it.
    timeout = dict(type=_timeout_ms, metavar="MS",
                   default=os.environ.get("ARGSOLVE_TIMEOUT_MS", str(DEFAULT_TIMEOUT_MS)))
    parser = argparse.ArgumentParser(
        prog="argsolve",
        description="Solve acceptability problems on (weighted) attack graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate an instance file")
    gen.add_argument("--kind", required=True, choices=["barabasi", "kleinberg", "fig4"])
    gen.add_argument("--nodes", type=int, default=10, help="node count (barabasi)")
    gen.add_argument("--edges-per-step", type=int, default=3, help="attachment edges per new node")
    gen.add_argument("--n", type=int, default=5, help="lattice side (kleinberg); the graph has n*n nodes")
    gen.add_argument("--theta", type=float, default=0.5, help="clustering exponent")
    gen.add_argument("--long-range", type=int, default=1, help="long-range links per node")
    gen.add_argument("--orient", choices=["coin", "both"], default="coin")
    gen.add_argument("--weights", default=None,
                     help="none, int:MAX or fuzzy (fig4 carries its own fixed weights)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--weight-seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="enumerate extensions of an instance")
    solve.add_argument("input")
    solve.add_argument("--semantics", choices=_SEMANTICS_CHOICES)
    solve.add_argument("--alpha", help="tolerance threshold for the alpha- semantics")
    solve.add_argument("--stable-rule", choices=[STRICT, ANY_ATTACK], default=STRICT)
    solve.add_argument("--require", action="append", default=[], metavar="EXPR",
                       help="side requirement, e.g. 'if a&!b then !c|!d'")
    solve.add_argument("--forbid", action="append", default=[], metavar="EXPR",
                       help="forbidden membership pattern, e.g. 'a&b'")
    solve.add_argument("--timeout", **timeout,
                       help="search timeout (also via ARGSOLVE_TIMEOUT_MS)")
    solve.add_argument("--seed", type=int)
    solve.add_argument("--var-heuristic", choices=[MOST_CONSTRAINED_STATIC, INPUT_ORDER],
                       default=MOST_CONSTRAINED_STATIC)
    solve.add_argument("--val-heuristic", choices=[ONE_FIRST, ZERO_FIRST, SEEDED_RANDOM],
                       default=ONE_FIRST)
    solve.add_argument("--check-preferred", metavar="SET",
                       help="decide whether the comma-separated set is preferred")
    solve.add_argument("--out", help="write a results document here")
    solve.add_argument("--dot", help="write a DOT rendering here")
    solve.add_argument("--stats", action="store_true",
                       help="include wall-clock time in the results document")
    solve.add_argument("--timeout-ok", action="store_true",
                       help="exit 0 even when the search timed out")

    decide = sub.add_parser("decide", help="budgeted grounded decision problems")
    decide.add_argument("problem",
                        choices=["credulous-wge", "skeptical-wge", "minimal-budget", "is-minimal"])
    decide.add_argument("input")
    decide.add_argument("--beta", type=int)
    decide.add_argument("--arg", dest="argument")
    decide.add_argument("--set", dest="target")
    decide.add_argument("--timeout", **timeout,
                        help="timeout of each reduction's search (also via ARGSOLVE_TIMEOUT_MS)")

    bench = sub.add_parser("bench", help="run the benchmark protocol")
    bench.add_argument("--kind", required=True, choices=["barabasi", "kleinberg", "fig4"])
    bench.add_argument("--sizes", required=True,
                       help="comma-separated sizes (nodes for barabasi, side for kleinberg)")
    bench.add_argument("--reps", type=int, default=10)
    bench.add_argument("--semantics", required=True, help="comma-separated semantics names")
    bench.add_argument("--alpha")
    bench.add_argument("--edges-per-step", type=int, default=3)
    bench.add_argument("--theta", type=float, default=0.5)
    bench.add_argument("--long-range", type=int, default=1)
    bench.add_argument("--orient", choices=["coin", "both"], default="coin")
    bench.add_argument("--weights", default="none")
    bench.add_argument("--timeout", **timeout)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True)
    bench.add_argument("--raw", help="per-run records path (default: OUT.raw)")

    return parser


# -- requirement micro-syntax -------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<name>!?[A-Za-z0-9_]+)|(?P<sym>[()&|]))")


def _tokenize(expr: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(expr):
        match = _TOKEN.match(expr, pos)
        if match is None:
            rest = expr[pos:].strip()
            if not rest:
                break
            raise _UsageError(f"cannot parse requirement near {rest!r}")
        tokens.append(match.group("name") or match.group("sym"))
        pos = match.end()
    return tokens


def _parse_condition(expr: str, framework: Framework) -> tuple[tuple[Literal, ...], ...]:
    """Parse '&'-separated groups of '|'-separated literals into clauses."""

    def literal(token: str) -> Literal:
        negated = token.startswith("!")
        name = token[1:] if negated else token
        try:
            index = framework.index_of(name)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        return Literal(index, 0 if negated else 1)

    tokens = _tokenize(expr)
    clauses: list[tuple[Literal, ...]] = []
    current: list[Literal] = []
    expect_literal = True
    depth = 0
    for token in tokens:
        if token == "(":
            if not expect_literal or current:
                raise _UsageError(f"unexpected '(' in {expr!r}")
            depth += 1
        elif token == ")":
            if depth == 0 or not current:
                raise _UsageError(f"unexpected ')' in {expr!r}")
            depth -= 1
        elif token == "&":
            if expect_literal or not current:
                raise _UsageError(f"unexpected '&' in {expr!r}")
            clauses.append(tuple(current))
            current = []
            expect_literal = True
        elif token == "|":
            if expect_literal:
                raise _UsageError(f"unexpected '|' in {expr!r}")
            expect_literal = True
        else:
            if not expect_literal:
                raise _UsageError(f"missing connective before {token!r} in {expr!r}")
            current.append(literal(token))
            expect_literal = False
    if depth != 0:
        raise _UsageError(f"unbalanced parentheses in {expr!r}")
    if expect_literal or not current:
        raise _UsageError(f"incomplete requirement {expr!r}")
    clauses.append(tuple(current))
    return tuple(clauses)


def _parse_requirement(expr: str, framework: Framework) -> ConditionalRequirement:
    stripped = expr.strip()
    match = re.fullmatch(r"if\s+(?P<guard>.+?)\s+then\s+(?P<cons>.+)", stripped, re.S)
    if match:
        guard = _parse_condition(match.group("guard"), framework)
        consequence = _parse_condition(match.group("cons"), framework)
    else:
        guard = ()
        consequence = _parse_condition(stripped, framework)
    try:
        return ConditionalRequirement(guard, consequence)
    except ValueError as exc:  # a clause that names one argument twice
        raise _UsageError(f"requirement {expr!r}: {exc}") from None


def _parse_forbid(expr: str, framework: Framework) -> ConditionalRequirement:
    """Compile a forbidden conjunction into a requirement: if all but
    the last literal hold, the last one must not."""
    clauses = _parse_condition(expr, framework)
    literals = []
    for clause in clauses:
        if len(clause) != 1:
            raise _UsageError("--forbid takes a plain conjunction of literals")
        literals.append(clause[0])
    last = literals[-1]
    guard = tuple((lit,) for lit in literals[:-1])
    return ConditionalRequirement(guard, ((Literal(last.var, 1 - last.value),),))


# -- command implementations --------------------------------------------


def _parse_weight_scheme(text: "str | None") -> tuple[str, int]:
    if text is None or text == "none":
        return netgen.WEIGHTS_NONE, 9
    if text == "fuzzy":
        return netgen.WEIGHTS_FUZZY, 9
    match = re.fullmatch(r"int:(\d+)", text)
    if match:
        return netgen.WEIGHTS_INT, int(match.group(1))
    raise _UsageError(f"cannot parse weight scheme {text!r} (use none, int:MAX or fuzzy)")


def _read_framework(path: str) -> Framework:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise _InputError(f"{path} is not UTF-8 text") from None
    return parse_dl(text)


def _write(path: str, text: str) -> None:
    """Write an output file; one that cannot be written is a usage error."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _gen_spec(**fields) -> netgen.GenSpec:
    """A generator spec from flag values; one it rejects is a usage error."""
    try:
        return netgen.GenSpec(**fields)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _fig4_framework(weights_flag: "str | None") -> Framework:
    # The example graph carries its own fixed weights; --weights none
    # exports the plain form, random schemes make no sense here.
    if weights_flag is None:
        return netgen.fig4(weighted=True)
    if weights_flag == "none":
        return netgen.fig4(weighted=False)
    raise _UsageError("the example graph carries fixed weights; only --weights none applies")


def _cmd_generate(args) -> int:
    if args.kind == "fig4":
        framework = _fig4_framework(args.weights)
    else:
        scheme, weight_max = _parse_weight_scheme(args.weights)
        spec = _gen_spec(
            kind=args.kind,
            node_count=args.nodes,
            edges_per_step=args.edges_per_step,
            side=args.n,
            theta=args.theta,
            long_range_per_node=args.long_range,
            seed=args.seed,
            orient=args.orient,
            weight_scheme=scheme,
            weight_max=weight_max,
            weight_seed=args.weight_seed,
        )
        framework = netgen.generate(spec)
    _write(args.out, emit_dl(framework))
    return 0


def _semantics_spec(
    name: str, alpha: "str | None", stable_rule: str, framework: Framework
) -> SemanticsSpec:
    """Spec for a semantics name such as ``alpha-stable``; ``alpha`` is
    the unparsed --alpha text and ``stable_rule`` applies to alpha-stable."""
    weighted = name.startswith(_ALPHA_PREFIX)
    kind = name[len(_ALPHA_PREFIX):] if weighted else name
    if weighted != framework.is_weighted:
        if weighted:
            raise _UsageError("alpha- semantics need a weighted instance")
        raise _UsageError("weighted instances are solved with the alpha- semantics")
    if not weighted:
        if alpha is not None:
            raise _UsageError("--alpha only applies to the alpha- semantics")
        return SemanticsSpec(kind)
    if alpha is None:
        raise _UsageError("the alpha- semantics need --alpha")
    try:
        value = parse_scalar(alpha)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if value.tag != framework.semiring.tag:
        raise _UsageError(f"--alpha {alpha} does not match the instance's weight kind")
    return SemanticsSpec(kind, True, value, stable_rule if kind == STABLE else None)


def _search_config(args) -> SearchConfig:
    try:
        return SearchConfig(
            var_heuristic=args.var_heuristic,
            val_heuristic=args.val_heuristic,
            seed=args.seed,
            timeout_ms=args.timeout,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_solve(args) -> int:
    framework = _read_framework(args.input)

    if args.check_preferred is not None:
        if framework.is_weighted:
            raise _UsageError("the preferred check works on unweighted instances")
        members = [m for m in args.check_preferred.split(",") if m]
        try:
            candidate = framework.extension(members)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        config = SearchConfig(timeout_ms=args.timeout)
        print("yes" if is_preferred(framework, candidate, config) else "no")
        return 0

    if args.semantics is None:
        raise _UsageError("--semantics is required unless --check-preferred is used")
    spec = _semantics_spec(args.semantics, args.alpha, args.stable_rule, framework)
    config = _search_config(args)
    requirements = tuple(_parse_requirement(e, framework) for e in args.require)
    requirements += tuple(_parse_forbid(e, framework) for e in args.forbid)
    request = EncodingRequest(framework, spec, config, requirements)
    outcome = enumerate_extensions(request)

    for extension in outcome.solutions:
        print(extension.format(framework.names))
    print(
        f"count={len(outcome.solutions)} complete={'true' if outcome.complete else 'false'} "
        f"nodes={outcome.nodes} elapsed-ms={outcome.elapsed_ms:.2f}"
    )

    if args.out:
        meta = {"semantics": args.semantics}
        if args.alpha is not None:
            meta["alpha"] = format_value(spec.alpha)
        if spec.stable_rule is not None:
            meta["stable-rule"] = spec.stable_rule
        meta["seed"] = str(args.seed) if args.seed is not None else "none"
        meta["var-heuristic"] = args.var_heuristic
        meta["val-heuristic"] = args.val_heuristic
        meta["timeout-ms"] = f"{args.timeout:g}"
        _write(args.out, emit_results(framework, outcome, meta, include_timing=args.stats))
    if args.dot:
        highlight = outcome.solutions.items[0] if len(outcome.solutions) else None
        _write(args.dot, emit_dot(framework, highlight))

    if not outcome.complete and not args.timeout_ok:
        return 4
    return 0


def _cmd_decide(args) -> int:
    framework = _read_framework(args.input)
    names = framework.names
    problem = args.problem
    wge_problem = problem in ("credulous-wge", "skeptical-wge")
    if wge_problem and (args.beta is None or args.argument is None):
        raise _UsageError("--beta and --arg are required for this problem")
    if not wge_problem and args.target is None:
        raise _UsageError("--set is required for this problem")
    if problem == "is-minimal" and args.beta is None:
        raise _UsageError("--beta is required for this problem")
    # Only the flags are validated here: a ValueError from the solver
    # itself is a fault, not a usage error.
    try:
        budget_mod.check_inputs(framework, None if problem == "minimal-budget" else args.beta)
        if wge_problem:
            argument = framework.index_of(args.argument)
        else:
            target = framework.extension([m for m in args.target.split(",") if m])
    except ValueError as exc:
        raise _UsageError(str(exc)) from None

    config = SearchConfig(timeout_ms=args.timeout)
    if problem == "credulous-wge":
        verdict, witness = budget_mod.credulous(framework, args.beta, argument, config)
        suffix = f" witness={witness.format(names)}" if witness is not None else ""
        print(("true" if verdict else "false") + suffix)
    elif problem == "skeptical-wge":
        verdict, counter = budget_mod.skeptical(framework, args.beta, argument, config)
        suffix = f" counterexample={counter.format(names)}" if counter is not None else ""
        print(("true" if verdict else "false") + suffix)
    elif problem == "minimal-budget":
        least, removal = budget_mod.minimal_budget(framework, target, config)
        if least is None:
            print("none")
        else:
            removed = ",".join(
                f"({names[s]},{names[d]})" for s, d in removal.attacks(framework)
            )
            print(f"{least} removal={{{removed}}}")
    else:
        verdict = budget_mod.is_minimal(framework, target, args.beta, config)
        print("true" if verdict else "false")
    return 0


def run_bench(plan: BenchPlan) -> list[dict]:
    """Execute a bench plan; one record per (size, repetition, semantics)."""
    scheme, weight_max = _parse_weight_scheme(plan.weights)
    for name in plan.semantics:
        if name not in _SEMANTICS_CHOICES:
            raise _UsageError(f"unknown semantics {name!r}")
    alpha_names = [s for s in plan.semantics if s.startswith(_ALPHA_PREFIX)]
    if alpha_names and len(alpha_names) != len(plan.semantics):
        raise _UsageError("classical and alpha- semantics cannot be mixed in one bench run")

    records = []
    for size in plan.sizes:
        for rep in range(plan.reps):
            seed = plan.seed * 100003 + size * 1009 + rep
            if plan.kind == "fig4":
                framework = netgen.fig4(weighted=bool(alpha_names))
            else:
                spec = _gen_spec(
                    kind=plan.kind,
                    node_count=size,
                    edges_per_step=plan.edges_per_step,
                    side=size,
                    theta=plan.theta,
                    long_range_per_node=plan.long_range_per_node,
                    seed=seed,
                    orient=plan.orient,
                    weight_scheme=scheme,
                    weight_max=weight_max,
                    weight_seed=seed + 1,
                )
                framework = netgen.generate(spec)
            for name in plan.semantics:
                spec_obj = _semantics_spec(name, plan.alpha, STRICT, framework)
                config = SearchConfig(timeout_ms=plan.timeout_ms)
                started = time.monotonic()
                outcome = enumerate_extensions(
                    EncodingRequest(framework, spec_obj, config)
                )
                wall_ms = (time.monotonic() - started) * 1000.0
                records.append(
                    {
                        "size": size,
                        "rep": rep,
                        "seed": seed,
                        "semantics": name,
                        "count": len(outcome.solutions),
                        "ms": wall_ms,
                        "complete": outcome.complete,
                    }
                )
    return records


def format_bench_table(plan: BenchPlan, records: list[dict]) -> str:
    """Aggregate per (size, semantics): mean count over all runs, mean
    wall time over completed runs, and a ``*`` marker when any run hit
    the timeout."""
    lines = ["# size semantics mean-count mean-ms timeout"]
    for size in plan.sizes:
        for name in plan.semantics:
            rows = [r for r in records if r["size"] == size and r["semantics"] == name]
            counts = [r["count"] for r in rows]
            done = [r["ms"] for r in rows if r["complete"]]
            mean_count = sum(counts) / len(counts)
            mean_ms = sum(done) / len(done) if done else float("nan")
            marker = "*" if any(not r["complete"] for r in rows) else "-"
            lines.append(f"{size} {name} {mean_count:.1f} {mean_ms:.2f} {marker}")
    return "\n".join(lines) + "\n"


def _cmd_bench(args) -> int:
    try:
        plan = BenchPlan(
            kind=args.kind,
            sizes=tuple(int(s) for s in args.sizes.split(",") if s),
            semantics=tuple(s for s in args.semantics.split(",") if s),
            reps=args.reps,
            timeout_ms=args.timeout,
            seed=args.seed,
            alpha=args.alpha,
            edges_per_step=args.edges_per_step,
            theta=args.theta,
            long_range_per_node=args.long_range,
            orient=args.orient,
            weights=args.weights,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    records = run_bench(plan)

    table = format_bench_table(plan, records)
    _write(args.out, table)
    print(table, end="")

    raw_path = args.raw or (args.out + ".raw")
    raw_lines = [
        "# size rep seed semantics count ms complete",
    ] + [
        f"{r['size']} {r['rep']} {r['seed']} {r['semantics']} {r['count']} "
        f"{r['ms']:.2f} {'true' if r['complete'] else 'false'}"
        for r in records
    ]
    _write(raw_path, "\n".join(raw_lines) + "\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "decide":
            return _cmd_decide(args)
        return _cmd_bench(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DlParseError, _InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
