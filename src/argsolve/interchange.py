"""Textual framework format, DOT export, and the results document.

The format is a sequence of dot-terminated statements separated by
whitespace, with ``%`` starting a line comment:

    arg(NAME).            declare an argument
    att(NAME,NAME).       a plain attack between declared arguments
    watt(NAME,NAME,7).    an attack weighted with an integer cost
    watt(NAME,NAME,0.40). an attack weighted with a fixed-point grade

NAME matches [A-Za-z0-9_]+. Integer weights select the cost instance,
decimal weights the fuzzy instance; the two cannot be mixed, nor can
att and watt statements. A weight equal to the instance top (0 cost,
grade 1.00) is rejected since top encodes the absence of an attack.
Files conventionally use the .dl extension, .wdl when weighted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .engine import SolveOutcome
from .model import Extension, Framework
from .semiring import (
    FUZZY,
    TAG_COST,
    WEIGHTED,
    SemiringValue,
    cost_value,
    format_value,
    unit_value,
)


class DlParseError(ValueError):
    """Malformed or inconsistent framework text, with its position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class DlDocument:
    """Parsed framework text: declarations in document order."""

    arguments: tuple[str, ...]
    attacks: tuple[tuple[str, str], ...]
    weights: "tuple[SemiringValue, ...] | None" = None

    def to_framework(self) -> Framework:
        index = {name: i for i, name in enumerate(self.arguments)}
        attacks = tuple((index[a], index[b]) for a, b in self.attacks)
        if self.weights is None:
            return Framework(len(self.arguments), attacks, self.arguments)
        semiring = WEIGHTED if self.weights[0].tag == TAG_COST else FUZZY
        weight_map = dict(zip(attacks, self.weights))
        return Framework(len(self.arguments), attacks, self.arguments, weight_map, semiring)


_STATEMENT = re.compile(
    r"(?P<head>arg|att|watt)\s*\(\s*(?P<a>[A-Za-z0-9_]+)\s*"
    r"(?:,\s*(?P<b>[A-Za-z0-9_]+)\s*(?:,\s*(?P<w>[0-9]+|[01]?\.[0-9]{1,2})\s*)?)?"
    r"\)\s*\."
)
_ARITY = {"arg": (False, False), "att": (True, False), "watt": (True, True)}


def _strip_comments(text: str) -> str:
    lines = []
    for line in text.split("\n"):
        cut = line.find("%")
        if cut >= 0:
            line = line[:cut] + " " * (len(line) - cut)
        lines.append(line)
    return "\n".join(lines)


def _position(text: str, offset: int) -> tuple[int, int]:
    line = text.count("\n", 0, offset) + 1
    start = text.rfind("\n", 0, offset) + 1
    return line, offset - start + 1


def parse_document(text: str) -> DlDocument:
    """Parse framework text into declarations, validating the grammar."""
    clean = _strip_comments(text)

    def error(message: str, offset: int) -> DlParseError:
        # Line and column cost a scan from the start: only errors pay it.
        return DlParseError(message, *_position(clean, offset))

    statements = []
    pos = 0
    length = len(clean)
    while True:
        while pos < length and clean[pos].isspace():
            pos += 1
        if pos >= length:
            break
        match = _STATEMENT.match(clean, pos)
        if match is None:
            raise error("malformed statement", pos)
        head, a, b, w = match.group("head", "a", "b", "w")
        needs_b, needs_w = _ARITY[head]
        if (b is not None) != needs_b or (w is not None) != needs_w:
            raise error(f"wrong number of fields for {head}", pos)
        statements.append((head, a, b, w, pos))
        pos = match.end()

    arguments: list[str] = []
    declared: set[str] = set()
    attacks: dict[tuple[str, str], None] = {}  # ordered, O(1) duplicate test
    weights: list[SemiringValue] = []
    attack_kind: "str | None" = None  # "att", or the weight tag for watt

    for head, a, b, w, offset in statements:
        if head == "arg":
            if a in declared:
                raise error(f"argument {a} declared twice", offset)
            declared.add(a)
            arguments.append(a)

    for head, a, b, w, offset in statements:
        if head == "arg":
            continue
        for name in (a, b):
            if name not in declared:
                raise error(f"undeclared argument {name}", offset)
        if (a, b) in attacks:
            raise error(f"duplicate attack ({a},{b})", offset)
        if head == "att":
            kind = "att"
            if attack_kind not in (None, "att"):
                raise error("plain and weighted attacks cannot be mixed", offset)
        else:
            try:
                value = parse_scalar(w)
            except ValueError as exc:
                raise error(str(exc), offset) from None
            kind = value.tag
            if attack_kind not in (None, kind):
                raise error("attack weight kinds cannot be mixed", offset)
            top = (WEIGHTED if kind == TAG_COST else FUZZY).top
            if value == top:
                raise error(
                    f"weight {format_value(value)} equals the top element, which means no attack",
                    offset,
                )
            weights.append(value)
        attack_kind = kind
        attacks[(a, b)] = None

    return DlDocument(
        tuple(arguments),
        tuple(attacks),
        tuple(weights) if attack_kind not in (None, "att") else None,
    )


def parse_dl(text: str) -> Framework:
    """Parse framework text straight into a Framework."""
    return parse_document(text).to_framework()


def emit_dl(framework: Framework, include_weights: bool = True) -> str:
    """Canonical emission: arguments in index order, attacks sorted.

    Parsing the emission reconstructs the framework exactly. Weighted
    frameworks can be exported in plain form with
    ``include_weights=False``.
    """
    names = framework.names
    for name in names:
        if not re.fullmatch(r"[A-Za-z0-9_]+", name):
            raise ValueError(f"name {name!r} cannot be written in the framework format")
    lines = [f"arg({name})." for name in names]
    for idx, (src, dst) in enumerate(framework.attacks):
        if framework.is_weighted and include_weights:
            label = format_value(framework.weights[idx])
            if label == "inf":
                raise ValueError(
                    f"attack ({names[src]},{names[dst]}) carries an infinite weight, "
                    "which the framework format cannot express"
                )
            lines.append(f"watt({names[src]},{names[dst]},{label}).")
        else:
            lines.append(f"att({names[src]},{names[dst]}).")
    return "\n".join(lines) + ("\n" if lines else "")


def emit_dot(framework: Framework, highlight: "Extension | None" = None) -> str:
    """DOT digraph with weight labels; highlighted members are filled gray."""
    lines = ["digraph framework {", "  rankdir=LR;"]
    for i, name in enumerate(framework.names):
        if highlight is not None and i in highlight:
            lines.append(f'  "{name}" [style=filled, fillcolor=gray];')
        else:
            lines.append(f'  "{name}";')
    for idx, (src, dst) in enumerate(framework.attacks):
        label = ""
        if framework.is_weighted:
            label = f' [label="{format_value(framework.weights[idx])}"]'
        lines.append(f'  "{framework.names[src]}" -> "{framework.names[dst]}"{label};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_results(
    framework: Framework,
    outcome: SolveOutcome,
    meta: "dict[str, str]",
    include_timing: bool = False,
) -> str:
    """Line-oriented results document.

    Layout: a format header, the caller's metadata in order, then the
    completeness flag, the solution count, one ``solution:`` line per
    extension, and the explored node count. Wall-clock time is only
    written on request so that identical runs produce identical bytes.
    """
    lines = ["format: argsolve-results 1"]
    for key, value in meta.items():
        lines.append(f"{key}: {value}")
    lines.append(f"complete: {'true' if outcome.complete else 'false'}")
    lines.append(f"count: {len(outcome.solutions)}")
    for extension in outcome.solutions:
        lines.append(f"solution: {extension.format(framework.names)}")
    lines.append(f"nodes: {outcome.nodes}")
    if include_timing:
        lines.append(f"elapsed-ms: {outcome.elapsed_ms:.3f}")
    return "\n".join(lines) + "\n"


def parse_scalar(token: str) -> SemiringValue:
    """Parse a threshold or budget the way attack weights are written;
    ``inf`` is also accepted for the worst cost."""
    if token == "inf":
        return cost_value(float("inf"))
    match = re.fullmatch(r"[0-9]+|[01]?\.[0-9]{1,2}", token)
    if match is None:
        raise ValueError(f"cannot parse value {token!r}")
    if "." not in token:
        return cost_value(int(token))
    whole, frac = token.split(".")
    value = int(whole or 0) * 100 + int(frac) * (10 if len(frac) == 1 else 1)
    if value > 100:
        raise ValueError(f"grade {token} above 1.00")
    return unit_value(value)
