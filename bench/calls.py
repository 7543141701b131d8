"""Instances, requests and answer checks shared by the benchmark runner
(``run.py``) and the script that writes the reference answers
(``make_expected.py``).

A request is ``interchange.parse_dl`` of an instance text followed by one
library call. Every function here takes a ``Lib``, the argsolve modules
of one import, so the runner can re-import the package for each set-up
repetition and still call into the modules it timed.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_MODULES = ("budget", "encodings", "engine", "interchange", "model", "netgen", "oracle", "semiring")

ENUMERATE = "enumerate"
IS_PREFERRED = "is_preferred"
WGE = "wge"
CREDULOUS = "credulous"
SKEPTICAL = "skeptical"
MINIMAL_BUDGET = "minimal_budget"
IS_MINIMAL = "is_minimal"

# Base family whose definition-level check every member of an extremal
# family must pass; the family itself is pinned by count and digest.
CHECK_KIND = {
    "preferred": "admissible",
    "ideal": "admissible",
    "semi-stable": "complete",
    "stage": "conflict-free",
}


class Lib:
    """The argsolve modules of one import, as attributes."""

    def __init__(self) -> None:
        for name in _MODULES:
            setattr(self, name, importlib.import_module(f"argsolve.{name}"))


def import_fresh() -> Lib:
    """Import argsolve from this checkout's ``src``, dropping any copy
    already imported, so each call pays the full import cost."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "argsolve" or m.startswith("argsolve.")]:
        del sys.modules[name]
    package = importlib.import_module("argsolve")
    if SRC not in Path(package.__file__).resolve().parents:
        raise ImportError(f"argsolve was imported from {package.__file__}, not from {SRC}")
    return Lib()


def digest(bits) -> str:
    """Order-independent fingerprint of a family of bitsets."""
    text = ",".join(str(b) for b in sorted(bits))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def instance_text(lib: Lib, spec: dict) -> str:
    """Generate one instance and return its text after an emit/parse
    round trip that must reproduce it exactly."""
    if spec["gen"] == "fig4":
        framework = lib.netgen.fig4(weighted=True)
    else:
        framework = lib.netgen.generate(
            lib.netgen.GenSpec(
                kind=spec["gen"],
                side=spec.get("side", 5),
                node_count=spec.get("nodes", 10),
                edges_per_step=3,
                seed=spec["seed"],
                orient=spec["orient"],
                weight_scheme=spec["weights"],
                weight_max=9,
                weight_seed=spec["seed"] + 1,
            )
        )
    text = lib.interchange.emit_dl(framework)
    if lib.interchange.emit_dl(lib.interchange.parse_dl(text)) != text:
        raise RuntimeError(f"emit/parse round trip changed instance {spec}")
    return text


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def semantics(lib: Lib, template: dict):
    alpha = template.get("alpha")
    if alpha is None:
        return lib.oracle.SemanticsSpec(template["semantics"])
    return lib.oracle.SemanticsSpec(template["semantics"], True, lib.semiring.cost_value(alpha))


def execute(lib: Lib, template: dict, text: str, timeout_ms: float):
    """One request: parse the text into a fresh Framework, make the call."""
    framework = lib.interchange.parse_dl(text)
    config = lib.engine.SearchConfig(timeout_ms=timeout_ms)
    call = template["call"]
    if call == ENUMERATE:
        request = lib.encodings.EncodingRequest(framework, semantics(lib, template), config)
        return lib.encodings.enumerate_extensions(request)
    if call == IS_PREFERRED:
        candidate = lib.model.Extension(template["candidate"], framework.n)
        return lib.encodings.is_preferred(framework, candidate, config)
    if call == WGE:
        return lib.budget.wge(framework, template["beta"], config)
    if call in (CREDULOUS, SKEPTICAL):
        decide = getattr(lib.budget, call)
        return decide(framework, template["beta"], template["arg"], config)
    target = lib.model.Extension(template["target"], framework.n)
    if call == MINIMAL_BUDGET:
        return lib.budget.minimal_budget(framework, target, config)
    if call == IS_MINIMAL:
        return lib.budget.is_minimal(framework, target, template["beta"])
    raise ValueError(f"unknown call {call!r}")


def summarize(template: dict, result) -> "dict | None":
    """Compact answer of one request; None when the search timed out."""
    call = template["call"]
    if call == ENUMERATE:
        if not result.complete:
            return None
        bits = [e.bits for e in result.solutions]
        return {"count": len(bits), "digest": digest(bits)}
    if call == WGE:
        bits = [e.bits for e in result]
        return {"count": len(bits), "digest": digest(bits)}
    if call in (IS_PREFERRED, IS_MINIMAL):
        return {"answer": bool(result)}
    if call in (CREDULOUS, SKEPTICAL):
        answer, witness = result
        return {"answer": answer, "witness": None if witness is None else witness.bits}
    least, removal = result
    return {"least": least, "removal": None if removal is None else list(removal.attack_indices)}


def grounded_of(lib: Lib, framework, removed) -> int:
    """Grounded extension of the classical reduction, built without the
    budget module and evaluated by the oracle's fixpoint iteration."""
    drop = set(removed)
    kept = tuple(a for i, a in enumerate(framework.attacks) if i not in drop)
    reduced = lib.model.Framework(framework.n, kept, framework.names)
    return lib.oracle.grounded_fixpoint(reduced).bits


def mismatch(lib: Lib, template: dict, expected: dict, got: dict, text: str) -> "str | None":
    """Compare one answer with the reference; a message when wrong."""
    call = template["call"]
    if call in (ENUMERATE, WGE):
        if (got["count"], got["digest"]) != (expected["count"], expected["digest"]):
            return f"{got['count']} sets (digest {got['digest']}), expected {expected['count']} ({expected['digest']})"
        return None
    if call in (IS_PREFERRED, IS_MINIMAL):
        return None if got["answer"] == expected["answer"] else f"answer {got['answer']}"
    if call in (CREDULOUS, SKEPTICAL):
        if got["answer"] != expected["answer"]:
            return f"answer {got['answer']}"
        witness = got["witness"]
        # A credulous yes and a sceptical no come with a witness extension.
        if (witness is not None) != (got["answer"] == (call == CREDULOUS)):
            return f"witness {witness} given with answer {got['answer']}"
        if witness is not None:
            inside = witness >> template["arg"] & 1
            if witness not in expected["family"] or bool(inside) != (call == CREDULOUS):
                return f"witness {witness} is not a valid {call} witness"
        return None
    if got["least"] != expected["least"]:
        return f"least budget {got['least']}, expected {expected['least']}"
    if got["removal"] is not None:
        framework = lib.interchange.parse_dl(text)
        weight = sum(framework.weights[i].payload for i in got["removal"])
        if weight != got["least"] or grounded_of(lib, framework, got["removal"]) != template["target"]:
            return f"removal set {got['removal']} does not reach the target at its budget"
    return None


def check_members(lib: Lib, template: dict, text: str, bits) -> "str | None":
    """Definition-level check of every returned set, for families whose
    reference is pinned rather than brute-forced."""
    framework = lib.interchange.parse_dl(text)
    kind = CHECK_KIND.get(template["semantics"], template["semantics"])
    spec = semantics(lib, {**template, "semantics": kind})
    for b in bits:
        if not lib.oracle.check(framework, lib.model.Extension(b, framework.n), spec):
            return f"returned set {b:#x} fails the {kind} check"
    return None
