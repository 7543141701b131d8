"""Build the reference answers the benchmark checks every request against.

    python3 bench/make_expected.py [WORKLOAD ...]

writes ``bench/expected/<workload>.json``: the workload's request
templates grouped by kind, each with its reference answer, the source
of that answer and its cost at build time. Answers come from sources
independent of the solver wherever the size allows:

- ``bruteforce``: ``oracle.enumerate_bruteforce`` (frameworks of at most
  16 arguments);
- ``fixpoint``: ``oracle.grounded_fixpoint`` (classical grounded);
- ``reference``: budget answers from an enumeration of removal sets and
  the fixpoint of each reduction, written here without the budget module;
- ``construction``: ``is_preferred`` candidates, a member of the preferred
  family (yes) or an admissible strict subset of one (no);
- ``pinned``: the solver's answer at the commit that built the file,
  every member passing the definition-level check of its base family.
  The runner checks every member again, and the count and digest pin
  the rest.

The runner samples each kind's templates in strata of similar build
cost, so the cost of a pass barely depends on the workload seed.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
import sys
import time
from pathlib import Path

import calls

OUT = Path(__file__).resolve().parent / "expected"


def lattice(side, seed, weights="none"):
    return {"gen": "kleinberg", "side": side, "seed": seed, "orient": "both", "weights": weights}


def barabasi(nodes, seed, weights="int"):
    return {"gen": "barabasi", "nodes": nodes, "seed": seed, "orient": "coin", "weights": weights}


def instance_id(spec):
    if spec["gen"] == "fig4":
        return "fig4"
    size = f"k{spec['side']}" if spec["gen"] == "kleinberg" else f"b{spec['nodes']}"
    return f"{size}-{spec['seed']}" + ("w" if spec["weights"] == "int" else "")


def enum_kind(name, semantics, instances, per_pass, alpha=None):
    templates = [
        {"call": calls.ENUMERATE, "semantics": semantics, "alpha": alpha, "instance": spec}
        for spec in instances
    ]
    return {"name": name, "per_pass": per_pass, "templates": templates}


def plain_kind(name, templates, per_pass):
    return {"name": name, "per_pass": per_pass, "templates": templates}


def k5(seed):
    return lattice(5, seed)


def k3w(seed):
    return lattice(3, seed, "int")


def k4w(seed):
    return lattice(4, seed, "int")


def workloads(lib):
    """The workload catalog: kinds, their templates and per-pass counts."""
    extremal = [
        enum_kind(sem, sem, [k5(s) for s in range(1, 9)], 4)
        for sem in ("preferred", "ideal", "semi-stable", "grounded")
    ]
    # Stage filtering takes 0.4 to 1.3 s per lattice, and the five stage
    # requests of a pass are its slowest seventh, where p90 falls a third
    # of the way into them: the kind takes the 8 lattices of middle cost
    # among the first 24 seeds, so that p90 does not land on a gap
    # between far-apart costs.
    extremal.append(enum_kind("stage", "stage", middle_by_cost(lib, [k5(s) for s in range(1, 25)], "stage"), 5))
    # Twelve decisions of a few milliseconds put the median in the middle
    # of the grounded and semi-stable requests, not at one of their edges.
    # Three candidates on each of four lattices give 12 templates per kind,
    # so that every kind's strata hold one or two templates (see run.py).
    yes, no = preferred_candidates(lib, [k5(s) for s in range(1, 5)])
    extremal += [plain_kind("is-preferred-yes", yes, 6), plain_kind("is-preferred-no", no, 6)]

    alpha = [
        enum_kind(f"alpha-{sem}-k3", sem, [k3w(s) for s in range(1, 9)], 4, alpha=10)
        for sem in ("admissible", "complete", "preferred", "semi-stable")
    ]
    # Alpha-complete on Barabasi graphs costs 20 to 470 ms. Six encode-bound
    # requests of middle cost per pass form the slowest fifth of the
    # workload after the side-4 alpha-complete, so p90 falls among them.
    b16 = middle_by_cost(lib, [barabasi(16, s) for s in range(1, 25)], "complete", alpha=10)
    alpha += [
        enum_kind("alpha-complete-b16", "complete", b16, 6, alpha=10),
        enum_kind("alpha-conflict-free-k4", "conflict-free", [k4w(s) for s in range(1, 5)], 2, alpha=10),
        enum_kind("alpha-stable-k4", "stable", [k4w(s) for s in range(1, 5)], 2, alpha=10),
        enum_kind("alpha-complete-k4", "complete", [k4w(1)], 1, alpha=10),
    ]

    # Lattices whose beta=4 budget admits 100 to 200 removal sets (16 of
    # the first 24 seeds; the others range from 28 to 619), so that the
    # cost of a pass does not hinge on which seeds the pool draws.
    seeds = [s for s in range(1, 25) if 100 <= removal_count(lib, k3w(s), 4) <= 200]
    # Sceptical requests take a few milliseconds, fig4 ones 0.3 to 22 ms
    # and the rest hundreds: 32 sceptical requests of the 56 in a pass put
    # the median among them rather than on a gap. The wge and credulous
    # kinds take the first 8 of those lattices, so that a cycle of two
    # passes runs each of them once.
    budget = []
    for beta in (3, 4):
        for call, per_pass, among in ((calls.WGE, 4, seeds[:8]), (calls.CREDULOUS, 4, seeds[:8]),
                                      (calls.SKEPTICAL, 16, seeds)):
            budget.append(plain_kind(
                f"{call}-b{beta}",
                [{"call": call, "beta": beta, "arg": (s + beta) % 9, "instance": k3w(s)} for s in among],
                per_pass))
    # Targets 3, 7, ..., 31 of fig4 need removal sets of weight 15 to 43.
    fig4 = {"gen": "fig4"}
    budget.append(plain_kind(
        "minimal-budget-fig4",
        [{"call": calls.MINIMAL_BUDGET, "target": t, "instance": fig4} for t in range(3, 32, 4)], 4))
    least = {t: fig4_least(lib, t) for t in range(3, 32, 8)}
    budget.append(plain_kind(
        "is-minimal-fig4",
        [{"call": calls.IS_MINIMAL, "target": t, "beta": b, "instance": fig4}
         for t in least for b in sorted({least[t] or 0, (least[t] or 0) + 1})], 4))

    return {
        "enum-search": {
            "deadline_ms": 2000,
            "kinds": [
                enum_kind("stable-k6", "stable", [lattice(6, s) for s in range(1, 17)], 8),
                enum_kind("complete-k5", "complete", [k5(s) for s in range(1, 17)], 8),
            ],
        },
        "enum-extremal": {"deadline_ms": 10000, "kinds": extremal},
        "alpha-encode": {"deadline_ms": 10000, "kinds": alpha},
        "budget": {"deadline_ms": 3000, "kinds": budget},
    }


def middle_by_cost(lib, specs, sem, keep=8, alpha=None):
    """The ``keep`` instances of middle enumeration cost among ``specs``."""
    timed = []
    for index, spec in enumerate(specs):
        framework = lib.interchange.parse_dl(calls.instance_text(lib, spec))
        started = time.perf_counter()
        solve(lib, framework, sem, alpha)
        timed.append((time.perf_counter() - started, index))
    timed.sort()
    low = (len(specs) - keep) // 2
    return [specs[index] for index in sorted(i for _, i in timed[low:low + keep])]


def preferred_candidates(lib, instances, per_instance=3):
    """``is_preferred`` templates: preferred sets (yes) and admissible
    strict subsets of preferred sets (no), drawn with a fixed seed."""
    rng = random.Random(1212)
    yes, no = [], []
    for spec in instances:
        framework = lib.interchange.parse_dl(calls.instance_text(lib, spec))
        preferred = solve(lib, framework, "preferred")
        admissible = solve(lib, framework, "admissible")
        below = sorted(a for a in admissible if any(a != p and a & p == a for p in preferred))
        for bits in rng.sample(sorted(preferred), per_instance):
            yes.append({"call": calls.IS_PREFERRED, "candidate": bits, "instance": spec})
        for bits in rng.sample(below, per_instance):
            no.append({"call": calls.IS_PREFERRED, "candidate": bits, "instance": spec})
    return yes, no


def solve(lib, framework, sem, alpha=None):
    spec = calls.semantics(lib, {"semantics": sem, "alpha": alpha})
    outcome = lib.encodings.enumerate_extensions(lib.encodings.EncodingRequest(framework, spec))
    if not outcome.complete:
        raise RuntimeError(f"{sem} enumeration timed out while building references")
    return [e.bits for e in outcome.solutions]


def fig4_least(lib, target):
    framework = lib.netgen.fig4(weighted=True)
    best = None
    for r in range(len(framework.attacks) + 1):
        for removed in itertools.combinations(range(len(framework.attacks)), r):
            if calls.grounded_of(lib, framework, removed) == target:
                weight = sum(framework.weights[i].payload for i in removed)
                best = weight if best is None else min(best, weight)
    return best


def removals(framework, beta):
    """Every set of attack indices whose weights sum to at most beta."""
    weights = [w.payload for w in framework.weights]
    found = []

    def walk(start, removed, total):
        found.append(removed)
        for i in range(start, len(weights)):
            if total + weights[i] <= beta:
                walk(i + 1, removed + [i], total + weights[i])

    walk(0, [], 0)
    return found


def removal_count(lib, spec, beta):
    return len(removals(lib.interchange.parse_dl(calls.instance_text(lib, spec)), beta))


def budget_family(lib, framework, beta):
    """Grounded extensions of every reduction within the budget."""
    return sorted({calls.grounded_of(lib, framework, r) for r in removals(framework, beta)})


def reference(lib, template, text):
    """Reference answer of one template, with its source."""
    framework = lib.interchange.parse_dl(text)
    call = template["call"]
    if call == calls.ENUMERATE:
        sem, alpha = template["semantics"], template["alpha"]
        spec = calls.semantics(lib, template)
        if framework.n <= 16:
            bits = [e.bits for e in lib.oracle.enumerate_bruteforce(framework, spec)]
            source = "bruteforce"
        elif sem == "grounded" and alpha is None:
            bits = [lib.oracle.grounded_fixpoint(framework).bits]
            source = "fixpoint"
        else:
            bits = solve(lib, framework, sem, alpha)
            problem = calls.check_members(lib, template, text, bits)
            if problem:
                raise RuntimeError(f"{template}: {problem}")
            source = "pinned"
        return {"count": len(bits), "digest": calls.digest(bits), "source": source}
    if call == calls.IS_PREFERRED:
        # Candidates are drawn so that the answer is known by construction.
        return None
    if call in (calls.WGE, calls.CREDULOUS, calls.SKEPTICAL):
        family = budget_family(lib, framework, template["beta"])
        if call == calls.WGE:
            return {"count": len(family), "digest": calls.digest(family), "source": "reference"}
        inside = [b >> template["arg"] & 1 for b in family]
        answer = any(inside) if call == calls.CREDULOUS else all(inside)
        return {"answer": answer, "family": family, "source": "reference"}
    least = fig4_least(lib, template["target"])
    if call == calls.MINIMAL_BUDGET:
        return {"least": least, "source": "reference"}
    return {"answer": least == template["beta"], "source": "reference"}


def build(lib, name, workload):
    kinds = []
    instances = {}
    for kind in workload["kinds"]:
        entries = []
        for index, template in enumerate(kind["templates"]):
            spec = template.pop("instance")
            text = calls.instance_text(lib, spec)
            key = instance_id(spec)
            instances[key] = {"spec": spec, "sha256": calls.text_digest(text)}
            template["instance"] = key
            template["id"] = f"{kind['name']}/{index}"
            expected = reference(lib, template, text)
            if expected is None:
                expected = {"answer": kind["name"] == "is-preferred-yes", "source": "construction"}
            costs = []
            for _ in range(3):
                started = time.perf_counter()
                result = calls.execute(lib, template, text, workload["deadline_ms"])
                costs.append((time.perf_counter() - started) * 1000.0)
            got = calls.summarize(template, result)
            problem = "timed out" if got is None else calls.mismatch(lib, template, expected, got, text)
            if problem:
                raise RuntimeError(f"{name} {template['id']}: solver disagrees with the reference: {problem}")
            entries.append({"template": template, "expected": expected,
                            "cost_ms": round(statistics.median(costs), 1)})
            print(f"{name} {template['id']}: {expected['source']} {statistics.median(costs):.1f} ms", flush=True)
        kinds.append({"name": kind["name"], "per_pass": kind["per_pass"], "entries": entries})
    return {"workload": name, "deadline_ms": workload["deadline_ms"],
            "instances": instances, "kinds": kinds}


def main(argv):
    lib = calls.import_fresh()
    catalog = workloads(lib)
    for name in argv or list(catalog):
        document = build(lib, name, catalog[name])
        path = OUT / f"{name}.json"
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
