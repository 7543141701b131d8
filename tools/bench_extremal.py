"""Wall time, nodes and the encode/search/filter split of classical stage
and semi-stable on seeded kleinberg lattices, for two checkouts.

    python3 tools/bench_extremal.py --parent PARENT_SRC > BENCH_extremal.json

``PARENT_SRC`` is the ``src`` directory of the commit to compare with;
the change is the ``src`` beside this script. Each side runs in its own
interpreter, and the sides alternate over ``--repeats`` rounds; a row
reports the median wall time over the rounds and the split of the run
that gave it. The split wraps ``encodings.encode`` (encode), the search
functions ``encodings`` calls (search) and ``encodings._extremal_members``
(filter: range keys and the sweep); ``other_ms`` is the rest of the
wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE_SRC = Path(__file__).resolve().parent.parent / "src"

# (side, orient, seed) of each lattice; orient="coin" lattices of side 6
# have no stable extension at seeds 1 and 7.
LATTICES = [(5, "coin", 1), (5, "coin", 5), (5, "coin", 7),
            (6, "coin", 1), (6, "coin", 5), (6, "coin", 7), (6, "both", 1)]
KINDS = ("stage", "semi-stable")
SEARCHES = ("solve_all", "solve_within_budget", "solve_range_cut")


def measure(src: str) -> list[dict]:
    """One round over every row, importing argsolve from ``src``."""
    sys.path.insert(0, src)
    from argsolve import encodings, netgen
    from argsolve.engine import SearchConfig
    from argsolve.oracle import SemanticsSpec

    clock = {"encode": 0.0, "search": 0.0, "filter": 0.0}
    nodes: list[int] = []

    def timed(name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            clock[name] += time.perf_counter() - start
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    encodings.encode = timed("encode", encodings.encode)
    encodings._extremal_members = timed("filter", encodings._extremal_members)
    for attr in SEARCHES:
        if hasattr(encodings, attr):
            setattr(encodings, attr, timed("search", getattr(encodings, attr),
                                           lambda out: nodes.append(out.nodes)))
    rows = []
    for side, orient, seed in LATTICES:
        framework = netgen.generate(netgen.GenSpec(kind="kleinberg", side=side, seed=seed, orient=orient))
        for kind in KINDS:
            for key in clock:
                clock[key] = 0.0
            nodes.clear()
            request = encodings.EncodingRequest(framework, SemanticsSpec(kind), SearchConfig())
            start = time.perf_counter()
            outcome = encodings.enumerate_extensions(request)
            wall = time.perf_counter() - start
            answer = ",".join(str(e.bits) for e in outcome.solutions)
            rows.append({
                "lattice": f"kleinberg side {side} {orient} seed {seed}",
                "semantics": kind,
                "wall_ms": wall * 1000.0,
                "nodes": sum(nodes),
                "search_nodes": list(nodes),
                "extensions": len(outcome.solutions),
                "complete": outcome.complete,
                "answer_sha256": hashlib.sha256(answer.encode()).hexdigest()[:16],
                "split_ms": {
                    "encode": clock["encode"] * 1000.0,
                    "search": clock["search"] * 1000.0,
                    "filter": clock["filter"] * 1000.0,
                    "other": (wall - sum(clock.values())) * 1000.0,
                },
            })
    return rows


def run_side(src: Path) -> list[dict]:
    done = subprocess.run([sys.executable, __file__, "--measure", str(src)],
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def median_run(runs: list[dict]) -> dict:
    ranked = sorted(runs, key=lambda r: r["wall_ms"])
    row = dict(ranked[len(ranked) // 2])
    row["wall_ms_runs"] = [round(r["wall_ms"], 2) for r in runs]
    return row


def rounded(row: dict) -> dict:
    out = {k: (round(v, 2) if isinstance(v, float) else v) for k, v in row.items()}
    out["split_ms"] = {k: round(v, 2) for k, v in row["split_ms"].items()}
    return out


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="src directory of the commit to compare with")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    if not args.parent:
        parser.error("--parent is required")
    sides = {"parent": Path(args.parent).resolve(), "change": HERE_SRC}
    runs = {name: [] for name in sides}
    for round_index in range(args.repeats):
        order = list(sides) if round_index % 2 == 0 else list(sides)[::-1]
        for name in order:
            runs[name].append(run_side(sides[name]))
    rows = []
    for index in range(len(runs["parent"][0])):
        parent = median_run([r[index] for r in runs["parent"]])
        change = median_run([r[index] for r in runs["change"]])
        rows.append({
            "lattice": parent.pop("lattice"),
            "semantics": parent.pop("semantics"),
            "same_answer": parent["answer_sha256"] == change["answer_sha256"],
            "parent": rounded(parent),
            "change": {k: v for k, v in rounded(change).items() if k not in ("lattice", "semantics")},
        })
    document = {
        "topic": "classical stage and semi-stable: stable first, then a range-cut search",
        "command": ["python3", "tools/bench_extremal.py", "--parent", "PARENT/src",
                    "--repeats", str(args.repeats)],
        "generator": "netgen.GenSpec(kind='kleinberg', side=S, seed=SEED, orient=O), defaults otherwise",
        "seeds": sorted({seed for _, _, seed in LATTICES}),
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "machine": platform.machine(),
        "timing": "time.perf_counter around encodings.enumerate_extensions; median of the rounds",
        "rows": rows,
    }
    print(json.dumps(document, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
