"""Request benchmark for argsolve: one client, closed loop, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A request is ``interchange.parse_dl`` of an instance text followed by one
library call (``enumerate_extensions``, ``is_preferred`` or a ``budget``
decision), so every request starts from a fresh ``Framework``. Each kind
of request in the workload's catalog in ``bench/expected/`` is cut into
strata of similar build cost; a pass runs one template of every stratum,
and a cycle of passes runs every template of every stratum once. The
seed sets which template of each stratum a pass takes and the order of
every pass. The loop makes whole cycles until the requests have taken
``--seconds`` and at least 100 have run, so a run's mix of requests is
the same for every seed and only their sequence differs.

Times are reported at a reference host speed: before each request the
loop times a fixed piece of pure-Python work (``host_kernel``), and each
request's time is scaled by ``KERNEL_REF_MS`` over the median kernel
time of the requests around it; each set-up is scaled the same way by
kernels timed just before it. A shared host that slows down or speeds
up slows the kernel about as much as the requests, so the scaled
figures follow the program, not the host. The unscaled figures are
printed and written too.

Every answer is checked against the reference answers outside the timed
region. A request fails when it times out, raises, answers wrongly or
runs past the workload's request deadline.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first makes
one untraced pass, then installs the span wrappers of ``spans.py`` and
prints the per-layer metrics, averaged per traced cycle; it also writes
the spans, the time attribution per layer, and the per-request exact
counts, which must repeat across passes and across runs with the same
seed and source. Outputs go to ``bench/out/``. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import calls
import spans

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
MIN_REQUESTS = 100
SETUP_REPEATS = 15
# Time metrics are scaled to a nominal host on which host_kernel takes
# this long, about its median on 2 vCPUs of a shared x86-64 machine
# under CPython 3.11.
KERNEL_REF_MS = 3.0
KERNEL_ROUNDS = 10
# A request's time is scaled by the kernels of the requests up to this
# many places before and after it.
KERNEL_REACH = 8
SETUP_KERNELS = 9


class BenchError(Exception):
    """A condition that makes the run's figures meaningless."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass over the cheapest template of each kind, one set-up")
    return parser.parse_args(argv)


def select_strata(document, seed, smoke):
    """``per_pass`` strata per kind: runs of the kind's templates sorted
    by build cost, each in an order the seed sets."""
    rng = random.Random(seed)
    strata = []
    for kind in document["kinds"]:
        entries = sorted(kind["entries"], key=lambda e: (e["cost_ms"], e["template"]["id"]))
        if smoke:
            strata.append(entries[:1])
            continue
        per_pass = kind["per_pass"]
        for k in range(per_pass):
            stratum = entries[k * len(entries) // per_pass:(k + 1) * len(entries) // per_pass]
            rng.shuffle(stratum)
            strata.append(stratum)
    return strata


def cycle_length(strata):
    """Passes after which every template of every stratum has run once."""
    return math.lcm(*(len(stratum) for stratum in strata))


def host_kernel():
    """A fixed piece of pure-Python work of the kinds the solver does,
    timed to track the speed the host gives this process: integer bit
    operations, calls and dictionary updates, then allocation of many
    small objects, sorting and hashing of frozensets."""
    bits = list(range(1, 257))
    seen = {}
    for _ in range(KERNEL_ROUNDS):
        bits = [_kernel_mix(b) for b in bits]
        for b in bits:
            seen[b & 1023] = seen.get(b & 1023, 0) + 1
    items = [(_kernel_mix(i) >> 12, i) for i in range(1500)]
    groups = {}
    for key, i in items:
        groups.setdefault(key & 2047, []).append(i)
    families = {frozenset(group) for group in groups.values() if len(group) > 1}
    return len(seen) + len(sorted(items)) + len(families)


def _kernel_mix(b):
    return ((b * 2654435761) ^ (b >> 7)) & 0xFFFFFFFF


def kernel_ms():
    started = time.perf_counter()
    host_kernel()
    return (time.perf_counter() - started) * 1000.0


def host_scales(kernels):
    """Per request, the factor that takes its time to the reference host
    speed: KERNEL_REF_MS over the median kernel time around it."""
    return [KERNEL_REF_MS / statistics.median(kernels[max(0, i - KERNEL_REACH):i + KERNEL_REACH + 1])
            for i in range(len(kernels))]


def document_text(workload):
    """The workload's catalog with its reference answers."""
    path = HERE / "expected" / f"{workload}.json"
    if not path.exists():
        raise BenchError(f"unknown workload {workload!r}: no {path.relative_to(HERE.parent)}")
    return path.read_text()


def set_up(workload, seed, smoke, tracer):
    """Import argsolve, load the references, generate the catalog's
    instances and round-trip them through the text format."""
    if tracer is not None:
        tracer.request = "setup"
    lib = calls.import_fresh()
    if tracer is not None:
        tracer.hook("netgen.generate", lib.netgen, "generate")
    document = json.loads(document_text(workload))
    strata = select_strata(document, seed, smoke)
    texts = {}
    for entry in (e for stratum in strata for e in stratum):
        key = entry["template"]["instance"]
        if key not in texts:
            instance = document["instances"][key]
            texts[key] = calls.instance_text(lib, instance["spec"])
            if calls.text_digest(texts[key]) != instance["sha256"]:
                raise BenchError(f"instance {key} no longer matches its reference answers; "
                                 "rebuild them with bench/make_expected.py")
    if tracer is not None:
        tracer.request = None
    return lib, document, strata, texts


class Loop:
    """The closed loop and the bookkeeping of its requests."""

    def __init__(self, lib, document, strata, texts, seed):
        self.lib, self.strata, self.texts, self.seed = lib, strata, texts, seed
        self.deadline_ms = document["deadline_ms"]
        self.records = []          # (template id, latency ms, cpu ms, failure or None, pass)
        self.kernel_ms = []        # host_kernel time before each request
        self.first = {}            # template id -> returned bits, for the member checks
        self.wrong = []

    def request(self, entry, pass_index, tracer=None):
        template = entry["template"]
        text = self.texts[template["instance"]]
        request_id = len(self.records)
        call = lambda: calls.execute(self.lib, template, text, self.deadline_ms)
        error = result = None
        self.kernel_ms.append(kernel_ms())
        gc.collect()  # each request starts from a collected heap, as in a fresh process
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            result = call() if tracer is None else tracer.run_request(request_id, call)
        except Exception as exc:  # a raising request is a failed one; the loop goes on
            error = f"raised {type(exc).__name__}: {exc}"
        wall_ms = (time.perf_counter() - wall0) * 1000.0
        cpu_ms = (time.process_time() - cpu0) * 1000.0
        if error is None:
            error = self.verify(entry, result, text)
        if error is None and wall_ms > self.deadline_ms:
            error = f"took {wall_ms:.0f} ms, past the {self.deadline_ms} ms deadline"
        self.records.append((template["id"], wall_ms, cpu_ms, error, pass_index))

    def verify(self, entry, result, text):
        template = entry["template"]
        got = calls.summarize(template, result)
        if got is None:
            return "timed out"
        problem = calls.mismatch(self.lib, template, entry["expected"], got, text)
        if problem is None and entry["expected"]["source"] == "pinned" \
                and template["id"] not in self.first:
            self.first[template["id"]] = (template, text, [e.bits for e in result.solutions])
        if problem:
            self.wrong.append(f"{template['id']}: {problem}")
            return "wrong answer"
        return None

    def one_pass(self, index, tracer=None):
        """Pass ``index`` takes template ``index`` (modulo its size) of
        every stratum, in an order the seed and the index set."""
        order = [stratum[index % len(stratum)] for stratum in self.strata]
        random.Random(f"{self.seed}:{index}").shuffle(order)
        for entry in order:
            self.request(entry, index, tracer)

    def check_members(self):
        """Definition-level check of every set of each pinned answer."""
        for template, text, bits in self.first.values():
            problem = calls.check_members(self.lib, template, text, bits)
            if problem:
                self.wrong.append(f"{template['id']}: {problem}")

    def measured_s(self, start=0, end=None):
        return sum(r[1] for r in self.records[start:end]) / 1000.0



def quantile(values, p, steps=16):
    """Harrell-Davis estimate of the ``p`` quantile: a weighted mean of
    all order statistics, with the weights a Beta(p(n+1), (1-p)(n+1))
    distribution gives each 1/n-wide cell (midpoint rule, ``steps`` points
    per cell). It moves less with the noise of single samples than the
    one or two order statistics of the sample quantile."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        xs = ((i * steps + j + 0.5) * h for j in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta) for x in xs))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def source_digest():
    h = hashlib.sha256()
    for path in sorted((calls.SRC / "argsolve").rglob("*.py")):
        h.update(path.relative_to(calls.SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:20]


def commit():
    """The checkout's commit when it is a git work tree, else ``unknown``."""
    head = calls.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (calls.ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(args, argv):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": [Path(sys.executable).name, "bench/run.py", *argv],
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "source_sha256": source_digest(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(loop, setup_s, scales):
    """End-to-end metrics, each request's time multiplied by its scale."""
    latencies = [r[1] * scale for r, scale in zip(loop.records, scales)]
    ok = sum(1 for r in loop.records if r[3] is None)
    return {
        "requests_per_s": metric(ok / sum(latencies) * 1000.0, "1/s"),
        "latency_ms.p50": metric(quantile(latencies, 0.5), "ms"),
        "latency_ms.p90": metric(quantile(latencies, 0.9), "ms"),
        "ok_share": metric(ok / len(latencies), "ratio"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, cycles, overhead_ratio, cpu_wall, netgen_ms):
    """Per-layer metrics per traced cycle: every cycle runs the same
    requests, so the counts repeat exactly."""
    layers, reductions, reduction_ms = spans.analyse(tracer.spans)

    def self_ms(name):
        return layers[name]["self_ms"] / cycles if name in layers else 0.0

    def calls_of(name):
        return layers[name]["calls"] / cycles if name in layers else 0

    def notes(name, i):
        return sum(n[i] for n in layers[name]["notes"]) / cycles if name in layers else 0

    nodes, solutions = notes("engine.search", 0), notes("engine.search", 1)
    search_s = self_ms("engine.search") / 1000.0
    checks = calls_of("oracle.check")
    rejects = (checks - sum(layers["oracle.check"]["notes"]) / cycles) if checks else 0
    input_sets, kept = notes("model.extremal", 0), notes("model.extremal", 1)
    removal = tracer.counts["budget.removal_sets"] / cycles
    reduced = reductions / cycles
    ratio = lambda a, b: a / b if b else 0.0
    values = {
        "engine.search.self_ms": (self_ms("engine.search"), "ms"),
        "engine.search.calls": (calls_of("engine.search"), "count"),
        "engine.nodes": (nodes, "count"),
        "engine.solutions": (solutions, "count"),
        "engine.nodes_per_s": (ratio(nodes, search_s), "1/s"),
        "engine.solutions_per_node": (ratio(solutions, nodes), "ratio"),
        "oracle.check.self_ms": (self_ms("oracle.check"), "ms"),
        "oracle.check.calls": (checks, "count"),
        "oracle.check.reject_ratio": (ratio(rejects, checks), "ratio"),
        "model.extremal.self_ms": (self_ms("model.extremal"), "ms"),
        "model.extremal.input_sets": (input_sets, "count"),
        "model.extremal.kept_ratio": (ratio(kept, input_sets), "ratio"),
        "model.range.self_ms": (self_ms("model.range"), "ms"),
        "encodings.encode.self_ms": (self_ms("encodings.encode"), "ms"),
        "encodings.encode.calls": (calls_of("encodings.encode"), "count"),
        "encodings.model.literals": (notes("encodings.encode", 0), "count"),
        "encodings.model.conditionals": (notes("encodings.encode", 1), "count"),
        "semiring.times.calls": (tracer.counts["semiring.times.calls"] / cycles, "count"),
        "semiring.validate.calls": (tracer.counts["semiring.validate.calls"] / cycles, "count"),
        "budget.self_ms": (self_ms("budget"), "ms"),
        "budget.removal_sets": (removal, "count"),
        "budget.reductions": (reduced, "count"),
        "budget.cache_hit_ratio": (ratio(removal - reduced, removal), "ratio"),
        "budget.reduction.incl_ms": (reduction_ms / cycles, "ms"),
        "model.without_attacks.self_ms": (self_ms("model.without_attacks"), "ms"),
        "encodings.enumerate.self_ms": (self_ms("encodings.enumerate"), "ms"),
        "encodings.is_preferred.self_ms": (self_ms("encodings.is_preferred"), "ms"),
        "interchange.parse_dl.self_ms": (self_ms("interchange.parse_dl"), "ms"),
        "request.wall_ms": (layers["request"]["incl_ms"] / cycles, "ms"),
        "request.unattributed_ms": (self_ms("request"), "ms"),
        "netgen.generate.self_ms": (netgen_ms, "ms"),
        "run.cpu_wall_ratio": (cpu_wall, "ratio"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return {name: metric(value, unit) for name, (value, unit) in values.items()}, layers


def attribution(tracer, loop, traced_ids, cycles, layers):
    """Share of the traced request wall time per layer (self time), the
    unattributed rest, and the largest layer below the library call,
    over all requests and over the requests between the 85th and 95th
    latency percentiles, around p90: which single request sits at p90
    changes with the noise of a few milliseconds."""
    wall = layers["request"]["incl_ms"]
    shares = {name: layer["self_ms"] / wall for name, layer in layers.items() if name != "request"}
    shares["unattributed"] = layers["request"]["self_ms"] / wall
    split = Counter()
    for rid in traced_ids:
        split.update(spans.layer_split(tracer.spans, rid))
    ranked = sorted(traced_ids, key=lambda rid: loop.records[rid][1])
    band = ranked[int(0.85 * len(ranked)):int(0.95 * len(ranked)) + 1]
    p90_split = Counter()
    for rid in band:
        p90_split.update(spans.layer_split(tracer.spans, rid))
    return {
        "per_cycle_wall_ms": wall / cycles,
        "self_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "largest_layer": split.most_common(1)[0][0] if split else None,
        "below_call_ms_per_cycle": {k: v / cycles for k, v in split.most_common()},
        "p90_band": {
            "kinds": dict(Counter(loop.records[rid][0].split("/")[0] for rid in band).most_common()),
            "latency_ms": [loop.records[band[0]][1], loop.records[band[-1]][1]],
            "largest_layer": p90_split.most_common(1)[0][0] if p90_split else None,
            "below_call_ms": dict(p90_split.most_common()),
        },
        "absent_layers": tracer.absent,
    }


def check_exact_counts(tracer, loop, traced_ids, args, source):
    """Exact counts per template must agree across passes, and with the
    previous traced run of the same workload, seed, source and catalog."""
    per_request = spans.exact_counts(tracer.spans)
    by_template = {}
    for rid in traced_ids:
        template_id = loop.records[rid][0]
        counts = per_request.get(rid, dict.fromkeys(spans.EXACT_COUNTS, 0))
        if by_template.setdefault(template_id, counts) != counts:
            raise BenchError(f"exact counts of {template_id} differ between passes: "
                             f"{by_template[template_id]} then {counts}")
    if args.smoke:
        return
    path = OUT / "counts" / f"{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        before = json.loads(path.read_text())
        if before["source"] == source:
            changed = sorted(t for t, counts in by_template.items()
                             if before["templates"].get(t, counts) != counts)
            if changed:
                raise BenchError(f"exact counts differ from the previous run of the same source: {changed}")
    path.write_text(json.dumps({"source": source, "templates": by_template},
                               indent=1, sort_keys=True) + "\n")


def run(args, argv):
    tracer = spans.Tracer() if args.trace else None
    setup_times, setup_scales = [], []
    repeats = 1 if args.smoke else SETUP_REPEATS
    for _ in range(repeats):
        setup_scales.append(KERNEL_REF_MS / statistics.median(kernel_ms() for _ in range(SETUP_KERNELS)))
        started = time.perf_counter()
        lib, document, strata, texts = set_up(args.workload, args.seed, args.smoke, tracer)
        setup_times.append(time.perf_counter() - started)
    if tracer is not None:
        layers, _, _ = spans.analyse(tracer.spans)
        netgen_ms = layers["netgen.generate"]["self_ms"] / repeats if "netgen.generate" in layers else 0.0
        tracer.spans.clear()

    loop = Loop(lib, document, strata, texts, args.seed)
    cycle = cycle_length(strata)
    timed_from = 0
    if tracer is not None:
        # An untraced pass, then the same pass traced: their ratio is the
        # tracing overhead.
        loop.one_pass(0)
        timed_from = len(loop.records)
        tracer.install(lib)
    cycles = 0
    while True:
        for index in range(cycles * cycle, (cycles + 1) * cycle):
            loop.one_pass(index, tracer)
        cycles += 1
        if args.smoke or (loop.measured_s(timed_from) >= args.seconds
                          and len(loop.records) - timed_from >= MIN_REQUESTS):
            break
    if tracer is not None:
        tracer.uninstall()
    loop.check_members()

    records = loop.records
    cpu_wall = sum(r[2] for r in records) / sum(r[1] for r in records)
    failed = sum(1 for r in records if r[3] is not None)
    scales = host_scales(loop.kernel_ms)
    info = provenance(args, argv)
    info.update({"attempted": len(records), "failed": failed, "cycles": cycles, "passes_per_cycle": cycle,
                 "templates": sorted(e["template"]["id"] for stratum in strata for e in stratum),
                 "failures": Counter(r[3] for r in records if r[3] is not None),
                 "wrong": loop.wrong, "cpu_wall_ratio": cpu_wall,
                 "host_kernel_ms": statistics.median(loop.kernel_ms),
                 "host_scale": statistics.median(scales)})
    if tracer is None:
        setup_s = statistics.median(t * f for t, f in zip(setup_times, setup_scales))
        metrics = end_to_end(loop, setup_s, scales)
        info["unscaled"] = end_to_end(loop, statistics.median(setup_times), [1.0] * len(records))
    else:
        traced_ids = list(range(timed_from, len(records)))
        overhead_ratio = loop.measured_s(timed_from, 2 * timed_from) / loop.measured_s(0, timed_from)
        metrics, layers = per_layer(tracer, cycles, overhead_ratio, cpu_wall, netgen_ms)
        info["attribution"] = attribution(tracer, loop, traced_ids, cycles, layers)
        source = [info["source_sha256"], calls.text_digest(document_text(args.workload))]
        check_exact_counts(tracer, loop, traced_ids, args, source)
    info["metrics"] = metrics
    write_outputs(args, info, tracer)
    report(info)
    return {"correct": not loop.wrong, "attempted": len(records), "failed": failed, "metrics": metrics}


def write_outputs(args, info, tracer):
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    (OUT / f"result-{stem}.json").write_text(json.dumps(info, indent=1) + "\n")
    if tracer is not None:
        origin = tracer.spans[0][spans.START] if tracer.spans else 0.0
        rows = [[r[spans.NAME], round((r[spans.START] - origin) * 1e6), round((r[spans.END] - origin) * 1e6),
                 r[spans.PARENT], r[spans.REQUEST]] for r in tracer.spans]
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"columns": ["name", "start_us", "end_us", "parent", "request"], "spans": rows}))


def report(info):
    print(f"provenance: seed={info['seed']} interpreter={info['interpreter']} nproc={info['nproc']} "
          f"commit={info['commit']} source={info['source_sha256']} command={' '.join(info['command'])}")
    print(f"samples: {info['attempted']} requests in {info['cycles']} cycles of {info['passes_per_cycle']} "
          f"passes, {info['failed']} failed, cpu/wall {info['cpu_wall_ratio']:.3f}, "
          f"host kernel {info['host_kernel_ms']:.3f} ms (times x {info['host_scale']:.3f} at the median)")
    for reason, count in info["failures"].items():
        print(f"failed: {count} x {reason}")
    for problem in info["wrong"]:
        print(f"wrong: {problem}")
    share = info.get("attribution")
    if share:
        top = ", ".join(f"{k} {v:.1%}" for k, v in list(share["self_share"].items())[:6])
        print(f"self time: {top}")
        print(f"largest layer below the call: {share['largest_layer']}; "
              f"around p90 ({', '.join(share['p90_band']['kinds'])}): {share['p90_band']['largest_layer']}")
        if share["absent_layers"]:
            print(f"absent layers: {', '.join(share['absent_layers'])}")
    unscaled = info.get("unscaled", {})
    for name, m in info["metrics"].items():
        raw = unscaled.get(name, m)["value"]
        print(f"  {name} = {m['value']:.6g} {m['unit']}" + (f" (unscaled {raw:.6g})" if raw != m["value"] else ""))


def main(argv):
    args = parse_args(argv)
    try:
        result = run(args, argv)
    except ImportError as exc:
        print(f"bench: cannot import argsolve from {calls.SRC}: {exc}", file=sys.stderr)
        return 2
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
