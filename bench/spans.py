"""Outside-in tracing for the benchmark's traced runs.

``Tracer.install`` replaces the public functions at each layer boundary
with wrappers that record a span (name, start, end, parent, request id)
while a request is active, plus a few counters. The wrappers live in
this file only: the solver is not modified, and an untraced run never
installs them. A hooked function that no longer exists marks its layer
``absent`` instead of failing the run.

Self time of a span is its duration minus the time its child spans
cover; spans of one request nest, because a request runs on one thread.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, REQUEST, NOTE = range(6)

# Counts that are a pure function of the request and the code, checked
# to repeat exactly across passes and across runs.
EXACT_COUNTS = ("engine.nodes", "engine.solutions", "encodings.model.literals",
                "oracle.check.calls", "budget.reductions")


def _model_size(args, model):
    literals = sum(len(ng.literals) for ng in model.nogoods)
    literals += sum(len(c) for cond in model.conditionals for c in cond.guard + cond.consequence)
    literals += sum(len(term.trigger) for term in model.cost_terms)
    return literals, len(model.conditionals)


def _search(args, outcome):
    return outcome.nodes, len(outcome.solutions)


def _extremal(args, kept):
    return len(args[0]), len(kept)


def _verdict(args, accepted):
    return bool(accepted)


def hooks(lib):
    """(layer, owner, attribute, note) for every span hook."""
    framework = lib.model.Framework
    table = [
        ("interchange.parse_dl", lib.interchange, "parse_dl", None),
        ("encodings.enumerate", lib.encodings, "enumerate_extensions", None),
        ("encodings.enumerate", lib.budget, "enumerate_extensions", None),
        ("encodings.is_preferred", lib.encodings, "is_preferred", None),
        ("encodings.encode", lib.encodings, "encode", _model_size),
        ("engine.search", lib.encodings, "solve_all", _search),
        ("engine.search", lib.encodings, "solve_within_budget", _search),
        ("oracle.check", lib.oracle, "check", _verdict),
        ("model.extremal", lib.encodings, "extremal", _extremal),
        ("model.range", framework, "range_of", None),
        ("model.range", framework, "alpha_range", None),
        ("model.without_attacks", framework, "without_attacks", None),
    ]
    table += [("budget", lib.budget, name, None)
              for name in ("wge", "credulous", "skeptical", "minimal_budget", "is_minimal")]
    return table


def counter_hooks(lib):
    """(counter, owner, attribute): calls counted without a span."""
    semiring = lib.semiring.Semiring
    return [
        ("semiring.times.calls", semiring, "times"),
        ("semiring.validate.calls", semiring, "validate"),
        ("budget.removal_sets", lib.budget, "_grounded_of_reduction"),
    ]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None
        self.counts: Counter = Counter()
        self.installed: set[str] = set()
        self.missing: set[str] = set()
        self._originals: list[tuple] = []

    def _patch(self, owner, attr, wrapper_of) -> bool:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return False
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))
        return True

    def _span(self, name, note):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrap(fn):
            def traced(*args, **kwargs):
                if self.request is None:
                    return fn(*args, **kwargs)
                record = [name, clock(), 0.0, stack[-1] if stack else None, self.request, None]
                stack.append(len(spans))
                spans.append(record)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[END] = clock()
                    stack.pop()
                if note is not None:
                    record[NOTE] = note(args, result)
                return result
            return traced
        return wrap

    def _count(self, name):
        counts = self.counts

        def wrap(fn):
            def counted(*args, **kwargs):
                if self.request is not None:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        return wrap

    def hook(self, layer, owner, attr, note=None) -> None:
        if self._patch(owner, attr, self._span(layer, note)):
            self.installed.add(layer)
        else:
            self.missing.add(layer)

    def install(self, lib) -> None:
        for layer, owner, attr, note in hooks(lib):
            self.hook(layer, owner, attr, note)
        for name, owner, attr in counter_hooks(lib):
            if not self._patch(owner, attr, self._count(name)):
                self.missing.add(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    @property
    def absent(self) -> list[str]:
        return sorted(self.missing - self.installed)

    def run_request(self, request_id, fn):
        """Call ``fn`` inside a root span named ``request``."""
        self.request = request_id
        record = ["request", time.perf_counter(), 0.0, None, request_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn()
        finally:
            record[END] = time.perf_counter()
            self.stack.pop()
            self.request = None


def analyse(spans):
    """Per-layer totals: self and inclusive milliseconds, calls, and the
    notes; plus the count and inclusive milliseconds of the reductions,
    the calls from ``budget`` into ``enumerate_extensions``."""
    child_ms = defaultdict(float)
    for record in spans:
        if record[PARENT] is not None:
            child_ms[record[PARENT]] += record[END] - record[START]
    layers = defaultdict(lambda: {"self_ms": 0.0, "incl_ms": 0.0, "calls": 0, "notes": []})
    reductions = reduction_ms = 0
    for index, record in enumerate(spans):
        duration = record[END] - record[START]
        layer = layers[record[NAME]]
        layer["self_ms"] += (duration - child_ms[index]) * 1000.0
        layer["incl_ms"] += duration * 1000.0
        layer["calls"] += 1
        if record[NOTE] is not None:
            layer["notes"].append(record[NOTE])
        if record[NAME] == "encodings.enumerate" and record[PARENT] is not None \
                and spans[record[PARENT]][NAME] == "budget":
            reductions += 1
            reduction_ms += duration * 1000.0
    return layers, reductions, reduction_ms


def exact_counts(spans):
    """The ``EXACT_COUNTS`` of every request id."""
    counts = defaultdict(Counter)
    for record in spans:
        name, note, c = record[NAME], record[NOTE], counts[record[REQUEST]]
        if note is None and name in ("engine.search", "encodings.encode"):
            continue  # the call raised
        if name == "engine.search":
            c["engine.nodes"] += note[0]
            c["engine.solutions"] += note[1]
        elif name == "encodings.encode":
            c["encodings.model.literals"] += note[0]
        elif name == "oracle.check":
            c["oracle.check.calls"] += 1
        elif name == "encodings.enumerate" and record[PARENT] is not None \
                and spans[record[PARENT]][NAME] == "budget":
            c["budget.reductions"] += 1
    return {rid: {k: c[k] for k in EXACT_COUNTS} for rid, c in counts.items()}


def layer_split(spans, request_id):
    """Inclusive milliseconds of the layers directly below the request's
    library call (parse excluded), descending through nested calls of
    the same layer, e.g. ``is_minimal`` into ``minimal_budget``."""
    children = defaultdict(list)
    root = None
    for index, record in enumerate(spans):
        if record[REQUEST] != request_id:
            continue
        if record[PARENT] is None:
            root = index
        else:
            children[record[PARENT]].append(index)
    split = Counter()

    def descend(index):
        for child in children[index]:
            record = spans[child]
            if record[NAME] == spans[index][NAME]:
                descend(child)
            else:
                split[record[NAME]] += (record[END] - record[START]) * 1000.0

    for top in children.get(root, []):
        if spans[top][NAME] != "interchange.parse_dl":
            descend(top)
    return split
