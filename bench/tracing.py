"""Spans at helly's layer boundaries, recorded from outside the package.

``Tracer.install`` replaces the names that one helly module looks up in
another (``helly.cli.helly_certify``, ``helly.disks.ccw_in_span``, ...)
with wrappers that record a span or a count. Nothing under ``src/``
changes. Spans stay in memory as ``(name, start, end, parent)`` tuples,
where ``parent`` is the index of the enclosing span or -1, until
``write`` puts them in a file at the end of the run.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name): calls that get a timed span.
SPANNED = (
    ("helly.instances", "parse_instance", "instances.parse_instance"),
    ("helly.cli", "helly_certify", "linear.helly_certify"),
    ("helly.cli", "sample_consistency", "linear.sample_consistency"),
    ("helly.linear", "solve_affine", "exactq.solve_affine"),
    ("helly.cli", "minimalist_helly_check", "disks.minimalist_helly_check"),
    ("helly.cli", "intersect_region", "disks.intersect_region"),
    ("helly.disks", "intersect_region", "disks.intersect_region"),
    ("helly.disks", "triple_meet", "disks.triple_meet"),
    ("helly.disks", "ccw_in_span", "radicals.ccw_in_span"),
    ("helly.disks", "same_point", "radicals.same_point"),
    ("helly.cli", "separating_line", "separation.separating_line"),
    ("helly.cli", "render_disks", "svg.render_disks"),
)

# (module, attribute, counter name): calls that are only counted, because
# they are too many and too short for a span each.
COUNTED = (
    ("helly.disks", "pair_relation", "disks.pair_relation"),
    ("helly.separation", "pair_relation", "disks.pair_relation"),
    ("helly.disks", "_clip", "disks.clip"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def count(self, name: str, fn):
        def counted(*args):
            self.counts[name] += 1
            return fn(*args)

        return counted

    def install(self) -> None:
        """Wrap the layer boundaries of the imported helly modules."""
        for module, attr, name in SPANNED:
            mod = sys.modules[module]
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        for module, attr, name in COUNTED:
            mod = sys.modules[module]
            setattr(mod, attr, self.count(name, getattr(mod, attr)))
        parse = sys.modules["helly.instances"].parse_instance

        def parse_counted(text):
            self.counts["instances.parse_bytes"] += len(text.encode("utf-8"))
            return parse(text)

        sys.modules["helly.instances"].parse_instance = parse_counted

    def take(self) -> tuple[list, Counter]:
        """The spans and counts recorded since the last call, which are then
        cleared. Call only between top-level spans."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def summarize(spans: list, counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one round from its spans and counts."""
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    child = [0.0] * len(spans)
    region_in_check = 0.0
    for name, start, end, parent in spans:
        d = end - start
        total[name] += d
        calls[name] += 1
        if parent >= 0:
            child[parent] += d
            if name == "disks.intersect_region" and spans[parent][0] == "disks.minimalist_helly_check":
                region_in_check += d
    self_time: dict[str, float] = defaultdict(float)
    for (name, start, end, _), kids in zip(spans, child):
        self_time[name] += end - start - kids
    clips = counts["disks.clip"]
    return {
        "cli.main_calls": calls["cli.main"],
        "cli.main_s": total["cli.main"],
        "cli.self_s": self_time["cli.main"],
        "instances.parse_instance_calls": calls["instances.parse_instance"],
        "instances.parse_instance_s": total["instances.parse_instance"],
        "instances.parse_bytes": counts["instances.parse_bytes"],
        "instances.dumps_s": total["instances.dumps"],
        "linear.helly_certify_calls": calls["linear.helly_certify"],
        "linear.helly_certify_s": total["linear.helly_certify"],
        "linear.sample_consistency_s": total["linear.sample_consistency"],
        "linear.self_s": self_time["linear.helly_certify"] + self_time["linear.sample_consistency"],
        "exactq.solve_affine_calls": calls["exactq.solve_affine"],
        "exactq.solve_affine_s": total["exactq.solve_affine"],
        "disks.minimalist_helly_check_s": total["disks.minimalist_helly_check"],
        "disks.witness_s": total["disks.minimalist_helly_check"] - region_in_check,
        "disks.triple_meet_calls": calls["disks.triple_meet"],
        "disks.triple_meet_s": total["disks.triple_meet"],
        "disks.intersect_region_calls": calls["disks.intersect_region"],
        "disks.intersect_region_s": total["disks.intersect_region"],
        "disks.pair_relation_calls": counts["disks.pair_relation"],
        "radicals.ccw_in_span_calls": calls["radicals.ccw_in_span"],
        "radicals.ccw_in_span_s": total["radicals.ccw_in_span"],
        "radicals.same_point_calls": calls["radicals.same_point"],
        "radicals.same_point_s": total["radicals.same_point"],
        "radicals.ccw_in_span_per_disk": calls["radicals.ccw_in_span"] / clips if clips else 0.0,
        "separation.separating_line_calls": calls["separation.separating_line"],
        "separation.separating_line_s": total["separation.separating_line"],
        "svg.render_disks_s": total["svg.render_disks"],
    }


def write(path, rounds: list[list]) -> None:
    """One JSON array per span, ``[round, name, start, end, parent]``."""
    with open(path, "w", encoding="utf-8") as fh:
        for r, spans in enumerate(rounds):
            for name, start, end, parent in spans:
                fh.write(json.dumps([r, name, start, end, parent]) + "\n")
