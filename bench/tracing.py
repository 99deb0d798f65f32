"""Outside-in tracing of omd: spans around the functions each module exposes.

Nothing under src/omd is edited. Each function is wrapped where its
callers look it up: ``omd.compose`` calls the ``verify`` and
``build_room`` it imported, so the wrapper replaces those names in
``omd.compose``; ``DesignArray.place`` and ``embed`` are replaced on the
class. A name a later refactor removes is skipped and reports zero calls.

Spans are kept in memory as (name, start, end, parent, op) and written
out at the end. A span's self time is its duration minus the durations
of its direct children; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name): every place a caller looks the name up
FUNCTIONS = [
    ("cli", "construct", "compose.construct"),
    ("cli", "dumps_design", "formats.dumps_design"),
    ("cli", "design_from_dict", "formats.design_from_dict"),
    ("cli", "verify", "verify.verify"),
    ("cli", "verify_transversal", "verify.verify_transversal"),
    ("compose", "compose", "compose.compose"),
    ("compose", "check_ingredients", "compose.check_ingredients"),
    ("compose", "build_room", "room.build_room"),
    ("compose", "find_transversal", "room.find_transversal"),
    ("compose", "verify", "verify.verify"),
    ("compose", "verify_transversal", "verify.verify_transversal"),
    ("compose", "build_2k", "bases.build"),
    ("compose", "build_4k", "bases.build"),
    ("compose", "build_6k", "bases.build"),
    ("compose", "build_m1k", "bases.build"),
    ("room", "find_transversal", "room.find_transversal"),
    ("room", "verify_transversal", "verify.verify_transversal"),
    ("bases", "ofact_complete", "factorizations.ofact"),
    ("bases", "ofact_bipartite", "factorizations.ofact"),
]
# (module, class, method, span name)
METHODS = [
    ("core", "DesignArray", "place", "core.place"),
    ("core", "DesignArray", "embed", "core.embed"),
]

# per-layer metrics: (name, unit, better); BENCHMARK.json lists the same.
# Each comment names the end-to-end metric the group should move, and where.
LAYER_METRICS = [
    # starter search and room_search: ops_per_s and op_tail_s on room-large,
    # ops_per_s on sweep; nothing on verify-files
    ("room.build_room.self_s", "s", "lower"),
    ("room.build_room.calls", "count", "lower"),
    # transversal_ratio everywhere; ops_per_s on product-large
    ("room.find_transversal.self_s", "s", "lower"),
    ("room.find_transversal.calls", "count", "lower"),
    ("room.find_transversal.found_ratio", "ratio", "higher"),
    # array assembly, quadratic today: cells_per_s on room-large (place) and
    # sweep and product-large (embed); nothing on verify-files
    ("core.place.self_s", "s", "lower"),
    ("core.place.calls", "count", "lower"),
    ("core.embed.self_s", "s", "lower"),
    ("core.embed.calls", "count", "lower"),
    ("core.cells_copied", "cells", "lower"),
    # the product path: ops_per_s on sweep and product-large
    ("compose.construct.self_s", "s", "lower"),
    ("compose.compose.self_s", "s", "lower"),
    ("compose.check_ingredients.total_s", "s", "lower"),
    # ops_per_s on sweep and product-large (several calls per design), and
    # ops_per_s and peak_rss_mb on verify-files
    ("verify.verify.self_s", "s", "lower"),
    ("verify.verify.calls", "count", "lower"),
    ("verify.verify.calls_per_design", "calls/design", "lower"),
    ("verify.verify.cells_checked", "cells", "lower"),
    ("verify.verify_transversal.self_s", "s", "lower"),
    ("verify.verify_transversal.calls", "count", "lower"),
    # direct builders: ops_per_s on sweep
    ("bases.build.self_s", "s", "lower"),
    ("bases.build.calls", "count", "lower"),
    ("factorizations.ofact.self_s", "s", "lower"),
    ("factorizations.ofact.calls", "count", "lower"),
    # dumps: ops_per_s on room-large and product-large; parse: verify-files
    ("formats.dumps_design.self_s", "s", "lower"),
    ("formats.design_from_dict.self_s", "s", "lower"),
    ("formats.bytes_out", "bytes", "lower"),
    ("formats.bytes_in", "bytes", "lower"),
    # JSON parse, meta, printing and file I/O: verify-files and sweep
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("fail_ratio", "ratio", "lower"),
]


class Tracer:
    """Spans and counters recorded by wrappers around omd's functions."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self.op_names: list[str] = []
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, name: str, fn, before=None, after=None):
        """fn inside a span; before sees the arguments, after the result."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if after is not None:
                after(result)
            return result

        return traced

    def begin_op(self, name: str) -> None:
        """Tag the spans that follow with a new op id."""
        self.op = len(self.op_names)
        self.op_names.append(name)

    def _hooks(self, name: str):
        counts = self.counts

        def copied(args):
            counts["core.cells_copied"] += len(args[0].cells)

        def checked(args):
            counts["verify.verify.cells_checked"] += len(args[0].cells)

        def found(result):
            counts["room.find_transversal.found"] += result is not None

        def dumped(result):
            counts["formats.bytes_out"] += len(result)

        return {
            "core.place": (copied, None),
            "core.embed": (copied, None),
            "verify.verify": (checked, None),
            "room.find_transversal": (None, found),
            "formats.dumps_design": (None, dumped),
        }.get(name, (None, None))

    def install(self, mods: dict) -> None:
        """Replace every traced name in the loaded omd modules."""
        targets = [(mods[m], attr, name) for m, attr, name in FUNCTIONS]
        targets += [
            (getattr(mods[m], cls, None), meth, name) for m, cls, meth, name in METHODS
        ]
        for owner, attr, name in targets:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            before, after = self._hooks(name)
            setattr(owner, attr, self.wrap(name, original, before, after))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, list]:
        """Span name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = stats[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[index]
        return stats

    def layer_values(self, passes: int, designs: int) -> dict[str, float]:
        """Per-module metrics per traced pass; designs is per pass too."""
        stats = self.summary()

        def get(span, field):
            return stats[span][field] / passes if span in stats else 0.0

        values = {}
        for span in (
            "room.build_room",
            "room.find_transversal",
            "core.place",
            "core.embed",
            "verify.verify",
            "verify.verify_transversal",
            "bases.build",
            "factorizations.ofact",
        ):
            values[f"{span}.self_s"] = get(span, 2)
            values[f"{span}.calls"] = get(span, 0)
        for span in (
            "compose.construct",
            "compose.compose",
            "formats.dumps_design",
            "formats.design_from_dict",
            "cli.main",
        ):
            values[f"{span}.self_s"] = get(span, 2)
        values["compose.check_ingredients.total_s"] = get("compose.check_ingredients", 1)
        calls = values["room.find_transversal.calls"]
        found = self.counts["room.find_transversal.found"] / passes
        values["room.find_transversal.found_ratio"] = found / calls if calls else 0.0
        values["verify.verify.calls_per_design"] = (
            values["verify.verify.calls"] / designs if designs else 0.0
        )
        for counter in (
            "core.cells_copied",
            "verify.verify.cells_checked",
            "formats.bytes_out",
            "formats.bytes_in",
        ):
            values[counter] = self.counts[counter] / passes
        return values

    def write(self, path) -> None:
        """Spans as JSON lines, after a header line naming the ops."""
        header = {"fields": ["name", "start", "end", "parent", "op"], "ops": self.op_names}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
