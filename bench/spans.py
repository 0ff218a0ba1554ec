"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer: its name, start and end
(`time.perf_counter` seconds), the index of the span that was open when it
started, and the operation id it belongs to.  Counts are recorded next to
the spans.  Nothing is written until the run ends (`write_jsonl`).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_DISABLED = nullcontext()
# Name of the span around one whole operation; probes run outside it.
OPERATION = "operation"


class Tracer:
    """Records spans and counts when enabled; a disabled tracer records
    nothing, so the same code path can be timed with and without tracing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str, op: int):
        if not self.enabled:
            return _DISABLED
        return self._record(name, op)

    @contextmanager
    def _record(self, name: str, op: int):
        index = len(self.spans)
        record = {"id": index, "name": name, "op": op,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, op: int, value: int) -> None:
        """Record a count computed from array sizes at a layer boundary."""
        if self.enabled:
            self.counts.append({"name": name, "op": op, "value": int(value)})

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps({"kind": "span", **record}) + "\n")
            for record in self.counts:
                fh.write(json.dumps({"kind": "count", **record}) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so children of one parent never overlap and
    the covered time is the sum of their durations.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def per_op_totals(spans: list[dict], counts: list[dict]) -> dict[int, dict[str, float]]:
    """Per operation id: self time summed by span name, and counts summed
    by count name."""
    totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, self_times(spans)):
        totals[s["op"]][s["name"]] += own
    for c in counts:
        totals[c["op"]][c["name"]] += c["value"]
    return totals


def module_shares(spans: list[dict], root_name: str) -> dict[str, float]:
    """Share of the summed duration of all `root_name` spans that each
    module's spans beneath them cover by self time.  A module is the part
    of a span name before the first dot."""
    own = self_times(spans)
    roots = {s["id"] for s in spans if s["name"] == root_name}
    total = sum(s["end"] - s["start"] for s in spans if s["id"] in roots)
    shares: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        if s["parent"] in roots:
            shares[s["name"].split(".", 1)[0]] += t
    return {module: t / total for module, t in sorted(shares.items())} if total > 0 else {}
