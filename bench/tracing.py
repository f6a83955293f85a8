"""In-memory spans and counters for the traced benchmark run.

Spans wrap the benchmark's own calls into the package's layers; nothing
inside the package is instrumented.  A span records its name, start, end,
the span that caused it and the item it belongs to; spans are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every hook is a no-op."""

    enabled = False

    def span(self, name: str):
        return _NULL

    def count(self, name: str, value: float) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass


class Tracer:
    """Records spans and counters, grouped by pass.

    ``allow`` restricts recording to names that start with one of the given
    layer prefixes; ``restricted`` returns a view that shares storage.
    """

    enabled = True

    def __init__(self, allow: tuple[str, ...] | None = None, _store=None) -> None:
        self.allow = allow
        self._store = _store if _store is not None else {
            "spans": [], "stack": [], "counts": defaultdict(float),
            "peaks": defaultdict(float), "pass": 0, "item": None,
        }

    def restricted(self, prefixes: tuple[str, ...]) -> "Tracer":
        return Tracer(allow=prefixes, _store=self._store)

    def _allowed(self, name: str) -> bool:
        return self.allow is None or name.startswith(self.allow)

    @property
    def spans(self) -> list[dict]:
        return self._store["spans"]

    def begin_pass(self, index: int) -> None:
        self._store["pass"] = index

    def begin_item(self, index: int | None) -> None:
        self._store["item"] = index

    @contextlib.contextmanager
    def span(self, name: str):
        if not self._allowed(name):
            yield
            return
        store = self._store
        stack = store["stack"]
        span_id = len(store["spans"]) + len(stack)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            store["spans"].append({
                "id": span_id, "parent": parent, "name": name,
                "pass": store["pass"], "item": store["item"],
                "start": start, "end": end,
            })

    def count(self, name: str, value: float) -> None:
        if self._allowed(name):
            self._store["counts"][(self._store["pass"], name)] += value

    def peak(self, name: str, value: float) -> None:
        if self._allowed(name):
            key = (self._store["pass"], name)
            self._store["peaks"][key] = max(self._store["peaks"][key], value)

    def span_seconds(self, pass_index: int) -> dict[str, float]:
        """Total span duration per name within one pass."""
        out: dict[str, float] = defaultdict(float)
        for s in self._store["spans"]:
            if s["pass"] == pass_index:
                out[s["name"]] += s["end"] - s["start"]
        return out

    def counters(self, pass_index: int) -> dict[str, float]:
        out = {n: v for (p, n), v in self._store["counts"].items() if p == pass_index}
        out.update(
            {n: v for (p, n), v in self._store["peaks"].items() if p == pass_index}
        )
        return out
