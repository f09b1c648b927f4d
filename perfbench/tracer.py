"""In-memory spans recorded by the benchmark around calls into the
package's public functions; written out once, when the run ends."""

from __future__ import annotations

import contextlib
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record one span; the body may add counts or detail to the
        yielded dict (e.g. ``Dataset.stats()`` text under "stats")."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @staticmethod
    def dur(rec: dict) -> float:
        return rec["end"] - rec["start"]

    def dump(self) -> list[dict]:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        return [
            {**s, "start": s["start"] - t0, "end": s["end"] - t0, "dur": s["end"] - s["start"]}
            for s in self.spans
        ]
