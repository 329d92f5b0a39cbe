"""In-memory spans recorded around the benchmark's calls into refparse.

A span is a dict with: id, name, parent (id or None), run, start, end (both
`time.perf_counter` seconds) and any counts attached by the caller. Spans are
kept in memory and written once, when the run ends. A disabled tracer records
nothing, so the untraced run pays only for an empty context manager per
stage.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield counts
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            **counts,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """`fn` with every call inside a span called `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def named(self, name: str, within: dict | None = None) -> list[dict]:
        """Spans called `name`, optionally only those nested inside `within`."""
        out = [s for s in self.spans if s["name"] == name]
        if within is not None:
            out = [s for s in out if self._inside(s, within["id"])]
        return out

    def _inside(self, span: dict, ancestor: int) -> bool:
        parent = span["parent"]
        while parent is not None:
            if parent == ancestor:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def self_time(self, span: dict) -> float:
        """Duration of `span` minus the time its direct children cover."""
        children = [s for s in self.spans if s["parent"] == span["id"]]
        return duration(span) - sum(duration(c) for c in children)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


@contextlib.contextmanager
def patched(module, attr: str, make_wrapper):
    """Replace `module.attr` by `make_wrapper(original)` for the block.

    Yields False and patches nothing when the attribute does not exist, so a
    refactor that removes a hook makes its metrics absent, not wrong.
    """
    original = getattr(module, attr, None)
    if original is None:
        yield False
        return
    setattr(module, attr, make_wrapper(original))
    try:
        yield True
    finally:
        setattr(module, attr, original)


def span_cost(repeats: int = 20000) -> float:
    """Seconds one recorded span costs, measured on a scratch tracer."""
    scratch = Tracer("calibration")
    t0 = time.perf_counter()
    for _ in range(repeats):
        with scratch.span("x"):
            pass
    return (time.perf_counter() - t0) / repeats
