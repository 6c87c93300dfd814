"""Operation timing, failure counts and in-memory spans for the benchmark.

`Ops` times each operation (one CLI invocation or one public
diagnostic call), counts attempts and failures, and runs the output
check.  `Tracer` keeps one span per call that the benchmark's own code
makes into an illposed layer: name, start, end, parent, the round it
belongs to, and a work count (steps, points, rows, cells) taken from
the result.  Disabled, the tracer costs one attribute test per call.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

from oracles import NoAnswer

NAME, START, END, PARENT, ROUND, WORK = range(6)


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.round = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.round, None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def call(self, name: str, fn, *args, work=None):
        """fn(*args) inside a span; `work(result)` is the span's work count."""
        if not self.enabled:
            return fn(*args)
        index = self.open(name)
        try:
            result = fn(*args)
        finally:
            self.close(index)
        if work is not None:
            self.spans[index][WORK] = work(result)
        return result

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[NAME] == name]

    def self_ns(self) -> list[int]:
        """Each span's duration less the time its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path) -> None:
        own = self.self_ns()
        summary: dict[str, dict[str, float]] = {}
        for s, self_time in zip(self.spans, own):
            entry = summary.setdefault(s[NAME], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["count"] += 1
            entry["total_ms"] += (s[END] - s[START]) / 1e6
            entry["self_ms"] += self_time / 1e6
        payload = {
            "fields": ["name", "start_ns", "end_ns", "parent", "round", "work"],
            "spans": self.spans,
            "summary": summary,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class Ops:
    """One closed-loop client: runs operations one after another."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.round_sums: list[float] = []
        self._round_sum = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: Counter[str] = Counter()
        self.wrong: Counter[str] = Counter()

    def op(self, name: str, thunk, check) -> None:
        """Time thunk(), then check its output.

        An operation fails when the program raises or gives no valid
        answer; a valid answer that disagrees with its oracle is wrong.
        """
        self.attempted += 1
        tracer = self.tracer
        index = tracer.open("op." + name) if tracer.enabled else -1
        error = None
        start = time.perf_counter()
        try:
            output = thunk()
        except Exception as err:  # any exception from the program is a failed operation
            error = f"{name}: {type(err).__name__}: {err}"
        elapsed = time.perf_counter() - start
        if index >= 0:
            tracer.close(index)
        self.latencies.append(elapsed)
        self._round_sum += elapsed
        if error is None:
            try:
                check(output)
            except NoAnswer as err:
                error = f"{name}: {err}"
            except Exception as err:  # Wrong, or output too malformed to check
                self.wrong[f"{name}: {type(err).__name__}: {err}"] += 1
        if error is not None:
            self.failed += 1
            self.failures[error] += 1

    def end_round(self) -> None:
        self.round_sums.append(self._round_sum)
        self._round_sum = 0.0
