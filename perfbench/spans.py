"""Spans around calls into latinmagic's public functions, kept in memory.

`instrument` swaps each traced function for a wrapper in every latinmagic
module that binds it, so calls between modules are seen too, and puts the
originals back on exit.  A span records its name, start, end and the span
open when it began (its parent).  Self time is a span's duration minus the
durations of its child spans.
"""
from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter

# module -> public functions traced as plain calls
TRACED = {
    "construct": ("family_figure", "diagonal_constraints", "build_square"),
    "model": ("evaluate",),
    "verify": ("verify_magic",),
    "enumeration": ("canonicalize", "census", "oracle_search"),
    "cli": ("parse_square", "render"),
}
# module -> public generator functions; each resumption is one span
TRACED_GENERATORS = {"construct": ("solve_assignments",)}


class Tracer:
    """Spans in four parallel lists, plus counters taken at the same calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.open: list[int] = []
        self.counts: Counter = Counter()
        self.first_yield_ns: list[int] = []
        self.oracle_result = (0, set())

    def begin(self, name: str) -> int:
        index = len(self.starts)
        self.names.append(name)
        self.parents.append(self.open[-1] if self.open else -1)
        self.ends.append(0)
        self.open.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self.open.pop()

    def call(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            self._observe(name, args, result)
            return result

        return traced

    def generator(self, name: str, fn):
        def traced(*args, **kwargs):
            return self._resume(name, fn(*args, **kwargs))

        return traced

    def _resume(self, name: str, gen):
        first = True
        while True:
            index = self.begin(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.end(index)
            if first:
                self.first_yield_ns.append(self.ends[index] - self.starts[index])
                first = False
            self.counts[name + ".yielded"] += 1
            yield item

    def _observe(self, name: str, args, result) -> None:
        if name == "verify.verify_magic":
            self.counts["verify.verdict." + result.verdict.value.lower()] += 1
        elif name == "enumeration.oracle_search" and args[0] >= self.oracle_result[0]:
            self.oracle_result = (args[0], result)

    def stats(self) -> dict[str, tuple[int, int, int, int]]:
        """name -> (calls, inclusive ns, self ns, ns covered by child spans)."""
        child = [0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict[str, list[int]] = {}
        for i, name in enumerate(self.names):
            entry = out.setdefault(name, [0, 0, 0, 0])
            duration = self.ends[i] - self.starts[i]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child[i]
            entry[3] += child[i]
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path) -> None:
        """All spans as tab-separated name, start ns, end ns, parent index."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                handle.write("\t".join(map(str, row)) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace the public functions listed above while the block runs."""
    modules = [m for name, m in sys.modules.items() if name == "latinmagic" or name.startswith("latinmagic.")]
    swaps = []
    for table, wrap in ((TRACED, tracer.call), (TRACED_GENERATORS, tracer.generator)):
        for module, functions in table.items():
            for function in functions:
                original = getattr(sys.modules["latinmagic." + module], function)
                wrapper = wrap(f"{module}.{function}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            swaps.append((m, attr, original))
                            setattr(m, attr, wrapper)
    try:
        yield tracer
    finally:
        for m, attr, original in swaps:
            setattr(m, attr, original)
