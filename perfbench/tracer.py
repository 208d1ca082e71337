"""Span tracing for the traced benchmark run.

Wraps the public functions of the layer modules at every place the
library binds them (the defining module, the modules that import them by
name, and the package namespace), so calls between layers are recorded
without changing the library.  Spans are kept in memory as
[name, start, end, parent, op] and written out when the run ends; the
per-layer metrics are aggregated from them.

Nothing here is imported by an untraced run.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LAYER_MODULES = ("linmap", "hopf", "actions", "brace", "obt", "matched",
                 "skewbraces")


def _hopf_key(h) -> tuple:
    """Content of a Hopf algebra's structure maps, for counting distinct inputs."""
    return (h.field.name,) + tuple(
        (m.shape(), frozenset(m.items()))
        for m in (h.unit, h.product, h.counit, h.coproduct, h.antipode))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._hopf_inputs: set = set()
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1  # -1 is set-up; ops are numbered from 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A root span around benchmark phases ("setup", "op")."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _observe(self, name: str, args, result) -> None:
        # extra counters, taken after the span is closed
        if name in ("linmap.compose", "linmap.tensor"):
            self.counts[name + ".nnz_out"] += result.support_size()
        elif name == "linmap.equation_entry":
            if not result.passed:
                self.counts[name + ".failed"] += 1
        elif name == "hopf.check_hopf":
            self._hopf_inputs.add(_hopf_key(args[0]))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._observe(name, args, result)
            return result
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of a layer function in the loaded library."""
        wrappers = {}
        for short in LAYER_MODULES:
            mod = sys.modules.get(f"braceforge.{short}")
            if mod is None:  # a layer module the library no longer has
                continue
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "braceforge" and not modname.startswith("braceforge."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls and self time per function, plus the extra counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        out: dict[str, float] = {}
        for name in calls:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        out.update(self.counts)
        out["hopf.check_hopf.distinct"] = len(self._hopf_inputs)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
