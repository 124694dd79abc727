"""Span tracing around unruhsim's public functions, from outside the program.

`Tracer.install` replaces each target function at every place it is bound:
the defining module, every unruhsim module that imported it by name, and
the class for methods.  `uninstall` puts the originals back, so untraced
passes run the unmodified program.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    attrs: dict = field(default_factory=dict)


# A hook maps (names of the open ancestor spans, call args, result) to span
# attributes, so counts are taken where the work happens.
Hook = Callable[[tuple[str, ...], tuple, object], dict]


@dataclass(frozen=True)
class Target:
    name: str  # "<module>.<function>" or "<module>.<Class>.<method>"
    owner: object  # module or class that defines it
    attr: str
    hook: Hook | None = None


class Tracer:
    def __init__(self, targets: list[Target], package: str) -> None:
        self.targets = targets
        self.package = package
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.pass_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (pass roots, verify checks)."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if target.hook is not None:
                ancestors = tuple(self.spans[i].name for i in self._stack)
                self.spans[idx].attrs = target.hook(ancestors, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sys.modules.items()
            if name == self.package or name.startswith(self.package + ".")
        ]
        for target in self.targets:
            raw = vars(target.owner)[target.attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(target, raw.__func__))
            else:
                wrapped = self._wrap(target, raw)
            self._patch(target.owner, target.attr, wrapped)
            if isinstance(target.owner, type):
                continue  # methods are bound only on their class
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is raw and mod is not target.owner:
                        self._patch(mod, attr, wrapped)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        out = []
        for idx, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for start, end in sorted(children.get(idx, [])):
                start, end = max(start, reach), min(end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span.end - span.start - covered)
        return out

    def write(self, path, header: dict) -> None:
        """Spans as JSON lines, after one header line; times in seconds."""
        self_s = self.self_times()
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for idx, (span, own) in enumerate(zip(self.spans, self_s)):
                row = {
                    "id": idx,
                    "parent": span.parent,
                    "pass": span.pass_id,
                    "name": span.name,
                    "start": span.start - t0,
                    "end": span.end - t0,
                    "self": own,
                    **span.attrs,
                }
                fh.write(json.dumps(row) + "\n")
