"""Span recording by wrapping the program's calls from outside.

A :class:`SpanRecorder` replaces chosen functions and methods of the
program with wrappers that record one span per call: name, start, end,
parent span and the id of the experiment or operation the call belongs
to.  Spans live in compact typed arrays while the run goes on and are
written to one ``.npz`` file when it ends.  A layer's self time is the
summed duration of its spans minus the time their child spans cover.

Wrappers must be installed before the system under test is built: some
call sites bind methods at construction time (a switch keeps its
strategy's bound methods, a link channel keeps ``sim.post``).  An entry
point that does not exist in the program marks its layer unmeasured
instead of failing the run, so the benchmark keeps working when a
later change deletes an optional module or method.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Callable, Dict, List, Sequence, Set, Tuple

import numpy as np

#: (module, attribute path inside the module, span name).  An attribute
#: path with a dot names a method: ``"KarSwitch.receive"``.
EntryPoint = Tuple[str, str, str]


def resolve(module: str, path: str):
    """Return ``(owner, attribute name)`` for an entry point, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return owner, attr


def _original(module: str, path: str):
    """The function an entry point names, or None if there is none."""
    found = resolve(module, path)
    if found is None:
        return None
    owner, attr = found
    # On a class, only what the class itself defines: wrapping an
    # inherited method would wrap it for every sibling class too.
    fn = vars(owner).get(attr) if isinstance(owner, type) else getattr(
        owner, attr, None
    )
    if not callable(fn) or isinstance(fn, (staticmethod, classmethod)):
        return None
    return fn


def missing_layers(layers: Dict[str, Sequence[EntryPoint]]) -> List[str]:
    """Layers with an entry point the program does not have."""
    return sorted(
        layer for layer, entries in layers.items()
        if any(_original(module, path) is None
               for module, path, _ in entries)
    )


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("i")
        self.trace = array("i")
        self.current = -1
        self.trace_id = 0
        self._patches: List[Tuple[object, str, object]] = []
        self.unmeasured: Set[str] = set()

    def __len__(self) -> int:
        return len(self.name)

    def _name_id(self, span: str) -> int:
        nid = self._name_ids.get(span)
        if nid is None:
            nid = self._name_ids[span] = len(self.names)
            self.names.append(span)
        return nid

    def _wrapper(self, fn: Callable, nid: int) -> Callable:
        rec = self
        starts, ends = self.start, self.end
        names, parents, traces = self.name, self.parent, self.trace
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            parent = rec.current
            names.append(nid)
            parents.append(parent)
            traces.append(rec.trace_id)
            ends.append(0.0)
            rec.current = idx
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                rec.current = parent

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, layers: Dict[str, Sequence[EntryPoint]]) -> None:
        """Wrap every entry point of every layer.

        A layer with an entry point that cannot be found is reported
        in :attr:`unmeasured`; its other entry points are still wrapped.
        """
        for layer, entries in layers.items():
            for module, path, span in entries:
                original = _original(module, path)
                if original is None:
                    self.unmeasured.add(layer)
                    continue
                owner, attr = resolve(module, path)
                setattr(owner, attr, self._wrapper(original, self._name_id(span)))
                self._patches.append((owner, attr, original))

    def remove(self) -> None:
        """Put every original back (spans already recorded stay)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, entries, total and self seconds.

        ``total_s`` sums entries only, so a span nested in its own name
        is not counted twice.  Call it after the spans have closed.
        """
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "entries": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        n = len(self.name)
        if n == 0:
            return out
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        parents = parent[has_parent]
        own = dur - np.bincount(parents, weights=dur[has_parent], minlength=n)
        # An entry is a call from outside its own span name: a fallback
        # that calls the reference path is one entry, two calls.
        entry = np.ones(n, dtype=bool)
        entry[has_parent] = name[parents] != name[has_parent]
        del parents
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        entries = np.bincount(name[entry], minlength=k)
        total = np.bincount(name[entry], weights=dur[entry], minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        for i, span in enumerate(self.names):
            out[span] = {
                "calls": int(calls[i]),
                "entries": int(entries[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
            }
        return out

    def durations(self, span: str) -> np.ndarray:
        """Durations of every recorded span called *span*, in call order."""
        nid = self._name_ids.get(span)
        if nid is None or not len(self.name):
            return np.empty(0)
        name = np.frombuffer(self.name, dtype=np.uint16)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        sel = name == nid
        return end[sel] - start[sel]

    def write(self, path: str) -> None:
        """Write every span and the name table to *path* (``.npz``)."""
        np.savez(
            path,
            names=np.array(self.names, dtype=object).astype(str),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            trace=np.frombuffer(self.trace, dtype=np.int32),
        )


def load(path: str) -> "SpanRecorder":
    """Read a span file written by :meth:`SpanRecorder.write`."""
    rec = SpanRecorder()
    with np.load(path) as data:
        for span in data["names"]:
            rec._name_id(str(span))
        rec.start.frombytes(data["start"].astype(np.float64).tobytes())
        rec.end.frombytes(data["end"].astype(np.float64).tobytes())
        rec.name.frombytes(data["name"].astype(np.uint16).tobytes())
        rec.parent.frombytes(data["parent"].astype(np.int32).tobytes())
        rec.trace.frombytes(data["trace"].astype(np.int32).tobytes())
    return rec
