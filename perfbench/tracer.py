"""Span tracer that measures each baroflow layer from outside.

`Tracer` wraps every public function and public method of the library's
modules at every binding site: a name that another module imported with
``from .grids import circle_interp`` is replaced as well as ``grids.circle_interp``
itself, because the wrapper is installed wherever the original object is bound.
Field construction is timed through ``ScalarField.__init__`` and
``VectorField.__init__``.  The originals are restored when the tracer closes.

Each call records one span: name, start, end, parent span and op id.  Spans
are kept in flat in-memory arrays while tracing and saved when the benchmark
ends.  A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("grids", "pressure", "geodesic", "jacobi", "burgers", "geometry",
          "disc", "torus", "cli")

# classes whose construction (including validation) is timed as a span
FIELD_CLASSES = ("ScalarField", "VectorField")

# wrapped names aggregated into one per-layer metric
DIFF_OPS = tuple(f"grids.{name}" for name in (
    "derivative", "grad", "div", "curl", "covariant_derivative", "directional", "inner"))
FIELDS = tuple(f"grids.{name}.__init__" for name in FIELD_CLASSES)


def _layer_targets(module):
    """(owner, attribute, span name) for each public callable of a layer."""
    layer = module.__name__.rsplit(".", 1)[1]
    targets = []
    for name, obj in sorted(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not name.startswith("_"):
            targets.append((module, name, f"{layer}.{name}"))
        elif inspect.isclass(obj) and not name.startswith("_"):
            for attr, member in sorted(vars(obj).items()):
                public = not attr.startswith("_") or (
                    attr == "__init__" and name in FIELD_CLASSES)
                if public and inspect.isfunction(member):
                    targets.append((obj, attr, f"{layer}.{name}.{attr}"))
    return targets


class Tracer:
    """Installs span-recording wrappers on the baroflow layers while open."""

    def __init__(self):
        from baroflow import errors

        self._error_type = errors.BaroflowError
        self.names: list[str] = []
        self._name_layer: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.op_id = array("q")
        self.phase_bytes = 0
        self.write_bytes = 0
        self.errors = dict.fromkeys(LAYERS, 0)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [sys.modules[f"baroflow.{layer}"] for layer in LAYERS]
        sites = [m for name, m in sys.modules.items()
                 if name == "baroflow" or name.startswith("baroflow.")]
        for module in modules:
            for owner, attr, span in _layer_targets(module):
                original = vars(owner)[attr]
                wrapper = self._wrap(original, span)
                self._set(owner, attr, wrapper)
                if owner is module:
                    for site in sites:
                        for bound, value in list(vars(site).items()):
                            if value is original and site is not module:
                                self._set(site, bound, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, span: str):
        nid = len(self.names)
        self.names.append(span)
        layer = span.split(".", 1)[0]
        self._name_layer.append(layer)
        stack, clock = self._stack, time.perf_counter
        start, end, parent = self.start, self.end, self.parent
        name_id, op_id = self.name_id, self.op_id
        error_type, layers = self._error_type, self._name_layer
        post = self._post_hook(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            up = stack[-1] if stack else -1
            parent.append(up)
            name_id.append(nid)
            op_id.append(self.op)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                # an error leaving the layer: the caller is outside it
                if up < 0 or layers[name_id[up]] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        return traced

    def _post_hook(self, span: str):
        if span == "grids.circle_interp":
            def count_phase(args, kwargs, result):
                n = len(args[0] if args else kwargs["values"])
                xq = args[1] if len(args) > 1 else kwargs["xq"]
                self.phase_bytes += 16 * np.size(xq) * (n // 2 + 1)
            return count_phase
        if span == "cli.write_outputs":
            def count_bytes(args, kwargs, result):
                self.write_bytes += sum(os.path.getsize(path) for path in result)
            return count_bytes
        return None

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op_id": np.frombuffer(self.op_id, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays())


class SpanSummary:
    """Per-name call counts and self times computed from recorded spans."""

    def __init__(self, names: list[str], spans: dict[str, np.ndarray]):
        self.names = names
        nid, parent = spans["name_id"], spans["parent"]
        dur = spans["end"] - spans["start"]
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        size = len(names)
        self.calls = np.bincount(nid, minlength=size)
        self.self_s = np.bincount(nid, weights=dur - child, minlength=size)
        self.root_s = float(np.sum(dur[~has_parent]))
        self._nid, self._parent = nid, parent

    def _ids(self, names) -> list[int]:
        return [self.names.index(n) for n in names]

    def count(self, *names: str) -> int:
        return int(sum(self.calls[i] for i in self._ids(names)))

    def self_time(self, *names: str) -> float:
        return float(sum(self.self_s[i] for i in self._ids(names)))

    def with_prefix(self, prefix: str) -> tuple[str, ...]:
        return tuple(n for n in self.names if n.startswith(prefix))

    def calls_under(self, name: str, parent_name: str) -> int:
        """Calls of `name` whose direct parent span is `parent_name`."""
        (i,), (p,) = self._ids([name]), self._ids([parent_name])
        mine = self._nid == i
        up = self._parent[mine]
        up = up[up >= 0]
        return int(np.sum(self._nid[up] == p))
