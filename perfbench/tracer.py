"""In-memory span tracer that wraps flipkit's public functions from outside.

install() replaces every public module-level function of the layer
modules (and the public methods of SweepTable and DeviceReport) with a
timing wrapper, in every flipkit namespace that holds a reference to it,
so that `from .numerics import eig_sym` call sites are traced too.
remove() puts the originals back.  The two private sweep-row functions
of `device` are wrapped as `device.sweep.row`, so rows run by the sweep
thread pool show up as children of their `device.sweep` span.

Spans are kept in memory with their thread id.  A span opened on a
thread with no open span of its own (a pool worker) takes the innermost
open span of the installing thread as its parent.  A span's self time is
its duration minus the part of it covered by its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "device", "transmon", "numerics", "coupling", "cpw", "loss",
          "network", "fieldsolve", "tables")
TRACED_METHODS = {"tables": ("SweepTable",), "device": ("DeviceReport",)}
ROW_FUNCTIONS = ("_thickness_row", "_loss_tangent_row")


class Span:
    __slots__ = ("name", "layer", "tid", "start", "end", "parent", "info",
                 "self_s")

    def __init__(self, name, layer, tid, start, parent):
        self.name = name
        self.layer = layer
        self.tid = tid
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None
        self.self_s = 0.0


def _cpb_key(signature):
    def key(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        return (a["ec"], a["ej"], a["ng"], a["cutoff"])
    return key


def _solve_info(args, kwargs, result):
    sec = result.section
    return (sec.nx, sec.ny, sec.hx, result.iterations)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._home_stack: list[Span] = []
        self._patches = []  # (owner, attribute, original, wrapper)
        self._build()

    # wrapping

    def _build(self):
        modules = {layer: importlib.import_module(f"flipkit.{layer}")
                   for layer in LAYERS}
        spaces = list(modules.values())
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                self._patch_everywhere(spaces, obj, f"{layer}.{attr}", layer)
            for cls_name in TRACED_METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in vars(cls).items():
                    if not attr.startswith("_") and inspect.isfunction(obj):
                        wrapper = self._wrap(obj, f"{layer}.{cls_name}.{attr}",
                                             layer)
                        self._patches.append((cls, attr, obj, wrapper))
        for attr in ROW_FUNCTIONS:
            fn = getattr(modules["device"], attr)
            self._patches.append((modules["device"], attr, fn,
                                  self._wrap(fn, "device.sweep.row",
                                             "device")))

    def _patch_everywhere(self, spaces, fn, name, layer):
        info = None
        if name == "transmon.cpb_spectrum":
            info = _cpb_key(inspect.signature(fn))
        elif name == "fieldsolve.solve_potential":
            info = _solve_info
        wrapper = self._wrap(fn, name, layer, info)
        for space in spaces:
            for attr, obj in vars(space).items():
                if obj is fn:
                    self._patches.append((space, attr, fn, wrapper))

    def _wrap(self, fn, name, layer, info=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        self._local.stack = self._home_stack
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # spans

    def _open(self, name, layer):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            home = self._home_stack
            parent = home[-1] if home else None
        span = Span(name, layer, threading.get_ident(), time.perf_counter(),
                    parent)
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._local.stack.pop()

    def compute_self_times(self):
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append(span)
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(id(span), ()),
                                key=lambda c: c.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            span.self_s = (span.end - span.start) - covered

    def write(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "i": i, "name": s.name, "tid": s.tid,
                    "start": s.start, "end": s.end,
                    "parent": index.get(id(s.parent)), "self_s": s.self_s,
                }) + "\n")
