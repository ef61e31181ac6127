"""Spans around the public entry points of each convexgeom layer.

The package itself is not instrumented.  Instead `Tracer.install` rebinds,
in every loaded convexgeom module, each module attribute that refers to a
traced function, so that callers which imported the function by name
(`engine.interval_table`, `enumeration.canonical_form`, ...) go through the
wrapper.  Spans (name, start, end, parent) stay in memory until `write`.
"""

import sys
import time
from array import array
from collections import defaultdict
from functools import partial

# Spans beyond this many are counted but not stored; the per-name totals stay
# exact either way.
MAX_STORED_SPANS = 1_500_000


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.calls = defaultdict(int)
        self.time_s = defaultdict(float)   # inclusive, outermost activation only
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._active = defaultdict(int)
        self._stack = []                   # open frames: [span index, name, start, child seconds]
        self._names = []
        self._name_ids = {}
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("i")
        self.spans_total = 0
        self._patches = []
        self._wrappers = {}

    # --- spans ---------------------------------------------------------------

    def _enter(self, name):
        self._active[name] += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [-1, name, 0.0, 0.0]
        if self.spans_total < MAX_STORED_SPANS:
            frame[0] = len(self._span_name)
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self._names)
                self._names.append(name)
            self._span_name.append(nid)
            self._span_parent.append(parent)
            self._span_start.append(0.0)
            self._span_end.append(0.0)
        self.spans_total += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        name = frame[1]
        duration = end - frame[2]
        self.self_s[name] += duration - frame[3]
        self._active[name] -= 1
        if not self._active[name]:
            self.time_s[name] += duration
        if self._stack:
            self._stack[-1][3] += duration
        if frame[0] >= 0:
            self._span_start[frame[0]] = frame[2]
            self._span_end[frame[0]] = end

    # --- wrappers ------------------------------------------------------------

    def wrap(self, fn, label, on_result=None):
        """Span every call; label is a name or a function of the arguments.
        on_result(name, args, result) runs inside the span."""
        tracer = self

        def traced(*args, **kwargs):
            name = label(args) if callable(label) else label
            tracer.calls[name] += 1
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(name, args, result)
                return result
            finally:
                tracer._exit(frame)

        traced.__wrapped__ = fn
        return traced

    def wrap_cached(self, fn, label):
        """Like wrap, and also counts `<name>.builds`: the calls that missed
        fn's lru cache, or every call when fn has no cache."""
        info = getattr(fn, "cache_info", None)
        tracer = self

        def traced(*args, **kwargs):
            name = label(args) if callable(label) else label
            tracer.calls[name] += 1
            misses = info().misses if info else -1
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
                if not info or info().misses != misses:
                    tracer.counters[name + ".builds"] += 1

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, label):
        """A generator's work happens while it is resumed, so each resume is
        a span; creating the generator counts as the call."""
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[label] += 1
            inner = fn(*args, **kwargs)

            def resumes():
                while True:
                    frame = tracer._enter(label)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    yield item

            return resumes()

        traced.__wrapped__ = fn
        return traced

    def count(self, fn, counter):
        """Count calls without a span (for a counter tied to one call site)."""
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # --- rebinding -------------------------------------------------------------

    def install(self, fn, wrapper, modules=None):
        """Rebind every attribute that refers to fn in the given modules
        (default: every loaded convexgeom module) to wrapper."""
        self._wrappers.setdefault(fn, wrapper)
        if modules is None:
            modules = [m for k, m in sorted(sys.modules.items())
                       if k == "convexgeom" or k.startswith("convexgeom.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, fn))

    def rebind(self, module, attr, value):
        """Set one module attribute, restored by uninstall."""
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def substitute(self, fn):
        """The wrapper installed for fn (also inside a functools.partial), or fn."""
        if fn in self._wrappers:
            return self._wrappers[fn]
        if isinstance(fn, partial) and fn.func in self._wrappers:
            return partial(self._wrappers[fn.func], *fn.args, **fn.keywords)
        return fn

    def uninstall(self):
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()
        self._wrappers.clear()

    # --- output ------------------------------------------------------------------

    def write(self, path):
        """One tab-separated line per stored span; parent -1 marks a root.
        Returns the number of spans written."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id\tspan\tname\tstart\tend\tparent\n")
            names = self._names
            for i in range(len(self._span_end)):
                fh.write(f"{self.run_id}\t{i}\t{names[self._span_name[i]]}\t"
                         f"{self._span_start[i]:.9f}\t{self._span_end[i]:.9f}\t"
                         f"{self._span_parent[i]}\n")
        return len(self._span_end)
