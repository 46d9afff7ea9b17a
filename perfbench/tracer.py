"""Span tracing of entroframe's layers, installed from outside the package.

The tracer replaces every public function of the layer modules, at every
module attribute that binds it (``marginal`` is bound in ``density``,
``inequality``, ``semigroup`` and the package itself), with a wrapper that
records a span while a request is open.  Spans live in memory as
``(name, start, end, parent, request)`` and are written out when the run
ends.  The wrappers pass arguments and results through untouched, so traced
and untraced runs produce bit-identical reports.
"""

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("frames", "density", "quadrature", "functional", "semigroup",
          "inequality", "cli")

# Root span of every request: time spent in the benchmark's own code.
BENCH = "bench"

BYTES_PER_FLOAT = 8

COUNTERS = ("quadrature.sample_coefficients.points",
            "quadrature.sample_coefficients.bytes_computed",
            "quadrature.spline_coefficients.elements")


def self_times(spans):
    """Self time of each span: its duration minus its children's durations.

    ``spans`` is a sequence of (name, start, end, parent, request) with
    ``parent`` the index of the enclosing span or None.  The spans come from
    one call stack in one thread, so children are disjoint and lie inside
    their parent.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


class Tracer:
    """Records spans and argument-size counters for the entroframe layers."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._request = None
        self._patches = []
        self._counters = {}
        self._marginal_keys = []
        self._alive = []
        self._names = ()
        self._hooks = {
            "quadrature.sample_coefficients": self._count_points,
            "quadrature.spline_coefficients": self._count_elements,
            "density.marginal": self._note_marginal,
        }

    # --- installation ----------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer and GaussianDensity.to_grid."""
        from entroframe import density, frames

        # the unwrapped function, so keying a marginal records no span
        self._canonical_angle = frames.canonical_angle
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"entroframe.{layer}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    originals[id(value)] = (value, f"{layer}.{attr}")
        wrapped = {key: self._wrap(fn, name)
                   for key, (fn, name) in originals.items()}
        self._names = tuple(name for _, name in originals.values()) \
            + ("density.to_grid",)
        # every binding, including the benchmark's own ``from entroframe import``
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patch(module, attr, wrapped[id(value)])
        to_grid = density.GaussianDensity.to_grid
        self._patch(density.GaussianDensity, "to_grid",
                    self._wrap(to_grid, "density.to_grid"))

    def uninstall(self):
        """Restore every binding and release the densities kept for keying."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._alive.clear()

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name):
        tracer = self
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._request is None:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs)
            return tracer._span(name, fn, args, kwargs)
        return traced

    # --- spans -----------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                self._request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def request(self, request_id, fn):
        """Run fn() as one request under a root span owned by the benchmark."""
        self._request = request_id
        try:
            return self._span(BENCH, fn, (), {})
        finally:
            self._request = None

    def dump(self, path, pass_index):
        """Append the recorded spans to a JSON-lines file."""
        with open(path, "a") as fh:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"pass": pass_index, "span": index,
                                     "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}))
                fh.write("\n")

    # --- counters from argument sizes -------------------------------------

    def _add(self, key, amount):
        self._counters[key] = self._counters.get(key, 0) + amount

    def _count_points(self, args, kwargs):
        indices = args[1] if len(args) > 1 else kwargs["indices"]
        points = int(np.size(indices[0]))
        self._add("quadrature.sample_coefficients.points", points)
        # index arrays read plus one output value per point
        self._add("quadrature.sample_coefficients.bytes_computed",
                  points * (len(indices) + 1) * BYTES_PER_FLOAT)

    def _count_elements(self, args, kwargs):
        values = args[0] if args else kwargs["values"]
        self._add("quadrature.spline_coefficients.elements", int(np.size(values)))

    def _note_marginal(self, args, kwargs):
        f = args[0] if args else kwargs["f"]
        direction = args[1] if len(args) > 1 else kwargs["direction"]
        theta = getattr(direction, "theta", direction)
        # keep f alive for the pass so its id cannot be reused
        self._alive.append(f)
        self._marginal_keys.append((id(f), self._canonical_angle(theta)))

    # --- per-layer metrics -----------------------------------------------

    def metrics(self):
        """Per-layer numbers for the recorded spans.

        Calls and self time of every wrapped function, called or not, and of
        all ``check_*`` functions together; self time of each layer and of
        the benchmark's own request code; the argument-size counters.
        ``BENCHMARK.json`` names the ones a run reports.
        """
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS + (BENCH,)}
        for name in self._names + ("inequality.check",):
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for (name, _, _, _, _), own in zip(self.spans, self_times(self.spans)):
            out[f"{name.split('.', 1)[0]}.self_s"] += own
            if name == BENCH:
                continue
            groups = [name]
            if name.startswith("inequality.check_"):
                groups.append("inequality.check")
            for group in groups:
                out[f"{group}.calls"] += 1
                out[f"{group}.self_s"] += own
        for key in COUNTERS:
            out[key] = self._counters.get(key, 0)
        keys = self._marginal_keys
        out["density.marginal.distinct_ratio"] = (
            len(set(keys)) / len(keys) if keys else 0.0)
        out["trace.spans"] = len(self.spans)
        return out
