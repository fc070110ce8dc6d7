"""Layer spans recorded from outside the program, and their summary.

The tracer wraps every public function of each layer module and installs
the wrapper at every module attribute of the package that binds the
function, including ``from .x import f`` copies, so calls between layers
pass through it.  Spans (name, start, end, parent) and per-call results of
interest are kept in memory and written out when the run ends.

Self time of a layer is the time it is the innermost traced layer: span
time minus child spans, summed over its spans.  Self time of a function is
the time its layer's code runs while the function is active: its span time
minus child spans of other layers.  Public functions of the same layer that
it calls count toward it as well as toward themselves, so
``optimizers.mmse_delta_search`` includes its ridge search and
``power_model.sum_power`` its geometry rebuild; function figures overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("arrays", "channel", "config", "power_model", "optimizers",
          "estimation", "experiments", "cli")
PACKAGE = "irstealth"


def _nbytes(obj) -> int:
    fields = vars(obj).values() if hasattr(obj, "__dict__") else ()
    return sum(getattr(v, "nbytes", 0) for v in fields if hasattr(v, "shape"))


def _ridge_candidates(result) -> int:
    return int(result[1].iterations)


# Results read off selected calls: span name -> (record key, extractor).
RESULT_PROBES = {
    "optimizers.solve_pgd": ("pgd_iterations", lambda r: int(r.iterations)),
    "optimizers.build_instance": ("instance_bytes", _nbytes),
    "optimizers.mmse_delta_search": ("ridge_candidates", _ridge_candidates),
    "optimizers.ridge_delta_search": ("ridge_candidates", _ridge_candidates),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.results: list[tuple] = []   # (span index, record key, value)
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, results = self.spans, self._stack, self.results
        probe = RESULT_PROBES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if probe is not None:
                try:
                    results.append((idx, probe[0], probe[1](result)))
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed return type leaves the probe empty
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap the layers' public functions; returns the wrapped span names."""
        wrappers, names = {}, []
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                    names.append(f"{layer}.{attr}")
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        return names


def summarize(spans, results) -> dict:
    """Per-layer and per-function call counts, self times and probe values."""
    n = len(spans)
    child_time = [0.0] * n
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layer_of = [s[0].split(".", 1)[0] for s in spans]

    def chain(i):
        """Span i and its ancestors up to the first span of another layer."""
        layer = layer_of[i]
        while i >= 0 and layer_of[i] == layer:
            yield i
            i = spans[i][3]

    calls = defaultdict(int)
    self_s = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        own = end - start - child_time[i]
        calls[name] += 1
        calls[layer_of[i]] += 1
        self_s[layer_of[i]] += own
        for fn in {spans[j][0] for j in chain(i)}:
            self_s[fn] += own
    recorded = defaultdict(set)
    for i, key, _ in results:
        recorded[i].add(key)
    probes = defaultdict(list)
    for i, key, value in results:
        # A nested call of the same layer reports what its caller reports.
        if not any(key in recorded[j] for j in chain(i) if j != i):
            probes[key].append(value)
    return {"calls": dict(calls), "self_s": dict(self_s), "probes": dict(probes)}
