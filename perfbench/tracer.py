"""Outside-in tracing of beamfeedback's layers, with no edit to the package.

Each public function of the traced layer modules is wrapped, and the wrapper
is patched into every beamfeedback module whose global namespace holds that
function, because that global is what the callers look up.  The tracer keeps
spans (name, start, end, parent, run id) and per-function totals (calls,
busy time, self time, work counts) in memory and writes them as one JSON
document when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time

LAYERS = ("state_grid", "mdp", "codebook", "simulator")
MODULES = ("cli",) + LAYERS

# Calls of one name beyond this many count in the totals only, so
# per-event functions such as quantize_shape cost no span each.
SPAN_LIMIT = 1000


def _feedback_events(a, r):
    # post-warmup feedback slots; feedback_rate is their mean over the same slots
    return round(r.feedback_rate * (a["config"].slots - a["config"].warmup))


# Work counts taken from each call's arguments and result.
COUNTERS = {
    "state_grid.estimate_transition_model": lambda a, r: {"samples": a["sample_count"]},
    "mdp.policy_iteration_average": lambda a, r: {"iterations": r.iterations},
    "codebook.lloyd_codebook": lambda a, r: {"iterations": len(r.objective_history)},
    "simulator.simulate_policy": lambda a, r: {"slots": a["config"].slots,
                                               "feedback_events": _feedback_events(a, r)},
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.totals = {}
        self._stack = []  # [name, start, child_s, span_id]
        self._next_id = 0

    def _enter(self, name):
        self._next_id += 1
        frame = [name, 0.0, 0.0, self._next_id]
        self._stack.append(frame)
        frame[1] = time.perf_counter()

    def _exit(self):
        end = time.perf_counter()
        name, start, child_s, span_id = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        tot = self.totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        tot["calls"] += 1
        tot["s"] += dur
        tot["self_s"] += dur - child_s
        if tot["calls"] <= SPAN_LIMIT:
            self.spans.append({"id": span_id, "name": name,
                               "parent": self._stack[-1][3] if self._stack else None,
                               "start": start, "end": end, "run": self.run_id})

    @contextlib.contextmanager
    def span(self, name):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if counter is not None:
                tot = self.totals[name]
                for key, n in counter(sig.bind(*args, **kwargs).arguments, result).items():
                    tot[key] = tot.get(key, 0) + n
            return result

        return traced

    def install(self):
        """Patch a wrapper over every public layer function into its callers."""
        mods = [importlib.import_module(f"beamfeedback.{m}") for m in MODULES]
        for layer in LAYERS:
            module = importlib.import_module(f"beamfeedback.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for mod in mods:
                    if getattr(mod, attr, None) is fn:
                        setattr(mod, attr, wrapper)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run": self.run_id, "spans": self.spans,
                       "totals": self.totals}, handle)
