"""Per-module spans and counters for one certified pass, recorded from
outside the program.

`Tracer.installed()` replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent). A name is
wrapped in each module that binds it, because callers look names up in
their own module: `stabilizer` does `from .maps import eval_f`, so wrapping
`maps.eval_f` alone would miss every orbit step. A span is charged to the
module that defines the function. `algebra.Element.__post_init__` is
wrapped to count elements, and `stabilizer.stabilize_point` to count
orbit steps, converged orbits and unique stabilize keys.

Spans are kept in flat arrays while a pass runs; `pass_metrics()` turns
them into per-module self times and call counts.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = ("cli", "verifier", "stabilizer", "maps", "algebra")
VERIFIER_STAGES = ("scan_hypotheses", "verify_bound", "verify_involution_laws",
                   "verify_uniqueness", "verify_cstar")


class Tracer:
    def __init__(self, package):
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.names: list[str] = []     # span name table, "layer.function"
        self.name_layer: list[int] = []
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack = [-1]
        self.elements = 0
        self.stabilize_keys: set = set()
        self.orbit_steps = 0
        self.converged = 0

    # ------------------------------------------------------------ wrapping

    def _name_id(self, layer: str, func: str) -> int:
        name = f"{layer}.{func}"
        if name not in self.names:
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
        return self.names.index(name)

    def _span(self, fn, name_id: int, on_return=None):
        clock = time.perf_counter
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def _on_stabilize(self, signature):
        def record(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            map_key = a["f"]
            try:
                hash(map_key)
            except TypeError:  # a twisted adjoint holds an array
                map_key = id(map_key)
            self.stabilize_keys.add(
                (map_key, a["x"].data.tobytes(), a["max_n"], a["tol_rel"]))
            self.orbit_steps += result.n_used
            self.converged += result.converged
        return record

    @contextlib.contextmanager
    def installed(self):
        """Trace the traced modules for the duration of the block."""
        self.reset()
        patches = []
        wrappers = {}
        for module in self.modules.values():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                layer = fn.__module__.rpartition(".")[2]
                if layer not in LAYERS:
                    continue
                if fn not in wrappers:
                    on_return = None
                    if layer == "stabilizer" and attr == "stabilize_point":
                        on_return = self._on_stabilize(inspect.signature(fn))
                    wrappers[fn] = self._span(fn, self._name_id(layer, attr), on_return)
                patches.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])

        element = self.modules["algebra"].Element
        post_init = element.__post_init__

        def counting_post_init(obj):
            self.elements += 1
            post_init(obj)

        patches.append((element, "__post_init__", post_init))
        element.__post_init__ = counting_post_init
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # ------------------------------------------------------------- metrics

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
        }

    def pass_metrics(self) -> dict[str, float]:
        """Per-module self times, stage times and counts of the pass just
        traced. Self time is a span's duration minus its children's."""
        sp = self.spans()
        n_names = len(self.names)
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        layer = np.asarray(self.name_layer, dtype=np.int64)[sp["name"]]
        layer_self = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
        inclusive = np.bincount(sp["name"], weights=dur, minlength=n_names)
        calls = np.bincount(sp["name"], minlength=n_names)

        def incl(name: str) -> float:
            return float(inclusive[self.names.index(name)]) if name in self.names else 0.0

        def count(name: str) -> int:
            return int(calls[self.names.index(name)]) if name in self.names else 0

        m: dict[str, float] = {}
        for k, name in enumerate(LAYERS):
            m[f"{name}.self_s"] = float(layer_self[k])
        norm_calls = count("algebra.norm")
        m["algebra.norm.calls"] = norm_calls
        m["algebra.norm_us"] = 1e6 * incl("algebra.norm") / max(norm_calls, 1)
        m["algebra.element.count"] = self.elements
        m["maps.eval_f.calls"] = count("maps.eval_f")
        m["maps.eval_perturbation.calls"] = count("maps.eval_perturbation")
        stab_calls = count("stabilizer.stabilize_point")
        m["stabilizer.stabilize_point.calls"] = stab_calls
        m["stabilizer.stabilize_point.unique"] = len(self.stabilize_keys)
        m["stabilizer.stabilize_point.unique_frac"] = (
            len(self.stabilize_keys) / max(stab_calls, 1))
        m["stabilizer.orbit_steps"] = self.orbit_steps
        m["stabilizer.converged_frac"] = self.converged / max(stab_calls, 1)
        stages = 0.0
        for stage in VERIFIER_STAGES:
            m[f"verifier.{stage}_s"] = incl(f"verifier.{stage}")
            stages += m[f"verifier.{stage}_s"]
        m["cli.traces_s"] = incl("cli.run_pipeline") - stages
        m["cli.write_s"] = incl("cli.run_scenario") - incl("cli.run_pipeline")
        m["trace.spans"] = len(dur)
        m["trace.root_s"] = float(dur[~has_parent].sum())
        return m
