"""Per-layer tracing from outside the program.

Each traced function is swapped for a timing wrapper in every `sedwitness`
module that binds it: the modules import each other's names with
`from ... import`, so patching only the defining module would miss most
calls. A span records its name, start, end, parent span and the op it
belongs to. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# The layers are the package's modules; these are their traced entry points.
TRACED = {
    "tensor": ("embed_gate", "reorder_qubits", "partial_trace"),
    "states": ("thermal_matrix",),
    "witness": ("biseparable_c",),
    "sed": ("build_vprime", "sed_measure"),
    "ancilla": ("ancilla_readout", "run_concatenated"),
    "circuit": ("gate_matrix", "circuit_unitary", "expand_multicontrolled", "circuit_to_text", "circuit_from_text"),
    "noise": ("sweep", "simulate_noisy", "apply_noisy_gate", "sed_readout_value"),
    "cli": ("main",),
}
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
GATES_OUT = "circuit.expand_multicontrolled.gates_out"
OP_SPAN = "op"


class Tracer:
    """Records spans while active; `op` tags each span with the current op."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.stack: list[int] = []
        self.active = False
        self.op = -1
        self.gates_out = 0
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[sid] = (sid, parent, tracer.op, name, start, end)
            if name == "circuit.expand_multicontrolled":
                tracer.gates_out += len(result.gates)
            return result

        return traced

    def op_span(self, fn, *args):
        """Run fn(*args) inside the benchmark's own span for one op."""
        return self._wrap(OP_SPAN, fn)(*args)

    def patch(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "sedwitness" or key.startswith("sedwitness.")]
        for mod_name, fns in TRACED.items():
            home = sys.modules.get(f"sedwitness.{mod_name}")
            for fn_name in fns:
                orig = getattr(home, fn_name, None)
                if orig is None:
                    continue  # the function is gone; its metrics read 0
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def unpatch(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def self_times(self) -> tuple[dict, dict]:
        """Calls and self seconds per span name; self = duration - direct children."""
        child = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = defaultdict(int), defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child[sid]
        return calls, self_s

    def write_spans(self, path, t0: float) -> None:
        rows = [[sid, parent, op, name, round(start - t0, 9), round(end - t0, 9)]
                for sid, parent, op, name, start, end in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "parent", "op", "name", "start_s", "end_s"], "spans": rows}, fh)
            fh.write("\n")
