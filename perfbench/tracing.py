"""Span recorder wrapped around qps's public functions from outside.

``Tracer.active(op)`` replaces every traced function at every module
attribute through which callers reach it (``qps.simulator.apply``,
``qps.builder.apply``, ``qps.apply``, ...) and puts the originals back on
exit, so untraced ops run the unwrapped program.  A span is
``[name, start, end, parent, op]``; spans stay in memory until the run
ends.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time
import tracemalloc

import numpy as np

import qps
import qps.builder
import qps.circuit
import qps.cli
import qps.identities
import qps.poisson
import qps.simulator
from qps.circuit import Circuit

MODULES = (qps, qps.builder, qps.circuit, qps.cli, qps.identities,
           qps.poisson, qps.simulator)

TRACED = {
    qps.simulator: ("apply", "inject_register", "postselect",
                    "extract_register", "fidelity"),
    qps.builder: ("solve", "build_qps", "inversion_stage_circuit",
                  "build_inversion_serial", "build_inversion_parallel"),
    qps.circuit: ("count_resources",),
    qps.poisson: ("solve_classical", "spectral_solve"),
    qps.identities: ("sine_formula_residual", "odd_layer_residual",
                     "inversion_identity_error"),
    qps.cli: ("main",),
}

# modules whose calls run under tracemalloc for a peak-allocation figure;
# tracemalloc slows allocation-heavy Python code, so a tracer either tracks
# memory or times layers, never both
MEMORY_TRACKED = ("simulator", "poisson")

SIM_FUNCTIONS = TRACED[qps.simulator]

# time metrics: inclusive time of the outermost span among the names
INCLUSIVE = {
    "simulator.apply_s": {"simulator.apply"},
    "simulator.inject_s": {"simulator.inject_register"},
    "simulator.postselect_s": {"simulator.postselect"},
    "simulator.extract_s": {"simulator.extract_register"},
    "simulator.fidelity_s": {"simulator.fidelity"},
    "builder.build_qps_s": {"builder.build_qps"},
    "builder.build_inversion_s": {"builder.inversion_stage_circuit",
                                  "builder.build_inversion_serial",
                                  "builder.build_inversion_parallel"},
    "circuit.count_resources_s": {"circuit.count_resources"},
    "poisson.solve_classical_s": {"poisson.solve_classical"},
    "poisson.spectral_solve_s": {"poisson.spectral_solve"},
    "identities.residuals_s": {"identities.sine_formula_residual",
                               "identities.odd_layer_residual",
                               "identities.inversion_identity_error"},
}
# time metrics: span duration minus the time its child spans cover
SELF = {"builder.solve_self_s": "builder.solve", "cli.self_s": "cli.main"}

STAGES = ("bc", "inversion", "flag", "bcdag")

# counts that must repeat exactly for every op and every seed
EXACT_COUNTS = (
    "simulator.calls",
    *(f"simulator.calls.{fn}" for fn in SIM_FUNCTIONS),
    "simulator.amp_updates",
    "simulator.bytes_computed",
    "builder.ir_gates",
    "circuit.gates_counted",
    "cli.calls",
)


def amp_updates(circuit) -> int:
    """Amplitudes a dense simulator updates for the circuit (computed, not measured).

    A rotation or NOT touches its 2**(q - controls) controlled amplitudes
    once per target; a block gate does a 2**t-term sum for each of them.
    """
    q = circuit.num_qubits
    total = 0
    for g in circuit.gates:
        width = 2 ** len(g.targets) if g.kind == "block" else len(g.targets)
        total += 2 ** (q - len(g.controls)) * width
    return total


class Tracer:
    def __init__(self, capture_apply: bool = False, track_memory: bool = False):
        self.spans: list[list] = []
        self.counts: dict[int, collections.Counter] = collections.defaultdict(
            collections.Counter)
        self.peak_bytes = {module: 0 for module in MEMORY_TRACKED}
        self.capture_apply = capture_apply
        self.track_memory = track_memory
        self.captured = None
        self._stack: list[int] = []
        self._op = 0
        self._wrappers = {}
        for module, names in TRACED.items():
            short = module.__name__.rsplit(".", 1)[1]
            for name in names:
                fn = getattr(module, name)
                self._wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))

    @contextlib.contextmanager
    def active(self, op: int):
        """Trace every call made inside the block as part of op ``op``."""
        self._op = op
        self.counts[op]  # an op with no traced calls still has a counter
        patches = []
        for module in MODULES:
            for attr, value in vars(module).items():
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    patches.append((module, attr, value, entry[1]))
        for module, attr, _, wrapper in patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in patches:
                setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        module = name.split(".")[0]
        track_memory = self.track_memory and module in MEMORY_TRACKED
        on_return = {
            "simulator.apply": self._on_apply,
            "builder.build_qps": self._on_build_qps,
            "circuit.count_resources": self._on_count_resources,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            own_memory = track_memory and not tracemalloc.is_tracing()
            if own_memory:
                tracemalloc.start()
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if own_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[module] = max(self.peak_bytes[module], peak)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def _on_apply(self, args, kwargs, result):
        state, circuit = args
        updates = amp_updates(circuit)
        counts = self.counts[self._op]
        counts["simulator.amp_updates"] += updates
        counts["simulator.bytes_computed"] += updates * state.amplitudes.itemsize * 2
        if self.capture_apply:
            self.captured = (state, circuit, result)

    def _on_build_qps(self, args, kwargs, circuit):
        self.counts[self._op]["builder.ir_gates"] += len(circuit.gates)

    def _on_count_resources(self, args, kwargs, result):
        self.counts[self._op]["circuit.gates_counted"] += len(args[0].gates)

    def op_counts(self) -> dict[int, dict]:
        """Exact counts of every op, call counts taken from the spans."""
        out = {}
        for op, counter in self.counts.items():
            counter = collections.Counter(counter)
            for name, _, _, _, span_op in self.spans:
                if span_op != op:
                    continue
                module, fn = name.split(".")
                if module == "simulator":
                    counter["simulator.calls"] += 1
                    counter[f"simulator.calls.{fn}"] += 1
                elif name == "cli.main":
                    counter["cli.calls"] += 1
            out[op] = {key: counter.get(key, 0) for key in EXACT_COUNTS}
        return out

    def layer_times(self) -> dict[str, float]:
        """Per-layer time summed over every traced op."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = dict.fromkeys([*INCLUSIVE, *SELF], 0.0)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            parent_name = self.spans[parent][0] if parent >= 0 else None
            for metric, names in INCLUSIVE.items():
                if name in names and parent_name not in names:
                    totals[metric] += end - start
            for metric, owner in SELF.items():
                if name == owner:
                    totals[metric] += end - start - child_time[i]
        return totals


def split_stages(circuit) -> list[Circuit]:
    """Cut a solver circuit into BC, inversion, flag and BC-dagger sub-circuits.

    Stages are found by label and kind; raises if the structure is not the
    one build_qps produces, so a changed circuit layout fails loudly.
    """
    gates = list(circuit.gates)
    bc = [i for i, g in enumerate(gates) if g.kind == "block" and g.label == "BC"]
    bcdag = [i for i, g in enumerate(gates) if g.kind == "block" and g.label == "BC†"]
    e_qubits = {(q, True) for q in circuit.register("E").qubits}
    anc = circuit.register("Anc").qubit(0)
    flag = [i for i, g in enumerate(gates)
            if g.kind == "x" and g.targets == (anc,) and set(g.controls) == e_qubits]
    if bc != [0] or bcdag != [len(gates) - 1] or flag != [len(gates) - 2]:
        raise RuntimeError(
            f"stage structure not found: BC at {bc}, flag at {flag}, "
            f"BC† at {bcdag} of {len(gates)} gates"
        )
    cuts = (gates[:1], gates[1:-2], gates[-2:-1], gates[-1:])
    return [Circuit(circuit.registers, part) for part in cuts]


def staged_apply(state, circuit, whole, apply) -> dict[str, float]:
    """Apply the circuit stage by stage; return each stage's wall time.

    The final amplitudes must equal ``whole`` (one whole-circuit apply) to
    1e-14, or this raises.
    """
    times = {}
    for stage, part in zip(STAGES, split_stages(circuit)):
        t0 = time.perf_counter()
        state = apply(state, part)
        times[stage] = time.perf_counter() - t0
    gap = float(np.max(np.abs(state.amplitudes - whole.amplitudes)))
    if gap > 1e-14:
        raise RuntimeError(f"stage-split apply differs from whole apply by {gap:.3e}")
    return times
