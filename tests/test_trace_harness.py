"""The perfbench tracer still wraps one solve end to end.

`perfbench/tracing.Tracer` looks up every name in its TRACED table on the
package modules, so renaming or deleting one of them breaks every traced
benchmark run; this test fails first.
"""

from pathlib import Path

import numpy as np

from qps import builder, simulator
from qps.builder import QpsConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_solve_counts_each_simulator_call_once(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer(capture_apply=True)
    b = np.random.default_rng(1).standard_normal(2**3 - 1)
    with tracer.active(1):
        result = builder.solve(QpsConfig(n=3), b)
    assert result.fidelity >= 1 - 1e-10
    state, circuit, whole = tracer.captured
    # apply never writes its input: the captured state still holds the
    # injected right-hand side, byte for byte, so staged_apply can re-run it
    injected = simulator.inject_register(simulator.StateVector.ground(circuit.num_qubits),
                                         circuit.register("B"),
                                         np.concatenate(([0.0], b / np.linalg.norm(b))))
    assert state.amplitudes.tobytes() == injected.amplitudes.tobytes()
    assert set(tracing.staged_apply(state, circuit, whole, simulator.apply)) == set(tracing.STAGES)
    counts = tracer.op_counts()[1]
    for fn in ("apply", "inject_register", "postselect", "extract_register", "fidelity"):
        assert counts[f"simulator.calls.{fn}"] == 1, fn
    assert counts["simulator.calls"] == 5
    assert [span[0] for span in tracer.spans].count("builder.build_qps") == 1
