"""Every perfbench gate still rejects the faulted outputs it is shown.

A benchmark run ends with `perfbench/workloads.self_test()` and fails if a
gate lets a faulted op through; this test runs the same self-test, so a
change that breaks a gate fails here first.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_gate_rejects_its_faulted_outputs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    assert workloads.self_test() == []
