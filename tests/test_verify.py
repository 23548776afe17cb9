import hashlib

import pytest
from support import edit_gates, per_input_amplitudes

from qps import builder, poisson, verify
from qps.circuit import Circuit, Gate
from qps.cli import EXIT_VERIFY, main


def _per_input_audit(n, fault=False, branches=None):
    """The per-input reference audit: one dense run per basis input |j> of B.

    Returns (max |amplitude - 8/lambda_j|, {j: amplitude}) over branches,
    every j >= 1 by default.
    """
    circ = builder.build_inversion_serial(n)
    if fault:
        gates = list(circ.gates)
        pos = next(i for i, g in enumerate(gates) if g.kind == "ry")
        gates[pos] = Gate.ry(gates[pos].angle + 0.1, gates[pos].targets,
                             gates[pos].controls)
        circ = Circuit(circ.registers, gates)
    got = per_input_amplitudes(circ, branches or range(1, 2**n))
    worst = max(abs(amp - 8.0 / poisson.eigenvalue(n, j)) for j, amp in got.items())
    return worst, got


@pytest.mark.parametrize("fault", [False, True])
@pytest.mark.parametrize("n", range(2, 6))
def test_audit_matches_per_input_runs_bit_for_bit(n, fault):
    worst, per_input = _per_input_audit(n, fault)
    assert verify.amplitude_audit([n], fault) == worst
    branch = verify.dense_branch_amplitudes(builder.build_inversion_serial(n))
    if not fault:
        assert branch[1:].tolist() == [per_input[j] for j in range(1, 2**n)]


@pytest.mark.parametrize("n", [6, 7])
def test_branch_amplitudes_match_per_input_runs_at_the_middle(n):
    # a per-input run costs 0.03 s at n=6 and 0.35 s at n=7, so only the two
    # branches around the middle of B's range, the edge of the odd-n halves, run
    N = 2**n
    _, per_input = _per_input_audit(n, branches=(N // 2 - 1, N // 2))
    branch = verify.dense_branch_amplitudes(builder.build_inversion_serial(n))
    for j, amp in per_input.items():
        assert branch[j] == amp


def _append_gate_on_b(monkeypatch):
    edit_gates(monkeypatch, "build_inversion_serial",
               lambda circ: [*circ.gates, Gate.x(circ.register("B").qubit(0))])


def test_audit_rejects_a_gate_that_targets_b(monkeypatch):
    _append_gate_on_b(monkeypatch)
    with pytest.raises(RuntimeError, match="never targets B"):
        verify.amplitude_audit([3])


def test_verify_exits_4_when_a_gate_targets_b(monkeypatch, capsys):
    _append_gate_on_b(monkeypatch)
    code = main(["verify", "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_VERIFY
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: amplitude audit needs")
    assert "Traceback" not in captured.err


# SHA-256 of `qps verify` stdout as the per-input audit loop printed it; the
# same digests hold at 1 and 2 BLAS threads.
VERIFY_FINGERPRINTS = {
    ("--n-max", "6", "--seed", "0"):
        "d353945839560144f052e7a04da054c834c583455f5e8765b073ca8f1936caf5",
    ("--n-max", "3", "--inject-fault"):
        "b3910461b8e296084499cf158b060372744bb90cfac28d2d7d0cdd4d1a1b0f75",
}


@pytest.mark.parametrize("argv", VERIFY_FINGERPRINTS, ids=" ".join)
def test_verify_output_fingerprint_unchanged(argv, capsys):
    main(["verify", *argv])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FINGERPRINTS[argv]
