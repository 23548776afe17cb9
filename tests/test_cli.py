import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qps import builder, cli, verify
from qps.bounds import BOUNDS
from qps.circuit import Circuit
from qps.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VERIFY, main
from qps.simulator import StateVector


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_demo_passes_and_prints_solution(capsys):
    code, out, _ = run(capsys, "demo")
    assert code == EXIT_OK
    assert "0.552988" in out and "0.674065" in out and "0.489736" in out
    assert "success probability: 0.670075" in out


def test_demo_json_schema(capsys):
    code, out, _ = run(capsys, "demo", "--output", "json")
    assert code == EXIT_OK
    record = json.loads(out)
    for key in ("n", "solution", "reference", "fidelity",
                "success_probability", "resources"):
        assert key in record
    assert record["resources"]["qubits"] == 6
    assert record["max_abs_difference"] <= 1e-6


def test_solve_preset_sin_fidelity(capsys):
    code, out, _ = run(capsys, "solve", "--n", "4", "--preset", "sin",
                       "--output", "json")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["fidelity"] >= 1 - 1e-10
    assert len(record["solution"]) == 15


def test_solve_zero_b_rejected(capsys):
    code, _, err = run(capsys, "solve", "--n", "2", "--b", "0,0,0")
    assert code == EXIT_CONFIG
    assert "zero right-hand side" in err


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, "solve", "--n", "2", "--file", "missing.csv")
    assert code == EXIT_IO
    assert "cannot read" in err


def test_solve_wrong_length_file(tmp_path, capsys):
    path = tmp_path / "b.csv"
    path.write_text("1.0\n2.0\n")
    code, _, err = run(capsys, "solve", "--n", "2", "--file", str(path))
    assert code == EXIT_IO
    assert "exactly 3 values" in err


def test_solve_undecodable_file(tmp_path, capsys):
    path = tmp_path / "b.csv"
    path.write_bytes(b"\xff\xfe1\n2\n3\n")
    code, _, err = run(capsys, "solve", "--n", "2", "--file", str(path))
    assert code == EXIT_IO
    assert "cannot read b file" in err


def test_solve_csv_file_and_output(tmp_path, capsys):
    path = tmp_path / "b.csv"
    path.write_text("0.7071067811865476\n0.5\n0.5\n")
    code, out, _ = run(capsys, "solve", "--n", "2", "--file", str(path),
                       "--output", "csv")
    assert code == EXIT_OK
    values = [float(line) for line in out.strip().splitlines()]
    assert len(values) == 3
    assert np.max(np.abs(np.array(values) - [0.552987, 0.674065, 0.489736])) <= 1e-6


def test_solve_out_of_simulation_bounds(capsys):
    code, _, err = run(capsys, "solve", "--n", "7", "--preset", "sin")
    assert code == EXIT_CONFIG
    assert "serial simulation" in err
    code, _, err = run(capsys, "solve", "--n", "6", "--preset", "sin",
                       "--mode", "parallel")
    assert code == EXIT_CONFIG


def test_solve_json_round_trip_reproduces_bits(capsys):
    code, out, _ = run(capsys, "solve", "--n", "3", "--preset", "ramp",
                       "--output", "json")
    assert code == EXIT_OK
    record = json.loads(out)
    echoed_b = ",".join(record["config"]["b"])
    code, out2, _ = run(capsys, "solve", "--n", "3", "--b", echoed_b,
                        "--output", "json")
    assert code == EXIT_OK
    record2 = json.loads(out2)
    assert record2["solution"] == record["solution"]
    assert record2["success_probability"] == record["success_probability"]


def test_verify_default_passes(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "3")
    assert code == EXIT_OK
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_verify_fault_injection_detected(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "3", "--inject-fault")
    assert code == EXIT_VERIFY
    assert "FAIL" in out


def test_verify_rejects_negative_seed(capsys):
    code, out, err = run(capsys, "verify", "--n-max", "2", "--seed", "-1")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "error: --seed must be >= 0, got -1\n"


def _fail(*args, **kwargs):
    raise AssertionError("called past an out-of-range n")


def test_verify_checks_owns_its_bound(monkeypatch):
    monkeypatch.setattr(builder, "solve", _fail)
    with pytest.raises(ValueError, match=r"serial simulation supports n in \[2, 6\], got 7"):
        verify.checks(7, 0, False)


# each CLI command with its n option last, and the bound-table row it reads
CLI_ROWS = [
    (("solve", "--preset", "sin", "--n"), "serial simulation"),
    (("solve", "--preset", "sin", "--mode", "parallel", "--n"), "parallel simulation"),
    (("verify", "--n-max"), "serial simulation"),
    (("report", "--n"), "report"),
    (("identities", "--n-max"), "identity residual"),
]


@pytest.mark.parametrize("argv,row,n", [
    pytest.param(argv, row, n, id=f"{argv[0]}-{row}-{n}")
    for argv, row in CLI_ROWS
    for n in (BOUNDS[row][0] - 1, BOUNDS[row][1] + 1)
])
def test_cli_rejects_n_outside_its_row(capsys, monkeypatch, argv, row, n):
    for owner, name in ((StateVector, "ground"), (builder, "bc_matrix"),
                        (builder, "build_qps"), (cli, "build_qps")):
        monkeypatch.setattr(owner, name, _fail)
    code, out, err = run(capsys, *argv, str(n))
    lo, hi = BOUNDS[row]
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"error: {row} supports n in [{lo}, {hi}], got {n}\n"


def test_bounds_imports_without_numpy():
    # the package root re-exports nothing, so a leaf module loads alone
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, qps.bounds; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.stdout == "False\n"


def _edit_gates(monkeypatch, name, edit):
    """Patch qps.builder.<name> to return its circuit with edit applied to the gate list."""
    original = getattr(builder, name)

    def faulty(*args, **kwargs):
        circuit = original(*args, **kwargs)
        return Circuit(circuit.registers, edit(list(circuit.gates)))

    monkeypatch.setattr(builder, name, faulty)


def _first(gates, predicate):
    return next(i for i, g in enumerate(gates) if predicate(g))


def _drop_first_ry(gates):
    del gates[_first(gates, lambda g: g.kind == "ry")]
    return gates


def _flip_first_control(gates):
    i = _first(gates, lambda g: g.controls)
    (qubit, positive), *rest = gates[i].controls
    gates[i] = dataclasses.replace(gates[i], controls=((qubit, not positive), *rest))
    return gates


def _rotate_bc_rows(monkeypatch):
    """Mix BC rows 1 and 2 by a small Givens rotation; the block stays unitary."""
    original = builder.bc_matrix
    c, s = math.cos(0.01), math.sin(0.01)

    def faulty(n):
        matrix = original(n)
        matrix[[1, 2]] = np.array([[c, -s], [s, c]]) @ matrix[[1, 2]]
        return matrix

    monkeypatch.setattr(builder, "bc_matrix", faulty)


@pytest.mark.parametrize("fault", [
    lambda mp: _edit_gates(mp, "build_inversion_serial", _drop_first_ry),
    lambda mp: _edit_gates(mp, "build_inversion_serial", _flip_first_control),
    lambda mp: _edit_gates(mp, "build_qps", lambda gates: gates[:-1]),
    _rotate_bc_rows,
], ids=["drop-first-ry", "flip-control", "drop-bc-dagger", "rotate-bc-rows"])
def test_verify_fault_matrix(capsys, monkeypatch, fault):
    fault(monkeypatch)
    code, out, _ = run(capsys, "verify", "--n-max", "3")
    assert code == EXIT_VERIFY
    assert "FAIL" in out


def test_identities_table(capsys):
    code, out, _ = run(capsys, "identities", "--n-max", "12", "--output", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert rows[0]["n"] == 1
    assert rows[0]["sine_formula_residual"] <= 1e-12
    assert rows[0]["inversion_max_rel_error"] is None
    by_n = {row["n"]: row for row in rows}
    assert by_n[12]["sine_formula_residual"] <= 1e-9
    for n in range(2, 13):
        assert by_n[n]["inversion_max_rel_error"] <= 1e-12


def test_identities_bounds(capsys):
    code, _, err = run(capsys, "identities", "--n-max", "15")
    assert code == EXIT_CONFIG


def test_report_n2_qubits(capsys):
    code, out, _ = run(capsys, "report", "--n", "2", "--output", "json")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["circuit"]["qubits"] == 6
    assert record["paper"]["qubits_3n"] == 6


def test_report_n15_both_modes(capsys):
    code, out, _ = run(capsys, "report", "--n", "15", "--output", "json")
    assert code == EXIT_OK
    serial = json.loads(out)
    assert serial["circuit"]["qubits"] == 45
    assert serial["paper"]["qubits_3n_plus_1"] == 46
    code, out, _ = run(capsys, "report", "--n", "15", "--mode", "parallel",
                       "--output", "json")
    assert code == EXIT_OK
    parallel = json.loads(out)
    assert parallel["circuit"]["qubits"] == 58
    assert parallel["inversion_stage"]["depth_serial"] < serial["inversion_stage"]["depth_serial"]


def test_report_bounds(capsys):
    code, _, err = run(capsys, "report", "--n", "16")
    assert code == EXIT_CONFIG


FROZEN_REPORTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "report_counts.json").read_text()
)["reports"]


# every (mode, ry) pair at n <= 12 and bitwise n=15: the benchmark's report
# gate reads these counts, so a counting change must not move one
@pytest.mark.parametrize("key", [k for k in FROZEN_REPORTS if int(k.split("/")[0]) <= 12]
                         + ["15/serial/bitwise", "15/parallel/bitwise"])
def test_report_counts_match_frozen(capsys, key):
    n, mode, ry = key.split("/")
    code, out, _ = run(capsys, "report", "--n", n, "--mode", mode, "--ry", ry,
                       "--output", "json")
    assert code == EXIT_OK
    record = json.loads(out)
    frozen = FROZEN_REPORTS[key]
    assert {section: record[section] for section in frozen} == frozen


def test_cost_model_env_ignored(tmp_path, capsys, monkeypatch):
    argv = ("report", "--n", "3", "--output", "json")
    _, baseline, _ = run(capsys, *argv)
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"block_coefficient": 1e308}))
    monkeypatch.setenv("QPS_COST_MODEL", str(model))
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK
    assert out == baseline
    assert err == ""


@pytest.mark.parametrize("b,code", [
    ("nan,1,1", EXIT_CONFIG),
    ("inf,1,1", EXIT_CONFIG),
    ("1e308,1e308,1e308", EXIT_OK),   # the norm overflows
    ("1e-320,1e-320,0", EXIT_OK),     # the norm underflows
])
def test_solve_extreme_rhs(capsys, b, code):
    rc, out, err = run(capsys, "solve", "--n", "2", "--b", b, "--output", "json")
    assert rc == code
    if code == EXIT_OK:
        assert json.loads(out)["fidelity"] >= 1 - 1e-10
    else:
        assert "non-finite" in err


def test_solve_negative_first_b_value(capsys):
    # argparse takes "--b -1,2,3" for a missing value; "--b=-1,2,3" is the form
    code, out, _ = run(capsys, "solve", "--n", "2", "--b=-1,2,3", "--output", "json")
    assert code == EXIT_OK
    assert json.loads(out)["config"]["b"] == ["-1.0", "2.0", "3.0"]


def test_solve_unknown_preset(capsys):
    code, _, err = run(capsys, "solve", "--n", "3", "--preset", "nope")
    assert code == EXIT_CONFIG
    assert err == "error: unknown preset 'nope'; choose from ['const', 'ramp', 'sin']\n"


@pytest.mark.parametrize("argv", [
    ["report", "--n", "2", "--output", "csv"],
    ["verify", "--output", "json"],
    ["solve", "--n", "2", "--preset", "sin", "--seed", "1"],
    ["demo", "--mode", "parallel"],
])
def test_unimplemented_options_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_runtime_error_maps_to_verify_exit(capsys, monkeypatch):
    def failing_solve(config, b):
        raise RuntimeError("postselection impossible: outcome probability 0")

    monkeypatch.setattr("qps.cli.solve", failing_solve)
    code, out, err = run(capsys, "solve", "--n", "2", "--preset", "sin")
    assert code == EXIT_VERIFY
    assert err == "error: postselection impossible: outcome probability 0\n"
    assert "Traceback" not in out + err
