import json

import numpy as np
import pytest

from qps.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VERIFY, main


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


def test_demo_rejects_parallel(capsys):
    code, _, err = run(capsys, "demo", "--mode", "parallel")
    assert code == EXIT_CONFIG
    assert "parallel" in err


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


def test_cost_model_env_override(tmp_path, capsys, monkeypatch):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"block_coefficient": 8.0}))
    code, out, _ = run(capsys, "report", "--n", "2", "--output", "json")
    baseline = json.loads(out)["circuit"]["elementary_gates"]
    monkeypatch.setenv("QPS_COST_MODEL", str(model))
    code, out, _ = run(capsys, "report", "--n", "2", "--output", "json")
    assert code == EXIT_OK
    assert json.loads(out)["circuit"]["elementary_gates"] > baseline


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


@pytest.mark.parametrize("model", [
    {"ry_base": [], "linear_coefficient": -5},
    {"x_base": []},
    {"ry_base": [1, -2, 8]},
    {"linear_coefficient": -1},
    {"block_coefficient": -0.5},
    {"block_coefficient": float("nan")},
])
def test_invalid_cost_model_rejected(tmp_path, capsys, monkeypatch, model):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    monkeypatch.setenv("QPS_COST_MODEL", str(path))
    code, out, err = run(capsys, "report", "--n", "3")
    assert code == EXIT_IO
    assert "bad QPS_COST_MODEL file" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["report", "--n", "2", "--output", "csv"],
    ["verify", "--output", "json"],
    ["solve", "--n", "2", "--preset", "sin", "--seed", "1"],
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
