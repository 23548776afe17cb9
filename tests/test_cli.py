import ast
import dataclasses
import hashlib
import json
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest
from support import edit_gates, fail, run_probe

from qps import bounds, builder, cli, identities, verify
from qps.bounds import BOUNDS
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


def test_verify_skips_construction_equivalence_below_the_parallel_row(capsys):
    # the parallel row starts at n=3, so --n-max 2 compares no circuit
    code, out, _ = run(capsys, "verify", "--n-max", "2")
    assert code == EXIT_OK
    assert re.search(r"^construction equivalence +SKIP  parallel mode needs n >= 3$", out, re.M)
    assert out.count("PASS") == 7 and "FAIL" not in out
    assert out.endswith("verify: all checks passed\n")


def test_verify_fault_injection_detected(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "3", "--inject-fault")
    assert code == EXIT_VERIFY
    assert "FAIL" in out


def test_verify_rejects_negative_seed(capsys):
    code, out, err = run(capsys, "verify", "--n-max", "2", "--seed", "-1")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "error: --seed must be >= 0, got -1\n"


def test_verify_checks_owns_its_bound(monkeypatch):
    for name in ("solve", "build_qps", "solve_circuit"):
        monkeypatch.setattr(builder, name, fail)
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
        monkeypatch.setattr(owner, name, fail)
    code, out, err = run(capsys, *argv, str(n))
    lo, hi = BOUNDS[row]
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"error: {row} supports n in [{lo}, {hi}], got {n}\n"


@pytest.mark.parametrize("call,row", [
    (verify.identity_rows, "identity residual"),
    (lambda n: verify.checks(n, 0, False), "serial simulation"),
    (identities.inversion_identity_error, "inversion identity"),
    (identities.sine_formula_residual, "identity residual"),
    (lambda n: bounds.check("report", n), "report"),
], ids=["identity_rows", "checks", "inversion_identity_error", "sine_formula_residual",
        "check"])
@pytest.mark.parametrize("n", [3.0, 2.5, "3", None, True])
def test_non_integer_n_rejected_by_its_row(call, row, n):
    with pytest.raises(ValueError) as exc:
        call(n)
    assert str(exc.value) == f"{row} needs an integer n, got {n!r}"


def test_console_script_target_runs_demo(capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qps"]
    assert pkgutil.resolve_name(target)(["demo"]) == EXIT_OK
    assert capsys.readouterr().err == ""


# each README statement of an accepted range, and the bound-table rows its
# ranges state, in order
README_RANGES = [
    (r"qps solve --n (\d+)\.\.(\d+) \(parallel (\d+)\.\.(\d+)\)",
     ("serial simulation", "parallel simulation")),
    (r"qps verify \[--n-max (\d+)\.\.(\d+)\]", ("serial simulation",)),
    (r"qps identities \[--n-max (\d+)\.\.(\d+)\]", ("identity residual",)),
    (r"qps report --n (\d+)\.\.(\d+)\s", ("report",)),
    (r"`solve` simulates end to end \(`n` (\d+)\.\.(\d+) serial,\s+(\d+)\.\.(\d+) parallel\)",
     ("serial simulation", "parallel simulation")),
    (r"`builder\.solve` accepts serial\s+n = (\d+)\.\.(\d+) and\s+parallel\s+n = (\d+)\.\.(\d+)",
     ("serial solve", "parallel solve")),
    (r"The inversion identity row\s+accepts n = (\d+)\.\.(\d+)", ("inversion identity",)),
]


@pytest.mark.parametrize("pattern,rows", README_RANGES,
                         ids=["synopsis-solve", "synopsis-verify", "synopsis-identities",
                              "synopsis-report", "solve-bullet", "accepted-sizes",
                              "inversion-identity"])
def test_readme_ranges_match_the_bound_table(pattern, rows):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (found,) = re.findall(pattern, readme)
    assert tuple(map(int, found)) == sum((BOUNDS[row] for row in rows), ())


def test_bounds_imports_without_numpy():
    # the package root re-exports nothing, so a leaf module loads alone
    assert run_probe("import sys, qps.bounds; print('numpy' in sys.modules)") == "False\n"


def test_integer_rule_lives_only_in_real():
    # qps.real.is_integer is the one answer; no other module restates it
    restated = re.compile(r"numbers\.Integral|np\.integer|isinstance\([^,]+,\s*\(?int\b")
    src = Path(__file__).resolve().parent.parent / "src" / "qps"
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(src.glob("*.py")) if path.name != "real.py"
             for number, line in enumerate(path.read_text().splitlines(), start=1)
             if restated.search(line)]
    assert found == []


def test_each_test_helper_is_defined_once():
    # a function or class that two test modules need lives in tests/support.py
    defined = {}
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("test_")):
                defined.setdefault(node.name, []).append(path.name)
    assert {name: files for name, files in defined.items() if len(files) > 1} == {}


def _first(gates, predicate):
    return next(i for i, g in enumerate(gates) if predicate(g))


def _drop_first_ry(circuit):
    gates = list(circuit.gates)
    del gates[_first(gates, lambda g: g.kind == "ry")]
    return gates


def _flip_first_control(circuit):
    gates = list(circuit.gates)
    i = _first(gates, lambda g: g.controls)
    (qubit, positive), *rest = gates[i].controls
    gates[i] = dataclasses.replace(gates[i], controls=((qubit, not positive), *rest))
    return gates


def _rotate_bc_rows(monkeypatch, rows=(1, 2)):
    """Mix two BC rows by a small Givens rotation; the block stays unitary."""
    original = builder.bc_matrix
    c, s = math.cos(0.01), math.sin(0.01)

    def faulty(n):
        matrix = original(n)
        matrix[list(rows)] = np.array([[c, -s], [s, c]]) @ matrix[list(rows)]
        return matrix

    monkeypatch.setattr(builder, "bc_matrix", faulty)


@pytest.mark.parametrize("fault", [
    lambda mp: edit_gates(mp, "build_inversion_serial", _drop_first_ry),
    lambda mp: edit_gates(mp, "build_inversion_serial", _flip_first_control),
    lambda mp: edit_gates(mp, "build_qps", lambda circuit: circuit.gates[:-1]),
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


@pytest.mark.parametrize("argv,names", [
    (["report", "--n", "2", "--output", "csv"], ["--output"]),
    (["verify", "--output", "json"], ["--output"]),
    (["solve", "--n", "2", "--preset", "sin", "--seed", "1"], ["--seed"]),
    (["demo", "--mode", "parallel"], ["--mode"]),
    # solve takes exactly one source, by argparse's mutually exclusive group
    (["solve", "--n", "2"], ["--preset", "--file", "--b"]),
    (["solve", "--n", "2", "--preset", "sin", "--b", "1,2,3"], ["--preset", "--b"]),
], ids=[f"argv{i}" for i in range(6)])
def test_unimplemented_options_rejected(capsys, argv, names):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names)
    assert "Traceback" not in err


def test_runtime_error_maps_to_verify_exit(capsys, monkeypatch):
    def failing_solve(config, b):
        raise RuntimeError("postselection impossible: outcome probability 0")

    monkeypatch.setattr("qps.cli.solve", failing_solve)
    code, out, err = run(capsys, "solve", "--n", "2", "--preset", "sin")
    assert code == EXIT_VERIFY
    assert err == "error: postselection impossible: outcome probability 0\n"
    assert "Traceback" not in out + err


def test_solve_rejects_a_readout_off_the_solution_directions(capsys, monkeypatch):
    # BC rows 0 and 1 mixed: the postselected B keeps weight on |0>, no grid point
    _rotate_bc_rows(monkeypatch, (0, 1))
    assert run(capsys, "solve", "--n", "3", "--preset", "sin") == (
        EXIT_VERIFY, "", "error: postselected register B is not a real solution direction\n")


@pytest.mark.parametrize("option,value,code,message", [
    ("--b", "1,x,3", EXIT_CONFIG, "bad --b list: could not convert string to float: 'x'"),
    ("--b", "1,2", EXIT_CONFIG, "--b needs 3 comma-separated values, got 2"),
    ("--file", "1\nabc\n3\n", EXIT_IO,
     "bad value in b file: could not convert string to float: 'abc'"),
], ids=["b-not-a-number", "b-too-short", "file-not-a-number"])
def test_solve_names_what_is_wrong_with_b(tmp_path, capsys, option, value, code, message):
    if option == "--file":
        (tmp_path / "b.csv").write_text(value)
        value = str(tmp_path / "b.csv")
    assert run(capsys, "solve", "--n", "2", option, value) == (code, "", f"error: {message}\n")


def _transcript_argvs():
    """116 CLI runs: every command in human and json, the verify paths and four bound errors."""
    runs = [["demo", "--ry", ry] for ry in ("bitwise", "semantic")]
    for preset in ("sin", "const", "ramp"):
        for mode, ns in (("serial", range(2, 6)), ("parallel", range(3, 5))):
            runs += [["solve", "--n", str(n), "--mode", mode, "--preset", preset] for n in ns]
    runs.append(["identities", "--n-max", "10"])
    for mode, lo in (("serial", 2), ("parallel", 3)):
        for ry in ("bitwise", "semantic"):
            runs += [["report", "--n", str(n), "--mode", mode, "--ry", ry]
                     for n in range(lo, 11)]
    runs = [argv + ["--output", output] for argv in runs for output in ("human", "json")]
    return runs + [
        ["verify", "--n-max", "4", "--seed", "3"],
        ["verify", "--n-max", "3", "--inject-fault"],
        ["solve", "--n", "7", "--preset", "sin"],
        ["report", "--n", "16"],
        ["identities", "--n-max", "15"],
        ["verify", "--n-max", "7"],
    ]


# SHA-256 over (argv, exit code, stdout, stderr) of every run in _transcript_argvs
CLI_TRANSCRIPT_FINGERPRINT = "8628c4a0f6364b45b6ebdd49c2af857d52879e3fe469f7093fc798292ac2b1e9"


def test_cli_transcript_unchanged(capsys):
    argvs = _transcript_argvs()
    assert len(argvs) == 116
    digest = hashlib.sha256()
    for argv in argvs:
        digest.update(json.dumps([argv, *run(capsys, *argv)]).encode())
    assert digest.hexdigest() == CLI_TRANSCRIPT_FINGERPRINT
