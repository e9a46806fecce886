import json
from pathlib import Path

import pytest

from sedwitness.cli import main
from sedwitness.witness import select_witness

DATA = Path(__file__).with_name("data")


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_report(out):
    report = {}
    for line in out.strip().splitlines():
        if " = " in line:
            key, val = line.split(" = ", 1)
            report[key] = val
    return report


def test_witness_ghz_defaults(capsys):
    code, out = run_cli(capsys, ["witness", "--kind", "ghz", "--n", "3"])
    assert code == 0
    rep = parse_report(out)
    assert rep["epsilon_limit"] == "0.714285714286"
    assert rep["c"] == "0.75"
    assert rep["trace_w"] == "5"
    assert "expectation" not in rep


def test_witness_expectation_endpoints(capsys):
    code, out = run_cli(capsys, ["witness", "--kind", "ghz", "--n", "3", "--epsilon", "1"])
    assert code == 0
    assert parse_report(out)["expectation"] == "-0.25"
    code, out = run_cli(capsys, ["witness", "--kind", "ghz", "--n", "3", "--epsilon", "0"])
    assert code == 0
    assert parse_report(out)["expectation"] == "0.625"


def test_witness_json_report(capsys, tmp_path):
    path = tmp_path / "w.json"
    code, _ = run_cli(capsys, ["witness", "--kind", "w", "--n", "3", "--json", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert data["c"] == 0.25
    assert data["epsilon_limit"] == pytest.approx(1 / 7)


def test_sed_verify_pass_and_usage_error(capsys):
    code, out = run_cli(capsys, ["sed-verify", "--n", "2"])
    assert code == 0
    rep = parse_report(out)
    assert rep["passed"] == "True"
    assert float(rep["max_deviation"]) <= 1e-10
    with pytest.raises(SystemExit) as exc:
        main(["sed-verify", "--n", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("n", [3, 10])
@pytest.mark.parametrize("kind", ["ghz", "w"])
def test_ancilla_command(capsys, kind, n):
    code, out = run_cli(capsys, ["ancilla", "--kind", kind, "--n", str(n), "--p", "0.9"])
    assert code == 0
    rep = parse_report(out)
    assert abs(float(rep["recovered"]) - (select_witness(kind, n).c - 1)) <= 1e-10
    assert float(rep["difference"]) <= 1e-10
    assert float(rep["residual_trz"]) <= 1e-12
    assert float(rep["residual_ptilde"]) <= 1e-12


def test_ancilla_mixed_input(capsys):
    code, out = run_cli(
        capsys, ["ancilla", "--kind", "ghz", "--n", "3", "--p", "0.9", "--epsilon", "0"]
    )
    assert code == 0
    assert float(parse_report(out)["recovered"]) == pytest.approx(0.75 - 1 / 8, abs=1e-10)


def test_ancilla_ill_conditioned_p(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ancilla", "--p", "0.5"])
    assert exc.value.code == 2


def test_gatecount_table(capsys):
    code, out = run_cli(capsys, ["gatecount", "--n-min", "4", "--n-max", "8"])
    assert code == 0
    counts = [int(line.split(" = ")[1]) for line in out.splitlines() if line.startswith("G(")]
    assert len(counts) == 5
    assert all(b > a for a, b in zip(counts, counts[1:]))
    assert "fit_exponent" in out


def test_gatecount_single_row(capsys):
    code, out = run_cli(capsys, ["gatecount", "--n-min", "5", "--n-max", "5"])
    assert code == 0
    assert out.count("G(") == 1
    assert "fit_exponent" not in out


def test_sweep_csv_artifact(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    argv = [
        "sweep", "--kind", "ghz", "--n", "3",
        "--p-min", "0.5", "--p-max", "1.0", "--p-step", "0.25",
        "--h-min", "0.5", "--h-max", "1.0", "--h-step", "0.25",
        "--out", str(path),
    ]
    code, out = run_cli(capsys, argv)
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "p,h,value_conv,value_sed"
    assert len(lines) == 1 + 9
    last = lines[-1].split(",")
    assert float(last[2]) == pytest.approx(-0.25, abs=1e-10)
    assert out == (
        "rows = 9\n"
        "min_value_conv = -0.25\n"
        "min_value_sed = -0.25\n"
        "zero_crossing_h_value_conv = 1\n"
        "zero_crossing_h_value_sed = 1\n"
    )
    # byte-identical rerun
    first_bytes = path.read_bytes()
    code, _ = run_cli(capsys, argv)
    assert code == 0
    assert path.read_bytes() == first_bytes


def test_sweep_default_grid_has_121_rows(capsys, tmp_path):
    path = tmp_path / "full.csv"
    code, _ = run_cli(capsys, ["sweep", "--n", "3", "--out", str(path)])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 121


def test_sed_verify_n5(capsys):
    code, out = run_cli(capsys, ["sed-verify", "--n", "5", "--trials", "50"])
    assert code == 0
    assert parse_report(out)["passed"] == "True"


def test_sweep_identity_mode(capsys, tmp_path):
    path = tmp_path / "sep.csv"
    code, _ = run_cli(
        capsys,
        [
            "sweep", "--n", "3", "--entangler", "identity",
            "--p-step", "0.25", "--h-step", "0.25", "--out", str(path),
        ],
    )
    assert code == 0
    rows = path.read_text().strip().splitlines()[1:]
    assert all(float(r.split(",")[3]) >= -1e-10 for r in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--n", "3"],
        ["sed-verify", "--n", "2", "--trials", "3"],
        ["ancilla", "--n", "3"],
        ["gatecount", "--n-min", "4", "--n-max", "5"],
    ],
)
def test_unwritable_json_path_exits_1(argv, capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    assert main(argv + ["--json", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["witness", "--kind", "ghz", "--n", "1"],
        ["witness", "--kind", "ghz", "--n", "3", "--epsilon", "2"],
        ["sweep", "--n", "3", "--p-min", "0.9", "--p-max", "0.5", "--out", "x.csv"],
        ["sweep", "--n", "3", "--p-step", "0.3", "--h-min", "1", "--out", "x.csv"],
        ["sweep", "--n", "3", "--p-step", "1e-320", "--out", "x.csv"],
        ["sweep", "--n", "3", "--p-step", "nan", "--out", "x.csv"],
        ["ancilla", "--epsilon", "1.5"],
        ["ancilla", "--epsilon", "-0.1"],
        ["sed-verify", "--n", "3", "--trials", "0"],
        ["sed-verify", "--n", "3", "--trials", "-4"],
        ["nosuchcommand"],
        ["witness", "--epsilon", "nan"],
        ["ancilla", "--epsilon", "nan"],
        ["ancilla", "--p", "nan"],
        ["sed-verify", "--n", "8"],
        ["gatecount", "--n-min", "5", "--n-max", "4"],
        ["gatecount", "--n-max", "13"],
        ["sweep", "--n", "3", "--h-min", "nan", "--out", "x.csv"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err and err.split("error: ", 1)[1].strip(), (argv, err)


def _stdout_golden():
    """tests/data/cli_stdout.txt: '# argv: ...' lines, each followed by its stdout."""
    blocks = {}
    for block in (DATA / "cli_stdout.txt").read_text().split("# argv: ")[1:]:
        argv, out = block.split("\n", 1)
        blocks[argv] = out
    return blocks


STDOUT_GOLDEN = _stdout_golden()


@pytest.mark.parametrize("argv", sorted(STDOUT_GOLDEN))
def test_witness_stdout_matches_golden(argv, capsys):
    code, out = run_cli(capsys, argv.split())
    assert code == 0
    assert out == STDOUT_GOLDEN[argv]
