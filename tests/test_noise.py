import json
import re
from pathlib import Path

import numpy as np
import pytest

from sedwitness.circuit import Circuit, Gate, circuit_unitary, ghz_entangler
from sedwitness.cli import main
from sedwitness.noise import (
    NoiseModel,
    apply_noisy_gate,
    grid_values,
    simulate_noisy,
    sweep,
    sweep_csv,
    zero_crossing_h,
)
from sedwitness.states import make_ghz
from sedwitness.tensor import SWAP, H, X, dagger, kron, random_density_matrix

DATA = Path(__file__).with_name("data")


def test_success_probability_policy():
    m = NoiseModel(0.9)
    assert m.p_success(Gate(H, (1,))) == pytest.approx(0.9)
    assert m.p_success(Gate(X, (2,), ((1, 1),))) == pytest.approx(0.81)
    assert m.p_success(Gate(SWAP, (1, 2))) == pytest.approx(0.81)
    assert m.p_success(Gate(X, (4,), ((1, 0), (2, 0), (3, 0)))) == pytest.approx(0.9**4)
    with pytest.raises(ValueError):
        NoiseModel(1.5)


def test_perfect_gate_is_unitary_conjugation():
    rng = np.random.default_rng(2)
    rho = random_density_matrix(8, rng)
    g = Gate(X, (3,), ((1, 1),))
    u = circuit_unitary(Circuit(3, (g,)))
    out = apply_noisy_gate(rho, g, NoiseModel(1.0))
    assert np.max(np.abs(out - u @ rho @ dagger(u))) <= 1e-12


def test_full_failure_mixes_target_block():
    rng = np.random.default_rng(6)
    rho_a = random_density_matrix(2, rng)
    rho_b = random_density_matrix(4, rng)
    joint = kron(rho_a, rho_b)
    out = apply_noisy_gate(joint, Gate(H, (1,)), NoiseModel(0.0))
    assert np.max(np.abs(out - kron(np.eye(2) / 2, rho_b))) <= 1e-12


def test_noisy_gate_rejects_qubit_zero():
    # qubit 0 would land on the last axis of rho; such a gate cannot be built
    rho = np.diag([1.0, 0, 0, 0]).astype(complex)
    with pytest.raises(ValueError):
        apply_noisy_gate(rho, Gate(X, (0,)), NoiseModel(1.0))
    with pytest.raises(ValueError):
        apply_noisy_gate(rho, Gate(X, (1,), ((0, 1),)), NoiseModel(1.0))


def test_noisy_gate_preserves_trace():
    rng = np.random.default_rng(12)
    rho = random_density_matrix(8, rng)
    out = apply_noisy_gate(rho, Gate(X, (2,), ((1, 1),)), NoiseModel(0.7))
    assert abs(np.trace(out) - 1) <= 1e-12


def test_simulate_noiseless_matches_unitary():
    rng = np.random.default_rng(14)
    c = ghz_entangler(3)
    rho = random_density_matrix(8, rng)
    u = circuit_unitary(c)
    assert np.max(np.abs(simulate_noisy(c, rho, NoiseModel(1.0)) - u @ rho @ dagger(u))) <= 1e-12
    assert np.array_equal(simulate_noisy(Circuit(3, ()), rho, NoiseModel(0.3)), rho)


def test_noisy_ghz_fidelity_strictly_between_zero_and_one():
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    out = simulate_noisy(ghz_entangler(3), rho0, NoiseModel(0.9))
    fid = (make_ghz(3).amplitudes.conj() @ out @ make_ghz(3).amplitudes).real
    assert 0.0 < fid < 1.0


def test_noisy_outputs_stay_physical():
    rng = np.random.default_rng(23)
    kinds = [
        lambda q: Gate(H, (q[0],)),
        lambda q: Gate(X, (q[0],)),
        lambda q: Gate(X, (q[1],), ((q[0], 1),)),
        lambda q: Gate(SWAP, (q[0], q[1])),
        lambda q: Gate(X, (q[2],), ((q[0], 0), (q[1], 1))),
    ]
    for h in (0.0, 0.5, 0.9, 1.0):
        rho = random_density_matrix(8, rng)
        gates = []
        for _ in range(8):
            qubits = list(rng.permutation([1, 2, 3]))
            gates.append(kinds[rng.integers(len(kinds))](qubits))
        out = simulate_noisy(Circuit(3, tuple(gates)), rho, NoiseModel(h))
        assert abs(np.trace(out) - 1) <= 1e-12
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(out)[0] >= -1e-10


def test_maximally_mixed_is_noise_invariant():
    # p = 1/2 thermal state is identity/8; every record gives c - 1/8
    records = sweep(3, [0.5], grid_values(0.5, 1.0, 0.1), "ghz")
    for r in records:
        assert r.value_conv == pytest.approx(0.75 - 1 / 8, abs=1e-10)
        assert r.value_sed == pytest.approx(0.75 - 1 / 8, abs=1e-10)


def test_sweep_h1_column_and_corner():
    records = sweep(3, grid_values(0.5, 1.0, 0.1), [1.0], "ghz")
    for r in records:
        assert abs(r.value_sed - r.value_conv) <= 1e-10
    corner = [r for r in records if r.p == 1.0][0]
    assert corner.value_conv == pytest.approx(-0.25, abs=1e-10)


def test_sweep_grid_shape_and_order():
    gp = grid_values(0.5, 1.0, 0.05)
    gh = grid_values(0.5, 1.0, 0.05)
    assert len(gp) == len(gh) == 11
    assert gp[0] == 0.5 and gp[-1] == 1.0
    records = sweep(3, gp[:3], gh[:2], "ghz")
    assert [(r.p, r.h) for r in records] == [(p, h) for p in gp[:3] for h in gh[:2]]


def test_sweep_csv_format():
    records = sweep(3, [0.5, 1.0], [1.0], "ghz")
    text = sweep_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == "p,h,value_conv,value_sed"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0.5" and first[1] == "1"
    assert float(lines[2].split(",")[2]) == pytest.approx(-0.25, abs=1e-10)


def test_zero_crossing_walk():
    records = sweep(3, [1.0], grid_values(0.8, 1.0, 0.01), "ghz")
    conv_cross = zero_crossing_h(records, 1.0, "value_conv")
    sed_cross = zero_crossing_h(records, 1.0, "value_sed")
    assert conv_cross is not None and sed_cross is not None
    assert sed_cross >= conv_cross - 1e-12


def test_identity_entangler_stays_nonnegative_sample():
    records = sweep(3, [0.6, 1.0], [0.7, 0.9, 1.0], "ghz", entangler_mode="identity")
    for r in records:
        assert r.value_sed >= -1e-10


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(3, [1.5], [1.0], "ghz")
    with pytest.raises(ValueError):
        sweep(3, [1.0], [1.0], "nope")
    with pytest.raises(ValueError):
        grid_values(1.0, 0.5, 0.1)
    for step in (0.3, 1e10):
        with pytest.raises(ValueError, match=re.escape(f"step {step:g} does not divide the range [0.5, 1]")):
            grid_values(0.5, 1.0, step)
    assert grid_values(0.7, 0.7, 1e10) == [0.7]
    # a step too small for the range, or any value that is not finite, is named
    tiny = 1e-320  # (hi - lo) / tiny overflows to inf
    with pytest.raises(ValueError, match=re.escape(f"step {tiny:g} is too small for the range [0.5, 1]")):
        grid_values(0.5, 1.0, tiny)
    for lo, hi, step in ((0.5, 1.0, float("nan")), (0.5, float("inf"), 0.1), (float("-inf"), 1.0, 0.1)):
        with pytest.raises(ValueError, match=re.escape(f"step {step:g} and range [{lo:g}, {hi:g}] must be finite")):
            grid_values(lo, hi, step)
    # a step that divides the range only up to rounding is accepted
    grid = grid_values(0.8, 1.0, (1.0 - 0.8) / 3)
    assert len(grid) == 4 and grid[0] == 0.8 and grid[-1] == 1.0


def test_w_kind_sweep_smoke():
    records = sweep(3, [1.0], [1.0], "w")
    assert records[0].value_conv == pytest.approx(0.25 - 1.0, abs=1e-10)
    assert abs(records[0].value_sed - records[0].value_conv) <= 1e-10


@pytest.mark.parametrize("kind", ["ghz", "w"])
def test_default_grid_matches_golden_csv(kind):
    # tests/data/sweep_<kind>_n3.csv: the default 11 x 11 grid at n = 3 from
    # the forward (Schroedinger-picture) sweep with dense gate matrices
    golden = (DATA / f"sweep_{kind}_n3.csv").read_text().splitlines()
    grid = grid_values(0.5, 1.0, 0.05)
    ours = sweep_csv(sweep(3, grid, grid, kind)).splitlines()
    assert ours[0] == golden[0] and len(ours) == len(golden)
    for line, ref in zip(ours[1:], golden[1:]):
        got, want = line.split(","), ref.split(",")
        assert got[:2] == want[:2]
        assert all(abs(float(x) - float(y)) <= 1e-12 for x, y in zip(got[2:], want[2:]))


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize("kind", ["ghz", "w"])
def test_sweep_uses_cli_witness_constant(n, kind, tmp_path, capsys):
    path = tmp_path / "w.json"
    assert main(["witness", "--kind", kind, "--n", str(n), "--json", str(path)]) == 0
    capsys.readouterr()
    # the noiseless pure target reads c - 1 at p = h = 1
    (record,) = sweep(n, [1.0], [1.0], kind)
    assert abs(record.value_conv - (json.loads(path.read_text())["c"] - 1)) <= 1e-12
