import json
import re
from pathlib import Path

import numpy as np
import pytest

from dense_oracle import kron, pauli_operator, random_density_matrix, random_hermitian
from sedwitness.circuit import Circuit, Gate, circuit_unitary, ghz_entangler
from sedwitness.cli import main
from sedwitness.noise import (
    SweepRecord,
    grid_values,
    pull_back,
    sweep,
    sweep_csv,
    thermal_readout,
    zero_crossing_h,
)
from sedwitness.states import make_ghz
from sedwitness.tensor import SWAP, H, X, dagger, haar_unitary, pauli_coefficients
from sedwitness.witness import select_witness

DATA = Path(__file__).with_name("data")


def test_success_probability_policy():
    # R_g is orthogonal, so a string that is not the identity on the gate's
    # k qubits keeps its norm up to the damping p_s = h**k
    rng = np.random.default_rng(4)
    h = 0.9
    for g, k in [
        (Gate(H, (1,)), 1),
        (Gate(X, (2,), ((1, 1),)), 2),
        (Gate(SWAP, (1, 2)), 2),
        (Gate(haar_unitary(2, rng), (3,)), 1),
        (Gate(X, (4,), ((1, 0), (2, 0), (3, 0))), 4),
    ]:
        coeffs = np.zeros((4,) * 4)
        coeffs[tuple(int(rng.integers(1, 4)) if q in g.qubits() else 0 for q in range(1, 5))] = 1.0
        pulled = pull_back(Circuit(4, (g,)), coeffs, [h, 1.0])
        assert np.linalg.norm(pulled[0]) == pytest.approx(h**k, abs=1e-12)
        assert np.linalg.norm(pulled[1]) == pytest.approx(1.0, abs=1e-12)
    for bad in (1.5, -0.1):
        with pytest.raises(ValueError, match=re.escape(f"h {bad} out of [0, 1]")):
            pull_back(Circuit(1, ()), np.zeros(4), [1.0, bad])


def test_perfect_gate_is_unitary_conjugation():
    # at h = 1 the pull-back is O -> U^dag O U
    rng = np.random.default_rng(2)
    obs = random_hermitian(8, rng)
    g = Gate(X, (3,), ((1, 1),))
    u = circuit_unitary(Circuit(3, (g,)))
    (out,) = pull_back(Circuit(3, (g,)), pauli_coefficients(obs), [1.0])
    assert np.max(np.abs(out - pauli_coefficients(dagger(u) @ obs @ u))) <= 1e-12


def test_full_failure_mixes_target_block():
    # at h = 0 a gate on qubit 1 replaces that qubit by 1/2: the pulled-back
    # observable is the identity there, and Tr(O E(rho_a (x) rho_b)) = Tr(O (1/2 (x) rho_b))
    rng = np.random.default_rng(6)
    rho_a = random_density_matrix(2, rng)
    rho_b = random_density_matrix(4, rng)
    obs = random_hermitian(8, rng)
    (out,) = pull_back(Circuit(3, (Gate(H, (1,)),)), pauli_coefficients(obs), [0.0])
    assert np.max(np.abs(out[1:])) <= 1e-12
    got = np.trace(pauli_operator(out) @ kron(rho_a, rho_b))
    want = np.trace(obs @ kron(np.eye(2) / 2, rho_b))
    assert abs(got - want) <= 1e-12


def test_noisy_gate_rejects_qubit_zero():
    # qubit 0 would land outside the coefficient axes; such a gate cannot be built
    coeffs = np.zeros((4, 4))
    with pytest.raises(ValueError):
        pull_back(Circuit(2, (Gate(X, (0,)),)), coeffs, [1.0])
    with pytest.raises(ValueError):
        pull_back(Circuit(2, (Gate(X, (1,), ((0, 1),)),)), coeffs, [1.0])


def test_noisy_gate_preserves_trace():
    # the channel is trace-preserving and unital: the identity string pulls
    # back to itself, and so does the identity coefficient of any observable
    rng = np.random.default_rng(12)
    c = Circuit(3, (Gate(X, (2,), ((1, 1),)),))
    identity = np.zeros((4, 4, 4))
    identity[0, 0, 0] = 1.0
    (out,) = pull_back(c, identity, [0.7])
    assert np.max(np.abs(out - identity)) <= 1e-12
    coeffs = pauli_coefficients(random_hermitian(8, rng))
    (out,) = pull_back(c, coeffs, [0.7])
    assert abs(out[0, 0, 0] - coeffs[0, 0, 0]) <= 1e-12


def test_simulate_noiseless_matches_unitary():
    # the noiseless pull-back through a whole circuit is U^dag O U, and an
    # empty circuit returns its input unchanged at any h
    rng = np.random.default_rng(14)
    c = ghz_entangler(3)
    obs = random_hermitian(8, rng)
    u = circuit_unitary(c)
    (out,) = pull_back(c, pauli_coefficients(obs), [1.0])
    assert np.max(np.abs(out - pauli_coefficients(dagger(u) @ obs @ u))) <= 1e-12
    coeffs = pauli_coefficients(obs)
    assert np.array_equal(pull_back(Circuit(3, ()), coeffs, [0.3])[0], coeffs)


def test_noisy_ghz_fidelity_strictly_between_zero_and_one():
    # <GHZ| E(|000><000|) |GHZ>: the GHZ projector pulled back, read at p = 1
    projector = pauli_coefficients(make_ghz(3).density())
    ((fid,),) = thermal_readout(pull_back(ghz_entangler(3), projector, [0.9]), [1.0])
    assert 0.0 < fid < 1.0


def test_noisy_outputs_stay_physical():
    # the adjoint of a positive channel is positive: a PSD observable pulls
    # back to a PSD sum_s c_s P_s (Hermitian since the c_s are real)
    rng = np.random.default_rng(23)
    kinds = [
        lambda q: Gate(H, (q[0],)),
        lambda q: Gate(X, (q[0],)),
        lambda q: Gate(X, (q[1],), ((q[0], 1),)),
        lambda q: Gate(SWAP, (q[0], q[1])),
        lambda q: Gate(X, (q[2],), ((q[0], 0), (q[1], 1))),
    ]
    for h in (0.0, 0.5, 0.9, 1.0):
        obs = random_density_matrix(8, rng)
        gates = []
        for _ in range(8):
            qubits = [int(q) for q in rng.permutation([1, 2, 3])]
            gates.append(kinds[rng.integers(len(kinds))](qubits))
        (out,) = pull_back(Circuit(3, tuple(gates)), pauli_coefficients(obs), [h])
        assert out.dtype == float
        assert abs(out[0, 0, 0] - 1 / 8) <= 1e-12
        assert np.linalg.eigvalsh(pauli_operator(out))[0] >= -1e-10


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


@pytest.mark.parametrize("kind", ["ghz", "w"])
def test_sweep_closed_forms_at_n_8(kind):
    # the channel is unital, so p = 1/2 (the maximally mixed input) reads
    # c - 2**-8 at every h; without noise the single-run readout is exact
    c = select_witness(kind, 8).c
    records = sweep(8, [0.5, 0.8, 1.0], [0.6, 1.0], kind)
    assert len(records) == 6
    for r in records:
        if r.p == 0.5:
            assert abs(r.value_conv - (c - 2**-8)) <= 1e-12
            assert abs(r.value_sed - (c - 2**-8)) <= 1e-12
        if r.h == 1.0:
            assert abs(r.value_sed - r.value_conv) <= 1e-12


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


def test_zero_crossing_ignores_rounding_around_zero():
    # only a value below -ATOL_ALGEBRA is negative; rounding noise around an
    # analytic 0 at the top h neither starts nor extends a crossing
    def row(top):
        return [SweepRecord(1.0, 0.9, 0.0, -0.5), SweepRecord(1.0, 1.0, 0.0, top)]

    assert zero_crossing_h(row(-1e-17), 1.0) is None
    assert zero_crossing_h(row(-1e-6), 1.0) == 0.9
    assert zero_crossing_h([SweepRecord(1.0, 1.0, -1e-6, 0.0)], 1.0, "value_conv") == 1.0


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
