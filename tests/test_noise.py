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
    _sweep_model,
    _walk,
    grid_values,
    pull_back,
    sweep,
    sweep_csv,
    thermal_readout,
    zero_crossing_h,
)
from sedwitness.states import make_ghz
from sedwitness.tensor import MAX_GRID_POINTS, SWAP, H, X, dagger, haar_unitary, pauli_coefficients
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
    with pytest.raises(ValueError, match=re.escape("p 1.5 out of [0, 1]")):
        sweep(3, [1.5], [1.0], "ghz")
    with pytest.raises(ValueError, match=re.escape("h 1.5 out of [0, 1]")):
        sweep(3, [1.0], [1.5], "ghz")
    # a grid value that is not a real number, a bool or a string, is named
    for bad in ("0.5", True):
        with pytest.raises(ValueError, match=f"^p {re.escape(repr(bad))} is not a real number$"):
            sweep(3, [bad], [1.0])
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
    # a step so fine that the axis would pass MAX_GRID_POINTS is refused
    # before the axis is allocated, with the step, the range and the count
    with pytest.raises(ValueError, match=re.escape("step 1e-13 gives 5000000000001 points in the range [0.5, 1]")):
        grid_values(0.5, 1.0, 1e-13)
    assert len(grid_values(0.0, 1.0, 1 / (MAX_GRID_POINTS - 1))) == MAX_GRID_POINTS
    with pytest.raises(ValueError, match=f"gives {MAX_GRID_POINTS + 1} points"):
        grid_values(0.0, 1.0, 1 / MAX_GRID_POINTS)
    # a step that divides the range only up to rounding is accepted
    grid = grid_values(0.8, 1.0, (1.0 - 0.8) / 3)
    assert len(grid) == 4 and grid[0] == 0.8 and grid[-1] == 1.0


# bad sweep calls and their messages; the grid, the mode, the kind and n
# are checked on every call, with or without a cached model
SWEEP_ERRORS = [
    ((3, [1.5], [1.0], "ghz"), "p 1.5 out of [0, 1]"),
    ((3, [1.0], [1.5], "ghz"), "h 1.5 out of [0, 1]"),
    ((3, [1.0], [1.5], "ghz", "identity"), "h 1.5 out of [0, 1]"),
    ((3, [1.0], [1.0], "ghz", "Witness"), "unknown entangler mode 'Witness'"),
    ((3, [1.0], [1.0], "nope"), "unknown entangler kind 'nope'"),
    ((3, [1.0], [1.0], "generic"), "unknown entangler kind 'generic'"),
    ((3, [1.0], [1.0], None), "unknown entangler kind None"),
    ((3, [1.0], [1.0], ["ghz"]), "unknown entangler kind ['ghz']"),
    ((3.0, [1.0], [1.0], "ghz"), "n 3.0 is not an integer"),
    (("3", [1.0], [1.0], "ghz"), "n '3' is not an integer"),
]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("args, message", SWEEP_ERRORS, ids=[m for _, m in SWEEP_ERRORS])
def test_sweep_errors_hold_with_the_model_cached(warm, args, message):
    # hash(3.0) == hash(3): a float n must fail before and after a good call
    _sweep_model.cache_clear()
    if warm:
        sweep(3, [1.0], [1.0], "ghz")
        sweep(3, [1.0], [1.0], "ghz", "identity")
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep(*args)


@pytest.mark.parametrize("kind", ["ghz", "w"])
@pytest.mark.parametrize("mode", ["witness", "identity"])
def test_cold_and_warm_sweeps_write_the_same_bytes(kind, mode):
    grid = grid_values(0.5, 1.0, 0.1)
    _sweep_model.cache_clear()
    cold = sweep_csv(sweep(5, grid, grid, kind, mode))
    sweep(5, [0.9], [0.3, 0.8], kind, mode)
    warm = sweep_csv(sweep(5, grid, grid, kind, mode))
    info = _sweep_model.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert cold == warm


def test_sweep_model_is_read_only():
    model = _sweep_model("w", 4, "witness")
    arrays = [model.projector, model.readout, *model.prep.transfers, *model.measured.transfers]
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        model.readout[0, 0, 0, 3] = 1.0
    assert all(isinstance(x, tuple) for x in (model.measured.steps, model.measured.restore, model.measured.transfers))


def test_walk_leaves_the_plan_unchanged():
    plan = _sweep_model("ghz", 5, "witness").measured
    transfers = [r.copy() for r in plan.transfers]
    coeffs = np.random.default_rng(2).standard_normal((4,) * 5)
    first = _walk(plan, coeffs, [0.7, 1.0])
    assert len(plan.transfers) == len(transfers)
    assert all(np.array_equal(a, b) for a, b in zip(plan.transfers, transfers))
    assert np.array_equal(_walk(plan, coeffs, [0.7, 1.0]), first)


def test_kind_and_n_spellings_share_one_model():
    _sweep_model.cache_clear()
    assert sweep(3, [1.0], [0.9], "GHZ") == sweep(3, [1.0], [0.9], "ghz") == sweep(np.int64(3), [1.0], [0.9], "Ghz")
    info = _sweep_model.cache_info()
    assert (info.currsize, info.hits) == (1, 2)


def test_sweep_at_n10_reads_the_witness_at_h1():
    # the CLI's largest n: through noiseless gates the single-run readout is
    # the conventional value at every p, and the pure target reads c - 1.
    # ghz only: each n = 10 sweep takes about 2.5 s of the suite
    records = sweep(10, [0.5, 1.0], [1.0], "ghz")
    assert [(r.p, r.h) for r in records] == [(0.5, 1.0), (1.0, 1.0)]
    for r in records:
        assert abs(r.value_sed - r.value_conv) <= 1e-10
    assert abs(records[-1].value_conv - (select_witness("ghz", 10).c - 1)) <= 1e-12


def test_w_sweep_at_n10_reads_the_witness_at_h1():
    # the same check for w, whose entangler and witness differ from ghz's:
    # c = (n - 1) / n, so the noiseless pure target reads c - 1 = -0.1
    records = sweep(10, [0.5, 1.0], [1.0], "w")
    assert [(r.p, r.h) for r in records] == [(0.5, 1.0), (1.0, 1.0)]
    for r in records:
        assert abs(r.value_sed - r.value_conv) <= 1e-10
    assert abs(records[-1].value_conv + 0.1) <= 1e-12


def test_w_kind_sweep_smoke():
    records = sweep(3, [1.0], [1.0], "w")
    assert records[0].value_conv == pytest.approx(0.25 - 1.0, abs=1e-10)
    assert abs(records[0].value_sed - records[0].value_conv) <= 1e-10


@pytest.mark.parametrize(
    "kind, n", [("ghz", 3), ("w", 3), ("ghz", 6), ("w", 6)], ids=["ghz", "w", "ghz-n6", "w-n6"]
)
def test_default_grid_matches_golden_csv(kind, n):
    # tests/data/sweep_<kind>_n<n>.csv, the default 11 x 11 grid.  At n = 3
    # it comes from the forward (Schroedinger-picture) sweep with dense gate
    # matrices.  At n = 6 it comes from the Pauli-transfer sweep, checked on
    # the whole grid against the forward sweep of test_noise_properties to
    # 1e-15.  Of the 215 gates of sed_measurement_circuit(6), 113 make the
    # relative-phase C5(-iH) that opens it and 93 expand the other
    # zero-controlled CnH gates, against 9 of 12 at n = 3
    golden = (DATA / f"sweep_{kind}_n{n}.csv").read_text().splitlines()
    grid = grid_values(0.5, 1.0, 0.05)
    ours = sweep_csv(sweep(n, grid, grid, kind)).splitlines()
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
