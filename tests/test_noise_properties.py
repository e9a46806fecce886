"""Property tests of the local gate kernel, the Pauli-transfer pull-back
and the Heisenberg sweep.

The dense gate matrix, the dense noisy-gate formula and the forward
per-(p, h) sweep below are the implementations the kernel and the sweep
replaced; they are kept here as oracles.  The Pauli pull-back of a noisy
gate is checked against the density-matrix channel `apply_noisy_gate`.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_oracle import embed_gate, reorder_qubits
from sedwitness.circuit import (
    Circuit,
    Gate,
    circuit_unitary,
    dagger_circuit,
    expand_multicontrolled,
    select_entangler,
    vprime_dagger_circuit,
)
from sedwitness.noise import NoiseModel, apply_noisy_gate, pull_back, simulate_noisy, sweep, thermal_readout
from sedwitness.sed import build_vprime
from sedwitness.states import ThermalProductState, thermal_matrix
from sedwitness.tensor import (
    SWAP,
    H,
    X,
    Z,
    dagger,
    haar_unitary,
    kron,
    n_qubits,
    partial_trace,
    pauli_coefficients,
    random_density_matrix,
)
from sedwitness.witness import select_witness


def dense_gate(g, n):
    """Full 2**n unitary of g: the controlled block on g.qubits() (controls
    first, then targets), embedded in the register."""
    proj = np.array([1.0], dtype=complex)
    for _, pol in g.controls:
        proj = np.kron(proj, np.array([1.0 - pol, float(pol)], dtype=complex))
    proj = np.diag(proj)
    block = kron(proj, g.base) + kron(np.eye(proj.shape[0]) - proj, np.eye(g.base.shape[0]))
    return embed_gate(block, g.qubits(), n)


def dense_noisy_gate(rho, g, model):
    """p_s U rho U^dag + (1 - p_s) Tr_t(rho) (x) 1/2**k with full 2**n matrices."""
    n = n_qubits(rho.shape[0])
    touched = sorted(g.qubits())
    u = dense_gate(g, n)
    ps = model.p_success(g)
    ideal = u @ rho @ dagger(u)
    if ps == 1.0:
        return ideal
    keep = [q for q in range(1, n + 1) if q not in touched]
    d = 2 ** len(touched)
    mixed = reorder_qubits(kron(partial_trace(rho, keep), np.eye(d) / d), keep + touched)
    return ps * ideal + (1 - ps) * mixed


def forward_sweep(n, grid_p, grid_h, witness_kind, entangler_mode):
    """Schroedinger picture: one noisy forward run per (p, h), Z readouts by trace."""
    entangler, c = select_entangler(witness_kind, n), select_witness(witness_kind, n).c
    dec = build_vprime(n, c)
    psi_in = circuit_unitary(entangler)[:, 0]
    w_conv = c * np.eye(2**n) - np.outer(psi_in, psi_in.conj())
    prep = entangler if entangler_mode == "witness" else Circuit(n, ())
    measurement = dagger_circuit(entangler).then(expand_multicontrolled(vprime_dagger_circuit(n)))
    out = []
    for p in grid_p:
        rho0 = thermal_matrix(ThermalProductState(n, p))
        for h in grid_h:
            model = NoiseModel(h)
            rho_prep = simulate_noisy(prep, rho0, model)
            rho_f = simulate_noisy(measurement, rho_prep, model)
            value_sed = dec.a0 + sum(
                dec.a[k - 1] * np.trace(rho_f @ embed_gate(Z, [n - k + 1], n)).real for k in range(1, n + 1)
            )
            out.append((p, h, np.trace(w_conv @ rho_prep).real, value_sed))
    return out


@st.composite
def gates(draw, n, max_k=3):
    """A 1-3 qubit gate on distinct, unsorted qubits of an n-qubit register."""
    k = draw(st.integers(1, min(max_k, n)))
    qubits = draw(st.permutations(range(1, n + 1)))[:k]
    n_targets = draw(st.integers(1, min(2, k)))
    controls = tuple((q, draw(st.integers(0, 1))) for q in qubits[n_targets:])
    targets = tuple(qubits[:n_targets])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    named = {(1, False): [H, X], (2, False): [SWAP], (1, True): [X, H]}
    base = draw(st.sampled_from(named.get((n_targets, bool(controls)), []) + [None]))
    if base is None:
        base = haar_unitary(2**n_targets, rng)
    return Gate(base, targets, controls)


@st.composite
def noisy_cases(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circ = draw(st.lists(gates(n), min_size=1, max_size=6))
    h = draw(st.floats(0.0, 1.0))
    return n, circ, NoiseModel(h), rng


def random_matrix(dim, rng):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_hermitian(dim, rng):
    m = random_matrix(dim, rng)
    return m + m.conj().T


@given(noisy_cases())
def test_local_kernel_matches_dense_formula(case):
    n, circ, model, rng = case
    m = random_matrix(2**n, rng)  # the channel is linear, so any matrix will do
    for g in circ:
        assert np.max(np.abs(apply_noisy_gate(m, g, model) - dense_noisy_gate(m, g, model))) <= 1e-12


@pytest.mark.parametrize(
    "g",
    [
        Gate(SWAP, (6, 1)),
        Gate(X, (2,), ((5, 0), (3, 0))),
        Gate(H, (1,), ((6, 0), (4, 1))),
        Gate(X, (3,), ((6, 0),)),
    ],
    ids=lambda g: g.label,
)
@pytest.mark.parametrize("h", [0.0, 0.37, 1.0])
def test_local_kernel_unsorted_and_zero_controls(g, h):
    rng = np.random.default_rng(3)
    m = random_matrix(64, rng)
    model = NoiseModel(h)
    assert np.max(np.abs(apply_noisy_gate(m, g, model) - dense_noisy_gate(m, g, model))) <= 1e-12


@given(noisy_cases())
def test_circuit_unitary_matches_dense_product(case):
    n, circ, _, _ = case
    want = np.eye(2**n, dtype=complex)
    for g in circ:
        want = dense_gate(g, n) @ want
    assert np.max(np.abs(circuit_unitary(Circuit(n, tuple(circ))) - want)) <= 1e-12


@given(noisy_cases(max_n=5))
def test_every_noisy_step_is_physical(case):
    n, circ, model, rng = case
    rho = random_density_matrix(2**n, rng)
    for g in circ:
        rho = apply_noisy_gate(rho, g, model)
        assert abs(np.trace(rho) - 1) <= 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(rho)[0] >= -1e-10


@given(noisy_cases(max_n=5))
def test_adjoint_channel_is_dagger_circuit(case):
    n, circ, model, rng = case
    c = Circuit(n, tuple(circ))
    rho = random_density_matrix(2**n, rng)
    obs = random_matrix(2**n, rng)
    obs = obs + obs.conj().T
    schroedinger = np.trace(obs @ simulate_noisy(c, rho, model))
    heisenberg = np.trace(simulate_noisy(dagger_circuit(c), obs, model) @ rho)
    assert abs(schroedinger - heisenberg) <= 1e-12


@given(noisy_cases(max_n=5))
def test_pauli_pull_back_matches_noisy_gate(case):
    n, circ, model, rng = case
    obs = random_hermitian(2**n, rng)
    for g in circ:
        # E_g^dag = E_{g^dag}: pulling O back through g is the noisy run of g^dag on O
        want = pauli_coefficients(apply_noisy_gate(obs, g.daggered(), model))
        got = pull_back(Circuit(n, (g,)), pauli_coefficients(obs), [model])
        assert got.shape == (1,) + (4,) * n
        assert np.max(np.abs(got[0] - want)) <= 1e-12


def test_pull_back_walks_a_large_h_grid_in_chunks():
    # one walk at n = 8 takes 16 models, so 17 models take two walks
    n = 8
    rng = np.random.default_rng(7)
    c = Circuit(n, (Gate(H, (3,)), Gate(X, (8,), ((1, 0),)), Gate(haar_unitary(4, rng), (5, 2), ((7, 1),))))
    coeffs = rng.standard_normal((4,) * n)
    models = [NoiseModel(h) for h in np.linspace(0.0, 1.0, 17)]
    got = pull_back(c, coeffs, models)
    assert got.shape == (17,) + (4,) * n
    for row, model in zip(got, models):
        assert np.max(np.abs(row - pull_back(c, coeffs, [model])[0])) <= 1e-12
    assert pull_back(c, coeffs, []).shape == (0,) + (4,) * n


@given(st.integers(1, 5), st.lists(st.floats(0.0, 1.0), max_size=3), st.integers(0, 2**32 - 1))
def test_thermal_readout_matches_trace(n, extra_p, seed):
    rng = np.random.default_rng(seed)
    grid_p = [0.5, 1.0] + extra_p
    obs = [random_hermitian(2**n, rng) for _ in range(2)]
    got = thermal_readout(np.array([pauli_coefficients(o) for o in obs]), grid_p)
    assert got.shape == (2, len(grid_p))
    for row, o in zip(got, obs):
        for value, p in zip(row, grid_p):
            assert abs(value - np.trace(thermal_matrix(ThermalProductState(n, p)) @ o).real) <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["ghz", "w"])
@pytest.mark.parametrize("mode", ["witness", "identity"])
def test_heisenberg_sweep_matches_forward_oracle(n, kind, mode):
    grid_p, grid_h = [0.55, 0.8, 1.0], [0.6, 0.9, 1.0]
    records = sweep(n, grid_p, grid_h, kind, entangler_mode=mode)
    oracle = forward_sweep(n, grid_p, grid_h, kind, mode)
    assert [(r.p, r.h) for r in records] == [(p, h) for p, h, _, _ in oracle]
    for r, (_, _, conv, sed) in zip(records, oracle):
        assert abs(r.value_conv - conv) <= 1e-12
        assert abs(r.value_sed - sed) <= 1e-12
