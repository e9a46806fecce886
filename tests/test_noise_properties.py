"""Property tests of the local gate kernel, the Pauli-transfer pull-back
and the Heisenberg sweep.

The library runs gate noise only as the pull-back `pull_back` of Pauli
coefficients.  Every check here compares it with the dense
Schroedinger-picture channel of `dense_oracle` (`dense_noisy_gate` and
`dense_noisy_run`): coefficient by coefficient through E_g^dag = E_{g^dag},
or by duality, Tr(O E(rho)) = 2**n sum_s c'_s rho_s for the pulled-back
coefficients c' of O and the coefficients rho_s of rho.  The forward
per-(p, h) sweep below is the implementation the Heisenberg sweep
replaced; it is kept as an oracle.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_oracle import (
    dense_gate,
    dense_noisy_gate,
    dense_noisy_run,
    embed_gate,
    pauli_operator,
    random_density_matrix,
    random_hermitian,
    thermal_matrix,
)
from sedwitness.circuit import (
    Circuit,
    Gate,
    circuit_unitary,
    dagger_circuit,
    expand_multicontrolled,
    select_entangler,
    vprime_dagger_circuit,
)
from sedwitness.noise import pull_back, sweep, thermal_readout
from sedwitness.sed import SedDecomposition
from sedwitness.tensor import SWAP, H, X, Z, haar_unitary, pauli_coefficients
from sedwitness.witness import select_witness


def forward_sweep(n, grid_p, grid_h, witness_kind, entangler_mode):
    """Schroedinger picture: one noisy forward run per (p, h), Z readouts by trace."""
    entangler, c = select_entangler(witness_kind, n), select_witness(witness_kind, n).c
    dec = SedDecomposition(n, c)
    psi_in = circuit_unitary(entangler)[:, 0]
    w_conv = c * np.eye(2**n) - np.outer(psi_in, psi_in.conj())
    prep = entangler if entangler_mode == "witness" else Circuit(n, ())
    measurement = dagger_circuit(entangler).then(expand_multicontrolled(vprime_dagger_circuit(n)))
    out = []
    for p in grid_p:
        rho0 = thermal_matrix(n, p)
        for h in grid_h:
            rho_prep = dense_noisy_run(prep, rho0, h)
            rho_f = dense_noisy_run(measurement, rho_prep, h)
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
    return n, circ, h, rng


def duality_gap(g, n, h, obs, rho):
    """|Tr(O E_g(rho)) - 2**n sum_s c'_s rho_s| for the noisy gate g: the
    dense channel on rho against the pull-back of O."""
    (pulled,) = pull_back(Circuit(n, (g,)), pauli_coefficients(obs), [h])
    dense = np.trace(obs @ dense_noisy_gate(rho, g, h))
    return abs(dense - 2**n * np.sum(pulled * pauli_coefficients(rho)))


@given(noisy_cases())
def test_local_kernel_matches_dense_formula(case):
    n, circ, h, rng = case
    obs, rho = random_hermitian(2**n, rng), random_density_matrix(2**n, rng)
    for g in circ:
        assert duality_gap(g, n, h, obs, rho) <= 1e-12


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
    # unsorted targets and zero-polarity controls: by duality and coefficient
    # by coefficient against the dense channel of g^dag
    rng = np.random.default_rng(3)
    obs, rho = random_hermitian(64, rng), random_density_matrix(64, rng)
    assert duality_gap(g, 6, h, obs, rho) <= 1e-12
    (got,) = pull_back(Circuit(6, (g,)), pauli_coefficients(obs), [h])
    assert np.max(np.abs(got - pauli_coefficients(dense_noisy_gate(obs, g.daggered(), h)))) <= 1e-12


@given(noisy_cases())
def test_circuit_unitary_matches_dense_product(case):
    n, circ, _, _ = case
    want = np.eye(2**n, dtype=complex)
    for g in circ:
        want = dense_gate(g, n) @ want
    assert np.max(np.abs(circuit_unitary(Circuit(n, tuple(circ))) - want)) <= 1e-12


@given(noisy_cases(max_n=5))
def test_every_noisy_step_is_physical(case):
    # E is positive, trace-preserving and unital, so its adjoint maps a PSD
    # observable to a PSD one with the same trace, gate after gate
    n, circ, h, rng = case
    coeffs = pauli_coefficients(random_density_matrix(2**n, rng))
    for g in reversed(circ):
        (coeffs,) = pull_back(Circuit(n, (g,)), coeffs, [h])
        assert abs(coeffs.flat[0] - 1 / 2**n) <= 1e-12
        assert np.linalg.eigvalsh(pauli_operator(coeffs))[0] >= -1e-10


@given(noisy_cases(max_n=5))
def test_adjoint_channel_is_dagger_circuit(case):
    # the pull-back through c is the dense noisy run of c^dag on O
    n, circ, h, rng = case
    c = Circuit(n, tuple(circ))
    obs = random_hermitian(2**n, rng)
    (got,) = pull_back(c, pauli_coefficients(obs), [h])
    assert np.max(np.abs(got - pauli_coefficients(dense_noisy_run(dagger_circuit(c), obs, h)))) <= 1e-12


@given(noisy_cases(max_n=5))
def test_pauli_pull_back_matches_noisy_gate(case):
    n, circ, h, rng = case
    obs = random_hermitian(2**n, rng)
    for g in circ:
        # E_g^dag = E_{g^dag}: pulling O back through g is the noisy run of g^dag on O
        want = pauli_coefficients(dense_noisy_gate(obs, g.daggered(), h))
        got = pull_back(Circuit(n, (g,)), pauli_coefficients(obs), [h])
        assert got.shape == (1,) + (4,) * n
        assert np.max(np.abs(got[0] - want)) <= 1e-12


def test_pull_back_walks_a_large_h_grid_in_chunks():
    # one walk at n = 8 takes 16 h values, so 17 take two walks
    n = 8
    rng = np.random.default_rng(7)
    c = Circuit(n, (Gate(H, (3,)), Gate(X, (8,), ((1, 0),)), Gate(haar_unitary(4, rng), (5, 2), ((7, 1),))))
    coeffs = rng.standard_normal((4,) * n)
    grid_h = np.linspace(0.0, 1.0, 17)
    got = pull_back(c, coeffs, grid_h)
    assert got.shape == (17,) + (4,) * n
    for row, h in zip(got, grid_h):
        assert np.max(np.abs(row - pull_back(c, coeffs, [h])[0])) <= 1e-12
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
            assert abs(value - np.trace(thermal_matrix(n, p) @ o).real) <= 1e-12


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
