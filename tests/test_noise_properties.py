"""Property tests of the local gate kernel, the Pauli-transfer pull-back
and the Heisenberg sweep.

The library runs gate noise only as the pull-back `pull_back` of Pauli
coefficients.  The checks here compare it with the dense
Schroedinger-picture channel of `dense_oracle` (`dense_noisy_gate` and
`dense_noisy_run`): coefficient by coefficient through E_g^dag = E_{g^dag},
or by duality, Tr(O E(rho)) = 2**n sum_s c'_s rho_s for the pulled-back
coefficients c' of O and the coefficients rho_s of rho.  Long circuits,
whose gates `pull_back` fuses into blocks, are compared with the walk one
gate at a time, `per_gate_pull_back`.  The forward per-(p, h) sweep below
is the implementation the Heisenberg sweep replaced; it is kept as an
oracle.
"""

import time
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_oracle import (
    dense_gate,
    dense_noisy_gate,
    dense_noisy_run,
    embed_gate,
    pauli_coefficients,
    pauli_operator,
    per_gate_pull_back,
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
    sed_measurement_circuit,
    select_entangler,
    vprime_dagger_circuit,
)
from sedwitness.noise import (
    _adjoint_transfer,
    _block_map,
    _gate_maps,
    _sweep_model,
    _walk,
    _walk_plan,
    grid_values,
    pull_back,
    sweep,
    thermal_readout,
)
from sedwitness.sed import SedDecomposition
from sedwitness.states import PureState
from sedwitness.tensor import ATOL_SECTOR, SWAP, H, X, Z, haar_unitary
from sedwitness.witness import select_witness


def forward_sweep(n, grid_p, grid_h, witness_kind, entangler_mode):
    """Schroedinger picture: one noisy forward run per (p, h), Z readouts by trace."""
    entangler, c = select_entangler(witness_kind, n), select_witness(witness_kind, n).c
    dec = SedDecomposition(n, c)
    psi_in = circuit_unitary(entangler)[:, 0]
    w_conv = c * np.eye(2**n) - np.outer(psi_in, psi_in.conj())
    prep = entangler if entangler_mode == "witness" else Circuit(n, ())
    measurement = dagger_circuit(entangler).then(sed_measurement_circuit(n))
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
    """A 1-3 qubit gate on distinct, unsorted qubits of an n-qubit register.
    With no target it is a controlled phase, whose Haar base is one phase."""
    k = draw(st.integers(1, min(max_k, n)))
    qubits = draw(st.permutations(range(1, n + 1)))[:k]
    n_targets = draw(st.integers(0, min(2, k)))
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


@st.composite
def walk_cases(draw, max_n=6):
    """A circuit of up to 12 gates of 1-4 qubits drawn from a pool of at most
    4, so Gate objects repeat, and 0-3 h values with 0 and 1 favoured."""
    n = draw(st.integers(1, max_n))
    pool = draw(st.lists(gates(n, max_k=4), min_size=1, max_size=4))
    circ = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    grid_h = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Circuit(n, tuple(circ)), grid_h, rng.standard_normal((4,) * n)


@given(walk_cases())
def test_fused_walk_matches_per_gate_walk(case):
    c, grid_h, coeffs = case
    got = pull_back(c, coeffs, grid_h)
    assert got.shape == (len(grid_h),) + (4,) * c.n
    assert np.max(np.abs(got - per_gate_pull_back(c, coeffs, grid_h)), initial=0.0) <= 1e-12


def test_block_maps_are_keyed_by_gate_and_position():
    # blocks share a map only when their gates have the same bases and
    # polarities at the same local positions.  The bases u and v form blocks
    # on qubits (1, 2, 3) and (4, 5, 6) with different layouts.  A block
    # takes its qubits in the order its gates first name them, last to
    # first, so where z acts on qubit 2 after p12 the block is (2, 1) and the
    # same Gate object p12 sits at swapped positions; beside it z1 then p12
    # holds the same bases in the same order on (1, 2), and p21 alone shares
    # its map with p12 alone.  The three-qubit gate s on (4, 5, 6) and the
    # four-qubit gate w end the blocks between them.  A map shared across
    # positions, or dropped before its last use, fails
    rng = np.random.default_rng(11)
    u, v, z = haar_unitary(4, rng), haar_unitary(4, rng), haar_unitary(2, rng)
    p12, p21, p45 = Gate(u, (1, 2)), Gate(u, (2, 1)), Gate(u, (4, 5))
    v23, v46 = Gate(v, (2, 3)), Gate(v, (4, 6))
    z1, z2 = Gate(z, (1,)), Gate(z, (2,))
    s = Gate(X, (6,), ((4, 1), (5, 0)))
    w = Gate(X, (4,), ((2, 1), (1, 0), (3, 1)))
    layouts = (v23, p12, v46, p45) * 2
    swapped = (p12, z2, s, p12, z1, s, z2, p12, s, p21, s, p12, w, p45)
    c = Circuit(6, layouts + swapped)
    plan, blocks = _check_sectors(c)
    steps = plan.steps
    assert {s.support for s in steps} >= {(1, 2, 3), (4, 5, 6), (2, 1), (1, 2)}
    swapped_p12 = [s.support == (2, 1) and len(block) > 1 and block[-1] is p12 for s, block in zip(steps, blocks)]
    assert any(swapped_p12), "no gate at swapped positions"
    assert len({s.slot for s in steps}) < len(steps), "no block map is reused"
    coeffs = rng.standard_normal((4,) * 6)
    grid_h = [0.0, 0.6, 1.0]
    assert np.max(np.abs(pull_back(c, coeffs, grid_h) - per_gate_pull_back(c, coeffs, grid_h))) <= 1e-12


def test_walk_buffers_belong_to_one_call():
    # each walk allocates its own two buffers and never writes the caller's
    # coefficients, whether or not a block's qubits already lead the array
    leading = Circuit(4, (Gate(H, (3,)), Gate(X, (2,), ((1, 1),))))
    moved = Circuit(4, (Gate(H, (1,)), Gate(X, (4,), ((2, 1),)), Gate(H, (3,))))
    rng = np.random.default_rng(5)
    grid_h = [0.0, 0.6, 1.0]
    for c in (leading, moved):
        coeffs = rng.standard_normal((4,) * 4)
        kept = coeffs.copy()
        plan = _walk_plan(c)
        start = np.arange(4**4), coeffs.ravel()
        walks = _walk(plan, start, grid_h), _walk(plan, start, grid_h)
        pulled = pull_back(c, coeffs, grid_h), pull_back(c, coeffs, grid_h)
        assert np.array_equal(coeffs, kept)
        for first, second in (walks, pulled):
            assert not np.shares_memory(first, second) and not np.shares_memory(first, coeffs)
            assert np.array_equal(first, second)
        assert np.array_equal(walks[0].reshape(pulled[0].shape), pulled[0])
        assert np.max(np.abs(pulled[0] - per_gate_pull_back(c, coeffs, grid_h))) <= 1e-12


def _on_qubits(c, qubits, n):
    """c on the qubits `qubits` of an n-qubit register; a Gate object that
    repeats in c repeats in the result."""
    moved = {}
    for g in set(c.gates):
        targets = tuple(qubits[q - 1] for q in g.targets)
        moved[g] = Gate(g.base, targets, tuple((qubits[q - 1], pol) for q, pol in g.controls))
    return Circuit(n, tuple(moved[g] for g in c.gates))


def test_pull_back_walks_a_large_h_grid_in_chunks():
    # one walk at n = 8 takes 4 h values, so 17 take five walks; the second
    # circuit repeats a sub-network, so blocks and map reuse span both walks
    n = 8
    rng = np.random.default_rng(7)
    small = Circuit(n, (Gate(H, (3,)), Gate(X, (8,), ((1, 0),)), Gate(haar_unitary(4, rng), (5, 2), ((7, 1),))))
    vp4 = expand_multicontrolled(vprime_dagger_circuit(4))
    copy = _on_qubits(vp4, [2, 5, 7, 8], n)
    repeated = copy.then(_on_qubits(vp4, [6, 3, 1, 4], n)).then(copy)
    grid_h = np.linspace(0.0, 1.0, 17)
    for c in (small, repeated):
        coeffs = rng.standard_normal((4,) * n)
        got = pull_back(c, coeffs, grid_h)
        assert got.shape == (17,) + (4,) * n
        for row, h in zip(got, grid_h):
            assert np.max(np.abs(row - pull_back(c, coeffs, [h])[0])) <= 1e-12
        assert pull_back(c, coeffs, []).shape == (0,) + (4,) * n
    assert np.max(np.abs(got[[0, 9, 16]] - per_gate_pull_back(repeated, coeffs, grid_h[[0, 9, 16]]))) <= 1e-12


def test_gate_too_wide_for_the_walk_is_refused_before_it_allocates():
    # the unexpanded V'_7^dag opens with a 7-qubit gate: its transfer matrix
    # would need pauli_strings(7), about 4.3 GB, so the plan refuses it first
    c = vprime_dagger_circuit(7)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^gate 0 on 7 qubits is too wide for the walk; use expand_multicontrolled$"):
            pull_back(c, np.zeros((4,) * 7), [1.0])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 16 * 2**20, f"{elapsed:.2f} s, peak {peak / 2**20:.1f} MB"
    # the largest gate the walk takes has 4 qubits
    wide = Gate(X, (4,), ((1, 0), (2, 1), (3, 0)))
    assert pull_back(Circuit(4, (wide,)), np.ones((4,) * 4), [1.0]).shape == (1,) + (4,) * 4


def test_fine_h_grid_at_small_n_stays_small():
    # at n = 3 the whole register is one block of 64 coefficients, so a
    # block map (64 x 64 per h) is the walk's largest array and the chunk
    # must bound it: 1000 h values in one walk would hold 33 MB of maps
    tracemalloc.start()
    try:
        records = sweep(3, [1.0], grid_values(0.001, 1.0, 0.001), "w")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 1000
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


def _sweep_circuits(kind, n):
    """The gate lists of the sweep's four walks at (kind, n): the prep and
    the prep then the measurement circuit, in witness and identity mode."""
    entangler = select_entangler(kind, n)
    measurement = dagger_circuit(entangler).then(sed_measurement_circuit(n))
    return [entangler, entangler.then(measurement), Circuit(n, ()), measurement]


@cache
def _keeps(g, i, b):
    """Whether g's unitary U on its own qubits (controls first, then targets)
    keeps sigma = Z (b = 0) or X (b = 1) on its qubit i up to a sign, U
    sigma_i U^dag = +-sigma_i, so its transfer matrix keeps the strings that
    commute with sigma_i apart from those that anticommute: a control or a
    diagonal base keeps Z, a target base that commutes with X keeps X, and a
    bare X keeps both."""
    k = len(g.qubits())
    local = Gate(g.base, tuple(range(len(g.controls) + 1, k + 1)), tuple((j + 1, pol) for j, (_, pol) in enumerate(g.controls)))
    u, s = dense_gate(local, k), embed_gate((Z, X)[b], [i + 1], k)
    moved = u @ s @ u.conj().T
    return min(np.max(np.abs(moved - s)), np.max(np.abs(moved + s))) <= 1e-12


def _expected_split(support, block):
    """The local bits 2i + b (b = 0 for Z, 1 for X) that every gate of block
    touching support[i] keeps, ascending."""
    return tuple(
        2 * i + b
        for i, q in enumerate(support)
        for b in (0, 1)
        if all(_keeps(g, g.qubits().index(q), b) for g in block if q in g.qubits())
    )


def _check_sectors(c):
    """c's plan, whose every step splits exactly the bits that its block's
    gates keep on every qubit they touch, derived from the gate list alone;
    a step covers the next len(schedule) gates, last to first.  Returns the
    plan and each step's block."""
    walked = list(reversed(c.gates))
    plan = _walk_plan(c)
    blocks = []
    for s in plan.steps:
        block, walked = walked[: len(s.schedule)], walked[len(s.schedule) :]
        assert set(s.support) == {q for g in block for q in g.qubits()}
        assert s.split == _expected_split(s.support, block)
        assert s.sectors == 2 ** len(s.split)
        blocks.append(block)
    assert not walked
    return plan, blocks


def _whole_block_map(support, block, grid_h):
    """The block's whole map, gate by gate in the dense oracle's walk, in the
    bit layout of the walk: (h,) + (2,)*2m rows and as many columns, bit 2i +
    b of support[i] on row axis 2i + b + 1."""
    m = len(support)
    local = {q: i + 1 for i, q in enumerate(support)}
    gates = tuple(Gate(g.base, tuple(local[q] for q in g.targets), tuple((local[q], pol) for q, pol in g.controls)) for g in reversed(block))
    whole = per_gate_pull_back(Circuit(m, gates), np.eye(4**m).reshape((4,) * m + (4**m,)), grid_h)
    return whole.reshape((len(grid_h),) + (2,) * (4 * m))


# how far a sector the walk builds may sit from the same block of the whole
# map, which the dense oracle multiplies gate by gate in another order
KEPT_BLOCKS = 1e-15


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_sweep_block_maps_split_exactly(n):
    # every split map of the 8 sweep plans at n, against the whole map of its
    # gates: the entries across a Z-split bit are exactly 0, those across an
    # X-split bit at most ATOL_SECTOR, and the sectors the walk builds are the
    # whole map's diagonal blocks
    grid_h = [0.0, 0.37, 0.95, 1.0]
    for kind in ("ghz", "w"):
        for c in _sweep_circuits(kind, n):
            plan, blocks = _check_sectors(c)
            gate_maps = _gate_maps(plan, grid_h)
            seen = set()  # the slots of the maps already checked
            for s, block in zip(plan.steps, blocks):
                if s.slot in seen or not s.split:
                    continue
                seen.add(s.slot)
                m = len(s.support)
                whole = _whole_block_map(s.support, block, grid_h)
                for bit in s.split:
                    cross = np.moveaxis(whole, (bit + 1, 2 * m + bit + 1), (1, 2))
                    dropped = np.abs(np.stack([cross[:, 0, 1], cross[:, 1, 0]]))
                    if bit % 2 == 0:
                        assert not dropped.any(), (kind, n, s.support, bit)
                    else:
                        assert dropped.max() <= ATOL_SECTOR, (kind, n, s.support, bit)
                bits = list(s.split) + [bit for bit in range(2 * m) if bit not in s.split]
                rows = 4**m // s.sectors
                kept = whole.transpose([0] + [b + 1 for b in bits] + [2 * m + b + 1 for b in bits])
                kept = np.einsum("hsisj->hsij", kept.reshape(len(grid_h), s.sectors, rows, s.sectors, rows))
                assert np.max(np.abs(_block_map(s, gate_maps) - kept)) <= KEPT_BLOCKS, (kind, n, s.support)


def test_dropped_sector_entries_stay_within_the_tolerance():
    # the largest transfer-matrix entry that any split of the 8 sweep plans at
    # n = 3..10 drops is rounding (9.7e-17, in the square roots of X): each
    # split bit of a step is checked on every gate of its block
    largest = 0.0
    for n in range(3, 11):
        for kind in ("ghz", "w"):
            for c in _sweep_circuits(kind, n):
                walked = list(reversed(c.gates))
                for s in _walk_plan(c).steps:
                    block, walked = walked[: len(s.schedule)], walked[len(s.schedule) :]
                    for g in set(block):
                        own = [2 * g.qubits().index(s.support[bit // 2]) + bit % 2 for bit in s.split if s.support[bit // 2] in g.qubits()]
                        largest = max(largest, _dropped(g, tuple(own)))
    assert 0.0 < largest <= ATOL_SECTOR, largest


@cache
def _dropped(g, own):
    """The largest entry of g's transfer matrix between strings that differ in
    one of its own bits own."""
    r = _adjoint_transfer(g.base.tobytes(), len(g.base), tuple(pol for _, pol in g.controls))
    k = len(g.qubits())
    bits = np.abs(r).reshape((2,) * (4 * k))
    cross = [np.moveaxis(bits, (b, 2 * k + b), (0, 1)) for b in own]
    return max((max(x[0, 1].max(), x[1, 0].max()) for x in cross), default=0.0)


def test_step_splits_when_its_leading_qubit_is_only_a_control():
    # qubit 1 is the control of one gate and the target of an H, so it does
    # not split, while qubit 2, the target of a CNOT alone, splits its
    # X-sector.  Controls of polarity 0 split the Z-sector as those of
    # polarity 1 do.  A CNOT target splits the X-sector, and a diagonal
    # target (Rz) the Z-sector, each beside the Z-sector of its controls
    rz = np.diag([np.exp(-0.3j), np.exp(0.3j)])
    mixed = Circuit(3, (Gate(X, (2,), ((1, 1),)), Gate(H, (1,))))
    zero = Circuit(3, (Gate(X, (2,), ((1, 0),)), Gate(H, (3,), ((1, 0),)), Gate(H, (2,))))
    cnot = Circuit(3, (Gate(X, (2,), ((1, 1),)), Gate(X, (2,), ((3, 0),))))
    diagonal = Circuit(3, (Gate(rz, (2,), ((3, 1),)), Gate(X, (1,), ((2, 1),)), Gate(rz, (2,))))
    want = {mixed: ((1, 2), (3,)), zero: ((2, 1, 3), (2,)), cnot: ((3, 2, 1), (0, 3, 4)), diagonal: ((2, 1, 3), (0, 3, 4))}
    rng = np.random.default_rng(13)
    for c, (support, split) in want.items():
        (step,) = _check_sectors(c)[0].steps
        assert (step.support, step.split) == (support, split)
        coeffs = rng.standard_normal((4,) * 3)
        grid_h = [0.0, 0.6, 1.0]
        assert np.max(np.abs(pull_back(c, coeffs, grid_h) - per_gate_pull_back(c, coeffs, grid_h))) <= 1e-12


@given(walk_cases())
def test_steps_split_by_their_control_only_qubit(case):
    # every step splits the bits its gates keep, and no target of a Haar base
    # that walk_cases draws splits
    plan, blocks = _check_sectors(case[0])
    for s, block in zip(plan.steps, blocks):
        split = {s.support[bit // 2] for bit in s.split}
        for g in block:
            if not any(g.base is b for b in (H, X, SWAP)):
                assert not split & set(g.targets)


def _check_order(c):
    """c's plan, replayed on the bit that each axis of the coefficient array
    holds: a step that transposes brings its split bits and then its block's
    other bits to the front and reshapes for a matmul over its sectors; a
    diagonal step lays each axis of its map, (h, split bits), on the axis
    where that bit sits and leaves the order as it is; and restore reads the
    last order in canonical bit order.  Returns the plan."""
    plan = _walk_plan(c)
    order = list(range(2 * c.n))  # the bit on axis i + 1
    for s in plan.steps:
        m = len(s.support)
        local = list(s.split) + [bit for bit in range(2 * m) if bit not in s.split]
        bits = [2 * (s.support[bit // 2] - 1) + bit % 2 for bit in local]
        assert s.axes[0] == 0 and sorted(s.axes) == list(range(2 * c.n + 1))
        if s.diagonal:
            assert s.shape == (-1,) + (2,) * (2 * m) + (1,) * (2 * (c.n - m))
            assert all(bits[a - 1] == order[i - 1] for i, a in enumerate(s.axes) if 0 < a <= 2 * m)
        else:
            order = [order[a - 1] for a in s.axes[1:]]
            assert order[: 2 * m] == bits
            assert s.shape == (-1, s.sectors, 4**m // s.sectors, 4 ** (c.n - m))
    assert [order[a - 1] for a in plan.restore[1:]] == list(range(2 * c.n))
    return plan


def test_diagonal_step_scales_in_place_and_keeps_the_order():
    # walked last to first, u45 and H3 make one block, the bare X gates on
    # qubits 1-3 a diagonal one, and u24 and H1 a third.  The X gates add a
    # step but no transpose: the other steps move the same axes with them as
    # without them, and the diagonal step scales the bits of qubit 3, which
    # the first step moved to the front, where they sit
    rng = np.random.default_rng(17)
    u, v = haar_unitary(4, rng), haar_unitary(4, rng)
    outer = (Gate(H, (1,)), Gate(v, (2, 4))), (Gate(H, (3,)), Gate(u, (4, 5)))
    xs = (Gate(X, (3,)), Gate(X, (2,)), Gate(X, (1,)))
    c, bare = Circuit(5, outer[0] + xs + outer[1]), Circuit(5, outer[0] + outer[1])
    plan = _check_order(c)
    assert [s.diagonal for s in plan.steps] == [False, True, False]
    assert plan.steps[1].support == (1, 2, 3) and plan.steps[1].axes != tuple(range(11))
    moved = [(s.support, s.axes, s.shape) for s in plan.steps if not s.diagonal]
    assert moved == [(s.support, s.axes, s.shape) for s in _check_order(bare).steps]
    assert plan.restore == _walk_plan(bare).restore
    coeffs = rng.standard_normal((4,) * 5)
    grid_h = [0.0, 0.6, 1.0]
    assert np.max(np.abs(pull_back(c, coeffs, grid_h) - per_gate_pull_back(c, coeffs, grid_h))) <= 1e-12


def test_sweep_plans_keep_their_order_across_diagonal_steps():
    # the order replay of every sweep plan at n = 3..8, both kinds
    for n in range(3, 9):
        for kind in ("ghz", "w"):
            for c in _sweep_circuits(kind, n):
                _check_order(c)


def test_measured_plan_at_n7_transposes_71_of_80_steps():
    # the 9 diagonal steps of the ghz measured walk at n = 7 scale in place
    steps = _sweep_model("ghz", 7, "witness").measured.steps
    assert (len(steps), sum(not s.diagonal for s in steps)) == (80, 71)


@st.composite
def bare_x_cases(draw, max_n=6):
    """A circuit of up to 16 gates on n <= max_n qubits, most of them bare X
    gates, so that many blocks are diagonal; the rest an X, H or Haar base on
    one qubit under 1-3 controls, polarity 0 twice as likely as 1.  With 1-3
    h values and random coefficients."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circ = []
    for _ in range(draw(st.integers(1, 16))):
        qubits = draw(st.permutations(range(1, n + 1)))
        if n == 1 or draw(st.integers(0, 2)):
            circ.append(Gate(X, (qubits[0],)))
            continue
        controls = tuple((q, draw(st.sampled_from([0, 0, 1]))) for q in qubits[1 : 1 + draw(st.integers(1, min(3, n - 1)))])
        base = draw(st.sampled_from([X, H, None]))
        circ.append(Gate(haar_unitary(2, rng) if base is None else base, (qubits[0],), controls))
    grid_h = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=3))
    return Circuit(n, tuple(circ)), grid_h, rng.standard_normal((4,) * n)


@given(bare_x_cases())
def test_walk_with_diagonal_steps_matches_per_gate_walk(case):
    c, grid_h, coeffs = case
    _check_order(c)
    want = per_gate_pull_back(c, coeffs, grid_h)
    assert np.max(np.abs(pull_back(c, coeffs, grid_h) - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["ghz", "w"])
def test_split_walk_costs_at_most_0_40_of_dense(kind):
    # a step on m qubits with s sectors does 4**m / s multiply-adds per
    # coefficient; a change that stops the split fails here on any machine
    steps = _sweep_model(kind, 7, "witness").measured.steps
    split = sum(4 ** len(s.support) // s.sectors for s in steps)
    dense = sum(4 ** len(s.support) for s in steps)
    assert split <= 0.40 * dense, f"{split} of {dense}"


def test_long_h_sweep_holds_one_walk_at_a_time():
    # n = 7 walks 16 h values at a time, in two 2 MB coefficient buffers
    # beside its block maps; the sweep keeps only each walk's thermal
    # readout, so 201 h values, whose pulled-back coefficients would take
    # 26 MB per column, stay within one walk's memory
    grid_h = grid_values(0.0, 1.0, 0.005)
    sweep(7, [1.0], [1.0], "w")  # the cached model is not counted
    tracemalloc.start()
    try:
        records = sweep(7, grid_values(0.5, 1.0, 0.05), grid_h, "w")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 11 * 201
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("kind", ["ghz", "w"])
def test_walked_projector_is_the_closed_form_target(kind):
    # the sweep walks |0...0><0...0| back through V^dag; the oracle
    # transforms the dense closed-form target, which the sweep never forms
    for n in range(2, 11):
        want = pauli_coefficients(select_witness(kind, n).target.density()).ravel()
        index, values = _sweep_model(kind, n, "witness").projector
        got = np.zeros(4**n)
        got[index] = values
        assert np.all(values != 0.0) and np.all(np.diff(index) > 0), n
        assert np.max(np.abs(got - want)) <= 1e-15, n


def test_cold_model_at_n10_stays_small():
    # a dense 2**10 x 2**10 complex target is 16 MB and a transform of it
    # holds several such arrays; the walk holds two 8 MB coefficient
    # buffers beside the plans, and the projector's nonzeros are read from
    # one 8 MB copy of its result
    _sweep_model.cache_clear()
    tracemalloc.start()
    try:
        _sweep_model("w", 10, "witness")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_cold_sweep_forms_no_dense_target(monkeypatch):
    def refuse(self):
        raise AssertionError("the sweep formed a dense target")

    monkeypatch.setattr(PureState, "density", refuse)
    _sweep_model.cache_clear()
    for kind in ("ghz", "w"):
        for mode in ("witness", "identity"):
            assert len(sweep(4, [0.5, 1.0], [0.9, 1.0], kind, mode)) == 4


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


def test_thermal_readout_of_a_long_p_grid_reads_each_p_alone():
    # 2 rows at n = 8 take 512 p values per group, so 1200 p values are read
    # in three groups; each p is read with the same arithmetic as on its own
    rng = np.random.default_rng(17)
    coeffs = rng.standard_normal((2,) + (4,) * 8)
    grid_p = rng.uniform(0.0, 1.0, 1200)
    got = thermal_readout(coeffs, grid_p)
    assert got.shape == (2, 1200)
    assert np.array_equal(got[:, [0, 511, 512, 1199]], np.hstack([thermal_readout(coeffs, [p]) for p in grid_p[[0, 511, 512, 1199]]]))


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
