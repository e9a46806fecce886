import re
from functools import partial
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_oracle import (
    conjugated_diagonal,
    embed_gate,
    kron,
    min_eigenvalue_hermitian,
    partial_trace,
    partial_transpose,
    pauli_coefficients,
    random_density_matrix,
    z_signs,
)
from sedwitness.ancilla import (
    AncillaConfig,
    ConcatSpec,
    Stage,
    ancilla_readout,
    intermediate_identities,
    readout_value,
    run_concatenated,
)
from sedwitness.circuit import Circuit
from sedwitness.noise import pull_back
from sedwitness.sed import SedDecomposition, sed_decomposition, sed_measure
from sedwitness.states import make_ghz, make_w, pseudopure_matrix
from sedwitness.tensor import (
    ATOL_ALGEBRA,
    H,
    I2,
    SWAP,
    X,
    Z,
    checked_operand,
    dagger,
    haar_unitary,
    is_unitary,
    max_schmidt_sq,
    pauli_strings,
)
from sedwitness.witness import Witness, expectation, select_witness


def test_kron_identities():
    assert np.allclose(kron(I2, I2), np.eye(4))
    assert np.allclose(kron(Z, I2), np.diag([1, 1, -1, -1]))
    hh = kron(H, H)
    assert np.max(np.abs(hh @ hh - np.eye(4))) <= 1e-14


def test_kron_associativity_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
        assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) <= 1e-13


def test_embed_gate_rightmost_and_single():
    n = 4
    assert np.allclose(embed_gate(Z, [n], n), kron(np.eye(8), Z))
    assert np.allclose(embed_gate(X, [1], 1), X)


def test_embed_swap_matches_transposition_list():
    # SWAP of the first and last qubit permutes basis labels by reversing
    # the top and bottom bits; build that permutation directly
    for total in (2, 3, 4):
        got = embed_gate(SWAP, [1, total], total)
        dim = 2**total
        perm = np.zeros((dim, dim))
        for i in range(dim):
            bits = list(format(i, f"0{total}b"))
            bits[0], bits[-1] = bits[-1], bits[0]
            perm[int("".join(bits), 2), i] = 1.0
        assert np.max(np.abs(got - perm)) == 0.0


def test_embed_gate_is_unitary():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = haar_unitary(4, rng)
        m = embed_gate(g, [2, 4], 5)
        assert np.max(np.abs(m @ m.conj().T - np.eye(32))) <= 1e-12


def test_embed_gate_errors():
    with pytest.raises(ValueError):
        embed_gate(X, [1, 1], 2)
    with pytest.raises(ValueError):
        embed_gate(X, [3], 2)
    with pytest.raises(ValueError):
        embed_gate(X, [1, 2], 3)  # dim mismatch


def test_partial_trace_product_state():
    rng = np.random.default_rng(7)
    rho_a = random_density_matrix(2, rng)
    rho_b = random_density_matrix(4, rng)
    joint = kron(rho_a, rho_b)
    assert np.max(np.abs(partial_trace(joint, [1]) - rho_a)) <= 1e-14


def test_partial_trace_ghz():
    rho = make_ghz(3).density()
    assert np.allclose(partial_trace(rho, [1]), np.diag([0.5, 0.5]), atol=1e-14)


def test_partial_trace_mixed_and_trace_preserving():
    assert np.allclose(partial_trace(np.eye(4) / 4, [2]), np.eye(2) / 2)
    rng = np.random.default_rng(3)
    for _ in range(10):
        rho = random_density_matrix(16, rng)
        red = partial_trace(rho, [2, 3])
        assert abs(np.trace(red) - np.trace(rho)) <= 1e-12
        assert np.linalg.eigvalsh(red)[0] >= -1e-12


def test_partial_trace_errors():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, [3])


def test_partial_transpose_involution_and_identity():
    rng = np.random.default_rng(9)
    rho = random_density_matrix(8, rng)
    assert np.array_equal(partial_transpose(partial_transpose(rho, [2]), [2]), rho)
    assert np.allclose(partial_transpose(np.eye(4) / 4, [1]), np.eye(4) / 4)


def test_partial_transpose_bell_min_eig():
    bell = make_ghz(2).density()
    eigs = np.linalg.eigvalsh(partial_transpose(bell, [1]))
    assert abs(eigs[0] + 0.5) <= 1e-12


def test_partial_transpose_errors():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(4), [0])


def test_max_schmidt_product_ghz_w():
    psi00 = np.array([1, 0, 0, 0], dtype=complex)
    assert max_schmidt_sq(psi00, [1]) == pytest.approx(1.0, abs=1e-12)
    ghz = make_ghz(3).amplitudes
    for cut in ([1], [2], [3]):
        assert max_schmidt_sq(ghz, cut) == pytest.approx(0.5, abs=1e-12)
    w = make_w(3).amplitudes
    assert max_schmidt_sq(w, [1]) == pytest.approx(2 / 3, abs=1e-12)


def test_max_schmidt_range_and_errors():
    rng = np.random.default_rng(13)
    for _ in range(10):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        val = max_schmidt_sq(v, [2])
        assert 0.0 < val <= 1.0 + 1e-12
    # exactly 1 for a random product state across the same bipartition
    for _ in range(10):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        assert abs(max_schmidt_sq(v, [1]) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        max_schmidt_sq(np.array([1.0, 1.0]), [1])  # unnormalized
    with pytest.raises(ValueError, match="not normalized"):
        max_schmidt_sq(np.array([np.nan, 0.0, 0.0, 0.0]), [1])
    with pytest.raises(ValueError):
        max_schmidt_sq(make_ghz(2).amplitudes, [1, 2])  # not a proper subset


def test_max_schmidt_reads_qubits_as_integers():
    # a float or a digit string is refused by value, not truncated or parsed
    w = make_w(3).amplitudes
    for bad in (1.7, "2"):
        with pytest.raises(ValueError, match=re.escape(f"bipartition qubit {bad!r} is not an integer")):
            max_schmidt_sq(w, [bad])
    assert max_schmidt_sq(w, [np.int64(2)]) == max_schmidt_sq(w, [2])


def test_min_eigenvalue_hermitian():
    assert min_eigenvalue_hermitian(np.diag([3.0, -1.0, 0.0, 2.0])) == pytest.approx(-1.0)
    assert min_eigenvalue_hermitian(Z) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        min_eigenvalue_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_min_eig_pseudopure_ghz_partial_transpose():
    # pure GHZ (pseudopure at eps = 1) has partial transpose eigenvalue -1/2
    rho = make_ghz(3).density()
    val = min_eigenvalue_hermitian(partial_transpose(rho, [1]))
    assert val == pytest.approx(-0.5, abs=1e-12)
    assert val < 0


def test_z_signs_is_diagonal_of_embedded_z():
    for n in range(1, 6):
        signs = z_signs(n)
        assert signs.shape == (n, 2**n)
        for k in range(1, n + 1):
            assert np.array_equal(signs[k - 1], np.diag(embed_gate(Z, [n - k + 1], n)).real)


def literal_pauli_strings(n):
    """Every n-qubit Pauli string by kron of the written-out I, Z, X, Y,
    qubit 1 the leftmost factor, in base-4 order of the indices."""
    single = [np.eye(2), np.diag([1, -1]), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])]
    out = []
    for idx in product(range(4), repeat=n):
        m = np.eye(1)
        for a in idx:
            m = np.kron(m, single[a])
        out.append(m)
    return np.array(out, dtype=complex)


@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_pauli_coefficients_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    m = g + g.conj().T
    strings = literal_pauli_strings(n)
    assert np.array_equal(pauli_strings(n), strings)
    coeffs = pauli_coefficients(m)
    assert coeffs.shape == (4,) * n and coeffs.dtype == float
    # the definition c_s = Tr(P_s m) / 2**n is real for Hermitian m
    want = np.einsum("sij,ji->s", strings, m) / 2**n
    assert np.max(np.abs(want.imag)) <= 1e-12
    assert np.max(np.abs(coeffs.ravel() - want.real)) <= 1e-12
    assert np.max(np.abs(np.einsum("s,sij->ij", coeffs.ravel(), strings) - m)) <= 1e-12


def test_pauli_coefficients_errors():
    with pytest.raises(ValueError, match="not Hermitian"):
        pauli_coefficients(np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValueError, match="power of two"):
        pauli_coefficients(np.eye(3))


def _bad_operand_cases():
    """(call, name) for each dense readout and each operand it checks, spoilt
    by a wrong shape or a non-finite entry; then a Stage with a bad entangler."""
    cfg, w = AncillaConfig(p=0.9, n=3), select_witness("ghz", 3)
    readouts = {
        "expectation": (lambda rho, v: expectation(w, rho), "rho"),
        "sed_measure": (lambda rho, v: sed_measure(rho, v, sed_decomposition(w)), "rho v"),
        "ancilla_readout": (lambda rho, v: ancilla_readout(rho, v, 0.5, cfg), "rho v"),
        "intermediate_identities": (lambda rho, v: intermediate_identities(rho, v, cfg), "rho v"),
        "run_concatenated": (lambda rho, v: run_concatenated(rho, ConcatSpec((Stage(v, 0.5),)), cfg), "rho"),
    }
    names = {"rho": "density matrix", "v": "entangler"}
    spoil = {"shape": (slice(4), slice(4)), "nan": np.nan, "inf": np.inf}
    for label, (call, operands) in readouts.items():
        for operand in operands.split():
            for bad, how in spoil.items():
                args = {"rho": np.eye(8, dtype=complex) / 8, "v": np.eye(8, dtype=complex)}
                if bad == "shape":
                    args[operand] = args[operand][how]
                else:
                    args[operand][1, 2] = how
                yield pytest.param(partial(call, **args), names[operand], id=f"{label}-{operand}-{bad}")
    stage_entanglers = {
        "scalar": 1.0,
        "1-d": np.ones(4),
        "non-square": np.ones((2, 4)),
        "nan": np.full((2, 2), np.nan),
        "inf": np.full((2, 2), np.inf),
    }
    for bad, v in stage_entanglers.items():
        yield pytest.param(partial(Stage, v, 0.5, "bad"), "stage 'bad' entangler", id=f"Stage-{bad}")


@pytest.mark.parametrize("call, name", list(_bad_operand_cases()))
def test_every_dense_readout_names_its_bad_operand(call, name):
    # one check for every (rho, V): a ValueError naming the operand, never a TypeError or a nan
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} has (shape .*, expected .*|non-finite entries)$"):
        call()


# the scalar inputs that no other test's table covers, by the name each
# reader gives them; sizes, p and sweep grids are covered in test_circuit.py,
# test_states.py and test_noise.py
_SCALAR_READS = {
    "pull_back": (lambda v: pull_back(Circuit(1, ()), np.zeros(4), [v]), "h"),
    "pseudopure_matrix": (lambda v: pseudopure_matrix(make_ghz(2), v), "epsilon"),
    "Witness": (lambda v: Witness(v, make_ghz(2), "x"), "witness constant c"),
    "SedDecomposition": (lambda v: SedDecomposition(3, v), "witness constant c"),
    "readout_value": (lambda v: readout_value(v, 0.1, 0.9), "witness constant c"),
}


@pytest.mark.parametrize(
    "bad, why",
    [("0.5", "'0.5' is not a real number"), (True, "True is not a real number"), (10**400, "is out of the float range")],
    ids=["str", "bool", "overflow"],
)
@pytest.mark.parametrize("call, what", list(_SCALAR_READS.values()), ids=list(_SCALAR_READS))
def test_scalar_that_is_not_a_real_number_is_named(call, what, bad, why):
    # a string is not read as a number nor a bool as 0 or 1, and an integer
    # beyond the float range does not escape as OverflowError: a ValueError names it
    with pytest.raises(ValueError, match=f"^{re.escape(what)} {re.escape(why)}$"):
        call(bad)


def test_numpy_scalars_are_read_as_python_numbers():
    assert type(Circuit(np.int64(3)).n) is int
    cfg = AncillaConfig(p=np.float64(0.9), n=np.int64(3))
    assert (type(cfg.p), type(cfg.n)) == (float, int)
    assert type(Witness(np.float64(0.5), make_ghz(2), "x").c) is float
    assert np.allclose(pseudopure_matrix(make_ghz(2), np.float64(0.5)), pseudopure_matrix(make_ghz(2), 0.5))
    assert pull_back(Circuit(1, ()), np.ones(4), [np.float64(0.5)]).shape == (1, 4)


@pytest.mark.parametrize("n", range(1, 7))
def test_conjugated_diagonal_matches_dense_product(n):
    rng = np.random.default_rng(100 + n)
    rho, u = random_density_matrix(2**n, rng), haar_unitary(2**n, rng)
    d = conjugated_diagonal(rho, u)
    assert d.dtype == float
    assert np.max(np.abs(d - np.diag(dagger(u) @ rho @ u).real)) <= 1e-12


def test_checked_operand_accepts_a_huge_finite_operand():
    # the sum overflows to inf; only then is each entry tested, and it passes
    m = np.full((2, 2), 1e308 + 0j)
    assert checked_operand(m, 2, "operand") is m
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 0)):
        for fill in (0.0, 1e308):
            m = np.full((2, 2), fill, dtype=complex)
            m[1, 0] = bad
            with pytest.raises(ValueError, match="^operand has non-finite entries$"):
                checked_operand(m, 2, "operand")
    m = np.array([[np.inf, 0], [0, -np.inf]])  # the sum is nan
    with pytest.raises(ValueError, match="non-finite"):
        checked_operand(m, 2, "operand")


def test_is_unitary_2x2_closed_form_matches_dense_formula():
    # Haar bases perturbed by about 1e-12 straddle the tolerance; the closed 2x2
    # form must decide as max|m m^dag - 1| computed densely here does
    rng = np.random.default_rng(19)
    verdicts, near = [], 0
    for _ in range(4000):
        eps = 10.0 ** rng.uniform(-13, -11)
        m = haar_unitary(2, rng) + eps * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        dense = np.max(np.abs(m @ m.conj().T - np.eye(2)))
        if abs(dense - ATOL_ALGEBRA) <= 1e-15:
            near += 1  # the two forms round differently at the last bits
            continue
        assert is_unitary(m) == (dense <= ATOL_ALGEBRA)
        verdicts.append(dense <= ATOL_ALGEBRA)
    assert near < 40 and 1000 < sum(verdicts) < len(verdicts) - 1000
    for bad in (np.nan, np.inf):
        for i in range(4):
            m = np.eye(2, dtype=complex)
            m.flat[i] = bad
            assert not is_unitary(m)
