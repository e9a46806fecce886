from dataclasses import fields

import numpy as np
import pytest

from dense_oracle import blockdiag_ubd, embed_gate, kron, permutation_up, random_density_matrix, witness_matrix
from sedwitness.circuit import vprime2
from sedwitness.sed import (
    SedDecomposition,
    SedMeasurementResult,
    conjugated_observable,
    sed_decomposition,
    sed_measure,
    verify_equality,
    weighted_z_sum,
)
from sedwitness.states import make_ghz, pseudopure_matrix
from sedwitness.tensor import H, I2, X, Z, dagger, haar_unitary
from sedwitness.witness import select_witness

W3 = np.exp(2j * np.pi / 3)
S3 = 1 / np.sqrt(3.0)

# the explicit 4x4 fixture, row by row
VPRIME2_EXPECTED = np.array(
    [
        [0, 0, 0, 1],
        [S3, S3, S3, 0],
        [S3 * W3, S3 * W3.conjugate(), S3, 0],
        [S3 * W3.conjugate(), S3 * W3, S3, 0],
    ],
    dtype=complex,
)

# V'_2 (b + a1 I(x)Z + a2 Z(x)I) V'_2^dag: diagonal (-1,0,0,0) plus the
# fixed off-diagonal pattern of magnitude 1/4 and phases +-2pi/3
CONJUGATED2_EXPECTED = np.array(
    [
        [-1, 0, 0, 0],
        [0, 0, 0.25 * W3.conjugate(), 0.25 * W3],
        [0, 0.25 * W3, 0, 0.25 * W3.conjugate()],
        [0, 0.25 * W3.conjugate(), 0.25 * W3, 0],
    ],
    dtype=complex,
)


def ghz_entangler_matrix(n):
    from sedwitness.circuit import circuit_unitary, ghz_entangler

    return circuit_unitary(ghz_entangler(n))


def test_vprime2_fixture():
    v, dec = vprime2(), SedDecomposition(2)
    b, a = dec.b, dec.a
    assert np.max(np.abs(v - VPRIME2_EXPECTED)) <= 1e-15
    assert np.allclose(v[0], [0, 0, 0, 1])
    assert v[2, 0] == pytest.approx(S3 * W3, abs=1e-15)
    assert b == -0.25
    assert np.array_equal(a, [3 / 8, 3 / 8])


def test_vprime2_conjugation_reproduces_fixture():
    v, dec = vprime2(), SedDecomposition(2)
    b, a = dec.b, dec.a
    assert b == -1 / 4 and np.array_equal(a, [3 / 8, 3 / 8])
    conj = v @ (b * np.eye(4) + a[0] * kron(I2, Z) + a[1] * kron(Z, I2)) @ dagger(v)
    assert np.max(np.abs(conj - CONJUGATED2_EXPECTED)) <= 1e-12


def test_sed_decomposition_matches_fixture_at_n2():
    dec = SedDecomposition(2)
    assert np.max(np.abs(dec.vprime - VPRIME2_EXPECTED)) == 0.0
    assert dec.b == -0.25


def test_coefficients_n3():
    dec = SedDecomposition(3)
    assert dec.b == -1 / 8
    assert np.array_equal(dec.a, [3 / 16, 3 / 16, -0.5])


def test_closed_form_coefficients_exact():
    for n in range(2, 8):
        dec = SedDecomposition(n)
        assert dec.b == -(2.0 ** (-n))
        assert dec.a[0] == dec.a[1] == 3 * 2.0 ** (-(n + 1))
        for k in range(3, n + 1):
            assert dec.a[k - 1] == -(2.0 ** (k - n - 1))


def test_unitarity_and_diagonal_for_all_n():
    for n in range(2, 11):
        dec = SedDecomposition(n)
        dim = 2**n
        assert np.max(np.abs(dec.vprime @ dagger(dec.vprime) - np.eye(dim))) <= 1e-12
        diag = np.diag(conjugated_observable(dec))
        target = np.zeros(dim)
        target[0] = -1.0
        assert np.max(np.abs(diag - target)) <= 1e-10


def test_recursion_consistency():
    for n in range(2, 7):
        lhs = SedDecomposition(n + 1).vprime
        rhs = blockdiag_ubd(n + 1) @ permutation_up(n + 1) @ kron(I2, SedDecomposition(n).vprime)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_permutation_up_transpositions():
    up3 = permutation_up(3)
    # transpositions (2,5) and (4,7) in 1-based row labels
    perm = list(range(8))
    perm[1], perm[4] = perm[4], perm[1]
    perm[3], perm[6] = perm[6], perm[3]
    expected = np.eye(8)[perm]
    assert np.max(np.abs(up3 - expected)) == 0.0
    for m in (2, 3, 4, 5):
        up = permutation_up(m)
        assert np.max(np.abs(up @ up - np.eye(2**m))) == 0.0
    from sedwitness.tensor import SWAP

    assert np.array_equal(permutation_up(2), SWAP)


def test_blockdiag_ubd_structure():
    ubd3 = blockdiag_ubd(3)
    expected = np.zeros((8, 8), dtype=complex)
    expected[0:2, 0:2] = I2
    for blk in range(1, 4):
        expected[2 * blk : 2 * blk + 2, 2 * blk : 2 * blk + 2] = H
    assert np.max(np.abs(ubd3 - expected)) == 0.0
    for m in (2, 3, 4):
        ubd = blockdiag_ubd(m)
        assert np.max(np.abs(ubd @ ubd - np.eye(2**m))) <= 1e-15


def test_hadamard_blocks_conjugate_z_to_x():
    # conjugating the Z-pattern diagonal by the H blocks turns every block
    # except the first into X
    m = 3
    zpat = embed_gate(Z, [m], m)  # 2x2 diagonal blocks all Z
    conj = blockdiag_ubd(m) @ zpat @ dagger(blockdiag_ubd(m))
    assert np.max(np.abs(conj[0:2, 0:2] - Z)) <= 1e-15
    for blk in range(1, 4):
        assert np.max(np.abs(conj[2 * blk : 2 * blk + 2, 2 * blk : 2 * blk + 2] - X)) <= 1e-15


def test_block_offdiagonals_vanish_after_permutation():
    # the 2x2 diagonal blocks of the permuted matrix lose their off-diagonal
    # entries, which is what lets the Hadamard blocks finish the job
    for n in range(2, 7):
        a_n = conjugated_observable(SedDecomposition(n))
        b_next = 0.5 * kron(I2, a_n) - 0.5 * kron(Z, np.eye(2**n, dtype=complex))
        up = permutation_up(n + 1)
        b_perm = up @ b_next @ dagger(up)
        worst = 0.0
        for blk in range(2**n):
            sub = b_perm[2 * blk : 2 * blk + 2, 2 * blk : 2 * blk + 2]
            worst = max(worst, abs(sub[0, 1]), abs(sub[1, 0]))
        assert worst <= 1e-12


def test_sed_measure_ghz_pseudopure():
    w = select_witness("ghz", 3)
    dec = sed_decomposition(w)
    v = ghz_entangler_matrix(3)
    for eps in (0.0, 0.4, 5 / 7, 1.0):
        rho = pseudopure_matrix(make_ghz(3), eps)
        res = sed_measure(rho, v, dec)
        assert res.diagonal_ok
        conv = np.trace(witness_matrix(w) @ rho).real
        assert abs(res.value - conv) <= 1e-10
        assert np.all(np.abs(res.z) <= 1 + 1e-10)


def test_sed_measure_maximally_mixed():
    w = select_witness("ghz", 3)
    dec = sed_decomposition(w)
    v = ghz_entangler_matrix(3)
    res = sed_measure(np.eye(8) / 8, v, dec)
    assert res.diagonal_ok
    assert res.value == pytest.approx(0.75 - 1 / 8, abs=1e-12)


def test_sed_measure_reports_nondiagonal():
    w = select_witness("ghz", 3)
    dec = sed_decomposition(w)
    v = ghz_entangler_matrix(3)
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0  # |000><000|: disentangled state is not diagonal
    res = sed_measure(rho, v, dec)
    assert not res.diagonal_ok
    assert np.isfinite(res.value)


def test_sed_measure_offdiag_residual():
    rng = np.random.default_rng(23)
    dec = SedDecomposition(3, c=0.5)
    v = haar_unitary(8, rng)
    rho_in = v @ np.diag(rng.dirichlet(np.ones(8))).astype(complex) @ dagger(v)
    res = sed_measure(rho_in, v, dec)
    assert res.offdiag_max <= 1e-12 and res.diagonal_ok
    res = sed_measure(random_density_matrix(8, rng), v, dec)
    assert res.offdiag_max > 1e-10 and not res.diagonal_ok


def test_sed_measure_accepts_nested_lists():
    dec = sed_decomposition(select_witness("ghz", 3))
    v = ghz_entangler_matrix(3)
    rho = make_ghz(3).density()
    want = sed_measure(rho, v, dec)
    got = sed_measure(rho.tolist(), v.tolist(), dec)
    assert got.value == want.value and got.diagonal_ok
    with pytest.raises(ValueError):
        sed_measure(rho, np.eye(4).tolist(), dec)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf)], ids=["nan", "inf", "inf-j"])
def test_sed_measure_rejects_non_finite(bad):
    # named before the first product, not read out as nan or blamed on diagonality
    dec = sed_decomposition(select_witness("ghz", 3))
    rho, v = np.eye(8, dtype=complex) / 8, ghz_entangler_matrix(3)
    rho[1, 2] = bad
    with pytest.raises(ValueError, match="density matrix has non-finite"):
        sed_measure(rho, v, dec)
    v = v.copy()
    v[2, 1] = bad
    with pytest.raises(ValueError, match="entangler has non-finite"):
        sed_measure(np.eye(8) / 8, v, dec)


def test_sed_measure_zero_state_trial():
    # rho_out = |0...0><0...0| makes both sides equal c - 1
    rng = np.random.default_rng(17)
    dec = SedDecomposition(3, c=0.5)
    v = haar_unitary(8, rng)
    rho_out = np.zeros((8, 8), dtype=complex)
    rho_out[0, 0] = 1.0
    rho_in = v @ rho_out @ dagger(v)
    res = sed_measure(rho_in, v, dec)
    assert res.diagonal_ok
    assert res.value == pytest.approx(0.5 - 1.0, abs=1e-10)


def test_verify_equality_small():
    for n in (2, 3):
        report = verify_equality(n, trials=100, seed=7 * n)
        assert report["passed"]
        assert report["max_deviation"] <= 1e-10
        assert report["trials"] == 100
        assert report["diag_deviation"] <= 1e-10
    assert list(report) == [
        "n", "trials", "seed", "max_deviation", "tolerance", "passed", "diag_deviation", "diag_tolerance",
    ]


@pytest.mark.parametrize("trials", [0, -2])
def test_verify_equality_needs_a_trial(trials):
    with pytest.raises(ValueError, match="trials >= 1"):
        verify_equality(3, trials=trials)


def test_weighted_z_sum_slots():
    # a_k multiplies Z on slot n-k+1: a_n acts on qubit 1
    n = 3
    a = np.array([0.0, 0.0, 1.0])
    m = weighted_z_sum(n, 0.0, a)
    assert np.max(np.abs(m - embed_gate(Z, [1], n))) == 0.0


def test_sed_decomposition_attaches_witness_constant():
    dec = SedDecomposition(4, c=0.5)
    assert dec.c == 0.5 and dec.a0 == 0.5 + dec.b
    assert sed_decomposition(select_witness("w", 3)).a0 == 0.25 + SedDecomposition(3).b


def test_sed_decomposition_errors():
    with pytest.raises(ValueError):
        SedDecomposition(1)
    with pytest.raises(ValueError):
        SedDecomposition(2).a0  # no witness constant attached
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            SedDecomposition(3, bad)


def test_records_keep_only_their_inputs():
    assert [f.name for f in fields(SedDecomposition)] == ["n", "c"]
    assert [f.name for f in fields(SedMeasurementResult)] == ["z", "value", "offdiag_max"]
    z = np.zeros(3)
    assert SedMeasurementResult(z, 0.0, 1e-10).diagonal_ok
    assert not SedMeasurementResult(z, 0.0, 1.0).diagonal_ok
