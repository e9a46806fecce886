from dataclasses import fields

import numpy as np
import pytest

from dense_oracle import thermal_matrix
from sedwitness.states import (
    PureState,
    basis_state,
    make_ghz,
    make_w,
    pseudopure_matrix,
)


def test_ghz_amplitudes():
    ghz = make_ghz(3)
    expected = np.zeros(8)
    expected[0] = expected[7] = 1 / np.sqrt(2)
    assert np.allclose(ghz.amplitudes, expected)
    bell = make_ghz(2)
    assert np.allclose(bell.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
    assert abs(np.vdot(ghz.amplitudes, ghz.amplitudes) - 1) <= 1e-12


def test_w_amplitudes():
    w = make_w(3)
    expected = np.zeros(8)
    expected[[4, 2, 1]] = 1 / np.sqrt(3)
    assert np.allclose(w.amplitudes, expected)
    assert np.allclose(make_w(2).amplitudes, [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])
    # GHZ and W are orthogonal for three qubits
    assert abs(np.vdot(w.amplitudes, make_ghz(3).amplitudes)) ** 2 <= 1e-24


def test_state_errors():
    for bad in (0, 1):
        with pytest.raises(ValueError):
            make_ghz(bad)
        with pytest.raises(ValueError):
            make_w(bad)
    with pytest.raises(ValueError, match="not normalized"):
        PureState(np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="not normalized"):
        PureState(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match="not a power of two"):
        PureState(np.ones(3) / np.sqrt(3))
    # a basis index outside 0..2^n - 1 is named, not wrapped or left to IndexError
    for index in (-1, 8):
        with pytest.raises(ValueError, match=rf"basis index {index} out of 0\.\.7"):
            basis_state(3, index)


def test_pure_state_reads_n_off_its_amplitudes():
    assert [f.name for f in fields(PureState)] == ["amplitudes"]
    assert make_w(5).n == 5 and basis_state(1).n == 1


def test_pseudopure_limits():
    ghz = make_ghz(2)
    assert np.allclose(pseudopure_matrix(ghz, 0.0), np.eye(4) / 4)
    assert np.allclose(pseudopure_matrix(ghz, 1.0), ghz.density())
    rho = pseudopure_matrix(ghz, 0.5)
    assert abs(np.trace(rho) - 1) <= 1e-12
    with pytest.raises(ValueError):
        pseudopure_matrix(ghz, 1.5)


def test_pseudopure_affine_in_epsilon():
    ghz = make_ghz(3)
    lo = pseudopure_matrix(ghz, 0.0)
    hi = pseudopure_matrix(ghz, 1.0)
    for eps in (0.2, 0.5, 0.77):
        mid = pseudopure_matrix(ghz, eps)
        assert np.max(np.abs(mid - ((1 - eps) * lo + eps * hi))) <= 1e-13


def test_thermal_matrix_values():
    assert np.allclose(thermal_matrix(3, 1.0), np.diag([1, 0, 0, 0, 0, 0, 0, 0]))
    assert np.allclose(thermal_matrix(2, 0.5), np.eye(4) / 4)
    assert np.allclose(thermal_matrix(1, 0.8), np.diag([0.8, 0.2]))
    with pytest.raises(ValueError):
        thermal_matrix(2, -0.1)


def test_thermal_weight_pattern():
    p = 0.7
    rho = thermal_matrix(3, p)
    for idx in range(8):
        w = bin(idx).count("1")
        assert rho[idx, idx].real == pytest.approx(p ** (3 - w) * (1 - p) ** w, abs=1e-15)


def test_emitted_density_matrices_are_physical():
    ghz = make_ghz(3)
    samples = [
        pseudopure_matrix(ghz, eps) for eps in (0.0, 0.3, 1.0)
    ] + [thermal_matrix(3, p) for p in (0.0, 0.4, 1.0)]
    samples.append(basis_state(3, 5).density())
    for rho in samples:
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert abs(np.trace(rho) - 1) <= 1e-12
        assert np.linalg.eigvalsh(rho)[0] >= -1e-10
