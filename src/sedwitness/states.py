"""Reference states: computational basis, GHZ, W and pseudopure mixtures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ATOL_ALGEBRA, _integer, _probability, n_qubits


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized n-qubit state vector; n is read off its 2**n amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        n_qubits(amps.size)
        if not abs(np.linalg.norm(amps) - 1.0) <= ATOL_ALGEBRA:
            raise ValueError("amplitudes are not normalized")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n(self) -> int:
        return n_qubits(self.amplitudes.size)

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


def basis_state(n: int, index: int = 0) -> PureState:
    n, index = _integer(n, "n"), _integer(index, "basis index")
    if not 0 <= index < 2**n:
        raise ValueError(f"basis index {index} out of 0..{2**n - 1}")
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return PureState(amps)


def make_ghz(n: int) -> PureState:
    """(|0...0> + |1...1>) / sqrt(2)."""
    n = _integer(n, "n")
    if n < 2:
        raise ValueError("GHZ state needs n >= 2")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2.0)
    return PureState(amps)


def make_w(n: int) -> PureState:
    """Equal superposition of all single-excitation basis states."""
    n = _integer(n, "n")
    if n < 2:
        raise ValueError("W state needs n >= 2")
    amps = np.zeros(2**n, dtype=complex)
    for k in range(n):
        amps[2**k] = 1 / np.sqrt(n)
    return PureState(amps)


def pseudopure_matrix(core: PureState, epsilon: float) -> np.ndarray:
    """Mixture (1-eps) * identity/2**n + eps * |core><core|."""
    epsilon = _probability(epsilon, "epsilon")
    dim = 2**core.n
    return (1 - epsilon) * np.eye(dim, dtype=complex) / dim + epsilon * core.density()
