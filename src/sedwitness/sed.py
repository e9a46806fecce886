"""Single-experiment-detectable form of a witness.

The witness is rewritten as a0 + U^dag (sum_k a_k Z_k) U with U = V'^dag V^dag,
so that one simultaneous ensemble readout of the single-qubit polarizations
z_k recovers the conventional witness value, provided the state after the
disentangling step V^dag is diagonal.  V' is built by induction from an
explicit 4x4 solution:

    V'_{n+1} = U_bd * U_p * (I (x) V'_n)

where U_p swaps the first and last qubits and U_bd = diag(I, H, ..., H).
The induction is realized gate by gate by circuit.vprime_dagger_circuit,
whose unitary gives the dense V'.  Coefficients halve at each induction
step and the new leading coefficient is -1/2, giving the closed forms
b = -2**-n, a_1 = a_2 = 3 * 2**-(n+1) and a_k = -2**(k-n-1) for k >= 3.

Coefficient/slot pairing: a_k multiplies Z on tensor slot n-k+1 counted
from the left, so a_1 sits on the last qubit and a_n on the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import circuit_unitary, vprime_dagger_circuit
from .states import PureState
from .tensor import ATOL_PHYSICS, dagger, haar_unitary, z_signs
from .witness import Witness, expectation, generic_witness


@dataclass(frozen=True, eq=False)
class SedDecomposition:
    """V'_n and its coefficients, all derived from n on read; c is attached
    from the associated witness."""

    n: int
    c: float | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("SED decomposition needs n >= 2")
        if self.c is not None and not math.isfinite(self.c):
            raise ValueError(f"witness constant c = {self.c} is non-finite")

    @property
    def b(self) -> float:
        return -(2.0**-self.n)

    @property
    def a(self) -> np.ndarray:
        """a[k-1] = a_k: a_1 = a_2 = 3 * 2**-(n+1), a_k = -2**(k-n-1) for k >= 3."""
        n = self.n
        return np.array([3 * 2.0 ** -(n + 1)] * 2 + [-(2.0 ** (k - n - 1)) for k in range(3, n + 1)])

    @cached_property
    def vprime(self) -> np.ndarray:
        """Dense V'_n, the dagger of the unitary of its gate circuit."""
        return dagger(circuit_unitary(vprime_dagger_circuit(self.n)))

    @property
    def a0(self) -> float:
        if self.c is None:
            raise ValueError("no witness constant attached; use sed_decomposition()")
        return self.c + self.b


@dataclass(frozen=True, eq=False)
class SedMeasurementResult:
    z: np.ndarray  # z[k-1] = Tr(U rho U^dag Z on slot n-k+1)
    value: float
    offdiag_max: float  # largest off-diagonal |entry| of V^dag rho_in V

    @property
    def diagonal_ok(self) -> bool:
        return self.offdiag_max <= ATOL_PHYSICS


def sed_decomposition(w: Witness) -> SedDecomposition:
    return SedDecomposition(w.n, w.c)


def weighted_z_sum(n: int, b: float, a: np.ndarray) -> np.ndarray:
    """b * identity + sum_k a_k Z placed on tensor slot n-k+1."""
    return np.diag(b + np.asarray(a) @ z_signs(n)).astype(complex)


def conjugated_observable(dec: SedDecomposition) -> np.ndarray:
    """V' (b + sum_k a_k Z_k) V'^dag; diagonal should be (-1, 0, ..., 0)."""
    return dec.vprime @ weighted_z_sum(dec.n, dec.b, dec.a) @ dagger(dec.vprime)


def sed_measure(rho_in: np.ndarray, v_entangler: np.ndarray, dec: SedDecomposition) -> SedMeasurementResult:
    """Simulate the single-run readout: apply U = V'^dag V^dag, read all z_k.

    diagonal_ok audits the precondition that V^dag rho_in V is diagonal,
    with offdiag_max as the residual behind it; the value is reported
    either way but equals the conventional witness expectation only when
    the audit passes.
    """
    rho_in = np.asarray(rho_in, dtype=complex)
    v_entangler = np.asarray(v_entangler, dtype=complex)
    n = dec.n
    dim = 2**n
    if rho_in.shape != (dim, dim) or v_entangler.shape != (dim, dim):
        raise ValueError("dimension mismatch between state, entangler and decomposition")
    if not np.isfinite(rho_in).all():
        raise ValueError("density matrix has non-finite entries")
    if not np.isfinite(v_entangler).all():
        raise ValueError("entangler has non-finite entries")
    rho_out = dagger(v_entangler) @ rho_in @ v_entangler
    offdiag_max = float(np.max(np.abs(rho_out - np.diag(np.diag(rho_out)))))
    # diagonal of sigma = V'^dag rho_out V'
    sigma_diag = np.einsum("ij,ij->j", dec.vprime.conj(), rho_out @ dec.vprime).real
    z = z_signs(n) @ sigma_diag
    value = dec.a0 + float(np.dot(dec.a, z))
    return SedMeasurementResult(z, value, offdiag_max)


def verify_equality(n: int, trials: int = 100, seed: int = 0) -> dict:
    """Check the readout against the direct witness trace on random states,
    and the diagonal of V' (b + sum_k a_k Z_k) V'^dag against (-1, 0, ..., 0).

    Each trial draws a random diagonal rho_out (symmetric Dirichlet) and a
    Haar-random entangler V, sets rho_in = V rho_out V^dag, and compares the
    SED readout with Tr(W rho_in) for the witness of the target V|0>.  The
    witness constant cancels in the comparison; a fixed c = 1/2 is used.
    `passed` requires both deviations within ATOL_PHYSICS.
    """
    if trials < 1:
        raise ValueError(f"verify_equality needs trials >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    c = 0.5
    dec = SedDecomposition(n, c)
    dim = 2**n
    max_dev = 0.0
    for _ in range(trials):
        diag = rng.dirichlet(np.ones(dim))
        v = haar_unitary(dim, rng)
        rho_in = v @ np.diag(diag).astype(complex) @ dagger(v)
        conv = expectation(generic_witness(PureState(v[:, 0]), c), rho_in)
        res = sed_measure(rho_in, v, dec)
        max_dev = max(max_dev, abs(res.value - conv))
        if not res.diagonal_ok:
            raise AssertionError("rho_out unexpectedly non-diagonal in verify_equality")
    target = np.zeros(dim)
    target[0] = -1.0
    diag_dev = float(np.max(np.abs(np.diag(conjugated_observable(dec)).real - target)))
    return {
        "n": n,
        "trials": trials,
        "seed": seed,
        "max_deviation": max_dev,
        "tolerance": ATOL_PHYSICS,
        "passed": bool(max_dev <= ATOL_PHYSICS and diag_dev <= ATOL_PHYSICS),
        "diag_deviation": diag_dev,
        "diag_tolerance": ATOL_PHYSICS,
    }
