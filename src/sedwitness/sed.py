"""Single-experiment-detectable form of a witness.

The witness is rewritten as a0 + U^dag (sum_k a_k Z_k) U with U = V'^dag V^dag,
so that one simultaneous ensemble readout of the single-qubit polarizations
z_k recovers the conventional witness value, provided the state after the
disentangling step V^dag is diagonal.  V' is built by induction from an
explicit 4x4 solution:

    V'_{n+1} = U_bd * U_p * (I (x) V'_n)

where U_p swaps the first and last qubits and U_bd = diag(I, H, ..., H).
circuit.vprime_dagger_circuit realizes the induction gate by gate, the one
circuit of V' in the package; no dense V' is formed.  The readout applies
V'^dag after V^dag and reads every z_k at once, so z_k = Tr(O_k rho_out)
with rho_out = V^dag rho V and O_k = V' Z_k V'^dag, an observable of n
alone.  The induction gives the O_k in closed form.  The new Z_{n+1} enters
on the first qubit, which I (x) V'_n leaves alone; U_p moves it to the last
qubit, and U_bd turns it into P (x) Z + (1 - P) (x) X there, P the
projector of the other qubits onto |0...0>.  Every older O_k has |0...0> as
an eigenvector, so it commutes with U_bd, and I (x) and U_p only move it
along the register.  So O_1 and O_2 are the 4x4 V'_2 (Z) V'_2^dag tiled
over the other qubits, and each O_k with k >= 3 is a signed permutation,
(n+3) 2**n nonzero terms in all; the tests check them against the gate
list.  Coefficients halve at each induction step and the new leading
coefficient is -1/2, giving the closed forms b = -2**-n,
a_1 = a_2 = 3 * 2**-(n+1) and a_k = -2**(k-n-1) for k >= 3.

Coefficient/slot pairing: a_k multiplies Z on tensor slot n-k+1 counted
from the left, so a_1 sits on the last qubit and a_n on the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import vprime2
from .states import PureState
from .tensor import ATOL_ALGEBRA, ATOL_PHYSICS, I2, Z, _size, _witness_constant, checked_operand, dagger, haar_unitary
from .witness import Witness, expectation, generic_witness


@dataclass(frozen=True, eq=False)
class SedDecomposition:
    """The coefficients of V'_n and its sparse readout observables O_k, all
    derived from n on read (the O_k on first use); c is attached from the
    associated witness."""

    n: int
    c: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", _size(self.n, "SED decomposition n", 2))
        if self.c is not None:
            object.__setattr__(self, "c", _witness_constant(self.c))

    @property
    def b(self) -> float:
        return -(2.0**-self.n)

    @property
    def a(self) -> np.ndarray:
        """a[k-1] = a_k: a_1 = a_2 = 3 * 2**-(n+1), a_k = -2**(k-n-1) for k >= 3."""
        n = self.n
        return np.array([3 * 2.0 ** -(n + 1)] * 2 + [-(2.0 ** (k - n - 1)) for k in range(3, n + 1)])

    @cached_property
    def z_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Nonzero terms (k - 1, row, col, value) of O_k = V' Z_k V'^dag for
        k = 1..n, Z_k on tensor slot n-k+1, in the closed form of the
        induction, k-major:

        - O_1 = V'_2 (I (x) Z) V'_2^dag and O_2 = V'_2 (Z (x) I) V'_2^dag,
          V'_2's first factor on qubit n-1 and its second on qubit n-2
          (qubits 1 and 2 at n = 2), tiled over the other qubits;
        - O_k = P_S (x) Z_t + (1 - P_S) (x) X_t for k >= 3, with P_S the
          projector of the qubits S = {n-k+1, ..., n-1} onto |0...0> and
          t = n-k (S = {1, ..., n-1} and t = n at k = n): one entry +-1 per
          column.
        """
        n = self.n
        j = np.arange(2**n)
        # qubit q is index bit n-q, so V'_2's factors sit on bits 1 and 2 mod n;
        # place[a] puts the local index a on them
        v = vprime2()
        local = np.stack([v @ np.kron(I2, Z) @ dagger(v), v @ np.kron(Z, I2) @ dagger(v)])
        k12, r, c = np.nonzero(np.abs(local) > ATOL_ALGEBRA)
        place = np.array([0, 1 << 2 % n, 2, 2 | 1 << 2 % n])
        rest = j[(j & place[3]) == 0]
        row12, col12 = ((place[a][:, None] | rest).ravel() for a in (r, c))
        # k >= 3: S is bits 1..k-1 and t is bit k mod n
        k = np.arange(3, n + 1)[:, None]
        t = 1 << k % n
        held = (j & ((1 << k) - 2)) == 0
        row = np.where(held, j, j ^ t)
        val = np.where(held & (j & t > 0), -1.0, 1.0)
        return (
            np.concatenate([np.repeat(k12, len(rest)), np.repeat(k.ravel() - 1, 2**n)]),
            np.concatenate([row12, row.ravel()]),
            np.concatenate([col12, np.broadcast_to(j, row.shape).ravel()]),
            np.concatenate([np.repeat(local[k12, r, c], len(rest)), val.ravel()]),
        )

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


def sed_measure(rho_in: np.ndarray, v_entangler: np.ndarray, dec: SedDecomposition) -> SedMeasurementResult:
    """Simulate the single-run readout: apply U = V'^dag V^dag, read all z_k.

    rho_out = V^dag rho_in V is formed densely, and each z_k is the real
    part of Tr(O_k rho_out), read from the sparse terms of O_k.
    diagonal_ok audits the precondition that V^dag rho_in V is diagonal,
    with offdiag_max as the residual behind it; the value is reported
    either way but equals the conventional witness expectation only when
    the audit passes.
    """
    rho_in = checked_operand(rho_in, 2**dec.n, "density matrix")
    v_entangler = checked_operand(v_entangler, 2**dec.n, "entangler")
    rho_out = dagger(v_entangler) @ rho_in @ v_entangler
    off = np.abs(rho_out)
    np.fill_diagonal(off, 0.0)
    offdiag_max = float(np.max(off))
    k, row, col, val = dec.z_terms
    z = np.bincount(k, weights=(val * rho_out[col, row]).real, minlength=dec.n)
    value = dec.a0 + float(np.dot(dec.a, z))
    return SedMeasurementResult(z, value, offdiag_max)


def verify_equality(n: int, trials: int = 100, seed: int = 0) -> dict:
    """Check the readout against the direct witness trace on random states,
    and the diagonal of V' (b + sum_k a_k Z_k) V'^dag against (-1, 0, ..., 0).

    Each trial draws a random diagonal rho_out (symmetric Dirichlet) and a
    Haar-random entangler V, sets rho_in = V rho_out V^dag, and compares the
    SED readout with Tr(W rho_in) for the witness of the target V|0>.  The
    witness constant cancels in the comparison; a fixed c = 1/2 is used.
    The diagonal is b + sum_k a_k O_k[j, j], read from the row == col terms
    of the closed-form z_terms, so it checks the coefficients against the
    O_k.  That the gate list of V'_n gives these O_k is checked in the
    tests, through the dense V' that circuit_unitary makes of it and
    through a sparse conjugation gate by gate.
    `passed` requires both deviations within ATOL_PHYSICS.
    """
    trials, seed = _size(trials, "trials", 1), _size(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    c = 0.5
    dec = SedDecomposition(n, c)
    dim = 2**dec.n
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
    k, row, col, val = dec.z_terms
    on = row == col
    obs_diag = dec.b + np.bincount(row[on], weights=dec.a[k[on]] * val[on].real, minlength=dim)
    obs_diag[0] += 1.0  # the target is (-1, 0, ..., 0)
    diag_dev = float(np.max(np.abs(obs_diag)))
    return {
        "n": dec.n,
        "trials": trials,
        "seed": seed,
        "max_deviation": max_dev,
        "tolerance": ATOL_PHYSICS,
        "passed": bool(max_dev <= ATOL_PHYSICS and diag_dev <= ATOL_PHYSICS),
        "diag_deviation": diag_dev,
        "diag_tolerance": ATOL_PHYSICS,
    }
