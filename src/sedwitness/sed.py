"""Single-experiment-detectable form of a witness.

The witness is rewritten as a0 + U^dag (sum_k a_k Z_k) U with U = V'^dag V^dag,
so that one simultaneous ensemble readout of the single-qubit polarizations
z_k recovers the conventional witness value, provided the state after the
disentangling step V^dag is diagonal.  V' is built by induction from an
explicit 4x4 solution:

    V'_{n+1} = U_bd * U_p * (I (x) V'_n)

where U_p swaps the first and last qubits and U_bd = diag(I, H, ..., H).
The induction is realized gate by gate by circuit.vprime_dagger_circuit,
the one definition of V' in the package; no dense V' is formed.  The
readout applies V'^dag after V^dag and reads every z_k at once, so
z_k = Tr(O_k rho_out) with rho_out = V^dag rho V and O_k = V' Z_k V'^dag,
an observable of n alone.  Each O_k is sparse, at most 3 nonzeros per row
for k = 1, 2 and one for k >= 3, so (n+3) 2**n terms in all, conjugated
through the gate list.  Coefficients halve at each induction
step and the new leading coefficient is -1/2, giving the closed forms
b = -2**-n, a_1 = a_2 = 3 * 2**-(n+1) and a_k = -2**(k-n-1) for k >= 3.

Coefficient/slot pairing: a_k multiplies Z on tensor slot n-k+1 counted
from the left, so a_1 sits on the last qubit and a_n on the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import Gate, vprime_dagger_circuit
from .states import PureState
from .tensor import ATOL_ALGEBRA, ATOL_PHYSICS, _integer, _witness_constant, checked_operand, dagger, haar_unitary, z_signs
from .witness import Witness, expectation, generic_witness


@dataclass(frozen=True, eq=False)
class SedDecomposition:
    """The coefficients of V'_n and its sparse readout observables O_k, all
    derived from n on read (the O_k on first use); c is attached from the
    associated witness."""

    n: int
    c: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "SED decomposition n"))
        if self.n < 2:
            raise ValueError("SED decomposition needs n >= 2")
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
        k = 1..n, Z_k on tensor slot n-k+1.  Each Z_k starts diagonal and is
        conjugated by g^dag . g for the gates g of V'^dag, last gate first."""
        n = self.n
        idx = np.arange(2**n)
        key = ((np.arange(n)[:, None] << 2 * n) | (idx << n) | idx).ravel()
        val = z_signs(n).ravel().astype(complex)
        for g in reversed(vprime_dagger_circuit(n).gates):
            key, val = _conjugated_terms(key, val, g, n)
        return key >> 2 * n, (key >> n) & (2**n - 1), key & (2**n - 1), val

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


def _local_index(idx: np.ndarray, g: Gate, n: int) -> np.ndarray:
    """The target bits of each register index as g's local basis index."""
    t = np.zeros(len(idx), dtype=np.int64)
    for q in g.targets:
        t = (t << 1) | ((idx >> (n - q)) & 1)
    return t


def _conjugated_terms(key: np.ndarray, val: np.ndarray, g: Gate, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Terms of g^dag O g from the terms of O, keyed (k << 2n) | (row << n) | col.

    (g^dag O g)[r', c'] = sum conj(g[r, r']) O[r, c] g[c, c'], and g moves
    only the target bits of an index whose controls hold.  So a term spreads
    over the nonzero entries of one row of the base on each side (of the
    identity where the controls fail), and a term whose row and column both
    fail them stays as it is.  Terms that land on one key are summed, and
    residues below ATOL_ALGEBRA are dropped.
    """
    d = len(g.base)
    cmask = sum(1 << (n - q) for q, _ in g.controls)
    cval = sum(pol << (n - q) for q, pol in g.controls)
    tbits = sum(1 << (n - q) for q in g.targets)
    row, col = (key >> n) & (2**n - 1), key & (2**n - 1)
    ok_r, ok_c = (row & cmask) == cval, (col & cmask) == cval
    idle = ~(ok_r | ok_c)
    kept = key[idle], val[idle]
    key, val, row, col, ok_r, ok_c = (a[~idle] for a in (key, val, row, col, ok_r, ok_c))

    # rows 0..d-1 of m are the base, rows d..2d-1 the identity of a failed control;
    # each row lists its r nonzero columns (weight 0 pads a shorter row) as register bits
    m = np.vstack([g.base, np.eye(d)])
    r = int(np.count_nonzero(m, axis=1).max())
    cols = np.argsort(m == 0, axis=1, kind="stable")[:, :r]
    local_bits = sum(((np.arange(d) >> (len(g.targets) - 1 - i)) & 1) << (n - q) for i, q in enumerate(g.targets))
    bits, wts = local_bits[cols], np.take_along_axis(m, cols, axis=1)
    # one table over (row's m-row, column's m-row) pairs: r x r key offsets and weights
    pair_bits = ((bits[:, None, :, None] << n) | bits[None, :, None, :]).reshape(4 * d * d, r * r)
    pair_wts = (wts.conj()[:, None, :, None] * wts[None, :, None, :]).reshape(4 * d * d, r * r)
    pair = (_local_index(row, g, n) + d * ~ok_r) * 2 * d + _local_index(col, g, n) + d * ~ok_c
    key = ((key & ~((tbits << n) | tbits))[:, None] | pair_bits[pair]).ravel()
    val = (val[:, None] * pair_wts[pair]).ravel()
    if r > 1:  # a base with one nonzero per row maps distinct keys to distinct keys
        key, group = np.unique(key, return_inverse=True)
        val = np.bincount(group, val.real) + 1j * np.bincount(group, val.imag)
        keep = np.abs(val) > ATOL_ALGEBRA
        key, val = key[keep], val[keep]
    return np.concatenate([key, kept[0]]), np.concatenate([val, kept[1]])


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
    offdiag_max = float(np.max(np.abs(rho_out - np.diag(np.diag(rho_out)))))
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
    of z_terms; the tests check it a second, independent way, through the
    dense V' that circuit_unitary makes of the gate list.
    `passed` requires both deviations within ATOL_PHYSICS.
    """
    trials, seed = _integer(trials, "trials"), _integer(seed, "seed")
    if trials < 1:
        raise ValueError(f"verify_equality needs trials >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"verify_equality needs seed >= 0, got {seed}")
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
