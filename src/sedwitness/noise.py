"""Probabilistic gate noise, pulled back through a circuit, and the (p, h) sweep.

Each gate succeeds with probability p_s = h**k, where k is the number of
qubits the gate touches (controls included); on failure the touched block
is replaced by the maximally mixed state:

    E(rho) = p_s U rho U^dag + (1 - p_s) Tr_t(rho) (x) 1/2**len(t)

with the mixed factor re-embedded at the gate's qubit positions.  The
package runs this channel in one picture only, the Heisenberg picture on
real Pauli coefficients: `pull_back` maps the coefficients of an
observable O to those of E^dag(O), so Tr(O E(rho)) = Tr(E^dag(O) rho) for
every input rho.  In the Pauli-string basis the adjoint of a noisy gate is
E_g^dag = R_g D_g, where D_g multiplies by p_s every string that is not
the identity on the gate's qubits (Tr_t of a traceless factor is 0) and
R_g is the real 4**k x 4**k Pauli transfer matrix of O -> U^dag O U.  R_g
does not depend on h, so one backward walk over the gate list pulls an
observable back for a whole chunk of h values at once, each gate one
matmul on its own axes.

The sweep prepares a thermal product state, runs the noisy entangler, then
compares the conventional witness (noiseless direct trace) with the
single-run readout whose measurement circuit (disentangler followed by the
expanded V'^dag circuit) is itself noisy.  Both observables are pulled
back to the thermal input.  It is diagonal, so every p reads only the I/Z
strings: Tr(rho_0(p) P_z) = (2p - 1)**|z|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import (
    Circuit,
    Gate,
    circuit_unitary,
    dagger_circuit,
    expand_multicontrolled,
    select_entangler,
    vprime_dagger_circuit,
)
from .sed import sed_decomposition
from .tensor import ATOL_ALGEBRA, ATOL_GRID, n_qubits, pauli_coefficients, pauli_strings
from .witness import select_witness


@dataclass(frozen=True)
class SweepRecord:
    p: float
    h: float
    value_conv: float
    value_sed: float


@lru_cache(maxsize=4096)
def _adjoint_transfer(raw: bytes, dim: int, polarities: tuple) -> np.ndarray:
    """Read-only Pauli transfer matrix R[a, b] = Tr(P_a U^dag P_b U) / 2**k
    of O -> U^dag O U, for the gate whose base has bytes `raw` and whose
    controls have these polarities, placed on its own k qubits with the
    controls first and the targets after them in order."""
    m = len(polarities)
    k = m + n_qubits(dim)
    local = Gate(
        np.frombuffer(raw, dtype=complex).reshape(dim, dim),
        tuple(range(m + 1, k + 1)),
        tuple((i + 1, pol) for i, pol in enumerate(polarities)),
    )
    u = circuit_unitary(Circuit(k, (local,)))
    strings = pauli_strings(k)
    pulled = np.einsum("ji,bjk,kl->bil", u.conj(), strings, u)  # U^dag P_b U
    r = np.einsum("aij,bji->ab", strings, pulled).real / 2**k
    r.flags.writeable = False
    return r


# coefficients in one walk over the gates: past about 2**20 (8 MB) the
# arrays leave the cache and each h costs more than in a walk of its own
# (measured at n = 9 and 10), so larger h grids are walked in chunks
_WALK_COEFFS = 2**20


def pull_back(c: Circuit, coeffs: np.ndarray, grid_h) -> np.ndarray:
    """Pauli coefficients of E^dag(O) for the noisy run E of c at each h of grid_h.

    coeffs holds the real Pauli coefficients of O, shape (4,)*c.n; the
    result has one more, leading axis over grid_h.  The gates are walked
    last to first, once for as many h values as fit _WALK_COEFFS: gate g
    applies M_g = R_g diag(1, p_s, ..., p_s), one 4**k x 4**k matrix per h,
    to the axes of its own k qubits.
    """
    n = c.n
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (4,) * n:
        raise ValueError(f"coefficients of shape {coeffs.shape} do not fit {n} qubits")
    grid_h = [float(h) for h in grid_h]
    for h in grid_h:
        if not 0.0 <= h <= 1.0:
            raise ValueError(f"h {h} out of [0, 1]")
    out = np.empty((len(grid_h),) + coeffs.shape)
    per_walk = max(1, _WALK_COEFFS // 4**n)
    for i in range(0, len(grid_h), per_walk):
        out[i : i + per_walk] = _walk(c, coeffs, grid_h[i : i + per_walk])
    return out


def _walk(c: Circuit, coeffs: np.ndarray, grid_h: list[float]) -> np.ndarray:
    """One walk of pull_back, for all of grid_h at once."""
    n = c.n
    out = np.repeat(coeffs[None], len(grid_h), axis=0)
    order = list(range(1, n + 1))  # order[i] is the qubit on axis i + 1 of out
    for g in reversed(c.gates):
        qubits = g.qubits()
        k = len(qubits)
        r = _adjoint_transfer(g.base.tobytes(), len(g.base), tuple(pol for _, pol in g.controls))
        damp = np.ones((len(grid_h), 1, 4**k))
        damp[:, :, 1:] = np.array([h**k for h in grid_h])[:, None, None]  # p_s per h
        # the gate's axes go first, the others keep their order, so the
        # transpose copies long contiguous runs; the result keeps that order
        new = qubits + [q for q in order if q not in qubits]
        if new != order:
            out = out.transpose([0] + [order.index(q) + 1 for q in new])
            order = new
        out = (r * damp) @ out.reshape(len(grid_h), 4**k, 4 ** (n - k))  # M_g per h
        out = out.reshape((len(grid_h),) + (4,) * n)
    return out.transpose([0] + [order.index(q) + 1 for q in range(1, n + 1)])


def thermal_readout(coeffs: np.ndarray, grid_p) -> np.ndarray:
    """Tr(rho_0(p) O) for every row O of coeffs and every p of grid_p.

    coeffs has shape (m,) + (4,)*n, the Pauli coefficients of one observable
    per row; rho_0(p) is the thermal product state.  It is diagonal, so only
    the I/Z strings count, with Tr(rho_0(p) P_z) = (2p - 1)**|z| for |z| Z
    factors: each qubit's axis of the I/Z sub-array is contracted with
    (1, 2p - 1), a pairwise sum that rounds less than one long dot product.
    Returns the (m, len(grid_p)) array.
    """
    n = coeffs.ndim - 1
    x = 2 * np.asarray(grid_p, dtype=float) - 1
    zi = coeffs[(slice(None),) + (slice(None, None, 3),) * n]
    out = zi[:, None] * np.ones((len(x),) + (1,) * n)  # (m, len(grid_p), 2, ..., 2)
    for left in range(n - 1, -1, -1):
        out = out[..., 0] + x.reshape((-1,) + (1,) * left) * out[..., 1]
    return out


def sweep(
    n: int,
    grid_p,
    grid_h,
    witness_kind: str = "ghz",
    entangler_mode: str = "witness",
) -> list[SweepRecord]:
    """Noise sweep over the (p, h) grid, p-major order.

    entangler_mode "witness" prepares the witness target through the noisy
    entangler; "identity" skips preparation (the register stays in the
    separable thermal state) while the measurement circuit is unchanged.
    """
    grid_p = [float(p) for p in grid_p]
    grid_h = [float(h) for h in grid_h]
    if any(not 0 <= v <= 1 for v in grid_p + grid_h):
        raise ValueError("grid values must lie in [0, 1]")
    if entangler_mode not in ("witness", "identity"):
        raise ValueError(f"unknown entangler mode {entangler_mode!r}")
    entangler = select_entangler(witness_kind, n)
    w = select_witness(witness_kind, n)
    dec = sed_decomposition(w)
    readout = np.zeros((4,) * n)  # sum_k a_k Z on tensor slot n-k+1
    for k, a_k in enumerate(dec.a, 1):
        readout[(0,) * (n - k) + (3,) + (0,) * (k - 1)] = a_k
    prep = entangler if entangler_mode == "witness" else Circuit(n, ())
    measurement = dagger_circuit(entangler).then(expand_multicontrolled(vprime_dagger_circuit(n)))
    # per h and p: the observables pulled back to the thermal input, read there.
    # W = c 1 - |psi><psi| and every noisy gate adjoint leaves 1 alone, so c stays exact
    projector = pauli_coefficients(w.target.density())
    conv = w.c - thermal_readout(pull_back(prep, projector, grid_h), grid_p)
    sed = thermal_readout(pull_back(prep.then(measurement), readout, grid_h), grid_p)
    return [
        SweepRecord(p, h, float(conv[j, i]), dec.a0 + float(sed[j, i]))
        for i, p in enumerate(grid_p)
        for j, h in enumerate(grid_h)
    ]


def sweep_csv(records: list[SweepRecord]) -> str:
    lines = ["p,h,value_conv,value_sed"]
    for r in records:
        lines.append(f"{r.p:.12g},{r.h:.12g},{r.value_conv:.12g},{r.value_sed:.12g}")
    return "\n".join(lines) + "\n"


def grid_values(lo: float, hi: float, step: float) -> list[float]:
    """Inclusive grid with exact endpoints; step must divide hi - lo."""
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"step {step:g} and range [{lo:g}, {hi:g}] must be finite")
    if step <= 0 or hi < lo:
        raise ValueError("need step > 0 and hi >= lo")
    intervals = (hi - lo) / step
    if not math.isfinite(intervals):
        raise ValueError(f"step {step:g} is too small for the range [{lo:g}, {hi:g}]")
    count = round(intervals) + 1
    if abs(intervals - (count - 1)) > ATOL_GRID or (count == 1 and hi > lo):
        raise ValueError(f"step {step:g} does not divide the range [{lo:g}, {hi:g}]")
    return [float(v) for v in np.linspace(lo, hi, count)]


def zero_crossing_h(records: list[SweepRecord], p: float, field: str = "value_sed") -> float | None:
    """Smallest h of the contiguous negative run ending at the largest h.

    A value counts as negative only below -ATOL_ALGEBRA, so rounding around
    an analytic 0 decides nothing.  Returns None when the value at the
    largest grid h is not negative.
    """
    row = sorted((r for r in records if abs(r.p - p) < ATOL_ALGEBRA), key=lambda r: -r.h)
    crossing = None
    for r in row:
        if getattr(r, field) < -ATOL_ALGEBRA:
            crossing = r.h
        else:
            break
    return crossing
