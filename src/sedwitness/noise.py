"""Probabilistic gate-noise superoperator and the (p, h) sweep.

Each gate succeeds with probability p_s = h**k, where k is the number of
qubits the gate touches (controls included); on failure the touched block
is replaced by the maximally mixed state:

    E(rho) = p_s U rho U^dag + (1 - p_s) Tr_t(rho) (x) 1/2**len(t)

with the mixed factor re-embedded at the gate's qubit positions.  A noisy
gate only touches the row and column axes of its own qubits, so it costs
O(4**n * 4**k) instead of the O(8**n) of a dense 2**n x 2**n product.

The sweep prepares a thermal product state, runs the noisy entangler, then
compares the conventional witness (noiseless direct trace) with the
single-run readout whose measurement circuit (disentangler followed by the
expanded V'^dag circuit) is itself noisy.  It works in the Heisenberg
picture: p_s is the same for g and g^dag and the failure term is
self-adjoint, so E_g^dag = E_{g^dag} and the adjoint of a noisy circuit is
the noisy run of its dagger circuit.  Each h takes one backward pass of
the readout observable and of the witness; every p then reads them
against the diagonal thermal input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (
    Circuit,
    Gate,
    dagger_circuit,
    expand_multicontrolled,
    select_entangler,
    vprime_dagger_circuit,
)
from .sed import sed_decomposition, weighted_z_sum
from .states import ThermalProductState, thermal_matrix
from .tensor import ATOL_ALGEBRA, ATOL_GRID, apply_controlled, n_qubits
from .witness import select_witness


@dataclass(frozen=True)
class NoiseModel:
    h: float

    def __post_init__(self):
        if not 0.0 <= self.h <= 1.0:
            raise ValueError(f"h {self.h} out of [0, 1]")

    def p_success(self, gate: Gate) -> float:
        return self.h ** len(gate.qubits())


@dataclass(frozen=True)
class SweepRecord:
    p: float
    h: float
    value_conv: float
    value_sed: float


def apply_noisy_gate(rho: np.ndarray, g: Gate, model: NoiseModel) -> np.ndarray:
    """E(rho) for one noisy gate, computed on the gate's own axes of rho.

    The gate acts on the touched row axes and its conjugate on the touched
    column axes; the failure term adds Tr_t(rho) / 2**k to the diagonal
    blocks of the touched qubits.
    """
    rho = np.asarray(rho, dtype=complex)
    n = n_qubits(rho.shape[0])
    qubits = g.qubits()
    if max(qubits) > n:
        raise ValueError("gate does not fit the state dimension")
    ps = model.p_success(g)
    t = rho.reshape((2,) * (2 * n))
    rows = apply_controlled(t, g.base, g.controls, g.targets)
    out = apply_controlled(rows, g.base.conj(), g.controls, g.targets, n, ps)
    if ps != 1.0:
        # einsum labels: qubit i of the gate has label i on its row and its
        # column axis, every other axis a label >= k
        k = len(qubits)
        labels = list(range(k, k + 2 * n))
        for i, q in enumerate(qubits):
            labels[q - 1] = labels[n + q - 1] = i
        rest = [lab for lab in labels if lab >= k]
        traced = np.einsum(t, labels, rest)  # Tr_t(rho)
        diagonal = np.einsum(out, labels, list(range(k)) + rest)  # writable view
        diagonal += traced * ((1 - ps) / 2**k)
    return out.reshape(rho.shape)


def simulate_noisy(c: Circuit, rho0: np.ndarray, model: NoiseModel) -> np.ndarray:
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape[0] != 2**c.n:
        raise ValueError("state dimension does not match circuit register")
    for g in c.gates:
        rho = apply_noisy_gate(rho, g, model)
    return rho


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
    w_conv = w.matrix
    readout = weighted_z_sum(n, 0.0, dec.a)
    prep = entangler if entangler_mode == "witness" else Circuit(n, ())
    measurement = dagger_circuit(entangler).then(expand_multicontrolled(vprime_dagger_circuit(n)))
    back_sed = dagger_circuit(prep.then(measurement))
    back_conv = dagger_circuit(prep)
    # per h, the diagonals of the observables pulled back to the thermal input
    pulled = []
    for h in grid_h:
        model = NoiseModel(h)
        o_conv = np.diag(simulate_noisy(back_conv, w_conv, model)).real
        o_sed = np.diag(simulate_noisy(back_sed, readout, model)).real
        pulled.append((h, o_conv, o_sed))
    records = []
    for p in grid_p:
        rho0 = np.diag(thermal_matrix(ThermalProductState(n, p))).real
        for h, o_conv, o_sed in pulled:
            records.append(SweepRecord(p, h, float(rho0 @ o_conv), dec.a0 + float(rho0 @ o_sed)))
    return records


def sweep_csv(records: list[SweepRecord]) -> str:
    lines = ["p,h,value_conv,value_sed"]
    for r in records:
        lines.append(f"{r.p:.12g},{r.h:.12g},{r.value_conv:.12g},{r.value_sed:.12g}")
    return "\n".join(lines) + "\n"


def grid_values(lo: float, hi: float, step: float) -> list[float]:
    """Inclusive grid with exact endpoints; step must divide hi - lo."""
    if step <= 0 or hi < lo:
        raise ValueError("need step > 0 and hi >= lo")
    intervals = (hi - lo) / step
    count = round(intervals) + 1
    if abs(intervals - (count - 1)) > ATOL_GRID or (count == 1 and hi > lo):
        raise ValueError(f"step {step:g} does not divide the range [{lo:g}, {hi:g}]")
    return [float(v) for v in np.linspace(lo, hi, count)]


def zero_crossing_h(records: list[SweepRecord], p: float, field: str = "value_sed") -> float | None:
    """Smallest h of the contiguous negative run ending at the largest h.

    Returns None when the value at the largest grid h is non-negative.
    """
    row = sorted((r for r in records if abs(r.p - p) < ATOL_ALGEBRA), key=lambda r: -r.h)
    crossing = None
    for r in row:
        if getattr(r, field) < 0:
            crossing = r.h
        else:
            break
    return crossing
