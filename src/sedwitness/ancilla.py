"""Assumption-free witness readout through one uninitialized ancilla qubit.

The ancilla starts in the thermal state p|0><0| + (1-p)|1><1| and is joined
to the register as the leftmost qubit.  After the disentangling step V^dag,
a CnNOT flips the ancilla exactly when the register is in |0...0> (all
controls are zero-conditional), so the ancilla polarization encodes
P(0...0) and

    Tr(rho W) = c - 1/2 + Tr(rho_a_out Z) / (2 (2p - 1)).

No diagonality condition on V^dag rho V is required.  Readout is modeled as
a nondestructive ensemble average: Tr(rho Z_ancilla) with no state update.

The joint state is never formed: one diagonal per stage fixes the read.
Both ancilla blocks start proportional to rho (p rho and (1-p) rho), every
register unitary acts on both alike, the CnNOT and its undo cancel on the
blocks, and the un-compute restores diag(p, 1-p) (x) rho exactly.  So
before the flip of a stage with entangler V the blocks are p V^dag rho V
and (1-p) V^dag rho V, and the CnNOT swaps the populations of |0,0...0>
and |1,0...0>.  d = diag(V^dag rho V) is one dense 2^n product and a
diagonal contraction (tensor.conjugated_diagonal).  `dense_run` in
tests/test_ancilla.py, the full joint-state reference, forms the 2^(n+1)
state, applies the dense CnNOT, takes the partial trace and un-computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ATOL_ALGEBRA, checked_operand, conjugated_diagonal, is_unitary

ILL_CONDITIONED_P = 1e-6  # guard: 1/(2p-1) amplification stays below 5e5


@dataclass(frozen=True)
class AncillaConfig:
    p: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p {self.p} out of [0, 1]")
        if abs(2 * self.p - 1) <= ILL_CONDITIONED_P:
            raise ValueError("ancilla polarization too close to 1/2; readout ill-conditioned")
        if self.n < 1:
            raise ValueError("register needs at least one qubit")


@dataclass(frozen=True, eq=False)
class Stage:
    v: np.ndarray
    c: float
    label: str = ""

    def __post_init__(self):
        what = f"stage {self.label!r} entangler"
        object.__setattr__(self, "v", checked_operand(self.v, len(np.atleast_1d(self.v)), what))


@dataclass(frozen=True, eq=False)
class ConcatSpec:
    stages: tuple[Stage, ...]

    def __post_init__(self):
        if not self.stages:
            raise ValueError("need at least one stage")
        dim = self.stages[0].v.shape[0]
        for s in self.stages:
            if s.v.shape != (dim, dim):
                raise ValueError("all stage entanglers must share the register dimension")
            if not is_unitary(s.v):
                raise ValueError(f"stage {s.label!r} entangler is not unitary")


def _flipped_populations(pops: np.ndarray) -> np.ndarray:
    """The two ancilla populations, shape (2, 2^n), after the CnNOT: the flip
    swaps the populations of |0,0...0> and |1,0...0>."""
    pops = pops.copy()
    pops[[0, 1], 0] = pops[[1, 0], 0]
    return pops


def _ancilla_z(rho_in: np.ndarray, entanglers, cfg: AncillaConfig) -> list[float]:
    """Tr(rho_a Z) after each stage of one run, from d = diag(V^dag rho V):
    the ancilla populations before the flip are p d and (1-p) d.  The
    entanglers arrive checked: finite, 2^n x 2^n."""
    rho_in = checked_operand(rho_in, 2**cfg.n, "density matrix")
    values = []
    for v in entanglers:
        d = conjugated_diagonal(rho_in, v)
        pops = _flipped_populations(np.stack([cfg.p * d, (1 - cfg.p) * d]))
        values.append(float(pops[0].sum() - pops[1].sum()))
    return values


def readout_value(c: float, trz: float, p: float) -> float:
    """Witness value c - 1/2 + Tr(rho_a Z) / (2 (2p - 1)) from the ancilla polarization."""
    if not math.isfinite(c):
        raise ValueError(f"witness constant c = {c} is non-finite")
    return c - 0.5 + trz / (2 * (2 * p - 1))


def ancilla_readout(rho_in: np.ndarray, v: np.ndarray, c: float, cfg: AncillaConfig) -> float:
    """Witness value Tr(rho (c*1 - V|0..0><0..0|V^dag)) from one ancilla polarization."""
    v = checked_operand(v, 2**cfg.n, "entangler")
    return readout_value(c, _ancilla_z(rho_in, [v], cfg)[0], cfg.p)


def intermediate_identities(rho_in: np.ndarray, v: np.ndarray, cfg: AncillaConfig) -> dict:
    """Return P(0...0) and Tr(rho_a_out Z) and check the two readout identities."""
    v = checked_operand(v, 2**cfg.n, "entangler")
    (trz,) = _ancilla_z(rho_in, [v], cfg)
    p_tilde = float(np.vdot(v[:, 0], np.asarray(rho_in) @ v[:, 0]).real)
    residual_trz = abs(trz - (1 - 2 * cfg.p) * (2 * p_tilde - 1))
    residual_ptilde = abs(p_tilde - (0.5 - trz / (2 * (2 * cfg.p - 1))))
    if not (residual_trz <= ATOL_ALGEBRA and residual_ptilde <= ATOL_ALGEBRA):
        raise AssertionError(
            f"readout identities violated: {residual_trz:.3e}, {residual_ptilde:.3e}"
        )
    return {
        "p_tilde": p_tilde,
        "tr_ancilla_z": trz,
        "residual_trz": residual_trz,
        "residual_ptilde": residual_ptilde,
    }


def run_concatenated(rho_in: np.ndarray, spec: ConcatSpec, cfg: AncillaConfig) -> list[float]:
    """Read several witnesses in one run: per stage disentangle, flip, read,
    then un-compute before the next stage."""
    if spec.stages[0].v.shape[0] != 2**cfg.n:
        raise ValueError(f"stage entanglers do not match the {cfg.n}-qubit register")
    trzs = _ancilla_z(rho_in, [s.v for s in spec.stages], cfg)
    return [readout_value(s.c, trz, cfg.p) for s, trz in zip(spec.stages, trzs)]
