"""Assumption-free witness readout through one uninitialized ancilla qubit.

The ancilla starts in the thermal state p|0><0| + (1-p)|1><1| and is joined
to the register as the leftmost qubit.  After the disentangling step V^dag,
a CnNOT flips the ancilla exactly when the register is in |0...0> (all
controls are zero-conditional), so the ancilla polarization encodes
P(0...0) and

    Tr(rho W) = c - 1/2 + Tr(rho_a_out Z) / (2 (2p - 1)).

No diagonality condition on V^dag rho V is required.  Readout is modeled as
a nondestructive ensemble average: Tr(rho Z_ancilla) with no state update.

The joint state is never formed.  Both ancilla blocks start as p rho and
(1-p) rho, every register unitary acts on both alike, and the un-compute
restores diag(p, 1-p) (x) rho exactly, so before the flip of a stage with
entangler V the populations are p d_j and (1-p) d_j, d = diag(V^dag rho V).
The flip swaps only those of |0,0...0> and |1,0...0>, so d_0 = P(0...0) =
<v0|rho|v0> (v0 = V[:, 0]) enters Tr(rho_a Z) as (1-2p) d_0 and every other
d_j as (2p-1) d_j.  As sum_j d_j = Tr rho for unitary V, one
matrix-vector product per stage gives Tr(rho_a Z) = (2p - 1) (Tr rho -
2 P(0...0)).  That read needs V only through v0, so `ancilla_readout` and
`intermediate_identities` check in O(2^n) that v0 is a unit vector (a V
with that column can be completed to a unitary one), and `ConcatSpec`
checks each V whole.  `dense_run` in
tests/test_ancilla.py, the full joint-state reference, forms the 2^(n+1)
state, applies the dense CnNOT, takes the partial trace and un-computes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ATOL_ALGEBRA, _integer, _probability, _witness_constant, checked_operand, is_unitary

ILL_CONDITIONED_P = 1e-6  # guard: 1/(2p-1) amplification stays below 5e5


@dataclass(frozen=True)
class AncillaConfig:
    p: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "p", _probability(self.p, "p"))
        if abs(2 * self.p - 1) <= ILL_CONDITIONED_P:
            raise ValueError("ancilla polarization too close to 1/2; readout ill-conditioned")
        object.__setattr__(self, "n", _integer(self.n, "register size"))
        if self.n < 1:
            raise ValueError("register needs at least one qubit")


@dataclass(frozen=True, eq=False)
class Stage:
    v: np.ndarray
    c: float
    label: str = ""

    def __post_init__(self):
        what = f"stage {self.label!r} entangler"
        v = checked_operand(self.v, len(np.atleast_1d(self.v)), what)
        if not v.size:
            raise ValueError(f"{what} is empty")
        object.__setattr__(self, "v", v)


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


def _ancilla_z(rho_in: np.ndarray, entanglers, cfg: AncillaConfig) -> list[tuple[float, float]]:
    """(P(0...0), Tr(rho_a Z)) after each stage of one run, by the closed
    form of the module docstring.  The entanglers arrive checked: finite,
    2^n x 2^n."""
    rho_in = checked_operand(rho_in, 2**cfg.n, "density matrix")
    tr_rho = np.trace(rho_in).real
    reads = []
    for v in entanglers:
        p_tilde = float(np.vdot(v[:, 0], rho_in @ v[:, 0]).real)
        reads.append((p_tilde, float((2 * cfg.p - 1) * (tr_rho - 2 * p_tilde))))
    return reads


def _checked_entangler(v, n: int) -> np.ndarray:
    """The finite 2^n x 2^n entangler, whose column 0 must be a unit vector."""
    v = checked_operand(v, 2**n, "entangler")
    norm_sq = float(np.vdot(v[:, 0], v[:, 0]).real)
    if abs(norm_sq - 1) > ATOL_ALGEBRA:
        raise ValueError(f"entangler is not unitary: its column 0 has squared norm {norm_sq:.6g}")
    return v


def readout_value(c: float, trz: float, p: float) -> float:
    """Witness value c - 1/2 + Tr(rho_a Z) / (2 (2p - 1)) from the ancilla polarization."""
    return _witness_constant(c) - 0.5 + trz / (2 * (2 * p - 1))


def ancilla_readout(rho_in: np.ndarray, v: np.ndarray, c: float, cfg: AncillaConfig) -> float:
    """Witness value Tr(rho (c*1 - V|0..0><0..0|V^dag)) from one ancilla polarization."""
    v = _checked_entangler(v, cfg.n)
    ((_, trz),) = _ancilla_z(rho_in, [v], cfg)
    return readout_value(c, trz, cfg.p)


def intermediate_identities(rho_in: np.ndarray, v: np.ndarray, cfg: AncillaConfig) -> dict:
    """Return P(0...0) and Tr(rho_a_out Z) and check the two readout identities,
    whose residuals are |2p - 1| |Tr rho - 1| and |Tr rho - 1| / 2."""
    v = _checked_entangler(v, cfg.n)
    ((p_tilde, trz),) = _ancilla_z(rho_in, [v], cfg)
    residual_trz = abs(trz - (1 - 2 * cfg.p) * (2 * p_tilde - 1))
    residual_ptilde = abs(p_tilde - (0.5 - trz / (2 * (2 * cfg.p - 1))))
    if not (residual_trz <= ATOL_ALGEBRA and residual_ptilde <= ATOL_ALGEBRA):
        raise ValueError(
            f"readout identities need Tr rho = 1, got |Tr rho - 1| = {2 * residual_ptilde:.3e}"
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
    reads = _ancilla_z(rho_in, [s.v for s in spec.stages], cfg)
    return [readout_value(s.c, trz, cfg.p) for s, (_, trz) in zip(spec.stages, reads)]
