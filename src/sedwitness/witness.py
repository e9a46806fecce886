"""Entanglement witnesses W = c*1 - |psi><psi| and the detection threshold.

A witness certifies entanglement (relative to its class) whenever
Tr(W rho) < 0.  The constant c is the largest squared overlap between the
target and the null class; for a pure target it reduces to the largest
squared Schmidt coefficient over all bipartitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .states import PureState, make_ghz, make_w
from .tensor import ATOL_PHYSICS, _integer, _option, _witness_constant, checked_operand, max_schmidt_sq

# class-boundary constants for the two inequivalent tripartite classes
GHZ_CLASS_C = 3.0 / 4.0
W_CLASS_C = 1.0 / 4.0


@dataclass(frozen=True, eq=False)
class Witness:
    c: float
    target: PureState
    label: str

    def __post_init__(self):
        object.__setattr__(self, "c", _witness_constant(self.c))

    @property
    def n(self) -> int:
        return self.target.n


def biseparable_c(psi: PureState) -> float:
    """Largest squared Schmidt coefficient over all bipartitions of psi."""
    n = psi.n
    best = 0.0
    for size in range(1, n // 2 + 1):
        for part in combinations(range(1, n + 1), size):
            if 1 not in part and len(part) * 2 == n:
                continue  # complement already visited
            best = max(best, max_schmidt_sq(psi.amplitudes, list(part)))
    return best


def generic_witness(target: PureState, c: float | None = None) -> Witness:
    """Witness for an arbitrary pure target; c defaults to the biseparability
    bound, labelled "biseparable", and a given c is labelled "generic"."""
    if c is None:
        return Witness(biseparable_c(target), target, "biseparable")
    return Witness(c, target, "generic")


def select_witness(kind: str, n: int) -> Witness:
    """Witness for a target family: the tripartite class witness for ghz/w at
    n = 3 (c = 3/4 for the GHZ class, 1/4 for the W class), otherwise the
    biseparable_c value in closed form: 1/2 for the GHZ target (ghz, generic)
    and (n-1)/n, from a one-qubit cut, for the W target (w)."""
    kind, n = _option(kind, ("ghz", "w", "generic"), "witness kind"), _integer(n, "n")
    if kind == "ghz" and n == 3:
        return Witness(GHZ_CLASS_C, make_ghz(3), "GHZ-class")
    if kind == "w" and n == 3:
        return Witness(W_CLASS_C, make_w(3), "W-class")
    if kind == "w":
        return Witness((n - 1) / n, make_w(n), "biseparable")
    return Witness(0.5, make_ghz(n), "biseparable")


def expectation(w: Witness, rho: np.ndarray) -> float:
    """Tr(W rho) = c Tr(rho) - <psi|rho|psi>, without forming W."""
    rho = checked_operand(rho, 2**w.n, "density matrix")
    psi = w.target.amplitudes
    val = w.c * np.trace(rho) - np.vdot(psi, rho @ psi)
    if not abs(val.imag) <= ATOL_PHYSICS:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def epsilon_limit(w: Witness) -> float:
    """Pseudopure threshold: the witness turns negative for eps above this value.

    Tr(W rho_eps) = (1 - eps) Tr(W) / 2^n + eps (c - 1) with Tr(W) = c 2^n - 1,
    which vanishes at eps = (c 2^n - 1) / (2^n - 1)."""
    if w.c >= 1:
        raise ValueError("witness does not detect its own target (c >= 1)")
    dim = 2**w.n
    return (w.c * dim - 1.0) / (dim - 1.0)
