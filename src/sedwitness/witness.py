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

from .states import PseudopureState, PureState, make_ghz, make_w, pseudopure_matrix
from .tensor import ATOL_PHYSICS, max_schmidt_sq, min_eigenvalue_hermitian, partial_transpose

# class-boundary constants for the two inequivalent tripartite classes
GHZ_CLASS_C = 3.0 / 4.0
W_CLASS_C = 1.0 / 4.0


@dataclass(frozen=True, eq=False)
class Witness:
    c: float
    target: PureState
    label: str

    @property
    def n(self) -> int:
        return self.target.n

    @property
    def matrix(self) -> np.ndarray:
        """The dense observable c*1 - |psi><psi|, formed on every read."""
        return self.c * np.eye(2**self.n, dtype=complex) - self.target.density()


def class_witness(kind: str) -> Witness:
    """Tripartite class witness: c = 3/4 for the GHZ class, 1/4 for the W class."""
    kind = kind.lower()
    if kind == "ghz":
        return Witness(GHZ_CLASS_C, make_ghz(3), "GHZ-class")
    if kind == "w":
        return Witness(W_CLASS_C, make_w(3), "W-class")
    raise ValueError(f"unknown witness class {kind!r}")


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


def generic_witness(target: PureState, c: float | None = None, label: str | None = None) -> Witness:
    """Witness for an arbitrary pure target; c defaults to the biseparability bound."""
    if c is None:
        c = biseparable_c(target)
        label = label or "biseparable"
    return Witness(c, target, label or "generic")


def select_witness(kind: str, n: int) -> Witness:
    """Witness for a target family: the class witness for ghz/w at n = 3,
    otherwise the biseparability bound of the GHZ or W target."""
    kind = kind.lower()
    if kind not in ("ghz", "w", "generic"):
        raise ValueError(f"unknown witness kind {kind!r}")
    if kind != "generic" and n == 3:
        return class_witness(kind)
    return generic_witness(make_w(n) if kind == "w" else make_ghz(n))


def expectation(w: Witness, rho: np.ndarray) -> float:
    """Tr(W rho) = c Tr(rho) - <psi|rho|psi>, without forming W."""
    rho = np.asarray(rho, dtype=complex)
    dim = 2**w.n
    if rho.shape != (dim, dim):
        raise ValueError(f"dimension mismatch: witness {(dim, dim)}, state {rho.shape}")
    psi = w.target.amplitudes
    val = w.c * np.trace(rho) - np.vdot(psi, rho @ psi)
    if abs(val.imag) > ATOL_PHYSICS:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def epsilon_limit(w: Witness) -> float:
    """Pseudopure threshold: the witness turns negative for eps above this value."""
    target_val = expectation(w, w.target.density())
    if target_val >= 0:
        raise ValueError("witness does not detect its own target (c >= 1)")
    trace_w = w.c * 2**w.n - 1.0
    return trace_w / (trace_w - 2**w.n * target_val)


def pseudopure_expectation(w: Witness, epsilon: float) -> float:
    """Witness value on the pseudopure mixture of its own target."""
    rho = pseudopure_matrix(PseudopureState(w.n, epsilon, w.target))
    return expectation(w, rho)


def ppt_min_eig(rho: np.ndarray, cut) -> float:
    """Smallest eigenvalue of the partial transpose; negative means entangled
    across the cut (internal oracle, exact only for small dimensions)."""
    return min_eigenvalue_hermitian(partial_transpose(rho, cut))


def random_product_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random single-qubit states composed by tensor product."""
    amps = np.array([1.0], dtype=complex)
    for _ in range(n):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        amps = np.kron(amps, v)
    return amps


def random_separable_density(n: int, rng: np.random.Generator, max_terms: int = 8) -> np.ndarray:
    """Random convex combination of at most `max_terms` product states."""
    terms = int(rng.integers(1, max_terms + 1))
    weights = rng.dirichlet(np.ones(terms))
    rho = np.zeros((2**n, 2**n), dtype=complex)
    for wgt in weights:
        v = random_product_state(n, rng)
        rho += wgt * np.outer(v, v.conj())
    return rho
