"""Dense 2**n x 2**n reference constructions for the tests.

The package builds V'_n only from its gate circuit and applies every gate
on its own axes of a tensor view.  The full-matrix embedding and the
matrix recursion of V'_n below are independent constructions that the
tests compare it with.
"""

import numpy as np

from sedwitness.circuit import vprime2
from sedwitness.tensor import H, I2, SWAP


def reorder_qubits(m, order):
    """Reorder a 2**n matrix whose i-th slot currently holds qubit order[i].

    Returns the matrix with qubits in natural order 1..n.
    """
    n = len(order)
    t = np.asarray(m, dtype=complex).reshape((2,) * (2 * n))
    axes = [order.index(q) for q in range(1, n + 1)]
    axes = axes + [a + n for a in axes]
    return t.transpose(axes).reshape(2**n, 2**n)


def embed_gate(g, targets, n):
    """Embed a gate acting on `targets` (ordered, 1-based) into an n-qubit operator.

    The gate's own qubit ordering maps onto `targets` left to right; all
    other qubits get the identity.
    """
    g = np.asarray(g, dtype=complex)
    targets = [int(q) for q in targets]
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits: {targets}")
    if any(not 1 <= q <= n for q in targets):
        raise ValueError(f"target qubits {targets} out of range 1..{n}")
    k = len(targets)
    if g.shape != (2**k, 2**k):
        raise ValueError(f"gate dim {g.shape} does not match {k} target qubits")
    rest = [q for q in range(1, n + 1) if q not in targets]
    full = np.kron(g, np.eye(2 ** (n - k), dtype=complex))
    return reorder_qubits(full, targets + rest)


def permutation_up(n_plus_1):
    """SWAP between the first and last qubit of an (n+1)-qubit register."""
    return embed_gate(SWAP, [1, n_plus_1], n_plus_1)


def blockdiag_ubd(n_plus_1):
    """Block-diagonal unitary diag(I, H, ..., H); self-inverse."""
    dim = 2**n_plus_1
    out = np.zeros((dim, dim), dtype=complex)
    out[0:2, 0:2] = I2
    for blk in range(1, dim // 2):
        out[2 * blk : 2 * blk + 2, 2 * blk : 2 * blk + 2] = H
    return out


def vprime_recursion(n):
    """Dense V'_n by the matrix induction V'_m = U_bd U_p (I (x) V'_{m-1})."""
    v, _, _ = vprime2()
    for m in range(3, n + 1):
        v = blockdiag_ubd(m) @ permutation_up(m) @ np.kron(I2, v)
    return v
