"""Qubit bookkeeping, tolerances, Pauli matrices and Pauli strings; the
operand check that every readout shares; Schmidt coefficients; Haar
unitaries.  No dense matrix is turned into Pauli coefficients here: the
package's one Pauli transform is the walk of noise.py.

Qubit ordering convention used everywhere in this package: qubit 1 is the
LEFTMOST tensor factor, i.e. the most significant bit of a computational
basis index.  A register of n qubits lives in a 2**n dimensional space and
basis index ``i`` carries the bit string ``format(i, f"0{n}b")`` with
qubit 1 first.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

# default tolerances: algebraic identities vs physics-level assertions, how
# far a grid's (hi - lo) / step may sit from a whole number of steps, and the
# largest transfer-matrix entry the noisy walk drops where it splits a block
# by a sector that the entry crosses (noise.py): the square roots of X that
# expand_multicontrolled makes keep the X-sector up to 9.7e-17 of rounding
ATOL_ALGEBRA = 1e-12
ATOL_PHYSICS = 1e-10
ATOL_GRID = 1e-9
ATOL_SECTOR = 1e-15

# most points in one sweep grid, along one axis and in all: grid_values
# refuses a step too fine for any sweep before it allocates the axis, and
# sweep refuses a p by h grid of more points before it walks.  The default
# grid has 11 x 11 points; one p by 10**5 h values at n = 3 takes about
# half a minute and peaks at 34 MB, records and CSV included
MAX_GRID_POINTS = 10**5

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

# Pauli index 0..3 = I, Z, X, Y, the one order of every Pauli string and
# coefficient array in the package.  The diagonal pair leads, so on each
# qubit's axis the I/Z strings are the leading [:2], which the thermal input
# reads.  As two bits the index is I = 00, Z = 01, X = 10, Y = 11: the high
# bit is 1 where the Pauli anticommutes with Z and the low bit where it
# anticommutes with X, the two sectors by which the noisy walk splits its
# blocks (noise.py)
PAULI = np.stack([I2, Z, X, Y])


def dagger(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


def n_qubits(dim: int) -> int:
    """Number of qubits for a Hilbert-space dimension that must be 2**n."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def is_unitary(m: np.ndarray) -> bool:
    """max |m m^dag - 1| <= ATOL_ALGEBRA; a non-finite entry fails."""
    if m.shape == (2, 2):  # closed form on Python complexes: numpy's call overhead dominates here
        (a, b), (c, d) = m.tolist()
        return (
            abs(a * a.conjugate() + b * b.conjugate() - 1) <= ATOL_ALGEBRA
            and abs(a * c.conjugate() + b * d.conjugate()) <= ATOL_ALGEBRA
            and abs(c * c.conjugate() + d * d.conjugate() - 1) <= ATOL_ALGEBRA
        )
    with np.errstate(invalid="ignore", over="ignore"):  # a huge or non-finite entry just fails
        gram = m @ m.conj().T
        gram.flat[:: len(m) + 1] -= 1  # the diagonal, in place
        return abs(gram).max() <= ATOL_ALGEBRA


def checked_operand(m, dim: int, what: str) -> np.ndarray:
    """m as a complex dim x dim array, else a ValueError naming `what`."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"{what} has shape {m.shape}, expected {(dim, dim)}")
    # a NaN or inf entry makes the sum non-finite; only then, since huge
    # finite entries can overflow it too, is each entry tested
    with np.errstate(over="ignore", invalid="ignore"):
        total = m.sum()
    if not np.isfinite(total) and not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    return m


def _integer(v, what: str) -> int:
    """v as an int through operator.index, so a float, a string or a bool is a ValueError."""
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise ValueError(f"{what} {v!r} is not an integer")


def _size(v, what: str, least: int) -> int:
    """A register size: v read by _integer, and a ValueError naming it and least when below least."""
    n = _integer(v, what)
    if n < least:
        raise ValueError(f"{what} {n} is less than {least}")
    return n


def _real(v, what: str) -> float:
    """v as a float when it is a real number other than a bool, else a ValueError naming it."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{what} {v!r} is not a real number")
    try:
        return float(v)
    except OverflowError:  # no repr of v: one past 4300 digits cannot be printed
        raise ValueError(f"{what} is out of the float range") from None


def _probability(v, what: str) -> float:
    """v as a float in [0, 1], else a ValueError that names it; nan is refused."""
    x = _real(v, what)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{what} {v} out of [0, 1]")
    return x


def _witness_constant(c) -> float:
    """A witness constant c as a finite float, else a ValueError that names it."""
    x = _real(c, "witness constant c")
    if not math.isfinite(x):
        raise ValueError(f"witness constant c = {c} is non-finite")
    return x


def _option(v, options: tuple[str, ...], what: str) -> str:
    """v.lower() when v is a string naming one of options, case-blind; any
    other v, a string or not, is a ValueError that names it (lower-cased)."""
    name = v.lower() if isinstance(v, str) else v
    if not isinstance(v, str) or name not in options:
        raise ValueError(f"unknown {what} {name!r}")
    return name


def _check_qubits(qubits, n, what):
    qubits = [_integer(q, f"{what} qubit") for q in qubits]
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate {what} qubits: {qubits}")
    for q in qubits:
        if not 1 <= q <= n:
            raise ValueError(f"{what} qubit {q} out of range 1..{n}")
    return qubits


def pauli_strings(k: int) -> np.ndarray:
    """The 4**k Pauli strings on k qubits, shape (4**k, 2**k, 2**k); string s
    has the base-4 digits (Pauli indices) of qubits 1..k, qubit 1 most
    significant."""
    out = np.ones((1, 1, 1), dtype=complex)
    for _ in range(k):
        d = 2 * out.shape[1]
        out = np.einsum("aij,bkl->abikjl", out, PAULI).reshape(4 * len(out), d, d)
    return out


def max_schmidt_sq(psi: np.ndarray, bipartition) -> float:
    """Largest squared Schmidt coefficient of `psi` across the bipartition.

    `bipartition` lists the qubits of one side; the value is the squared
    largest singular value of psi reshaped across the cut, in (0, 1].
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    n = n_qubits(psi.size)
    if not abs(np.linalg.norm(psi) - 1.0) <= ATOL_ALGEBRA:
        raise ValueError("state vector is not normalized")
    part = _check_qubits(bipartition, n, what="bipartition")
    if not part or len(part) >= n:
        raise ValueError("bipartition must be a nonempty proper subset of 1..n")
    rest = [q for q in range(1, n + 1) if q not in part]
    mat = (
        psi.reshape((2,) * n)
        .transpose([q - 1 for q in part] + [q - 1 for q in rest])
        .reshape(2 ** len(part), 2 ** len(rest))
    )
    s = np.linalg.svd(mat, compute_uv=False)
    return float(s[0] ** 2)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via QR with phase correction."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph
