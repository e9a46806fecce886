"""Dense 2**n x 2**n reference constructions for the tests.

The package builds V'_n only from its gate circuit and reads the readout
observables as sparse terms, applies every gate on its own axes of a tensor
view and runs gate noise only as the Pauli pull-back of an observable.  The
constructions below are independent of that code and are what the tests
compare it with: the full-matrix gate embedding and the matrix recursion of
V'_n; the dense V'_n as the dagger of its circuit's unitary, and the dense
V' (b + sum_k a_k Z_k) V'^dag built on it; a circuit applied gate by gate
to a state vector, for registers too large for a 4**n unitary; the
noisy-gate channel on density matrices, the only Schroedinger-picture
reference; the Pauli pull-back one gate at a time, built on the package's
own transfer matrices, against which the fused walk of `pull_back` is
checked; the populations diag(U^dag rho U) by a dense product, against
which the sparse SED read is checked; and the dense helpers those need or
the tests sample with (Kronecker product, partial trace and transpose,
random and thermal density matrices, the partial-transpose test, separable
sampling, the dense witness matrix and comparison up to a global phase).
"""

from functools import cache

import numpy as np

from sedwitness.circuit import circuit_unitary, vprime2, vprime_dagger_circuit
from sedwitness.noise import _adjoint_transfer
from sedwitness.tensor import ATOL_PHYSICS, H, I2, SWAP, _check_qubits, _probability, dagger, n_qubits, pauli_strings, z_signs

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def kron(a, b):
    """Kronecker product with `a` as the left (more significant) factor."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m, keep):
    """Trace out all qubits not listed in `keep` (1-based, order preserved)."""
    m = np.asarray(m, dtype=complex)
    n = n_qubits(m.shape[0])
    keep = _check_qubits(keep, n, what="keep")
    if not keep:
        return np.array([[np.trace(m)]], dtype=complex)
    pool = iter(_LETTERS)
    row, col = {}, {}
    for q in range(1, n + 1):
        if q in keep:
            row[q] = next(pool)
            col[q] = next(pool)
        else:
            row[q] = col[q] = next(pool)
    sub = (
        "".join(row[q] for q in range(1, n + 1))
        + "".join(col[q] for q in range(1, n + 1))
        + "->"
        + "".join(row[q] for q in keep)
        + "".join(col[q] for q in keep)
    )
    k = len(keep)
    return np.einsum(sub, m.reshape((2,) * (2 * n))).reshape(2**k, 2**k)


def partial_transpose(m, subsystem):
    """Transpose the listed qubits only; involutive."""
    m = np.asarray(m, dtype=complex)
    n = n_qubits(m.shape[0])
    subsystem = _check_qubits(subsystem, n, what="subsystem")
    t = m.reshape((2,) * (2 * n))
    axes = list(range(2 * n))
    for q in subsystem:
        axes[q - 1], axes[n + q - 1] = axes[n + q - 1], axes[q - 1]
    return t.transpose(axes).reshape(m.shape)


def min_eigenvalue_hermitian(m):
    """Smallest eigenvalue of a Hermitian matrix."""
    m = np.asarray(m, dtype=complex)
    if np.max(np.abs(m - m.conj().T)) > ATOL_PHYSICS:
        raise ValueError("matrix is not Hermitian")
    return float(np.linalg.eigvalsh(m)[0])


def ppt_min_eig(rho, cut):
    """Smallest eigenvalue of the partial transpose; negative means entangled
    across the cut (exact only for small dimensions)."""
    return min_eigenvalue_hermitian(partial_transpose(rho, cut))


def random_hermitian(dim, rng):
    """Hermitian matrix with Gaussian entries."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m + m.conj().T


def random_density_matrix(dim, rng):
    """Full-rank random density matrix (Wishart construction)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def thermal_matrix(n, p):
    """[p|0><0| + (1-p)|1><1|]^(tensor n), a diagonal product state."""
    p = _probability(p, "p")
    diag = np.array([1.0])
    for _ in range(n):
        diag = np.kron(diag, np.array([p, 1 - p]))
    return np.diag(diag).astype(complex)


def random_product_state(n, rng):
    """Haar-random single-qubit states composed by tensor product."""
    amps = np.array([1.0], dtype=complex)
    for _ in range(n):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        amps = np.kron(amps, v)
    return amps


def random_separable_density(n, rng):
    """Random convex combination of at most 8 product states."""
    terms = int(rng.integers(1, 9))
    weights = rng.dirichlet(np.ones(terms))
    rho = np.zeros((2**n, 2**n), dtype=complex)
    for wgt in weights:
        v = random_product_state(n, rng)
        rho += wgt * np.outer(v, v.conj())
    return rho


def witness_matrix(w):
    """The dense observable c*1 - |psi><psi| of a witness."""
    return w.c * np.eye(2**w.n, dtype=complex) - w.target.density()


def pauli_operator(coeffs):
    """The matrix sum_s c_s P_s of Pauli coefficients of shape (4,)*n."""
    coeffs = np.asarray(coeffs)
    return np.einsum("s,sij->ij", coeffs.ravel(), pauli_strings(coeffs.ndim))


def conjugated_diagonal(rho, u):
    """Real diagonal of U^dag rho U without forming it: sum_i conj(U_ij) (rho U)_ij."""
    return np.einsum("ij,ij->j", u.conj(), rho @ u).real


def phase_insensitive_equal(m1, m2, atol=ATOL_PHYSICS):
    """Compare unitaries up to a global phase (taken from the largest entry)."""
    prod = m1 @ dagger(m2)
    idx = np.unravel_index(np.argmax(np.abs(prod)), prod.shape)
    phase = prod[idx] / abs(prod[idx])
    return bool(np.max(np.abs(prod - phase * np.eye(prod.shape[0]))) <= atol)


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
    v = vprime2()
    for m in range(3, n + 1):
        v = blockdiag_ubd(m) @ permutation_up(m) @ np.kron(I2, v)
    return v


@cache
def dense_vprime(n):
    """Dense V'_n, the dagger of the unitary of its gate circuit (read-only,
    built once per n)."""
    v = dagger(circuit_unitary(vprime_dagger_circuit(n)))
    v.flags.writeable = False
    return v


def weighted_z_sum(n, b, a):
    """b * identity + sum_k a_k Z placed on tensor slot n-k+1."""
    return np.diag(b + np.asarray(a) @ z_signs(n)).astype(complex)


def conjugated_observable(dec):
    """V' (b + sum_k a_k Z_k) V'^dag of a SedDecomposition, with the dense V';
    its diagonal should be (-1, 0, ..., 0)."""
    v = dense_vprime(dec.n)
    return v @ weighted_z_sum(dec.n, dec.b, dec.a) @ dagger(v)


def dense_gate(g, n):
    """Full 2**n unitary of g: the controlled block on g.qubits() (controls
    first, then targets), embedded in the register."""
    proj = np.array([1.0], dtype=complex)
    for _, pol in g.controls:
        proj = np.kron(proj, np.array([1.0 - pol, float(pol)], dtype=complex))
    proj = np.diag(proj)
    block = kron(proj, g.base) + kron(np.eye(proj.shape[0]) - proj, np.eye(g.base.shape[0]))
    return embed_gate(block, g.qubits(), n)


def apply_circuit(c, psi):
    """The state vector c|psi>, one gate at a time on a (2,)*n view: each
    base acts on its target axes of the slice where the controls hold their
    polarities.  No 2**n x 2**n matrix is formed."""
    n = c.n
    t = np.array(psi, dtype=complex).reshape((2,) * n)
    for g in c.gates:
        idx = [slice(None)] * n
        for q, pol in g.controls:
            idx[q - 1] = pol
        sub = t[tuple(idx)]  # a view: writes land in t
        free = [q for q in range(1, n + 1) if q not in dict(g.controls)]
        axes = [free.index(q) for q in g.targets]
        moved = np.moveaxis(sub, axes, range(len(axes)))
        new = (g.base @ moved.reshape(g.base.shape[0], -1)).reshape(moved.shape)
        sub[...] = np.moveaxis(new, range(len(axes)), axes)
    return t.ravel()


def dense_noisy_gate(rho, g, h):
    """p_s U rho U^dag + (1 - p_s) Tr_t(rho) (x) 1/2**k with full 2**n
    matrices, p_s = h**k for the k qubits t that g touches."""
    n = n_qubits(rho.shape[0])
    touched = sorted(g.qubits())
    u = dense_gate(g, n)
    ps = h ** len(touched)
    ideal = u @ rho @ dagger(u)
    if ps == 1.0:
        return ideal
    keep = [q for q in range(1, n + 1) if q not in touched]
    d = 2 ** len(touched)
    mixed = reorder_qubits(kron(partial_trace(rho, keep), np.eye(d) / d), keep + touched)
    return ps * ideal + (1 - ps) * mixed


def dense_noisy_run(c, rho, h):
    """The noisy run of circuit c on rho, one dense noisy gate at a time."""
    for g in c.gates:
        rho = dense_noisy_gate(rho, g, h)
    return rho


def per_gate_pull_back(c, coeffs, grid_h):
    """Pauli coefficients of E^dag(O) per h of grid_h, one gate at a time,
    last to first: gate g applies M_g = R_g diag(1, p_s, ..., p_s), p_s =
    h**k, to the axes of its own k qubits, which are moved first."""
    n = c.n
    out = np.repeat(np.asarray(coeffs, dtype=float)[None], len(grid_h), axis=0)
    order = list(range(1, n + 1))  # order[i] is the qubit on axis i + 1 of out
    for g in reversed(c.gates):
        qubits = g.qubits()
        k = len(qubits)
        r = _adjoint_transfer(g.base.tobytes(), len(g.base), tuple(pol for _, pol in g.controls))
        damp = np.ones((len(grid_h), 1, 4**k))
        damp[:, :, 1:] = np.array([h**k for h in grid_h])[:, None, None]
        new = qubits + [q for q in order if q not in qubits]
        out = out.transpose([0] + [order.index(q) + 1 for q in new])
        order = new
        out = ((r * damp) @ out.reshape(len(grid_h), 4**k, 4 ** (n - k))).reshape((len(grid_h),) + (4,) * n)
    return out.transpose([0] + [order.index(q) + 1 for q in range(1, n + 1)])
