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
observable back for a whole chunk of h values at once.  The walk follows a
plan, an immutable record built from the gate list alone: consecutive
gates, last to first, form blocks of at most 3 qubits (a gate on 4 is a
block of its own, and a wider one is refused), each block applies the
product of its gates' maps M_g = R_g D_g by one matmul on its own axes, and
the plan owns the R_g of each distinct gate.  The block maps depend on h, so they are built per walk,
once for each distinct block (the same bases, polarities and local qubit
positions), and each is dropped after its last use, so none outlives the
walk.  The damping stays per gate; only the order of rounding differs from
a walk gate by gate.  A walk allocates its two coefficient buffers once:
each step writes its transpose and its matmul into the idle one, so no step
allocates an array of the register's size.  A long h grid is walked in
chunks whose coefficients and block maps each stay within the cache.

The sweep prepares a thermal product state, runs the noisy entangler, then
compares the conventional witness (noiseless direct trace) with the
single-run readout whose measurement circuit is itself noisy: the
disentangler V^dag, then `sed_measurement_circuit(n)`.  That circuit is
V'_n^dag up to a diagonal that acts first, on V^dag rho V, so it reads as
V'_n^dag exactly under the paper's precondition that V^dag rho V be
diagonal; for n >= 4 it has fewer noisy gates than the exact expansion.
Both observables are pulled back to the thermal input.  It is diagonal, so
every p reads only the I/Z strings: Tr(rho_0(p) P_z) = (2p - 1)**|z|.

What a sweep needs apart from its grid depends only on (kind, n, mode): the
witness constant, the Pauli coefficients of the target projector and of the
readout, and the plans of the two walks, whose gate lists hold the expanded
measurement circuit.  `_sweep_model` builds that once per process for each
checked (kind, n, mode), the package's one cache of computed results; each
call then walks the cached plans for its own grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .circuit import ENTANGLER_KINDS, Circuit, dagger_circuit, sed_measurement_circuit, select_entangler
from .sed import sed_decomposition
from .tensor import ATOL_ALGEBRA, ATOL_GRID, MAX_GRID_POINTS, _integer, _option, _probability, n_qubits, pauli_coefficients, pauli_strings
from .witness import select_witness


@dataclass(frozen=True)
class SweepRecord:
    p: float
    h: float
    value_conv: float
    value_sed: float


def _adjoint_transfer(raw: bytes, dim: int, polarities: tuple) -> np.ndarray:
    """Read-only Pauli transfer matrix R[a, b] = Tr(P_a U^dag P_b U) / 2**k
    of O -> U^dag O U, for the gate whose base has bytes `raw` and whose
    controls have these polarities, placed on its own k qubits with the
    controls first and the targets after them in order.  U is the identity
    but for the base in the block where the controls hold their polarities."""
    k = len(polarities) + n_qubits(dim)
    start = dim * sum(pol << i for i, pol in enumerate(reversed(polarities)))
    u = np.eye(2**k, dtype=complex)
    u[start : start + dim, start : start + dim] = np.frombuffer(raw, dtype=complex).reshape(dim, dim)
    strings = pauli_strings(k)
    pulled = u.conj().T @ strings @ u  # U^dag P_b U, one matmul per b
    # R[a, b] = sum_ij P_a[i, j] (U^dag P_b U)[j, i], one 4**k x 4**k product
    r = (strings.reshape(4**k, -1) @ pulled.transpose(2, 1, 0).reshape(-1, 4**k)).real / 2**k
    r.flags.writeable = False
    return r


# entries in a walk's largest array, its coefficients or its widest block's
# map, over all its h values: past about 2**18 (2 MB) the arrays leave the
# cache and each h costs more than in a walk of its own (measured for the
# block walk at n = 8, 9 and 10), so larger h grids are walked in chunks
_WALK_COEFFS = 2**18

# most qubits in one block of the walk plan; a wider gate is a block of its own
_BLOCK_WIDTH = 3


@dataclass(frozen=True)
class _Step:
    """One block of the walk plan: gates that run one after another, last to
    first, on at most _BLOCK_WIDTH qubits together.

    support lists the block's qubits in the order its gates first name them,
    the order of its map's axes; axes is the transpose of the (h,
    coefficients) array that brings them first.  key holds, for the block's
    gates in walk order, the index of each gate's transfer matrix in the plan
    with the positions of its qubits in support, so equal keys have equal
    maps.  The first step with a key builds its map and the last one drops it."""

    support: tuple[int, ...]
    axes: tuple[int, ...]
    key: tuple
    first: bool
    last: bool


@dataclass(frozen=True, eq=False)
class _Plan:
    """A walk over one gate list: its steps, the transpose that puts the
    qubits back in order after the last step, and the read-only Pauli
    transfer matrix of each distinct gate (the same base, dimension and
    control polarities), which the steps' keys index."""

    steps: tuple[_Step, ...]
    restore: tuple[int, ...]
    transfers: tuple[np.ndarray, ...]


def _walk_plan(c: Circuit) -> _Plan:
    """The plan of a walk over c's gates.

    Gates join the current block, last to first, while the joint support
    stays within _BLOCK_WIDTH qubits.  A block takes its qubits in the order
    its gates first name them, and each step transposes them to the front.
    A gate on k qubits has a transfer matrix and a block map of 16**k entries
    each, so one with more than _WALK_COEFFS (k >= 5) is refused first.
    """
    qubits = {g: g.qubits() for g in set(c.gates)}
    for i, g in enumerate(c.gates):
        if 16 ** len(qubits[g]) > _WALK_COEFFS:
            raise ValueError(f"gate {i} on {len(qubits[g])} qubits is too wide for the walk; use expand_multicontrolled")
    args = {g: (g.base.tobytes(), len(g.base), tuple(pol for _, pol in g.controls)) for g in qubits}
    blocks = []  # (support, gates) per block, in walk order
    support = []
    for g in reversed(c.gates):
        joint = [q for q in qubits[g] if q not in support]
        if not blocks or len(support) + len(joint) > _BLOCK_WIDTH:
            support, gates = list(qubits[g]), [g]
            blocks.append((support, gates))
        else:
            support += joint
            gates.append(g)
    order = list(range(1, c.n + 1))  # order[i] is the qubit on axis i + 1 of the array
    index = {}  # _adjoint_transfer arguments -> position in transfers, in walk order
    placed = []  # (support, axes, key) per block
    for support, gates in blocks:
        new = support + [q for q in order if q not in support]
        axes = tuple([0] + [order.index(q) + 1 for q in new])
        order = new
        local = {q: i for i, q in enumerate(support)}
        key = tuple((index.setdefault(args[g], len(index)), tuple(map(local.__getitem__, qubits[g]))) for g in gates)
        placed.append((tuple(support), axes, key))
    first = {key: i for i, (_, _, key) in reversed(list(enumerate(placed)))}
    last = {key: i for i, (_, _, key) in enumerate(placed)}
    steps = tuple(_Step(*block, first[block[2]] == i, last[block[2]] == i) for i, block in enumerate(placed))
    restore = tuple([0] + [order.index(q) + 1 for q in range(1, c.n + 1)])
    return _Plan(steps, restore, tuple(_adjoint_transfer(*a) for a in index))


def _block_map(key, gate_maps: list, m: int) -> np.ndarray:
    """M_B = M_wj ... M_w1, one 4**m x 4**m matrix per h of gate_maps, of the
    block on m qubits whose gates in walk order and their local positions
    are key: each gate's map acts on its own row axes of the running product."""
    a = np.eye(4**m)[None]
    order = list(range(m))  # order[i] is the local qubit on row axis i + 1 of a
    for t, pos in key:
        new = list(pos) + [q for q in order if q not in pos]
        if new != order:
            a = a.reshape((len(a),) + (4,) * m + (4**m,)).transpose([0] + [order.index(q) + 1 for q in new] + [m + 1])
            order = new
        a = gate_maps[t] @ a.reshape(len(a), 4 ** len(pos), -1)
    a = a.reshape((len(a),) + (4,) * m + (4**m,)).transpose([0] + [order.index(q) + 1 for q in range(m)] + [m + 1])
    return a.reshape(len(a), 4**m, 4**m)


def pull_back(c: Circuit, coeffs: np.ndarray, grid_h) -> np.ndarray:
    """Pauli coefficients of E^dag(O) for the noisy run E of c at each h of grid_h.

    coeffs holds the real Pauli coefficients of O, shape (4,)*c.n; the
    result has one more, leading axis over grid_h.  Gate g's noisy adjoint is
    M_g = R_g diag(1, p_s, ..., p_s), one 4**k x 4**k matrix per h, and the
    maps are applied block by block along the plan of _walk_plan, which
    refuses a gate on 5 or more qubits.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (4,) * c.n:
        raise ValueError(f"coefficients of shape {coeffs.shape} do not fit {c.n} qubits")
    return _pull_back(_walk_plan(c), coeffs, [_probability(h, "h") for h in grid_h])


def _pull_back(plan: _Plan, coeffs: np.ndarray, grid_h) -> np.ndarray:
    """pull_back along a plan for checked h values, in walks of _WALK_COEFFS entries at most."""
    out = np.empty((len(grid_h),) + coeffs.shape)
    widest = max((len(s.support) for s in plan.steps), default=0)
    per_walk = max(1, _WALK_COEFFS // max(coeffs.size, 16**widest))
    for i in range(0, len(grid_h), per_walk):
        out[i : i + per_walk] = _walk(plan, coeffs, grid_h[i : i + per_walk])
    return out


def _walk(plan: _Plan, coeffs: np.ndarray, grid_h: list[float]) -> np.ndarray:
    """One walk of pull_back over its plan, for all of grid_h at once, in the
    two coefficient buffers of the module docstring, which belong to this
    call; the result is a view of one of them."""
    gate_maps = []  # M_g per h, by the index of g's transfer matrix in the plan
    for r in plan.transfers:
        k = n_qubits(len(r)) // 2  # R_g is 4**k x 4**k
        damp = np.ones((len(grid_h), 1, len(r)))
        damp[:, :, 1:] = np.array([h**k for h in grid_h])[:, None, None]  # p_s per h
        gate_maps.append(r * damp)
    maps = {}  # each block map, from the first step with its key to the last
    x, y = np.empty((2, len(grid_h)) + coeffs.shape)  # x holds the coefficients, y is idle
    x[...] = coeffs
    for s in plan.steps:
        np.copyto(y, x.transpose(s.axes))
        x, y = y, x
        if s.first:
            maps[s.key] = _block_map(s.key, gate_maps, len(s.support))
        block = maps.pop(s.key) if s.last else maps[s.key]
        rows = (len(grid_h), 4 ** len(s.support), -1)
        np.matmul(block, x.reshape(rows), out=y.reshape(rows))
        x, y = y, x
    return x.transpose(plan.restore)


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


@dataclass(frozen=True, eq=False)
class _SweepModel:
    """What a sweep computes from (kind, n, mode) alone: the witness constant
    c and the readout's a0, the read-only Pauli coefficients of the target
    projector and of the readout sum_k a_k Z_k, and the plans of the walks
    that pull them back, the prep and the prep then the measurement circuit."""

    c: float
    a0: float
    projector: np.ndarray
    readout: np.ndarray
    prep: _Plan
    measured: _Plan


@cache
def _sweep_model(kind: str, n: int, mode: str) -> _SweepModel:
    """The sweep's model for a checked, normalized (kind, n, mode), built
    once per process: the expanded measurement circuit, the transfer
    matrices and the projector's coefficients do not depend on the grid."""
    entangler = select_entangler(kind, n)
    w = select_witness(kind, n)
    dec = sed_decomposition(w)
    readout = np.zeros((4,) * n)  # sum_k a_k Z on tensor slot n-k+1
    for k, a_k in enumerate(dec.a, 1):
        readout[(0,) * (n - k) + (3,) + (0,) * (k - 1)] = a_k
    projector = pauli_coefficients(w.target.density())
    readout.flags.writeable = projector.flags.writeable = False
    prep = entangler if mode == "witness" else Circuit(n, ())
    measurement = dagger_circuit(entangler).then(sed_measurement_circuit(n))
    return _SweepModel(w.c, dec.a0, projector, readout, _walk_plan(prep), _walk_plan(prep.then(measurement)))


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
    n = _integer(n, "n")
    grid_p = [_probability(p, "p") for p in grid_p]
    grid_h = [_probability(h, "h") for h in grid_h]
    if entangler_mode not in ("witness", "identity"):
        raise ValueError(f"unknown entangler mode {entangler_mode!r}")
    model = _sweep_model(_option(witness_kind, ENTANGLER_KINDS, "entangler kind"), n, entangler_mode)
    # per h and p: the observables pulled back to the thermal input, read there.
    # W = c 1 - |psi><psi| and every noisy gate adjoint leaves 1 alone, so c stays exact
    conv = model.c - thermal_readout(_pull_back(model.prep, model.projector, grid_h), grid_p)
    sed = thermal_readout(_pull_back(model.measured, model.readout, grid_h), grid_p)
    return [
        SweepRecord(p, h, float(conv[j, i]), model.a0 + float(sed[j, i]))
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
    if count > MAX_GRID_POINTS:
        raise ValueError(f"step {step:g} gives {count} points in the range [{lo:g}, {hi:g}], more than {MAX_GRID_POINTS}")
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
