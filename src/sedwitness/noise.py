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
the plan owns the R_g of each distinct gate.  The block maps depend on h,
so they are built per walk, once for each distinct block (the same bases,
polarities and local qubit positions), and each is dropped after its last
use, so none outlives the walk.  The damping stays per gate; only the
order of rounding differs from a walk gate by gate.  A walk allocates its
two coefficient buffers once, on a cache line: each step copies its
transpose into the idle one and writes its matmul back into the other.  It
starts from an observable's nonzero coefficients, (index, values), written
into a zeroed buffer, and ends on a transposed view that reads the bits in
canonical order, so neither end copies the whole array.  A long h grid is
walked in chunks whose coefficients and block maps each stay within cache.

The coefficients are held as (h,) + (2,)*2n: a Pauli index is two bits, I
= 00, Z = 01, X = 10, Y = 11 (tensor.PAULI), and qubit q has its high bit,
the Z-sector (1 where the string anticommutes with Z_q), on axis 2q - 1
and its low bit, the X-sector (1 where it anticommutes with X_q), on axis
2q.  A gate whose unitary keeps sigma_q up to a sign, U^dag sigma_q U =
+-sigma_q for sigma = Z or X, maps the strings that commute with sigma_q to
strings that commute with it, and so the anticommuting ones too; its
failure branch is diagonal on strings.  So M_g never changes that bit of
qubit q.  A control of either polarity and a diagonal base keep Z, a base
that commutes with X (the X of a CNOT, its square roots) keeps X, and a
bare X keeps both.  The plan tests each gate's R_g: a bit is kept where
every entry between strings that differ in it is at most ATOL_SECTOR.
For a control or a diagonal base those entries are exactly 0.0, each a sum
of products with a zero factor; the square roots of X that the expansion
computes carry up to 9.7e-17 of rounding there, which the split drops.  A
block splits every bit that all of its gates touching that qubit keep: j
split bits make its map 2**j diagonal blocks, one per sector, and each is
built from the gates' maps restricted to that sector, so the entries
between the sectors are never formed.  Each step transposes its split bits
and then the block's other bits to the front and runs one batched matmul
(h, s, 4**m/s, 4**m/s) @ (h, s, 4**m/s, rest) for its s = 2**j sectors,
1/s of the multiply-adds of a whole map.  A map of one string per sector is diagonal, and it
scales the coefficients as the transpose copies them.

The sweep prepares a thermal product state, runs the noisy entangler, then
compares the conventional witness (noiseless direct trace) with the
single-run readout whose measurement circuit is itself noisy: the
disentangler V^dag, then `sed_measurement_circuit(n)`.  That circuit is
V'_n^dag up to a diagonal that acts first and commutes with every readout
observable, so without noise it reads the same z_k as V'_n^dag on every
state; for n >= 4 it has fewer noisy gates than the exact expansion, and
at h < 1 the sweep's value_sed is that of the shorter circuit.
Both observables are pulled back to the thermal input.  It is diagonal, so
every p reads only the I/Z strings: Tr(rho_0(p) P_z) = (2p - 1)**|z|.  The
sweep reads each walk there as it ends, so it holds one walk's
coefficients and len(p) * len(h) values, however long its h grid.

What a sweep needs apart from its grid depends only on (kind, n, mode): the
witness constant, the Pauli coefficients of the target projector and of the
readout, and the plans of the two walks, whose gate lists hold the expanded
measurement circuit.  The projector |psi><psi| with psi = V|0...0> is
itself a walk: |0...0><0...0| = prod_q (I + Z_q) / 2 holds 2**-n on every
I/Z string, and its noiseless pull-back through V^dag is V|0...0><0...0|V^dag,
of which the model keeps the exact nonzeros.  So the walk is the one Pauli
transform of the package, and no sweep forms a 2**n x 2**n matrix or keeps
a 4**n array.  `_sweep_model` builds that once per process for each
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
from .tensor import ATOL_ALGEBRA, ATOL_GRID, ATOL_SECTOR, MAX_GRID_POINTS, _integer, _option, _probability, _real, n_qubits, pauli_strings
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

    support lists the block's qubits in the order its gates first name them;
    local bit 2i + b is bit b of the Pauli index of support[i] (b = 0 the
    Z-sector bit, b = 1 the X-sector bit).  split holds, ascending, the local
    bits that every gate of the block keeps (module docstring), so its map is
    2**len(split) diagonal blocks, one per sector, each over the other bits
    of the block in ascending order.  axes is the transpose of the (h, bits)
    coefficient array that brings the split bits first and the block's other
    bits after them.  key holds, for the block's gates in walk order, the
    index of each gate's sector-restricted transfer matrix in the plan with
    the positions of its qubits in support, so equal keys have equal maps
    and splits.  schedule and rows are how _block_map builds the map,
    worked out from the key once: for each gate, its map's index, the
    transpose of the running product that brings the gate's bits outside
    the split to the front of the row axes (None where they lead) and the
    shape of its map over the split bits, 1 for a qubit it does not touch;
    then rows, the transpose that puts the row axes back in ascending order.
    The first step with a key builds its map and the last one drops it."""

    support: tuple[int, ...]
    axes: tuple[int, ...]
    key: tuple
    split: tuple[int, ...]
    schedule: tuple
    rows: tuple[int, ...]
    last: bool

    @property
    def sectors(self) -> int:
        return 2 ** len(self.split)


@dataclass(frozen=True, eq=False)
class _Plan:
    """A walk over one gate list: its steps, the transpose that reads the
    array of the last step in canonical bit order, and the read-only transfer
    matrices that the steps' keys index.  Each is the Pauli transfer matrix
    of a distinct gate (the same base, dimension and control polarities)
    restricted to the sectors of the bits its block splits on the gate's
    qubits: an array (2**j, 4**k / 2**j, 4**k / 2**j) of diagonal blocks,
    each over the gate's other bits in ascending order."""

    steps: tuple[_Step, ...]
    restore: tuple[int, ...]
    transfers: tuple[np.ndarray, ...]


def _kept_bits(r: np.ndarray) -> frozenset:
    """The bits 2i + b of a gate's own qubits that its transfer matrix r keeps:
    every entry between strings that differ in that bit is at most
    ATOL_SECTOR in magnitude."""
    k = n_qubits(len(r)) // 2
    r = np.abs(r).reshape((2,) * (4 * k))
    kept = set()
    for bit in range(2 * k):
        cross = np.moveaxis(r, (bit, 2 * k + bit), (0, 1))  # the row and column values of bit
        if max(cross[0, 1].max(), cross[1, 0].max()) <= ATOL_SECTOR:
            kept.add(bit)
    return frozenset(kept)


def _restricted(r: np.ndarray, split: tuple[int, ...]) -> np.ndarray:
    """The read-only diagonal blocks of the 4**k x 4**k transfer matrix r
    over the sectors of its bits split, in that order: shape (2**j, 4**k /
    2**j, 4**k / 2**j), each block over the other bits in ascending order."""
    k = n_qubits(len(r)) // 2
    order = list(split) + [b for b in range(2 * k) if b not in split]
    sectors, rows = 2 ** len(split), 4**k >> len(split)
    bits = r.reshape((2,) * (4 * k)).transpose(order + [2 * k + b for b in order])
    out = np.einsum("sisj->sij", bits.reshape(sectors, rows, sectors, rows)).copy()
    out.flags.writeable = False
    return out


def _schedule(key: tuple, split: list[int], m: int) -> tuple[tuple, tuple[int, ...]]:
    """The schedule and rows of a _Step with this key and split on m qubits."""
    lead = len(split) + 1  # the h axis and one axis per split bit
    order = [bit for bit in range(2 * m) if bit not in split]  # the bit on each row axis
    schedule = []
    for t, pos in key:
        own = [2 * i + b for i in pos for b in (0, 1) if 2 * i + b not in split]
        new = own + [bit for bit in order if bit not in own]
        axes = None if new == order else tuple(range(lead)) + tuple(lead + order.index(bit) for bit in new) + (lead + len(order),)
        order = new
        schedule.append((t, axes, tuple(2 if bit // 2 in pos else 1 for bit in split)))
    rows = tuple(range(lead)) + tuple(lead + order.index(bit) for bit in sorted(order)) + (lead + len(order),)
    return tuple(schedule), rows


def _walk_plan(c: Circuit) -> _Plan:
    """The plan of a walk over c's gates.

    Gates join the current block, last to first, while the joint support
    stays within _BLOCK_WIDTH qubits.  A block takes its qubits in the order
    its gates first name them and splits every bit that all of its gates
    touching that qubit keep; each step transposes the split bits and then
    the block's other bits to the front.
    A gate on k qubits has a transfer matrix and a block map of 16**k entries
    each, so one with more than _WALK_COEFFS (k >= 5) is refused first.
    """
    qubits = {g: g.qubits() for g in set(c.gates)}
    for i, g in enumerate(c.gates):
        if 16 ** len(qubits[g]) > _WALK_COEFFS:
            raise ValueError(f"gate {i} on {len(qubits[g])} qubits is too wide for the walk; use expand_multicontrolled")
    args = {g: (g.base.tobytes(), len(g.base), tuple(pol for _, pol in g.controls)) for g in qubits}
    whole = {a: _adjoint_transfer(*a) for a in set(args.values())}
    kept = {a: _kept_bits(r) for a, r in whole.items()}
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
    order = list(range(2 * c.n))  # order[i] is the bit on axis i + 1 of the array, bit 2(q - 1) + b of qubit q
    index = {}  # (gate arguments, split bits of the gate) -> position in transfers, in walk order
    placed = []  # (support, axes, key, split, schedule, rows) per block
    for support, gates in blocks:
        pos = {g: [support.index(q) for q in qubits[g]] for g in gates}
        split = [
            2 * i + b
            for i, q in enumerate(support)
            for b in (0, 1)
            if all(2 * pos[g].index(i) + b in kept[args[g]] for g in gates if q in qubits[g])
        ]
        local = split + [bit for bit in range(2 * len(support)) if bit not in split]
        bits = [2 * (support[bit // 2] - 1) + bit % 2 for bit in local]
        new = bits + [bit for bit in order if bit not in bits]
        axes = tuple([0] + [order.index(bit) + 1 for bit in new])
        order = new
        key = []
        for g in gates:
            # the gate's own bits that the block splits, in the block's order
            own = tuple(2 * pos[g].index(bit // 2) + bit % 2 for bit in split if bit // 2 in pos[g])
            key.append((index.setdefault((args[g], own), len(index)), tuple(pos[g])))
        placed.append((tuple(support), axes, tuple(key), tuple(split)) + _schedule(tuple(key), split, len(support)))
    last = {block[2]: i for i, block in enumerate(placed)}
    steps = tuple(_Step(*block, last[block[2]] == i) for i, block in enumerate(placed))
    restore = tuple([0] + [order.index(bit) + 1 for bit in range(2 * c.n)])
    return _Plan(steps, restore, tuple(_restricted(whole[a], own) for a, own in index))


def _block_map(step: _Step, gate_maps: list) -> np.ndarray:
    """The step's block map M_B = M_wj ... M_w1 as its sectors, an array (h,
    sectors, rows, rows) per h of gate_maps, rows = 4**m / sectors over the
    block's bits outside its split, ascending.  It is built from the
    identity sector by sector: each gate's restricted map acts on its own
    bits outside the split, which lead the row axes, and is broadcast over
    the split bits of the qubits it does not touch."""
    lead, bits = len(step.split) + 1, 2 * len(step.support) - len(step.split)  # bits on the row axes
    a = np.eye(2**bits).reshape((1,) * lead + (2,) * bits + (-1,))
    for t, axes, shape in step.schedule:
        if axes:
            a = a.transpose(axes)
        g = gate_maps[t]
        a = g.reshape(g.shape[:1] + shape + g.shape[-2:]) @ a.reshape(a.shape[:lead] + (g.shape[-1], -1))
        a = a.reshape(a.shape[:lead] + (2,) * bits + (-1,))
    return a.transpose(step.rows).reshape(len(a), step.sectors, 2**bits, -1)


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
    grid_h = [_probability(h, "h") for h in grid_h]
    out = np.empty((len(grid_h),) + coeffs.shape)
    bits = out.reshape((len(grid_h),) + (2,) * (2 * c.n))
    for rows, chunk in _pull_back(_walk_plan(c), (np.arange(coeffs.size), coeffs.ravel()), grid_h):
        bits[rows] = chunk
    return out


def _pull_back(plan: _Plan, start: tuple[np.ndarray, np.ndarray], grid_h: list[float]):
    """pull_back along a plan for checked h values, start as _walk takes
    it, in walks of _WALK_COEFFS entries at most: yields, walk by walk, the
    slice of grid_h it covers and its pulled-back coefficients, a view that
    the next walk does not touch."""
    widest = max((len(s.support) for s in plan.steps), default=0)
    size = 2 ** (len(plan.restore) - 1)  # 4**n coefficients, one axis of 2 per bit
    per_walk = max(1, _WALK_COEFFS // max(size, 16**widest))
    for i in range(0, len(grid_h), per_walk):
        rows = slice(i, i + per_walk)
        yield rows, _walk(plan, start, grid_h[rows])


def _gate_maps(plan: _Plan, grid_h: list[float]) -> list[np.ndarray]:
    """M_g = R_g diag(1, p_s, ..., p_s) per h of grid_h, restricted as the
    plan's transfer matrices: one array (h, sectors, rows, rows) for each, in
    its order.  The identity string is column 0 of sector 0."""
    gate_maps = []
    for r in plan.transfers:
        k = n_qubits(r.shape[0] * r.shape[1]) // 2  # the sectors hold 4**k strings
        damp = np.empty((len(grid_h),) + r.shape[:1] + (1,) + r.shape[2:])
        damp[...] = np.array([h**k for h in grid_h])[:, None, None, None]  # p_s per h
        damp[:, 0, 0, 0] = 1.0
        gate_maps.append(r * damp)
    return gate_maps


def _line_aligned(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float array of this shape whose data starts on a
    64-byte cache line.  numpy promises 16 bytes, and where the walk's
    buffers start off a line its transposes and matmuls run about 1.6x
    slower (n = 7, 2 h), so the speed of a walk would hang on the heap."""
    size = math.prod(shape)
    raw = np.empty(size + 8)
    skip = -raw.ctypes.data % 64 // raw.itemsize
    return raw[skip : skip + size].reshape(shape)


def _walk(plan: _Plan, start: tuple[np.ndarray, np.ndarray], grid_h: list[float]) -> np.ndarray:
    """One walk of pull_back over its plan, for all of grid_h at once, in the
    two coefficient buffers of the module docstring, which belong to this
    call.  start is (index, values): flat indices into a (4,)*n coefficient
    array, the same in its (2,)*2n bits, and the values there; every other
    coefficient is 0.  The result, shape (h,) + (2,)*2n in canonical bit
    order, is a transposed view of one buffer."""
    gate_maps = _gate_maps(plan, grid_h)
    maps = {}  # each block map, from the first step with its key to the last
    n = (len(plan.restore) - 1) // 2
    x, y = _line_aligned((2, len(grid_h)) + (2,) * (2 * n))  # x holds the coefficients, y is idle; bit 2(q - 1) + b on axis 2q - 1 + b
    x.fill(0.0)
    for row in x.reshape(len(grid_h), -1):  # per h: half the time of one [:, index] scatter (w, n = 7, 2 h)
        row[start[0]] = start[1]
    for s in plan.steps:
        if s.key not in maps:
            maps[s.key] = _block_map(s, gate_maps)
        block = maps.pop(s.key) if s.last else maps[s.key]
        if block.shape[-1] == 1:
            # one string per sector: the map is diagonal, and scaling while
            # the transpose copies saves the copy and a matmul of 1 x 1 blocks
            np.multiply(x.transpose(s.axes), block.reshape(block.shape[:1] + (2,) * len(s.split) + (1,) * (2 * n - len(s.split))), out=y)
            x, y = y, x
        else:
            np.copyto(y, x.transpose(s.axes))
            shape = (len(grid_h), s.sectors, 4 ** len(s.support) // s.sectors, -1)
            np.matmul(block, y.reshape(shape), out=x.reshape(shape))
    return x.transpose(plan.restore)


def thermal_readout(coeffs: np.ndarray, grid_p) -> np.ndarray:
    """Tr(rho_0(p) O) for every row O of coeffs and every p of grid_p.

    coeffs has shape (m,) + (4,)*n, the Pauli coefficients of one observable
    per row, or (m,) + (2,)*2n as a walk returns them; rho_0(p) is the
    thermal product state.  It is diagonal, so only the I/Z strings count,
    Z-sector bit 0 on every qubit, with Tr(rho_0(p) P_z) = (2p - 1)**|z| for
    |z| Z factors: each qubit's X-sector axis of the I/Z sub-array is
    contracted with (1, 2p - 1), a pairwise sum that rounds less than one
    long dot product.  The p values are read in groups whose (m, group,
    2**n) array stays within _WALK_COEFFS entries.
    Returns the (m, len(grid_p)) array.
    """
    n = n_qubits(math.prod(coeffs.shape[1:])) // 2
    x = 2 * np.asarray(grid_p, dtype=float) - 1
    zi = coeffs.reshape(coeffs.shape[:1] + (2,) * (2 * n))[(slice(None),) + (0, slice(None)) * n]
    out = np.empty((len(zi), len(x)))
    per_group = max(1, _WALK_COEFFS // max(1, zi.size))
    for i in range(0, len(x), per_group):
        group = x[i : i + per_group]
        part = zi[:, None]  # (m, 1, 2, ..., 2), then (m, group, 2, ..., 2) after the first sum
        for left in range(n - 1, -1, -1):
            part = part[..., 0] + group.reshape((-1,) + (1,) * left) * part[..., 1]
        out[:, i : i + per_group] = part
    return out


@dataclass(frozen=True, eq=False)
class _SweepModel:
    """What a sweep computes from (kind, n, mode) alone: the witness constant
    c and the readout's a0, the two observables as _walk starts them, in
    read-only arrays, and the plans of the walks that pull them back, the
    prep and the prep then the measurement circuit.  The projector |psi><psi|
    holds its exact nonzeros; the readout sum_k a_k Z_k holds a_k at index
    4**(k-1), Z on slot n-k+1."""

    c: float
    a0: float
    projector: tuple[np.ndarray, np.ndarray]
    readout: tuple[np.ndarray, np.ndarray]
    prep: _Plan
    measured: _Plan


@cache
def _sweep_model(kind: str, n: int, mode: str) -> _SweepModel:
    """The sweep's model for a checked, normalized (kind, n, mode), built
    once per process: the expanded measurement circuit, the transfer
    matrices and the projector's coefficients do not depend on the grid.
    The projector is |0...0><0...0|, 2**-n on each of the 2**n I/Z strings,
    walked at h = 1 through V^dag, the dagger of the entangler V that
    prepares the witness target."""
    entangler = select_entangler(kind, n)
    disentangler = dagger_circuit(entangler)
    w = select_witness(kind, n)
    dec = sed_decomposition(w)
    zero = np.ravel_multi_index(np.indices((2,) * n).reshape(n, -1), (4,) * n)  # slot values I = 0 and Z = 1
    walked = _walk(_walk_plan(disentangler), (zero, np.full(2**n, 2.0**-n)), [1.0]).ravel()
    index = np.flatnonzero(walked)
    projector, readout = (index, walked[index]), (4 ** np.arange(n), dec.a)
    for a in projector + readout:
        a.flags.writeable = False
    prep = entangler if mode == "witness" else Circuit(n, ())
    measurement = disentangler.then(sed_measurement_circuit(n))
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
    The grid may hold at most MAX_GRID_POINTS points in all.
    """
    n = _integer(n, "n")
    grid_p = [_probability(p, "p") for p in grid_p]
    grid_h = [_probability(h, "h") for h in grid_h]
    if len(grid_p) * len(grid_h) > MAX_GRID_POINTS:
        raise ValueError(
            f"grid of {len(grid_p)} p by {len(grid_h)} h values has {len(grid_p) * len(grid_h)} points, more than {MAX_GRID_POINTS}"
        )
    if entangler_mode not in ("witness", "identity"):
        raise ValueError(f"unknown entangler mode {entangler_mode!r}")
    model = _sweep_model(_option(witness_kind, ENTANGLER_KINDS, "entangler kind"), n, entangler_mode)
    # per h and p: the observables pulled back to the thermal input, read there.
    # W = c 1 - |psi><psi| and every noisy gate adjoint leaves 1 alone, so c stays exact
    conv = model.c - _thermal_pull_back(model.prep, model.projector, grid_h, grid_p)
    sed = _thermal_pull_back(model.measured, model.readout, grid_h, grid_p)
    return [
        SweepRecord(p, h, float(conv[j, i]), model.a0 + float(sed[j, i]))
        for i, p in enumerate(grid_p)
        for j, h in enumerate(grid_h)
    ]


def _thermal_pull_back(plan: _Plan, start: tuple[np.ndarray, np.ndarray], grid_h: list[float], grid_p: list[float]) -> np.ndarray:
    """thermal_readout of the pull-back of start along plan, shape
    (len(grid_h), len(grid_p)): each walk is read as it ends, so no more than
    one walk's coefficients are held at once."""
    out = np.empty((len(grid_h), len(grid_p)))
    for rows, chunk in _pull_back(plan, start, grid_h):
        out[rows] = thermal_readout(chunk, grid_p)
    return out


def sweep_csv(records: list[SweepRecord]) -> str:
    lines = ["p,h,value_conv,value_sed"]
    for r in records:
        lines.append(f"{r.p:.12g},{r.h:.12g},{r.value_conv:.12g},{r.value_sed:.12g}")
    return "\n".join(lines) + "\n"


def grid_values(lo: float, hi: float, step: float) -> list[float]:
    """Inclusive grid with exact endpoints; step must divide hi - lo."""
    lo, hi, step = _real(lo, "lo"), _real(hi, "hi"), _real(step, "step")
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
