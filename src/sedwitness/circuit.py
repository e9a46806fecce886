"""Gate-level circuit IR, witness entangler circuits, the recursive circuit
for V'_n^dag, and decomposition of multi-controlled gates into one- and
two-qubit gates.

Conventions: gate list order is temporal order, so the circuit unitary is
the matrix product with later gates on the left.  Controls carry a polarity
bit (1 = active on |1>, 0 = active on |0>).
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .tensor import ATOL_ALGEBRA, H, SWAP, X, dagger, is_unitary


# text labels of the named bases with 0, 1 and >= 2 controls
_LABELS = ((X, ("X", "CNOT", "CnNOT")), (H, ("H", "CnH", "CnH")), (SWAP, ("SWAP", None, None)))
_NAMED_BASE = {name: base for base, names in _LABELS for name in names if name}


@dataclass(frozen=True, eq=False)
class Gate:
    """Controlled unitary: the 2**len(targets) unitary `base` acts on
    `targets` when every control qubit q of `controls` (pairs (q, pol))
    holds pol.  The shared tensor constants X, H and SWAP are recognized by
    identity and give the gate its text label."""

    base: np.ndarray
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        object.__setattr__(
            self, "controls", tuple((int(q), int(p)) for q, p in self.controls)
        )
        ctrl_qubits = [q for q, _ in self.controls]
        if any(q < 1 for q in ctrl_qubits + list(self.targets)):
            raise ValueError("qubits are numbered from 1")
        if set(ctrl_qubits) & set(self.targets):
            raise ValueError("controls and targets must be disjoint")
        if len(set(ctrl_qubits)) != len(ctrl_qubits) or len(set(self.targets)) != len(self.targets):
            raise ValueError("repeated qubit in gate")
        if any(p not in (0, 1) for _, p in self.controls):
            raise ValueError("control polarity must be 0 or 1")
        base = np.asarray(self.base, dtype=complex)  # the shared constants stay themselves
        object.__setattr__(self, "base", base)
        d = 2 ** len(self.targets)
        if base.shape != (d, d):
            raise ValueError("base dimension does not match targets")
        if self.label == "OPAQUE" and not is_unitary(base):
            raise ValueError("base is not unitary")

    @property
    def label(self) -> str:
        """Name in the text format: X/CNOT/CnNOT, H/CnH, SWAP, else OPAQUE."""
        for base, names in _LABELS:
            if self.base is base:
                return names[min(len(self.controls), 2)] or "OPAQUE"
        return "OPAQUE"

    def qubits(self) -> list[int]:
        return [q for q, _ in self.controls] + list(self.targets)

    def daggered(self) -> "Gate":
        if self.label != "OPAQUE":
            return self  # the named bases are Hermitian
        return Gate(dagger(self.base), self.targets, self.controls)


class QubitRangeError(ValueError):
    """A gate touches a qubit outside the register; `index` is its position."""

    def __init__(self, index: int, qubit: int, n: int):
        super().__init__(f"gate {index}: qubit {qubit} out of range 1..{n}")
        self.index = index


@dataclass(frozen=True, eq=False)
class Circuit:
    n: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for i, g in enumerate(self.gates):
            for q in g.qubits():  # Gate holds distinct qubits numbered from 1
                if q > self.n:
                    raise QubitRangeError(i, q, self.n)

    def then(self, other: "Circuit") -> "Circuit":
        if other.n != self.n:
            raise ValueError("register size mismatch")
        return Circuit(self.n, self.gates + other.gates)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Product of the gates, each applied on the rows of the running unitary.

    The unitary is held as a (2,)*2n view whose axis q - 1 is the row bit of
    qubit q.  A gate fixes its control axes to their polarities and copies
    that block to a buffer; each row of the base that is not an identity row
    then overwrites its target slice of the block with the combination of
    the buffered slices that its nonzero entries name.  No 2**n x 2**n gate
    matrix is formed, and the unitary is updated in place.
    """
    n = c.n
    u = np.eye(2**n, dtype=complex).reshape((2,) * (2 * n))
    old = np.empty_like(u)
    for g in c.gates:
        idx = [slice(None)] * n  # the row axes; the column axes stay whole
        for q, pol in g.controls:
            idx[q - 1] = pol
        block = tuple(idx)
        old[block] = u[block]
        k = len(g.targets)
        slices = []  # per target basis index a, first target most significant
        for a in range(2**k):
            for i, q in enumerate(g.targets):
                idx[q - 1] = (a >> (k - 1 - i)) & 1
            slices.append(tuple(idx))
        for a, row in enumerate(g.base.tolist()):
            if row[a] == 1 and row.count(0) == len(row) - 1:
                continue  # an identity row
            dst = u[slices[a]]
            (b, coef), *rest = compress(enumerate(row), row)  # the nonzero entries
            np.multiply(old[slices[b]], coef, out=dst)
            for b, coef in rest:
                dst += coef * old[slices[b]]
    return u.reshape(2**n, 2**n)


def dagger_circuit(c: Circuit) -> Circuit:
    return Circuit(c.n, tuple(g.daggered() for g in reversed(c.gates)))


def ghz_entangler(n: int) -> Circuit:
    """One Hadamard and n-1 CNOTs mapping |0...0> to the n-qubit GHZ state."""
    if n < 2:
        raise ValueError("entangler needs n >= 2")
    gates = [Gate(H, (1,))]
    gates += [Gate(X, (k,), ((1, 1),)) for k in range(2, n + 1)]
    return Circuit(n, tuple(gates))


def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def w_entangler(n: int) -> Circuit:
    """Cascade of controlled rotations and CNOTs mapping |0...0> to the W state."""
    if n < 2:
        raise ValueError("entangler needs n >= 2")
    gates = [Gate(X, (1,))]
    for i in range(1, n):
        theta = 2 * np.arccos(np.sqrt(1.0 / (n - i + 1)))
        gates.append(Gate(_ry(theta), (i + 1,), ((i, 1),)))
        gates.append(Gate(X, (i,), ((i + 1, 1),)))
    return Circuit(n, tuple(gates))


def select_entangler(kind: str, n: int) -> Circuit:
    """Entangler circuit of a witness target family: ghz or w."""
    kind = kind.lower()
    if kind not in ("ghz", "w"):
        raise ValueError(f"unknown entangler kind {kind!r}")
    return ghz_entangler(n) if kind == "ghz" else w_entangler(n)


def vprime2() -> np.ndarray:
    """The explicit two-qubit solution V'_2; its coefficients b = -1/4 and
    a_1 = a_2 = 3/8 are those of sed.SedDecomposition(2)."""
    w = np.exp(2j * np.pi / 3)
    s = 1 / np.sqrt(3.0)
    v = np.array(
        [
            [0, 0, 0, 1],
            [s, s, s, 0],
            [s * w, s * w.conjugate(), s, 0],
            [s * w.conjugate(), s * w, s, 0],
        ],
        dtype=complex,
    )
    return v


def vprime_dagger_circuit(n: int) -> Circuit:
    """Recursive circuit for V'_n^dag, the one definition of V'_n.

    Temporal order per level k = n..3: the zero-controlled C(k-1)H, the
    plain H on the last qubit (together these make the block-diagonal
    unitary), then the SWAP; the two-qubit core V'_2^dag closes the list.
    All pieces except the core are self-inverse, so daggering only reverses
    the order.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    gates = []
    for k in range(n, 2, -1):
        first = n - k + 1
        gates.append(Gate(H, (n,), tuple((q, 0) for q in range(first, n))))
        gates.append(Gate(H, (n,)))
        gates.append(Gate(SWAP, (first, n)))
    gates.append(Gate(dagger(vprime2()), (n - 1, n)))
    return Circuit(n, tuple(gates))


# ---------------------------------------------------------------------------
# multi-controlled gate decomposition
#
# Exact, ancilla-free, quadratic in the control count.  Zero-polarity
# controls are normalized by X conjugation.  For a self-inverse base (X, H)
# a chain of two-controlled gates through borrowed dirty qubits is linear
# when enough spares exist; with a single spare the gate splits into two
# half-sized pieces run twice.  A full-width gate peels one control,
# which costs two multi-controlled X sandwiches plus a recursion on the
# square root of the base.
# ---------------------------------------------------------------------------


def _unitary_sqrt(u: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eig(u)
    return v @ np.diag(np.sqrt(w.astype(complex))) @ np.linalg.inv(v)


def _lambda(u: np.ndarray, controls: list[int], target: int, n: int) -> list[Gate]:
    """1/2-qubit gates for u on `target` controlled (all polarity 1) by `controls`.

    A sub-network that recurs is built once and its list reused; Gate is
    frozen, so the output may hold one Gate object several times."""
    m = len(controls)
    if m <= 1:
        return [Gate(u, (target,), tuple((q, 1) for q in controls))]
    if m > 2 and np.max(np.abs(u @ u - np.eye(2))) <= ATOL_ALGEBRA:
        used = set(controls) | {target}
        free = [q for q in range(1, n + 1) if q not in used]
        if len(free) >= m - 2:
            # borrowed-qubit chain: 4(m-2) two-controlled gates, dirty borrows
            # are restored and the double pass cancels their unknown values
            dirty = free[: m - 2]
            chain = [_lambda(u, [controls[-1], dirty[-1]], target, n)]
            for i in range(m - 3, 0, -1):
                chain.append(_lambda(X, [controls[i + 1], dirty[i - 1]], dirty[i], n))
            chain.append(_lambda(X, [controls[0], controls[1]], dirty[0], n))
            ladder = chain[1:-1][::-1]
            return [g for rung in chain + ladder + [chain[0]] + chain[1:] + ladder for g in rung]
        if free:
            # one borrowed qubit: two half-sized gates, each applied twice
            borrow = free[0]
            m1 = (m + 1) // 2
            grp_a, grp_b = controls[:m1], controls[m1:]
            half = _lambda(u, grp_b + [borrow], target, n) + _lambda(X, grp_a, borrow, n)
            return half + half
    # two controls, no spare qubit, or a base that is not self-inverse: peel the last control
    v = _unitary_sqrt(u)
    head, last = controls[:-1], controls[-1]
    flip = _lambda(X, head, last, n)
    return (
        [Gate(v, (target,), ((last, 1),))]
        + flip
        + [Gate(dagger(v), (target,), ((last, 1),))]
        + flip
        + _lambda(v, head, target, n)
    )


def expand_multicontrolled(c: Circuit) -> Circuit:
    """Replace every single-target gate with two or more controls by a
    network of one- and two-qubit gates; the unitary is preserved exactly."""
    out: list[Gate] = []
    for g in c.gates:
        if len(g.targets) != 1 or len(g.controls) < 2:
            out.append(g)
            continue
        sandwiches = [Gate(X, (q,)) for q, pol in g.controls if pol == 0]
        out.extend(sandwiches)
        out.extend(_lambda(g.base, [q for q, _ in g.controls], g.targets[0], c.n))
        out.extend(sandwiches)
    return Circuit(c.n, tuple(out))


def gate_count_G(n: int) -> int:
    """One/two-qubit gate count of the expanded V'_n^dag circuit."""
    return len(expand_multicontrolled(vprime_dagger_circuit(n)).gates)


def gate_count_exponent(n_values, counts) -> float:
    """Least-squares slope of log(count) against log(n)."""
    xs = np.log(np.asarray(n_values, dtype=float))
    ys = np.log(np.asarray(counts, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


# ---------------------------------------------------------------------------
# line-based serialization: a "qubits N" header, then one gate per line in
# the grammar of _GATE_LINE; complex entries round-trip via repr().
# Only OPAQUE gates carry their base; every other label names its base.
# Qubit numbers and polarities are ASCII decimal digits, as the writer emits;
# entry tokens hold no "|" or "@", so a stray mark fails the grammar.
# ---------------------------------------------------------------------------

_CONTROL = re.compile(r"([0-9]+)\(([0-9]+)\)")
_GATE_LINE = re.compile(
    r"""(\S+)                                 # label
        ((?:\s+[0-9]+)*)                      # targets
        (?:\s+\|((?:\s+[0-9]+\([0-9]+\))+))?  # | controls q(pol)
        (?:\s+@(\s+[^|@]*[^\s|@]))?           # @ base entries, row-major
    """,
    re.VERBOSE,
)


def circuit_to_text(c: Circuit) -> str:
    lines = [f"qubits {c.n}"]
    for g in c.gates:
        label = g.label
        parts = [label] + [str(t) for t in g.targets]
        if g.controls:
            parts.append("|")
            parts += [f"{q}({p})" for q, p in g.controls]
        if label == "OPAQUE":
            parts.append("@")
            parts += [repr(complex(z)) for z in g.base.ravel()]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    """Parse the text format; a malformed line raises ValueError naming its number.

    A line's label must be the one its gate serializes to, so `CNOT 1` (no
    control), `H 1 | 2(1)` (a CnH) or `X 1 @ ...` (an OPAQUE) are errors."""
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("missing 'qubits N' header")
    n, gates = None, []
    for lineno, ln in lines:
        try:
            if n is None:
                match = re.fullmatch(r"qubits\s+([0-9]+)", ln)
                if not match:
                    raise ValueError("expected 'qubits N'")
                n = int(match[1])
                continue
            match = _GATE_LINE.fullmatch(ln)
            if not match:
                raise ValueError("expected 'LABEL targets... [| q(pol)...] [@ entries...]'")
            name, targets, controls, entries = match.groups()
            targets = targets.split()  # ASCII digit strings, which Gate turns into ints
            controls = _CONTROL.findall(controls or "")
            if entries:
                values = [complex(t) for t in entries.split()]
                if not all(map(cmath.isfinite, values)):
                    raise ValueError("base has non-finite entries")
                d = 2 ** len(targets)
                base = np.array(values).reshape(d, d)
            elif name in _NAMED_BASE:
                base = _NAMED_BASE[name]
            else:
                raise ValueError(f"label {name!r} names no base")
            g = Gate(base, targets, controls)
            if g.label != name:
                raise ValueError(f"gate is labelled {g.label}, not {name}")
            gates.append(g)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {ln!r}: {exc}") from exc
    try:
        return Circuit(n, tuple(gates))
    except QubitRangeError as exc:
        lineno, ln = lines[exc.index + 1]
        raise ValueError(f"line {lineno}: {ln!r}: {exc}") from exc
