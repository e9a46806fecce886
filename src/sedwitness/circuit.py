"""Gate-level circuit IR, witness entangler circuits, the recursive circuit
for V'_n^dag, and decomposition of multi-controlled gates into one- and
two-qubit gates.

Conventions: gate list order is temporal order, so the circuit unitary is
the matrix product with later gates on the left.  Controls carry a polarity
bit (1 = active on |1>, 0 = active on |0>).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import sed
from .tensor import ATOL_ALGEBRA, ATOL_PHYSICS, H, SWAP, X, dagger, embed_gate, kron

KINDS = ("H", "X", "CNOT", "SWAP", "CnNOT", "CnH", "OPAQUE")

_BASES = {"H": H, "X": X, "CNOT": X, "CnNOT": X, "CnH": H, "SWAP": SWAP}


@dataclass(frozen=True, eq=False)
class Gate:
    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()
    payload: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        object.__setattr__(
            self, "controls", tuple((int(q), int(p)) for q, p in self.controls)
        )
        if self.kind not in KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        ctrl_qubits = [q for q, _ in self.controls]
        if set(ctrl_qubits) & set(self.targets):
            raise ValueError("controls and targets must be disjoint")
        if len(set(ctrl_qubits)) != len(ctrl_qubits) or len(set(self.targets)) != len(self.targets):
            raise ValueError("repeated qubit in gate")
        if any(p not in (0, 1) for _, p in self.controls):
            raise ValueError("control polarity must be 0 or 1")
        if self.kind in ("H", "X") and (len(self.targets) != 1 or self.controls):
            raise ValueError(f"{self.kind} takes one target and no controls")
        if self.kind == "CNOT" and (len(self.targets) != 1 or len(self.controls) != 1):
            raise ValueError("CNOT takes one target and one control")
        if self.kind == "SWAP" and (len(self.targets) != 2 or self.controls):
            raise ValueError("SWAP takes two targets and no controls")
        if self.kind in ("CnNOT", "CnH") and (len(self.targets) != 1 or not self.controls):
            raise ValueError(f"{self.kind} takes one target and at least one control")
        if self.kind == "OPAQUE":
            if self.payload is None:
                raise ValueError("OPAQUE gate needs a payload")
            m = np.asarray(self.payload, dtype=complex)
            d = 2 ** len(self.targets)
            if m.shape != (d, d):
                raise ValueError("payload dimension does not match targets")
            if np.max(np.abs(m @ m.conj().T - np.eye(d))) > ATOL_ALGEBRA:
                raise ValueError("payload is not unitary")
            object.__setattr__(self, "payload", m)
        elif self.payload is not None:
            raise ValueError(f"{self.kind} does not take a payload")

    def base_matrix(self) -> np.ndarray:
        return self.payload if self.kind == "OPAQUE" else _BASES[self.kind]

    @cached_property
    def block(self) -> np.ndarray:
        """The 2**k unitary on `qubits()` (controls first, then targets), built once."""
        base = self.base_matrix()
        proj = np.array([1.0], dtype=complex)
        for _, pol in self.controls:
            proj = np.kron(proj, np.array([1.0 - pol, float(pol)], dtype=complex))
        proj = np.diag(proj)
        return kron(proj, base) + kron(np.eye(proj.shape[0]) - proj, np.eye(base.shape[0]))

    def qubits(self) -> list[int]:
        return [q for q, _ in self.controls] + list(self.targets)

    def daggered(self) -> "Gate":
        if self.kind == "OPAQUE":
            return Gate(self.kind, self.targets, self.controls, dagger(self.payload))
        return self  # the named kinds are all self-inverse


@dataclass(frozen=True, eq=False)
class Circuit:
    n: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for q in g.qubits():
                if not 1 <= q <= self.n:
                    raise ValueError(f"gate qubit {q} outside register 1..{self.n}")

    def then(self, other: "Circuit") -> "Circuit":
        if other.n != self.n:
            raise ValueError("register size mismatch")
        return Circuit(self.n, self.gates + other.gates)


def gate_matrix(g: Gate, n: int) -> np.ndarray:
    """Full 2**n unitary of a (possibly controlled) gate."""
    return embed_gate(g.block, g.qubits(), n)


def circuit_unitary(c: Circuit) -> np.ndarray:
    u = np.eye(2**c.n, dtype=complex)
    for g in c.gates:
        u = gate_matrix(g, c.n) @ u
    return u


def dagger_circuit(c: Circuit) -> Circuit:
    return Circuit(c.n, tuple(g.daggered() for g in reversed(c.gates)))


def ghz_entangler(n: int) -> Circuit:
    """One Hadamard and n-1 CNOTs mapping |0...0> to the n-qubit GHZ state."""
    if n < 2:
        raise ValueError("entangler needs n >= 2")
    gates = [Gate("H", (1,))]
    gates += [Gate("CNOT", (k,), ((1, 1),)) for k in range(2, n + 1)]
    return Circuit(n, tuple(gates))


def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def w_entangler(n: int) -> Circuit:
    """Cascade of controlled rotations and CNOTs mapping |0...0> to the W state."""
    if n < 2:
        raise ValueError("entangler needs n >= 2")
    gates = [Gate("X", (1,))]
    for i in range(1, n):
        theta = 2 * np.arccos(np.sqrt(1.0 / (n - i + 1)))
        gates.append(Gate("OPAQUE", (i + 1,), ((i, 1),), _ry(theta)))
        gates.append(Gate("CNOT", (i,), ((i + 1, 1),)))
    return Circuit(n, tuple(gates))


def select_entangler(kind: str, n: int) -> Circuit:
    """Entangler circuit of a witness target family: ghz or w."""
    kind = kind.lower()
    if kind not in ("ghz", "w"):
        raise ValueError(f"unknown entangler kind {kind!r}")
    return ghz_entangler(n) if kind == "ghz" else w_entangler(n)


def vprime_dagger_circuit(n: int) -> Circuit:
    """Recursive circuit for V'_n^dag.

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
        gates.append(Gate("CnH", (n,), tuple((q, 0) for q in range(first, n))))
        gates.append(Gate("H", (n,)))
        gates.append(Gate("SWAP", (first, n)))
    v2, _, _ = sed.vprime2()
    gates.append(Gate("OPAQUE", (n - 1, n), (), dagger(v2)))
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


def _is(u: np.ndarray, ref: np.ndarray) -> bool:
    return u.shape == ref.shape and np.max(np.abs(u - ref)) <= ATOL_ALGEBRA


def _emit_plain(u: np.ndarray, target: int) -> Gate:
    if _is(u, X):
        return Gate("X", (target,))
    if _is(u, H):
        return Gate("H", (target,))
    return Gate("OPAQUE", (target,), (), u)


def _emit_controlled(u: np.ndarray, control: int, target: int) -> Gate:
    if _is(u, X):
        return Gate("CNOT", (target,), ((control, 1),))
    return Gate("OPAQUE", (target,), ((control, 1),), u)


def _lambda(u: np.ndarray, controls: list[int], target: int, n: int, out: list[Gate]):
    """Emit 1/2-qubit gates for u on `target` controlled (all polarity 1) by `controls`."""
    m = len(controls)
    if m == 0:
        out.append(_emit_plain(u, target))
        return
    if m == 1:
        out.append(_emit_controlled(u, controls[0], target))
        return
    if m == 2:
        v = _unitary_sqrt(u)
        c1, c2 = controls
        out.append(_emit_controlled(v, c2, target))
        out.append(Gate("CNOT", (c2,), ((c1, 1),)))
        out.append(_emit_controlled(dagger(v), c2, target))
        out.append(Gate("CNOT", (c2,), ((c1, 1),)))
        out.append(_emit_controlled(v, c1, target))
        return
    used = set(controls) | {target}
    free = [q for q in range(1, n + 1) if q not in used]
    self_inverse = np.max(np.abs(u @ u - np.eye(2))) <= ATOL_ALGEBRA
    if self_inverse and len(free) >= m - 2:
        # borrowed-qubit chain: 4(m-2) two-controlled gates, dirty borrows
        # are restored and the double pass cancels their unknown values
        dirty = free[: m - 2]
        chain = [(u, [controls[-1], dirty[-1]], target)]
        for i in range(m - 3, 0, -1):
            chain.append((X, [controls[i + 1], dirty[i - 1]], dirty[i]))
        chain.append((X, [controls[0], controls[1]], dirty[0]))
        ladder = chain[1:-1][::-1]
        for base, ctrls, tgt in chain + ladder + [chain[0]] + chain[1:] + ladder:
            _lambda(base, ctrls, tgt, n, out)
        return
    if self_inverse and len(free) >= 1:
        # one borrowed qubit: two half-sized gates, each applied twice
        borrow = free[0]
        m1 = (m + 1) // 2
        grp_a, grp_b = controls[:m1], controls[m1:]
        for _ in range(2):
            _lambda(u, grp_b + [borrow], target, n, out)
            _lambda(X, grp_a, borrow, n, out)
        return
    # no spare qubit (or base not self-inverse): peel the last control
    v = _unitary_sqrt(u)
    head, last = controls[:-1], controls[-1]
    out.append(_emit_controlled(v, last, target))
    _lambda(X, head, last, n, out)
    out.append(_emit_controlled(dagger(v), last, target))
    _lambda(X, head, last, n, out)
    _lambda(v, head, target, n, out)


def expand_multicontrolled(c: Circuit) -> Circuit:
    """Replace every CnNOT/CnH by a network of CNOT, single-qubit and
    two-qubit opaque gates; the unitary is preserved exactly."""
    out: list[Gate] = []
    for g in c.gates:
        if g.kind not in ("CnNOT", "CnH"):
            out.append(g)
            continue
        sandwiches = [Gate("X", (q,)) for q, pol in g.controls if pol == 0]
        out.extend(sandwiches)
        _lambda(g.base_matrix(), [q for q, _ in g.controls], g.targets[0], c.n, out)
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


def phase_insensitive_equal(m1: np.ndarray, m2: np.ndarray, atol: float = ATOL_PHYSICS) -> bool:
    """Compare unitaries up to a global phase (taken from the largest entry)."""
    prod = m1 @ dagger(m2)
    idx = np.unravel_index(np.argmax(np.abs(prod)), prod.shape)
    phase = prod[idx] / abs(prod[idx])
    return bool(np.max(np.abs(prod - phase * np.eye(prod.shape[0]))) <= atol)


# ---------------------------------------------------------------------------
# line-based serialization: one gate per line,
#   KIND targets... [| controls as q(pol)...] [@ payload entries row-major]
# preceded by a "qubits N" header; complex entries round-trip via repr().
# ---------------------------------------------------------------------------


def circuit_to_text(c: Circuit) -> str:
    lines = [f"qubits {c.n}"]
    for g in c.gates:
        parts = [g.kind] + [str(t) for t in g.targets]
        if g.controls:
            parts.append("|")
            parts += [f"{q}({p})" for q, p in g.controls]
        if g.payload is not None:
            parts.append("@")
            parts += [repr(complex(z)) for z in g.payload.ravel()]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    """Parse the text format; a malformed line raises ValueError naming its number."""
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1].split()[0] != "qubits":
        raise ValueError("missing 'qubits N' header")
    (lineno, header), *body = lines
    fields = header.split()
    if len(fields) != 2 or not fields[1].isdecimal():
        raise ValueError(f"line {lineno}: {header!r}: expected 'qubits N'")
    gates = []
    for lineno, ln in body:
        try:
            kind, *rest = ln.split()
            targets, controls, payload_tokens = [], [], []
            section = "targets"
            for tok in rest:
                if tok == "|":
                    section = "controls"
                elif tok == "@":
                    section = "payload"
                elif section == "targets":
                    targets.append(int(tok))
                elif section == "controls":
                    q, p = tok[:-1].split("(")
                    controls.append((int(q), int(p)))
                else:
                    payload_tokens.append(tok)
            payload = None
            if payload_tokens:
                d = 2 ** len(targets)
                payload = np.array([complex(t) for t in payload_tokens]).reshape(d, d)
            gates.append(Gate(kind, tuple(targets), tuple(controls), payload))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {ln!r}: {exc}") from exc
    return Circuit(int(fields[1]), tuple(gates))
