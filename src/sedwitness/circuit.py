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

from .tensor import ATOL_ALGEBRA, H, SWAP, X, _integer, _option, _size, dagger, is_unitary


# text labels of the named bases with 0, 1 and >= 2 controls
_LABELS = ((X, ("X", "CNOT", "CnNOT")), (H, ("H", "CnH", "CnH")), (SWAP, ("SWAP", None, None)))
_NAMED_BASE = {name: base for base, names in _LABELS for name in names if name}


def _all_pairs(items) -> bool:
    try:
        return all(len(item) == 2 for item in items)
    except TypeError:
        return False


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
        # plain ints are taken as they are and anything else goes to _integer;
        # a malformed field is named from the except clauses, which cost nothing otherwise
        try:
            targets = tuple([t if type(t) is int else _integer(t, "qubit") for t in self.targets])
        except TypeError:
            raise ValueError(f"targets must be a sequence of qubits, got {self.targets!r}") from None
        object.__setattr__(self, "targets", targets)
        try:
            controls = tuple(
                [
                    (q, p) if type(q) is int and type(p) is int else (_integer(q, "qubit"), _integer(p, "polarity"))
                    for q, p in self.controls
                ]
            )
        except (TypeError, ValueError):
            if _all_pairs(self.controls):
                raise  # a qubit or polarity that is not an integer names itself
            raise ValueError(f"controls must be (qubit, polarity) pairs, got {self.controls!r}") from None
        object.__setattr__(self, "controls", controls)
        qubits = [q for q, _ in controls]
        qubits += targets
        if qubits and min(qubits) < 1:
            raise ValueError("qubits are numbered from 1")
        if len(set(qubits)) != len(qubits):
            if not {q for q, _ in controls}.isdisjoint(targets):
                raise ValueError("controls and targets must be disjoint")
            raise ValueError("repeated qubit in gate")
        if any(p not in (0, 1) for _, p in controls):
            raise ValueError("control polarity must be 0 or 1")
        base = self.base
        if type(base) is not np.ndarray or base.dtype != complex:  # a complex array, X, H or SWAP too, is kept
            try:
                base = np.asarray(base, dtype=complex)
            except (TypeError, ValueError):
                raise ValueError(f"base must be a complex matrix, got {self.base!r}") from None
            object.__setattr__(self, "base", base)
        d = 2 ** len(targets)
        if base.shape != (d, d):
            raise ValueError("base dimension does not match targets")
        if not (base is X or base is H or base is SWAP) and not is_unitary(base):  # the named bases are unitary
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


@dataclass(frozen=True, eq=False)
class Circuit:
    n: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n", _size(self.n, "register size", 0))
        try:
            object.__setattr__(self, "gates", tuple(self.gates))
        except TypeError:
            raise ValueError(f"gates must be a sequence of Gate, got {self.gates!r}") from None
        # Gate holds distinct qubits numbered from 1, and a repeated Gate is checked once;
        # only a failing check walks the list for the first bad position
        try:
            top = max((max(g.qubits(), default=0) for g in set(self.gates)), default=0)
        except (AttributeError, TypeError):
            top = None  # an entry that is not a Gate
        if top is None or top > self.n:
            for i, g in enumerate(self.gates):
                if not isinstance(g, Gate):
                    raise ValueError(f"gate {i}: expected a Gate, got {g!r}")
                for q in g.qubits():
                    if q > self.n:
                        raise ValueError(f"gate {i}: qubit {q} out of range 1..{self.n}")

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
    n = _size(n, "n", 2)
    gates = [Gate(H, (1,))]
    gates += [Gate(X, (k,), ((1, 1),)) for k in range(2, n + 1)]
    return Circuit(n, tuple(gates))


def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def w_entangler(n: int) -> Circuit:
    """Cascade of controlled rotations and CNOTs mapping |0...0> to the W state."""
    n = _size(n, "n", 2)
    gates = [Gate(X, (1,))]
    for i in range(1, n):
        theta = 2 * np.arccos(np.sqrt(1.0 / (n - i + 1)))
        gates.append(Gate(_ry(theta), (i + 1,), ((i, 1),)))
        gates.append(Gate(X, (i,), ((i + 1, 1),)))
    return Circuit(n, tuple(gates))


# the target families that have an entangler circuit
ENTANGLER_KINDS = ("ghz", "w")


def select_entangler(kind: str, n: int) -> Circuit:
    """Entangler circuit of a witness target family: ghz or w."""
    kind = _option(kind, ENTANGLER_KINDS, "entangler kind")
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
    n = _size(n, "n", 2)
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
# square root of the base.  What repeats is smaller than a sub-network: the
# same square roots and the same leaf gates come back under other controls,
# so one expansion call makes each of them once (_Peel).
# ---------------------------------------------------------------------------


def _unitary_sqrt(u: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eig(u)
    return v @ np.diag(np.sqrt(w.astype(complex))) @ np.linalg.inv(v)


class _Peel:
    """The memo of one expansion call: per distinct base the square root and
    its dagger and whether it is self-inverse, per distinct (base, target,
    controls) the leaf Gate.

    A base is keyed by id(), never by its entries, so a named constant (X, H)
    and an OPAQUE array with the same bytes stay apart: the label comes from
    identity.  Each entry holds its base, so no id is reused while the memo
    lives, and the memo lives only as long as the call that made it."""

    def __init__(self):
        self.roots: dict[int, tuple] = {}
        self.involutions: dict[int, tuple] = {}
        self.leaves: dict[tuple, tuple] = {}

    def root(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hit = self.roots.get(id(u))
        if hit is None:
            v = _unitary_sqrt(u)
            hit = self.roots[id(u)] = (u, v, dagger(v))
        return hit[1], hit[2]

    def self_inverse(self, u: np.ndarray) -> bool:
        """u @ u = 1 on a 2x2 base, within ATOL_ALGEBRA."""
        hit = self.involutions.get(id(u))
        if hit is None:
            hit = self.involutions[id(u)] = (u, np.max(np.abs(u @ u - np.eye(2))) <= ATOL_ALGEBRA)
        return hit[1]

    def leaf(self, u: np.ndarray, target: int, controls: tuple) -> Gate:
        key = (id(u), target, controls)
        hit = self.leaves.get(key)
        if hit is None:
            hit = self.leaves[key] = (u, Gate(u, (target,), controls))
        return hit[1]


def _lambda(u: np.ndarray, controls: list[int], target: int, n: int, memo: _Peel) -> list[Gate]:
    """1/2-qubit gates for u on `target` controlled (all polarity 1) by `controls`.

    A sub-network that recurs within one level (the two control flips of a
    peel, the two passes of a one-borrow split, the rungs of the chain) is
    built once and its list reused; `memo` shares the rest across levels and
    gates, so the output may hold one frozen Gate object several times."""
    m = len(controls)
    if m <= 1:
        return [memo.leaf(u, target, tuple((q, 1) for q in controls))]
    if m > 2 and memo.self_inverse(u):
        used = set(controls) | {target}
        free = [q for q in range(1, n + 1) if q not in used]
        if len(free) >= m - 2:
            # borrowed-qubit chain: 4(m-2) two-controlled gates, dirty borrows
            # are restored and the double pass cancels their unknown values
            dirty = free[: m - 2]
            chain = [_lambda(u, [controls[-1], dirty[-1]], target, n, memo)]
            for i in range(m - 3, 0, -1):
                chain.append(_lambda(X, [controls[i + 1], dirty[i - 1]], dirty[i], n, memo))
            chain.append(_lambda(X, [controls[0], controls[1]], dirty[0], n, memo))
            ladder = chain[1:-1][::-1]
            return [g for rung in chain + ladder + [chain[0]] + chain[1:] + ladder for g in rung]
        if free:
            # one borrowed qubit: two half-sized gates, each applied twice
            borrow = free[0]
            m1 = (m + 1) // 2
            grp_a, grp_b = controls[:m1], controls[m1:]
            half = _lambda(u, grp_b + [borrow], target, n, memo) + _lambda(X, grp_a, borrow, n, memo)
            return half + half
    # two controls, no spare qubit, or a base that is not self-inverse: peel the last control
    v, v_dag = memo.root(u)
    head, last = controls[:-1], controls[-1]
    flip = _lambda(X, head, last, n, memo)
    return (
        [memo.leaf(v, target, ((last, 1),))]
        + flip
        + [memo.leaf(v_dag, target, ((last, 1),))]
        + flip
        + _lambda(v, head, target, n, memo)
    )


def expand_multicontrolled(c: Circuit) -> Circuit:
    """Replace every single-target gate with two or more controls by a
    network of one- and two-qubit gates; the unitary is preserved exactly.
    Each square root and each leaf Gate is made once per distinct input
    within the call."""
    memo = _Peel()
    out: list[Gate] = []
    for g in c.gates:
        if len(g.targets) != 1 or len(g.controls) < 2:
            out.append(g)
            continue
        sandwiches = [memo.leaf(X, q, ()) for q, pol in g.controls if pol == 0]
        out.extend(sandwiches)
        out.extend(_lambda(g.base, [q for q, _ in g.controls], g.targets[0], c.n, memo))
        out.extend(sandwiches)
    return Circuit(c.n, tuple(out))


def _rz(theta: float) -> np.ndarray:
    return np.diag([cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)])


# A, B, C of Barenco et al., PRA 52, 3457 (1995), Lemma 7.9 for the base -iH:
# ABC = 1 and A X B X C = -iH
_ABC_MINUS_IH = (_ry(np.pi / 4), _ry(-np.pi / 4) @ _rz(-np.pi / 2), _rz(np.pi / 2))


def sed_measurement_circuit(n: int) -> Circuit:
    """The measurement circuit of the noise sweep: the expanded V'_n^dag
    with its first gate, the full-width zero-controlled C(n-1)H, replaced by
    the relative-phase C(n-1)(-iH) when that gate has 3 or more controls.

    With no spare qubit, `expand_multicontrolled` peels C(n-1)H one control
    at a time, quadratic in n.  C(n-1)H = D C(n-1)(-iH) for the diagonal D
    that multiplies by i where the controls hold their polarities, and
    C(n-1)(-iH) takes linear size: under the X sandwiches of the zero
    controls, C, C(n-2)X, B, C(n-2)X, A in temporal order, with A, B and C
    controlled by qubit n-1 and each C(n-2)X on controls 1..n-2 and target n
    borrowing qubit n-1 dirty; one expansion call takes that head and the
    rest of V'_n^dag together.  Dropping D leaves V'_n^dag D^dag, a diagonal
    that acts first.  V'_n^dag maps the span where D is not 1 onto two basis
    states, so D commutes with each O_k = V'_n Z_k V'_n^dag: without noise
    the circuit reads V'_n^dag's z_k on every state, diagonal or not.  For
    n <= 3 it is the exact expansion, gate for gate.
    """
    circ = vprime_dagger_circuit(n)
    first, rest = circ.gates[0], circ.gates[1:]
    if len(first.controls) < 3:
        return expand_multicontrolled(circ)
    (target,), (*head, last) = first.targets, [q for q, _ in first.controls]
    a, b, c = (Gate(u, (target,), ((last, 1),)) for u in _ABC_MINUS_IH)
    flip = Gate(X, (target,), tuple((q, 1) for q in head))
    sandwiches = tuple(Gate(X, (q,)) for q, pol in first.controls if pol == 0)
    return expand_multicontrolled(Circuit(n, sandwiches + (c, flip, b, flip, a) + sandwiches + rest))


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
# Within one call each distinct base is formatted once (keyed by identity)
# and parsed once per entry text and dimension; no memo outlives the call.
# Qubit numbers and polarities are ASCII decimal digits, as the writer emits;
# entry tokens hold no "|" or "@", so a stray mark fails the grammar.
# ---------------------------------------------------------------------------

_HEADER = re.compile(r"qubits\s+([0-9]+)")
_CONTROL = re.compile(r"([0-9]+)\(([0-9]+)\)")
_GATE_LINE = re.compile(
    r"""(\S+)                                 # label
        ((?:\s+[0-9]+)*)                      # targets
        (?:\s+\|((?:\s+[0-9]+\([0-9]+\))+))?  # | controls q(pol)
        (?:\s+@(\s+[^|@]*[^\s|@]))?           # @ base entries, row-major
    """,
    re.VERBOSE,
)


def _gate_text(g: Gate, tails: dict) -> str:
    label = g.label
    parts = [label] + [str(t) for t in g.targets]
    if g.controls:
        parts.append("|")
        parts += [f"{q}({p})" for q, p in g.controls]
    if label == "OPAQUE":
        tail = tails.get(id(g.base))
        if tail is None:
            tail = tails[id(g.base)] = "@ " + " ".join(map(repr, g.base.ravel().tolist()))
        parts.append(tail)
    return " ".join(parts)


def circuit_to_text(c: Circuit) -> str:
    """The text of c; each distinct Gate object (Gate hashes by identity) is
    formatted once, and each distinct base object's `@ entries` tail once.
    The gates hold their bases for the call, so no id is reused."""
    tails: dict[int, str] = {}
    text = {g: _gate_text(g, tails) for g in set(c.gates)}
    return "\n".join([f"qubits {c.n}"] + [text[g] for g in c.gates]) + "\n"


def _gate_from_line(ln: str, n: int, bases: dict) -> Gate:
    """The Gate of one stripped line; `bases` maps (entry text, d) to the
    finite d x d base already parsed from that text in this call."""
    match = _GATE_LINE.fullmatch(ln)
    if not match:
        raise ValueError("expected 'LABEL targets... [| q(pol)...] [@ entries...]'")
    name, targets, controls, entries = match.groups()
    targets = [int(t) for t in targets.split()]
    controls = [(int(q), int(p)) for q, p in _CONTROL.findall(controls or "")]
    if entries:
        d = 2 ** len(targets)
        base = bases.get((entries, d))
        if base is None:
            tokens = entries.split()
            try:
                values = [complex(t) for t in tokens]
            except ValueError:
                # only a failing entry walks the tokens for the first bad one
                bad = next(t for t in tokens if not _is_complex(t))
                raise ValueError(f"entry {bad!r} is not a complex number") from None
            if not all(map(cmath.isfinite, values)):
                raise ValueError("base has non-finite entries")
            if len(values) != d * d:
                raise ValueError(f"base has {len(values)} entries, expected {d * d}")
            base = bases[entries, d] = np.array(values).reshape(d, d)
    elif name in _NAMED_BASE:
        base = _NAMED_BASE[name]
    else:
        raise ValueError(f"label {name!r} names no base")
    g = Gate(base, targets, controls)
    if g.label != name:
        raise ValueError(f"gate is labelled {g.label}, not {name}")
    for q in g.qubits():
        if q > n:
            raise ValueError(f"qubit {q} out of range 1..{n}")
    return g


def _is_complex(token: str) -> bool:
    try:
        complex(token)
    except ValueError:
        return False
    return True


def circuit_from_text(text: str) -> Circuit:
    """Parse the text format; the first malformed line raises ValueError naming its number.

    A line's label must be the one its gate serializes to, so `CNOT 1` (no
    control), `H 1 | 2(1)` (a CnH) or `X 1 @ ...` (an OPAQUE) are errors, and
    its qubits must lie in 1..N.  Each line is looked up by its raw text and
    stripped only when that text is new; each distinct stripped gate line is
    checked whole once per call, in file order, so lines that differ only in
    padding append the same Gate.  Lines whose entry text and dimension
    match share one base array, parsed once."""
    lines = text.splitlines()
    start = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if start is None:
        raise ValueError("missing 'qubits N' header")
    lineno, ln = start + 1, lines[start].strip()
    gates, raw_memo, stripped_memo, bases = [], {}, {}, {}
    try:
        match = _HEADER.fullmatch(ln)
        if not match:
            raise ValueError("expected 'qubits N'")
        n = int(match[1])
        for lineno, raw in enumerate(lines[start + 1 :], start + 2):
            g = raw_memo.get(raw)
            if g is None:
                ln = raw.strip()
                if not ln:
                    continue
                g = stripped_memo.get(ln)
                if g is None:
                    g = stripped_memo[ln] = _gate_from_line(ln, n, bases)
                raw_memo[raw] = g
            gates.append(g)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {ln!r}: {exc}") from exc
    return Circuit(n, tuple(gates))
