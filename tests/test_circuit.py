import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import phase_insensitive_equal, vprime_recursion
from sedwitness.circuit import (
    Circuit,
    Gate,
    circuit_from_text,
    circuit_to_text,
    circuit_unitary,
    dagger_circuit,
    expand_multicontrolled,
    gate_count_G,
    gate_count_exponent,
    ghz_entangler,
    select_entangler,
    vprime_dagger_circuit,
    w_entangler,
)
from sedwitness.states import make_ghz, make_w
from sedwitness.tensor import SWAP, H, X, dagger, haar_unitary
from sedwitness.witness import select_witness

DATA = Path(__file__).with_name("data")


def test_empty_circuit_is_identity():
    assert np.array_equal(circuit_unitary(Circuit(2, ())), np.eye(4))


def test_bell_circuit():
    c = Circuit(2, (Gate(H, (1,)), Gate(X, (2,), ((1, 1),))))
    psi = circuit_unitary(c)[:, 0]
    assert np.max(np.abs(psi - make_ghz(2).amplitudes)) <= 1e-14


def test_unitary_is_compositional():
    rng = np.random.default_rng(4)
    c1 = Circuit(3, (Gate(H, (2,)), Gate(X, (3,), ((2, 1),))))
    c2 = Circuit(3, (Gate(SWAP, (1, 3)), Gate(haar_unitary(2, rng), (2,))))
    seq = c1.then(c2)
    u = circuit_unitary(c2) @ circuit_unitary(c1)
    assert np.max(np.abs(circuit_unitary(seq) - u)) <= 1e-12


def test_ghz_entangler_inventory_and_action():
    c = ghz_entangler(3)
    assert len(c.gates) == 3
    assert sum(g.label == "H" for g in c.gates) == 1
    assert sum(g.label == "CNOT" for g in c.gates) == 2
    psi = circuit_unitary(c)[:, 0]
    assert np.max(np.abs(psi - make_ghz(3).amplitudes)) <= 1e-12
    psi2 = circuit_unitary(ghz_entangler(2))[:, 0]
    assert np.max(np.abs(psi2 - make_ghz(2).amplitudes)) <= 1e-12


def test_w_entangler_action():
    for n in (2, 3, 5):
        u = circuit_unitary(w_entangler(n))
        assert np.max(np.abs(u @ dagger(u) - np.eye(2**n))) <= 1e-12
        overlap = abs(np.vdot(u[:, 0], make_w(n).amplitudes)) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("kind", ["ghz", "w"])
def test_entangler_prepares_the_witness_target(kind):
    # sweep and ancilla prepare the state with the circuit and read it with
    # the closed-form witness target, at every n the CLI accepts
    for n in range(2, 11):
        psi = circuit_unitary(select_entangler(kind, n))[:, 0]
        assert np.max(np.abs(psi - select_witness(kind, n).target.amplitudes)) <= 1e-12


def test_entangler_errors():
    with pytest.raises(ValueError):
        ghz_entangler(1)
    with pytest.raises(ValueError):
        w_entangler(1)
    with pytest.raises(ValueError):
        select_entangler("generic", 3)
    assert circuit_to_text(select_entangler("W", 4)) == circuit_to_text(w_entangler(4))
    assert circuit_to_text(select_entangler("ghz", 4)) == circuit_to_text(ghz_entangler(4))


def test_vprime_dagger_circuit_matches_matrices():
    for n in range(2, 9):
        got = circuit_unitary(vprime_dagger_circuit(n))
        want = dagger(vprime_recursion(n))
        assert np.max(np.abs(got - want)) <= 1e-12


def test_vprime_dagger_circuit_inventory_n3():
    labels = sorted(g.label for g in vprime_dagger_circuit(3).gates)
    assert labels == ["CnH", "H", "OPAQUE", "SWAP"]
    c2 = vprime_dagger_circuit(2)
    assert len(c2.gates) == 1 and c2.gates[0].label == "OPAQUE"


def test_expand_leaves_plain_gates_alone():
    c = ghz_entangler(4)
    assert expand_multicontrolled(c).gates == c.gates


def test_expand_toffoli():
    for pol in ((1, 1), (0, 1), (0, 0)):
        g = Gate(X, (3,), ((1, pol[0]), (2, pol[1])))
        c = Circuit(3, (g,))
        ex = expand_multicontrolled(c)
        assert len(ex.gates) <= 15
        assert all(len(gate.qubits()) <= 2 for gate in ex.gates)
        assert np.max(np.abs(circuit_unitary(ex) - circuit_unitary(c))) <= 1e-10


def test_expand_wide_gates_match_unitary():
    for n in range(3, 7):
        for base in (X, H):
            g = Gate(base, (n,), tuple((q, 0) for q in range(1, n)))
            c = Circuit(n, (g,))
            ex = expand_multicontrolled(c)
            assert all(len(gate.qubits()) <= 2 for gate in ex.gates)
            assert phase_insensitive_equal(circuit_unitary(ex), circuit_unitary(c), 1e-10)


def test_expand_preserves_vprime_circuit():
    for n in range(2, 7):
        circ = vprime_dagger_circuit(n)
        ex = expand_multicontrolled(circ)
        assert phase_insensitive_equal(circuit_unitary(ex), circuit_unitary(circ), 1e-10)


def test_expanded_count_quadratic_per_gate():
    # a single full-width controlled gate expands to at most K n^2 pieces
    counts = []
    for n in range(3, 13):
        g = Gate(H, (n,), tuple((q, 0) for q in range(1, n)))
        ex = expand_multicontrolled(Circuit(n, (g,)))
        counts.append(len(ex.gates))
    assert all(c <= 40 * (n**2) for n, c in zip(range(3, 13), counts))


def test_gate_count_values_and_growth():
    assert gate_count_G(2) == 1
    counts = [gate_count_G(n) for n in range(2, 13)]
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_gate_count_exponent_helper():
    ns = [4, 6, 8, 12]
    cubic = [7 * n**3 for n in ns]
    assert gate_count_exponent(ns, cubic) == pytest.approx(3.0, abs=1e-9)


def test_dagger_circuit():
    rng = np.random.default_rng(8)
    c = Circuit(
        3,
        (
            Gate(H, (1,)),
            Gate(haar_unitary(4, rng), (2, 3)),
            Gate(X, (1,), ((2, 0), (3, 1))),
        ),
    )
    u = circuit_unitary(c)
    ud = circuit_unitary(dagger_circuit(c))
    assert np.max(np.abs(ud - dagger(u))) <= 1e-12


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(H, (1, 2))  # base dimension does not match the targets
    with pytest.raises(ValueError):
        Gate(X, (1,), ((1, 1),))  # control equals target
    with pytest.raises(ValueError):
        Gate(X, (1,), ((2, 2),))  # polarity is a bit
    with pytest.raises(ValueError):
        Gate(np.array([[1, 1], [0, 1]], dtype=complex), (1,))
    with pytest.raises(ValueError):
        Circuit(2, (Gate(H, (3,)),))
    with pytest.raises(ValueError):
        Gate(X, (0,))  # qubits are numbered from 1
    with pytest.raises(ValueError):
        Gate(X, (1,), ((-1, 1),))


def test_serialization_roundtrip():
    rng = np.random.default_rng(15)
    circ = Circuit(
        4,
        (
            Gate(H, (2,)),
            Gate(X, (4,)),
            Gate(SWAP, (1, 4)),
            Gate(X, (2,), ((3, 1),)),
            Gate(H, (4,), ((1, 0), (2, 0), (3, 0))),
            Gate(X, (1,), ((2, 1), (3, 0))),
            Gate(haar_unitary(4, rng), (2, 3)),
            Gate(haar_unitary(2, rng), (4,), ((1, 1),)),
        ),
    )
    text = circuit_to_text(circ)
    back = circuit_from_text(text)
    assert back.n == circ.n
    assert len(back.gates) == len(circ.gates)
    for g1, g2 in zip(circ.gates, back.gates):
        assert g1.label == g2.label
        assert g1.targets == g2.targets
        assert g1.controls == g2.controls
        assert np.array_equal(g1.base, g2.base)  # bit-exact
    # and the text itself is stable
    assert circuit_to_text(back) == text


def test_serialization_errors():
    with pytest.raises(ValueError):
        circuit_from_text("H 1\n")


@pytest.mark.parametrize(
    "text, lineno, line",
    [
        ("qubits", 1, "qubits"),
        ("qubits x", 1, "qubits x"),
        ("qubits 3\nH 1 | 2(", 2, "H 1 | 2("),
        ("qubits 3\nH x", 2, "H x"),
        ("qubits 3\n\nOPAQUE 1 @ 1 0 0", 3, "OPAQUE 1 @ 1 0 0"),
        ("qubits 3\nH 1\n  NOPE 2", 3, "NOPE 2"),
        ("qubits 2\nH 3", 2, "H 3"),
        ("qubits 2\n\nH 1\nCNOT 1 | 3(1)", 4, "CNOT 1 | 3(1)"),
        ("qubits 3\nCnNOT 1", 2, "CnNOT 1"),
        ("qubits 3\nCNOT 1", 2, "CNOT 1"),
        ("qubits 3\nH 1 | 2(1)", 2, "H 1 | 2(1)"),
        ("qubits 3\nSWAP 1 2 | 3(1)", 2, "SWAP 1 2 | 3(1)"),
        ("qubits 3\nX 1 @ 0 1 1 0", 2, "X 1 @ 0 1 1 0"),
        ("qubits 3\nOPAQUE 1", 2, "OPAQUE 1"),
        ("qubits 3\nOPAQUE 1 @ 1 0 0 1 | 2(1)", 2, "OPAQUE 1 @ 1 0 0 1 | 2(1)"),
        ("qubits 3\nCnNOT 1 | 2(1) | 3(1)", 2, "CnNOT 1 | 2(1) | 3(1)"),
        ("qubits 3\nCNOT 1 | 2(1) @", 2, "CNOT 1 | 2(1) @"),
        ("qubits 3\nCNOT 1 | 2(1x", 2, "CNOT 1 | 2(1x"),
        ("qubits 12\nX 1_0", 2, "X 1_0"),
        ("qubits 3\nX +1", 2, "X +1"),
        ("qubits 3\nCNOT 1 | 2(+1)", 2, "CNOT 1 | 2(+1)"),
        ("qubits 3\nX \u0661", 2, "X \u0661"),
        ("qubits \u0661\u0662\nX 1", 1, "qubits \u0661\u0662"),
        ("qubits 1\nOPAQUE 1 @ nan 0 0 1", 2, "OPAQUE 1 @ nan 0 0 1"),
        ("qubits 1\nOPAQUE 1 @ inf 0 0 1", 2, "OPAQUE 1 @ inf 0 0 1"),
        ("qubits 1\nOPAQUE 1 @ 1e999 0 0 1", 2, "OPAQUE 1 @ 1e999 0 0 1"),
        ("qubits 3\nH 1 2(1)", 2, "H 1 2(1)"),
        ("qubits 3\n| 1(1)", 2, "| 1(1)"),
        ("qubits 3\nOPAQUE 1 @ 1 @ 0 0 1", 2, "OPAQUE 1 @ 1 @ 0 0 1"),
        ("qubits 3\nX 1 @", 2, "X 1 @"),
        ("qubits 3 4\nH 1", 1, "qubits 3 4"),
        ("\n\nH 1\nqubits 2\n", 3, "H 1"),
        pytest.param("qubits " + "1" * 5000, 1, "qubits " + "1" * 5000, id="qubits-5000-digits"),
    ],
)
def test_parse_errors_name_the_line(text, lineno, line):
    with pytest.raises(ValueError) as err:
        circuit_from_text(text)
    assert str(err.value).startswith(f"line {lineno}: {line!r}")


@pytest.mark.parametrize("text", ["", " \n\t\n"])
def test_parse_empty_text_misses_header(text):
    with pytest.raises(ValueError, match="^missing 'qubits N' header$"):
        circuit_from_text(text)


def test_parse_controlled_phase_without_target():
    (g,) = circuit_from_text("qubits 2\nOPAQUE | 1(1) @ 1j\n").gates
    assert (g.targets, g.controls, g.base.tolist()) == ((), ((1, 1),), [[1j]])


def test_parse_accepts_any_whitespace_between_tokens():
    (spaced,) = circuit_from_text("qubits 2\nCNOT\t1  |  2(1)\n").gates
    (plain,) = circuit_from_text("qubits 2\nCNOT 1 | 2(1)\n").gates
    assert spaced.base is plain.base is X
    assert (spaced.targets, spaced.controls) == (plain.targets, plain.controls) == ((1,), ((2, 1),))


@pytest.mark.parametrize(
    "name, circ",
    [
        ("circuit_vprime_dagger_expanded_n5.txt", expand_multicontrolled(vprime_dagger_circuit(5))),
        ("circuit_w_entangler_n4.txt", w_entangler(4)),
        ("circuit_ghz_entangler_n4.txt", ghz_entangler(4)),
    ],
)
def test_circuit_text_matches_golden(name, circ):
    assert circuit_to_text(circ) == (DATA / name).read_text()


# sha256 of circuit_to_text(expand_multicontrolled(vprime_dagger_circuit(n))), n = 2..12
EXPANDED_VPRIME_SHA256 = {
    2: "ed98cf25130f720d22b75b07bd15b8089c394333207394def10154aa279de94d",
    3: "572134384218b27769576282412858b548105acd70e9cacea390f8ce70858b85",
    4: "c4e7d5b3eb3bce127e52f1ba18f879eddd40c64002313bb404654626064e25d4",
    5: "7127051fa1ddd60138c5f13b81917c5d26c545637865e6f97868a7430a43d48c",
    6: "e914470bd66c69332669cc23be1dec229582a6af106b00f1a389d1b32778ab8c",
    7: "7ae4bcf2ae7ca5dfdbcbf5df01961b4eca407e12db252de1f3fd578b4212f109",
    8: "34a291b247f7512184ec24ab4ef48b6d7d26ad5cb1a4915b0ea9d08cb509c6fe",
    9: "6d70dd0fbe28a5d481b6bc8a0fa1ceff40abc9e605dc9ff13a6ea7f54186625a",
    10: "4dddbc5fd46784f298403d8871c2bd8a1779cd186f1e654a91589fb7d5265ae2",
    11: "039e0b2b681019e4ad67acfdda35715d2d52bdea6e496da4cd8e57f4096390bf",
    12: "3c7b790c7e912e9f98bfb765869095630d892b624b0c3cf1e47caf6eceb88c7c",
}


@pytest.mark.parametrize("n", sorted(EXPANDED_VPRIME_SHA256))
def test_expanded_vprime_text_is_pinned(n):
    text = circuit_to_text(expand_multicontrolled(vprime_dagger_circuit(n)))
    assert hashlib.sha256(text.encode()).hexdigest() == EXPANDED_VPRIME_SHA256[n]


LABELS = ("X", "CNOT", "CnNOT", "H", "CnH", "SWAP", "OPAQUE")


@st.composite
def labelled_gates(draw, n):
    """A gate that serializes to the drawn label, on distinct qubits of n >= 3."""
    label = draw(st.sampled_from(LABELS))
    n_targets = {"SWAP": 2, "OPAQUE": draw(st.integers(1, 2))}.get(label, 1)
    n_controls = {
        "CNOT": 1,
        "CnNOT": draw(st.integers(2, n - 1)),
        "CnH": draw(st.integers(1, n - 1)),
        "OPAQUE": draw(st.integers(0, n - n_targets)),
    }.get(label, 0)
    qubits = draw(st.permutations(range(1, n + 1)))[: n_targets + n_controls]
    controls = tuple((q, draw(st.integers(0, 1))) for q in qubits[n_targets:])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = {"X": X, "CNOT": X, "CnNOT": X, "H": H, "CnH": H, "SWAP": SWAP}.get(label)
    if base is None:
        base = haar_unitary(2**n_targets, rng)
    g = Gate(base, tuple(qubits[:n_targets]), controls)
    assert g.label == label
    return g


@given(st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(labelled_gates(n), min_size=1, max_size=8))))
def test_text_round_trip_of_random_gates(case):
    n, gates = case
    text = circuit_to_text(Circuit(n, tuple(gates)))
    back = circuit_from_text(text)
    assert circuit_to_text(back) == text
    assert len(back.gates) == len(gates)
    for g1, g2 in zip(gates, back.gates):
        assert (g2.label, g2.targets, g2.controls) == (g1.label, g1.targets, g1.controls)
        assert np.array_equal(g1.base, g2.base)  # bit-exact
        assert (g2.base is g1.base) == (g1.label != "OPAQUE")  # names give the shared constants


QUBITS, CONTROLS = ("1", "2", "3", "4", "0", "\u0661"), ("1(1)", "2(0)", "3(1)", "1(2)", "1(", "+1")
ENTRIES = ("0", "1", "0j", "1j", "-1j", "(1+0j)", "(-0-1j)", "0.7071067811865476", "nan", "inf", "1e999")
TOKENS = LABELS + ("NOPE", "|", "@") + QUBITS + CONTROLS + ENTRIES


@st.composite
def token_lines(draw):
    """The text line of a random gate on 3 qubits, up to two of whose tokens
    are inserted, replaced or deleted from the alphabet, in mixed whitespace."""
    toks = circuit_to_text(Circuit(3, (draw(labelled_gates(3)),))).splitlines()[1].split()
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(toks)))
        toks[i : i + draw(st.integers(0, 1))] = draw(st.lists(st.sampled_from(TOKENS), max_size=1))
    seps = draw(st.lists(st.sampled_from([" ", "\t", "  ", " \t "]), min_size=len(toks), max_size=len(toks)))
    return "".join(tok + sep for tok, sep in zip(toks, seps)).strip()


@settings(max_examples=100)
@given(token_lines())
def test_any_token_line_parses_or_names_its_line(line):
    # a line either round-trips through the writer or fails with its own number and text
    try:
        circ = circuit_from_text(f"qubits 3\n{line}\n")
    except ValueError as exc:
        assert str(exc).startswith(f"line 2: {line!r}")
        return
    text = circuit_to_text(circ)
    assert circuit_to_text(circuit_from_text(text)) == text


def act(gates, psi, n):
    """Gates applied to a state vector: each base acts on its target axes of
    the slice where the controls hold their polarities."""
    t = psi.reshape((2,) * n).copy()
    for g in gates:
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


@st.composite
def controlled_gates(draw):
    """A single-target X, H or Haar-random gate with 1..n-1 controls, n <= 8."""
    n = draw(st.integers(3, 8))
    qubits = draw(st.permutations(range(1, n + 1)))
    m = draw(st.integers(1, n - 1))
    controls = tuple((q, draw(st.integers(0, 1))) for q in qubits[1 : m + 1])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.sampled_from([X, H, None]))
    return n, Gate(haar_unitary(2, rng) if base is None else base, (qubits[0],), controls), rng


@given(controlled_gates())
def test_expansion_acts_like_the_gate(case):
    n, g, rng = case
    ex = expand_multicontrolled(Circuit(n, (g,)))
    assert all(len(gate.qubits()) <= 2 for gate in ex.gates)
    for _ in range(2):
        psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        psi /= np.linalg.norm(psi)
        got, want = act(ex.gates, psi, n), act([g], psi, n)
        phase = np.vdot(want, got) / abs(np.vdot(want, got))
        assert np.max(np.abs(got - phase * want)) <= 1e-10
