import numpy as np
import pytest

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
    gate_matrix,
    ghz_entangler,
    phase_insensitive_equal,
    select_entangler,
    vprime_dagger_circuit,
    w_entangler,
)
from sedwitness.sed import build_vprime
from sedwitness.states import make_ghz, make_w
from sedwitness.tensor import dagger, haar_unitary


def test_empty_circuit_is_identity():
    assert np.array_equal(circuit_unitary(Circuit(2, ())), np.eye(4))


def test_bell_circuit():
    c = Circuit(2, (Gate("H", (1,)), Gate("CNOT", (2,), ((1, 1),))))
    psi = circuit_unitary(c)[:, 0]
    assert np.max(np.abs(psi - make_ghz(2).amplitudes)) <= 1e-14


def test_unitary_is_compositional():
    rng = np.random.default_rng(4)
    c1 = Circuit(3, (Gate("H", (2,)), Gate("CNOT", (3,), ((2, 1),))))
    c2 = Circuit(3, (Gate("SWAP", (1, 3)), Gate("OPAQUE", (2,), (), haar_unitary(2, rng))))
    seq = c1.then(c2)
    u = circuit_unitary(c2) @ circuit_unitary(c1)
    assert np.max(np.abs(circuit_unitary(seq) - u)) <= 1e-12


def test_ghz_entangler_inventory_and_action():
    c = ghz_entangler(3)
    assert len(c.gates) == 3
    assert sum(g.kind == "H" for g in c.gates) == 1
    assert sum(g.kind == "CNOT" for g in c.gates) == 2
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
    for n in range(2, 7):
        got = circuit_unitary(vprime_dagger_circuit(n))
        want = dagger(build_vprime(n).vprime)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_vprime_dagger_circuit_inventory_n3():
    kinds = sorted(g.kind for g in vprime_dagger_circuit(3).gates)
    assert kinds == ["CnH", "H", "OPAQUE", "SWAP"]
    c2 = vprime_dagger_circuit(2)
    assert len(c2.gates) == 1 and c2.gates[0].kind == "OPAQUE"


def test_expand_leaves_plain_gates_alone():
    c = ghz_entangler(4)
    assert expand_multicontrolled(c).gates == c.gates


def test_expand_toffoli():
    for pol in ((1, 1), (0, 1), (0, 0)):
        g = Gate("CnNOT", (3,), ((1, pol[0]), (2, pol[1])))
        c = Circuit(3, (g,))
        ex = expand_multicontrolled(c)
        assert len(ex.gates) <= 15
        assert all(len(gate.qubits()) <= 2 for gate in ex.gates)
        assert np.max(np.abs(circuit_unitary(ex) - gate_matrix(g, 3))) <= 1e-10


def test_expand_wide_gates_match_unitary():
    for n in range(3, 7):
        for kind in ("CnNOT", "CnH"):
            g = Gate(kind, (n,), tuple((q, 0) for q in range(1, n)))
            c = Circuit(n, (g,))
            ex = expand_multicontrolled(c)
            assert all(len(gate.qubits()) <= 2 for gate in ex.gates)
            assert phase_insensitive_equal(circuit_unitary(ex), gate_matrix(g, n), 1e-10)


def test_expand_preserves_vprime_circuit():
    for n in range(2, 7):
        circ = vprime_dagger_circuit(n)
        ex = expand_multicontrolled(circ)
        assert phase_insensitive_equal(circuit_unitary(ex), circuit_unitary(circ), 1e-10)


def test_expanded_count_quadratic_per_gate():
    # a single full-width controlled gate expands to at most K n^2 pieces
    counts = []
    for n in range(3, 13):
        g = Gate("CnH", (n,), tuple((q, 0) for q in range(1, n)))
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
            Gate("H", (1,)),
            Gate("OPAQUE", (2, 3), (), haar_unitary(4, rng)),
            Gate("CnNOT", (1,), ((2, 0), (3, 1))),
        ),
    )
    u = circuit_unitary(c)
    ud = circuit_unitary(dagger_circuit(c))
    assert np.max(np.abs(ud - dagger(u))) <= 1e-12


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("H", (1, 2))
    with pytest.raises(ValueError):
        Gate("CNOT", (1,), ((1, 1),))  # control equals target
    with pytest.raises(ValueError):
        Gate("CnNOT", (1,), ())
    with pytest.raises(ValueError):
        Gate("OPAQUE", (1,), (), np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(ValueError):
        Gate("NOPE", (1,))
    with pytest.raises(ValueError):
        Circuit(2, (Gate("H", (3,)),))


def test_serialization_roundtrip():
    rng = np.random.default_rng(15)
    circ = Circuit(
        4,
        (
            Gate("H", (2,)),
            Gate("X", (4,)),
            Gate("SWAP", (1, 4)),
            Gate("CNOT", (2,), ((3, 1),)),
            Gate("CnH", (4,), ((1, 0), (2, 0), (3, 0))),
            Gate("CnNOT", (1,), ((2, 1), (3, 0))),
            Gate("OPAQUE", (2, 3), (), haar_unitary(4, rng)),
            Gate("OPAQUE", (4,), ((1, 1),), haar_unitary(2, rng)),
        ),
    )
    text = circuit_to_text(circ)
    back = circuit_from_text(text)
    assert back.n == circ.n
    assert len(back.gates) == len(circ.gates)
    for g1, g2 in zip(circ.gates, back.gates):
        assert g1.kind == g2.kind
        assert g1.targets == g2.targets
        assert g1.controls == g2.controls
        if g1.payload is None:
            assert g2.payload is None
        else:
            assert np.array_equal(g1.payload, g2.payload)  # bit-exact
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
    ],
)
def test_parse_errors_name_the_line(text, lineno, line):
    with pytest.raises(ValueError) as err:
        circuit_from_text(text)
    assert str(err.value).startswith(f"line {lineno}: {line!r}")
