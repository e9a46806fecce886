import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import apply_circuit, phase_insensitive_equal, random_density_matrix, vprime_recursion
from sedwitness import circuit
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
    sed_measurement_circuit,
    select_entangler,
    vprime_dagger_circuit,
    w_entangler,
)
from sedwitness.ancilla import AncillaConfig
from sedwitness.sed import SedDecomposition
from sedwitness.states import basis_state, make_ghz, make_w
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
    # ancilla prepares the state with the circuit and reads it with the
    # closed-form witness target, at every n the CLI accepts; sweep walks
    # its projector through the circuit and forms no closed-form target
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


@pytest.mark.parametrize("kind", [None, ["ghz"], 3, b"ghz"], ids=["none", "list", "int", "bytes"])
def test_entangler_kind_that_is_not_a_string_is_named(kind):
    with pytest.raises(ValueError, match=re.escape(f"unknown entangler kind {kind!r}")):
        select_entangler(kind, 3)


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
    with pytest.raises(ValueError, match="^base is not unitary$"):
        Gate(np.full((4, 4), np.inf), (1, 2))  # no numpy warning on the way
    # qubits and polarities are integers, numpy's too; a float, a string or a bool is refused
    for targets, controls in [
        ((1.7,), ()),
        (("2",), ()),
        ((1,), ((2.0, 1),)),
        ((1,), ((2, "1"),)),
        ((True,), ()),
        ((1,), ((False, 1),)),
        ((1,), ((2, True),)),
    ]:
        with pytest.raises(ValueError, match="is not an integer$"):
            Gate(X, targets, controls)
    g = Gate(X, (np.int64(1),), ((np.int32(2), np.uint8(1)),))
    assert (g.targets, g.controls) == ((1,), ((2, 1),))
    assert all(type(q) is int for q in g.qubits() + [g.controls[0][1]])
    u = np.array([[0, 1j], [1j, 0]])
    assert Gate(u, (1,)).base is u  # a complex array is kept as it is
    # the register size is a non-negative integer
    assert Circuit(0).n == 0
    for n in (-1, 2.0, "2", None):
        with pytest.raises(ValueError, match="^register size "):
            Circuit(n)


_SIZED = [make_ghz, make_w, basis_state, ghz_entangler, w_entangler, vprime_dagger_circuit, gate_count_G, sed_measurement_circuit]


@pytest.mark.parametrize(
    "build, bad, message",
    [(f, n, f"n {n!r} is not an integer") for f in _SIZED for n in (2.5, "3", None, True)]
    + [(lambda n: AncillaConfig(p=0.9, n=n), n, f"register size {n!r} is not an integer") for n in (2.5, "3", None, True)]
    + [(Circuit, True, "register size True is not an integer")]
    + [(lambda p: AncillaConfig(p=p, n=3), p, f"p {p!r} is not a real number") for p in ("0.9", None, True)],
)
def test_register_sizes_are_integers(build, bad, message):
    # a register size is read as an integer and p as a real number, so a bad
    # one, a bool included, is a ValueError that names it, never a TypeError
    # from deeper in
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(bad)
    with pytest.raises(ValueError, match=r"^gate 1: qubit 3 out of range 1\.\.2$"):
        Circuit(2, (Gate(X, (1,)), Gate(X, (3,))))


@pytest.mark.parametrize(
    "build, what, least",
    [
        (make_ghz, "n", 2),
        (make_w, "n", 2),
        (basis_state, "n", 0),
        (ghz_entangler, "n", 2),
        (w_entangler, "n", 2),
        (vprime_dagger_circuit, "n", 2),
        (SedDecomposition, "SED decomposition n", 2),
        (lambda n: AncillaConfig(p=0.9, n=n), "register size", 1),
        (Circuit, "register size", 0),
    ],
    ids=["make_ghz", "make_w", "basis_state", "ghz_entangler", "w_entangler", "vprime_dagger_circuit", "SedDecomposition", "AncillaConfig", "Circuit"],
)
def test_register_size_below_its_bound_is_named(build, what, least):
    # one rule for every minimum register size: the message names the input and the bound
    with pytest.raises(ValueError, match=f"^{re.escape(what)} {least - 1} is less than {least}$"):
        build(least - 1)
    build(least)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Gate(X, (1,), (2,)), r"^controls must be \(qubit, polarity\) pairs, got \(2,\)$"),
        (lambda: Gate(X, (1,), ((2, 1, 0),)), r"^controls must be \(qubit, polarity\) pairs, got \(\(2, 1, 0\),\)$"),
        (lambda: Gate(X, (1,), 2), r"^controls must be \(qubit, polarity\) pairs, got 2$"),
        (lambda: Gate(X, 1), r"^targets must be a sequence of qubits, got 1$"),
        (lambda: Gate("ab", (1,)), r"^base must be a complex matrix, got 'ab'$"),
        (lambda: Circuit(2, [1, 2]), r"^gate 0: expected a Gate, got 1$"),
        (lambda: Circuit(2, [Gate(X, (1,)), [1]]), r"^gate 1: expected a Gate, got \[1\]$"),
        (lambda: Circuit(2, 5), r"^gates must be a sequence of Gate, got 5$"),
    ],
)
def test_malformed_fields_are_named(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Gate(X, (0,), ((0, 1),)), "qubits are numbered from 1"),  # below 1 and overlapping
        (lambda: Gate(X, (2,), ((2, 1), (3, 1), (3, 0))), "controls and targets must be disjoint"),  # and repeated
        (lambda: Gate(X, (1,), ((2, 1), (2, 2))), "repeated qubit in gate"),  # and a bad polarity
        (lambda: Gate(H, (1, 2), ((3, 2),)), "control polarity must be 0 or 1"),  # and a base of the wrong shape
        (lambda: Gate(np.ones((4, 4)), (1,)), "base dimension does not match targets"),  # and not unitary
        (lambda: Gate(X, (1.5,), ((0, 1),)), "qubit 1.5 is not an integer"),  # and below 1
        (lambda: Gate(X, (1,), ((2, 1), ("3", 2))), "qubit '3' is not an integer"),  # and a bad polarity
    ],
    ids=["below-1", "overlapping", "repeated", "polarity", "shape", "not-integer", "not-integer-control"],
)
def test_gate_reports_the_first_of_two_faults(make, message):
    # every gate here has two faults; the first check in Gate's order names it
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


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


HUGE_4X4 = "OPAQUE 1 2 @ 1e200 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1"  # m m^dag overflows
INF_4X4 = "OPAQUE 1 2 @ " + " ".join(["inf"] * 16)


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
        ("qubits 2\nH 1\nH 3\nH 3", 3, "H 3"),
        ("qubits 2\nH 3\nfoo bar", 2, "H 3"),
        ("qubits 2\nH 3\nX 1 @ 0 1 1 0", 2, "H 3"),
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
        (f"qubits 2\n{HUGE_4X4}", 2, HUGE_4X4),
        (f"qubits 2\n{INF_4X4}", 2, INF_4X4),
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


@pytest.mark.parametrize("line, qubits", [("OPAQUE | 1(1) @ 1j", [1]), ("OPAQUE @ 1j", [])])
def test_parse_doubled_zero_target_line(line, qubits):
    # a zero-qubit gate passes the range check, and its repeat is the same Gate
    g, h = circuit_from_text(f"qubits 2\n{line}\n{line}\n").gates
    assert g is h and g.qubits() == qubits and g.base.tolist() == [[1j]]


def test_parse_accepts_any_whitespace_between_tokens():
    (spaced,) = circuit_from_text("qubits 2\nCNOT\t1  |  2(1)\n").gates
    (plain,) = circuit_from_text("qubits 2\nCNOT 1 | 2(1)\n").gates
    assert spaced.base is plain.base is X
    assert (spaced.targets, spaced.controls) == (plain.targets, plain.controls) == ((1,), ((2, 1),))


def test_parse_shares_one_gate_across_padding():
    # the raw-line memo and the stripped-line memo give one Gate for one stripped line
    gates = circuit_from_text("qubits 2\nX 1\n\n  X 1  \n\nX 1\r\n\n\tX 1\t\n").gates
    assert len(gates) == 4 and all(g is gates[0] for g in gates)
    assert (gates[0].base, gates[0].targets) == (X, (1,))


@pytest.mark.parametrize("bad", ["H 3", "  H 3\t"])
def test_parse_names_a_bad_line_after_memo_hits(bad):
    text = "qubits 2\n" + "X 1\n  X 1\n\n" * 600 + f"{bad}\nX 1\n"
    with pytest.raises(ValueError, match=r"^line 1802: 'H 3': qubit 3 out of range 1\.\.2$"):
        circuit_from_text(text)


@pytest.mark.parametrize(
    "line, message",
    [
        ("OPAQUE 1 @ 1 0 0", "base has 3 entries, expected 4"),
        ("OPAQUE 1 2 @ 1 0 0 1", "base has 4 entries, expected 16"),
        ("OPAQUE 1 @ 1 0 0 x", "entry 'x' is not a complex number"),
        ("OPAQUE 1 @ 1 0j 1+ 1 0", "entry '1+' is not a complex number"),
    ],
)
def test_parse_names_a_malformed_opaque_base(line, message):
    with pytest.raises(ValueError, match=f"^{re.escape(f'line 2: {line!r}: {message}')}$"):
        circuit_from_text(f"qubits 2\n{line}\n")


def test_parse_base_memo_keys_the_dimension():
    # the entry text of a valid 2x2 base, reused on two targets, is still too short
    text = "qubits 2\nOPAQUE 1 @ 1 0 0 1\nOPAQUE 1 2 @ 1 0 0 1\n"
    with pytest.raises(ValueError, match=r"^line 3: 'OPAQUE 1 2 @ 1 0 0 1': base has 4 entries, expected 16$"):
        circuit_from_text(text)


def test_parse_shares_one_base_per_entry_text():
    # at n = 12 the 139 distinct OPAQUE lines of the expansion carry 23 distinct entry texts
    text = circuit_to_text(expand_multicontrolled(vprime_dagger_circuit(12)))
    opaque = {g for g in circuit_from_text(text).gates if g.label == "OPAQUE"}
    assert len(opaque) == 139
    assert len({id(g.base) for g in opaque}) == 23


def test_text_formats_a_shared_base_as_each_gate_alone():
    # one base object shared by several gates, and two distinct objects with equal entries
    shared = np.array([[0, 1], [1j, 0]], dtype=complex)
    equal = circuit._ry(0.3)
    gates = (
        Gate(shared, (1,)),
        Gate(shared, (2,), ((1, 0),)),
        Gate(equal, (3,)),
        Gate(shared, (3,), ((1, 1), (2, 0))),
        Gate(equal.copy(), (1,), ((3, 1),)),
        Gate(X, (2,)),
    )
    alone = [circuit_to_text(Circuit(3, (g,))).splitlines()[1] for g in gates]
    assert circuit_to_text(Circuit(3, gates)).splitlines()[1:] == alone


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
    # the round trip hits the same digest, and a repeated line is one shared Gate
    parsed = circuit_from_text(text)
    assert hashlib.sha256(circuit_to_text(parsed).encode()).hexdigest() == EXPANDED_VPRIME_SHA256[n]
    assert len(set(parsed.gates)) <= len(set(text.splitlines()[1:]))


# sha256 of circuit_to_text(sed_measurement_circuit(n)), n = 4..12; for n = 2, 3
# the text is the exact expansion's
SED_CIRCUIT_SHA256 = {
    4: "1ee87aae4e1334e570d6d624aad71c11a53915ddfe75456c753a8d86197884b8",
    5: "135e5a066dea0f7f4bf0e0883f0c9d2274d09cd3a30d2070fa6e92b6c3bd64c3",
    6: "2b960be1bc197ebb9fc36c15f55ef172931ae0f84c7cf085182a91c2a0f6a763",
    7: "d364a655d1d1cee5747ae731a740de09c77f3ba2209752255c11a00e292ee22c",
    8: "92ab2d9a3de152f7018784791d353bf10c10650a7485779615c75a8928ed0564",
    9: "ed76bf2ae6afcfbecf035be9a065756cc87a3bc69a7de1fc5625764d9bc29b13",
    10: "65b81b06c91d0eed7071862fc6951d988f6a9f4c36616dd780524e47b7f30110",
    11: "fb80ab2a5b0bdb856630a060059197ae030daead3d89187e088a651728f94089",
    12: "9457c7b643b2a1abc8f10385b656ed16581d2a393de91432e4c48af116d3b8cc",
}


@pytest.mark.parametrize("n", sorted(SED_CIRCUIT_SHA256))
def test_sed_measurement_circuit_text_is_pinned(n):
    text = circuit_to_text(sed_measurement_circuit(n))
    assert hashlib.sha256(text.encode()).hexdigest() == SED_CIRCUIT_SHA256[n]
    # the round trip, through the Barenco A/B/C bases too, hits the same digest
    parsed = circuit_from_text(text)
    assert hashlib.sha256(circuit_to_text(parsed).encode()).hexdigest() == SED_CIRCUIT_SHA256[n]


def test_expansion_makes_each_root_and_leaf_once_per_call(monkeypatch):
    calls = []
    sqrt = circuit._unitary_sqrt
    monkeypatch.setattr(circuit, "_unitary_sqrt", lambda u: calls.append(u) or sqrt(u))
    c = vprime_dagger_circuit(12)
    # the chain H, H^(1/2), ..., H^(1/512) and the root of X: 11 distinct inputs
    out = expand_multicontrolled(c)
    assert len(calls) == 11
    assert len(set(out.gates)) <= 270
    # a second call starts from an empty memo: nothing outlives the call
    expand_multicontrolled(c)
    assert len(calls) == 22


def test_expansion_text_is_the_per_gate_expansions_joined():
    # one call over all gates reads as the expansions of each gate on its own,
    # and a named X never meets an OPAQUE array with the same entries
    n = 8
    gates = vprime_dagger_circuit(n).gates + (
        Gate(X, (n,), tuple((q, 1) for q in range(1, n))),
        Gate(X.copy(), (n,), tuple((q, 1) for q in range(1, n))),
        Gate(H.copy(), (1,), ((2, 0), (3, 1))),
    )
    whole = circuit_to_text(expand_multicontrolled(Circuit(n, gates)))
    alone = [circuit_to_text(expand_multicontrolled(Circuit(n, (g,)))).split("\n", 1)[1] for g in gates]
    assert whole == f"qubits {n}\n" + "".join(alone)


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
    # a circuit that repeats the drawn Gate objects: equal lines parse to one object
    repeated = Circuit(n, tuple(gates) + tuple(reversed(gates)) + tuple(gates))
    text = circuit_to_text(repeated)
    back = circuit_from_text(text)
    assert circuit_to_text(back) == text
    first = {}
    for ln, g in zip(text.splitlines()[1:], back.gates):
        assert first.setdefault(ln, g) is g


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
    # a line either round-trips through the writer or fails with its own number and text;
    # written twice, it parses to one shared Gate or fails with the same message;
    # after an out-of-range line, the earlier line is the one named
    with pytest.raises(ValueError) as err:
        circuit_from_text(f"qubits 2\nH 3\n{line}\n")
    assert str(err.value) == "line 2: 'H 3': qubit 3 out of range 1..2"
    doubled = f"qubits 3\n{line}\n{line}\n"
    try:
        circ = circuit_from_text(f"qubits 3\n{line}\n")
    except ValueError as exc:
        assert str(exc).startswith(f"line 2: {line!r}")
        with pytest.raises(ValueError) as err:
            circuit_from_text(doubled)
        assert str(err.value) == str(exc)
        return
    text = circuit_to_text(circ)
    assert circuit_to_text(circuit_from_text(text)) == text
    gates = circuit_from_text(doubled).gates  # a blank line holds no gate
    assert len(gates) == 2 * len(circ.gates) and len(set(gates)) == len(circ.gates)


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
        got, want = apply_circuit(ex, psi), apply_circuit(Circuit(n, (g,)), psi)
        phase = np.vdot(want, got) / abs(np.vdot(want, got))
        assert np.max(np.abs(got - phase * want)) <= 1e-10


@given(st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(labelled_gates(n), min_size=1, max_size=8))))
def test_apply_circuit_matches_unitary(case):
    # the gate-by-gate vector oracle agrees with the unitary where that is small
    n, gates = case
    c = Circuit(n, tuple(gates))
    rng = np.random.default_rng(n)
    psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    assert np.max(np.abs(apply_circuit(c, psi) - circuit_unitary(c) @ psi)) <= 1e-12


@pytest.mark.parametrize("n", [10, 12])
def test_expanded_vprime_acts_like_the_circuit_at_scale(n):
    # at the sizes the CLI allows, without forming a 4^n unitary
    circ = vprime_dagger_circuit(n)
    ex = expand_multicontrolled(circ)
    rng = np.random.default_rng(n)
    for _ in range(2):
        psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        psi /= np.linalg.norm(psi)
        assert np.max(np.abs(apply_circuit(ex, psi) - apply_circuit(circ, psi))) <= 1e-12


def _first_diagonal(n):
    """D^dag of sed_measurement_circuit(n) = V'_n^dag D^dag: -i on the basis
    states whose qubits 1..n-1 are all 0 (the first two, qubit 1 leading),
    1 elsewhere; all 1 for n <= 3, where the circuit is the exact expansion."""
    d = np.ones(2**n, dtype=complex)
    if n >= 4:
        d[:2] = -1j
    return d


@pytest.mark.parametrize("n", range(3, 9))
def test_sed_measurement_circuit_is_vprime_dagger_after_a_diagonal(n):
    exact = circuit_unitary(expand_multicontrolled(vprime_dagger_circuit(n)))
    got = circuit_unitary(sed_measurement_circuit(n))
    assert np.max(np.abs(dagger(exact) @ got - np.diag(_first_diagonal(n)))) <= 1e-12


@pytest.mark.parametrize("n", range(2, 8))
def test_sed_measurement_circuit_reads_every_state_as_vprime_dagger(n):
    # D is a phase on the states whose qubits 1..n-1 hold their control
    # polarities, and V'^dag maps that subspace onto two basis states, so D
    # commutes with V' P V'^dag for every diagonal P: with each
    # O_k = V' Z_k V'^dag, and with each output population.  So without
    # noise both circuits read the same z_k on any state, not only on a
    # diagonal one, though their outputs differ off the diagonal
    exact = circuit_unitary(expand_multicontrolled(vprime_dagger_circuit(n)))
    got = circuit_unitary(sed_measurement_circuit(n))
    signs = 1 - 2 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)  # Z of each qubit on each basis state
    rng = np.random.default_rng(n + 3)
    for _ in range(3):
        rho = random_density_matrix(2**n, rng)
        outs = [u @ rho @ dagger(u) for u in (exact, got)]
        populations = [np.diagonal(out).real for out in outs]
        assert np.max(np.abs(populations[0] @ signs - populations[1] @ signs)) <= 1e-14
        assert np.max(np.abs(populations[0] - populations[1])) <= 1e-15
        if n >= 4:
            assert np.max(np.abs(outs[0] - outs[1])) > 1e-3


@pytest.mark.parametrize("n", [10, 12])
def test_sed_measurement_circuit_at_scale(n):
    circ, d = vprime_dagger_circuit(n), _first_diagonal(n)
    sed = sed_measurement_circuit(n)
    rng = np.random.default_rng(n + 1)
    for _ in range(2):
        psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        psi /= np.linalg.norm(psi)
        assert np.max(np.abs(apply_circuit(sed, psi) - apply_circuit(circ, d * psi))) <= 1e-12


def test_sed_measurement_circuit_gate_counts():
    # G_sed(n) for n = 4..12; n = 2, 3 are the exact expansion, gate for gate
    counts = [len(sed_measurement_circuit(n).gates) for n in range(4, 13)]
    assert counts == [33, 93, 215, 359, 575, 813, 1113, 1415, 1799]
    # the relative-phase head and the rest are expanded by one call, so they
    # share one memo of leaf Gates
    assert len(set(sed_measurement_circuit(12).gates)) < 180
    for n in (2, 3):
        exact = expand_multicontrolled(vprime_dagger_circuit(n))
        assert circuit_to_text(sed_measurement_circuit(n)) == circuit_to_text(exact)
    for n in range(2, 13):
        assert all(len(g.qubits()) <= 2 for g in sed_measurement_circuit(n).gates)
