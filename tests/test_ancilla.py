"""Tests of the one-ancilla readout.

The dense pipeline below (a 2**(n+1) CnNOT matrix, kron(1, V) conjugations
of the whole joint state and the ancilla Z through a partial trace) is the
full joint-state reference for the closed-form read
Tr(rho_a Z) = (2p - 1) (Tr rho - 2 <v0|rho|v0>); it is kept here as the oracle.
"""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_oracle import kron, partial_trace, random_density_matrix
from sedwitness.ancilla import (
    AncillaConfig,
    ConcatSpec,
    Stage,
    _ancilla_z,
    ancilla_readout,
    intermediate_identities,
    run_concatenated,
)
from sedwitness.circuit import circuit_unitary, ghz_entangler, w_entangler
from sedwitness.states import make_ghz
from sedwitness.tensor import X, Z, dagger, haar_unitary


def ghz_v():
    return circuit_unitary(ghz_entangler(3))


def dense_cnnot(n):
    """CnNOT on n+1 qubits: ancilla (qubit 1) flips iff register = |0...0>."""
    dim = 2**n
    proj0 = np.zeros((dim, dim), dtype=complex)
    proj0[0, 0] = 1.0
    return kron(X, proj0) + kron(np.eye(2), np.eye(dim) - proj0)


def off_ancilla_diagonal(joint):
    """Largest entry of the blocks <0|joint|1> and <1|joint|0>."""
    dim = joint.shape[0] // 2
    return max(np.abs(joint[:dim, dim:]).max(), np.abs(joint[dim:, :dim]).max())


def dense_run(rho_in, stages, p):
    """Per stage (v, c): conjugate by kron(1, V^dag), flip, read the ancilla Z
    through a partial trace, un-compute. Returns (trz, value) per stage.

    Every register unitary must meet a state with no coherence between the
    ancilla's two states, and each un-compute must restore
    diag(p, 1-p) (x) rho: the closed-form read rests on that."""
    n = int(np.log2(rho_in.shape[0]))
    cn = dense_cnnot(n)
    joint = kron(np.diag([p, 1 - p]), rho_in)
    out = []
    for v, c in stages:
        vfull = kron(np.eye(2), v)
        assert off_ancilla_diagonal(joint) <= 1e-14
        joint = cn @ dagger(vfull) @ joint @ vfull @ dagger(cn)
        trz = np.trace(partial_trace(joint, [1]) @ Z).real
        out.append((trz, c - 0.5 + trz / (2 * (2 * p - 1))))
        joint = dagger(cn) @ joint @ cn
        assert off_ancilla_diagonal(joint) <= 1e-14
        joint = vfull @ joint @ dagger(vfull)
        assert np.abs(joint - kron(np.diag([p, 1 - p]), rho_in)).max() <= 1e-12
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        AncillaConfig(p=0.5, n=3)
    with pytest.raises(ValueError):
        AncillaConfig(p=1.2, n=3)
    AncillaConfig(p=1.0, n=3)


def test_read_populations_are_the_dense_cnnot_diagonal():
    # on the blocks (p B, (1-p) B) the dense CnNOT leaves Tr(Z_a J) =
    # (2p - 1)(Tr B - 2 B_00): the flip moves only the populations of |0,0...0>
    # and |1,0...0>; with V = 1 the read takes B_00 as P(0...0)
    rng = np.random.default_rng(3)
    for n in range(1, 5):
        dim = 2**n
        z_a, cn = kron(Z, np.eye(dim)), dense_cnnot(n)
        for p in (0.0, 0.3, 0.8, 1.0):
            b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            joint = kron(np.diag([p, 1 - p]), b)
            want = np.trace(z_a @ cn @ joint @ dagger(cn))
            assert abs(want - (2 * p - 1) * (np.trace(b) - 2 * b[0, 0])) <= 1e-12
            ((p_tilde, trz),) = _ancilla_z(b, [np.eye(dim)], AncillaConfig(p, n))
            assert (p_tilde, trz) == pytest.approx((b[0, 0].real, want.real), abs=1e-12)


@st.composite
def readout_cases(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stages = [
        (haar_unitary(2**n, rng), draw(st.floats(0.0, 1.0)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    # Tr rho != 1 too: the read keeps its Tr rho term rather than assume 1
    rho = draw(st.sampled_from([1.0, 0.3, 2.5])) * random_density_matrix(2**n, rng)
    return rho, stages, AncillaConfig(draw(st.floats(0.55, 1.0)), n)


@given(readout_cases())
def test_readouts_match_dense_pipeline(case):
    rho, stages, cfg = case
    want = dense_run(rho, stages, cfg.p)
    v, c = stages[0]
    assert abs(ancilla_readout(rho, v, c, cfg) - want[0][1]) <= 1e-12
    if abs(np.trace(rho).real - 1) <= 1e-12:
        ident = intermediate_identities(rho, v, cfg)
        assert abs(ident["tr_ancilla_z"] - want[0][0]) <= 1e-12
        assert abs(ident["p_tilde"] - (dagger(v) @ rho @ v)[0, 0].real) <= 1e-12
    else:
        with pytest.raises(ValueError, match="need Tr rho = 1"):
            intermediate_identities(rho, v, cfg)
    got = run_concatenated(rho, ConcatSpec(tuple(Stage(v, c) for v, c in stages)), cfg)
    assert len(got) == len(stages)
    assert all(abs(g - w[1]) <= 1e-12 for g, w in zip(got, want))


def test_three_stages_match_dense_pipeline_at_n7():
    # past the n <= 5 the property test draws
    rng = np.random.default_rng(2024)
    n = 7
    rho = random_density_matrix(2**n, rng)
    stages = [(haar_unitary(2**n, rng), c) for c in (0.25, 0.5, 0.75)]
    cfg = AncillaConfig(0.8, n)
    want = dense_run(rho, stages, cfg.p)
    got = run_concatenated(rho, ConcatSpec(tuple(Stage(v, c) for v, c in stages)), cfg)
    assert all(abs(g - w[1]) <= 1e-12 for g, w in zip(got, want, strict=True))
    trz = intermediate_identities(rho, stages[0][0], cfg)["tr_ancilla_z"]
    assert abs(trz - want[0][0]) <= 1e-12


def test_ghz_pure_state_readout():
    cfg = AncillaConfig(p=1.0, n=3)
    val = ancilla_readout(make_ghz(3).density(), ghz_v(), 0.75, cfg)
    assert val == pytest.approx(-0.25, abs=1e-12)
    ident = intermediate_identities(make_ghz(3).density(), ghz_v(), cfg)
    assert ident["p_tilde"] == pytest.approx(1.0, abs=1e-12)
    assert ident["tr_ancilla_z"] == pytest.approx(-1.0, abs=1e-12)


def test_maximally_mixed_readout():
    cfg = AncillaConfig(p=0.9, n=3)
    for c in (0.75, 0.5):
        val = ancilla_readout(np.eye(8) / 8, ghz_v(), c, cfg)
        assert val == pytest.approx(c - 1 / 8, abs=1e-12)


def test_readout_matches_direct_trace_no_diagonality():
    # the core claim: matches Tr(rho (c 1 - V|0..0><0..0|V^dag)) for any rho
    rng = np.random.default_rng(99)
    for p in (0.6, 0.75, 0.9, 1.0):
        cfg = AncillaConfig(p=p, n=3)
        for _ in range(10):
            rho = random_density_matrix(8, rng)
            v = haar_unitary(8, rng)
            proj = np.outer(v[:, 0], v[:, 0].conj())
            want = (0.5 - np.trace(proj @ rho)).real
            got = ancilla_readout(rho, v, 0.5, cfg)
            assert abs(got - want) <= 1e-10
            ident = intermediate_identities(rho, v, cfg)
            assert ident["residual_trz"] <= 1e-12
            assert ident["residual_ptilde"] <= 1e-12


def test_readouts_accept_nested_lists():
    rng = np.random.default_rng(31)
    cfg = AncillaConfig(p=0.8, n=3)
    rho, v = random_density_matrix(8, rng), haar_unitary(8, rng)
    assert ancilla_readout(rho, v.tolist(), 0.5, cfg) == ancilla_readout(rho, v, 0.5, cfg)
    assert intermediate_identities(rho, v.tolist(), cfg) == intermediate_identities(rho, v, cfg)
    with pytest.raises(ValueError):
        ancilla_readout(rho, np.eye(4).tolist(), 0.5, cfg)
    with pytest.raises(ValueError):
        intermediate_identities(rho, np.eye(4).tolist(), cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf)], ids=["nan", "inf", "inf-j"])
def test_readouts_reject_non_finite(bad):
    # every ancilla path names a non-finite state or entangler before its first product
    cfg = AncillaConfig(p=0.9, n=3)
    rho, v = np.eye(8, dtype=complex) / 8, np.eye(8, dtype=complex)
    bad_rho, bad_v = rho.copy(), v.copy()
    bad_rho[1, 2] = bad_v[2, 1] = bad
    spec = ConcatSpec((Stage(v, 0.5), Stage(v, 0.5)))
    for call in (
        lambda: ancilla_readout(bad_rho, v, 0.5, cfg),
        lambda: intermediate_identities(bad_rho, v, cfg),
        lambda: run_concatenated(bad_rho, spec, cfg),
    ):
        with pytest.raises(ValueError, match="density matrix has non-finite"):
            call()
    with pytest.raises(ValueError, match="entangler has non-finite"):
        ancilla_readout(rho, bad_v, 0.5, cfg)
    with pytest.raises(ValueError, match="entangler has non-finite"):
        intermediate_identities(rho, bad_v, cfg)


def test_readouts_reject_an_entangler_whose_column_0_is_not_a_unit_vector():
    # a scaled V would read a scaled P(0...0); 2 * 1 once read 0.0 silently
    rng = np.random.default_rng(41)
    cfg = AncillaConfig(p=0.9, n=3)
    rho = random_density_matrix(8, rng)
    for v, norm_sq in ((2 * np.eye(8), "4"), (1.1 * haar_unitary(8, rng), "1.21")):
        message = f"^entangler is not unitary: its column 0 has squared norm {norm_sq}$"
        for call in (lambda: ancilla_readout(rho, v, 0.5, cfg), lambda: intermediate_identities(rho, v, cfg)):
            with pytest.raises(ValueError, match=message):
                call()
        with pytest.raises(ValueError, match="entangler is not unitary"):
            ConcatSpec((Stage(v, 0.5),))


def test_identities_name_a_trace_other_than_one():
    # on 2|GHZ><GHZ| the residuals are |2p - 1| |Tr rho - 1| and |Tr rho - 1| / 2
    cfg = AncillaConfig(p=0.9, n=3)
    with pytest.raises(ValueError, match=r"^readout identities need Tr rho = 1, got \|Tr rho - 1\| = 1\.000e\+00$"):
        intermediate_identities(2 * make_ghz(3).density(), ghz_v(), cfg)


def test_identity_p_one():
    # p = 1 and P(0..0) = 1 force Tr(rho_a Z) = -1
    cfg = AncillaConfig(p=1.0, n=3)
    v = ghz_v()
    rho = v @ np.diag([1.0] + [0.0] * 7).astype(complex) @ dagger(v)
    ident = intermediate_identities(rho, v, cfg)
    assert ident["p_tilde"] == pytest.approx(1.0, abs=1e-12)
    assert ident["tr_ancilla_z"] == pytest.approx(-1.0, abs=1e-12)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(8, rng)
    v = haar_unitary(8, rng)
    sigma = dagger(v) @ rho @ v
    assert abs(np.sum(np.diag(sigma)).real - 1.0) <= 1e-12


def test_concatenated_ghz_then_w():
    v_ghz = ghz_v()
    v_w = circuit_unitary(w_entangler(3))
    spec = ConcatSpec((Stage(v_ghz, 0.75, "ghz"), Stage(v_w, 0.25, "w")))
    cfg = AncillaConfig(p=0.8, n=3)
    rho = make_ghz(3).density()
    vals = run_concatenated(rho, spec, cfg)
    assert vals[0] == pytest.approx(-0.25, abs=1e-10)
    # second stage: 1/4 - |<W|GHZ>|^2 = 1/4
    assert vals[1] == pytest.approx(0.25, abs=1e-10)


def test_concatenated_single_stage_reduces_to_readout():
    rng = np.random.default_rng(31)
    rho = random_density_matrix(8, rng)
    v = haar_unitary(8, rng)
    cfg = AncillaConfig(p=0.7, n=3)
    spec = ConcatSpec((Stage(v, 0.6, "x"),))
    assert run_concatenated(rho, spec, cfg)[0] == pytest.approx(
        ancilla_readout(rho, v, 0.6, cfg), abs=1e-12
    )


def test_concatenated_mixed_input():
    spec = ConcatSpec(
        (Stage(ghz_v(), 0.75, "ghz"), Stage(circuit_unitary(w_entangler(3)), 0.25, "w"))
    )
    cfg = AncillaConfig(p=0.9, n=3)
    vals = run_concatenated(np.eye(8) / 8, spec, cfg)
    assert vals[0] == pytest.approx(0.75 - 1 / 8, abs=1e-10)
    assert vals[1] == pytest.approx(0.25 - 1 / 8, abs=1e-10)


def test_concatenation_order_independent_and_uncomputed():
    rng = np.random.default_rng(77)
    rho = random_density_matrix(8, rng)
    cfg = AncillaConfig(p=0.85, n=3)
    s1 = Stage(ghz_v(), 0.75, "ghz")
    s2 = Stage(circuit_unitary(w_entangler(3)), 0.25, "w")
    v12 = run_concatenated(rho, ConcatSpec((s1, s2)), cfg)
    v21 = run_concatenated(rho, ConcatSpec((s2, s1)), cfg)
    assert v12[0] == pytest.approx(v21[1], abs=1e-12)
    assert v12[1] == pytest.approx(v21[0], abs=1e-12)


def test_uncomputation_restores_state():
    # a stage repeated back to back must read the same value both times
    rng = np.random.default_rng(41)
    rho = random_density_matrix(8, rng)
    s = Stage(haar_unitary(8, rng), 0.6, "repeat")
    cfg = AncillaConfig(p=0.7, n=3)
    v1, v2 = run_concatenated(rho, ConcatSpec((s, s)), cfg)
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_stage_validation():
    with pytest.raises(ValueError):
        ConcatSpec((Stage(np.eye(8) * 2.0, 0.5, "bad"),))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="stage 'bad' entangler has non-finite"):
            ConcatSpec((Stage(np.full((2, 2), bad), 0.5, "bad"),))
    with pytest.raises(ValueError):
        ConcatSpec(())
    with pytest.raises(ValueError):
        Stage(np.ones((2, 4)), 0.5, "wide")
    with pytest.raises(ValueError):
        Stage(np.ones(4), 0.5, "flat")
    with pytest.raises(ValueError, match="^stage 'empty' entangler is empty$"):
        ConcatSpec((Stage(np.zeros((0, 0)), 0.5, "empty"),))
    spec = ConcatSpec((Stage([[1, 0], [0, 1]], 0.5),))
    assert spec.stages[0].v.dtype == complex and spec.stages[0].v.shape == (2, 2)
    # a witness constant that is non-finite or not a real number is named,
    # not read out as nan or inf or left to a TypeError
    cfg = AncillaConfig(p=0.9, n=1)
    for bad, message in (
        (np.nan, "= nan is non-finite"),
        (np.inf, "= inf is non-finite"),
        ("x", "'x' is not a real number"),
        (True, "True is not a real number"),
    ):
        with pytest.raises(ValueError, match=f"^witness constant c {re.escape(message)}$"):
            run_concatenated(np.eye(2) / 2, ConcatSpec((Stage(np.eye(2), bad),)), cfg)
        with pytest.raises(ValueError, match=f"^witness constant c {re.escape(message)}$"):
            ancilla_readout(np.eye(2) / 2, np.eye(2), bad, cfg)
    # stage entanglers of another register size are named before the read
    with pytest.raises(ValueError, match="stage entanglers do not match the 1-qubit register"):
        run_concatenated(np.eye(2) / 2, ConcatSpec((Stage(np.eye(4), 0.5),)), cfg)
