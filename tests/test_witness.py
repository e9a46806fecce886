import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_oracle import (
    is_hermitian,
    ppt_min_eig,
    random_density_matrix,
    random_product_state,
    random_separable_density,
    witness_matrix,
)
from sedwitness.states import (
    PureState,
    basis_state,
    make_ghz,
    make_w,
    pseudopure_matrix,
)
from sedwitness.witness import (
    Witness,
    biseparable_c,
    epsilon_limit,
    expectation,
    generic_witness,
    select_witness,
)


def test_class_constants():
    assert select_witness("ghz", 3).c == 0.75
    assert select_witness("w", 3).c == 0.25
    assert np.trace(witness_matrix(select_witness("ghz", 3))).real == pytest.approx(0.75 * 8 - 1)
    # generic at n = 3 is the biseparable GHZ witness, and the kind is case-blind
    ghz3 = make_ghz(3).amplitudes.tolist()
    generic, upper = select_witness("generic", 3), select_witness("GHZ", 3)
    assert (generic.label, generic.target.amplitudes.tolist()) == ("biseparable", ghz3)
    assert generic.c == pytest.approx(0.5, abs=1e-12)
    assert (upper.c, upper.label, upper.target.amplitudes.tolist()) == (0.75, "GHZ-class", ghz3)
    with pytest.raises(ValueError, match="unknown witness kind 'bell'"):
        select_witness("Bell", 3)


@pytest.mark.parametrize("kind", [None, ["ghz"], 3, b"ghz"], ids=["none", "list", "int", "bytes"])
def test_witness_kind_that_is_not_a_string_is_named(kind):
    with pytest.raises(ValueError, match=re.escape(f"unknown witness kind {kind!r}")):
        select_witness(kind, 3)


@pytest.mark.parametrize("kind, n", [("w", 4.0), ("ghz", 3.0), ("ghz", "3"), ("generic", 2.5)])
def test_select_witness_n_that_is_not_an_integer_is_named(kind, n):
    # a float 3.0 must not pass for 3 and pick the GHZ-class witness
    with pytest.raises(ValueError, match=re.escape(f"n {n!r} is not an integer")):
        select_witness(kind, n)


def test_biseparable_c_values():
    assert biseparable_c(make_ghz(3)) == pytest.approx(0.5, abs=1e-12)
    assert biseparable_c(make_w(3)) == pytest.approx(2 / 3, abs=1e-12)
    assert biseparable_c(basis_state(3, 0)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [0, 1])
def test_biseparable_c_refuses_a_register_without_a_bipartition(n):
    # c = 0 here would make the witness "detect" a product state
    target = basis_state(n, 0)
    with pytest.raises(ValueError, match=f"n {n} is less than 2"):
        biseparable_c(target)
    with pytest.raises(ValueError, match=f"n {n} is less than 2"):
        generic_witness(target)
    assert generic_witness(target, c=0.5).c == 0.5


@pytest.mark.parametrize("n", range(2, 11))
def test_select_witness_closed_forms_are_biseparable_c(n):
    # 1/2 for the GHZ target, (n - 1)/n for W; n = 3 ghz/w keep the class constants
    for kind in ("ghz", "w", "generic"):
        w = select_witness(kind, n)
        if w.label != "biseparable":
            assert (n, kind) in ((3, "ghz"), (3, "w"))
            continue
        assert abs(w.c - biseparable_c(w.target)) <= 1e-12
        assert w.c == ((n - 1) / n if kind == "w" else 0.5)


def test_expectation_values():
    w = select_witness("ghz", 3)
    assert expectation(w, make_ghz(3).density()) == pytest.approx(-0.25, abs=1e-12)
    assert expectation(w, np.eye(8) / 8) == pytest.approx(0.75 - 1 / 8, abs=1e-12)
    unit = generic_witness(make_ghz(3), c=1.0)
    assert expectation(unit, make_ghz(3).density()) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        expectation(w, np.eye(4) / 4)
    # a non-finite matrix fails instead of returning nan
    bell = select_witness("ghz", 2)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            expectation(bell, np.full((4, 4), bad))
    # so does a non-finite witness constant, before any evaluation
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            generic_witness(make_ghz(3), c=bad)


def test_expectation_linear_in_rho():
    rng = np.random.default_rng(21)
    w = select_witness("w", 3)
    r1, r2 = random_density_matrix(8, rng), random_density_matrix(8, rng)
    for a in (0.0, 0.25, 0.9):
        mix = a * r1 + (1 - a) * r2
        combo = a * expectation(w, r1) + (1 - a) * expectation(w, r2)
        assert abs(expectation(w, mix) - combo) <= 1e-12


def test_epsilon_limit_values():
    assert epsilon_limit(select_witness("ghz", 3)) == pytest.approx(5 / 7, abs=1e-12)
    assert epsilon_limit(select_witness("w", 3)) == pytest.approx(1 / 7, abs=1e-12)
    bell = generic_witness(make_ghz(2))  # biseparable c = 1/2
    assert bell.c == pytest.approx(0.5, abs=1e-12)
    assert epsilon_limit(bell) == pytest.approx(1 / 3, abs=1e-12)


def test_epsilon_limit_is_the_zero_crossing():
    w = select_witness("ghz", 3)
    lim = epsilon_limit(w)
    assert expectation(w, pseudopure_matrix(w.target, lim)) == pytest.approx(0.0, abs=1e-12)
    assert expectation(w, pseudopure_matrix(w.target, lim + 1e-6)) < 0
    assert expectation(w, pseudopure_matrix(w.target, lim - 1e-6)) > 0
    # negative iff eps above the threshold
    for eps in np.linspace(0, 1, 21):
        val = expectation(w, pseudopure_matrix(w.target, eps))
        if eps > lim + 1e-12:
            assert val < 1e-12
        elif eps < lim - 1e-12:
            assert val > -1e-12


def test_epsilon_limit_domain_error():
    product = generic_witness(basis_state(3, 0))  # c = 1, cannot detect itself
    with pytest.raises(ValueError):
        epsilon_limit(product)


def test_ppt_oracle():
    assert ppt_min_eig(np.eye(8) / 8, [1]) == pytest.approx(1 / 8, abs=1e-12)
    assert ppt_min_eig(make_ghz(2).density(), [1]) == pytest.approx(-0.5, abs=1e-12)
    # pseudopure GHZ: min eigenvalue of the partial transpose is
    # (1-eps)/8 - eps/2, crossing zero at eps = 1/5
    ghz = make_ghz(3)
    rho = pseudopure_matrix(ghz, 0.25)
    assert ppt_min_eig(rho, [1]) == pytest.approx(-1 / 32, abs=1e-12)
    rho_below = pseudopure_matrix(ghz, 0.15)
    assert ppt_min_eig(rho_below, [1]) > 0


def test_nonnegative_on_sampled_separable_states():
    # smaller sample here; the acceptance suite runs the full 10^4
    rng = np.random.default_rng(2024)
    witnesses = [generic_witness(make_ghz(3)), generic_witness(make_w(3))]
    for w in witnesses:
        for _ in range(300):
            v = random_product_state(3, rng)
            assert w.c - abs(np.vdot(v, w.target.amplitudes)) ** 2 >= -1e-10
        for _ in range(100):
            rho = random_separable_density(3, rng)
            assert expectation(w, rho) >= -1e-10


def test_trace_identity_validation():
    # W is derived from (c, target), so no inconsistent matrix can be passed in
    for n in (3, 5):
        w = Witness(0.75, make_ghz(n), "GHZ-class")
        assert w.n == n
        m = witness_matrix(w)
        assert np.trace(m).real == pytest.approx(0.75 * 2**n - 1, abs=1e-12)
        assert is_hermitian(m)


def test_witness_keeps_only_c_target_and_label():
    assert [f.name for f in fields(Witness)] == ["c", "target", "label"]


@given(
    n=st.integers(1, 6),
    c=st.floats(0.0, 0.99),
    scale=st.floats(0.5, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_expectation_matches_dense_trace(n, c, scale, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    w = generic_witness(PureState(amps / np.linalg.norm(amps)), c)
    rho = scale * random_density_matrix(2**n, rng)  # Tr rho != 1 checks the c Tr(rho) term
    dense = np.trace(witness_matrix(w) @ rho)  # the O(8^n) oracle
    assert abs(expectation(w, rho) - dense.real) <= 1e-12
    # the non-Hermitian part gives Tr(W rho) an imaginary residue of 1e-3 (1 - c)
    with pytest.raises(ValueError, match="imaginary residue"):
        expectation(w, rho - 1e-3j * w.target.density())
