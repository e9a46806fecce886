"""Negative tests of the workload checkers: a corrupted output must count as
a failed op, so that `fail_frac = 0` in a benchmark run means something.

    python3 -m pytest -q perfbench/test_checkers.py

Each test runs one real op, confirms the checker accepts it, then feeds the
runner corrupted copies of that output.
"""

import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import source  # noqa: E402

source.pin_blas_threads()
if not source.use_source_tree():
    raise ImportError(f"no sedwitness package source under {source.SRC}")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from sedwitness import circuit  # noqa: E402


def failures(wl, state, inp, out, index=0) -> int:
    """Failures the runner counts when the op returns `out`."""
    real_op = wl.op
    wl.op = lambda state, inp: out
    try:
        stats = run.Stats()
        run.run_op(wl, state, inp, index, stats)
    finally:
        wl.op = real_op
    return stats.failed


@pytest.fixture(scope="module")
def sweep_case(tmp_path_factory):
    wl = workloads.NoisySweep(tmp_path_factory.mktemp("sweep"), seed=workloads.NoisySweep.reference_seed)
    inp = wl.block(np.random.default_rng(wl.reference_seed))[0]
    return wl, inp, wl.op(None, inp)


def test_sweep_accepts_real_output(sweep_case):
    wl, inp, out = sweep_case
    assert wl.reference is not None
    assert failures(wl, None, inp, out) == 0


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda o: o.update(exit=1), id="exit-code"),
        pytest.param(lambda o: o["records"].pop(), id="dropped-record"),
        pytest.param(lambda o: o["records"][1].update(value_sed=o["records"][1]["value_sed"] + 1e-6), id="sed-at-h1"),
        pytest.param(lambda o: o["records"][0].update(value_conv=o["records"][0]["value_conv"] + 1e-6), id="conv-vs-reference"),
        pytest.param(lambda o: o["records"][0].update(value_conv=float("nan")), id="nan"),
        pytest.param(lambda o: o["records"][0].update(value_sed=5.0), id="sed-out-of-range"),
    ],
)
def test_sweep_counts_corrupted_output(sweep_case, corrupt):
    wl, inp, out = sweep_case
    bad = copy.deepcopy(out)
    corrupt(bad)
    assert failures(wl, None, inp, bad) == 1


@pytest.fixture(scope="module")
def readout_cases(tmp_path_factory):
    wl = workloads.Readout(tmp_path_factory.mktemp("readout"), seed=0)
    dec = wl.setup()
    block = wl.block(np.random.default_rng(0))
    return wl, dec, [(inp, wl.op(dec, inp)) for inp in block]


def test_readout_accepts_real_output(readout_cases):
    wl, dec, cases = readout_cases
    assert {inp["diagonal"] for inp, _ in cases} == {True, False}
    assert sum("v2" in inp for inp, _ in cases) == 1
    assert all(failures(wl, dec, inp, out) == 0 for inp, out in cases)


@pytest.mark.parametrize("field", ["ancilla", "sed", "diagonal_ok", "concat"])
def test_readout_counts_corrupted_output(readout_cases, field):
    wl, dec, cases = readout_cases
    if field == "sed":
        inp, out = next(c for c in cases if c[0]["diagonal"])
    elif field == "concat":
        inp, out = next(c for c in cases if "v2" in c[0])
    else:
        inp, out = cases[0]
    bad = dict(out)
    if field == "diagonal_ok":
        bad[field] = not out[field]
    elif field == "concat":
        bad[field] = [out[field][0], out[field][1] + 1e-8]
    else:
        bad[field] = out[field] + 1e-8
    assert failures(wl, dec, inp, bad) == 1


@pytest.fixture()
def synth_case(tmp_path):
    wl = workloads.CircuitSynth(tmp_path, seed=0)
    inp = {"n": 6}
    return wl, inp, wl.op(None, inp)


def test_synth_accepts_real_output(synth_case):
    wl, inp, out = synth_case
    assert failures(wl, None, inp, out) == 0


def test_synth_counts_dropped_gate_after_round_trip(synth_case):
    wl, inp, out = synth_case
    parsed = out["parsed"]
    bad = dict(out, parsed=circuit.Circuit(parsed.n, parsed.gates[:-1]))
    assert failures(wl, None, inp, bad) == 1


def test_synth_counts_wide_gate(synth_case):
    wl, inp, out = synth_case
    wide = out["source"].gates[0]  # the widest multi-controlled gate
    bad = dict(out, expanded=circuit.Circuit(out["expanded"].n, (wide,) + out["expanded"].gates[1:]))
    assert failures(wl, None, inp, bad) == 1


def test_synth_counts_wrong_unitary(synth_case):
    # a consistent round trip of a circuit that lost a gate: only the
    # unitary comparison can see it
    wl, inp, out = synth_case
    expanded = circuit.Circuit(out["expanded"].n, out["expanded"].gates[1:])
    text = circuit.circuit_to_text(expanded)
    bad = dict(out, expanded=expanded, text=text, parsed=circuit.circuit_from_text(text))
    assert failures(wl, None, inp, bad) == 1


def test_op_exception_counts_as_failure(synth_case):
    wl, inp, _ = synth_case
    stats = run.Stats()
    run.run_op(wl, None, {"n": 1}, 0, stats)
    assert (stats.attempted, stats.failed, stats.latencies) == (1, 1, [])
