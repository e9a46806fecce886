"""Entanglement witness construction, single-run (SED) readout decomposition,
ancilla-based readout, circuit synthesis, and gate-noise studies for
ensemble quantum computing, all at the dense density-matrix level."""

from .ancilla import AncillaConfig, ConcatSpec, Stage, ancilla_readout, intermediate_identities, run_concatenated
from .circuit import (
    Circuit,
    Gate,
    circuit_from_text,
    circuit_to_text,
    circuit_unitary,
    dagger_circuit,
    expand_multicontrolled,
    gate_count_G,
    ghz_entangler,
    vprime2,
    vprime_dagger_circuit,
    w_entangler,
)
from .noise import SweepRecord, sweep, sweep_csv
from .sed import (
    SedDecomposition,
    SedMeasurementResult,
    sed_decomposition,
    sed_measure,
    verify_equality,
)
from .states import (
    PureState,
    basis_state,
    make_ghz,
    make_w,
    pseudopure_matrix,
)
from .tensor import max_schmidt_sq
from .witness import (
    Witness,
    biseparable_c,
    class_witness,
    epsilon_limit,
    expectation,
    generic_witness,
)

__version__ = "0.1.0"
