"""Print one `name sha256` line per output that a change may claim to keep
byte-identical, under a header naming the numpy version and the BLAS.

Run it from the repository root at two trees on one machine and diff the
two listings:

    PYTHONPATH=src python tests/output_manifest.py > manifest.txt

The digests depend on numpy and the BLAS, so they are compared between
trees, never pinned in a test.  The script asks for one BLAS thread unless
the environment sets another.  Pytest does not collect it: its name does
not start with `test_`.  The outputs:

- `sweep_csv` of `sweep` on the default 11 x 11 grid, n = 2..8 x {ghz, w}
  x {witness, identity}, and at n = 10 for the 11 default p by
  h in {0.95, 1.0}, witness mode, both kinds;
- the `sweep --format json` file at n = 7 for 4 p by 2 h, both kinds, the
  argv shape of the `noisy_sweep` benchmark workload;
- `circuit_to_text` of the expanded V'_n^dag and of
  `sed_measurement_circuit(n)`, n = 2..12;
- `gatecount --n-min 2 --n-max 12`, its stdout and its --json file;
- `ancilla` stdout for {ghz, w} x n = 2..10 x epsilon in {1.0, 0.3};
- `sed-verify --n N` stdout, N = 2..7.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import time

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from sedwitness.circuit import circuit_to_text, expand_multicontrolled, sed_measurement_circuit, vprime_dagger_circuit
from sedwitness.cli import main
from sedwitness.noise import grid_values, sweep, sweep_csv


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


def outputs():
    """(name, text) per output, in a fixed order."""
    default = grid_values(0.5, 1.0, 0.05)
    for n in range(2, 9):
        for kind in ("ghz", "w"):
            for mode in ("witness", "identity"):
                yield f"sweep/n{n}/{kind}/{mode}", sweep_csv(sweep(n, default, default, kind, mode))
    for kind in ("ghz", "w"):
        yield f"sweep/n10/{kind}/witness/h0.95-1.0", sweep_csv(sweep(10, default, [0.95, 1.0], kind))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.json")
        grid = ["--p-min", "0.7", "--p-max", "1.0", "--p-step", repr((1.0 - 0.7) / 3), "--h-min", "0.8", "--h-max", "1.0", "--h-step", repr(1.0 - 0.8)]
        for kind in ("ghz", "w"):
            _cli_stdout(["sweep", "--kind", kind, "--n", "7", *grid, "--format", "json", "--out", path])
            with open(path) as fh:
                yield f"sweep-json/n7/{kind}/p4-h2", fh.read()
    for n in range(2, 13):
        yield f"circuit/vprime_dagger_expanded/n{n}", circuit_to_text(expand_multicontrolled(vprime_dagger_circuit(n)))
        yield f"circuit/sed_measurement/n{n}", circuit_to_text(sed_measurement_circuit(n))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gatecount.json")
        yield "gatecount/stdout", _cli_stdout(["gatecount", "--n-min", "2", "--n-max", "12", "--json", path])
        with open(path) as fh:
            yield "gatecount/json", fh.read()
    for kind in ("ghz", "w"):
        for n in range(2, 11):
            for eps in ("1.0", "0.3"):
                yield f"ancilla/{kind}/n{n}/eps{eps}", _cli_stdout(["ancilla", "--kind", kind, "--n", str(n), "--epsilon", eps])
    for n in range(2, 8):
        yield f"sed-verify/n{n}", _cli_stdout(["sed-verify", "--n", str(n)])


def main_manifest() -> None:
    start = time.perf_counter()
    threads = os.environ["OPENBLAS_NUM_THREADS"]
    print(f"# numpy {np.__version__}; blas {_blas()}; OPENBLAS_NUM_THREADS={threads}; python {sys.version.split()[0]}")
    count = 0
    for name, text in outputs():
        print(name, hashlib.sha256(text.encode()).hexdigest(), flush=True)
        count += 1
    print(f"{count} outputs in {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main_manifest()
