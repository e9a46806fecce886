"""The benchmark workloads: seeded inputs, the timed operation and the
untimed output check of each.

Every workload draws its inputs in blocks. A block holds a fixed mix of
input kinds in a seeded order, so a run of whole blocks always has the same
mix and the per-op layer counts of the traced run repeat exactly.

`op` is the only timed call. `check` returns None for a correct output and
a one-line description of the first problem otherwise. Where it can, a
check compares with values the benchmark derives itself (closed forms from
the paper, direct traces, a stored reference); the circuit checks
re-serialize and multiply out circuits with the package's own functions.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from sedwitness import ancilla, circuit, cli, sed, states, witness


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


def _sed_coefficients(n: int) -> tuple[float, list[float]]:
    """Closed forms b = -2**-n, a_1 = a_2 = 3 * 2**-(n+1), a_k = -2**(k-n-1)."""
    a = [3 * 2.0 ** -(n + 1)] * 2 + [-(2.0 ** (k - n - 1)) for k in range(3, n + 1)]
    return -(2.0**-n), a


class NoisySweep:
    """`sweep` CLI calls on a 4 x 2 slice of the (p, h) grid at n = 7.

    Exercises noise, circuit.gate_matrix and tensor embedding and partial
    trace, one noisy gate at a time. Four p values per h, so a rewrite that
    shares work across p for one h can show its gain.
    """

    name = "noisy_sweep"
    block_size = 2
    probe_kind = "matrix"
    n = 7
    tol = 1e-9
    # biseparable bound of each target: 1/2 for GHZ, (n-1)/n for W
    witness_c = {"ghz": 0.5, "w": (n - 1) / n}
    reference_path = Path(__file__).with_name("reference_noisy_sweep.json")
    reference_seed = 0

    def __init__(self, out_dir: Path, seed: int):
        self.out_path = out_dir / "sweep.json"
        self.reference = None
        if seed == self.reference_seed and self.reference_path.is_file():
            self.reference = json.loads(self.reference_path.read_text())["value_conv"]

    def params(self) -> dict:
        return {
            "n": self.n,
            "kinds": ["ghz", "w"],
            "p_min": [0.5, 0.8],
            "h_min": [0.5, 0.999],
            "grid": "4 p values from p_min to 1.0 times {h_min, 1.0}",
        }

    def setup(self):
        return None

    def block(self, rng: np.random.Generator) -> list[dict]:
        return [
            {
                "kind": str(kind),
                "p_min": int(rng.integers(500, 801)) / 1000,
                "h_min": int(rng.integers(500, 1000)) / 1000,
            }
            for kind in rng.permutation(["ghz", "w"])
        ]

    def argv(self, inp: dict) -> list[str]:
        return [
            "sweep", "--kind", inp["kind"], "--n", str(self.n),
            "--p-min", repr(inp["p_min"]), "--p-max", "1.0", "--p-step", repr((1.0 - inp["p_min"]) / 3),
            "--h-min", repr(inp["h_min"]), "--h-max", "1.0", "--h-step", repr(1.0 - inp["h_min"]),
            "--format", "json", "--out", str(self.out_path),
        ]

    def op(self, state, inp: dict) -> dict:
        with redirect_stdout(io.StringIO()):
            code = cli.main(self.argv(inp))
        with open(self.out_path) as fh:
            return {"exit": code, "records": json.load(fh)}

    def check(self, state, inp: dict, out: dict, index: int) -> str | None:
        if out["exit"] != 0:
            return f"exit code {out['exit']}"
        recs = out["records"]
        grid_p = [inp["p_min"] + k * (1.0 - inp["p_min"]) / 3 for k in range(4)]
        grid = [(p, h) for p in grid_p for h in (inp["h_min"], 1.0)]
        if len(recs) != len(grid):
            return f"{len(recs)} records, expected {len(grid)}"
        c = self.witness_c[inp["kind"]]
        b, a = _sed_coefficients(self.n)
        a0, spread = c + b, sum(abs(x) for x in a)
        for r, (p, h) in zip(recs, grid):
            conv, val = r["value_conv"], r["value_sed"]
            if not (abs(r["p"] - p) <= self.tol and abs(r["h"] - h) <= self.tol):
                return f"grid point ({r['p']}, {r['h']}) != ({p}, {h})"
            if not (math.isfinite(conv) and c - 1 - self.tol <= conv <= c + self.tol):
                return f"value_conv {conv} outside [c - 1, c] at ({p}, {h})"
            if not (math.isfinite(val) and abs(val - a0) <= spread + self.tol):
                return f"value_sed {val} outside a0 +- sum|a_k| at ({p}, {h})"
            if h == 1.0 and not abs(val - conv) <= self.tol:
                return f"value_sed {val} != value_conv {conv} at h = 1, p = {p}"
        if not abs(recs[-1]["value_conv"] - (c - 1)) <= self.tol:
            return f"noiseless pure target reads {recs[-1]['value_conv']}, expected c - 1 = {c - 1}"
        if self.reference is not None and index < len(self.reference):
            ref = self.reference[index]
            worst = max(abs(r["value_conv"] - v) for r, v in zip(recs, ref))
            if not worst <= self.tol:
                return f"value_conv differs from the stored reference by {worst:.3e}"
        return None


class Readout:
    """SED and one-ancilla readouts of random n = 8 states.

    Exercises sed, ancilla and tensor.partial_trace on 256 x 256 unitaries
    and never touches noise. Each block of four ops holds two diagonal
    (Dirichlet spectrum conjugated by a Haar V) and two full-rank random
    states; one op per block also runs a 2-stage concatenated readout.
    """

    name = "readout"
    block_size = 4
    probe_kind = "matrix"
    n = 8
    c = 0.5
    tol = 1e-10

    def __init__(self, out_dir: Path, seed: int):
        pass

    def params(self) -> dict:
        return {
            "n": self.n,
            "c": self.c,
            "per_block": "2 diagonal + 2 full-rank states, 1 two-stage concatenated readout",
            "ancilla_p": [0.6, 0.95],
            "stage2_c": [0.25, 0.75],
        }

    def setup(self):
        target = states.basis_state(self.n)
        return sed.sed_decomposition(witness.generic_witness(target, c=self.c))

    def block(self, rng: np.random.Generator) -> list[dict]:
        dim = 2**self.n
        concat_at = int(rng.integers(self.block_size))
        ops = []
        for i, diagonal in enumerate(rng.permutation([True, True, False, False])):
            v = _haar(dim, rng)
            if diagonal:
                rho = (v * rng.dirichlet(np.ones(dim))) @ v.conj().T
            else:
                g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                rho = g @ g.conj().T
                rho /= np.trace(rho).real
            inp = {"rho": rho, "v": v, "diagonal": bool(diagonal), "p": float(rng.uniform(0.6, 0.95))}
            if i == concat_at:
                inp["v2"] = _haar(dim, rng)
                inp["c2"] = float(rng.uniform(0.25, 0.75))
            ops.append(inp)
        return ops

    def op(self, dec, inp: dict) -> dict:
        rho, v = inp["rho"], inp["v"]
        cfg = ancilla.AncillaConfig(p=inp["p"], n=self.n)
        res = sed.sed_measure(rho, v, dec)
        out = {
            "sed": res.value,
            "diagonal_ok": res.diagonal_ok,
            "ancilla": ancilla.ancilla_readout(rho, v, self.c, cfg),
        }
        if "v2" in inp:
            spec = ancilla.ConcatSpec((ancilla.Stage(v, self.c), ancilla.Stage(inp["v2"], inp["c2"])))
            out["concat"] = ancilla.run_concatenated(rho, spec, cfg)
        return out

    def _expected(self, rho: np.ndarray, v: np.ndarray, c: float) -> float:
        v0 = v[:, 0]
        return c - float(np.vdot(v0, rho @ v0).real)

    def check(self, dec, inp: dict, out: dict, index: int) -> str | None:
        rho, v = inp["rho"], inp["v"]
        want = self._expected(rho, v, self.c)
        if out["diagonal_ok"] != inp["diagonal"]:
            return f"diagonal_ok = {out['diagonal_ok']} on a {'diagonal' if inp['diagonal'] else 'full-rank'} input"
        if inp["diagonal"] and not abs(out["sed"] - want) <= self.tol:
            return f"SED readout {out['sed']} != {want}"
        if not abs(out["ancilla"] - want) <= self.tol:
            return f"ancilla readout {out['ancilla']} != {want}"
        if "v2" in inp:
            wants = [want, self._expected(rho, inp["v2"], inp["c2"])]
            got = out.get("concat") or []
            if len(got) != 2 or any(not abs(g - w) <= self.tol for g, w in zip(got, wants)):
                return f"concatenated readout {got} != {wants}"
        return None


class CircuitSynth:
    """Expand the V'_n^dag circuit and round-trip it through the text format.

    Pure-Python IR work with no 2**n matrices, for n = 6..12. A faster
    dense kernel should leave it unchanged; a cheaper multi-controlled
    decomposition should speed it up, with n = 12 setting the tail.
    """

    name = "circuit_synth"
    ns = tuple(range(6, 13))
    block_size = len(ns)
    probe_kind = "python"
    unitary_check_max_n = 6
    tol = 1e-10

    def __init__(self, out_dir: Path, seed: int):
        self.unitary_checked: dict[int, str | None] = {}

    def params(self) -> dict:
        return {"n": [self.ns[0], self.ns[-1]], "per_block": "each n once", "unitary_check_max_n": self.unitary_check_max_n}

    def setup(self):
        return None

    def block(self, rng: np.random.Generator) -> list[dict]:
        return [{"n": int(n)} for n in rng.permutation(self.ns)]

    def op(self, state, inp: dict) -> dict:
        src = circuit.vprime_dagger_circuit(inp["n"])
        expanded = circuit.expand_multicontrolled(src)
        text = circuit.circuit_to_text(expanded)
        return {"source": src, "expanded": expanded, "text": text, "parsed": circuit.circuit_from_text(text)}

    def check(self, state, inp: dict, out: dict, index: int) -> str | None:
        expanded, parsed = out["expanded"], out["parsed"]
        if len(parsed.gates) != len(expanded.gates):
            return f"round trip gave {len(parsed.gates)} gates, expected {len(expanded.gates)}"
        for i, (g, h) in enumerate(zip(expanded.gates, parsed.gates)):
            if len(g.qubits()) > 2:
                return f"expanded gate {i} touches {len(g.qubits())} qubits"
            if g.qubits() != h.qubits():
                return f"round-trip gate {i} acts on {h.qubits()}, expected {g.qubits()}"
        if circuit.circuit_to_text(parsed) != out["text"]:
            return "round-tripped circuit serializes differently"
        n = inp["n"]
        if n <= self.unitary_check_max_n:
            if n not in self.unitary_checked:
                self.unitary_checked[n] = self._unitary_problem(out)
            return self.unitary_checked[n]
        return None

    def _unitary_problem(self, out: dict) -> str | None:
        want = circuit.circuit_unitary(out["source"])
        for label in ("expanded", "parsed"):
            prod = circuit.circuit_unitary(out[label]) @ want.conj().T
            tr = np.trace(prod)
            dev = float(np.max(np.abs(prod - tr / abs(tr) * np.eye(prod.shape[0])))) if tr != 0 else math.inf
            if not dev <= self.tol:
                return f"{label} circuit differs from the source unitary by {dev:.3e} beyond a global phase"
        return None


WORKLOADS = {w.name: w for w in (NoisySweep, Readout, CircuitSynth)}
