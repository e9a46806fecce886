"""Command-line harness.

Subcommands: witness (constants and thresholds), sed-verify (readout
equality check), ancilla (one-ancilla readout vs direct trace), gatecount
(circuit size scaling), sweep (noise grid, CSV/JSON artifact).

Exit status: 0 success / verification passed, 1 verification failure or
I/O error, 2 usage error. A command raises the library's ValueError for
bad input; `main` alone turns it into `sedwitness: error: <message>` on
stderr and exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .ancilla import AncillaConfig, intermediate_identities, readout_value
from .circuit import circuit_unitary, gate_count_G, gate_count_exponent, select_entangler
from .noise import grid_values, sweep, sweep_csv, zero_crossing_h
from .sed import verify_equality
from .states import pseudopure_matrix
from .tensor import ATOL_ALGEBRA, ATOL_PHYSICS
from .witness import epsilon_limit, expectation, pseudopure_expectation, select_witness


def _fmt(x) -> str:
    return f"{x:.12g}"


def _write(path: str, payload: str) -> int:
    """Write payload to path: 0, or 1 after an error line on stderr."""
    try:
        with open(path, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 1
    return 0


def _write_json(report: dict, json_path: str | None) -> int:
    if not json_path:
        return 0
    return _write(json_path, json.dumps(report, indent=2, sort_keys=True) + "\n")


def _emit(report: dict, json_path: str | None) -> int:
    for key, val in report.items():
        print(f"{key} = {_fmt(val) if isinstance(val, float) else val}")
    return _write_json(report, json_path)


def cmd_witness(args) -> int:
    w = select_witness(args.kind, args.n)
    report = {
        "kind": args.kind,
        "n": args.n,
        "label": w.label,
        "c": w.c,
        "trace_w": float(w.c * 2**w.n - 1),
        "epsilon_limit": epsilon_limit(w),
    }
    if args.epsilon is not None:
        report["epsilon"] = args.epsilon
        report["expectation"] = pseudopure_expectation(w, args.epsilon)
    return _emit(report, args.json)


def cmd_sed_verify(args) -> int:
    if not 2 <= args.n <= 7:
        raise ValueError("--n must lie in 2..7")
    report = verify_equality(args.n, trials=args.trials, seed=args.seed)
    return _emit(report, args.json) or int(not report["passed"])


def cmd_ancilla(args) -> int:
    cfg = AncillaConfig(p=args.p, n=args.n)
    w = select_witness(args.kind, args.n)
    rho_in = pseudopure_matrix(w.target, args.epsilon)
    v = circuit_unitary(select_entangler(args.kind, args.n))
    ident = intermediate_identities(rho_in, v, cfg)
    recovered = readout_value(w.c, ident["tr_ancilla_z"], cfg.p)
    oracle = expectation(w, rho_in)
    report = {
        "kind": args.kind,
        "n": args.n,
        "epsilon": args.epsilon,
        "p": args.p,
        "c": w.c,
        "p_tilde": ident["p_tilde"],
        "tr_ancilla_z": ident["tr_ancilla_z"],
        "residual_trz": ident["residual_trz"],
        "residual_ptilde": ident["residual_ptilde"],
        "recovered": recovered,
        "oracle": oracle,
        "difference": abs(recovered - oracle),
    }
    return _emit(report, args.json) or int(not report["difference"] <= ATOL_PHYSICS)


def cmd_gatecount(args) -> int:
    if args.n_max < args.n_min:
        raise ValueError("--n-max must be >= --n-min")
    if not (2 <= args.n_min and args.n_max <= 12):
        raise ValueError("gate counting supports n in 2..12")
    ns = list(range(args.n_min, args.n_max + 1))
    counts = [gate_count_G(n) for n in ns]
    for n, g in zip(ns, counts):
        print(f"G({n}) = {g}")
    report = {"n_min": args.n_min, "n_max": args.n_max, "counts": counts}
    if len(ns) >= 2:
        exponent = gate_count_exponent(ns, counts)
        report["fit_exponent"] = exponent
        print(f"fit_exponent = {_fmt(exponent)}")
    return _write_json(report, args.json)


def cmd_sweep(args) -> int:
    grid_p = grid_values(args.p_min, args.p_max, args.p_step)
    grid_h = grid_values(args.h_min, args.h_max, args.h_step)
    records = sweep(args.n, grid_p, grid_h, witness_kind=args.kind, entangler_mode=args.entangler)
    if args.format == "csv":
        payload = sweep_csv(records)
    else:
        payload = json.dumps([dataclasses.asdict(r) for r in records], indent=2) + "\n"
    if _write(args.out, payload):
        return 1
    report = {
        "rows": len(records),
        "min_value_conv": min(r.value_conv for r in records),
        "min_value_sed": min(r.value_sed for r in records),
    }
    if any(abs(p - 1.0) < ATOL_ALGEBRA for p in grid_p):
        for field in ("value_conv", "value_sed"):
            crossing = zero_crossing_h(records, 1.0, field)
            report[f"zero_crossing_h_{field}"] = "none" if crossing is None else crossing
    return _emit(report, None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sedwitness",
        description="Entanglement witness construction, single-run readout simulation and noise studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", help="witness constants, threshold, pseudopure expectation")
    p.add_argument("--kind", default="ghz", choices=["ghz", "w", "generic"])
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("sed-verify", help="single-run readout equality and diagonal checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_sed_verify)

    p = sub.add_parser("ancilla", help="one-ancilla readout against the direct trace")
    p.add_argument("--kind", default="ghz", choices=["ghz", "w"])
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--p", type=float, default=0.9)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_ancilla)

    p = sub.add_parser("gatecount", help="expanded circuit sizes and scaling fit")
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_gatecount)

    p = sub.add_parser("sweep", help="noise sweep over the (p, h) grid")
    p.add_argument("--kind", default="ghz", choices=["ghz", "w"])
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--p-min", type=float, default=0.5)
    p.add_argument("--p-max", type=float, default=1.0)
    p.add_argument("--p-step", type=float, default=0.05)
    p.add_argument("--h-min", type=float, default=0.5)
    p.add_argument("--h-max", type=float, default=1.0)
    p.add_argument("--h-step", type=float, default=0.05)
    p.add_argument("--entangler", default="witness", choices=["witness", "identity"])
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "n", None) is not None and not 2 <= args.n <= 10:
            raise ValueError("--n must lie in 2..10")
        return args.func(args)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
